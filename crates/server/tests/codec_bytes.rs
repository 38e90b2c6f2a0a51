//! Emitted bytes, pinned.
//!
//! Every other codec test goes *through* a parser (round trips, field
//! probes); none says what the emitters actually write. This file does:
//! one literal expected string per journal event, snapshot, metadata
//! file, protocol response and rendered request. A change to field order,
//! float formatting or escaping fails here first, with the exact line in
//! the diff. The journal and snapshot literals are also read back: each
//! must parse, and what it parses to must write the bytes it came from.
//!
//! The literals are the contract. Constructor expressions may change when
//! a type does; the strings may not.

use std::time::Duration;

use bondlab::Bond;
use va_persist::json::render;
use va_persist::record::{
    JournalEvent, RelationDefRecord, RelationRecord, RelationSnapshot, SegmentPosition,
    SessionTickRecord, SnapshotRecord, TickRecord, WarmObjectRecord, WarmRateRecord,
};
use va_persist::{Meta, MetaRelation};
use va_server::proto::{self, RelationSpec, Request, WireBond, WireQuery};
use va_server::{Answer, RelationId, Server, ServerConfig, Session, SessionId, TickResult};
use va_stream::{BondRelation, Query, QueryOutput, TickStats};
use vao::cost::WorkBreakdown;
use vao::ops::heavy::HeavyCell;
use vao::ops::selection::CmpOp;
use vao::Bounds;

/// Asserts each `(what, emitted, expected)` triple.
fn check(pins: &[(&str, String, &str)]) {
    for (what, emitted, expected) in pins {
        assert_eq!(emitted, expected, "{what}");
    }
}

fn bond(id: u32) -> Bond {
    Bond::new(id, 0.0325 + f64::from(id) * 0.01, 7.5, 100.0)
}

fn def(name: &str, seed: Option<u64>, bonds: u32) -> RelationDefRecord {
    RelationDefRecord {
        name: name.to_string(),
        seed,
        bonds: (0..bonds).map(bond).collect(),
    }
}

/// The work of the pinned ticks; each of them made 319 iterations.
fn work() -> WorkBreakdown {
    WorkBreakdown {
        exec_iter: 921_088,
        get_state: 48,
        store_state: 415,
        choose_iter: 13_937,
    }
}

/// One answer of every [`QueryOutput`] shape, plus a partial.
fn answers() -> Vec<(SessionId, Answer)> {
    let outputs = [
        QueryOutput::Selected(vec![1, 2, 37]),
        QueryOutput::Extreme {
            bond_id: 45,
            bounds: Bounds::new(123.318_127_050_003_1, 123.566_607_748_983_66),
            ties: vec![2, 9],
        },
        QueryOutput::Aggregate {
            bounds: Bounds::new(5_132.538_654_318_307, 5_174.847_830_908_930_5),
        },
        QueryOutput::Ranked {
            members: vec![
                (45, Bounds::new(123.3, 123.6)),
                (9, Bounds::new(88.8, 88.9)),
            ],
            ties: vec![3],
        },
        QueryOutput::Count { lo: 37, hi: 41 },
        QueryOutput::Heavy {
            cells: vec![
                HeavyCell { cell: -3, count: 7 },
                HeavyCell { cell: 12, count: 2 },
            ],
            ties: vec![-2, 5],
        },
    ];
    let mut entries: Vec<(SessionId, Answer)> = outputs
        .into_iter()
        .zip(1..)
        .map(|(out, session)| (SessionId(session), Answer::Final(out)))
        .collect();
    entries.push((
        SessionId(7),
        Answer::Partial {
            bounds: Bounds::new(5132.5, 5174.8),
        },
    ));
    entries
}

fn warm() -> Vec<WarmObjectRecord> {
    vec![
        WarmObjectRecord {
            bounds: Bounds::new(88.80101456519986, 88.85679684433053),
            converged: true,
        },
        WarmObjectRecord {
            bounds: Bounds::new(90.0, 110.0),
            converged: false,
        },
    ]
}

fn tick() -> JournalEvent {
    JournalEvent::Tick(Box::new(TickRecord {
        relation: 2,
        tick: 7,
        rate: 0.0583,
        shed: 2,
        budget_exhausted: true,
        work: work(),
        iterations: 319,
        sessions: vec![
            SessionTickRecord {
                session: 1,
                is_final: true,
                driven: 100,
            },
            SessionTickRecord {
                session: 7,
                is_final: false,
                driven: 0,
            },
        ],
        answers: answers(),
        warm: warm(),
    }))
}

/// One query of every kind, in a fixed order.
fn queries() -> Vec<Query> {
    vec![
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::Count {
            op: CmpOp::Le,
            constant: 99.5,
            slack: 4,
        },
        Query::Sum {
            weights: vec![1.0, 0.25, 3.5],
            epsilon: 50.0,
        },
        Query::Ave { epsilon: 0.5 },
        Query::Max { epsilon: 0.0101 },
        Query::Min { epsilon: 0.25 },
        Query::TopK { k: 5, epsilon: 1.0 },
        Query::Median { epsilon: 0.05 },
        Query::Percentile {
            phi: 0.95,
            epsilon: 0.25,
        },
        Query::HeavyHitters { k: 3, epsilon: 0.5 },
    ]
}

/// Every journal event kind as `(what, emitted, expected)`.
fn journal_pins() -> Vec<(&'static str, String, &'static str)> {
    let mut pins = vec![
        (
            "create_relation with a seed",
            JournalEvent::CreateRelation(Box::new(RelationRecord {
                relation: 2,
                def: def("energy", Some(1994), 2),
            }))
            .to_line(),
            r#"{"ev":"create_relation","relation":2,"def":{"name":"energy","seed":1994,"bonds":[{"id":0,"coupon":0.0325,"maturity":7.5,"face":100},{"id":1,"coupon":0.0425,"maturity":7.5,"face":100}]}}"#,
        ),
        (
            "create_relation without a seed, name needing escapes, no bonds",
            JournalEvent::CreateRelation(Box::new(RelationRecord {
                relation: 3,
                def: def("weird \"name\"\n\t\\", None, 0),
            }))
            .to_line(),
            r#"{"ev":"create_relation","relation":3,"def":{"name":"weird \"name\"\n\t\\","bonds":[]}}"#,
        ),
        (
            "drop_relation",
            JournalEvent::DropRelation { relation: 2 }.to_line(),
            r#"{"ev":"drop_relation","relation":2}"#,
        ),
        (
            "add_bond",
            JournalEvent::AddBond {
                relation: 3,
                bond: bond(7),
            }
            .to_line(),
            r#"{"ev":"add_bond","relation":3,"bond":{"id":7,"coupon":0.10250000000000001,"maturity":7.5,"face":100}}"#,
        ),
        (
            "unsubscribe",
            JournalEvent::Unsubscribe {
                relation: 1,
                session: 4,
            }
            .to_line(),
            r#"{"ev":"unsubscribe","relation":1,"session":4}"#,
        ),
        (
            "tick",
            tick().to_line(),
            r#"{"ev":"tick","relation":2,"tick":7,"rate":0.0583,"shed":2,"budget_exhausted":true,"stats":{"work":{"exec":921088,"get":48,"store":415,"choose":13937},"iterations":319},"sessions":[{"session":1,"final":true,"driven":100},{"session":7,"final":false,"driven":0}],"answers":[{"session":1,"answer":{"status":"final","output":{"shape":"selected","ids":[1,2,37]}}},{"session":2,"answer":{"status":"final","output":{"shape":"extreme","bond":45,"lo":123.3181270500031,"hi":123.56660774898366,"ties":[2,9]}}},{"session":3,"answer":{"status":"final","output":{"shape":"aggregate","lo":5132.538654318307,"hi":5174.8478309089305}}},{"session":4,"answer":{"status":"final","output":{"shape":"ranked","members":[{"bond":45,"lo":123.3,"hi":123.6},{"bond":9,"lo":88.8,"hi":88.9}],"ties":[3]}}},{"session":5,"answer":{"status":"final","output":{"shape":"count","lo":37,"hi":41}}},{"session":6,"answer":{"status":"final","output":{"shape":"heavy","cells":[{"cell":-3,"count":7},{"cell":12,"count":2}],"ties":[-2,5]}}},{"session":7,"answer":{"status":"partial","lo":5132.5,"hi":5174.8}}],"warm":[{"lo":88.80101456519986,"hi":88.85679684433053,"converged":true},{"lo":90,"hi":110,"converged":false}]}"#,
        ),
        (
            "snapshot marker",
            JournalEvent::SnapshotMarker { seq: 12 }.to_line(),
            r#"{"ev":"snapshot","seq":12}"#,
        ),
    ];
    let subscribes = [
        r#"{"ev":"subscribe","relation":1,"session":4,"priority":2,"query":{"kind":"selection","op":">","constant":100}}"#,
        r#"{"ev":"subscribe","relation":1,"session":5,"priority":2,"query":{"kind":"count","op":"<=","constant":99.5,"slack":4}}"#,
        r#"{"ev":"subscribe","relation":1,"session":6,"priority":2,"query":{"kind":"sum","epsilon":50,"weights":[1,0.25,3.5]}}"#,
        r#"{"ev":"subscribe","relation":1,"session":7,"priority":2,"query":{"kind":"ave","epsilon":0.5}}"#,
        r#"{"ev":"subscribe","relation":1,"session":8,"priority":2,"query":{"kind":"max","epsilon":0.0101}}"#,
        r#"{"ev":"subscribe","relation":1,"session":9,"priority":2,"query":{"kind":"min","epsilon":0.25}}"#,
        r#"{"ev":"subscribe","relation":1,"session":10,"priority":2,"query":{"kind":"topk","k":5,"epsilon":1}}"#,
        r#"{"ev":"subscribe","relation":1,"session":11,"priority":2,"query":{"kind":"median","epsilon":0.05}}"#,
        r#"{"ev":"subscribe","relation":1,"session":12,"priority":2,"query":{"kind":"percentile","phi":0.95,"epsilon":0.25}}"#,
        r#"{"ev":"subscribe","relation":1,"session":13,"priority":2,"query":{"kind":"heavyhitters","k":3,"epsilon":0.5}}"#,
    ];
    for ((query, expected), session) in queries().into_iter().zip(subscribes).zip(4..) {
        pins.push((
            "subscribe",
            JournalEvent::Subscribe {
                relation: 1,
                session,
                priority: 2,
                query,
            }
            .to_line(),
            expected,
        ));
    }
    pins.extend(edge_journal_pins());
    pins
}

/// The float spellings every writer must keep: negative zero, a value
/// whose shortest form is a long integer, a small fraction, the smallest
/// subnormal and the largest finite value.
fn edge_floats() -> [f64; 5] {
    [-0.0, 1e21, 1e-7, f64::from_bits(1), f64::MAX]
}

/// One answer per array field at zero and one element, and the edge
/// floats inside bounds.
fn edge_answers() -> Vec<(SessionId, Answer)> {
    let [neg_zero, big, small, subnormal, max] = edge_floats();
    let outputs = [
        QueryOutput::Selected(Vec::new()),
        QueryOutput::Selected(vec![5]),
        QueryOutput::Extreme {
            bond_id: 0,
            bounds: Bounds::new(neg_zero, max),
            ties: Vec::new(),
        },
        QueryOutput::Extreme {
            bond_id: 4,
            bounds: Bounds::new(subnormal, small),
            ties: vec![3],
        },
        QueryOutput::Aggregate {
            bounds: Bounds::new(small, big),
        },
        QueryOutput::Ranked {
            members: Vec::new(),
            ties: Vec::new(),
        },
        QueryOutput::Ranked {
            members: vec![(8, Bounds::new(neg_zero, subnormal))],
            ties: vec![2],
        },
        QueryOutput::Heavy {
            cells: Vec::new(),
            ties: Vec::new(),
        },
        QueryOutput::Heavy {
            cells: vec![HeavyCell { cell: -1, count: 1 }],
            ties: vec![0],
        },
    ];
    outputs
        .into_iter()
        .zip(1..)
        .map(|(out, session)| (SessionId(session), Answer::Final(out)))
        .collect()
}

/// Journal lines with every array field empty and with one element, and
/// with the edge floats wherever a record carries a float.
fn edge_journal_pins() -> Vec<(&'static str, String, &'static str)> {
    let answers_tick = JournalEvent::Tick(Box::new(TickRecord {
        relation: 1,
        tick: 3,
        rate: 0.05,
        shed: 0,
        budget_exhausted: false,
        work: work(),
        iterations: 319,
        sessions: Vec::new(),
        answers: edge_answers(),
        warm: Vec::new(),
    }));
    let sum = |weights: Vec<f64>| JournalEvent::Subscribe {
        relation: 1,
        session: 2,
        priority: 1,
        query: Query::Sum {
            weights,
            epsilon: 0.5,
        },
    };
    let [empty_tick, one_tick] = edge_ticks();
    vec![
        (
            "tick, every array empty, edge floats",
            empty_tick.to_line(),
            r#"{"ev":"tick","relation":1,"tick":1,"rate":-0,"shed":0,"budget_exhausted":false,"stats":{"work":{"exec":921088,"get":48,"store":415,"choose":13937},"iterations":319},"sessions":[],"answers":[],"warm":[]}"#,
        ),
        (
            "tick, every array one element, edge floats",
            one_tick.to_line(),
            r#"{"ev":"tick","relation":1,"tick":2,"rate":0.0000001,"shed":0,"budget_exhausted":false,"stats":{"work":{"exec":921088,"get":48,"store":415,"choose":13937},"iterations":319},"sessions":[{"session":3,"final":true,"driven":1}],"answers":[{"session":3,"answer":{"status":"partial","lo":-0,"hi":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000}}],"warm":[{"lo":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"hi":1000000000000000000000,"converged":false}]}"#,
        ),
        (
            "tick, every output array empty and one element",
            answers_tick.to_line(),
            r#"{"ev":"tick","relation":1,"tick":3,"rate":0.05,"shed":0,"budget_exhausted":false,"stats":{"work":{"exec":921088,"get":48,"store":415,"choose":13937},"iterations":319},"sessions":[],"answers":[{"session":1,"answer":{"status":"final","output":{"shape":"selected","ids":[]}}},{"session":2,"answer":{"status":"final","output":{"shape":"selected","ids":[5]}}},{"session":3,"answer":{"status":"final","output":{"shape":"extreme","bond":0,"lo":-0,"hi":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"ties":[]}}},{"session":4,"answer":{"status":"final","output":{"shape":"extreme","bond":4,"lo":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"hi":0.0000001,"ties":[3]}}},{"session":5,"answer":{"status":"final","output":{"shape":"aggregate","lo":0.0000001,"hi":1000000000000000000000}}},{"session":6,"answer":{"status":"final","output":{"shape":"ranked","members":[],"ties":[]}}},{"session":7,"answer":{"status":"final","output":{"shape":"ranked","members":[{"bond":8,"lo":-0,"hi":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005}],"ties":[2]}}},{"session":8,"answer":{"status":"final","output":{"shape":"heavy","cells":[],"ties":[]}}},{"session":9,"answer":{"status":"final","output":{"shape":"heavy","cells":[{"cell":-1,"count":1}],"ties":[0]}}}],"warm":[]}"#,
        ),
        (
            "subscribe, SUM without weights",
            sum(Vec::new()).to_line(),
            r#"{"ev":"subscribe","relation":1,"session":2,"priority":1,"query":{"kind":"sum","epsilon":0.5,"weights":[]}}"#,
        ),
        (
            "subscribe, SUM with one weight",
            sum(vec![1.5]).to_line(),
            r#"{"ev":"subscribe","relation":1,"session":2,"priority":1,"query":{"kind":"sum","epsilon":0.5,"weights":[1.5]}}"#,
        ),
        (
            "subscribe, SUM with the edge floats",
            sum(edge_floats().to_vec()).to_line(),
            r#"{"ev":"subscribe","relation":1,"session":2,"priority":1,"query":{"kind":"sum","epsilon":0.5,"weights":[-0,1000000000000000000000,0.0000001,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000]}}"#,
        ),
        (
            "create_relation with one bond",
            JournalEvent::CreateRelation(Box::new(RelationRecord {
                relation: 4,
                def: def("one", None, 1),
            }))
            .to_line(),
            r#"{"ev":"create_relation","relation":4,"def":{"name":"one","bonds":[{"id":0,"coupon":0.0325,"maturity":7.5,"face":100}]}}"#,
        ),
    ]
}

#[test]
fn journal_lines() {
    check(&journal_pins());
}

/// A tick with every array empty and one with every array one element,
/// with the edge floats wherever a tick carries a float.
fn edge_ticks() -> [JournalEvent; 2] {
    let [neg_zero, big, small, subnormal, max] = edge_floats();
    let empty_tick = JournalEvent::Tick(Box::new(TickRecord {
        relation: 1,
        tick: 1,
        rate: neg_zero,
        shed: 0,
        budget_exhausted: false,
        work: work(),
        iterations: 319,
        sessions: Vec::new(),
        answers: Vec::new(),
        warm: Vec::new(),
    }));
    let one_tick = JournalEvent::Tick(Box::new(TickRecord {
        relation: 1,
        tick: 2,
        rate: small,
        shed: 0,
        budget_exhausted: false,
        work: work(),
        iterations: 319,
        sessions: vec![SessionTickRecord {
            session: 3,
            is_final: true,
            driven: 1,
        }],
        answers: vec![(
            SessionId(3),
            Answer::Partial {
                bounds: Bounds::new(neg_zero, max),
            },
        )],
        warm: vec![WarmObjectRecord {
            bounds: Bounds::new(subnormal, big),
            converged: false,
        }],
    }));
    [empty_tick, one_tick]
}

/// A two-relation snapshot, one section holding something in every field.
fn two_relation_snapshot() -> SnapshotRecord {
    SnapshotRecord {
        seq: 3,
        journal_events: 41,
        coverage: SegmentPosition {
            segment: 4,
            bytes: 1_234,
        },
        next_relation_id: 4,
        relations: vec![
            RelationSnapshot {
                relation: 1,
                def: def("default", Some(42), 2),
                next_session_id: 9,
                ticks: 12,
                shed: 1,
                sessions: vec![
                    Session {
                        id: SessionId(2),
                        query: Query::Max { epsilon: 0.0101 },
                        priority: 4,
                        finals: 10,
                        partials: 2,
                        driven_iterations: 4_021,
                    },
                    Session {
                        id: SessionId(8),
                        query: Query::Sum {
                            weights: vec![1.0, 2.0],
                            epsilon: 0.5,
                        },
                        priority: 1,
                        finals: 0,
                        partials: 0,
                        driven_iterations: 0,
                    },
                ],
                work: work() + work(),
                iterations: 638,
                warm: vec![WarmRateRecord {
                    rate: 0.0583,
                    objects: warm(),
                }],
                answers: vec![
                    (
                        SessionId(2),
                        Answer::Partial {
                            bounds: Bounds::new(1.0, 2.0),
                        },
                    ),
                    (
                        SessionId(8),
                        Answer::Final(QueryOutput::Count { lo: 3, hi: 3 }),
                    ),
                ],
            },
            RelationSnapshot {
                relation: 3,
                def: def("fx", None, 1),
                next_session_id: 1,
                ticks: 0,
                shed: 0,
                sessions: Vec::new(),
                work: WorkBreakdown::default(),
                iterations: 0,
                warm: Vec::new(),
                answers: Vec::new(),
            },
        ],
    }
}

/// Snapshots with two relations, with none, and with one relation whose
/// every array field holds zero or one element, with the edge floats.
fn edge_snapshot_pins() -> Vec<(&'static str, String, &'static str)> {
    let [neg_zero, big, small, subnormal, max] = edge_floats();
    let empty = SnapshotRecord {
        seq: 1,
        journal_events: 0,
        coverage: SegmentPosition {
            segment: 1,
            bytes: 0,
        },
        next_relation_id: 1,
        relations: Vec::new(),
    };
    let one = SnapshotRecord {
        seq: 2,
        journal_events: 5,
        coverage: SegmentPosition {
            segment: 2,
            bytes: 0,
        },
        next_relation_id: 2,
        relations: vec![RelationSnapshot {
            relation: 1,
            def: def("one", Some(7), 1),
            next_session_id: 2,
            ticks: 1,
            shed: 0,
            sessions: vec![Session {
                id: SessionId(1),
                query: Query::Sum {
                    weights: vec![max],
                    epsilon: small,
                },
                priority: 1,
                finals: 1,
                partials: 0,
                driven_iterations: 0,
            }],
            work: work(),
            iterations: 319,
            warm: vec![
                WarmRateRecord {
                    rate: neg_zero,
                    objects: Vec::new(),
                },
                WarmRateRecord {
                    rate: big,
                    objects: vec![WarmObjectRecord {
                        bounds: Bounds::new(neg_zero, max),
                        converged: true,
                    }],
                },
            ],
            answers: vec![(
                SessionId(1),
                Answer::Final(QueryOutput::Aggregate {
                    bounds: Bounds::new(subnormal, big),
                }),
            )],
        }],
    };
    vec![
        (
            "two-relation snapshot",
            two_relation_snapshot().to_json(),
            r#"{"seq":3,"journal_events":41,"segment":4,"segment_bytes":1234,"next_relation_id":4,"relations":[{"relation":1,"def":{"name":"default","seed":42,"bonds":[{"id":0,"coupon":0.0325,"maturity":7.5,"face":100},{"id":1,"coupon":0.0425,"maturity":7.5,"face":100}]},"next_session_id":9,"ticks":12,"shed":1,"sessions":[{"session":2,"priority":4,"finals":10,"partials":2,"driven":4021,"query":{"kind":"max","epsilon":0.0101}},{"session":8,"priority":1,"finals":0,"partials":0,"driven":0,"query":{"kind":"sum","epsilon":0.5,"weights":[1,2]}}],"work":{"exec":1842176,"get":96,"store":830,"choose":27874},"iterations":638,"warm":[{"rate":0.0583,"objects":[{"lo":88.80101456519986,"hi":88.85679684433053,"converged":true},{"lo":90,"hi":110,"converged":false}]}],"answers":[{"session":2,"answer":{"status":"partial","lo":1,"hi":2}},{"session":8,"answer":{"status":"final","output":{"shape":"count","lo":3,"hi":3}}}]},{"relation":3,"def":{"name":"fx","bonds":[{"id":0,"coupon":0.0325,"maturity":7.5,"face":100}]},"next_session_id":1,"ticks":0,"shed":0,"sessions":[],"work":{"exec":0,"get":0,"store":0,"choose":0},"iterations":0,"warm":[],"answers":[]}]}"#,
        ),
        (
            "snapshot with no relation",
            empty.to_json(),
            r#"{"seq":1,"journal_events":0,"segment":1,"segment_bytes":0,"next_relation_id":1,"relations":[]}"#,
        ),
        (
            "snapshot, one relation, one-element arrays, edge floats",
            one.to_json(),
            r#"{"seq":2,"journal_events":5,"segment":2,"segment_bytes":0,"next_relation_id":2,"relations":[{"relation":1,"def":{"name":"one","seed":7,"bonds":[{"id":0,"coupon":0.0325,"maturity":7.5,"face":100}]},"next_session_id":2,"ticks":1,"shed":0,"sessions":[{"session":1,"priority":1,"finals":1,"partials":0,"driven":0,"query":{"kind":"sum","epsilon":0.0000001,"weights":[179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000]}}],"work":{"exec":921088,"get":48,"store":415,"choose":13937},"iterations":319,"warm":[{"rate":-0,"objects":[]},{"rate":1000000000000000000000,"objects":[{"lo":-0,"hi":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"converged":true}]}],"answers":[{"session":1,"answer":{"status":"final","output":{"shape":"aggregate","lo":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"hi":1000000000000000000000}}}]}]}"#,
        ),
    ]
}

#[test]
fn snapshot_and_meta_documents() {
    let meta = Meta {
        pricer: 0xFEED_FACE_CAFE_BEEF,
        relations: vec![
            MetaRelation {
                relation: 1,
                fingerprint: 77,
            },
            MetaRelation {
                relation: 3,
                fingerprint: u64::MAX,
            },
        ],
    };
    let empty_meta = Meta {
        pricer: 5,
        relations: Vec::new(),
    };
    let mut pins = edge_snapshot_pins();
    pins.extend([
        (
            "catalog meta",
            meta.to_json(),
            r#"{"version":4,"pricer":18369614221190020847,"relations":[{"relation":1,"fingerprint":77},{"relation":3,"fingerprint":18446744073709551615}]}"#,
        ),
        (
            "empty meta",
            empty_meta.to_json(),
            r#"{"version":4,"pricer":5,"relations":[]}"#,
        ),
        (
            "one-relation meta",
            Meta {
                pricer: 5,
                relations: vec![MetaRelation {
                    relation: 1,
                    fingerprint: 0,
                }],
            }
            .to_json(),
            r#"{"version":4,"pricer":5,"relations":[{"relation":1,"fingerprint":0}]}"#,
        ),
    ]);
    check(&pins);
}

/// The decoder, pinned against the same literals: every journal line and
/// the snapshot document parse, and what they parse to writes back the
/// bytes it was read from.
#[test]
fn pinned_records_parse_back_to_their_bytes() {
    for (what, _, line) in journal_pins() {
        let event = JournalEvent::parse(line).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(event.to_line(), line, "{what}");
    }
    for (what, _, text) in edge_snapshot_pins() {
        let snap = SnapshotRecord::parse(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(snap.to_json(), text, "{what}");
    }
}

fn session() -> Session {
    Session {
        id: SessionId(4),
        query: Query::Max { epsilon: 0.5 },
        priority: 2,
        finals: 7,
        partials: 1,
        driven_iterations: 90,
    }
}

fn tick_result() -> TickResult {
    TickResult {
        relation: RelationId(1),
        tick: 9,
        rate: 0.0601,
        answers: Vec::new(),
        stats: TickStats {
            rate: 0.0601,
            work: WorkBreakdown {
                exec_iter: 1_000,
                get_state: 20,
                store_state: 30,
                choose_iter: 4,
            },
            wall: Duration::from_nanos(5),
            iterations: 17,
        },
        budget_exhausted: true,
    }
}

#[test]
fn protocol_responses() {
    let partial = Answer::Partial {
        bounds: Bounds::new(1.0, 2.5),
    };
    let fin = Answer::Final(QueryOutput::Extreme {
        bond_id: 5,
        bounds: Bounds::new(99.0, 99.5),
        ties: vec![6, 7],
    });
    let mut server = Server::new(
        bondlab::BondPricer::default(),
        BondRelation::from_universe(&bondlab::BondUniverse::generate(4, 7)),
        ServerConfig::default(),
    );
    server
        .create_relation(
            "fx \"spot\"",
            BondRelation::from_universe(&bondlab::BondUniverse::generate(3, 9)),
            Some(9),
        )
        .unwrap();
    server.subscribe(Query::Max { epsilon: 0.5 }, 2).unwrap();
    server
        .subscribe(
            Query::Count {
                op: CmpOp::Gt,
                constant: 100.0,
                slack: 1,
            },
            1,
        )
        .unwrap();
    let mut pins = vec![
        (
            "SUBSCRIBED",
            render(|o| proto::write_subscribed(o, "default", SessionId(7))),
            r#"{"type":"SUBSCRIBED","relation":"default","session":7}"#,
        ),
        (
            "UNSUBSCRIBED",
            render(|o| proto::write_unsubscribed(o, "default", 7)),
            r#"{"type":"UNSUBSCRIBED","relation":"default","session":7}"#,
        ),
        (
            "CREATED",
            render(|o| proto::write_created(o, "energy", 2, 16)),
            r#"{"type":"CREATED","relation":"energy","id":2,"bonds":16}"#,
        ),
        (
            "DROPPED",
            render(|o| proto::write_dropped(o, "energy", 2)),
            r#"{"type":"DROPPED","relation":"energy","id":2}"#,
        ),
        (
            "BOND_ADDED",
            render(|o| proto::write_bond_added(o, "default", 8, 9)),
            r#"{"type":"BOND_ADDED","relation":"default","bond":8,"bonds":9}"#,
        ),
        (
            "USING",
            render(|o| proto::write_using(o, "ener\"gy")),
            r#"{"type":"USING","relation":"ener\"gy"}"#,
        ),
        (
            "RELATIONS",
            render(|o| proto::write_relations(o, server.catalog())),
            r#"{"type":"RELATIONS","relations":[{"name":"default","id":1,"bonds":4,"sessions":2,"ticks":0},{"name":"fx \"spot\"","id":2,"bonds":3,"sessions":0,"ticks":0}]}"#,
        ),
        (
            "RESUMED, never answered",
            render(|o| proto::write_resumed(o, "default", &session(), 8, None)),
            r#"{"type":"RESUMED","relation":"default","session":4,"operator":"max","priority":2,"finals":7,"partials":1,"tick":8}"#,
        ),
        (
            "RESUMED, partial",
            render(|o| proto::write_resumed(o, "default", &session(), 8, Some(&partial))),
            r#"{"type":"RESUMED","relation":"default","session":4,"operator":"max","priority":2,"finals":7,"partials":1,"tick":8,"answer":{"status":"partial","lo":1,"hi":2.5}}"#,
        ),
        (
            "RESUMED, final",
            render(|o| proto::write_resumed(o, "default", &session(), 8, Some(&fin))),
            r#"{"type":"RESUMED","relation":"default","session":4,"operator":"max","priority":2,"finals":7,"partials":1,"tick":8,"answer":{"status":"final","output":{"shape":"extreme","bond":5,"lo":99,"hi":99.5,"ties":[6,7]}}}"#,
        ),
        (
            "ERROR with escapes",
            render(|o| proto::write_error(o, "bad \"thing\"\nhappened\t\\ \u{1}")),
            r#"{"type":"ERROR","message":"bad \"thing\"\nhappened\t\\ \u0001"}"#,
        ),
        ("BYE", render(proto::write_bye), r#"{"type":"BYE"}"#),
        (
            "RESULT payload, partial",
            proto::result_payload("default", 7, 0.0584, &partial),
            r#""relation":"default","tick":7,"rate":0.0584,"status":"partial","bounds":{"lo":1,"hi":2.5}"#,
        ),
        (
            "RESULT line, final",
            proto::result("a\\b", 7, 0.0584, SessionId(40), &fin),
            r#"{"type":"RESULT","session":40,"relation":"a\\b","tick":7,"rate":0.0584,"status":"final","output":{"shape":"extreme","bond":5,"lo":99,"hi":99.5,"ties":[6,7]}}"#,
        ),
        (
            "TICK_DONE",
            proto::tick_done("default", &tick_result(), 3),
            r#"{"type":"TICK_DONE","relation":"default","tick":9,"rate":0.0601,"work_units":1054,"iterations":17,"budget_exhausted":true,"shed":3}"#,
        ),
        (
            "STATS",
            render(|o| proto::write_stats(o, server.catalog().by_name("default").unwrap())),
            r#"{"type":"STATS","relation":"default","ticks":0,"shed_ticks":0,"work_units":0,"iterations":0,"sessions":[{"session":1,"operator":"max","priority":2,"finals":0,"partials":0,"driven_iterations":0},{"session":2,"operator":"count","priority":1,"finals":0,"partials":0,"driven_iterations":0}]}"#,
        ),
    ];
    let payloads = [
        r#""relation":"default","tick":3,"rate":0.0583,"status":"final","output":{"shape":"selected","ids":[1,2,37]}"#,
        r#""relation":"default","tick":3,"rate":0.0583,"status":"final","output":{"shape":"extreme","bond":45,"lo":123.3181270500031,"hi":123.56660774898366,"ties":[2,9]}"#,
        r#""relation":"default","tick":3,"rate":0.0583,"status":"final","output":{"shape":"aggregate","lo":5132.538654318307,"hi":5174.8478309089305}"#,
        r#""relation":"default","tick":3,"rate":0.0583,"status":"final","output":{"shape":"ranked","members":[{"bond":45,"lo":123.3,"hi":123.6},{"bond":9,"lo":88.8,"hi":88.9}],"ties":[3]}"#,
        r#""relation":"default","tick":3,"rate":0.0583,"status":"final","output":{"shape":"count","lo":37,"hi":41}"#,
        r#""relation":"default","tick":3,"rate":0.0583,"status":"final","output":{"shape":"heavy","cells":[{"cell":-3,"count":7},{"cell":12,"count":2}],"ties":[-2,5]}"#,
    ];
    for ((_, answer), expected) in answers().into_iter().zip(payloads) {
        pins.push((
            "RESULT payload, final",
            proto::result_payload("default", 3, 0.0583, &answer),
            expected,
        ));
    }
    let edge_payloads = [
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"selected","ids":[]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"selected","ids":[5]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"extreme","bond":0,"lo":-0,"hi":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,"ties":[]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"extreme","bond":4,"lo":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"hi":0.0000001,"ties":[3]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"aggregate","lo":0.0000001,"hi":1000000000000000000000}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"ranked","members":[],"ties":[]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"ranked","members":[{"bond":8,"lo":-0,"hi":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005}],"ties":[2]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"heavy","cells":[],"ties":[]}"#,
        r#""relation":"default","tick":4,"rate":0.05,"status":"final","output":{"shape":"heavy","cells":[{"cell":-1,"count":1}],"ties":[0]}"#,
    ];
    for ((_, answer), expected) in edge_answers().into_iter().zip(edge_payloads) {
        pins.push((
            "RESULT payload, empty or one-element arrays, edge floats",
            proto::result_payload("default", 4, 0.05, &answer),
            expected,
        ));
    }
    let [neg_zero, big, small, subnormal, max] = edge_floats();
    let mut one = Server::new(
        bondlab::BondPricer::default(),
        BondRelation::from_universe(&bondlab::BondUniverse::generate(1, 7)),
        ServerConfig::default(),
    );
    one.subscribe(Query::Min { epsilon: 0.5 }, 1).unwrap();
    pins.extend([
        (
            "RESULT line, partial, edge floats",
            proto::result(
                "default",
                1,
                neg_zero,
                SessionId(1),
                &Answer::Partial {
                    bounds: Bounds::new(neg_zero, max),
                },
            ),
            r#"{"type":"RESULT","session":1,"relation":"default","tick":1,"rate":-0,"status":"partial","bounds":{"lo":-0,"hi":179769313486231570000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000}}"#,
        ),
        (
            "RESULT line, final, edge floats",
            proto::result(
                "default",
                2,
                small,
                SessionId(2),
                &Answer::Final(QueryOutput::Aggregate {
                    bounds: Bounds::new(subnormal, big),
                }),
            ),
            r#"{"type":"RESULT","session":2,"relation":"default","tick":2,"rate":0.0000001,"status":"final","output":{"shape":"aggregate","lo":0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000005,"hi":1000000000000000000000}}"#,
        ),
        (
            "RELATIONS, one relation",
            render(|o| proto::write_relations(o, one.catalog())),
            r#"{"type":"RELATIONS","relations":[{"name":"default","id":1,"bonds":1,"sessions":1,"ticks":0}]}"#,
        ),
        (
            "STATS, one session",
            render(|o| proto::write_stats(o, one.catalog().by_name("default").unwrap())),
            r#"{"type":"STATS","relation":"default","ticks":0,"shed_ticks":0,"work_units":0,"iterations":0,"sessions":[{"session":1,"operator":"min","priority":1,"finals":0,"partials":0,"driven_iterations":0}]}"#,
        ),
        (
            "STATS, no session",
            render(|o| proto::write_stats(o, server.catalog().by_name("fx \"spot\"").unwrap())),
            r#"{"type":"STATS","relation":"fx \"spot\"","ticks":0,"shed_ticks":0,"work_units":0,"iterations":0,"sessions":[]}"#,
        ),
    ]);
    check(&pins);
}

/// One wire query of every kind, SUM with and without weights.
fn wire_queries() -> Vec<WireQuery> {
    vec![
        WireQuery::Selection {
            op: CmpOp::Ge,
            constant: 100.0,
        },
        WireQuery::Count {
            op: CmpOp::Lt,
            constant: 101.25,
            slack: 4,
        },
        WireQuery::Sum {
            weights: None,
            epsilon: 2.5,
        },
        WireQuery::Sum {
            weights: Some(vec![1.0, 0.0, 2.5]),
            epsilon: 2.5,
        },
        WireQuery::Ave { epsilon: 0.5 },
        WireQuery::Max { epsilon: 0.0101 },
        WireQuery::Min { epsilon: 0.25 },
        WireQuery::TopK { k: 5, epsilon: 1.0 },
        WireQuery::Median { epsilon: 0.05 },
        WireQuery::Percentile {
            phi: 0.95,
            epsilon: 0.25,
        },
        WireQuery::HeavyHitters { k: 3, epsilon: 0.5 },
    ]
}

#[test]
fn rendered_requests() {
    let wire_bond = WireBond {
        coupon: 0.0625,
        maturity: 30.0,
        face: 1000.0,
    };
    let fx = || Some("f\"x".to_string());
    let mut pins = vec![
        (
            "UNSUBSCRIBE",
            proto::render_request(&Request::Unsubscribe {
                relation: fx(),
                session: 12,
            }),
            r#"{"type":"UNSUBSCRIBE","session":12,"relation":"f\"x"}"#,
        ),
        (
            "RESUME",
            proto::render_request(&Request::Resume {
                relation: None,
                session: 12,
            }),
            r#"{"type":"RESUME","session":12}"#,
        ),
        (
            "TICK",
            proto::render_request(&Request::Tick {
                relation: fx(),
                rate: 0.0583,
            }),
            r#"{"type":"TICK","rate":0.0583,"relation":"f\"x"}"#,
        ),
        (
            "TICKS",
            proto::render_request(&Request::Ticks {
                relation: None,
                rates: vec![0.05, 0.0625],
            }),
            r#"{"type":"TICKS","rates":[0.05,0.0625]}"#,
        ),
        (
            "TICK_MULTI",
            proto::render_request(&Request::TickMulti {
                ticks: vec![("default".to_string(), 0.05), ("f\"x".to_string(), 0.06)],
            }),
            r#"{"type":"TICK_MULTI","ticks":[{"relation":"default","rate":0.05},{"relation":"f\"x","rate":0.06}]}"#,
        ),
        (
            "STATS",
            proto::render_request(&Request::Stats { relation: fx() }),
            r#"{"type":"STATS","relation":"f\"x"}"#,
        ),
        (
            "CREATE_RELATION, seeded",
            proto::render_request(&Request::CreateRelation {
                name: "energy".to_string(),
                spec: RelationSpec::Seeded { seed: 7, count: 16 },
            }),
            r#"{"type":"CREATE_RELATION","name":"energy","seed":7,"count":16}"#,
        ),
        (
            "CREATE_RELATION, bonds",
            proto::render_request(&Request::CreateRelation {
                name: "f\"x".to_string(),
                spec: RelationSpec::Bonds(vec![
                    WireBond {
                        coupon: 0.05,
                        maturity: 10.0,
                        face: 100.0,
                    },
                    wire_bond,
                ]),
            }),
            r#"{"type":"CREATE_RELATION","name":"f\"x","bonds":[{"coupon":0.05,"maturity":10,"face":100},{"coupon":0.0625,"maturity":30,"face":1000}]}"#,
        ),
        (
            "DROP_RELATION",
            proto::render_request(&Request::DropRelation {
                name: "f\"x".to_string(),
            }),
            r#"{"type":"DROP_RELATION","name":"f\"x"}"#,
        ),
        (
            "ADD_BOND",
            proto::render_request(&Request::AddBond {
                relation: fx(),
                bond: wire_bond,
            }),
            r#"{"type":"ADD_BOND","bond":{"coupon":0.0625,"maturity":30,"face":1000},"relation":"f\"x"}"#,
        ),
        (
            "USE",
            proto::render_request(&Request::Use {
                name: "energy".to_string(),
            }),
            r#"{"type":"USE","name":"energy"}"#,
        ),
        (
            "RELATIONS",
            proto::render_request(&Request::Relations),
            r#"{"type":"RELATIONS"}"#,
        ),
        (
            "QUIT",
            proto::render_request(&Request::Quit),
            r#"{"type":"QUIT"}"#,
        ),
    ];
    let subscribes = [
        r#"{"type":"SUBSCRIBE","query":{"kind":"selection","op":">=","constant":100},"priority":3}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"count","op":"<","constant":101.25,"slack":4},"priority":3,"relation":"f\"x"}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"sum","epsilon":2.5},"priority":3}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"sum","epsilon":2.5,"weights":[1,0,2.5]},"priority":3,"relation":"f\"x"}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"ave","epsilon":0.5},"priority":3}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.0101},"priority":3,"relation":"f\"x"}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"min","epsilon":0.25},"priority":3}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"topk","k":5,"epsilon":1},"priority":3,"relation":"f\"x"}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"median","epsilon":0.05},"priority":3}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"percentile","phi":0.95,"epsilon":0.25},"priority":3,"relation":"f\"x"}"#,
        r#"{"type":"SUBSCRIBE","query":{"kind":"heavyhitters","k":3,"epsilon":0.5},"priority":3}"#,
    ];
    pins.extend([
        (
            "TICKS, one rate",
            proto::render_request(&Request::Ticks {
                relation: None,
                rates: vec![0.05],
            }),
            r#"{"type":"TICKS","rates":[0.05]}"#,
        ),
        (
            "TICK_MULTI, one relation",
            proto::render_request(&Request::TickMulti {
                ticks: vec![("default".to_string(), 0.05)],
            }),
            r#"{"type":"TICK_MULTI","ticks":[{"relation":"default","rate":0.05}]}"#,
        ),
        (
            "CREATE_RELATION, one bond",
            proto::render_request(&Request::CreateRelation {
                name: "one".to_string(),
                spec: RelationSpec::Bonds(vec![wire_bond]),
            }),
            r#"{"type":"CREATE_RELATION","name":"one","bonds":[{"coupon":0.0625,"maturity":30,"face":1000}]}"#,
        ),
        (
            "SUBSCRIBE, SUM with one weight",
            proto::render_request(&Request::Subscribe {
                relation: None,
                query: WireQuery::Sum {
                    weights: Some(vec![2.0]),
                    epsilon: 0.5,
                },
                priority: 1,
            }),
            r#"{"type":"SUBSCRIBE","query":{"kind":"sum","epsilon":0.5,"weights":[2]},"priority":1}"#,
        ),
        (
            "SUBSCRIBE, SUM with no weight",
            proto::render_request(&Request::Subscribe {
                relation: None,
                query: WireQuery::Sum {
                    weights: Some(Vec::new()),
                    epsilon: 0.5,
                },
                priority: 1,
            }),
            r#"{"type":"SUBSCRIBE","query":{"kind":"sum","epsilon":0.5,"weights":[]},"priority":1}"#,
        ),
    ]);
    for (i, (query, expected)) in wire_queries().into_iter().zip(subscribes).enumerate() {
        pins.push((
            "SUBSCRIBE",
            proto::render_request(&Request::Subscribe {
                relation: if i % 2 == 0 { None } else { fx() },
                query,
                priority: 3,
            }),
            expected,
        ));
    }
    check(&pins);
}
