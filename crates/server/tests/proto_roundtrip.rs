//! Protocol round-trip properties.
//!
//! Two contracts pinned over random inputs:
//!
//! 1. **Requests.** [`proto::render_request`] composed with
//!    [`proto::parse_request`] is the identity on every [`Request`] variant
//!    — including the `RESUME` request the persistence layer added — for
//!    every query kind, every comparison operator, present and omitted SUM
//!    weights, and arbitrary finite numeric payloads. The wire format is
//!    `f64::Display`, whose shortest-round-trip guarantee makes the
//!    composition exact (bit-identical floats), not merely approximate.
//! 2. **Responses.** Every response builder in `proto` emits one line of
//!    valid protocol JSON whose tagged fields parse back to the values that
//!    went in — `SUBSCRIBED`, `UNSUBSCRIBED`, `RESUMED` (with and without a
//!    final/partial answer), `RESULT` in both statuses over every output
//!    shape, `TICK_DONE`, `ERROR` (with escaping), and `BYE`.

use std::time::Duration;

use proptest::prelude::*;

use va_persist::json::Json;
use va_server::proto::{self, RelationSpec, Request, WireBond, WireQuery};
use va_server::{
    Answer, RelationId, Server, ServerConfig, Session, SessionId, TickResult, DEFAULT_RELATION,
};
use va_stream::{BondRelation, Query, QueryOutput, TickStats};
use vao::cost::WorkBreakdown;
use vao::ops::selection::CmpOp;
use vao::Bounds;

fn cmp_op(sel: u32) -> CmpOp {
    match sel % 4 {
        0 => CmpOp::Gt,
        1 => CmpOp::Ge,
        2 => CmpOp::Lt,
        _ => CmpOp::Le,
    }
}

#[allow(clippy::too_many_arguments)]
fn wire_query(
    kind: u32,
    op: u32,
    constant: f64,
    slack: u32,
    epsilon: f64,
    k: u32,
    weights: &[f64],
) -> WireQuery {
    match kind % 7 {
        0 => WireQuery::Selection {
            op: cmp_op(op),
            constant,
        },
        1 => WireQuery::Count {
            op: cmp_op(op),
            constant,
            slack: slack as usize,
        },
        2 => WireQuery::Sum {
            weights: None,
            epsilon,
        },
        3 => WireQuery::Sum {
            weights: Some(weights.to_vec()),
            epsilon,
        },
        4 => WireQuery::Ave { epsilon },
        5 => WireQuery::Max { epsilon },
        _ => WireQuery::TopK {
            k: k as usize,
            epsilon,
        },
    }
}

fn output(shape: u32, lo: f64, hi: f64, ids: &[u32]) -> QueryOutput {
    let bounds = Bounds::new(lo.min(hi), lo.max(hi));
    match shape % 5 {
        0 => QueryOutput::Selected(ids.to_vec()),
        1 => QueryOutput::Extreme {
            bond_id: ids.first().copied().unwrap_or(7),
            bounds,
            ties: ids.to_vec(),
        },
        2 => QueryOutput::Aggregate { bounds },
        3 => QueryOutput::Ranked {
            members: ids.iter().map(|&i| (i, bounds)).collect(),
            ties: ids.to_vec(),
        },
        _ => QueryOutput::Count {
            lo: ids.len(),
            hi: ids.len() + ids.first().copied().unwrap_or(0) as usize,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// render ∘ parse = id over every request variant and query kind.
    #[test]
    fn every_request_variant_round_trips(
        (variant, kind, op) in (any::<u32>(), any::<u32>(), any::<u32>()),
        (constant, epsilon) in (-500.0f64..500.0, 0.001f64..100.0),
        (slack, k, priority) in (0u32..100, 1u32..50, any::<u32>()),
        // JSON numbers ride as f64, which is exact only up to 2^53 — the
        // protocol never issues ids anywhere near that, and the parser
        // would rightly reject an unrepresentable one.
        session in 0u64..1_000_000_000_000,
        weights in prop::collection::vec(-2.0f64..2.0, 0..6),
        rates in prop::collection::vec(0.0f64..0.2, 1..5),
    ) {
        // Exercise all three relation-addressing modes: omitted (connection
        // `USE` selection), the bootstrap default, and an arbitrary tenant.
        let relation = match op % 3 {
            0 => None,
            1 => Some(DEFAULT_RELATION.to_string()),
            _ => Some(format!("tenant-{}", op % 97)),
        };
        let bond = WireBond {
            coupon: epsilon / 100.0,
            maturity: 1.0 + constant.abs(),
            face: 100.0 + constant.abs(),
        };
        let req = match variant % 13 {
            0 => Request::Subscribe {
                relation: relation.clone(),
                query: wire_query(kind, op, constant, slack, epsilon, k, &weights),
                priority,
            },
            1 => Request::Unsubscribe { relation, session },
            2 => Request::Resume { relation, session },
            3 => Request::Tick { relation, rate: rates[0] },
            4 => Request::Ticks { relation, rates: rates.clone() },
            5 => Request::TickMulti {
                ticks: rates
                    .iter()
                    .enumerate()
                    .map(|(i, &r)| (format!("t{i}"), r))
                    .collect(),
            },
            6 => Request::Stats { relation },
            7 => Request::CreateRelation {
                name: format!("seeded-{}", kind % 9),
                spec: RelationSpec::Seeded { seed: session, count: k as u64 },
            },
            8 => Request::CreateRelation {
                name: format!("explicit-{}", kind % 9),
                spec: RelationSpec::Bonds(vec![bond; 1 + (slack as usize % 4)]),
            },
            9 => Request::DropRelation { name: format!("doomed-{}", kind % 9) },
            10 => Request::AddBond { relation, bond },
            11 => Request::Use { name: format!("tenant-{}", kind % 9) },
            _ => match variant % 2 {
                0 => Request::Relations,
                _ => Request::Quit,
            },
        };
        let line = proto::render_request(&req);
        prop_assert!(!line.contains('\n'), "one request, one line: {}", line);
        let parsed = proto::parse_request(&line);
        prop_assert!(parsed.is_ok(), "{}: {:?}", line, parsed);
        prop_assert_eq!(parsed.unwrap(), req, "round trip drifted: {}", line);
    }

    /// Every response builder emits one parseable JSON line whose tagged
    /// fields carry the input values back out.
    #[test]
    fn every_response_variant_is_faithful_protocol_json(
        (session, tick) in (0u64..1_000_000_000_000, 0u64..1_000_000_000_000),
        (rate, lo, hi) in (0.0f64..0.2, -300.0f64..300.0, -300.0f64..300.0),
        (shape, priority, answer_sel) in (any::<u32>(), 1u32..9, any::<u32>()),
        (finals, partials) in (0u64..1000, 0u64..1000),
        ids in prop::collection::vec(0u32..500, 0..6),
        message_salt in any::<u64>(),
    ) {
        let field = |line: &str, name: &str| -> Json {
            let doc = Json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            doc.get(name).unwrap_or_else(|| panic!("{line}: no {name}")).clone()
        };
        let typed = |line: &str, expect: &str| {
            let t = field(line, "type");
            assert_eq!(t.as_str(), Some(expect), "{line}");
        };

        // Every response echoes the resolved relation; use a name that
        // needs escaping to pin the escape path too.
        let relation = format!("rel-{}-\"q\"", message_salt % 7);
        let echoes_relation = |line: &str| {
            assert_eq!(
                field(line, "relation").as_str(),
                Some(relation.as_str()),
                "{line}"
            );
        };

        // SUBSCRIBED / UNSUBSCRIBED / BYE.
        let line = proto::subscribed(&relation, SessionId(session));
        typed(&line, "SUBSCRIBED");
        echoes_relation(&line);
        prop_assert_eq!(field(&line, "session").as_u64(), Some(session));
        let line = proto::unsubscribed(&relation, session);
        typed(&line, "UNSUBSCRIBED");
        echoes_relation(&line);
        prop_assert_eq!(field(&line, "session").as_u64(), Some(session));
        typed(&proto::bye(), "BYE");

        // Catalog responses: CREATED / DROPPED / BOND_ADDED / USING.
        let line = proto::created(&relation, session % 1000, ids.len());
        typed(&line, "CREATED");
        echoes_relation(&line);
        prop_assert_eq!(field(&line, "id").as_u64(), Some(session % 1000));
        prop_assert_eq!(field(&line, "bonds").as_u64(), Some(ids.len() as u64));
        let line = proto::dropped(&relation, session % 1000);
        typed(&line, "DROPPED");
        echoes_relation(&line);
        let line = proto::bond_added(&relation, ids.first().copied().unwrap_or(3), ids.len());
        typed(&line, "BOND_ADDED");
        echoes_relation(&line);
        let line = proto::using(&relation);
        typed(&line, "USING");
        echoes_relation(&line);

        // ERROR escapes quotes, backslashes and newlines losslessly.
        let message = format!("fail {message_salt} \"quoted\\path\"\nsecond line");
        let line = proto::error(&message);
        typed(&line, "ERROR");
        prop_assert!(!line.contains('\n'));
        let echoed = field(&line, "message");
        prop_assert_eq!(echoed.as_str(), Some(message.as_str()));

        // RESULT, both statuses, over a random output shape.
        let out = output(shape, lo, hi, &ids);
        let line = proto::result(
            &relation,
            tick,
            rate,
            SessionId(session),
            &Answer::Final(out.clone()),
        );
        typed(&line, "RESULT");
        echoes_relation(&line);
        let status = field(&line, "status");
        prop_assert_eq!(status.as_str(), Some("final"));
        prop_assert_eq!(field(&line, "tick").as_u64(), Some(tick));
        prop_assert_eq!(field(&line, "rate").as_f64(), Some(rate));
        let shape_name = field(&line, "output").get("shape").and_then(|s| s.as_str().map(String::from));
        prop_assert_eq!(shape_name.as_deref(), Some(out.shape_name()));
        let bounds = Bounds::new(lo.min(hi), lo.max(hi));
        let line = proto::result(
            &relation,
            tick,
            rate,
            SessionId(session),
            &Answer::Partial { bounds },
        );
        let status = field(&line, "status");
        prop_assert_eq!(status.as_str(), Some("partial"));
        prop_assert_eq!(
            field(&line, "bounds").get("lo").and_then(|v| v.as_f64()),
            Some(bounds.lo()),
            "partial bounds survive the wire bit-for-bit"
        );

        // RESUMED: registration + counters, with and without an answer.
        let sess = Session {
            id: SessionId(session),
            query: Query::Max { epsilon: 0.5 },
            priority,
            finals,
            partials,
            driven_iterations: finals + partials,
        };
        let line = proto::resumed(&relation, &sess, tick, None);
        typed(&line, "RESUMED");
        echoes_relation(&line);
        prop_assert_eq!(field(&line, "finals").as_u64(), Some(finals));
        prop_assert_eq!(field(&line, "partials").as_u64(), Some(partials));
        let operator = field(&line, "operator");
        prop_assert_eq!(operator.as_str(), Some("max"));
        let answer = match answer_sel % 2 {
            0 => Answer::Final(out),
            _ => Answer::Partial { bounds },
        };
        let line = proto::resumed(&relation, &sess, tick, Some(&answer));
        let status = field(&line, "answer").get("status").and_then(|s| s.as_str().map(String::from));
        prop_assert_eq!(
            status.as_deref(),
            Some(if matches!(answer, Answer::Final(_)) { "final" } else { "partial" })
        );

        // TICK_DONE totals the work breakdown that went in.
        let work = WorkBreakdown {
            exec_iter: finals,
            get_state: partials,
            store_state: session % 97,
            choose_iter: tick % 89,
        };
        let res = TickResult {
            relation: RelationId(1 + session % 31),
            tick,
            rate,
            answers: Vec::new(),
            stats: TickStats {
                rate,
                work,
                wall: Duration::ZERO,
                iterations: finals + partials,
            },
            budget_exhausted: answer_sel % 2 == 0,
        };
        let line = proto::tick_done(&relation, &res, session % 11);
        typed(&line, "TICK_DONE");
        echoes_relation(&line);
        prop_assert_eq!(field(&line, "work_units").as_u64(), Some(work.total()));
        prop_assert_eq!(field(&line, "iterations").as_u64(), Some(finals + partials));
        prop_assert_eq!(field(&line, "shed").as_u64(), Some(session % 11));
    }
}

/// `STATS` needs a live server: drive one tick and check the line reports
/// the real counters.
#[test]
fn stats_line_reports_live_counters() {
    use bondlab::{BondPricer, BondUniverse};
    let relation = BondRelation::from_universe(&BondUniverse::generate(8, 7));
    let mut srv = Server::new(BondPricer::default(), relation, ServerConfig::default());
    srv.subscribe(Query::Max { epsilon: 1.0 }, 2)
        .expect("subscribe");
    let res = srv.tick(0.0583).expect("tick");

    let line = proto::stats(srv.catalog().by_name(DEFAULT_RELATION).expect("default"));
    let doc = Json::parse(&line).expect("stats is valid JSON");
    assert_eq!(doc.get("type").and_then(Json::as_str), Some("STATS"));
    assert_eq!(
        doc.get("relation").and_then(Json::as_str),
        Some(DEFAULT_RELATION)
    );
    assert_eq!(doc.get("ticks").and_then(Json::as_u64), Some(1));
    assert_eq!(
        doc.get("work_units").and_then(Json::as_u64),
        Some(res.stats.total_work())
    );
    let sessions = doc.get("sessions").and_then(Json::as_array).expect("rows");
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].get("session").and_then(Json::as_u64), Some(1));
    assert_eq!(
        sessions[0].get("operator").and_then(Json::as_str),
        Some("max")
    );
}
