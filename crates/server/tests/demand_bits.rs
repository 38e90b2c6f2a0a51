//! Absolute bit pins for the scheduler's demand lists.
//!
//! `demand_incremental.rs` compares the maintained round view against the
//! stateless recompute inside one build, so a change that moves both — a
//! benefit formula, a member order, a tie-break — passes it. This file pins
//! the schedule itself across commits: on a fixed 24-bond universe with one
//! session per query shape, every round's per-session demand list (objects,
//! order, benefit bits) and the tick's final answers are folded into FNV-1a
//! digests and compared against literals, at batch 1 and at batch 4. The
//! scoring code may be reorganised freely; these literals may not change.

use bondlab::{BondPricer, BondUniverse};
use va_server::{audited_tick, Answer, SessionRegistry, SharedPool};
use va_stream::{BondRelation, Query, QueryOutput};
use vao::cost::WorkMeter;
use vao::ops::selection::CmpOp;
use vao::Bounds;

const BONDS: usize = 24;
const SEED: u64 = 42;
const RATE: f64 = 0.0583;

/// One session per query shape, plus a weighted SUM beside the unit one.
fn queries() -> Vec<Query> {
    vec![
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::Count {
            op: CmpOp::Le,
            constant: 104.0,
            slack: 2,
        },
        Query::Sum {
            weights: vec![1.0; BONDS],
            epsilon: 1.5,
        },
        Query::Sum {
            weights: (0..BONDS).map(|i| [0.0, 0.5, 1.0, 2.5][i % 4]).collect(),
            epsilon: 1.0,
        },
        Query::Ave { epsilon: 0.05 },
        Query::Max { epsilon: 0.05 },
        Query::Min { epsilon: 0.05 },
        Query::TopK {
            k: 3,
            epsilon: 0.05,
        },
        Query::Median { epsilon: 0.05 },
        Query::Percentile {
            phi: 0.9,
            epsilon: 0.05,
        },
        Query::HeavyHitters { k: 2, epsilon: 1.0 },
    ]
}

/// FNV-1a over little-endian `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bounds(&mut self, b: &Bounds) {
        self.word(b.lo().to_bits());
        self.word(b.hi().to_bits());
    }

    /// A length-prefixed list, so adjacent lists cannot trade elements.
    fn list<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.word(items.len() as u64);
        for item in items {
            each(self, item);
        }
    }

    fn answer(&mut self, answer: &Answer) {
        let Answer::Final(out) = answer else {
            panic!("an unbudgeted tick answers every session finally: {answer:?}");
        };
        match out {
            QueryOutput::Selected(ids) => {
                self.word(1);
                self.list(ids, |h, &id| h.word(u64::from(id)));
            }
            QueryOutput::Extreme {
                bond_id,
                bounds,
                ties,
            } => {
                self.word(2);
                self.word(u64::from(*bond_id));
                self.bounds(bounds);
                self.list(ties, |h, &id| h.word(u64::from(id)));
            }
            QueryOutput::Aggregate { bounds } => {
                self.word(3);
                self.bounds(bounds);
            }
            QueryOutput::Ranked { members, ties } => {
                self.word(4);
                self.list(members, |h, (id, b)| {
                    h.word(u64::from(*id));
                    h.bounds(b);
                });
                self.list(ties, |h, &id| h.word(u64::from(id)));
            }
            QueryOutput::Count { lo, hi } => {
                self.word(5);
                self.word(*lo as u64);
                self.word(*hi as u64);
            }
            QueryOutput::Heavy { cells, ties } => {
                self.word(6);
                self.list(cells, |h, c| {
                    h.word(c.cell as u64);
                    h.word(c.count);
                });
                self.list(ties, |h, &c| h.word(c as u64));
            }
        }
    }
}

/// One unbudgeted tick at `batch`: the round count, then one digest per
/// session over every round's demand list, then one digest of the answers.
fn tick_digests(batch: usize) -> Vec<u64> {
    let relation = BondRelation::from_universe(&BondUniverse::generate(BONDS, SEED));
    let queries = queries();
    let mut registry = SessionRegistry::new();
    for q in &queries {
        registry.register(q.clone(), 1);
    }
    let mut pool = SharedPool::invoke(
        &BondPricer::default(),
        &relation,
        RATE,
        &mut WorkMeter::new(),
    );
    let mut rounds = 0u64;
    let mut lists = vec![Fnv::new(); queries.len()];
    let answers = audited_tick(
        &registry,
        &mut pool,
        &relation,
        1,
        batch,
        false,
        &mut |_, view| {
            rounds += 1;
            for (s, digest) in lists.iter_mut().enumerate() {
                digest.list(view.demands(s), |h, d| {
                    h.word(d.object as u64);
                    h.word(d.benefit.to_bits());
                });
            }
        },
    )
    .expect("tick");
    assert_eq!(answers.len(), queries.len());
    let mut finals = Fnv::new();
    for (_, answer) in &answers {
        finals.answer(answer);
    }
    let mut digests = vec![rounds];
    digests.extend(lists.iter().map(|d| d.0));
    digests.push(finals.0);
    digests
}

/// Compares `actual` against the pinned literals; on mismatch the panic
/// message is the full actual list, formatted as the literals are written.
fn assert_bits(what: &str, actual: &[u64], expected: &[u64]) {
    let listing: Vec<String> = actual.iter().map(|v| format!("0x{v:016x}")).collect();
    assert!(
        actual == expected,
        "{what} drifted; actual:\n    {},",
        listing.join(",\n    ")
    );
}

#[test]
fn serial_schedule_keeps_its_demand_bits() {
    const EXPECTED: [u64; 13] = [
        0x000000000000011e,
        0xca37c9a4ffb9c2ac,
        0x2a0a1823e5bd259f,
        0x28215365f2f6c332,
        0xb52db46b2f766bf4,
        0xdd96c24a57394079,
        0xde4a48a414ba4c1f,
        0xb4ee710012582b50,
        0xb212c7a0f7dc2404,
        0x7644d39f1f764ba8,
        0xe113861401662dbd,
        0x69c956dc4c40d3c4,
        0x90ca11bb0946e6ea,
    ];
    assert_bits("batch = 1 tick", &tick_digests(1), &EXPECTED);
}

#[test]
fn batched_schedule_keeps_its_demand_bits() {
    const EXPECTED: [u64; 13] = [
        0x000000000000004a,
        0x981347faf95acb13,
        0x2b2e5f86a26dc226,
        0x677eaff666303a44,
        0xd171da3ca4cee877,
        0x19f14f6380a90d31,
        0x317cab3e0e768c72,
        0xb4dddc45ba734355,
        0xb43cdadc98a63c4f,
        0xa4246f31d596896d,
        0xb5286c2c7235b2f2,
        0x4419ed388dbc9186,
        0x36a2614ce7205982,
    ];
    assert_bits("batch = 4 tick", &tick_digests(4), &EXPECTED);
}
