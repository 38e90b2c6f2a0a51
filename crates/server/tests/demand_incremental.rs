//! Differential tests for the scheduler's incremental demand state.
//!
//! The scheduler no longer recomputes every session's demand each round: it
//! keeps a [`RoundView`] and repairs it for the objects the round iterated,
//! over a pool whose per-object columns are refreshed only for those
//! objects. The stateless [`demand::demands`] is the oracle. After **every**
//! round of real scheduled ticks — through [`va_server::audited_tick`], the
//! scheduler exactly as the server runs it — these tests require:
//!
//! * each session's maintained list equals the oracle's recompute from the
//!   pool: same objects, same order, benefit bits equal;
//! * the pool's flat view equals the objects' own accessors.

use std::cell::Cell;

use proptest::prelude::*;

use bondlab::{BondPricer, BondUniverse};
use va_server::demand::{self, Demand, RoundView};
use va_server::{audited_tick, SessionRegistry, SharedPool};
use va_stream::{BondRelation, Query};
use vao::adapters::WarmStart;
use vao::cost::WorkMeter;
use vao::ops::selection::CmpOp;
use vao::Bounds;

/// SplitMix64 — the session mix is derived from one generated seed so a
/// failing case prints a single number.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// One query of `kind` (0..10, the ten [`Query`] shapes) with random
/// parameters sized for an `n`-bond relation priced around 100.
fn query_of(kind: usize, n: usize, mix: &mut Mix) -> Query {
    let op = [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le][mix.below(4)];
    let constant = mix.real(85.0, 125.0);
    let epsilon = mix.real(0.03, 1.5);
    match kind {
        0 => Query::Selection { op, constant },
        1 => Query::Count {
            op,
            constant,
            slack: mix.below(4),
        },
        2 => Query::Sum {
            weights: (0..n).map(|_| [0.0, 0.5, 1.0, 2.5][mix.below(4)]).collect(),
            epsilon: epsilon * n as f64,
        },
        3 => Query::Ave { epsilon },
        4 => Query::Max { epsilon },
        5 => Query::Min { epsilon },
        6 => Query::TopK {
            k: 1 + mix.below(n.min(6)),
            epsilon,
        },
        7 => Query::Median { epsilon },
        8 => Query::Percentile {
            phi: mix.real(0.0, 1.0),
            epsilon,
        },
        _ => Query::HeavyHitters {
            k: 1 + mix.below(4),
            epsilon: mix.real(0.2, 3.0),
        },
    }
}

/// All ten kinds once, then a few more of random kinds — so every case has
/// duplicates of some kind with different ε/φ/k — in a shuffled order.
fn session_mix(n: usize, mix: &mut Mix) -> Vec<(Query, u32)> {
    let mut kinds: Vec<usize> = (0..10).collect();
    for _ in 0..2 + mix.below(5) {
        kinds.push(mix.below(10));
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, mix.below(i + 1));
    }
    kinds
        .into_iter()
        .map(|kind| (query_of(kind, n, mix), 1 + mix.below(3) as u32))
        .collect()
}

fn assert_lists_equal(maintained: &[Demand], oracle: &[Demand], what: &str) {
    let show =
        |l: &[Demand]| -> Vec<(usize, f64)> { l.iter().map(|d| (d.object, d.benefit)).collect() };
    assert_eq!(
        maintained.len(),
        oracle.len(),
        "{what}: maintained {:?} vs recomputed {:?}",
        show(maintained),
        show(oracle)
    );
    for (m, o) in maintained.iter().zip(oracle) {
        assert!(
            m.object == o.object && m.benefit.to_bits() == o.benefit.to_bits(),
            "{what}: maintained {:?} vs recomputed {:?}",
            show(maintained),
            show(oracle)
        );
    }
}

/// The flat view against the objects' own accessors, for every object.
fn assert_view_fresh(pool: &SharedPool) {
    for (i, obj) in pool.objects().iter().enumerate() {
        assert_eq!(pool.bounds(i), obj.bounds(), "bounds column of object {i}");
        assert_eq!(
            pool.est_bounds(i),
            obj.est_bounds(),
            "est_bounds column of object {i}"
        );
        assert_eq!(
            pool.converged(i),
            obj.converged(),
            "converged column of object {i}"
        );
        assert_eq!(
            pool.est_cpu(i),
            obj.est_cpu(),
            "est_cpu column of object {i}"
        );
    }
}

/// The per-round audit: maintained lists == oracle, view == objects.
fn audit_round(queries: &[Query], pool: &SharedPool, view: &RoundView, oracle: &mut Vec<Demand>) {
    assert_view_fresh(pool);
    for (s, query) in queries.iter().enumerate() {
        demand::demands(query, pool, oracle);
        assert_lists_equal(view.demands(s), oracle, &format!("session {s} {query:?}"));
    }
}

/// A pool at `rate`: cold, or warm-started from a cold pool whose objects
/// were each iterated a few (0..=3) times.
fn pool_at(
    pricer: &BondPricer,
    relation: &BondRelation,
    rate: f64,
    warm: bool,
    mix: &mut Mix,
) -> SharedPool {
    let mut meter = WorkMeter::new();
    if !warm {
        return SharedPool::invoke(pricer, relation, rate, &mut meter);
    }
    let mut prior = SharedPool::invoke(pricer, relation, rate, &mut meter);
    for i in 0..prior.len() {
        for _ in 0..mix.below(4) {
            prior.iterate(i, &mut meter);
        }
    }
    let seeds: Vec<WarmStart> = (0..prior.len())
        .map(|i| WarmStart {
            bounds: prior.bounds(i),
            converged: prior.converged(i),
            prior_cost: prior.cumulative_cost(i),
        })
        .collect();
    SharedPool::invoke_warm(pricer, relation, rate, &seeds, &mut meter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn maintained_demand_equals_the_recompute_after_every_round(
        bonds in 4usize..26,
        universe_seed in 0u64..1000,
        rate_off in 0usize..40,
        mix_seed in any::<u64>(),
        batch_pick in 0usize..3,
        workers in 1usize..=2,
        flags in 0usize..4,
    ) {
        let batch = [1usize, 4, 16][batch_pick];
        let (batch_solver, warm) = (flags & 1 != 0, flags & 2 != 0);
        let mut mix = Mix(mix_seed);
        let pricer = BondPricer::default();
        let relation = BondRelation::from_universe(&BondUniverse::generate(bonds, universe_seed));
        let sessions = session_mix(bonds, &mut mix);
        let queries: Vec<Query> = sessions.iter().map(|(q, _)| q.clone()).collect();
        let mut registry = SessionRegistry::new();
        for (query, priority) in sessions {
            registry.register(query, priority);
        }

        let rate = 0.045 + rate_off as f64 * 0.001;
        let mut oracle = Vec::new();
        let mut rounds = 0u64;
        let mut pool = pool_at(&pricer, &relation, rate, warm, &mut mix);
        let answers = audited_tick(
            &registry,
            &mut pool,
            &relation,
            workers,
            batch,
            batch_solver,
            &mut |pool, view| {
                rounds += 1;
                audit_round(&queries, pool, view, &mut oracle);
            },
        )
        .expect("tick");
        prop_assert_eq!(answers.len(), queries.len());
        prop_assert!(answers.iter().all(|(_, a)| a.is_final()), "unbudgeted ticks finish");
        prop_assert!(rounds > 0);
    }
}

/// The regression the flat view invites: a batched round mutates objects
/// through split borrows on worker threads, not through `pool.iterate`. If
/// that path did not refresh the columns, demand would be scored on stale
/// bounds (a scratch prototype drove `final_share` to 0 that way).
#[test]
fn a_batched_round_cannot_leave_the_view_stale() {
    let pricer = BondPricer::default();
    let relation = BondRelation::from_universe(&BondUniverse::generate(24, 1994));
    let queries = vec![
        Query::Sum {
            weights: vec![1.0; 24],
            epsilon: 2.0,
        },
        Query::TopK { k: 3, epsilon: 0.1 },
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::Percentile {
            phi: 0.5,
            epsilon: 0.1,
        },
        Query::HeavyHitters { k: 2, epsilon: 1.0 },
    ];

    // Directly: whatever `with_disjoint_mut` lent out is fresh on return,
    // and a repair over exactly those objects matches the recompute.
    let mut pool = SharedPool::invoke(&pricer, &relation, 0.0583, &mut WorkMeter::new());
    let mut view = RoundView::build(&queries, &pool);
    let before: Vec<Bounds> = (0..pool.len()).map(|i| pool.bounds(i)).collect();
    let batch = [1usize, 5, 6, 17, 23];
    pool.with_disjoint_mut(&batch, |parts| {
        std::thread::scope(|s| {
            for obj in parts {
                s.spawn(move || obj.iterate(&mut WorkMeter::new()));
            }
        });
    });
    for &i in &batch {
        assert!(
            pool.bounds(i).width() < before[i].width(),
            "object {i} refined"
        );
    }
    view.repair(&queries, &pool, &batch);
    audit_round(&queries, &pool, &view, &mut Vec::new());

    // Through the scheduler: both batched executors (worker threads over
    // split borrows, and the lane solver), with rounds that really did
    // iterate several objects at once.
    for batch_solver in [false, true] {
        let mut registry = SessionRegistry::new();
        for q in &queries {
            registry.register(q.clone(), 1);
        }
        let mut pool = SharedPool::invoke(&pricer, &relation, 0.0583, &mut WorkMeter::new());
        let mut last: Vec<Bounds> = (0..pool.len()).map(|i| pool.bounds(i)).collect();
        let widest_round = Cell::new(0usize);
        audited_tick(
            &registry,
            &mut pool,
            &relation,
            2,
            16,
            batch_solver,
            &mut |pool, view| {
                audit_round(&queries, pool, view, &mut Vec::new());
                let now: Vec<Bounds> = (0..pool.len()).map(|i| pool.bounds(i)).collect();
                let moved = now.iter().zip(&last).filter(|(a, b)| a != b).count();
                widest_round.set(widest_round.get().max(moved));
                last = now;
            },
        )
        .expect("tick");
        assert!(
            widest_round.get() > 1,
            "batch_solver={batch_solver}: no round iterated more than one object"
        );
    }
}
