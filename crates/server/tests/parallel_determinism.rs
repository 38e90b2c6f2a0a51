//! Batched-scheduler determinism and budget accounting.
//!
//! Three guarantees pinned here:
//!
//! 1. **Serial equivalence.** `workers = 1` (the default config) must
//!    reproduce the historical single-choice greedy schedule *exactly* —
//!    asserted against golden iteration counts, per-component work units
//!    and answer digests captured from the pre-batching scheduler on the
//!    8-query workload.
//! 2. **Worker invariance.** For a fixed batch size, the worker count must
//!    not change anything observable: answers, work breakdown, iteration
//!    count and the round trace are bit-identical between `workers = 1`
//!    and `workers = 4`. Threads only execute an already-chosen batch.
//! 3. **Budget accounting.** The tick meter's post-invocation total equals
//!    the sum of per-round `RoundRecord::work` charges, and the admitted
//!    counts sum to the scheduler's iteration count — every unit the
//!    batched rounds charge is visible in the round trace.
//! 4. **A panicking worker degrades one tick.** An `iterate()` that panics
//!    on a worker thread fails its tick with `ServerError::Internal`
//!    instead of aborting the process; on the calling thread
//!    (`workers = 1`) the panic still unwinds.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bondlab::{BondPricer, BondUniverse};
use va_server::{
    audited_tick, Answer, Server, ServerConfig, ServerError, SessionRegistry, SharedPool, Tenant,
    DEFAULT_RELATION,
};
use va_stream::{BondRelation, Query, QueryOutput};
use vao::cost::{Work, WorkMeter};
use vao::interface::ResultObject;
use vao::ops::selection::CmpOp;
use vao::testkit::ScriptedObject;
use vao::trace::{Recorder, TraceEvent};
use vao::Bounds;

const SEED: u64 = 1994;
const RATE: f64 = 0.0583;

/// The tenant of the one relation these servers host.
fn default_tenant(server: &Server) -> &Tenant {
    server
        .catalog()
        .by_name(DEFAULT_RELATION)
        .expect("the default relation")
}

/// The bench harness's 8-query server workload (two sessions per §5
/// benefit family), inlined so this test doesn't depend on va-bench.
fn workload(n: usize) -> Vec<Query> {
    let k = 5.min(n).max(1);
    vec![
        Query::Max { epsilon: 1.0 },
        Query::Sum {
            weights: vec![1.0; n],
            epsilon: 50.0,
        },
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::Min { epsilon: 1.0 },
        Query::TopK { k, epsilon: 1.0 },
        Query::Count {
            op: CmpOp::Gt,
            constant: 100.0,
            slack: 25,
        },
        Query::Max { epsilon: 0.5 },
        Query::Sum {
            weights: vec![1.0; n],
            epsilon: 60.0,
        },
    ]
}

fn server(bonds: usize, config: ServerConfig) -> Server {
    let relation = BondRelation::from_universe(&BondUniverse::generate(bonds, SEED));
    let mut srv = Server::new(BondPricer::default(), relation, config);
    for q in workload(bonds) {
        srv.subscribe(q, 1).expect("subscribe");
    }
    srv
}

fn digest(out: &QueryOutput) -> String {
    match out {
        QueryOutput::Selected(ids) => {
            format!("selected n={} sum={}", ids.len(), ids.iter().sum::<u32>())
        }
        QueryOutput::Count { lo, hi } => format!("count [{lo},{hi}]"),
        QueryOutput::Aggregate { bounds } => {
            format!("agg [{:.17e},{:.17e}]", bounds.lo(), bounds.hi())
        }
        QueryOutput::Extreme {
            bond_id, bounds, ..
        } => format!("ext {bond_id} [{:.17e},{:.17e}]", bounds.lo(), bounds.hi()),
        QueryOutput::Ranked { members, ties } => format!(
            "ranked n={} first={} ties={}",
            members.len(),
            members.first().map(|m| m.0).unwrap_or(0),
            ties.len()
        ),
        QueryOutput::Heavy { cells, ties } => format!(
            "heavy n={} first={} ties={}",
            cells.len(),
            cells.first().map(|c| c.cell).unwrap_or(0),
            ties.len()
        ),
    }
}

/// Golden regression: the batched scheduler at `workers = 1` is the serial
/// scheduler. Every number here was captured from the pre-batching
/// implementation on the same workload (48 bonds, seed 1994, rate 0.0583).
#[test]
fn workers_one_reproduces_the_serial_schedule_exactly() {
    let mut srv = server(48, ServerConfig::default());
    assert_eq!(srv.config().workers, 1, "serial is the default");
    let res = srv.tick(RATE).expect("tick");

    assert_eq!(res.stats.iterations, 319);
    assert_eq!(res.stats.work.exec_iter, 921_088);
    assert_eq!(res.stats.work.get_state, 48);
    assert_eq!(res.stats.work.store_state, 415);
    assert_eq!(res.stats.work.choose_iter, 13_937);
    assert_eq!(res.stats.total_work(), 935_488);

    let digests: Vec<String> = res
        .answers
        .iter()
        .map(|(_, a)| digest(a.final_output().expect("final")))
        .collect();
    assert_eq!(
        digests,
        [
            "ext 45 [1.23318127050003099e2,1.23566607748983657e2]",
            "agg [5.13253865431830673e3,5.17484783090893052e3]",
            "selected n=37 sum=801",
            "ext 9 [8.88010145651998641e1,8.88567968443305318e1]",
            "ranked n=5 first=45 ties=0",
            "count [37,37]",
            "ext 45 [1.23318127050003099e2,1.23566607748983657e2]",
            "agg [5.13253865431830673e3,5.17484783090893052e3]",
        ]
    );

    // Budgeted at half the converged cost: same golden degradation.
    let mut capped = server(48, ServerConfig::budgeted(935_488 / 2));
    let capped_res = capped.tick(RATE).expect("budgeted tick");
    assert!(capped_res.budget_exhausted);
    assert_eq!(capped_res.stats.iterations, 307);
    assert_eq!(capped_res.stats.total_work(), 466_168);
}

/// For a fixed batch, the worker count changes *who executes* the batch,
/// never what was chosen: answers, accounting and the round trace are
/// bit-identical between one worker and four.
#[test]
fn worker_count_never_changes_results() {
    let batched = |workers: usize| ServerConfig {
        workers,
        batch: Some(4),
        ..ServerConfig::default()
    };
    let mut serial = server(48, batched(1));
    let mut fanned = server(48, batched(4));
    let mut rec1 = Recorder::new();
    let mut rec4 = Recorder::new();
    let res1 = serial.tick_with_observer(RATE, &mut rec1).expect("tick");
    let res4 = fanned.tick_with_observer(RATE, &mut rec4).expect("tick");

    assert_eq!(res1.answers, res4.answers, "answers are worker-invariant");
    assert_eq!(res1.stats.work, res4.stats.work);
    assert_eq!(res1.stats.iterations, res4.stats.iterations);
    assert_eq!(res1.budget_exhausted, res4.budget_exhausted);
    assert_eq!(rec1.rounds(), rec4.rounds(), "round traces match");
    // The full event streams (choices, iterations, rounds) line up too.
    assert_eq!(rec1.events().len(), rec4.events().len());
    for (a, b) in rec1.events().iter().zip(rec4.events()) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

/// The SoA lane solver is purely a throughput choice: with the same round
/// batch, `batch_solver: true` (shape-grouped lockstep sweeps) and
/// `batch_solver: false` (per-object scalar solves) produce bit-identical
/// answers, work accounting, and event traces.
#[test]
fn batched_solver_matches_scalar_answers() {
    let cfg = |batch_solver: bool| ServerConfig {
        batch: Some(8),
        batch_solver,
        ..ServerConfig::default()
    };
    let mut lanes = server(24, cfg(true));
    let mut scalar = server(24, cfg(false));
    let mut rec_l = Recorder::new();
    let mut rec_s = Recorder::new();
    let res_l = lanes.tick_with_observer(RATE, &mut rec_l).expect("tick");
    let res_s = scalar.tick_with_observer(RATE, &mut rec_s).expect("tick");

    assert_eq!(res_l.answers, res_s.answers, "answers are solver-invariant");
    assert_eq!(res_l.stats.work, res_s.stats.work);
    assert_eq!(res_l.stats.iterations, res_s.stats.iterations);
    assert_eq!(res_l.budget_exhausted, res_s.budget_exhausted);
    assert_eq!(rec_l.events().len(), rec_s.events().len());
    for (a, b) in rec_l.events().iter().zip(rec_s.events()) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    // And the lane solver composes with threaded execution: a 4-worker
    // batched run matches the single-worker batched run exactly.
    let mut fanned = server(
        24,
        ServerConfig {
            workers: 4,
            ..cfg(true)
        },
    );
    let res_f = fanned.tick(RATE).expect("tick");
    assert_eq!(res_l.answers, res_f.answers);
    assert_eq!(res_l.stats.work, res_f.stats.work);
}

/// Budgeted parallel ticks degrade soundly: every Partial interval from a
/// `workers = 4` run brackets the Final value the unbudgeted run (any
/// worker count — they agree) converged to.
#[test]
fn parallel_partials_bracket_serial_finals() {
    let mut full = server(48, ServerConfig::default());
    let full_res = full.tick(RATE).expect("tick");

    let capped_cfg = ServerConfig {
        workers: 4,
        batch: Some(4),
        ..ServerConfig::budgeted(full_res.stats.total_work() / 2)
    };
    let mut capped = server(48, capped_cfg);
    let capped_res = capped.tick(RATE).expect("budgeted tick");
    assert!(capped_res.budget_exhausted);

    let mut partials = 0;
    for ((_, full_ans), (_, capped_ans)) in full_res.answers.iter().zip(&capped_res.answers) {
        let Answer::Partial { bounds } = capped_ans else {
            continue;
        };
        partials += 1;
        let converged = match full_ans.final_output().expect("final") {
            QueryOutput::Aggregate { bounds } | QueryOutput::Extreme { bounds, .. } => *bounds,
            QueryOutput::Count { lo, hi } => vao::Bounds::new(*lo as f64, *hi as f64),
            // A Selection partial is a resolved-membership count interval;
            // it must bracket the converged member count.
            QueryOutput::Selected(ids) => vao::Bounds::new(ids.len() as f64, ids.len() as f64),
            // A TopK partial bounds the k-th value, which the Ranked output
            // doesn't expose directly — nothing to compare against here;
            // likewise a Heavy partial bounds the k-th cell count.
            QueryOutput::Ranked { .. } | QueryOutput::Heavy { .. } => continue,
        };
        let mid = 0.5 * (converged.lo() + converged.hi());
        let slack = 0.5 * converged.width() + 1e-9;
        assert!(
            bounds.lo() - slack <= mid && mid <= bounds.hi() + slack,
            "partial {bounds} must bracket converged {mid}"
        );
    }
    assert!(partials > 0, "half budget must degrade someone");
}

/// Every work unit the scheduler spends is accounted to exactly one round:
/// the sum of per-round charges equals the post-invocation meter total,
/// and admitted counts sum to the iteration count.
#[test]
fn meter_total_is_the_sum_of_round_charges() {
    for (workers, batch) in [(1, None), (4, Some(4)), (2, Some(8))] {
        let cfg = ServerConfig {
            workers,
            batch,
            ..ServerConfig::default()
        };
        let mut srv = server(48, cfg);
        let mut rec = Recorder::new();
        let res = srv.tick_with_observer(RATE, &mut rec).expect("tick");

        let rounds = rec.rounds();
        assert!(!rounds.is_empty());
        let round_work: u64 = rounds.iter().map(|r| r.work).sum();
        let admitted: u64 = rounds.iter().map(|r| r.admitted as u64).sum();
        let sched_work = rec
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::OperatorEnd(end) => Some(end.work.total()),
                _ => None,
            })
            .expect("operator_end event");

        assert_eq!(
            round_work, sched_work,
            "workers={workers} batch={batch:?}: rounds account for all scheduler work"
        );
        assert_eq!(admitted, res.stats.iterations);
        for r in &rounds {
            assert!(r.admitted <= r.selected && r.selected <= r.candidates);
            assert!(r.admitted >= 1, "an executed round admitted something");
        }
        // Rounds are numbered 1..=N in order.
        for (i, r) in rounds.iter().enumerate() {
            assert_eq!(r.round, i as u64 + 1);
        }
    }
}

/// A zero-bond relation yields typed errors on the SUBSCRIBE-then-TICK
/// path — never a panic out of the demand/answer code.
#[test]
fn empty_relation_subscribe_then_tick_is_a_typed_error() {
    let relation = BondRelation::from_universe(&BondUniverse::generate(0, SEED));
    let mut srv = Server::new(BondPricer::default(), relation, ServerConfig::default());
    assert!(default_tenant(&srv).relation().bonds().is_empty());
    assert_eq!(
        srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap_err(),
        ServerError::EmptyRelation
    );
    // Even with the subscribe rejected, a TICK must fail cleanly too.
    assert_eq!(srv.tick(RATE).unwrap_err(), ServerError::EmptyRelation);
    assert_eq!(
        default_tenant(&srv).ticks(),
        0,
        "failed tick is not counted"
    );
}

/// A scripted object whose `iterate()` panics.
struct Panicking(ScriptedObject);

impl ResultObject for Panicking {
    fn bounds(&self) -> Bounds {
        self.0.bounds()
    }

    fn min_width(&self) -> f64 {
        self.0.min_width()
    }

    fn iterate(&mut self, _meter: &mut WorkMeter) -> Bounds {
        panic!("iterate() fails on purpose");
    }

    fn est_cpu(&self) -> Work {
        self.0.est_cpu()
    }

    fn est_bounds(&self) -> Bounds {
        self.0.est_bounds()
    }

    fn standalone_cost(&self) -> Work {
        self.0.standalone_cost()
    }

    fn cumulative_cost(&self) -> Work {
        self.0.cumulative_cost()
    }
}

#[test]
fn a_panicking_worker_fails_its_tick_with_internal() {
    // Two overlapping shapeless objects that each cost more than a cache
    // read: a MAX demands both, so a batch of two admits both as scalar
    // units of one round, one per worker.
    let script = [(90.0, 110.0), (99.0, 101.0), (99.9, 100.1)];
    let pool = || {
        SharedPool::from_objects(
            vec![
                Box::new(ScriptedObject::converging(&script, 10, 0.01)),
                Box::new(Panicking(ScriptedObject::converging(&script, 10, 0.01))),
            ],
            RATE,
        )
    };
    let mut registry = SessionRegistry::new();
    registry.register(Query::Max { epsilon: 0.05 }, 1);
    let relation = BondRelation::from_universe(&BondUniverse::generate(2, SEED));
    let tick = |workers: usize| {
        audited_tick(
            &registry,
            &mut pool(),
            &relation,
            workers,
            2,
            true,
            &mut |_, _| {},
        )
    };
    for _ in 0..3 {
        match tick(2) {
            Err(ServerError::Internal { detail }) => {
                assert_eq!(detail, "worker thread panicked during a scheduling round");
            }
            other => panic!("expected ServerError::Internal, got {other:?}"),
        }
    }
    // Inline, nothing stands between the panic and the caller.
    assert!(catch_unwind(AssertUnwindSafe(|| tick(1))).is_err());
}
