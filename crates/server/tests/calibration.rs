//! Cost-calibration integration contracts:
//!
//! 1. A calibrated server that crashes mid-stream recovers its cost model
//!    bit-identically — the post-crash ticks and the calibrator's
//!    observation counters match an uninterrupted golden run exactly.
//! 2. Calibration is off by default, and an explicit `--calibrate off`
//!    produces the same ticks as the default configuration (the golden
//!    contract the persisted-record encoding relies on: disabled servers
//!    write byte-identical journals to pre-calibration builds).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bondlab::{BondPricer, BondUniverse};
use va_server::{Server, ServerConfig, Tenant, TickResult, DEFAULT_RELATION};
use va_stream::{BondRelation, Query, TickStats};
use vao::ops::selection::CmpOp;

const SEED: u64 = 1994;
const RATE: f64 = 0.0583;

/// Repeats are deliberate: repeated rates exercise the warm-start path,
/// where a recovered-but-miscalibrated model would be most visible.
const RATES: [f64; 6] = [RATE, 0.0601, RATE, 0.0601, RATE, 0.0592];
const CRASH_AFTER: usize = 3;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-calibration-{tag}-{}-{n}", std::process::id()))
}

/// Aggregates plus a selection/count pair, so the predicate pass/fail
/// counters participate in recovery alongside the cost cells.
fn workload(n: usize) -> Vec<Query> {
    vec![
        Query::Max { epsilon: 0.0101 },
        Query::Max { epsilon: 1.0 },
        Query::Sum {
            weights: vec![1.0; n],
            epsilon: 50.0,
        },
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::Count {
            op: CmpOp::Gt,
            constant: 100.0,
            slack: 25,
        },
    ]
}

fn relation() -> BondRelation {
    BondRelation::from_universe(&BondUniverse::generate(16, SEED))
}

/// Budgeted and calibrated: the budget makes admission decisions (and so
/// the corrected estimates) observable in the tick stream.
fn config() -> ServerConfig {
    ServerConfig {
        budget: Some(9_000),
        batch: Some(2),
        ..ServerConfig::default()
    }
    .with_calibration(true)
}

fn open(dir: &Path) -> Server {
    Server::open_durable(BondPricer::default(), relation(), config(), dir)
        .expect("open durable server")
}

/// The tenant of the one relation these servers host.
fn default_tenant(server: &Server) -> &Tenant {
    server
        .catalog()
        .by_name(DEFAULT_RELATION)
        .expect("the default relation")
}

fn subscribe_workload(srv: &mut Server) {
    for q in workload(default_tenant(srv).relation().bonds().len()) {
        srv.subscribe(q, 1).expect("subscribe");
    }
}

/// Everything observable about a tick except wall time.
fn tick_key(res: &TickResult) -> String {
    let TickStats {
        rate,
        work,
        wall: _,
        iterations,
        operator,
        objects,
        iter_histogram,
        cpu_est,
    } = &res.stats;
    format!(
        "tick={} rate={:?} answers={:?} exhausted={} stats=({rate:?} {work:?} {iterations} \
         {operator} {objects} {iter_histogram:?} {cpu_est:?})",
        res.tick, res.rate, res.answers, res.budget_exhausted
    )
}

fn calibration_counters(srv: &Server) -> (u64, u64) {
    let tenant = srv
        .catalog()
        .by_name(DEFAULT_RELATION)
        .expect("default relation");
    (
        tenant.calibration_observations(),
        tenant.calibration_gain_ppm(),
    )
}

#[test]
fn calibrated_recovery_restores_the_model_bit_identically() {
    let golden_dir = scratch_dir("golden");
    let crash_dir = scratch_dir("crash");

    let mut golden = open(&golden_dir);
    subscribe_workload(&mut golden);
    let golden_ticks: Vec<String> = RATES
        .iter()
        .map(|&r| tick_key(&golden.tick(r).expect("golden tick")))
        .collect();

    let mut crashed = open(&crash_dir);
    subscribe_workload(&mut crashed);
    for (i, &r) in RATES.iter().take(CRASH_AFTER).enumerate() {
        let key = tick_key(&crashed.tick(r).expect("pre-crash tick"));
        assert_eq!(key, golden_ticks[i], "pre-crash tick {i} diverged");
    }
    // The process "dies": no shutdown, only the journal survives.
    drop(crashed);

    let mut recovered = open(&crash_dir);
    let (obs_at_crash, _) = calibration_counters(&recovered);
    assert!(
        obs_at_crash > 0,
        "recovery must restore a warmed model, not a cold one"
    );
    for (i, &r) in RATES.iter().enumerate().skip(CRASH_AFTER) {
        let key = tick_key(&recovered.tick(r).expect("post-crash tick"));
        assert_eq!(
            key, golden_ticks[i],
            "post-crash tick {i} must match the golden run bit-for-bit"
        );
    }

    // The model itself ends identical, not just the answers it shaped.
    assert_eq!(
        calibration_counters(&golden),
        calibration_counters(&recovered),
        "recovered calibrator diverged from the uninterrupted one"
    );

    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn calibration_is_off_by_default_and_matches_an_explicit_off() {
    assert!(
        !ServerConfig::default().calibrate,
        "calibration must be opt-in: the default config is the golden path"
    );

    let base = ServerConfig {
        budget: Some(9_000),
        batch: Some(2),
        ..ServerConfig::default()
    };
    let mut default_srv = Server::new(BondPricer::default(), relation(), base);
    let mut off_srv = Server::new(
        BondPricer::default(),
        relation(),
        base.with_calibration(false),
    );
    subscribe_workload(&mut default_srv);
    subscribe_workload(&mut off_srv);

    for &r in &RATES {
        let d = default_srv.tick(r).expect("default tick");
        let o = off_srv.tick(r).expect("explicit-off tick");
        assert_eq!(
            tick_key(&d),
            tick_key(&o),
            "--calibrate off must be the default behavior, bit for bit"
        );
        let (obs, gain) = calibration_counters(&off_srv);
        assert_eq!((obs, gain), (0, 1_000_000), "off mode must not learn");
    }
}

#[test]
fn calibrated_ticks_trace_one_calibration_event_per_iteration() {
    use vao::trace::{Recorder, TraceEvent};

    for calibrate in [true, false] {
        let mut srv = Server::new(
            BondPricer::default(),
            relation(),
            config().with_calibration(calibrate),
        );
        subscribe_workload(&mut srv);
        let mut rec = Recorder::new();
        srv.tick_with_observer(RATE, &mut rec).expect("traced tick");

        let iterations = rec
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Iteration(_)))
            .count();
        let observations: Vec<u64> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Calibration(c) => Some(c.observations),
                _ => None,
            })
            .collect();
        assert!(iterations > 0, "the tick must refine something");
        if calibrate {
            assert_eq!(
                observations.len(),
                iterations,
                "one calibration event per admitted iteration"
            );
            assert!(
                observations.windows(2).all(|w| w[0] < w[1]),
                "observation counts must strictly increase: {observations:?}"
            );
        } else {
            assert!(
                observations.is_empty(),
                "an uncalibrated tick emits no calibration events"
            );
        }
    }
}
