//! Cross-tick state that is not journaled must not change what a tick
//! computes.
//!
//! A §4.1 refinement's `t = 0` column does not depend on the rate, so a
//! server may keep the columns it solved and commit a later refinement at
//! the same mesh from the kept column instead of solving again. Whatever
//! such a server keeps, two facts pin that it stays invisible:
//!
//! 1. **A long-lived server ticks like a fresh one.** An in-memory server
//!    has no journaled warm state, so its tick at a rate must equal, field
//!    for field (wall time aside), the first tick of a fresh server with
//!    the same subscriptions at that rate — at rates it has seen, and at
//!    rates it has not. Pinned serially, with lane batches on two workers,
//!    under a budget that runs out, and with sessions that every bond
//!    resolves on its initial bounds, where the pool invocation's
//!    construction trio is all the store serves.
//! 2. **Recovery reproduces the uninterrupted run.** A crashed durable
//!    server restarts with nothing but its journal and snapshots. Its
//!    post-crash ticks, and the journal it goes on to write, must equal the
//!    uninterrupted server's. A budgeted tick admits rounds against the
//!    running work total, so anything that charged differently from kept
//!    state would move the schedule and fail here.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bondlab::{BondPricer, BondUniverse};
use va_server::{Server, ServerConfig, TickResult};
use va_stream::{BondRelation, Query, TickStats};
use vao::ops::selection::CmpOp;

const SEED: u64 = 1994;
const BONDS: usize = 8;

fn relation() -> BondRelation {
    BondRelation::from_universe(&BondUniverse::generate(BONDS, SEED))
}

/// Tight enough that every tick refines most objects several meshes deep.
fn workload() -> Vec<Query> {
    vec![
        Query::Max { epsilon: 0.0101 },
        Query::Sum {
            weights: vec![1.0; BONDS],
            epsilon: 0.05 * BONDS as f64,
        },
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::TopK {
            k: 3,
            epsilon: 0.02,
        },
    ]
}

/// Threshold SELECTs far below every price: each resolves at iteration 0.
fn trio_only_workload() -> Vec<Query> {
    (0..6)
        .map(|i| Query::Selection {
            op: CmpOp::Gt,
            constant: 20.0 + f64::from(i),
        })
        .collect()
}

fn subscribe(srv: &mut Server) {
    subscribe_to(srv, workload());
}

fn subscribe_to(srv: &mut Server, queries: Vec<Query>) {
    for q in queries {
        srv.subscribe(q, 1).expect("subscribe");
    }
}

/// Everything observable about a tick except its sequence number and wall
/// time (measured, not derived).
fn tick_key(res: &TickResult) -> String {
    let TickStats {
        rate,
        work,
        wall: _,
        iterations,
    } = &res.stats;
    format!(
        "rate={:?} answers={:?} exhausted={} stats=({rate:?} {work:?} {iterations})",
        res.rate, res.answers, res.budget_exhausted
    )
}

/// Sixteen rates on the pricer's grid, one basis point apart from `base`.
fn rates(base: f64) -> Vec<f64> {
    (0..16).map(|i| base + 0.0001 * f64::from(i)).collect()
}

/// The script: sixteen rates, then eight of them again and eight new ones.
fn script() -> Vec<f64> {
    let first = rates(0.0550);
    let mut second: Vec<f64> = first[..8].to_vec();
    second.extend(&rates(0.0650)[..8]);
    first.into_iter().chain(second).collect()
}

/// Ticks one long-lived server through the script and checks every tick
/// against a fresh server's first tick at the same rate. Returns how many
/// ticks ran out of budget.
fn long_lived_matches_fresh(config: ServerConfig) -> usize {
    long_lived_matches_fresh_on(config, workload)
}

/// [`long_lived_matches_fresh`] with the sessions `queries` makes.
fn long_lived_matches_fresh_on(config: ServerConfig, queries: fn() -> Vec<Query>) -> usize {
    let mut long = Server::new(BondPricer::default(), relation(), config);
    subscribe_to(&mut long, queries());
    let mut exhausted = 0;
    for (i, rate) in script().into_iter().enumerate() {
        let got = long.tick(rate).expect("long-lived tick");
        let mut fresh = Server::new(BondPricer::default(), relation(), config);
        subscribe_to(&mut fresh, queries());
        let want = fresh.tick(rate).expect("fresh tick");
        assert_eq!(
            tick_key(&got),
            tick_key(&want),
            "tick {i} at rate {rate} differs from a fresh server's"
        );
        exhausted += usize::from(got.budget_exhausted);
    }
    exhausted
}

#[test]
fn a_long_lived_serial_server_ticks_like_a_fresh_one() {
    let config = ServerConfig {
        batch: Some(1),
        ..ServerConfig::default()
    };
    long_lived_matches_fresh(config);
}

#[test]
fn a_long_lived_lane_batched_server_ticks_like_a_fresh_one() {
    let config = ServerConfig {
        batch: Some(16),
        ..ServerConfig::default().with_workers(2)
    };
    long_lived_matches_fresh(config);
}

#[test]
fn a_long_lived_budgeted_server_ticks_like_a_fresh_one() {
    let config = ServerConfig {
        batch: Some(4),
        ..ServerConfig::budgeted(BUDGET).with_workers(2)
    };
    assert!(
        long_lived_matches_fresh(config) > 0,
        "the budget must run out on some tick for this to pin admission"
    );
}

#[test]
fn a_long_lived_server_whose_sessions_resolve_at_once_ticks_like_a_fresh_one() {
    // Every bond resolves on its initial bounds, so no tick refines: the
    // only column traffic is the invocation's trio, served from the
    // second tick on.
    for config in [
        ServerConfig::default(),
        ServerConfig {
            batch: Some(16),
            ..ServerConfig::default().with_workers(2)
        },
    ] {
        long_lived_matches_fresh_on(config, trio_only_workload);
        let mut srv = Server::new(BondPricer::default(), relation(), config);
        subscribe_to(&mut srv, trio_only_workload());
        for rate in rates(0.0550) {
            assert_eq!(srv.tick(rate).expect("tick").stats.iterations, 0);
        }
    }
}

/// A per-tick budget that the script's deeper ticks overrun.
const BUDGET: u64 = 40_000;

/// A fresh scratch directory under the system temp dir; unique per call.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-column-store-{tag}-{}-{n}", std::process::id()))
}

fn open(dir: &Path) -> Server {
    let config = ServerConfig {
        batch: Some(4),
        ..ServerConfig::budgeted(BUDGET).with_workers(2)
    };
    Server::open_durable(BondPricer::default(), relation(), config, dir).expect("open durable")
}

/// Every journal line the data dir holds, in segment order.
fn journal(dir: &Path) -> String {
    let mut segments: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("read data dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            let n = name.strip_prefix("journal-")?.strip_suffix(".jsonl")?;
            Some((n.parse().ok()?, p.clone()))
        })
        .collect();
    segments.sort();
    segments
        .iter()
        .map(|(_, p)| std::fs::read_to_string(p).expect("read segment"))
        .collect()
}

#[test]
fn a_recovered_budgeted_server_ticks_and_journals_like_the_uninterrupted_one() {
    // New rates after the crash are where an uninterrupted server could
    // reuse columns it solved before it; repeats are where both seed warm.
    let script: Vec<f64> = vec![
        0.0550, 0.0560, 0.0570, 0.0580, 0.0550, 0.0590, 0.0600, 0.0560,
    ];
    const CRASH_AFTER: usize = 4;

    let golden_dir = scratch_dir("golden");
    let mut golden = open(&golden_dir);
    subscribe(&mut golden);
    let golden_ticks: Vec<TickResult> = script
        .iter()
        .map(|&r| golden.tick(r).expect("golden tick"))
        .collect();
    assert!(
        golden_ticks.iter().any(|t| t.budget_exhausted),
        "the budget must run out on some tick for this to pin admission"
    );

    let crash_dir = scratch_dir("crash");
    let mut crashed = open(&crash_dir);
    subscribe(&mut crashed);
    for &r in &script[..CRASH_AFTER] {
        crashed.tick(r).expect("pre-crash tick");
    }
    drop(crashed);

    let mut recovered = open(&crash_dir);
    assert!(recovered.last_recovery().expect("recovery").replayed_events > 0);
    for (i, &r) in script.iter().enumerate().skip(CRASH_AFTER) {
        let got = recovered.tick(r).expect("post-crash tick");
        assert_eq!(got.tick, golden_ticks[i].tick);
        assert_eq!(
            tick_key(&got),
            tick_key(&golden_ticks[i]),
            "post-crash tick {i} differs from the uninterrupted run's"
        );
    }
    drop(golden);
    drop(recovered);

    assert_eq!(
        journal(&crash_dir),
        journal(&golden_dir),
        "the recovered server must write the uninterrupted server's journal"
    );
    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}
