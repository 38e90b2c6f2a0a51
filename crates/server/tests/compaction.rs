//! Segmented-journal compaction under crashes: the bounded-recovery
//! guarantees of PR 5, pinned with the same golden-run bit-identity
//! harness as `recovery.rs`.
//!
//! 1. **Compaction preserves bit-identity.** A frequently-snapshotting
//!    server (`snapshot_every = 2`) crashes mid-stream; recovery from the
//!    compacted dir replays only the post-snapshot tail yet every
//!    post-crash tick matches the uninterrupted golden run bit-for-bit —
//!    and the data dir really is bounded (old segments gone, two
//!    snapshots kept).
//! 2. **Crash between snapshot durability and segment deletion.** The one
//!    new ordering window compaction introduces: the snapshot is durable
//!    but a covered segment survives the crash. Recovery must ignore the
//!    leftover (it is strictly below the snapshot's coverage) and the
//!    next snapshot must finish the interrupted deletion.
//! 3. **Mid-rotation crash shapes.** A crash can leave the freshly
//!    rotated active segment empty on disk, or not yet created at all.
//!    Both shapes recover bit-identically.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bondlab::{BondPricer, BondUniverse};
use va_server::{Server, ServerConfig, Tenant, TickResult, DEFAULT_RELATION};
use va_stream::{BondRelation, Query, TickStats};
use vao::ops::selection::CmpOp;

const SEED: u64 = 1994;
const RATES: [f64; 6] = [0.0583, 0.0601, 0.0583, 0.0601, 0.0583, 0.0592];
const CRASH_AFTER: usize = 3;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-compaction-{tag}-{}-{n}", std::process::id()))
}

fn workload(n: usize) -> Vec<Query> {
    let k = 5.min(n).max(1);
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
        Query::Min { epsilon: 1.0 },
        Query::TopK { k, epsilon: 1.0 },
        Query::Count {
            op: CmpOp::Gt,
            constant: 100.0,
            slack: 25,
        },
    ]
}

fn open_every(dir: &Path, snapshot_every: u64) -> Server {
    let relation = BondRelation::from_universe(&BondUniverse::generate(24, SEED));
    let config = ServerConfig {
        snapshot_every,
        ..ServerConfig::default()
    };
    Server::open_durable(BondPricer::default(), relation, config, dir).expect("open durable server")
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

/// Everything observable about a tick except wall time (measured, not
/// derived, so excluded from bit-identity claims).
fn tick_key(res: &TickResult) -> String {
    let TickStats {
        rate,
        work,
        wall: _,
        iterations,
    } = &res.stats;
    format!(
        "tick={} rate={:?} answers={:?} exhausted={} stats=({rate:?} {work:?} {iterations})",
        res.tick, res.rate, res.answers, res.budget_exhausted
    )
}

/// Ascending `(segment_number, byte_len)` of the `journal-*.jsonl`
/// segments in `dir`.
fn segments(dir: &Path) -> Vec<(u64, u64)> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix("journal-")
            .and_then(|rest| rest.strip_suffix(".jsonl"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.push((n, entry.metadata().map_or(0, |m| m.len())));
        }
    }
    found.sort_unstable();
    found
}

fn snapshot_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("read dir")
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("snapshot-") && n.ends_with(".json"))
        })
        .count()
}

/// The uninterrupted golden run under `snapshot_every`: its per-tick keys.
fn golden_keys(snapshot_every: u64) -> Vec<String> {
    let dir = scratch_dir("golden");
    let mut golden = open_every(&dir, snapshot_every);
    subscribe_workload(&mut golden);
    let keys = RATES
        .iter()
        .map(|&r| tick_key(&golden.tick(r).expect("golden tick")))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    keys
}

/// Runs the crash prefix: subscribe, `CRASH_AFTER` ticks checked against
/// the golden keys, then the drop-without-shutdown "SIGKILL".
fn crash_prefix(dir: &Path, snapshot_every: u64, golden: &[String]) {
    let mut crashed = open_every(dir, snapshot_every);
    subscribe_workload(&mut crashed);
    for (i, &r) in RATES.iter().take(CRASH_AFTER).enumerate() {
        let key = tick_key(&crashed.tick(r).expect("pre-crash tick"));
        assert_eq!(key, golden[i], "pre-crash tick {i} diverged");
    }
    drop(crashed);
}

/// Recovers from `dir` and checks the remaining ticks against the golden
/// keys, bit-for-bit.
fn recover_and_finish(dir: &Path, snapshot_every: u64, golden: &[String]) -> Server {
    let mut recovered = open_every(dir, snapshot_every);
    for (i, &r) in RATES.iter().enumerate().skip(CRASH_AFTER) {
        let key = tick_key(&recovered.tick(r).expect("post-crash tick"));
        assert_eq!(
            key, golden[i],
            "post-crash tick {i} must match the golden run bit-for-bit"
        );
    }
    recovered
}

#[test]
fn compacted_recovery_is_bit_identical_and_the_dir_is_bounded() {
    let golden = golden_keys(2);
    let dir = scratch_dir("bounded");
    crash_prefix(&dir, 2, &golden);

    // Compaction really ran: the earliest segments are gone, and only the
    // bounded live window survives — at most two retained snapshot
    // intervals plus the active segment, and at most two snapshots.
    let segs = segments(&dir);
    assert!(
        segs.first().expect("live segments").0 >= 2,
        "segment 1 must have been compacted away, live: {segs:?}"
    );
    assert!(segs.len() <= 3, "live window exceeded: {segs:?}");
    assert!(snapshot_count(&dir) <= 2);
    assert!(
        !dir.join("journal.jsonl").exists(),
        "a segmented dir never contains the legacy single journal"
    );

    // Recovery replays only the tail, yet nothing observable changes.
    let recovered = recover_and_finish(&dir, 2, &golden);
    let rec = recovered.last_recovery().expect("recovery record");
    assert!(
        rec.replayed_events < 2 * 2,
        "replay must be bounded by the snapshot cadence, got {}",
        rec.replayed_events
    );
    assert_eq!(rec.skipped_snapshots, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_covered_segment_is_ignored_and_deleted_by_the_next_snapshot() {
    let golden = golden_keys(2);
    let dir = scratch_dir("leftover");
    crash_prefix(&dir, 2, &golden);

    // Fabricate the crash-between-snapshot-durable-and-segment-delete
    // window: resurrect a segment below the live window, as if the crash
    // hit after the snapshot rename but before compaction unlinked it.
    let min_live = segments(&dir).first().expect("live segments").0;
    assert!(
        min_live >= 2,
        "precondition: compaction must already have deleted segment {}",
        min_live - 1
    );
    let leftover = dir.join(format!("journal-{}.jsonl", min_live - 1));
    std::fs::write(&leftover, b"{\"type\":\"Unsubscribe\",\"session\":9}\n").expect("resurrect");

    // The leftover sits strictly below the snapshot's coverage, so
    // recovery never opens it and the stream finishes bit-identically.
    let _recovered = recover_and_finish(&dir, 2, &golden);

    // The three post-crash ticks journal enough events to force another
    // snapshot, whose compaction finishes the interrupted deletion.
    assert!(
        !leftover.exists(),
        "the next snapshot must delete the resurrected covered segment"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_with_an_empty_freshly_rotated_segment_recovers_bit_identically() {
    let golden = golden_keys(2);
    let dir = scratch_dir("rotated");
    crash_prefix(&dir, 2, &golden);

    // Crash-after-rotate shape: the new active segment was created but
    // nothing was appended yet.
    let max_live = segments(&dir).last().expect("live segments").0;
    std::fs::write(dir.join(format!("journal-{}.jsonl", max_live + 1)), b"").expect("empty active");

    let _recovered = recover_and_finish(&dir, 2, &golden);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_the_rotated_segment_was_created_recovers_bit_identically() {
    let golden = golden_keys(2);
    let dir = scratch_dir("uncreated");
    crash_prefix(&dir, 2, &golden);

    // Crash-before-create shape: the snapshot is durable but `rotate`
    // never created its segment. If the crash happened to land right
    // after a snapshot, the active segment is the empty rotation target —
    // removing it reproduces the crash-before-create dir exactly;
    // otherwise the dir already has that shape for the *previous*
    // snapshot and removing nothing is faithful too.
    let (max_live, len) = *segments(&dir).last().expect("live segments");
    if len == 0 {
        std::fs::remove_file(dir.join(format!("journal-{max_live}.jsonl"))).expect("remove");
    }

    let _recovered = recover_and_finish(&dir, 2, &golden);
    std::fs::remove_dir_all(&dir).ok();
}
