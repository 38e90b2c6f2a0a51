//! A data dir holds facts only.
//!
//! The journal and the snapshots carry what a tick computed — answers,
//! session counters, warm bounds, and its integer work and iteration
//! counts — and nothing measured. So:
//!
//! 1. **A data dir is a function of its request script.** The same script
//!    run into two fresh dirs leaves the same files with the same bytes,
//!    compared raw, nothing masked.
//! 2. **A snapshot does not grow with uptime.** A relation's run totals are
//!    a running fold, so the snapshot after 640 ticks is the one after 64
//!    plus a few more digits.
//! 3. **A snapshot does not depend on the snapshots before it.** The store
//!    copies the warm sections that did not move from its memo of the last
//!    snapshot; a server reopened from a crashed dir starts with an empty
//!    memo and writes the same bytes as the one that kept running.
//! 4. **A dir of an earlier generation is refused untouched.** Its
//!    `meta.json` says `"version":2` or `"version":3`; the open fails with
//!    `PersistError::Layout` before anything in the dir is truncated,
//!    swept or written.
//! 5. **A one-relation tick is one tick, whichever way it is issued.**
//!    `tick_relation` and a one-relation `tick_multi` leave the same dir
//!    and answer the same results, wall time aside.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bondlab::{BondPricer, BondUniverse};
use va_persist::{PersistError, Store};
use va_server::{durability_fingerprint, pricer_fingerprint, Server, ServerConfig, TickResult};
use va_stream::{BondRelation, Query, TickStats};
use vao::ops::selection::CmpOp;

/// A fresh scratch directory under the system temp dir; unique per call.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("va-data-dir-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file in `dir` by name, with its bytes.
fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect()
}

fn open(dir: &Path) -> Server {
    let config = ServerConfig {
        snapshot_every: 4,
        ..ServerConfig::budgeted(200_000).with_workers(2)
    };
    Server::open_durable_catalog(BondPricer::default(), config, dir).expect("open durable catalog")
}

/// How a script issues its ticks.
#[derive(Clone, Copy)]
enum Issue {
    /// Both relations in one `tick_multi` request.
    Pair,
    /// One relation a request, through `tick_relation`.
    Relation,
    /// One relation a request, through a one-relation `tick_multi`.
    OneRelationMulti,
}

/// Ticks every `(relation, rate)` of `ticks` the way `issue` says.
fn tick(srv: &mut Server, issue: Issue, ticks: &[(&str, f64)]) -> Vec<TickResult> {
    match issue {
        Issue::Pair => srv.tick_multi(ticks).expect("multi tick"),
        Issue::Relation => ticks
            .iter()
            .map(|&(name, rate)| srv.tick_relation(name, rate).expect("tick"))
            .collect(),
        Issue::OneRelationMulti => ticks
            .iter()
            .flat_map(|&entry| srv.tick_multi(&[entry]).expect("one-relation multi tick"))
            .collect(),
    }
}

/// Two relations with their sessions, ticks with repeated rates issued as
/// `issue` says, a crash and a reopen, more ticks and a clean shutdown.
/// Returns every tick's result.
fn run_script(dir: &Path, issue: Issue) -> Vec<TickResult> {
    let mut srv = open(dir);
    let alpha = BondRelation::from_universe(&BondUniverse::generate(6, 7));
    let beta = BondRelation::from_universe(&BondUniverse::generate(4, 9));
    srv.create_relation("alpha", alpha, Some(7))
        .expect("create alpha");
    srv.create_relation("beta", beta, Some(9))
        .expect("create beta");
    srv.subscribe_to("alpha", Query::Max { epsilon: 1.0 }, 2)
        .expect("subscribe alpha");
    srv.subscribe_to(
        "beta",
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        1,
    )
    .expect("subscribe beta");
    let rates = [(0.0583, 0.0601), (0.0601, 0.0583), (0.0583, 0.0601)];
    let mut results = Vec::new();
    for (a, b) in rates {
        results.extend(tick(&mut srv, issue, &[("alpha", a), ("beta", b)]));
    }
    drop(srv);
    let mut srv = open(dir);
    for (a, b) in rates {
        results.extend(tick(&mut srv, issue, &[("alpha", b), ("beta", a)]));
    }
    srv.shutdown().expect("clean shutdown");
    results
}

/// Asserts that the dirs hold the same files with the same bytes, at least
/// one snapshot among them.
fn assert_same_files(first: &Path, second: &Path) {
    let (a, b) = (contents(first), contents(second));
    assert!(
        a.keys().any(|name| name.starts_with("snapshot-")),
        "{:?}",
        a.keys()
    );
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "the two dirs hold different files"
    );
    for (name, bytes) in &a {
        assert!(
            *bytes == b[name],
            "{name} differs:\n{}\n{}",
            String::from_utf8_lossy(bytes),
            String::from_utf8_lossy(&b[name])
        );
    }
}

#[test]
fn one_script_into_two_fresh_dirs_leaves_identical_bytes() {
    let (first, second) = (scratch_dir("first"), scratch_dir("second"));
    run_script(&first, Issue::Pair);
    run_script(&second, Issue::Pair);
    assert_same_files(&first, &second);
    for dir in [first, second] {
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn a_one_relation_tick_is_the_same_through_either_entry_point() {
    let (single, multi) = (scratch_dir("single"), scratch_dir("one-multi"));
    let by_relation = run_script(&single, Issue::Relation);
    let by_multi = run_script(&multi, Issue::OneRelationMulti);
    assert_same_files(&single, &multi);
    assert_eq!(by_relation.len(), 12);
    assert_eq!(by_relation.len(), by_multi.len());
    for (a, b) in by_relation.iter().zip(&by_multi) {
        assert_eq!(
            (a.relation, a.tick, a.rate.to_bits(), a.budget_exhausted),
            (b.relation, b.tick, b.rate.to_bits(), b.budget_exhausted)
        );
        assert_eq!(a.answers, b.answers);
        let timeless = |r: &TickResult| TickStats {
            wall: Duration::ZERO,
            ..r.stats
        };
        assert_eq!(timeless(a), timeless(b));
    }
    for dir in [single, multi] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The length of the newest snapshot file in `dir`.
fn newest_snapshot_len(dir: &Path) -> usize {
    let (_, path) = std::fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|entry| {
            let path = entry.expect("dir entry").path();
            let name = path.file_name()?.to_str()?;
            let seq: u64 = name
                .strip_prefix("snapshot-")?
                .strip_suffix(".json")?
                .parse()
                .ok()?;
            Some((seq, path))
        })
        .max()
        .expect("a snapshot");
    std::fs::read(path).expect("read snapshot").len()
}

#[test]
fn a_snapshot_does_not_grow_with_the_ticks_behind_it() {
    let dir = scratch_dir("growth");
    let relation = BondRelation::from_universe(&BondUniverse::generate(4, 1994));
    let config = ServerConfig {
        snapshot_every: u64::MAX,
        ..ServerConfig::default()
    };
    let mut srv =
        Server::open_durable(BondPricer::default(), relation, config, &dir).expect("open durable");
    srv.subscribe(Query::Max { epsilon: 0.5 }, 1)
        .expect("subscribe max");
    srv.subscribe(Query::TopK { k: 2, epsilon: 1.0 }, 2)
        .expect("subscribe topk");
    let rates = [0.0583, 0.0601, 0.0592, 0.0610];
    let tick_to = |srv: &mut Server, ticks: usize| {
        while srv.catalog().tenants()[0].ticks() < ticks as u64 {
            let next = srv.catalog().tenants()[0].ticks() as usize;
            srv.tick(rates[next % rates.len()]).expect("tick");
        }
        srv.shutdown().expect("snapshot");
        newest_snapshot_len(&dir)
    };
    let after_64 = tick_to(&mut srv, 64);
    let after_640 = tick_to(&mut srv, 640);
    drop(srv);
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        after_640 < after_64 + 256,
        "the snapshot grew from {after_64} bytes after 64 ticks to {after_640} after 640"
    );
}

/// Ticks both relations `run_script` creates at the `i`-th rate pair of a
/// three-rate cycle, so every rate is revisited.
fn tick_cycle(srv: &mut Server, i: usize) {
    let rates = [0.0583, 0.0601, 0.0592];
    srv.tick_multi(&[("alpha", rates[i % 3]), ("beta", rates[(i + 1) % 3])])
        .expect("multi tick");
}

#[test]
fn a_reopened_server_writes_the_snapshots_a_running_one_does() {
    let (running_dir, crashed_dir) = (scratch_dir("running"), scratch_dir("crashed"));
    let mut running = open(&running_dir);
    running
        .create_relation(
            "alpha",
            BondRelation::from_universe(&BondUniverse::generate(6, 7)),
            Some(7),
        )
        .expect("create alpha");
    running
        .create_relation(
            "beta",
            BondRelation::from_universe(&BondUniverse::generate(4, 9)),
            Some(9),
        )
        .expect("create beta");
    running
        .subscribe_to("alpha", Query::Max { epsilon: 1.0 }, 1)
        .expect("subscribe alpha");
    running
        .subscribe_to("beta", Query::TopK { k: 2, epsilon: 0.5 }, 1)
        .expect("subscribe beta");
    for i in 0..12 {
        tick_cycle(&mut running, i);
    }
    let written = contents(&running_dir)
        .keys()
        .filter_map(|name| {
            name.strip_prefix("snapshot-")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .expect("a snapshot");
    assert!(written >= 3, "only {written} snapshots before the crash");
    // Every append is synced before it returns, so the dir as it stands is
    // what a crash leaves behind.
    std::fs::create_dir_all(&crashed_dir).expect("create crash copy");
    for (name, bytes) in contents(&running_dir) {
        std::fs::write(crashed_dir.join(name), bytes).expect("copy file");
    }
    let mut reopened = open(&crashed_dir);
    // Under the same sessions a revisit ends with the records it ended
    // with before, so the running server's memo would match every
    // section. Two more sessions move the revisited sections: the memo
    // then holds records the next snapshot must encode anew.
    for srv in [&mut running, &mut reopened] {
        srv.subscribe_to(
            "alpha",
            Query::TopK {
                k: 3,
                epsilon: 0.05,
            },
            2,
        )
        .expect("subscribe alpha");
        srv.subscribe_to("beta", Query::Max { epsilon: 0.05 }, 2)
            .expect("subscribe beta");
    }
    for i in 12..20 {
        tick_cycle(&mut running, i);
        tick_cycle(&mut reopened, i);
    }
    running.shutdown().expect("running shutdown");
    reopened.shutdown().expect("reopened shutdown");
    assert_same_files(&running_dir, &crashed_dir);
    for dir in [running_dir, crashed_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A dir whose `meta.json` says `version` and whose journal holds `tick`,
/// a torn append after it and a stale temp file (which an accepted open
/// would truncate and sweep) is refused, naming the version this build
/// reads, and left byte for byte as it was.
fn assert_refused_untouched(version: u64, tick: &str) {
    let dir = scratch_dir(&format!("v{version}"));
    std::fs::create_dir_all(&dir).expect("create dir");
    let pricer = BondPricer::default();
    let relation = BondRelation::from_universe(&BondUniverse::generate(1, 7));
    let bond = relation.bonds()[0];
    let meta = format!(
        "{{\"version\":{version},\"pricer\":{},\"relations\":[{{\"relation\":1,\"fingerprint\":{}}}]}}\n",
        pricer_fingerprint(&pricer),
        durability_fingerprint(&pricer, &relation),
    );
    let create = format!(
        "{{\"ev\":\"create_relation\",\"relation\":1,\"def\":{{\"name\":\"default\",\"bonds\":[{{\"id\":{},\"coupon\":{},\"maturity\":{},\"face\":{}}}]}}}}\n",
        bond.id, bond.coupon, bond.years_to_maturity, bond.face
    );
    std::fs::write(dir.join("meta.json"), meta).expect("write meta");
    std::fs::write(
        dir.join("journal-1.jsonl"),
        format!("{create}{tick}\n{{\"ev\":\"ti"),
    )
    .expect("write journal");
    std::fs::write(dir.join("snapshot-1.json.tmp"), "{half").expect("write tmp");
    let before = contents(&dir);

    match Store::open(&dir) {
        Err(PersistError::Layout { path, detail }) => {
            assert!(path.ends_with("meta.json"), "{path}");
            assert!(detail.contains("\"version\":4"), "{detail}");
        }
        other => panic!("expected Layout, got {other:?}"),
    }
    let err = Server::open_durable_catalog(pricer, ServerConfig::default(), &dir)
        .expect_err("an earlier generation's dir must be refused");
    assert!(
        err.to_string().contains("unsupported data dir layout"),
        "{err}"
    );
    assert_eq!(contents(&dir), before, "the refused opens changed the dir");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_version_2_dir_is_refused_and_left_untouched() {
    // A tick as a version-2 server journaled it: a measured `stats`.
    assert_refused_untouched(
        2,
        r#"{"ev":"tick","relation":1,"tick":1,"rate":0.0583,"shed":0,"budget_exhausted":false,"stats":{"rate":0.0583,"work":{"exec":10,"get":1,"store":1,"choose":2},"wall_nanos":5,"iterations":4,"operator":"shared_pool","objects":1,"hist":[0,0,0,1,0,0,0,0,0],"cpu":{"iterations":4,"pct_iterations":4,"mae":1.5,"mape":0.2}},"sessions":[],"answers":[],"warm":[]}"#,
    );
}

#[test]
fn a_version_3_dir_is_refused_and_left_untouched() {
    // A tick as a version-3 server journaled it: warm objects carrying
    // `iters` and `cost`.
    assert_refused_untouched(
        3,
        r#"{"ev":"tick","relation":1,"tick":1,"rate":0.0583,"shed":0,"budget_exhausted":false,"stats":{"work":{"exec":10,"get":1,"store":1,"choose":2},"iterations":4},"sessions":[],"answers":[],"warm":[{"lo":99.5,"hi":100.5,"converged":false,"iters":4,"cost":10}]}"#,
    );
}
