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
//! 3. **A dir of the previous generation is refused untouched.** Its
//!    `meta.json` says `"version":2`; the open fails with
//!    `PersistError::Layout` before anything in the dir is truncated,
//!    swept or written.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bondlab::{BondPricer, BondUniverse};
use va_persist::{PersistError, Store};
use va_server::{durability_fingerprint, pricer_fingerprint, Server, ServerConfig};
use va_stream::{BondRelation, Query};
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

/// Two relations with their sessions, multi-relation ticks with repeated
/// rates, a crash and a reopen, more ticks and a clean shutdown.
fn run_script(dir: &Path) {
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
    for (a, b) in rates {
        srv.tick_multi(&[("alpha", a), ("beta", b)])
            .expect("multi tick");
    }
    drop(srv);
    let mut srv = open(dir);
    for (a, b) in rates {
        srv.tick_multi(&[("alpha", b), ("beta", a)])
            .expect("multi tick after the reopen");
    }
    srv.shutdown().expect("clean shutdown");
}

#[test]
fn one_script_into_two_fresh_dirs_leaves_identical_bytes() {
    let (first, second) = (scratch_dir("first"), scratch_dir("second"));
    run_script(&first);
    run_script(&second);
    let (a, b) = (contents(&first), contents(&second));
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
    for dir in [first, second] {
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

#[test]
fn a_version_2_dir_is_refused_and_left_untouched() {
    let dir = scratch_dir("v2");
    std::fs::create_dir_all(&dir).expect("create dir");
    let pricer = BondPricer::default();
    let relation = BondRelation::from_universe(&BondUniverse::generate(1, 7));
    let bond = relation.bonds()[0];
    let meta = format!(
        "{{\"version\":2,\"pricer\":{},\"relations\":[{{\"relation\":1,\"fingerprint\":{}}}]}}\n",
        pricer_fingerprint(&pricer),
        durability_fingerprint(&pricer, &relation),
    );
    let create = format!(
        "{{\"ev\":\"create_relation\",\"relation\":1,\"def\":{{\"name\":\"default\",\"bonds\":[{{\"id\":{},\"coupon\":{},\"maturity\":{},\"face\":{}}}]}}}}\n",
        bond.id, bond.coupon, bond.years_to_maturity, bond.face
    );
    // A tick as a version-2 server journaled it, then a torn append and a
    // stale temp file: an accepted open would truncate the one and sweep
    // the other.
    let tick = r#"{"ev":"tick","relation":1,"tick":1,"rate":0.0583,"shed":0,"budget_exhausted":false,"stats":{"rate":0.0583,"work":{"exec":10,"get":1,"store":1,"choose":2},"wall_nanos":5,"iterations":4,"operator":"shared_pool","objects":1,"hist":[0,0,0,1,0,0,0,0,0],"cpu":{"iterations":4,"pct_iterations":4,"mae":1.5,"mape":0.2}},"sessions":[],"answers":[],"warm":[]}"#;
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
            assert!(detail.contains("\"version\":3"), "{detail}");
        }
        other => panic!("expected Layout, got {other:?}"),
    }
    let err = Server::open_durable_catalog(pricer, ServerConfig::default(), &dir)
        .expect_err("a version-2 dir must be refused");
    assert!(
        err.to_string().contains("unsupported data dir layout"),
        "{err}"
    );
    assert_eq!(contents(&dir), before, "the refused opens changed the dir");
    std::fs::remove_dir_all(&dir).ok();
}
