//! What a durable server says about its ticks survives a crash unchanged.
//!
//! A budgeted durable server hosts two relations, ticks them together
//! through `tick_multi` and snapshots every four journal events, so its
//! recovery starts from a snapshot and replays a journal tail. It is
//! dropped without `shutdown` and reopened on the same dir. Every
//! `TICK_DONE` line it answered, before the crash and after, and each
//! relation's `STATS` line before the crash, right after the reopen and at
//! the end, are pinned as literal strings: the run-level accounting
//! (`ticks`, `work_units`, `iterations`, the per-session counters) must
//! read the same from the live server, from a snapshot-plus-replay
//! recovery and from the ticks that follow it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bondlab::{BondPricer, BondUniverse};
use va_server::{proto, Server, ServerConfig};
use va_stream::{BondRelation, Query};
use vao::ops::selection::CmpOp;

const BUDGET: u64 = 200_000;

/// A fresh scratch directory under the system temp dir; unique per call.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-durable-stats-{tag}-{}-{n}", std::process::id()))
}

fn open(dir: &Path) -> Server {
    let config = ServerConfig {
        snapshot_every: 4,
        ..ServerConfig::budgeted(BUDGET)
    };
    Server::open_durable_catalog(BondPricer::default(), config, dir).expect("open durable catalog")
}

/// Creates the two relations and their sessions.
fn define(srv: &mut Server) {
    let alpha = BondRelation::from_universe(&BondUniverse::generate(6, 7));
    let beta = BondRelation::from_universe(&BondUniverse::generate(4, 9));
    srv.create_relation("alpha", alpha, Some(7))
        .expect("create alpha");
    srv.create_relation("beta", beta, Some(9))
        .expect("create beta");
    srv.subscribe_to("alpha", Query::Max { epsilon: 1.0 }, 2)
        .expect("subscribe alpha max");
    srv.subscribe_to(
        "alpha",
        Query::Sum {
            weights: vec![1.0; 6],
            epsilon: 5.0,
        },
        1,
    )
    .expect("subscribe alpha sum");
    srv.subscribe_to(
        "beta",
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        1,
    )
    .expect("subscribe beta selection");
    srv.subscribe_to("beta", Query::TopK { k: 2, epsilon: 1.0 }, 3)
        .expect("subscribe beta topk");
}

/// Ticks both relations at each pair of rates; returns the `TICK_DONE`
/// lines in answer order.
fn tick(srv: &mut Server, rates: &[(f64, f64)]) -> Vec<String> {
    let mut lines = Vec::new();
    for &(a, b) in rates {
        let results = srv
            .tick_multi(&[("alpha", a), ("beta", b)])
            .expect("multi tick");
        for res in &results {
            let tenant = srv.catalog().get(res.relation).expect("ticked relation");
            lines.push(proto::tick_done(tenant.name(), res, tenant.shed()));
        }
    }
    lines
}

/// Both relations' `STATS` lines.
fn stats(srv: &Server) -> [String; 2] {
    ["alpha", "beta"].map(|name| proto::stats(srv.catalog().by_name(name).expect("relation")))
}

const BEFORE: [(f64, f64); 6] = [
    (0.0583, 0.0601),
    (0.0601, 0.0583),
    (0.0583, 0.0601),
    (0.0592, 0.0592),
    (0.0601, 0.0583),
    (0.0610, 0.0592),
];

const AFTER: [(f64, f64); 3] = [(0.0583, 0.0601), (0.0592, 0.0610), (0.0601, 0.0583)];

#[test]
fn tick_and_stats_lines_survive_a_crash_unchanged() {
    let dir = scratch_dir("crash");
    let mut srv = open(&dir);
    define(&mut srv);
    let done_before = tick(&mut srv, &BEFORE);
    let stats_before = stats(&srv);
    drop(srv);

    let mut srv = open(&dir);
    let rec = srv
        .last_recovery()
        .expect("a durable open reports recovery");
    assert!(
        rec.snapshot_seq.is_some(),
        "recovery must start from a snapshot"
    );
    assert!(
        rec.replayed_events > 0,
        "and replay a journal tail: {rec:?}"
    );
    let stats_reopened = stats(&srv);
    let done_after = tick(&mut srv, &AFTER);
    let stats_after = stats(&srv);
    drop(srv);
    std::fs::remove_dir_all(&dir).ok();

    let show = |lines: &[String]| {
        lines
            .iter()
            .map(|l| format!("    r#\"{l}\"#,\n"))
            .collect::<String>()
    };
    let got = format!(
        "done_before:\n{}stats_before:\n{}stats_reopened:\n{}done_after:\n{}stats_after:\n{}",
        show(&done_before),
        show(&stats_before),
        show(&stats_reopened),
        show(&done_after),
        show(&stats_after),
    );
    assert_eq!(done_before, DONE_BEFORE, "{got}");
    assert_eq!(stats_before, STATS_BEFORE, "{got}");
    assert_eq!(stats_reopened, STATS_BEFORE, "{got}");
    assert_eq!(done_after, DONE_AFTER, "{got}");
    assert_eq!(stats_after, STATS_AFTER, "{got}");
}

const DONE_BEFORE: &[&str] = &[
    r#"{"type":"TICK_DONE","relation":"alpha","tick":1,"rate":0.0583,"work_units":74734,"iterations":42,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":1,"rate":0.0601,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":2,"rate":0.0601,"work_units":70375,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":2,"rate":0.0583,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":3,"rate":0.0583,"work_units":70379,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":3,"rate":0.0601,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":4,"rate":0.0592,"work_units":74734,"iterations":42,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":4,"rate":0.0592,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":5,"rate":0.0601,"work_units":70375,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":5,"rate":0.0583,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":6,"rate":0.061,"work_units":70375,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":6,"rate":0.0592,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
];

const STATS_BEFORE: &[&str] = &[
    r#"{"type":"STATS","relation":"alpha","ticks":6,"shed_ticks":0,"work_units":430972,"iterations":248,"sessions":[{"session":1,"operator":"max","priority":2,"finals":0,"partials":6,"driven_iterations":72},{"session":2,"operator":"sum","priority":1,"finals":6,"partials":0,"driven_iterations":176}]}"#,
    r#"{"type":"STATS","relation":"beta","ticks":6,"shed_ticks":0,"work_units":111474,"iterations":108,"sessions":[{"session":1,"operator":"selection","priority":1,"finals":6,"partials":0,"driven_iterations":12},{"session":2,"operator":"topk","priority":3,"finals":6,"partials":0,"driven_iterations":96}]}"#,
];

const DONE_AFTER: &[&str] = &[
    r#"{"type":"TICK_DONE","relation":"alpha","tick":7,"rate":0.0583,"work_units":70379,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":7,"rate":0.0601,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":8,"rate":0.0592,"work_units":70379,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":8,"rate":0.061,"work_units":14224,"iterations":17,"budget_exhausted":false,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"alpha","tick":9,"rate":0.0601,"work_units":70375,"iterations":41,"budget_exhausted":true,"shed":0}"#,
    r#"{"type":"TICK_DONE","relation":"beta","tick":9,"rate":0.0583,"work_units":18579,"iterations":18,"budget_exhausted":false,"shed":0}"#,
];

const STATS_AFTER: &[&str] = &[
    r#"{"type":"STATS","relation":"alpha","ticks":9,"shed_ticks":0,"work_units":642105,"iterations":371,"sessions":[{"session":1,"operator":"max","priority":2,"finals":0,"partials":9,"driven_iterations":102},{"session":2,"operator":"sum","priority":1,"finals":9,"partials":0,"driven_iterations":269}]}"#,
    r#"{"type":"STATS","relation":"beta","ticks":9,"shed_ticks":0,"work_units":162856,"iterations":161,"sessions":[{"session":1,"operator":"selection","priority":1,"finals":9,"partials":0,"driven_iterations":18},{"session":2,"operator":"topk","priority":3,"finals":9,"partials":0,"driven_iterations":143}]}"#,
];
