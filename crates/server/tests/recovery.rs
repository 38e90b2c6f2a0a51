//! Crash recovery: the journaled server survives a mid-stream kill.
//!
//! The headline guarantee of the persistence layer, pinned here four ways:
//!
//! 1. **Golden equivalence.** Run a durable server uninterrupted (the
//!    golden run), then run an identical workload that *crashes* mid-stream
//!    (the server is dropped without `shutdown()`, so only the fsync'd
//!    journal survives) and recovers into the same data dir. Every
//!    post-crash tick — answers, work breakdown, iteration counts,
//!    histograms — must be bit-identical to the golden run's corresponding
//!    tick. Wall-clock time is the one field excluded: it is measured, not
//!    derived.
//! 2. **Warm restart beats cold restart.** The recovered server re-admits
//!    pool objects at their achieved accuracy, so a post-recovery tick at a
//!    previously-seen rate does strictly fewer iterations than a cold
//!    server answering the same workload from scratch.
//! 3. **Durability is free of semantic drift.** A *fresh* durable server's
//!    first tick reproduces the in-memory scheduler's golden numbers from
//!    `parallel_determinism.rs` exactly — `--data-dir` changes where state
//!    lives, never what is computed.
//! 4. **Ids, torn tails, clean shutdowns.** Recovered servers never
//!    re-issue a session id (even for sessions unsubscribed before the
//!    crash), a torn final journal record is truncated and reported rather
//!    than fatal, and a clean shutdown recovers with zero replay.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bondlab::{BondPricer, BondUniverse};
use va_server::{Server, ServerConfig, SessionId, Tenant, TickResult, DEFAULT_RELATION};
use va_stream::{BondRelation, Query, QueryOutput, TickStats};
use vao::ops::selection::CmpOp;

const SEED: u64 = 1994;
const RATE: f64 = 0.0583;

/// A fresh scratch directory under the system temp dir; unique per call so
/// parallel tests never share a journal.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-recovery-{tag}-{}-{n}", std::process::id()))
}

/// The determinism-test workload plus one *tight* query (ε just above the
/// pricer's minimum refinable width) so every run converges at least one
/// object fully — the state a warm restart re-admits for free.
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
        // The sketch-guided family: their summaries are derived state
        // (rebuilt from the pool each round, never journaled), so recovery
        // must reproduce their ticks bit-for-bit with no sketch records.
        Query::Median { epsilon: 1.0 },
        Query::Percentile {
            phi: 0.9,
            epsilon: 1.0,
        },
        Query::HeavyHitters { k: 3, epsilon: 0.5 },
    ]
}

fn relation(bonds: usize) -> BondRelation {
    BondRelation::from_universe(&BondUniverse::generate(bonds, SEED))
}

fn open(dir: &std::path::Path) -> Server {
    Server::open_durable(
        BondPricer::default(),
        relation(24),
        ServerConfig::default(),
        dir,
    )
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

/// The tick sequence: repeats are deliberate (market rates quantize to
/// basis points), because repeats are where warm state pays.
const RATES: [f64; 6] = [RATE, 0.0601, RATE, 0.0601, RATE, 0.0592];
const CRASH_AFTER: usize = 3;

#[test]
fn recovered_ticks_are_bit_identical_to_the_uninterrupted_golden_run() {
    let golden_dir = scratch_dir("golden");
    let crash_dir = scratch_dir("crash");

    // Golden: one durable server, never interrupted.
    let mut golden = open(&golden_dir);
    subscribe_workload(&mut golden);
    let golden_ticks: Vec<String> = RATES
        .iter()
        .map(|&r| tick_key(&golden.tick(r).expect("golden tick")))
        .collect();

    // Crash run: same workload, same prefix, then the process "dies" — the
    // server is dropped with no shutdown, so only the journal survives.
    let mut crashed = open(&crash_dir);
    subscribe_workload(&mut crashed);
    for (i, &r) in RATES.iter().take(CRASH_AFTER).enumerate() {
        let key = tick_key(&crashed.tick(r).expect("pre-crash tick"));
        assert_eq!(key, golden_ticks[i], "pre-crash tick {i} diverged");
    }
    drop(crashed);

    // Recover and finish the stream. Replay is real: no snapshot was due
    // (SNAPSHOT_EVERY events had not accumulated), so every event folds
    // back out of the journal tail.
    let mut recovered = open(&crash_dir);
    let rec = recovered.last_recovery().expect("recovery record");
    assert!(
        rec.replayed_events > 0,
        "a mid-stream crash must leave journal events to replay"
    );
    for (i, &r) in RATES.iter().enumerate().skip(CRASH_AFTER) {
        let key = tick_key(&recovered.tick(r).expect("post-crash tick"));
        assert_eq!(
            key, golden_ticks[i],
            "post-crash tick {i} must match the golden run bit-for-bit"
        );
    }

    // Recovered accounting matches too: same session counters, and RESUME
    // serves the same last answer the golden server would.
    assert_eq!(
        default_tenant(&recovered).ticks(),
        default_tenant(&golden).ticks()
    );
    for (g, r) in default_tenant(&golden)
        .sessions()
        .sessions()
        .iter()
        .zip(default_tenant(&recovered).sessions().sessions())
    {
        assert_eq!(g.id, r.id);
        assert_eq!(g.finals, r.finals, "session {} finals", g.id);
        assert_eq!(g.partials, r.partials, "session {} partials", g.id);
        assert_eq!(g.driven_iterations, r.driven_iterations);
    }
    for ((gid, ga), (rid, ra)) in default_tenant(&golden)
        .last_answers()
        .iter()
        .zip(default_tenant(&recovered).last_answers())
    {
        assert_eq!(gid, rid);
        assert_eq!(ga, ra, "session {gid} last answer");
    }
    let (sess, answer) = recovered
        .resume_in(DEFAULT_RELATION, SessionId(1))
        .expect("resume");
    assert_eq!(sess.finals + sess.partials, RATES.len() as u64);
    assert_eq!(
        answer,
        default_tenant(&golden)
            .last_answers()
            .first()
            .map(|(_, a)| a)
    );

    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

#[test]
fn warm_restart_does_strictly_fewer_iterations_than_cold_restart() {
    let dir = scratch_dir("warm");

    // Tick once at RATE, then crash.
    let mut first = open(&dir);
    subscribe_workload(&mut first);
    let cold = first.tick(RATE).expect("cold tick");
    assert!(cold.stats.iterations > 0);
    drop(first);

    // Warm restart: recovery re-admits each object at its achieved
    // accuracy, so the repeat tick skips every already-converged object.
    let mut recovered = open(&dir);
    let warm = recovered.tick(RATE).expect("warm tick");
    assert!(
        warm.stats.iterations < cold.stats.iterations,
        "warm restart must do strictly fewer iterations: warm {} vs cold {}",
        warm.stats.iterations,
        cold.stats.iterations
    );
    assert!(warm.stats.total_work() < cold.stats.total_work());

    // A cold restart (fresh dir, no prior state) pays the full price again.
    let cold_dir = scratch_dir("cold");
    let mut cold_restart = open(&cold_dir);
    subscribe_workload(&mut cold_restart);
    let recomputed = cold_restart.tick(RATE).expect("cold restart tick");
    assert_eq!(
        recomputed.stats.iterations, cold.stats.iterations,
        "a cold restart recomputes everything"
    );

    // Warm answers are ε-equivalent to cold ones, not bit-identical: a warm
    // tick refines onward from the achieved bounds, a cold tick from
    // scratch, and both stop anywhere inside the precision constraint.
    // (Bit-identity is claimed golden-vs-recovered only — see the golden
    // test above.) Here: both converge, and their intervals intersect, so
    // they bracket the same true answer.
    for ((wid, wa), (cid, ca)) in warm.answers.iter().zip(&recomputed.answers) {
        assert_eq!(wid, cid);
        let (w, c) = (
            wa.final_output().expect("warm final"),
            ca.final_output().expect("cold final"),
        );
        if let (QueryOutput::Aggregate { bounds: wb }, QueryOutput::Aggregate { bounds: cb }) =
            (w, c)
        {
            assert!(
                wb.lo() <= cb.hi() && cb.lo() <= wb.hi(),
                "session {wid}: warm {wb} and cold {cb} must bracket the same sum"
            );
        } else {
            assert_eq!(w, c, "non-aggregate answers are exact and must agree");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cold_dir).ok();
}

/// `--data-dir` on a fresh dir changes where state lives, never what is
/// computed: the first tick reproduces the in-memory scheduler's golden
/// numbers from `parallel_determinism.rs` exactly (same 8-query workload,
/// 48 bonds, seed 1994).
#[test]
fn fresh_durable_server_reproduces_the_in_memory_golden_numbers() {
    let dir = scratch_dir("fresh-golden");
    let mut srv = Server::open_durable(
        BondPricer::default(),
        relation(48),
        ServerConfig::default(),
        &dir,
    )
    .expect("open durable server");
    let n = 48;
    let k = 5;
    let queries = vec![
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
    ];
    for q in queries {
        srv.subscribe(q, 1).expect("subscribe");
    }
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

    std::fs::remove_dir_all(&dir).ok();
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

#[test]
fn session_ids_are_never_reissued_across_a_crash() {
    let dir = scratch_dir("ids");
    let mut srv = open(&dir);
    let a = srv.subscribe(Query::Max { epsilon: 0.5 }, 1).expect("a");
    let b = srv.subscribe(Query::Min { epsilon: 0.5 }, 1).expect("b");
    assert_eq!((a, b), (SessionId(1), SessionId(2)));
    // The session dies *before* the crash — its id must stay burned anyway.
    srv.unsubscribe_in(DEFAULT_RELATION, b)
        .expect("unsubscribe");
    drop(srv); // crash: no shutdown, no snapshot

    let mut recovered = open(&dir);
    assert_eq!(
        default_tenant(&recovered).sessions().len(),
        1,
        "only session 1 survives"
    );
    let c = recovered
        .subscribe(Query::Max { epsilon: 1.0 }, 1)
        .expect("c");
    assert_eq!(
        c,
        SessionId(3),
        "id 2 was issued before the crash and is never reused"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_final_journal_record_is_truncated_and_reported() {
    use std::io::Write;

    let dir = scratch_dir("torn");
    let mut srv = open(&dir);
    subscribe_workload(&mut srv);
    srv.tick(RATE).expect("tick");
    drop(srv); // crash

    // Simulate the torn write: a half-flushed record with no newline,
    // appended to the active (highest-numbered) journal segment.
    let journal = dir.join("journal-1.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    f.write_all(br#"{"type":"Tick","tick":99,"ra"#)
        .expect("tear");
    drop(f);

    let mut recovered = open(&dir);
    let rec = recovered.last_recovery().expect("recovery record");
    assert!(
        rec.truncated_bytes > 0,
        "the torn tail must be reported, not silently dropped"
    );
    assert!(rec.replayed_events > 0, "intact records still replay");

    // The journal is whole again: the server keeps accepting state changes
    // and a second recovery sees nothing torn.
    recovered.tick(0.0601).expect("tick after truncation");
    recovered.shutdown().expect("clean shutdown");
    drop(recovered);
    let reopened = open(&dir);
    let rec2 = reopened.last_recovery().expect("recovery record");
    assert_eq!(rec2.truncated_bytes, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn clean_shutdown_recovers_with_zero_journal_replay() {
    let dir = scratch_dir("clean");
    let mut srv = open(&dir);
    subscribe_workload(&mut srv);
    let live = srv.tick(RATE).expect("tick");
    srv.shutdown().expect("shutdown");
    drop(srv);

    let mut recovered = open(&dir);
    let rec = recovered.last_recovery().expect("recovery record");
    assert_eq!(
        rec.replayed_events, 0,
        "a clean shutdown leaves nothing to replay: the final snapshot \
         covers every journal event"
    );
    assert!(rec.snapshot_seq.is_some(), "recovered from a snapshot");
    assert_eq!(rec.truncated_bytes, 0);

    // The snapshot alone carries the whole state: repeat the tick and it is
    // warm, and the last answers survived byte-for-byte.
    for ((lid, la), (sid, sa)) in default_tenant(&recovered)
        .last_answers()
        .iter()
        .zip(&live.answers)
    {
        assert_eq!(lid, sid);
        assert_eq!(la, sa);
    }
    let warm = recovered.tick(RATE).expect("warm tick");
    assert!(warm.stats.iterations < live.stats.iterations);

    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-relation catalog dirs are fully self-describing: after a crash,
/// every tenant — relation definitions, per-relation sessions, tick
/// counters, warm state — recovers from the journal alone (no
/// `--bonds`/`--seed` reconstruction), dropped relations stay dropped,
/// and every post-crash tick is bit-identical to an uninterrupted golden
/// run of the same interleaved workload.
#[test]
fn multi_relation_catalog_recovers_every_tenant_bit_identically() {
    use va_server::ServerError;

    let golden_dir = scratch_dir("cat-golden");
    let crash_dir = scratch_dir("cat-crash");

    let open_catalog = |dir: &std::path::Path| {
        Server::open_durable_catalog(BondPricer::default(), ServerConfig::default(), dir)
            .expect("open catalog server")
    };
    let populate = |srv: &mut Server| {
        srv.create_relation("alpha", relation(24), Some(SEED))
            .expect("create alpha");
        srv.create_relation(
            "beta",
            BondRelation::from_universe(&BondUniverse::generate(16, 7)),
            Some(7),
        )
        .expect("create beta");
        // A relation created and dropped before the crash: the journal
        // must keep it dead across recovery.
        srv.create_relation(
            "gamma",
            BondRelation::from_universe(&BondUniverse::generate(8, 11)),
            Some(11),
        )
        .expect("create gamma");
        srv.drop_relation("gamma").expect("drop gamma");
        for q in workload(24) {
            srv.subscribe_to("alpha", q, 1).expect("subscribe alpha");
        }
        srv.subscribe_to("beta", Query::Max { epsilon: 0.5 }, 2)
            .expect("subscribe beta");
        srv.subscribe_to("beta", Query::Min { epsilon: 0.5 }, 1)
            .expect("subscribe beta");
    };

    // Golden: one catalog server, never interrupted, ticks interleaved
    // across both tenants.
    let mut golden = open_catalog(&golden_dir);
    populate(&mut golden);
    let mut golden_keys = Vec::new();
    for &r in &RATES {
        golden_keys.push(tick_key(
            &golden.tick_relation("alpha", r).expect("golden alpha"),
        ));
        golden_keys.push(tick_key(
            &golden
                .tick_relation("beta", r + 0.001)
                .expect("golden beta"),
        ));
    }

    // Crash run: same interleaving, then the process "dies" mid-stream.
    let mut crashed = open_catalog(&crash_dir);
    populate(&mut crashed);
    for (i, &r) in RATES.iter().take(CRASH_AFTER).enumerate() {
        assert_eq!(
            tick_key(&crashed.tick_relation("alpha", r).expect("pre-crash")),
            golden_keys[2 * i]
        );
        assert_eq!(
            tick_key(&crashed.tick_relation("beta", r + 0.001).expect("pre-crash")),
            golden_keys[2 * i + 1]
        );
    }
    drop(crashed); // crash: no shutdown, no snapshot

    // Recovery reads *only* the dir: no relation definitions are supplied.
    let mut recovered = open_catalog(&crash_dir);
    let rec = recovered.last_recovery().expect("recovery record");
    assert!(rec.replayed_events > 0, "a crash leaves journal replay");
    assert_eq!(recovered.catalog().len(), 2, "alpha and beta recovered");
    assert!(
        matches!(
            recovered.tick_relation("gamma", RATE),
            Err(ServerError::UnknownRelation(_))
        ),
        "a relation dropped before the crash stays dropped"
    );
    for (i, &r) in RATES.iter().enumerate().skip(CRASH_AFTER) {
        assert_eq!(
            tick_key(&recovered.tick_relation("alpha", r).expect("post-crash")),
            golden_keys[2 * i],
            "alpha tick {i} must match the golden run bit-for-bit"
        );
        assert_eq!(
            tick_key(
                &recovered
                    .tick_relation("beta", r + 0.001)
                    .expect("post-crash")
            ),
            golden_keys[2 * i + 1],
            "beta tick {i} must match the golden run bit-for-bit"
        );
    }

    // Per-relation accounting survives: session-id spaces are namespaced
    // (both tenants issued ids from 1), and RESUME serves the same last
    // answer in each tenant that the golden server would.
    for name in ["alpha", "beta"] {
        let (gs, ga) = golden.resume_in(name, SessionId(1)).expect("golden resume");
        let (rs, ra) = recovered
            .resume_in(name, SessionId(1))
            .expect("recovered resume");
        assert_eq!(gs.finals, rs.finals, "{name} finals");
        assert_eq!(gs.partials, rs.partials, "{name} partials");
        assert_eq!(ga, ra, "{name} last answer");
    }

    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::remove_dir_all(&crash_dir).ok();
}

/// Group commit: a multi-relation tick is one journal write of one record
/// per relation. A crash can tear that write anywhere, so cut the journal
/// at every byte offset inside the last group and reopen: recovery must
/// replay exactly the whole records before the cut (the group's leading
/// relations advance, a torn one does not), report the torn bytes, and
/// answer the next multi-relation tick.
#[test]
fn a_torn_tick_multi_group_recovers_its_whole_records() {
    let dir = scratch_dir("group");
    let open_catalog = |dir: &std::path::Path| {
        Server::open_durable_catalog(BondPricer::default(), ServerConfig::default(), dir)
            .expect("open catalog server")
    };
    let mut srv = open_catalog(&dir);
    for (name, bonds, seed) in [("alpha", 3, SEED), ("beta", 2, 7)] {
        srv.create_relation(
            name,
            BondRelation::from_universe(&BondUniverse::generate(bonds, seed)),
            Some(seed),
        )
        .expect("create");
        srv.subscribe_to(name, Query::Max { epsilon: 0.5 }, 1)
            .expect("subscribe");
    }
    srv.tick_multi(&[("alpha", RATE), ("beta", RATE)])
        .expect("first group");
    let journal = dir.join("journal-1.jsonl");
    let group_start = std::fs::metadata(&journal).expect("journal").len() as usize;
    srv.tick_multi(&[("alpha", 0.0601), ("beta", 0.0601)])
        .expect("last group");
    drop(srv); // crash: no shutdown, no snapshot
    assert!(
        !dir.join("journal-2.jsonl").exists(),
        "no snapshot rotated the journal"
    );

    let bytes = std::fs::read(&journal).expect("read journal");
    let group = &bytes[group_start..];
    assert_eq!(
        group.iter().filter(|&&b| b == b'\n').count(),
        2,
        "one record per relation"
    );
    let first_end = group_start + group.iter().position(|&b| b == b'\n').unwrap() + 1;
    let meta = std::fs::read(dir.join("meta.json")).expect("read meta");
    for cut in group_start..bytes.len() {
        let torn = scratch_dir("group-cut");
        std::fs::create_dir_all(&torn).expect("mkdir");
        std::fs::write(torn.join("meta.json"), &meta).expect("copy meta");
        std::fs::write(torn.join("journal-1.jsonl"), &bytes[..cut]).expect("cut journal");

        let mut recovered = open_catalog(&torn);
        let rec = recovered.last_recovery().expect("recovery record");
        let whole = bytes[..cut].iter().filter(|&&b| b == b'\n').count() as u64;
        assert_eq!(rec.replayed_events, whole, "cut at byte {cut}");
        let last_end = bytes[..cut]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        assert_eq!(
            rec.truncated_bytes,
            (cut - last_end) as u64,
            "cut at byte {cut}"
        );
        let ticks = |name: &str| recovered.catalog().by_name(name).expect(name).ticks();
        let alpha_ticks = if cut >= first_end { 2 } else { 1 };
        assert_eq!(ticks("alpha"), alpha_ticks, "cut at byte {cut}");
        assert_eq!(ticks("beta"), 1, "cut at byte {cut}");

        let next = recovered
            .tick_multi(&[("alpha", RATE), ("beta", RATE)])
            .expect("the next group after recovery");
        assert_eq!(next[0].tick, alpha_ticks + 1);
        assert_eq!(next[1].tick, 2);
        drop(recovered);
        std::fs::remove_dir_all(&torn).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}
