//! Per-layer replays: captured inputs of a workload fed straight into one
//! layer's public functions, timed as floors over repeats.
//!
//! Each number answers "what does this layer cost on this workload's
//! inputs"; none is gated. A layer that is not on a workload's path
//! (journal for an in-memory workload, sockets for an in-process one)
//! reports 0 for its metrics.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use bondlab::BondPricer;
use va_numerics::pde::step_batch;
use va_persist::record::{JournalEvent, SnapshotRecord};
use va_persist::Store;
use va_server::demand::{self, Demand, SketchState};
use va_server::proto::{self, Request};
use va_server::{arbitrate_budget, Server, SharedPool, TickResult};
use va_sketch::IntervalQuantileSketch;
use va_stream::{BondRelation, ContinuousQueryEngine, ExecutionMode, Query};
use vao::adapters::WarmStart;
use vao::batch::BatchLane;
use vao::cost::WorkMeter;
use vao::interface::ResultObject;
use vao::ops::percentile::{SKETCH_ALPHA, SKETCH_BUDGET};
use vao::strategy::{Candidate, ChoicePolicy};

use crate::check::relation_of;
use crate::drive::copy_dir;
use crate::report::Metrics;
use crate::spans::{SpanObserver, Trace};
use crate::spec::Spec;
use crate::wire::wire_query;

/// Floor repeats and time per measurement: repeat until `budget` is
/// spent and `min_repeats` are in — but a measurement whose single call is
/// slow stops at `HARD_CAP` budgets (never below three repeats).
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    pub min_repeats: usize,
    pub budget: Duration,
}

const HARD_CAP: u32 = 6;

impl Effort {
    fn wants_more(&self, repeats: usize, elapsed: Duration) -> bool {
        repeats < 3.min(self.min_repeats)
            || (repeats < self.min_repeats && elapsed < self.budget * HARD_CAP)
            || (elapsed < self.budget && repeats < 10_000)
    }
}

/// Minimum of the seconds `f` reports over at least `min_repeats` calls
/// (`f` times its own measured part, so its set-up stays off the clock).
fn floor_of(effort: Effort, mut f: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut repeats = 0;
    while effort.wants_more(repeats, started.elapsed()) {
        best = best.min(f());
        repeats += 1;
    }
    best
}

/// Minimum seconds of one whole call to `f`.
fn floor_s(effort: Effort, mut f: impl FnMut()) -> f64 {
    floor_of(effort, || {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    })
}

/// Like [`floor_s`] for calls too short to time singly: `inner` calls per
/// sample, result per call.
fn floor_each_s(effort: Effort, inner: usize, mut f: impl FnMut()) -> f64 {
    floor_s(effort, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

/// What one observed tick of tenant 0 leaves behind for the replays.
struct Capture {
    relation: BondRelation,
    queries: Vec<Query>,
    rate: f64,
    result: TickResult,
    /// Iterated objects in execution order.
    sequence: Vec<usize>,
}

fn capture(spec: &Spec, rate: f64) -> Capture {
    let tenant = &spec.tenants[0];
    let relation = relation_of(tenant);
    let mut config = spec.config;
    config.budget = config.budget.map(|b| b / spec.tenants.len() as u64);
    let mut server = Server::new(BondPricer::default(), relation.clone(), config);
    for (query, priority) in &tenant.sessions {
        server
            .subscribe(query.clone(), *priority)
            .expect("capture subscribe");
    }
    let mut trace = Trace::new();
    let mut obs = SpanObserver::new(&mut trace, false, None, 0);
    let result = server
        .tick_with_observer(rate, &mut obs)
        .expect("capture tick");
    Capture {
        relation,
        queries: tenant.sessions.iter().map(|(q, _)| q.clone()).collect(),
        rate,
        result,
        sequence: obs.finish().sequence,
    }
}

/// The pool as it stood after the first `share` of the tick's iterations.
fn pool_at(c: &Capture, share: f64) -> SharedPool {
    let mut meter = WorkMeter::new();
    let mut pool = SharedPool::invoke(&BondPricer::default(), &c.relation, c.rate, &mut meter);
    let upto = (c.sequence.len() as f64 * share).round() as usize;
    for &object in &c.sequence[..upto.min(c.sequence.len())] {
        pool.iterate(object, &mut meter);
    }
    pool
}

/// Refinement rounds of the numerics replay: every live object steps once
/// per round, so early rounds are coarse grids and late ones fine.
const NUMERICS_ROUNDS: usize = 9;
const NUMERICS_BONDS: usize = 32;

fn numerics(c: &Capture, effort: Effort, m: &mut Metrics) {
    let pricer = BondPricer::default();
    let bonds: Vec<_> = c
        .relation
        .bonds()
        .iter()
        .take(NUMERICS_BONDS)
        .copied()
        .collect();
    let fresh = || {
        let mut meter = WorkMeter::new();
        bonds
            .iter()
            .map(|&b| pricer.price(b, c.rate, &mut meter))
            .collect::<Vec<_>>()
    };

    let fresh_s = floor_s(effort, || {
        black_box(fresh());
    });

    let mut scalar_work = 0;
    let scalar_s = floor_of(effort, || {
        let mut objects = fresh();
        let mut meter = WorkMeter::new();
        let t = Instant::now();
        for _ in 0..NUMERICS_ROUNDS {
            for o in objects.iter_mut().filter(|o| !o.converged()) {
                o.iterate(&mut meter);
            }
        }
        scalar_work = meter.total();
        t.elapsed().as_secs_f64()
    });

    let mut batch_work = 0;
    let batch_s = floor_of(effort, || {
        let mut objects = fresh();
        let mut total = WorkMeter::new();
        let t = Instant::now();
        for _ in 0..NUMERICS_ROUNDS {
            // Group live lanes by the shape of their next solve, exactly
            // as the scheduler's batched round does.
            let mut groups: Vec<(vao::batch::GridShape, Vec<&mut dyn BatchLane>)> = Vec::new();
            for o in objects.iter_mut() {
                match o.lane_shape() {
                    Some(shape) => match groups.iter_mut().find(|(s, _)| *s == shape) {
                        Some((_, lanes)) => lanes.push(o),
                        None => groups.push((shape, vec![o as &mut dyn BatchLane])),
                    },
                    None if !o.converged() => {
                        o.iterate(&mut total);
                    }
                    None => {}
                }
            }
            for (shape, mut lanes) in groups {
                let mut meters = vec![WorkMeter::new(); lanes.len()];
                step_batch(shape, &mut lanes, &mut meters);
                for lane_meter in &meters {
                    total.absorb(lane_meter);
                }
            }
        }
        batch_work = total.total();
        t.elapsed().as_secs_f64()
    });

    let scalar_ns = scalar_s * 1e9 / scalar_work.max(1) as f64;
    let batch_ns = batch_s * 1e9 / batch_work.max(1) as f64;
    m.put("numerics.scalar_ns_per_wu", scalar_ns, "ns");
    m.put("numerics.batch_ns_per_wu", batch_ns, "ns");
    m.put(
        "numerics.batch_speedup",
        if batch_ns > 0.0 {
            scalar_ns / batch_ns
        } else {
            0.0
        },
        "ratio",
    );
    let n = bonds.len() as f64;
    m.put("bondlab.price_us_per_bond", fresh_s * 1e6 / n, "us");
}

fn pool_layer(c: &Capture, effort: Effort, m: &mut Metrics) {
    let pricer = BondPricer::default();
    let n = c.relation.len() as f64;
    let invoke_s = floor_s(effort, || {
        let mut meter = WorkMeter::new();
        black_box(SharedPool::invoke(&pricer, &c.relation, c.rate, &mut meter));
    });
    let done = pool_at(c, 1.0);
    let seeds: Vec<WarmStart> = (0..done.len())
        .map(|i| WarmStart {
            bounds: done.bounds(i),
            converged: done.converged(i),
            prior_cost: done.cumulative_cost(i),
        })
        .collect();
    let warm_s = floor_s(effort, || {
        let mut meter = WorkMeter::new();
        black_box(SharedPool::invoke_warm(
            &pricer,
            &c.relation,
            c.rate,
            &seeds,
            &mut meter,
        ));
    });
    m.put("pool.invoke_us_per_bond", invoke_s * 1e6 / n, "us");
    m.put("pool.invoke_warm_us_per_bond", warm_s * 1e6 / n, "us");
}

fn demand_layer(c: &Capture, effort: Effort, m: &mut Metrics) {
    let pools = [pool_at(c, 0.0), pool_at(c, 0.5), pool_at(c, 1.0)];
    let mut states: Vec<SketchState> = c.queries.iter().map(|_| SketchState::default()).collect();
    let mut out: Vec<Demand> = Vec::new();
    let mut round_s = 0.0;
    for pool in &pools {
        round_s += floor_s(effort, || {
            for (query, state) in c.queries.iter().zip(&mut states) {
                demand::demands_stateful(query, pool, state, &mut out);
                black_box(out.len());
            }
        });
    }
    let round_s = round_s / pools.len() as f64;
    let sessions = c.queries.len() as f64;
    m.put("demand.recompute_us_per_round", round_s * 1e6, "us");
    m.put(
        "demand.ns_per_session_bond",
        round_s * 1e9 / (sessions * c.relation.len() as f64),
        "ns",
    );

    let (half, full) = (&pools[1], &pools[2]);
    let done: Vec<bool> = c
        .queries
        .iter()
        .map(|q| {
            demand::demands(q, full, &mut out);
            out.is_empty()
        })
        .collect();
    let answer_s = floor_s(effort, || {
        for (query, &done) in c.queries.iter().zip(&done) {
            black_box(demand::answer(query, full, &c.relation, done).is_ok());
        }
    });
    let partial_s = floor_s(effort, || {
        for query in &c.queries {
            black_box(demand::partial_bounds(query, half).is_ok());
        }
    });
    m.put(
        "demand.answer_us_per_session",
        answer_s * 1e6 / sessions,
        "us",
    );
    m.put(
        "demand.partial_bounds_us_per_session",
        partial_s * 1e6 / sessions,
        "us",
    );

    // The per-round sketch rebuild a PERCENTILE session pays, and the
    // top-B choice over every object as a candidate.
    let mut sketch = IntervalQuantileSketch::new(SKETCH_ALPHA, SKETCH_BUDGET);
    let k = (half.len() as u64).div_ceil(2);
    let sketch_s = floor_s(effort, || {
        sketch.clear();
        for i in 0..half.len() {
            let b = half.bounds(i);
            sketch.insert(b.lo(), b.hi());
        }
        black_box(sketch.rank_band_from_top(k));
    });
    m.put("sketch.rebuild_us", sketch_s * 1e6, "us");

    let candidates: Vec<Candidate> = (0..half.len())
        .map(|i| Candidate {
            index: i,
            benefit: half.bounds(i).width(),
            est_cpu: half.est_cpu(i),
            width: half.bounds(i).width(),
        })
        .collect();
    let mut policy = ChoicePolicy::greedy();
    let top_k_s = floor_s(effort, || {
        black_box(policy.top_k(&candidates, 16));
    });
    m.put("core.top_k_us", top_k_s * 1e6, "us");
}

fn proto_layer(c: &Capture, effort: Effort, m: &mut Metrics) {
    let tick = proto::render_request(&Request::Tick {
        relation: None,
        rate: c.rate,
    });
    let subscribe = proto::render_request(&Request::Subscribe {
        relation: None,
        query: wire_query(&c.queries[0]),
        priority: 1,
    });
    let parse_tick = floor_each_s(effort, 64, || {
        black_box(proto::parse_request(black_box(&tick)).is_ok());
    });
    let parse_subscribe = floor_each_s(effort, 64, || {
        black_box(proto::parse_request(black_box(&subscribe)).is_ok());
    });
    let name = va_server::DEFAULT_RELATION;
    let mut bytes = 0;
    let payload_s = floor_s(effort, || {
        bytes = 0;
        for (_, answer) in &c.result.answers {
            bytes += proto::result_payload(name, c.result.tick, c.rate, answer).len();
        }
        black_box(bytes);
    });
    let done = floor_each_s(effort, 64, || {
        black_box(proto::tick_done(name, &c.result, 0));
    });
    m.put("proto.parse_tick_ns", parse_tick * 1e9, "ns");
    m.put("proto.parse_subscribe_ns", parse_subscribe * 1e9, "ns");
    m.put(
        "proto.result_payload_ns_per_kb",
        payload_s * 1e9 / (bytes as f64 / 1024.0),
        "ns",
    );
    m.put("proto.tick_done_ns", done * 1e9, "ns");
}

fn sharing(spec: &Spec, c: &Capture, effort: Effort, m: &mut Metrics) {
    let weights: Vec<u64> = spec
        .tenants
        .iter()
        .map(|t| t.sessions.iter().map(|(_, p)| u64::from(*p)).sum())
        .collect();
    let budget = spec.config.budget.or(Some(1_000_000));
    let arbitrate = floor_each_s(effort, 64, || {
        black_box(arbitrate_budget(black_box(budget), &weights));
    });
    m.put("server.arbitrate_us", arbitrate * 1e6, "us");

    // The single-engine baseline: every query priced on its own engine.
    let independent: u64 = c
        .queries
        .iter()
        .map(|q| {
            ContinuousQueryEngine::new(
                BondPricer::default(),
                c.relation.clone(),
                q.clone(),
                ExecutionMode::Vao,
            )
            .process_rate(c.rate)
            .map_or(0, |(_, stats)| stats.total_work())
        })
        .sum();
    m.put(
        "stream.independent_work_ratio",
        independent as f64 / c.result.stats.total_work().max(1) as f64,
        "ratio",
    );
}

/// Replays that need only the spec and one scripted rate.
pub fn compute_layers(spec: &Spec, rate: f64, effort: Effort, m: &mut Metrics) {
    let c = capture(spec, rate);
    numerics(&c, effort, m);
    pool_layer(&c, effort, m);
    demand_layer(&c, effort, m);
    proto_layer(&c, effort, m);
    sharing(spec, &c, effort, m);
}

const PERSIST_METRICS: [(&str, &str); 11] = [
    ("journal.encode_us_per_event", "us"),
    ("journal.parse_us_per_event", "us"),
    ("journal.append_us_per_event", "us"),
    ("journal.sync_us_per_event", "us"),
    ("journal.bytes_per_tick", "bytes"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.parse_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("recovery.store_open_ms", "ms"),
    ("recovery.fold_ms", "ms"),
];

/// A workload that never journals: the persistence layer costs it nothing.
pub fn persist_layers_absent(m: &mut Metrics) {
    for (name, unit) in PERSIST_METRICS {
        m.put(name, 0.0, unit);
    }
}

fn segment_lines(dir: &Path) -> Vec<String> {
    let mut segments: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".jsonl"))
        })
        .collect();
    segments.sort();
    segments
        .iter()
        .filter_map(|p| std::fs::read_to_string(p).ok())
        .flat_map(|text| text.lines().map(str::to_string).collect::<Vec<_>>())
        .collect()
}

fn newest_snapshot(dir: &Path) -> Option<String> {
    let mut best: Option<(u64, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let seq = name
            .to_str()
            .and_then(|n| n.strip_prefix("snapshot-"))
            .and_then(|n| n.strip_suffix(".json"))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(seq) = seq {
            if best.as_ref().is_none_or(|(b, _)| seq > *b) {
                best = Some((seq, entry.path()));
            }
        }
    }
    std::fs::read_to_string(best?.1).ok()
}

/// Journal, snapshot and recovery-open replays over the data dir one lap
/// left behind when it "crashed". `scratch` is wiped on the way out.
pub fn persist_layers(
    spec: &Spec,
    crashed: &Path,
    scratch: &Path,
    effort: Effort,
    m: &mut Metrics,
) {
    let lines = segment_lines(crashed);
    let events: Vec<JournalEvent> = lines
        .iter()
        .filter_map(|l| JournalEvent::parse(l).ok())
        .collect();
    assert!(!events.is_empty(), "crashed dir holds no journal records");
    let n = events.len() as f64;

    let parse_s = floor_s(effort, || {
        for line in &lines {
            black_box(JournalEvent::parse(line).is_ok());
        }
    });
    let encode_s = floor_s(effort, || {
        for event in &events {
            black_box(event.to_line());
        }
    });
    // Real records re-appended through the store: encode + write + fsync.
    let append_dir = scratch.join("append");
    let append_s = floor_of(effort, || {
        let _ = std::fs::remove_dir_all(&append_dir);
        let (mut store, _, _) = Store::open(&append_dir).expect("open scratch store");
        let t = Instant::now();
        for event in &events {
            store.append(event).expect("append");
        }
        t.elapsed().as_secs_f64()
    });
    m.put("journal.encode_us_per_event", encode_s * 1e6 / n, "us");
    m.put("journal.parse_us_per_event", parse_s * 1e6 / n, "us");
    m.put("journal.append_us_per_event", append_s * 1e6 / n, "us");
    m.put(
        "journal.sync_us_per_event",
        (append_s - encode_s).max(0.0) * 1e6 / n,
        "us",
    );
    let tick_bytes: Vec<usize> = lines
        .iter()
        .zip(&events)
        .filter(|(_, e)| matches!(e, JournalEvent::Tick(_)))
        .map(|(l, _)| l.len() + 1)
        .collect();
    m.put(
        "journal.bytes_per_tick",
        tick_bytes.iter().sum::<usize>() as f64 / tick_bytes.len().max(1) as f64
            * spec.tenants.len() as f64,
        "bytes",
    );

    match newest_snapshot(crashed).and_then(|text| {
        SnapshotRecord::parse(text.trim_end())
            .ok()
            .map(|s| (text, s))
    }) {
        Some((text, snapshot)) => {
            let parse = floor_s(effort, || {
                black_box(SnapshotRecord::parse(text.trim_end()).is_ok());
            });
            let encode = floor_s(effort, || {
                black_box(snapshot.to_json());
            });
            let write_dir = scratch.join("snapshot");
            std::fs::create_dir_all(&write_dir).expect("snapshot scratch dir");
            let write = floor_s(effort, || {
                black_box(va_persist::snapshot::write(&write_dir, &snapshot).is_ok());
            });
            m.put("snapshot.encode_ms", encode * 1e3, "ms");
            m.put("snapshot.parse_ms", parse * 1e3, "ms");
            m.put("snapshot.write_ms", write * 1e3, "ms");
            m.put("snapshot.bytes", text.len() as f64, "bytes");
        }
        None => {
            for name in [
                "snapshot.encode_ms",
                "snapshot.parse_ms",
                "snapshot.write_ms",
            ] {
                m.put(name, 0.0, "ms");
            }
            m.put("snapshot.bytes", 0.0, "bytes");
        }
    }

    // Recovery open, split at the persist/server boundary. Opening may
    // repair the dir, so every repeat works on a fresh copy.
    let copy = scratch.join("reopen");
    let mut store_open = f64::INFINITY;
    let mut catalog_open = f64::INFINITY;
    let started = Instant::now();
    let mut repeats = 0;
    while effort.wants_more(repeats, started.elapsed() / 2) {
        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(crashed, &copy).expect("copy crashed dir");
        let t = Instant::now();
        black_box(Store::open(&copy).is_ok());
        store_open = store_open.min(t.elapsed().as_secs_f64());

        let _ = std::fs::remove_dir_all(&copy);
        copy_dir(crashed, &copy).expect("copy crashed dir");
        let t = Instant::now();
        black_box(Server::open_durable_catalog(BondPricer::default(), spec.config, &copy).is_ok());
        catalog_open = catalog_open.min(t.elapsed().as_secs_f64());
        repeats += 1;
    }
    m.put("recovery.store_open_ms", store_open * 1e3, "ms");
    m.put(
        "recovery.fold_ms",
        (catalog_open - store_open).max(0.0) * 1e3,
        "ms",
    );
    let _ = std::fs::remove_dir_all(scratch);
}
