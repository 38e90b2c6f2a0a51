//! One workload, start to finish: script from the seed, laps, the check,
//! and either the end-to-end metrics (untraced) or the per-layer metrics
//! (a separate traced run).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::calibrate::position_factor;
use crate::check::{compatible, Reference};
use crate::drive::{self, Lap, LapCtx, Probe, TickSample};
use crate::estimator::{mean, minimum, percentile, Laps};
use crate::layers::{self, Effort};
use crate::report::{Metrics, Outcome};
use crate::spans::{TickBreakdown, Trace};
use crate::spec::{Spec, Transport};
use crate::wire;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub trace: bool,
    /// 2 laps, 4 positions: a smoke run, not a measurement.
    pub quick: bool,
    pub check: bool,
    /// `benchmark/out` under the current directory.
    pub out_dir: PathBuf,
}

/// Fewest laps a floor is taken over, whatever `--seconds` says.
const MIN_LAPS: usize = 16;
const MAX_LAPS: usize = 200;

fn one_lap(spec: &Spec, rates: &[f64], ctx: LapCtx<'_>) -> Lap {
    match spec.transport {
        Transport::Wire => wire::lap(spec, rates, ctx),
        Transport::InProcess | Transport::Durable => drive::lap(spec, rates, ctx),
    }
}

/// Repeats laps and holds every lap to lap 0: same work units, same
/// answer digests, position by position.
struct Phase {
    laps: Laps,
    setup: Vec<f64>,
    recovery: Vec<f64>,
    first: Vec<TickSample>,
    first_recovery: Option<TickSample>,
    attempted: u64,
    failed: u64,
    /// Per lap and position: the speed factor its time was divided by.
    speed: Vec<Vec<f64>>,
    all: Vec<Lap>,
}

impl Phase {
    fn new() -> Self {
        Self {
            laps: Laps::default(),
            setup: Vec::new(),
            recovery: Vec::new(),
            first: Vec::new(),
            first_recovery: None,
            attempted: 0,
            failed: 0,
            speed: Vec::new(),
            all: Vec::new(),
        }
    }

    fn same(a: &TickSample, b: &TickSample) -> bool {
        a.work == b.work && a.digest == b.digest && a.answers == b.answers
    }

    /// Counts a lap's requests and holds each position to lap 0.
    fn verify(&mut self, lap: &Lap) {
        if self.first.is_empty() {
            self.first = lap.ticks.clone();
            self.first_recovery = lap.recovery_tick.clone();
        }
        for (tick, first) in lap
            .ticks
            .iter()
            .zip(&self.first)
            .chain(lap.recovery_tick.iter().zip(&self.first_recovery))
        {
            self.attempted += u64::from(tick.attempted);
            self.failed += if tick.failed > 0 {
                u64::from(tick.failed)
            } else {
                u64::from(!Self::same(tick, first))
            };
        }
    }

    /// Files a lap's times, each divided by the lap's speed factor.
    fn absorb(&mut self, lap: Lap) {
        self.verify(&lap);
        let speed: Vec<f64> = (0..lap.ticks.len())
            .map(|k| position_factor(&lap.cal, k))
            .collect();
        self.laps.push(
            lap.ticks
                .iter()
                .zip(&speed)
                .map(|(t, f)| t.secs / f)
                .collect(),
        );
        self.setup.push(lap.setup_s / lap.setup_speed);
        self.recovery
            .extend(lap.recovery_s.map(|s| s / lap.recovery_speed));
        self.speed.push(speed);
        self.all.push(lap);
    }

    /// `--check`: one more, un-timed lap whose answers are kept, held to
    /// lap 0 like any other and then compared with the reference pass. It
    /// runs after the metrics are taken, so neither the kept answers nor
    /// the reference servers count towards the workload's peak RSS.
    fn check(&mut self, plan: &Plan<'_>) {
        let ctx = LapCtx {
            collect: true,
            probe: None,
            scratch: plan.scratch.join("lap-check"),
            keep_crashed: None,
        };
        let lap = one_lap(plan.spec, plan.rates, ctx);
        self.verify(&lap);
        let mut reference = Reference::new(plan.spec);
        for (k, seen) in lap.seen.iter().enumerate() {
            // The recovery tick (last entry on durable laps) re-ticks rates[0].
            let rate = plan.rates.get(k).copied().unwrap_or(plan.rates[0]);
            let mut bad = seen.is_empty();
            for s in seen {
                let query = &plan.spec.tenants[s.tenant].sessions[s.query].0;
                let want = &reference.answers(s.tenant, rate)[s.query];
                if let Err(why) = compatible(query, &s.answer, want) {
                    eprintln!("benchmark: check failed at position {k} (rate {rate}): {why}");
                    bad = true;
                }
            }
            self.failed += u64::from(bad);
        }
    }
}

struct Plan<'a> {
    spec: &'a Spec,
    rates: &'a [f64],
    scratch: PathBuf,
    quick: bool,
}

impl Plan<'_> {
    /// Laps until `seconds` are spent, at least `min_laps` of them. With
    /// `probing`, every lap records into the given trace.
    fn phase(
        &self,
        seconds: f64,
        min_laps: usize,
        mut probing: Option<(&mut Trace, Probing)>,
    ) -> Phase {
        let mut phase = Phase::new();
        let started = Instant::now();
        let (min_laps, max_laps) = if self.quick {
            (2, 2)
        } else {
            (min_laps, MAX_LAPS)
        };
        while phase.laps.laps() < min_laps
            || (started.elapsed().as_secs_f64() < seconds && phase.laps.laps() < max_laps)
        {
            let n = phase.laps.laps();
            let first = n == 0;
            let keep_crashed = probing
                .as_ref()
                .and_then(|(_, p)| p.keep_crashed.clone().filter(|_| first));
            let ctx = LapCtx {
                collect: false,
                probe: probing.as_mut().map(|(trace, p)| Probe {
                    trace,
                    keep_spans: p.keep_first_spans && first,
                    observe: p.observe,
                }),
                scratch: self.scratch.join(format!("lap-{n}")),
                keep_crashed,
            };
            phase.absorb(one_lap(self.spec, self.rates, ctx));
        }
        phase
    }
}

/// How a probed phase instruments its laps.
struct Probing {
    /// Lap 0's spans are stored (they become the trace file).
    keep_first_spans: bool,
    observe: bool,
    /// Where lap 0 leaves a copy of its crashed data dir.
    keep_crashed: Option<PathBuf>,
}

/// A position whose floor is beyond this many median floors is a stall
/// (on the wire: a 40 ms delayed-ACK timer), not work.
const STALL_FACTOR: f64 = 5.0;

/// The floors `ticks_per_s` is taken over: stalled positions excluded.
/// Which few positions of a wire script park behind the kernel's
/// delayed-ACK timer changes with the seed, the timer does not scale with
/// the machine's speed, and each one outweighs twenty ticks of work — so
/// they are counted (`net.stalled_positions`) instead of summed.
fn unstalled(floors: &[f64]) -> Vec<f64> {
    let limit = STALL_FACTOR * percentile(floors, 0.5);
    floors.iter().copied().filter(|&f| f <= limit).collect()
}

/// Median speed factor over every position of every lap.
fn median_speed(phase: &Phase) -> f64 {
    let all: Vec<f64> = phase.speed.iter().flatten().copied().collect();
    if all.is_empty() {
        1.0
    } else {
        percentile(&all, 0.5)
    }
}

fn end_to_end(spec: &Spec, phase: &Phase, m: &mut Metrics) {
    let floors = phase.laps.floors();
    let positions = floors.len() as f64;
    let setup = minimum(&phase.setup);
    let answers: u32 = phase.first.iter().map(|t| t.answers).sum();
    let finals: u32 = phase.first.iter().map(|t| t.finals).sum();
    m.put("tick_p50_ms", percentile(&floors, 0.5) * 1e3, "ms");
    m.put("tick_p90_ms", percentile(&floors, 0.9) * 1e3, "ms");
    let worked = unstalled(&floors);
    m.put(
        "ticks_per_s",
        (worked.len() * spec.tenants.len()) as f64 / worked.iter().sum::<f64>(),
        "1/s",
    );
    m.put("setup_s", setup, "s");
    // A workload without a data dir restarts cold: its recovery is its set-up.
    m.put(
        "recovery_s",
        if phase.recovery.is_empty() {
            setup
        } else {
            minimum(&phase.recovery)
        },
        "s",
    );
    m.put(
        "work_units_per_tick",
        phase.first.iter().map(|t| t.work as f64).sum::<f64>() / positions,
        "count",
    );
    m.put(
        "final_share",
        f64::from(finals) / f64::from(answers.max(1)),
        "share",
    );
    m.put("peak_rss_mb", crate::procfs::peak_rss_mb(), "MiB");
}

/// Per-position floors of the observed phases, over laps.
struct ObservedFloors {
    tick: Vec<f64>,
    operator: Vec<f64>,
    demand_choose: Vec<f64>,
    execute: Vec<f64>,
    finish: Vec<f64>,
}

/// Per-position floors over laps of a reading each lap took per
/// position (seconds), speed-normalised like the tick times.
fn floors_of(phase: &Phase, reading: impl Fn(&Lap) -> Vec<f64>) -> Vec<f64> {
    let mut laps = Laps::default();
    for (lap, speed) in phase.all.iter().zip(&phase.speed) {
        laps.push(reading(lap).iter().zip(speed).map(|(s, f)| s / f).collect());
    }
    laps.floors()
}

fn observed_floors(phase: &Phase) -> ObservedFloors {
    let per = |f: fn(&TickBreakdown) -> u64| {
        floors_of(phase, |lap| {
            lap.extras
                .breakdowns
                .iter()
                .map(|b| f(b) as f64 / 1e9)
                .collect()
        })
    };
    ObservedFloors {
        tick: phase.laps.floors(),
        operator: per(|b| b.operator_ns),
        demand_choose: per(|b| b.demand_choose_ns),
        execute: per(|b| b.execute_ns),
        finish: per(|b| b.finish_ns),
    }
}

fn sched_metrics(observed: &Phase, m: &mut Metrics) {
    let lap = &observed.all[0];
    let positions = lap.extras.breakdowns.len().max(1) as f64;
    let sum = |f: fn(&TickBreakdown) -> u64| -> f64 {
        lap.extras.breakdowns.iter().map(|b| f(b) as f64).sum()
    };
    let iterations = sum(|b| b.iterations);
    let mut work = vao::cost::WorkBreakdown::default();
    for split in &lap.extras.work_split {
        drive::add_work(&mut work, split);
    }
    let total = work.total().max(1) as f64;
    m.put(
        "sched.rounds_per_tick",
        sum(|b| b.rounds) / positions,
        "count",
    );
    m.put("sched.iterations_per_tick", iterations / positions, "count");
    m.put(
        "sched.work_per_iteration",
        if iterations > 0.0 {
            work.total() as f64 / iterations
        } else {
            0.0
        },
        "count",
    );
    m.put(
        "sched.exec_work_share",
        work.exec_iter as f64 / total,
        "share",
    );
    m.put(
        "sched.choose_work_share",
        work.choose_iter as f64 / total,
        "share",
    );
    m.put(
        "sched.state_work_share",
        (work.get_state + work.store_state) as f64 / total,
        "share",
    );
    m.put(
        "sched.admitted_per_selected",
        sum(|b| b.admitted) / sum(|b| b.selected).max(1.0),
        "ratio",
    );
    let ape: f64 = lap.extras.breakdowns.iter().map(|b| b.ape_sum).sum();
    m.put(
        "sched.est_cpu_mape",
        100.0 * ape / sum(|b| b.ape_count).max(1.0),
        "%",
    );

    let f = observed_floors(observed);
    let tick_total: f64 = f.tick.iter().sum();
    m.put(
        "sched.demand_choose_ms_per_tick",
        mean(&f.demand_choose) * 1e3,
        "ms",
    );
    m.put("sched.execute_ms_per_tick", mean(&f.execute) * 1e3, "ms");
    m.put("sched.finish_ms_per_tick", mean(&f.finish) * 1e3, "ms");
    m.put(
        "sched.demand_choose_share",
        f.demand_choose.iter().sum::<f64>() / tick_total,
        "share",
    );
    m.put(
        "sched.execute_share",
        f.execute.iter().sum::<f64>() / tick_total,
        "share",
    );
    m.put(
        "server.tick_overhead_ms",
        (mean(&f.tick) - mean(&f.operator)).max(0.0) * 1e3,
        "ms",
    );
}

fn net_metrics(
    spec: &Spec,
    native: &Phase,
    probed: &Phase,
    shadow: Option<&Phase>,
    m: &mut Metrics,
) {
    let (Transport::Wire, Some(shadow)) = (spec.transport, shadow) else {
        for (name, unit) in [
            ("net.self_ms_per_tick", "ms"),
            ("net.share", "share"),
            ("net.turns_per_tick", "count"),
            ("net.turn_ms", "ms"),
            ("net.payloads_per_tick", "count"),
            ("net.results_per_tick", "count"),
            ("net.bytes_out_per_tick", "bytes"),
            ("net.stalled_positions", "count"),
            ("net.stall_share", "share"),
        ] {
            m.put(name, 0.0, unit);
        }
        return;
    };
    let wire = native.laps.floors();
    let inproc = shadow.laps.floors();
    let own: Vec<f64> = wire
        .iter()
        .zip(&inproc)
        .map(|(w, i)| (w - i).max(0.0))
        .collect();
    m.put("net.self_ms_per_tick", mean(&own) * 1e3, "ms");
    m.put(
        "net.share",
        own.iter().sum::<f64>() / wire.iter().sum::<f64>(),
        "share",
    );

    let turn_floors = floors_of(probed, |lap| {
        lap.extras
            .turns
            .iter()
            .map(|&(_, ns)| ns as f64 / 1e9)
            .collect()
    });
    let turns: f64 = probed.all[0]
        .extras
        .turns
        .iter()
        .map(|&(n, _)| f64::from(n))
        .sum();
    let positions = wire.len() as f64;
    m.put("net.turns_per_tick", turns / positions, "count");
    m.put("net.turn_ms", mean(&turn_floors) * 1e3, "ms");
    // Counters cover the un-timed first tick too.
    let ticks = positions + 1.0;
    let lap = &native.all[0].extras;
    m.put(
        "net.payloads_per_tick",
        lap.payloads_serialized as f64 / ticks,
        "count",
    );
    m.put(
        "net.results_per_tick",
        lap.results_delivered as f64 / ticks,
        "count",
    );
    m.put(
        "net.bytes_out_per_tick",
        lap.bytes_in as f64 / ticks,
        "bytes",
    );
    m.put(
        "net.stalled_positions",
        (wire.len() - unstalled(&wire).len()) as f64,
        "count",
    );
    m.put(
        "net.stall_share",
        native.laps.stall_share(STALL_FACTOR),
        "share",
    );
}

/// Recovery readings of the laps and where a tick's time goes according
/// to the replays (run after them: it reads their metrics back).
fn path_metrics(spec: &Spec, native: &Phase, probed: &Phase, m: &mut Metrics) {
    let durable = spec.transport == Transport::Durable;
    let lap = &probed.all[0].extras;
    let first_tick: Vec<f64> = probed
        .all
        .iter()
        .chain(&native.all)
        .map(|l| l.extras.recovery_first_tick_s / l.recovery_speed)
        .collect();
    m.put(
        "recovery.first_tick_ms",
        if durable {
            minimum(&first_tick) * 1e3
        } else {
            0.0
        },
        "ms",
    );
    m.put(
        "recovery.replayed_events",
        lap.replayed_events as f64,
        "count",
    );
    m.put("recovery.dir_bytes", lap.dir_bytes as f64, "bytes");
    m.put("server.shard_skew", mean(&lap.shard_skew).max(1.0), "ratio");

    // Where the tick time of a durable workload goes, from the replays:
    // journal appends and amortised snapshot writes sit on the serial
    // commit path; pool invocation is spread over the shard workers.
    let tick_ms = mean(&native.laps.floors()) * 1e3;
    let tenants = spec.tenants.len() as f64;
    let get = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
    let journal_ms = get(m, "journal.append_us_per_event") * tenants / 1e3;
    let snapshot_ms =
        get(m, "snapshot.write_ms") * (tenants + 1.0) / spec.config.snapshot_every.max(1) as f64;
    let bonds: f64 = spec.tenants.iter().map(|t| t.bonds as f64).sum();
    let parallel = if spec.tenants.len() > 1 {
        tenants.min(spec.config.workers.max(1) as f64)
    } else {
        1.0
    };
    let invoke = if durable {
        get(m, "pool.invoke_warm_us_per_bond")
    } else {
        get(m, "pool.invoke_us_per_bond")
    };
    let invoke_ms = invoke * bonds / 1e3 / parallel;
    m.put(
        "persist.share",
        if durable {
            (journal_ms + snapshot_ms) / tick_ms
        } else {
            0.0
        },
        "share",
    );
    m.put("pool.invoke_share", invoke_ms / tick_ms, "share");
}

fn diagnostics(native: &Phase, probed: &Phase, m: &mut Metrics) {
    let ticks: f64 = native.all.iter().map(|l| l.ticks.len() as f64).sum();
    let wall: f64 = native.all.iter().map(|l| l.extras.script_wall_s).sum();
    m.put(
        "proc.cpu_ms_per_tick",
        native.all.iter().map(|l| l.extras.cpu_ms).sum::<f64>() / ticks,
        "ms",
    );
    m.put(
        "proc.runq_wait_share",
        native
            .all
            .iter()
            .map(|l| l.extras.runq_wait_ns as f64 / 1e9)
            .sum::<f64>()
            / wall,
        "share",
    );
    m.put(
        "noise.raw_over_floor",
        native.laps.raw_over_floor(),
        "ratio",
    );
    m.put(
        "trace.overhead_share",
        probed.laps.floors().iter().sum::<f64>() / native.laps.floors().iter().sum::<f64>() - 1.0,
        "share",
    );
    m.put("noise.speed_factor", median_speed(native), "ratio");
    m.put("estimator.laps", native.laps.laps() as f64, "count");
    m.put(
        "estimator.raw_samples",
        native.laps.raw_samples() as f64,
        "count",
    );
}

fn traced(plan: &Plan<'_>, opts: &Options, native: &Phase, m: &mut Metrics) -> (u64, u64) {
    let spec = plan.spec;
    let mut trace = Trace::new();
    let crashed = plan.scratch.join("crashed");
    let durable = spec.transport == Transport::Durable;

    // Native laps with bench-side spans (and the scheduler observer where
    // the native entry point takes one). Lap 0's spans are the trace file.
    let probed = plan.phase(
        opts.seconds * 0.25,
        4,
        Some((
            &mut trace,
            Probing {
                keep_first_spans: true,
                observe: spec.transport == Transport::InProcess,
                keep_crashed: durable.then(|| crashed.clone()),
            },
        )),
    );

    // Where the native entry point cannot take an observer, an in-process
    // shadow of the same sessions ticks tenant by tenant with one.
    let shadow_spec = match spec.transport {
        Transport::InProcess => None,
        Transport::Wire => Some(spec.wire_shadow()),
        Transport::Durable => Some(spec.clone()),
    };
    let shadow = shadow_spec.as_ref().map(|shadow_spec| {
        let shadow_plan = Plan {
            spec: shadow_spec,
            rates: plan.rates,
            scratch: plan.scratch.clone(),
            quick: plan.quick,
        };
        shadow_plan.phase(
            opts.seconds * 0.15,
            4,
            Some((
                &mut trace,
                Probing {
                    keep_first_spans: false,
                    observe: true,
                    keep_crashed: None,
                },
            )),
        )
    });

    sched_metrics(shadow.as_ref().unwrap_or(&probed), m);
    net_metrics(spec, native, &probed, shadow.as_ref(), m);

    let effort = if opts.quick {
        Effort {
            min_repeats: 2,
            budget: Duration::ZERO,
        }
    } else {
        Effort {
            min_repeats: 16,
            budget: Duration::from_secs_f64(opts.seconds * 0.012),
        }
    };
    let layer_spec = shadow_spec.as_ref().unwrap_or(spec);
    layers::compute_layers(layer_spec, plan.rates[0], effort, m);
    if durable {
        layers::persist_layers(spec, &crashed, &plan.scratch.join("replay"), effort, m);
    } else {
        layers::persist_layers_absent(m);
    }

    path_metrics(spec, native, &probed, m);
    diagnostics(native, &probed, m);

    std::fs::create_dir_all(&opts.out_dir).expect("create benchmark/out");
    let path = opts.out_dir.join(format!("trace-{}.jsonl", spec.name));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
    println!("trace: {} spans -> {}", trace.spans().len(), path.display());

    let extra_attempted = probed.attempted + shadow.as_ref().map_or(0, |s| s.attempted);
    let extra_failed = probed.failed + shadow.as_ref().map_or(0, |s| s.failed);
    (extra_attempted, extra_failed)
}

pub fn run_workload(opts: &Options) -> Result<Outcome, String> {
    let spec = crate::spec::workload(&opts.workload)
        .ok_or_else(|| format!("unknown workload \"{}\"", opts.workload))?;
    let spec = if opts.quick { spec.quick() } else { spec };
    let rates = spec.shape.rates(opts.seed);
    let scratch = opts
        .out_dir
        .join(format!("tmp-{}-{}", spec.name, std::process::id()));
    let plan = Plan {
        spec: &spec,
        rates: &rates,
        scratch: scratch.clone(),
        quick: opts.quick,
    };

    // Native, untraced laps: the only source of end-to-end numbers. A
    // traced run spends part of its time here too, as the baseline the
    // tracing overhead and the wire's own time are measured against.
    let (seconds, min_laps) = if opts.trace {
        (opts.seconds * 0.3, 6)
    } else {
        (opts.seconds, MIN_LAPS)
    };
    let mut native = plan.phase(seconds, min_laps, None);

    let mut metrics = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    if opts.trace {
        (attempted, failed) = traced(&plan, opts, &native, &mut metrics);
    } else {
        end_to_end(&spec, &native, &mut metrics);
    }
    if opts.check {
        native.check(&plan);
    }
    attempted += native.attempted;
    failed += native.failed;
    let _ = std::fs::remove_dir_all(&scratch);

    println!(
        "{} ({}): seed {} | {} positions x {} laps = {} raw samples | {} sessions | speed factor {:.3} (median over laps; times are divided by it)",
        spec.name,
        spec.why,
        opts.seed,
        rates.len(),
        native.laps.laps(),
        native.laps.raw_samples(),
        spec.sessions(),
        median_speed(&native),
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}
