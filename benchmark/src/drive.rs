//! One lap of a workload driven by direct calls (in-process and durable
//! transports): fresh state, one un-timed first tick, then the script.

use std::path::{Path, PathBuf};
use std::time::Instant;

use bondlab::BondPricer;
use va_server::{Answer, Server, ServerConfig, ServerError, SessionId, TickResult};

use crate::calibrate::Around;
use crate::check::{relation_of, Fnv};
use crate::spans::{SpanObserver, TickBreakdown, Trace};
use crate::spec::{Spec, Transport};

/// One timed position of a lap.
#[derive(Clone, Debug, Default)]
pub struct TickSample {
    /// Request issued → last answer in hand.
    pub secs: f64,
    /// Deterministic work units the tick cost (all tenants).
    pub work: u64,
    /// Digest of everything the tick answered, wall time excluded.
    pub digest: u64,
    pub finals: u32,
    pub answers: u32,
    /// Requests issued for this position, and how many were refused.
    pub attempted: u32,
    pub failed: u32,
}

/// One answer as the client saw it: whose query it answers.
#[derive(Clone, Debug)]
pub struct Seen {
    pub tenant: usize,
    /// Index into the tenant's `sessions` in the spec.
    pub query: usize,
    pub answer: Answer,
}

/// Extra readings a probed lap takes from outside the timed calls.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    /// Per position: the observed scheduler phases (all tenants summed).
    pub breakdowns: Vec<TickBreakdown>,
    /// Per position: max / mean of the tenants' `stats.wall`.
    pub shard_skew: Vec<f64>,
    /// Per position: `FrontEnd::turn` calls and their summed time (inline
    /// wire laps only).
    pub turns: Vec<(u32, u64)>,
    /// Per position: the §3.2 work split (all tenants summed).
    pub work_split: Vec<vao::cost::WorkBreakdown>,
    /// Wire laps: front-end counters at the end of the lap.
    pub results_delivered: u64,
    pub payloads_serialized: u64,
    pub bytes_in: u64,
    /// Durable laps: events replayed by the recovery open, the time of
    /// the first tick after it, and the crashed dir's size.
    pub replayed_events: u64,
    pub recovery_first_tick_s: f64,
    pub dir_bytes: u64,
    /// CPU and run-queue readings around the scripted positions.
    pub cpu_ms: f64,
    pub runq_wait_ns: u64,
    pub script_wall_s: f64,
}

#[derive(Debug)]
pub struct Lap {
    /// Lap start → first (cold, un-timed) tick answered.
    pub setup_s: f64,
    /// Durable: crashed dir → reopened → first tick at a journaled rate.
    pub recovery_s: Option<f64>,
    pub ticks: Vec<TickSample>,
    /// Durable: the post-recovery tick, checked like any other.
    pub recovery_tick: Option<TickSample>,
    /// Answers per position (+ the recovery tick last), when collecting.
    pub seen: Vec<Vec<Seen>>,
    /// Calibration-kernel samples: `cal[k]` just before position `k`, one
    /// more after the last position.
    pub cal: Vec<f64>,
    /// Speed factors of the set-up and recovery sections.
    pub setup_speed: f64,
    pub recovery_speed: f64,
    pub extras: Extras,
}

impl Default for Lap {
    fn default() -> Self {
        Self {
            setup_s: 0.0,
            recovery_s: None,
            ticks: Vec::new(),
            recovery_tick: None,
            seen: Vec::new(),
            cal: Vec::new(),
            setup_speed: 1.0,
            recovery_speed: 1.0,
            extras: Extras::default(),
        }
    }
}

impl Lap {
    /// Marks every position the lap did not reach as one refused request.
    pub fn fail_unreached(&mut self, positions: usize) {
        while self.ticks.len() < positions {
            self.ticks.push(TickSample {
                attempted: 1,
                failed: 1,
                ..TickSample::default()
            });
        }
    }
}

/// CPU and run-queue readings around a lap's scripted positions.
pub struct ScriptMeter {
    started: Instant,
    cpu_ms: f64,
    runq_wait_ns: u64,
}

impl ScriptMeter {
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
            cpu_ms: crate::procfs::cpu_ms(),
            runq_wait_ns: crate::procfs::runq_wait_ns(),
        }
    }

    pub fn finish(self, extras: &mut Extras) {
        extras.script_wall_s = self.started.elapsed().as_secs_f64();
        extras.cpu_ms = crate::procfs::cpu_ms() - self.cpu_ms;
        extras.runq_wait_ns = crate::procfs::runq_wait_ns() - self.runq_wait_ns;
    }
}

/// Bench-side instrumentation of a lap (never used by end-to-end laps).
pub struct Probe<'t> {
    pub trace: &'t mut Trace,
    /// Store spans (one lap per run) or only time the phases.
    pub keep_spans: bool,
    /// Tick tenant-by-tenant through `tick_relation_with_observer`
    /// (multi-tenant workloads then get their budget slice per tenant).
    pub observe: bool,
}

pub struct LapCtx<'t> {
    /// Keep every answer for the check (lap 0).
    pub collect: bool,
    pub probe: Option<Probe<'t>>,
    /// Scratch dir for this lap's data dir (durable).
    pub scratch: PathBuf,
    /// Where to leave a copy of the crashed data dir (layer replays).
    pub keep_crashed: Option<PathBuf>,
}

fn digest_of(results: &[TickResult]) -> u64 {
    let mut h = Fnv::new();
    for r in results {
        let s = &r.stats;
        h.write(
            format!(
                "{} {:?} {:?} {} {:?} {}",
                r.tick, r.rate, r.answers, r.budget_exhausted, s.work, s.iterations
            )
            .as_bytes(),
        );
    }
    h.0
}

/// A live server plus, per tenant, its sessions in registry order tagged
/// with the spec slot they were registered from.
struct Live {
    server: Server,
    order: Vec<Vec<(SessionId, usize)>>,
    churns: usize,
}

/// The workload's config — with each tenant's exact slice as the budget
/// when ticks go tenant by tenant instead of through `tick_multi`.
fn config_of(spec: &Spec, sliced_budget: bool) -> ServerConfig {
    let mut config = spec.config;
    if sliced_budget {
        config.budget = config.budget.map(|b| b / spec.tenants.len() as u64);
    }
    config
}

/// Every tenant at `rate`: one `tick_multi` request.
fn all_tenants(spec: &Spec, rate: f64) -> Vec<(&str, f64)> {
    spec.tenants
        .iter()
        .map(|t| (t.name.as_str(), rate))
        .collect()
}

fn open(spec: &Spec, dir: &Path, sliced_budget: bool) -> Result<Live, ServerError> {
    let pricer = BondPricer::default();
    let config = config_of(spec, sliced_budget);
    let mut server = match spec.transport {
        Transport::Durable => {
            let mut server = Server::open_durable_catalog(pricer, config, dir)?;
            for t in &spec.tenants {
                server.create_relation(&t.name, relation_of(t), Some(t.universe_seed))?;
            }
            server
        }
        Transport::InProcess | Transport::Wire => {
            Server::new(pricer, relation_of(&spec.tenants[0]), config)
        }
    };
    let mut order = Vec::new();
    for t in &spec.tenants {
        let mut ids = Vec::new();
        for (slot, (query, priority)) in t.sessions.iter().enumerate() {
            ids.push((
                server.subscribe_to(&t.name, query.clone(), *priority)?,
                slot,
            ));
        }
        order.push(ids);
    }
    Ok(Live {
        server,
        order,
        churns: 0,
    })
}

impl Live {
    /// Replaces one session of tenant 0 and reads its statistics: the
    /// in-process twin of the wire workload's UNSUBSCRIBE+SUBSCRIBE+STATS.
    fn churn(&mut self, spec: &Spec) -> Result<(), ServerError> {
        let tenant = &spec.tenants[0];
        // The driving connection's sessions are the first half of the slots.
        let slot = self.churns % (tenant.sessions.len() / 2);
        self.churns += 1;
        let at = self.order[0]
            .iter()
            .position(|&(_, s)| s == slot)
            .expect("every slot stays registered");
        let (old, _) = self.order[0].remove(at);
        self.server.unsubscribe_in(&tenant.name, old)?;
        let (query, priority) = &tenant.sessions[slot];
        let new = self
            .server
            .subscribe_to(&tenant.name, query.clone(), *priority)?;
        self.order[0].push((new, slot));
        std::hint::black_box(self.server.summary_in(&tenant.name)?);
        Ok(())
    }

    fn tick(
        &mut self,
        spec: &Spec,
        rate: f64,
        probe: Option<(&mut Probe<'_>, u32, usize)>,
    ) -> Result<(Vec<TickResult>, Option<TickBreakdown>), ServerError> {
        match probe {
            Some((p, tick_id, parent)) if p.observe => {
                let mut sum = TickBreakdown::default();
                let mut results = Vec::new();
                for t in &spec.tenants {
                    let mut obs = SpanObserver::new(p.trace, p.keep_spans, Some(parent), tick_id);
                    results.push(
                        self.server
                            .tick_relation_with_observer(&t.name, rate, &mut obs)?,
                    );
                    sum.absorb(obs.finish());
                }
                Ok((results, Some(sum)))
            }
            _ if spec.tenants.len() == 1 => Ok((
                vec![self.server.tick_relation(&spec.tenants[0].name, rate)?],
                None,
            )),
            _ => Ok((self.server.tick_multi(&all_tenants(spec, rate))?, None)),
        }
    }
}

/// Files each answer under the spec slot its session was registered from
/// (`order`: per tenant, the sessions in registry order).
fn seen(order: &[Vec<(SessionId, usize)>], results: &[TickResult]) -> Vec<Seen> {
    results
        .iter()
        .enumerate()
        .flat_map(|(tenant, r)| {
            r.answers
                .iter()
                .zip(&order[tenant])
                .map(move |((id, answer), (expect, slot))| {
                    assert_eq!(id, expect, "answers come in registry order");
                    Seen {
                        tenant,
                        query: *slot,
                        answer: answer.clone(),
                    }
                })
        })
        .collect()
}

fn sample(secs: f64, attempted: u32, outcome: &Result<Vec<TickResult>, ServerError>) -> TickSample {
    match outcome {
        Ok(results) => TickSample {
            secs,
            work: results.iter().map(|r| r.stats.total_work()).sum(),
            digest: digest_of(results),
            finals: results
                .iter()
                .flat_map(|r| &r.answers)
                .filter(|(_, a)| a.is_final())
                .count() as u32,
            answers: results.iter().map(|r| r.answers.len()).sum::<usize>() as u32,
            attempted,
            failed: 0,
        },
        Err(e) => {
            eprintln!("benchmark: tick failed: {e}");
            TickSample {
                secs,
                attempted,
                failed: attempted,
                ..TickSample::default()
            }
        }
    }
}

pub fn add_work(sum: &mut vao::cost::WorkBreakdown, w: &vao::cost::WorkBreakdown) {
    sum.exec_iter += w.exec_iter;
    sum.get_state += w.get_state;
    sum.store_state += w.store_state;
    sum.choose_iter += w.choose_iter;
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs one lap. A set-up failure fails every position of the lap.
pub fn lap(spec: &Spec, rates: &[f64], mut ctx: LapCtx<'_>) -> Lap {
    let data_dir = ctx.scratch.join("data");
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if spec.transport == Transport::Durable {
        std::fs::create_dir_all(&ctx.scratch).expect("create scratch dir");
    }
    let observe = ctx.probe.as_ref().is_some_and(|p| p.observe);
    let sliced = observe && spec.tenants.len() > 1;

    let around = Around::start();
    let started = Instant::now();
    let opened = open(spec, &data_dir, sliced).and_then(|mut live| {
        live.tick(spec, spec.shape.warmup_rate(), None)?;
        Ok(live)
    });
    let setup_s = started.elapsed().as_secs_f64();
    let mut out = Lap {
        setup_s,
        setup_speed: around.finish(),
        ..Lap::default()
    };
    let mut live = match opened {
        Ok(live) => live,
        Err(e) => {
            eprintln!("benchmark: set-up failed: {e}");
            out.fail_unreached(rates.len());
            return out;
        }
    };

    let meter = ScriptMeter::start();
    for (k, &rate) in rates.iter().enumerate() {
        out.cal.push(crate::calibrate::kernel());
        let churn = spec.churn_every.is_some_and(|n| (k + 1) % n == 0);
        let attempted = if churn { 4 } else { 1 };
        let tick_span = ctx
            .probe
            .as_mut()
            .map(|p| p.trace.open("tick", None, k as u32));
        let issued = Instant::now();
        let mut breakdown = None;
        let outcome: Result<Vec<TickResult>, ServerError> = 'tick: {
            if churn {
                if let Err(e) = live.churn(spec) {
                    break 'tick Err(e);
                }
            }
            let probe = ctx
                .probe
                .as_mut()
                .map(|p| (p, k as u32, tick_span.expect("opened with the probe")));
            live.tick(spec, rate, probe).map(|(results, b)| {
                breakdown = b;
                results
            })
        };
        let secs = issued.elapsed().as_secs_f64();
        if let (Some(p), Some(id)) = (ctx.probe.as_mut(), tick_span) {
            p.trace.close(id);
        }
        if let Ok(results) = &outcome {
            if ctx.collect {
                out.seen.push(seen(&live.order, results));
            }
            if ctx.probe.is_some() {
                let walls: Vec<f64> = results.iter().map(|r| r.stats.wall.as_secs_f64()).collect();
                let mean = walls.iter().sum::<f64>() / walls.len() as f64;
                let max = walls.iter().copied().fold(0.0, f64::max);
                out.extras
                    .shard_skew
                    .push(if mean > 0.0 { max / mean } else { 1.0 });
                let mut split = vao::cost::WorkBreakdown::default();
                for r in results {
                    add_work(&mut split, &r.stats.work);
                }
                out.extras.work_split.push(split);
            }
        } else if ctx.collect {
            out.seen.push(Vec::new());
        }
        if let Some(b) = breakdown {
            out.extras.breakdowns.push(b);
        }
        out.ticks.push(sample(secs, attempted, &outcome));
    }
    out.cal.push(crate::calibrate::kernel());
    meter.finish(&mut out.extras);

    if spec.transport == Transport::Durable {
        // Crash: drop without `shutdown()` leaves exactly what a SIGKILL
        // between ticks leaves on disk (every append is fsync'd on return).
        let Live { server, order, .. } = live;
        drop(server);
        out.extras.dir_bytes = dir_bytes(&data_dir);
        if let Some(keep) = &ctx.keep_crashed {
            let _ = std::fs::remove_dir_all(keep);
            copy_dir(&data_dir, keep).expect("copy crashed data dir");
        }
        let config = config_of(spec, sliced);
        let recovery_span = ctx
            .probe
            .as_mut()
            .map(|p| p.trace.open("recovery", None, rates.len() as u32));
        let around = Around::start();
        let crashed = Instant::now();
        let reopened = Server::open_durable_catalog(BondPricer::default(), config, &data_dir);
        let open_s = crashed.elapsed().as_secs_f64();
        let outcome = reopened.and_then(|mut server| {
            out.extras.replayed_events = server.last_recovery().map_or(0, |r| r.replayed_events);
            server.tick_multi(&all_tenants(spec, rates[0]))
        });
        let secs = crashed.elapsed().as_secs_f64();
        out.recovery_speed = around.finish();
        if let (Some(p), Some(id)) = (ctx.probe.as_mut(), recovery_span) {
            p.trace.close(id);
            p.trace.record(
                "recovery.open",
                p.trace.spans()[id].start_ns,
                p.trace.spans()[id].start_ns + (open_s * 1e9) as u64,
                Some(id),
                rates.len() as u32,
            );
        }
        out.recovery_s = Some(secs);
        out.extras.recovery_first_tick_s = secs - open_s;
        if ctx.collect {
            // The recovered registries hold the same sessions in the same order.
            out.seen.push(
                outcome
                    .as_ref()
                    .map_or_else(|_| Vec::new(), |results| seen(&order, results)),
            );
        }
        out.recovery_tick = Some(sample(secs, 1, &outcome));
        let _ = std::fs::remove_dir_all(&ctx.scratch);
    }
    out
}
