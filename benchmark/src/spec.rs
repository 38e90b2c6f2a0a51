//! The four workloads: what each builds, how it is driven, and why.
//!
//! Universes are fixed per workload (relation size and bond mix are part
//! of a workload's identity, and at 36–64 bonds another universe moves
//! work by tens of percent); `--seed` drives the script of rates.

use va_server::ServerConfig;
use va_stream::Query;
use vao::ops::selection::CmpOp;

use crate::script::ScriptShape;

/// How the workload reaches the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// `Server::new`, one relation, direct calls.
    InProcess,
    /// `Server::new` behind `FrontEnd::run` on a server thread; one
    /// generator thread holding two loopback connections.
    Wire,
    /// `Server::open_durable_catalog` in a scratch dir (fsync on),
    /// `tick_multi`, crash + reopen at the end of every lap.
    Durable,
}

/// One relation and the sessions registered on it, in order.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    pub name: String,
    pub bonds: usize,
    pub universe_seed: u64,
    pub sessions: Vec<(Query, u32)>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub transport: Transport,
    pub tenants: Vec<TenantSpec>,
    pub config: ServerConfig,
    pub shape: ScriptShape,
    /// Every n-th position also replaces one session and reads the
    /// relation's statistics before the tick (control plane beside data
    /// plane), inside the timed window.
    pub churn_every: Option<usize>,
}

pub const WORKLOADS: [&str; 4] = [
    "solver_deep",
    "demand_wide",
    "wire_fanout",
    "durable_tenants",
];

pub fn workload(name: &str) -> Option<Spec> {
    match name {
        "solver_deep" => Some(solver_deep()),
        "demand_wide" => Some(demand_wide()),
        "wire_fanout" => Some(wire_fanout()),
        "durable_tenants" => Some(durable_tenants()),
        _ => None,
    }
}

impl Spec {
    /// `--quick`: the same workload over 4 positions.
    pub fn quick(mut self) -> Self {
        let passes = self.shape.passes.min(2);
        self.shape.distinct = 4 / passes;
        self.shape.passes = passes;
        self.churn_every = self.churn_every.map(|_| 2);
        self
    }

    /// The wire workload's sessions as one in-process server sees them:
    /// both connections' subscriptions (the driver's, then the passive
    /// one's) on a plain `Server`, same churn.
    pub fn wire_shadow(&self) -> Self {
        let mut shadow = self.clone();
        shadow.transport = Transport::InProcess;
        let tenant = &mut shadow.tenants[0];
        tenant.sessions.extend(tenant.sessions.clone());
        shadow
    }

    pub fn sessions(&self) -> usize {
        self.tenants.iter().map(|t| t.sessions.len()).sum()
    }
}

fn single(bonds: usize, universe_seed: u64, sessions: Vec<(Query, u32)>) -> Vec<TenantSpec> {
    vec![TenantSpec {
        name: va_server::DEFAULT_RELATION.to_string(),
        bonds,
        universe_seed,
        sessions,
    }]
}

/// Few tight-ε sessions over few bonds with the batched schedule: the
/// tick is `iterate()` / `step_batch`, demand work is small. The only
/// workload where the SoA kernel runs (the default serial schedule never
/// admits more than one object per round).
fn solver_deep() -> Spec {
    let bonds = 36;
    Spec {
        name: "solver_deep",
        why: "3 tight-epsilon sessions, 36 bonds, batch=16: >=85% of a tick is iterate()/step_batch; demand work is small",
        transport: Transport::InProcess,
        tenants: single(
            bonds,
            1994,
            vec![
                (
                    Query::Sum {
                        weights: vec![1.0; bonds],
                        epsilon: 0.03 * bonds as f64,
                    },
                    1,
                ),
                (Query::Max { epsilon: 0.03 }, 1),
                (
                    Query::Selection {
                        op: CmpOp::Gt,
                        constant: 100.0,
                    },
                    1,
                ),
            ],
        ),
        config: ServerConfig {
            workers: 2,
            batch: Some(16),
            ..ServerConfig::default()
        },
        shape: ScriptShape {
            band_start: 56_000,
            stratum: 500,
            jitter: 10,
            distinct: 12,
            passes: 1,
            units_per_one: 1e6,
        },
        churn_every: None,
    }
}

/// Many loose-ε sessions of every operator family on the shipped default
/// config: the serial schedule recomputes all 32 demands after every
/// single iteration, so demand + sketch rebuild + choice dominate.
fn demand_wide() -> Spec {
    // Thresholds in the gaps between the universe's coupon-ladder price
    // clusters (over the whole rate band): SELECT/COUNT resolve after a few
    // iterations per bond instead of driving a straddler to the minWidth
    // floor, so the tick stays demand-bound at every scripted rate.
    const GAPS: [f64; 4] = [91.6, 108.2, 113.7, 118.7];
    let sessions = (0..32)
        .map(|i| {
            let j = i / 8;
            let step = j as f64;
            let query = match i % 8 {
                0 => Query::Percentile {
                    phi: 0.1 + 0.2 * step,
                    epsilon: 3.0 + 0.6 * step,
                },
                1 => Query::TopK {
                    k: 3 + 2 * j,
                    epsilon: 3.0,
                },
                2 => Query::Count {
                    op: CmpOp::Lt,
                    constant: GAPS[j] + 0.3,
                    slack: 2 + j,
                },
                3 => Query::Median {
                    epsilon: 2.4 + 0.6 * step,
                },
                4 => Query::HeavyHitters {
                    k: 2 + j,
                    epsilon: 8.0 + 4.0 * step,
                },
                5 => Query::Ave {
                    epsilon: 0.3 + 0.12 * step,
                },
                6 => Query::Selection {
                    op: CmpOp::Gt,
                    constant: GAPS[j],
                },
                _ => Query::Min {
                    epsilon: 3.0 + 0.6 * step,
                },
            };
            (query, 1 + (i % 3) as u32)
        })
        .collect();
    Spec {
        name: "demand_wide",
        why: "32 loose-epsilon sessions of 8 operator families, 48 bonds, shipped default (serial) config: demand recompute + sketch rebuild + choice dominate",
        transport: Transport::InProcess,
        tenants: single(48, 1994, sessions),
        config: ServerConfig::default(),
        shape: ScriptShape {
            band_start: 56_000,
            stratum: 500,
            jitter: 10,
            distinct: 12,
            passes: 1,
            units_per_one: 1e6,
        },
        churn_every: None,
    }
}

/// Threshold alerts that resolve on the initial bounds: compute is one
/// pool invocation, and the tick is parse → dispatch → 48 RESULT lines of
/// ~2 KB → queue → flush → client read.
fn wire_fanout() -> Spec {
    let shapes = (0..24)
        .map(|i| {
            (
                Query::Selection {
                    op: CmpOp::Gt,
                    constant: 20.0 + i as f64,
                },
                1,
            )
        })
        .collect();
    Spec {
        name: "wire_fanout",
        why: "loopback TCP, 2 connections x 24 threshold SELECTs over 500 bonds resolved at iteration 0: parse/serialize/queue/flush is ~half the tick",
        transport: Transport::Wire,
        tenants: single(500, 1994, shapes),
        config: ServerConfig::default(),
        shape: ScriptShape {
            band_start: 56_000,
            stratum: 40,
            jitter: 20,
            distinct: 160,
            passes: 1,
            units_per_one: 1e6,
        },
        churn_every: Some(16),
    }
}

/// Four tenants under one arbitrated budget on a durable catalog: journal
/// encode + fsync per tenant tick, periodic snapshots, warm re-admission
/// on the second and third visit of every rate, crash recovery per lap.
fn durable_tenants() -> Spec {
    let bonds = 50;
    let tenants = (0..4u64)
        .map(|t| TenantSpec {
            name: format!("desk{t}"),
            bonds,
            universe_seed: 1994 + 7 * t,
            sessions: vec![
                (
                    Query::Sum {
                        weights: vec![1.0; bonds],
                        epsilon: 4.0 * bonds as f64,
                    },
                    1,
                ),
                (Query::Max { epsilon: 4.0 }, 1),
                (
                    Query::Selection {
                        op: CmpOp::Gt,
                        constant: 113.7,
                    },
                    1,
                ),
                (
                    Query::Percentile {
                        phi: 0.5,
                        epsilon: 10.0,
                    },
                    1,
                ),
            ],
        })
        .collect();
    Spec {
        name: "durable_tenants",
        why: "durable catalog (fsync on), 4 tenants x 50 bonds x 4 sessions, tick_multi under one budget, 16 rates x 3 visits: journal, snapshot, warm re-admission, recovery",
        transport: Transport::Durable,
        tenants,
        config: ServerConfig {
            workers: 2,
            budget: Some(DURABLE_BUDGET),
            snapshot_every: 16,
            ..ServerConfig::default()
        },
        shape: ScriptShape {
            band_start: 56_000,
            stratum: 400,
            jitter: 10,
            distinct: 16,
            passes: 3,
            units_per_one: 1e6,
        },
        churn_every: None,
    }
}

/// One budget for the four desks, split by `arbitrate_budget` (equal
/// priorities, so four equal slices; divisible by 4 so an observed
/// per-tenant tick can be given exactly its slice).
pub const DURABLE_BUDGET: u64 = 4 * 50_000;
