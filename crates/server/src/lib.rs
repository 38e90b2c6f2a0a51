//! `va-server`: a multi-query shared-execution server with budgeted
//! scheduling and anytime answers.
//!
//! The paper's engine (`va-stream`) runs **one** continuous query per
//! engine: every query re-invokes the pricing model over the whole bond
//! relation on every tick. The motivating workload (§1.2), though, is many
//! traders asking *different* questions about the *same* relation at the
//! *same* tick. This crate serves that workload:
//!
//! * **Session registry** ([`SessionRegistry`]) — register any number of
//!   selection / aggregate / extreme / top-k / count queries, each with its
//!   own ε and priority.
//! * **Shared result-object pool** ([`SharedPool`]) — one
//!   [`vao::interface::ResultObject`] per bond per tick. The model is
//!   invoked once, and each object is refined only as far as the tightest
//!   demand any live query places on it.
//! * **Cross-query greedy scheduler** — §5's per-operator greedy choice
//!   ("most estimated benefit per `estCPU`") lifted across queries:
//!   priority-weighted benefits accumulate per object and the single
//!   globally best iteration runs next.
//! * **Per-tick work budget with anytime answers** — when the budget
//!   (deterministic work units) runs out mid-tick, sessions still refining
//!   get [`Answer::Partial`] bounds guaranteed to bracket the converged
//!   answer, and bursty tick arrivals coalesce to the newest rate.
//!
//! The front-end is a newline-delimited JSON protocol over
//! `std::net::TcpListener`, served by a nonblocking multi-client
//! readiness loop (see [`net::FrontEnd`], [`poll`], [`proto`] and
//! `docs/SERVER.md`); the in-process [`Server`] API underneath is what
//! the tests and the bench harness drive directly.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod answer;
mod bits;
pub mod catalog;
pub mod demand;
pub mod error;
pub mod net;
pub mod poll;
pub mod pool;
pub mod proto;
mod sched;
pub mod server;
pub mod session;

pub use answer::Answer;
pub use catalog::{Catalog, RelationId, Tenant, DEFAULT_RELATION};
pub use error::ServerError;
pub use net::{FrontEnd, FrontEndConfig, FrontEndStats};
pub use pool::SharedPool;
pub use sched::{arbitrate_budget, ColumnStats, COLUMN_STORE_BYTES};
#[doc(hidden)]
pub use sched::{audited_tick, RoundAudit};
pub use server::{
    durability_fingerprint, pricer_fingerprint, Server, ServerConfig, TickResult,
    DEFAULT_SNAPSHOT_EVERY,
};
pub use session::{broadcast_groups, Broadcast, Session, SessionId, SessionRegistry};
