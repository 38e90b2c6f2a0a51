//! # va-stream — a minimal continuous-query engine substrate
//!
//! The paper's system (Figure 1) is a continuous-query engine: a stream of
//! interest-rate updates joins a relation of bonds, expensive model calls
//! price every bond at every new rate, and an operator (selection, MAX,
//! SUM, …) evaluates the results. This crate provides that scaffolding:
//!
//! * [`relation`] — the bond relation (`BD` in the paper's predicate
//!   `model(IR.rate, BD) > 100`).
//! * [`query`] — query definitions (Q1–Q3 of §1.2), their outputs, and
//!   [`Query::output`]: the one function that builds an output from a set
//!   of bounds, for the engine's two modes and for `va-server` alike.
//! * [`engine`] — the continuous executor: per rate tick, it evaluates the
//!   query under either the VAO or the traditional execution mode and
//!   records per-tick statistics.
//! * [`stats`] — work/time accounting per tick and its run-level fold.
//! * [`casper`] — a CASPER-style predicate result-range cache over
//!   selection ticks (§2's related work, integrated as an extension).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod casper;
pub mod engine;
pub mod query;
pub mod relation;
pub mod stats;

/// The relation's tuple type, named here so crates below `bondlab` in the
/// dependency order (`va-persist`) can carry it.
pub use bondlab::Bond;
pub use engine::{ContinuousQueryEngine, EngineError, ExecutionMode};
pub use query::{Query, QueryOutput};
pub use relation::BondRelation;
pub use stats::{RunSummary, TickStats};
