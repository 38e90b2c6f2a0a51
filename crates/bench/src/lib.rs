//! # va-bench — experiment drivers for every table and figure in §6
//!
//! Each driver in [`experiments`] regenerates one of the paper's artifacts
//! (Figures 8–12 and the §6.2 MAX runtime table), an ablation or an
//! extension sweep, returning structured rows; the `*_table` function
//! beside each row type is its CSV column mapping. The `harness` binary
//! holds the one table of targets (name → CSVs → driver), prints each
//! table and writes its CSV.
//!
//! Runtimes are reported in deterministic **work units** (mesh entries
//! computed — see `vao::cost`) as the primary metric, with wall-clock as a
//! secondary column. The paper reports seconds on a 2.4 GHz Pentium 4;
//! shapes, crossovers and ratios are the comparison targets, not absolute
//! values (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod compare;
pub mod experiments;
pub mod report;
pub mod setup;

pub use setup::Lab;
