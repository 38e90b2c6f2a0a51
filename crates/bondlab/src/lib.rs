//! # bondlab — the bond-market substrate for the VAO reproduction
//!
//! The paper's running example (§1.2) and entire evaluation (§6) price
//! bonds with a numerical PDE model as market interest rates stream in.
//! This crate provides everything those experiments need:
//!
//! * [`bond`] — an MBS-style fixed-income instrument (the paper's data set
//!   is 500 Freddie Mac Gold PC 30-year mortgage-backed securities).
//! * [`model`] — the paper's Figure-4 pricing PDE
//!   (`½σ²·F_xx + [κμ−(κ+q)x]·F_x + F_t − rF + C = 0`) instantiated per
//!   bond, in the shape the [`va_numerics::pde`] solver consumes.
//! * [`pricing`] — [`pricing::BondPricer`], a [`vao::VariableAccuracyFn`]
//!   producing PDE result objects with `minWidth` = \$0.01 (prices are only
//!   meaningful to the cent, §3.1).
//! * [`market`] — a 10-year-CMT-like interest-rate series (the paper used
//!   Jan 3–31 1994 daily yields with ~2-minute intra-day tick arrivals).
//! * [`dataset`] — a deterministic generator of the 500-bond universe
//!   (documented substitution for the proprietary data set).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bond;
pub mod dataset;
pub mod market;
pub mod model;
pub mod pricing;

pub use bond::Bond;
pub use dataset::BondUniverse;
pub use market::{RateSeries, RateTick};
pub use model::{BondPde, ShortRateModel};
pub use pricing::BondPricer;
