//! # Variable-accuracy numerical solvers
//!
//! The solver substrate for the VAO reproduction (§4 of Denny & Franklin,
//! *Adaptive Execution of Variable-Accuracy Functions*, 2006). Each solver
//! family is implemented twice over:
//!
//! 1. a plain numerical routine (finite differencing, composite quadrature,
//!    bracketing), and
//! 2. a **VAO adapter** exposing it through the iterative
//!    [`vao::ResultObject`] interface — coarse initial bounds, `iterate()`
//!    to refine, `estCPU`/`estL`/`estH` estimates for iteration strategies.
//!
//! Families:
//!
//! * [`pde`] — parabolic PDEs (the bond-model workhorse, §4.1): implicit
//!   finite differencing with `O(Δt + Δx²)` error and Richardson
//!   extrapolation to real-valued error bounds.
//! * [`ode`] — linear two-point boundary-value problems (§4.2, the beam
//!   deflection example): finite differencing with `O(h²)` error.
//! * [`integrate`] — numerical integration (§4.3): composite trapezoid and
//!   Simpson rules with interval-halving refinement.
//! * [`roots`] — root finding (§4.4): bisection, whose bracket *is* its
//!   error bound.
//! * [`tridiag`] — the Thomas algorithm shared by the finite-difference
//!   solvers, as factor-once / sweep-per-right-hand-side: the scalar
//!   [`tridiag::ThomasSolver`] and the lane-parallel
//!   [`tridiag::BatchThomasSolver`] over struct-of-arrays planes
//!   (bit-identical per lane, but with the per-row division latency chain
//!   pipelined across lanes).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod integrate;
pub mod ode;
pub mod pde;
pub mod roots;
pub mod tridiag;
