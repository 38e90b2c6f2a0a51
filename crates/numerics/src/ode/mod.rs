//! Linear two-point boundary-value ODEs with variable accuracy (§4.2).
//!
//! §4.2's example is the beam-deflection equation
//! `w''(x) = (S/EI)·w(x) + (q·x/2EI)(x − l)` with `w(0) = w(l) = 0`: a
//! linear second-order BVP solved by finite differencing, "very similar" to
//! the PDE case but with a single grid dimension — which makes the
//! extrapolation machinery a one-term `K·h²` model.

pub mod bvp;
pub mod vao;

pub use bvp::{solve_bvp, BeamProblem, BvpError, LinearBvp};
pub use vao::{OdeResultObject, OdeVaoConfig};
