//! Parabolic PDE solving with variable accuracy (§4.1).
//!
//! The paper's motivating UDF — a bond-pricing model — is the solution of a
//! parabolic PDE of the form
//!
//! ```text
//! a(x)·F_xx + b(x)·F_x + F_t − r(x)·F + c(x) = 0 ,   F(x, T) given,
//! ```
//!
//! evaluated at `F(x_query, 0)`. [`problem`] defines that problem shape,
//! [`solver`] solves it by implicit finite differencing on an `n_x × n_t`
//! mesh (error `O(Δt + Δx²)`), [`extrapolation`] turns solutions at three
//! step-size combinations into real-valued error bounds via Richardson
//! extrapolation, and [`vao`] wraps the whole machinery as a
//! [`::vao::ResultObject`] whose `iterate()` halves whichever step size the
//! error model blames most. [`batch`] advances many such objects whose next
//! refinements share a grid shape in lockstep, as lanes of one
//! struct-of-arrays sweep, bit-identically to their scalar iterations, and
//! can lend back each lane's finished `t = 0` column: for a problem marked
//! [`ParabolicPde::QUERY_FREE_COLUMN`] that column is the same at every
//! query point, so a later refinement at the same mesh can commit from it.

pub mod batch;
pub mod extrapolation;
pub mod problem;
pub mod solver;
pub mod vao;

pub use batch::{step_batch, step_batch_keeping, KeepColumn};
pub use extrapolation::{StepKind, TwoTermErrorModel};
pub use problem::ParabolicPde;
pub use solver::{solve_on_mesh, MeshSolution, SolverConfig};
pub use vao::{PdeResultObject, PdeVaoConfig, TrioColumns};
