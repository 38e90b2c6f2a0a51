//! Lane-batched iteration interfaces.
//!
//! A mesh-refining result object spends its `iterate()` almost entirely
//! inside one fresh solve on a grid whose *shape* — not its contents — is
//! shared by every sibling object at the same refinement depth. Solvers can
//! exploit that: K objects whose next solves share a [`GridShape`] advance
//! in lockstep as K *lanes* of one struct-of-arrays sweep, turning K
//! pointer-chasing scalar solves into cache-line-friendly, auto-vectorizable
//! inner loops over contiguous lane planes.
//!
//! This module defines the solver-agnostic lane protocol. The core crate
//! knows nothing about tridiagonal systems or PDE meshes; it only fixes the
//! *contract* between a batch dispatcher (e.g. the `va-server` round
//! scheduler) and a batch-capable object:
//!
//! 1. The dispatcher groups objects by [`ResultObject::batch_shape`] and
//!    obtains each group member's lane view via
//!    [`ResultObject::as_batch_lane`].
//! 2. A batched stepper (in `va-numerics`) drives the group:
//!    [`BatchLane::lane_init`] once, then `nt` sweeps that touch only the
//!    shared planes — no lane is called while the solve runs — and finally
//!    [`BatchLane::lane_commit`] with the finished state plane.
//! 3. Per-lane failures are isolated: a lane whose system turns out
//!    singular when the stepper factors it is committed with a
//!    [`LaneFailure`] and degrades exactly as its scalar `iterate()` would,
//!    while sibling lanes are unaffected.
//!
//! **Bit-identity.** The protocol is designed so a lane performs the *same
//! floating-point operations in the same order* as the scalar path — lanes
//! are interleaved in memory, never mixed arithmetically — so a batched
//! round must produce answers bit-identical to scalar execution. Estimates
//! stay honest per the paper's cost model: a batch's `estCPU` is the plain
//! sum of its lanes' individual `est_cpu()` values, each charged to that
//! lane's own meter at commit.
//!
//! [`ResultObject::batch_shape`]: crate::interface::ResultObject::batch_shape
//! [`ResultObject::as_batch_lane`]: crate::interface::ResultObject::as_batch_lane

use crate::bounds::Bounds;
use crate::cost::{Work, WorkMeter};

/// The grid a batch-capable object's next refinement would solve, used as
/// the grouping key for lane batching.
///
/// For the finite-difference PDE objects this is the mesh resolution: `nt`
/// backward time steps over `nx` space intervals (so each time step solves
/// a tridiagonal system of `nx + 1` rows). Two objects may share a shape
/// while differing in every coefficient — shape equality only promises the
/// sweeps have identical *structure*, which is all lockstep execution
/// needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridShape {
    /// Backward time steps (the lockstep sweep length).
    pub nt: u32,
    /// Space intervals; the per-step linear system has `nx + 1` rows.
    pub nx: u32,
}

impl GridShape {
    /// Rows of the per-step linear system (`nx + 1` mesh columns).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.nx as usize + 1
    }

    /// Total mesh entries, `nt · (nx + 1)` — the work units one lane's
    /// solve charges, identical to the scalar solver's accounting.
    #[must_use]
    pub fn cells(&self) -> Work {
        u64::from(self.nt) * (u64::from(self.nx) + 1)
    }
}

impl std::fmt::Display for GridShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.nt, self.nx)
    }
}

/// Where the factorization of a lane's system broke down.
///
/// The system is the same at every time step, so a lane is known to be
/// singular as soon as the stepper has factored it, before the first
/// sweep. Sibling lanes keep computing (IEEE arithmetic never traps); the
/// failed lane's plane entries are garbage and must never escape —
/// [`BatchLane::lane_commit`] receives the failure instead of trusting the
/// state plane. The row matches what the scalar solver would report:
/// identical per-lane arithmetic fails at the identical spot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneFailure {
    /// Row of the first (numerically) zero pivot.
    pub row: usize,
}

/// One lane of a shape-grouped batched solve.
///
/// All slice parameters are struct-of-arrays planes shared by every lane in
/// the group: the entry for row `i` of this lane lives at
/// `i * stride + offset`, where `stride` is the group's lane count and
/// `offset` is this lane's index. A lane only ever touches its own strided
/// entries, which is what keeps lane failures isolated.
///
/// # Contract
///
/// * [`lane_shape`](BatchLane::lane_shape) must agree with the object's
///   [`batch_shape`](crate::interface::ResultObject::batch_shape), and both
///   return `Some` only when the next `iterate()` would run one fresh
///   full-grid solve (not a cache hit, not converged, not capped).
/// * The `lane_init` → `nt` sweeps → `lane_commit` sequence must charge
///   and mutate exactly what one scalar `iterate()` would: same meter
///   charges in the same categories, same cache and model updates, same
///   bounds.
/// * `lane_commit` with a [`LaneFailure`] must leave the object in the
///   state its scalar `iterate()` enters when *its* solve fails (for the
///   PDE objects: refinement stops, bounds unchanged, nothing charged).
pub trait BatchLane {
    /// Shape of the next fresh solve, or `None` when the next step cannot
    /// join a batch (converged, capped, cache hit, or refinement
    /// impossible).
    fn lane_shape(&self) -> Option<GridShape>;

    /// Whether this lane's finished `state` plane is independent of the
    /// point the object's value is read at, so a state solved for one
    /// evaluation may be committed, through [`lane_commit`], for another
    /// evaluation of the same function at the same shape. (For the PDE
    /// objects: the `t = 0` column does not depend on the query point,
    /// which enters only when the commit interpolates.) A dispatcher may
    /// then keep a lane's finished state and commit a later refinement at
    /// that shape from it without solving; the commit charges exactly what
    /// the solve would have. Default `false`: no state is ever reused.
    ///
    /// [`lane_commit`]: BatchLane::lane_commit
    fn column_reusable(&self) -> bool {
        false
    }

    /// Writes everything the solve needs from this lane, all of it
    /// independent of the time step: the system coefficients into the
    /// `sub`/`diag`/`sup` band planes, the per-step source term (already
    /// scaled by the time step) into the `src` plane, and the terminal
    /// values into the `state` plane. Every step then solves
    /// `T·state' = state + src` for the lane's system `T`.
    ///
    /// The planes may hold leftovers: all `shape.rows()` entries of this
    /// lane must be written in each of the five.
    #[allow(clippy::too_many_arguments)] // the five planes ARE the interface
    fn lane_init(
        &self,
        shape: GridShape,
        sub: &mut [f64],
        diag: &mut [f64],
        sup: &mut [f64],
        src: &mut [f64],
        state: &mut [f64],
        stride: usize,
        offset: usize,
    );

    /// Commits the finished sweep: `state` holds the lane's solution at the
    /// end of the sweep unless `failure` is set (then its entries are
    /// garbage and must be ignored). Performs the post-solve bookkeeping of
    /// one scalar `iterate()` — charging `meter`, updating caches, models
    /// and bounds — and returns the object's new bounds.
    ///
    /// The returned bounds are the *implementing* object's; callers holding
    /// the object behind a bounds-transforming adapter should re-read
    /// `bounds()` through the adapter instead of using the return value.
    fn lane_commit(
        &mut self,
        shape: GridShape,
        state: &[f64],
        stride: usize,
        offset: usize,
        failure: Option<LaneFailure>,
        meter: &mut WorkMeter,
    ) -> Bounds;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interface::ResultObject;
    use crate::testkit::ScriptedObject;

    #[test]
    fn shape_geometry_matches_mesh_accounting() {
        let s = GridShape { nt: 16, nx: 8 };
        assert_eq!(s.rows(), 9);
        assert_eq!(s.cells(), 16 * 9);
        assert_eq!(s.to_string(), "16x8");
    }

    #[test]
    fn objects_are_scalar_only_by_default() {
        let mut obj = ScriptedObject::converging(&[(0.0, 1.0)], 1, 0.01);
        assert_eq!(obj.batch_shape(), None);
        assert!(obj.as_batch_lane().is_none());
    }
}
