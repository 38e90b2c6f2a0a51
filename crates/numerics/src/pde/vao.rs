//! The PDE solver wrapped as a variable-accuracy result object (§4.1).
//!
//! Construction runs the solver at very coarse step sizes — the §4.1 trio
//! `(Δt, Δx)`, `(Δt/2, Δx)`, `(Δt, Δx/2)` — to fit the two-term error model
//! and produce initial bounds. The trio's meshes depend only on the
//! configuration, so [`PdeResultObject::new_many`] builds many objects at
//! once, solving their trios as lanes of shared lockstep solves; a lone
//! construction is the one-problem case of the same path, and
//! [`PdeResultObject::new_many_with`] is the same path committing the trio
//! columns a [`TrioColumns`] holds instead of solving them. Each
//! `iterate()` then:
//!
//! 1. asks the error model which step size is responsible for more error
//!    and halves it;
//! 2. runs **one** new solve at the refined mesh (reusing a cached solution
//!    when the trio already computed it), so per-iteration work roughly
//!    doubles — the cost profile §4.1 analyzes;
//! 3. re-fits the halved dimension's error coefficient from the two
//!    solutions that differ only in that dimension;
//! 4. re-centers the bounds on the new solution and updates `estCPU` /
//!    `estL` / `estH` from the model's prediction for the *next* halving.

use vao::batch::{BatchLane, GridShape, LaneFailure};
use vao::cost::{Work, WorkMeter};
use vao::interface::ResultObject;
use vao::Bounds;

use crate::pde::extrapolation::{StepKind, TwoTermErrorModel};
use crate::pde::problem::ParabolicPde;
use crate::pde::solver::{
    check_mesh, fill_mesh, interpolate, solve_on_mesh, SolveError, SolverConfig,
};
use crate::tridiag::{BatchThomasSolver, TridiagError};

/// Construction parameters for [`PdeResultObject`].
#[derive(Clone, Copy, Debug)]
pub struct PdeVaoConfig {
    /// Space intervals of the initial (coarsest) mesh.
    pub initial_nx: u32,
    /// Time steps of the initial (coarsest) mesh.
    pub initial_nt: u32,
    /// The `minWidth` stopping threshold (e.g. \$0.01 for bond prices).
    pub min_width: f64,
    /// Safety factor on the fitted error coefficients (paper: 3).
    pub safety: f64,
    /// Mesh-size guard for individual solves.
    pub solver: SolverConfig,
}

impl Default for PdeVaoConfig {
    fn default() -> Self {
        Self {
            initial_nx: 8,
            initial_nt: 4,
            min_width: 0.01,
            safety: 3.0,
            solver: SolverConfig::default(),
        }
    }
}

/// A refinable PDE solution implementing [`ResultObject`].
pub struct PdeResultObject<P: ParabolicPde> {
    problem: P,
    config: PdeVaoConfig,
    /// Current mesh resolution; bounds are centered on the solution here.
    nt: u32,
    nx: u32,
    value: f64,
    model: TwoTermErrorModel,
    bounds: Bounds,
    /// Solutions already computed, keyed by `(nt, nx)`; refinement paths
    /// revisit at most a handful of meshes, so a linear scan suffices.
    cache: Vec<(u32, u32, f64)>,
    cumulative: Work,
    last_solve_work: Work,
    /// Set when a refinement would exceed the mesh cap; the object then
    /// reports itself unable to improve (iterate becomes a no-op).
    capped: bool,
}

impl<P: ParabolicPde> PdeResultObject<P> {
    /// Creates the object, running the initial coarse trio of solves and
    /// charging their work to `meter`: [`PdeResultObject::new_many`] of
    /// one problem.
    pub fn new(
        problem: P,
        config: PdeVaoConfig,
        meter: &mut WorkMeter,
    ) -> Result<Self, SolveError> {
        let mut slots = Self::new_many([problem], config, meter);
        slots.pop().expect("one problem, one slot")
    }

    /// Creates one object per problem, in order, solving the coarse trios
    /// of up to 64 problems (`TRIO_LANES`) at a time as the lanes of one
    /// lockstep solve per trio mesh.
    ///
    /// The trio's three meshes depend only on `config`, so every problem
    /// shares them. Per lane the arithmetic is the scalar solve's, so each
    /// slot holds exactly the object (bounds, cache, model, cost) a lone
    /// construction would, and `meter` is charged exactly the sum of the
    /// lone constructions' charges. Every check a scalar solve makes is
    /// made per lane: a slot whose problem fails validation, whose mesh
    /// exceeds the cell cap or whose system is singular holds the scalar
    /// error, and has charged what its lone construction charged before
    /// that error — the trio solves that succeeded first. Its siblings
    /// never notice.
    ///
    /// # Panics
    ///
    /// Panics if `config.min_width` is not positive and finite.
    pub fn new_many(
        problems: impl IntoIterator<Item = P>,
        config: PdeVaoConfig,
        meter: &mut WorkMeter,
    ) -> Vec<Result<Self, SolveError>> {
        Self::new_many_with(problems, config, None, meter)
    }

    /// [`PdeResultObject::new_many`], reading and lending `t = 0` trio
    /// columns through `columns` when `P` is marked
    /// [`ParabolicPde::QUERY_FREE_COLUMN`] (otherwise `columns` is never
    /// called).
    ///
    /// Per slot and trio mesh, after every check a solve makes: a column
    /// that `columns` holds for the slot's index is committed as the lane
    /// would commit it — `interpolate` at the problem's own query point,
    /// then the same `store` — so the slot is bit for bit the object, and
    /// `meter` the charges, of [`PdeResultObject::new_many`]. The slots it
    /// does not hold are solved as lanes, and each lane that solved (never
    /// a singular one) lends its column back through
    /// [`TrioColumns::keep`].
    ///
    /// # Panics
    ///
    /// As [`PdeResultObject::new_many`].
    pub fn new_many_with(
        problems: impl IntoIterator<Item = P>,
        config: PdeVaoConfig,
        columns: Option<&mut dyn TrioColumns>,
        meter: &mut WorkMeter,
    ) -> Vec<Result<Self, SolveError>> {
        assert!(
            config.min_width > 0.0 && config.min_width.is_finite(),
            "min_width must be positive"
        );
        let (nt, nx) = (config.initial_nt.max(1), config.initial_nx.max(2));
        let mut slots: Vec<Result<Self, SolveError>> = problems
            .into_iter()
            .map(|problem| {
                Ok(Self {
                    problem,
                    config,
                    nt,
                    nx,
                    value: 0.0,
                    model: TwoTermErrorModel {
                        k1: 0.0,
                        k2: 0.0,
                        safety: config.safety,
                    },
                    bounds: Bounds::point(0.0),
                    cache: Vec::with_capacity(8),
                    cumulative: 0,
                    last_solve_work: 0,
                    capped: false,
                })
            })
            .collect();
        // The §4.1 trio, in the order its values enter the cache.
        let trio = [
            GridShape { nt, nx },
            GridShape { nt: nt * 2, nx },
            GridShape { nt, nx: nx * 2 },
        ];
        let mut columns = columns.filter(|_| P::QUERY_FREE_COLUMN);
        let mut lanes = TrioLanes::default();
        for (g, group) in slots.chunks_mut(TRIO_LANES).enumerate() {
            for shape in trio {
                let columns = columns.as_mut().map(|c| &mut **c as &mut dyn TrioColumns);
                lanes.solve(group, g * TRIO_LANES, shape, &config.solver, columns, meter);
            }
        }
        for obj in slots.iter_mut().flatten() {
            let (f1, f2, f3) = (obj.cache[0].2, obj.cache[1].2, obj.cache[2].2);
            let (dt, dx) = obj.steps(nt, nx);
            obj.model = TwoTermErrorModel::fit(f1, f2, f3, dt, dx, config.safety);
            obj.value = f1;
            obj.bounds = obj.model.bounds_around(f1, dt, dx);
            obj.last_solve_work = obj.mesh_cells(nt, nx);
        }
        slots
    }

    /// The current mesh resolution `(nt, nx)`.
    #[must_use]
    pub fn mesh(&self) -> (u32, u32) {
        (self.nt, self.nx)
    }

    /// The fitted error model (exposed for experiments and diagnostics).
    #[must_use]
    pub fn error_model(&self) -> &TwoTermErrorModel {
        &self.model
    }

    /// The problem being solved.
    #[must_use]
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Whether refinement stopped because the mesh cap was reached.
    #[must_use]
    pub fn capped(&self) -> bool {
        self.capped
    }

    fn steps(&self, nt: u32, nx: u32) -> (f64, f64) {
        let (lo, hi) = self.problem.domain();
        (
            self.problem.horizon() / f64::from(nt),
            (hi - lo) / f64::from(nx),
        )
    }

    fn mesh_cells(&self, nt: u32, nx: u32) -> Work {
        u64::from(nt) * (u64::from(nx) + 1)
    }

    fn cached(&self, nt: u32, nx: u32) -> Option<f64> {
        self.cache
            .iter()
            .find(|&&(a, b, _)| a == nt && b == nx)
            .map(|&(_, _, v)| v)
    }

    /// Solves at `(nt, nx)`, charging work only for cache misses.
    fn solve(&mut self, nt: u32, nx: u32, meter: &mut WorkMeter) -> Result<f64, SolveError> {
        if let Some(v) = self.cached(nt, nx) {
            meter.charge_get_state(1);
            return Ok(v);
        }
        let sol = solve_on_mesh(&self.problem, nx, nt, &self.config.solver)?;
        self.store(nt, nx, sol.value, sol.work, meter);
        Ok(sol.value)
    }

    /// Charges and caches one fresh solve.
    fn store(&mut self, nt: u32, nx: u32, value: f64, work: Work, meter: &mut WorkMeter) {
        meter.charge_exec(work);
        meter.charge_store_state(1);
        self.cumulative += work;
        self.cache.push((nt, nx, value));
    }

    /// Adopts the solution at the refined mesh `(nt, nx)` — one of the two
    /// counts doubled — as the current one: counts the iteration, re-fits
    /// the halved dimension's error coefficient and re-centers the bounds.
    fn accept(&mut self, nt: u32, nx: u32, new_value: f64, meter: &mut WorkMeter) -> Bounds {
        meter.count_iteration();
        let (old_dt, old_dx) = self.steps(self.nt, self.nx);
        if nt != self.nt {
            self.model.refit_k1(self.value, new_value, old_dt);
        } else {
            self.model.refit_k2(self.value, new_value, old_dx);
        }
        self.nt = nt;
        self.nx = nx;
        self.value = new_value;
        self.last_solve_work = self.mesh_cells(nt, nx);

        let (dt, dx) = self.steps(nt, nx);
        let fresh = self.model.bounds_around(new_value, dt, dx);
        // Successive bound sets are each individually valid; intersect to
        // shrink monotonically. If a bad early fit made them disjoint,
        // trust the finer solve.
        self.bounds = self.bounds.intersect(&fresh).unwrap_or(fresh);
        self.bounds
    }

    /// The mesh the next refinement would use, per the error model.
    fn next_mesh(&self) -> (u32, u32, StepKind) {
        let (dt, dx) = self.steps(self.nt, self.nx);
        match self.model.dominant_step(dt, dx) {
            StepKind::Time => (self.nt.saturating_mul(2), self.nx, StepKind::Time),
            StepKind::Space => (self.nt, self.nx.saturating_mul(2), StepKind::Space),
        }
    }

    fn refinement_possible(&self, nt: u32, nx: u32) -> bool {
        self.mesh_cells(nt, nx) <= self.config.solver.max_cells
            && nt < u32::MAX / 2
            && nx < u32::MAX / 2
    }
}

/// Problems per lane group of [`PdeResultObject::new_many`]. Pricing 500
/// bonds against one lone construction per bond (2-vCPU Xeon), groups of 8
/// run 4.0× faster, 16 5.0×, 32 5.2×, 64 5.1×, 128 4.3× and all 500 in
/// one group 3.1×: past 64 lanes the five planes of the finest trio mesh
/// (17 rows × 8 bytes × lanes each) outgrow L1.
pub(crate) const TRIO_LANES: usize = 64;

/// Kept `t = 0` trio columns for [`PdeResultObject::new_many_with`], by
/// problem index (its position in the `problems` it builds from) and mesh:
/// the columns a construction may commit instead of solving, and where it
/// lends the ones it solved.
pub trait TrioColumns {
    /// The column problem `index` solves to on `shape` (`shape.rows()`
    /// entries), if held. Asked once per slot and trio mesh that passed
    /// its checks; a column returned here is committed in place of the
    /// solve.
    fn held(&mut self, index: usize, shape: GridShape) -> Option<&[f64]>;

    /// The column problem `index` solved to on `shape`, dense; lent for
    /// the call, so a keeper copies what it keeps.
    fn keep(&mut self, index: usize, shape: GridShape, column: &[f64]);
}

/// Scratch of one [`PdeResultObject::new_many`] call, reused across its
/// groups and trio meshes.
#[derive(Default)]
struct TrioLanes {
    solver: BatchThomasSolver,
    src: Vec<f64>,
    state: Vec<f64>,
    /// Positions within the group of the slots solving this mesh.
    live: Vec<usize>,
    /// One lane's column, gathered dense to be lent.
    column: Vec<f64>,
}

impl TrioLanes {
    /// Solves `shape` for every slot of `group` still holding an object:
    /// the scalar checks per slot, then the column `columns` holds for the
    /// slot (the group's slot `j` is problem `base + j`) or else one
    /// lockstep solve of the slots that passed, each stored on its object
    /// — or the scalar error in its slot, with nothing charged for this
    /// mesh. A lane that solved lends its column to `columns`.
    fn solve<P: ParabolicPde>(
        &mut self,
        group: &mut [Result<PdeResultObject<P>, SolveError>],
        base: usize,
        shape: GridShape,
        config: &SolverConfig,
        mut columns: Option<&mut dyn TrioColumns>,
        meter: &mut WorkMeter,
    ) {
        self.live.clear();
        for (j, slot) in group.iter_mut().enumerate() {
            let Ok(obj) = slot else { continue };
            if let Err(e) = check_mesh(&obj.problem, shape.nx, shape.nt, config) {
                *slot = Err(e);
                continue;
            }
            match columns.as_deref_mut().and_then(|c| c.held(base + j, shape)) {
                Some(column) => {
                    let value = interpolate(&obj.problem, shape.nx, column, 1, 0);
                    obj.store(shape.nt, shape.nx, value, shape.cells(), meter);
                }
                None => self.live.push(j),
            }
        }
        let k = self.live.len();
        if k == 0 {
            return;
        }
        let plane = shape.rows() * k;
        self.src.resize(plane, 0.0);
        self.state.resize(plane, 0.0);
        let (src, state, live) = (&mut self.src[..plane], &mut self.state[..plane], &self.live);
        self.solver.factor(shape.rows(), k, |sub, diag, sup| {
            for (lane, &j) in live.iter().enumerate() {
                if let Ok(obj) = &group[j] {
                    let p = &obj.problem;
                    fill_mesh(p, shape.nx, shape.nt, sub, diag, sup, src, state, k, lane);
                }
            }
        });
        for _ in 0..shape.nt {
            self.solver.sweep(src, state);
        }
        for (lane, &j) in live.iter().enumerate() {
            let slot = &mut group[j];
            if let Some(row) = self.solver.first_bad_row(lane) {
                *slot = Err(SolveError::Singular(TridiagError::ZeroPivot { row }));
            } else if let Ok(obj) = slot {
                let value = interpolate(&obj.problem, shape.nx, state, k, lane);
                obj.store(shape.nt, shape.nx, value, shape.cells(), meter);
                if let Some(columns) = columns.as_deref_mut() {
                    self.column.clear();
                    self.column
                        .extend((0..shape.rows()).map(|i| state[i * k + lane]));
                    columns.keep(base + j, shape, &self.column);
                }
            }
        }
    }
}

impl<P: ParabolicPde> ResultObject for PdeResultObject<P> {
    fn bounds(&self) -> Bounds {
        self.bounds
    }

    fn min_width(&self) -> f64 {
        self.config.min_width
    }

    fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
        if self.converged() || self.capped {
            return self.bounds;
        }
        let (new_nt, new_nx, _) = self.next_mesh();
        if !self.refinement_possible(new_nt, new_nx) {
            self.capped = true;
            return self.bounds;
        }
        match self.solve(new_nt, new_nx, meter) {
            Ok(new_value) => self.accept(new_nt, new_nx, new_value, meter),
            Err(_) => {
                // A singular step at a finer mesh: stop refining rather
                // than report bogus bounds.
                self.capped = true;
                self.bounds
            }
        }
    }

    fn est_cpu(&self) -> Work {
        if self.converged() || self.capped {
            return 0;
        }
        let (nt, nx, _) = self.next_mesh();
        if self.cached(nt, nx).is_some() {
            1
        } else {
            self.mesh_cells(nt, nx)
        }
    }

    fn est_bounds(&self) -> Bounds {
        if self.converged() || self.capped {
            return self.bounds;
        }
        let (dt, dx) = self.steps(self.nt, self.nx);
        let (_, _, kind) = self.next_mesh();
        let predicted_value = self.model.predicted_value(self.value, dt, dx, kind);
        let (new_dt, new_dx) = match kind {
            StepKind::Time => (dt / 2.0, dx),
            StepKind::Space => (dt, dx / 2.0),
        };
        let predicted = self.model.bounds_around(predicted_value, new_dt, new_dx);
        predicted.intersect(&self.bounds).unwrap_or(predicted)
    }

    fn standalone_cost(&self) -> Work {
        self.last_solve_work
    }

    fn cumulative_cost(&self) -> Work {
        self.cumulative
    }

    fn batch_shape(&self) -> Option<GridShape> {
        self.lane_shape()
    }

    fn as_batch_lane(&mut self) -> Option<&mut dyn BatchLane> {
        Some(self)
    }
}

impl<P: ParabolicPde> BatchLane for PdeResultObject<P> {
    fn lane_shape(&self) -> Option<GridShape> {
        if self.converged() || self.capped {
            return None;
        }
        let (nt, nx, _) = self.next_mesh();
        if !self.refinement_possible(nt, nx) || self.cached(nt, nx).is_some() {
            return None;
        }
        Some(GridShape { nt, nx })
    }

    fn column_reusable(&self) -> bool {
        P::QUERY_FREE_COLUMN
    }

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
    ) {
        fill_mesh(
            &self.problem,
            shape.nx,
            shape.nt,
            sub,
            diag,
            sup,
            src,
            state,
            stride,
            offset,
        );
    }

    fn lane_commit(
        &mut self,
        shape: GridShape,
        state: &[f64],
        stride: usize,
        offset: usize,
        failure: Option<LaneFailure>,
        meter: &mut WorkMeter,
    ) -> Bounds {
        if self.converged() || self.capped {
            return self.bounds;
        }
        if failure.is_some() {
            // The scalar path's singular-solve handling: stop refining
            // rather than report bogus bounds, charging nothing.
            self.capped = true;
            return self.bounds;
        }
        let new_value = interpolate(&self.problem, shape.nx, state, stride, offset);
        let cells = self.mesh_cells(shape.nt, shape.nx);
        self.store(shape.nt, shape.nx, new_value, cells, meter);
        self.accept(shape.nt, shape.nx, new_value, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pde::problem::DecayProblem;

    fn decay() -> DecayProblem {
        DecayProblem {
            rate: 0.05,
            coupon: 5.0,
            terminal_value: 0.0,
            horizon: 10.0,
        }
    }

    fn make(config: PdeVaoConfig) -> (PdeResultObject<DecayProblem>, WorkMeter) {
        let mut meter = WorkMeter::new();
        let obj = PdeResultObject::new(decay(), config, &mut meter).unwrap();
        (obj, meter)
    }

    #[test]
    fn initial_bounds_are_coarse_and_contain_truth() {
        let (obj, meter) = make(PdeVaoConfig::default());
        let exact = decay().exact();
        assert!(
            obj.bounds().contains(exact),
            "bounds {} vs exact {exact}",
            obj.bounds()
        );
        assert!(!obj.converged());
        // Trio of solves was charged: (4,8), (8,8), (4,16).
        assert_eq!(meter.breakdown().exec_iter, 4 * 9 + 8 * 9 + 4 * 17);
    }

    #[test]
    fn iteration_refines_until_convergence() {
        let (mut obj, mut meter) = make(PdeVaoConfig::default());
        let exact = decay().exact();
        let mut last_width = obj.bounds().width();
        let mut guard = 0;
        while !obj.converged() {
            let b = obj.iterate(&mut meter);
            assert!(b.width() <= last_width + 1e-12, "bounds must not widen");
            last_width = b.width();
            guard += 1;
            assert!(guard < 60, "failed to converge");
        }
        assert!(obj.bounds().width() < 0.01);
        let mid = obj.bounds().mid();
        assert!(
            (mid - exact).abs() < 0.02,
            "converged mid {mid} vs exact {exact}"
        );
    }

    #[test]
    fn bounds_track_truth_through_refinement() {
        // The decay problem has zero spatial error and smooth temporal
        // error, so the fitted model is accurate and bounds stay sound.
        let (mut obj, mut meter) = make(PdeVaoConfig::default());
        let exact = decay().exact();
        for _ in 0..8 {
            if obj.converged() {
                break;
            }
            let b = obj.iterate(&mut meter);
            assert!(
                b.contains(exact) || (b.mid() - exact).abs() < 0.01,
                "bounds {b} lost the exact value {exact}"
            );
        }
    }

    #[test]
    fn per_iteration_work_roughly_doubles() {
        let (mut obj, _) = make(PdeVaoConfig::default());
        let mut costs = Vec::new();
        for _ in 0..6 {
            if obj.converged() {
                break;
            }
            let mut m = WorkMeter::new();
            obj.iterate(&mut m);
            if m.breakdown().exec_iter > 0 {
                costs.push(m.breakdown().exec_iter);
            }
        }
        assert!(costs.len() >= 3, "expected several charged iterations");
        for w in costs.windows(2) {
            let ratio = w[1] as f64 / w[0] as f64;
            assert!(
                (1.5..=2.6).contains(&ratio),
                "cost should ~double: {costs:?}"
            );
        }
    }

    #[test]
    fn est_cpu_predicts_next_iteration_cost() {
        let (mut obj, _) = make(PdeVaoConfig::default());
        for _ in 0..4 {
            if obj.converged() {
                break;
            }
            let est = obj.est_cpu();
            let mut m = WorkMeter::new();
            obj.iterate(&mut m);
            let actual = m.breakdown().exec_iter;
            if actual > 0 && est > 1 {
                assert_eq!(est, actual, "estCPU must match a cache-missing solve");
            }
        }
    }

    #[test]
    fn est_bounds_are_a_reasonable_preview() {
        let (mut obj, mut meter) = make(PdeVaoConfig::default());
        // Skip cache-hit iterations (their est is trivial), then compare.
        for _ in 0..3 {
            obj.iterate(&mut meter);
        }
        if !obj.converged() {
            let est = obj.est_bounds();
            let actual = obj.iterate(&mut meter);
            // The prediction should at least narrow in the right ballpark:
            // within a factor of 4 of the realized width.
            if actual.width() > 0.0 && est.width() > 0.0 {
                let ratio = est.width() / actual.width();
                assert!(
                    (0.2..=5.0).contains(&ratio),
                    "est width {} vs actual {}",
                    est.width(),
                    actual.width()
                );
            }
        }
    }

    #[test]
    fn converged_object_stops_charging() {
        let (mut obj, mut meter) = make(PdeVaoConfig::default());
        let mut guard = 0;
        while !obj.converged() && guard < 60 {
            obj.iterate(&mut meter);
            guard += 1;
        }
        assert!(obj.converged());
        let before = meter.total();
        let b1 = obj.bounds();
        let b2 = obj.iterate(&mut meter);
        assert_eq!(b1, b2);
        assert_eq!(meter.total(), before);
        assert_eq!(obj.est_cpu(), 0);
        assert_eq!(obj.est_bounds(), b1);
    }

    #[test]
    fn mesh_cap_stalls_gracefully() {
        let config = PdeVaoConfig {
            min_width: 1e-12, // unreachable
            solver: SolverConfig { max_cells: 2000 },
            ..PdeVaoConfig::default()
        };
        let (mut obj, mut meter) = make(config);
        for _ in 0..40 {
            obj.iterate(&mut meter);
        }
        assert!(obj.capped());
        let before = meter.total();
        obj.iterate(&mut meter);
        assert_eq!(meter.total(), before, "capped object charges nothing");
    }

    #[test]
    fn standalone_cost_is_one_fine_solve() {
        let (mut obj, mut meter) = make(PdeVaoConfig::default());
        while !obj.converged() && !obj.capped() {
            obj.iterate(&mut meter);
        }
        assert!(obj.converged());
        let (nt, nx) = obj.mesh();
        assert_eq!(obj.standalone_cost(), u64::from(nt) * (u64::from(nx) + 1));
        // §4.1: the iterative path costs at most a small multiple of the
        // single fine solve (geometric doubling gives ~2x, plus the trio).
        assert!(obj.cumulative_cost() <= 4 * obj.standalone_cost());
    }

    #[test]
    fn trio_cache_hits_make_early_iterations_cheap() {
        // The first refinement halves a step whose half-size solution was
        // already computed by the construction trio: it must cost ~nothing.
        let (mut obj, _) = make(PdeVaoConfig::default());
        let mut m = WorkMeter::new();
        obj.iterate(&mut m);
        assert_eq!(
            m.breakdown().exec_iter,
            0,
            "first refinement is a cache hit"
        );
        assert_eq!(m.iterations(), 1);
    }
}
