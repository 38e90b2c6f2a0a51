//! Lockstep batched execution of shape-grouped PDE refinements.
//!
//! One `iterate()` of a [`PdeResultObject`] is one fresh mesh solve: `nt`
//! backward time steps, each a tridiagonal solve over `nx + 1` mesh
//! columns. When K objects' next solves share a [`GridShape`], this module
//! advances all K in lockstep: their bands, sources and states live as
//! interleaved lanes in struct-of-arrays planes. The bands are factored
//! once, and every time step is then **one** lane-parallel
//! [`BatchThomasSolver::sweep`] over the state plane, with no call into
//! any lane.
//!
//! Per lane, the arithmetic is exactly the scalar
//! [`solve_on_mesh`](crate::pde::solver::solve_on_mesh) sequence in the
//! same order, so committed values, bounds and meter charges are
//! bit-identical to K independent `iterate()` calls. A lane whose system
//! is singular is isolated: the factorization records its first zero
//! pivot, the sweeps keep computing through its (garbage, but IEEE-safe)
//! entries, and the lane's [`BatchLane::lane_commit`] receives the failure
//! so the object degrades exactly as its scalar path would — sibling lanes
//! never notice.
//!
//! [`PdeResultObject`]: crate::pde::vao::PdeResultObject

use vao::batch::{BatchLane, GridShape, LaneFailure};
use vao::cost::WorkMeter;
use vao::Bounds;

use crate::tridiag::BatchThomasSolver;

/// Advances every lane through one full refinement solve (`shape.nt` time
/// steps in lockstep), committing each lane's result on its own meter, and
/// returns the per-lane post-commit bounds in lane order.
///
/// Every lane must currently report `lane_shape() == Some(shape)`; the
/// caller (e.g. the server's round scheduler) is responsible for grouping.
/// A lane whose system is singular is committed with its [`LaneFailure`]
/// instead of a value.
///
/// # Panics
///
/// Panics if `lanes` and `meters` have different lengths.
pub fn step_batch(
    shape: GridShape,
    lanes: &mut [&mut dyn BatchLane],
    meters: &mut [WorkMeter],
) -> Vec<Bounds> {
    step_batch_keeping(shape, lanes, meters, None)
}

/// What [`step_batch_keeping`] lends each kept lane's column to:
/// `(lane index, column)`, the column valid for the call.
pub type KeepColumn<'a> = dyn FnMut(usize, &[f64]) + 'a;

/// [`step_batch`], also lending `keep` the finished `t = 0` column of
/// every lane that solved (no [`LaneFailure`]) and reports
/// [`BatchLane::column_reusable`], as `(lane index, column)` with the
/// column's `shape.rows()` entries dense (lent for the call). Committing that column later
/// with `lane_commit(shape, &column, 1, 0, None, meter)` is what the
/// lane's commit here did, bit for bit: same interpolation, same charges.
///
/// # Panics
///
/// Panics if `lanes` and `meters` have different lengths.
pub fn step_batch_keeping(
    shape: GridShape,
    lanes: &mut [&mut dyn BatchLane],
    meters: &mut [WorkMeter],
    mut keep: Option<&mut KeepColumn<'_>>,
) -> Vec<Bounds> {
    assert_eq!(lanes.len(), meters.len(), "one meter per lane");
    let k = lanes.len();
    if k == 0 {
        return Vec::new();
    }
    debug_assert!(
        lanes.iter().all(|l| l.lane_shape() == Some(shape)),
        "every lane must agree on the group shape"
    );

    let rows = shape.rows();
    let mut src = vec![0.0; rows * k];
    let mut state = vec![0.0; rows * k];
    let mut column = Vec::new();
    let mut solver = BatchThomasSolver::new();
    solver.factor(rows, k, |sub, diag, sup| {
        for (idx, lane) in lanes.iter().enumerate() {
            lane.lane_init(shape, sub, diag, sup, &mut src, &mut state, k, idx);
        }
    });
    for _ in 0..shape.nt {
        solver.sweep(&src, &mut state);
    }

    lanes
        .iter_mut()
        .zip(meters.iter_mut())
        .enumerate()
        .map(|(idx, (lane, meter))| {
            let failure = solver.first_bad_row(idx).map(|row| LaneFailure { row });
            if let Some(keep) = keep.as_deref_mut() {
                if failure.is_none() && lane.column_reusable() {
                    column.clear();
                    column.extend((0..rows).map(|i| state[i * k + idx]));
                    keep(idx, &column);
                }
            }
            lane.lane_commit(shape, &state, k, idx, failure, meter)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pde::extrapolation::TwoTermErrorModel;
    use crate::pde::problem::{DecayProblem, ParabolicPde};
    use crate::pde::solver::{solve_on_mesh, SolveError, SolverConfig};
    use crate::pde::vao::{PdeResultObject, PdeVaoConfig, TRIO_LANES};
    use crate::tridiag::TridiagError;
    use vao::cost::WorkBreakdown;
    use vao::interface::ResultObject;

    fn problems() -> Vec<DecayProblem> {
        (0..6)
            .map(|i| DecayProblem {
                rate: 0.03 + 0.01 * f64::from(i),
                coupon: 4.0 + f64::from(i),
                terminal_value: 100.0,
                horizon: 5.0 + 2.5 * f64::from(i),
            })
            .collect()
    }

    /// Builds the object and drains the trio's cache-hit refinements so
    /// the next iterate() is a fresh, batchable solve.
    fn fresh<P: ParabolicPde>(p: P) -> PdeResultObject<P> {
        let mut meter = WorkMeter::new();
        let mut obj = PdeResultObject::new(p, PdeVaoConfig::default(), &mut meter).unwrap();
        while !obj.converged() && obj.batch_shape().is_none() {
            obj.iterate(&mut meter);
        }
        assert!(obj.batch_shape().is_some(), "object must become batchable");
        obj
    }

    fn fresh_objects() -> Vec<PdeResultObject<DecayProblem>> {
        problems().into_iter().map(fresh).collect()
    }

    /// A decay problem that is singular on exactly the meshes with
    /// `nt == nt_star`: the discount at the lower boundary is
    /// `−nt_star/horizon`, so there `Δt·r = −1` and, with no drift,
    /// `diag[0] = 1 + Δt·r` is zero. `horizon` and `nt_star` are powers of
    /// two, which makes that cancellation exact and every other `nt`
    /// regular. Without diffusion or drift the columns do not couple, so
    /// away from that boundary this is the plain decay problem.
    #[derive(Clone, Copy)]
    struct SingularAt {
        decay: DecayProblem,
        nt_star: u32,
    }

    impl ParabolicPde for SingularAt {
        fn domain(&self) -> (f64, f64) {
            self.decay.domain()
        }
        fn horizon(&self) -> f64 {
            self.decay.horizon
        }
        fn diffusion(&self, _: f64) -> f64 {
            0.0
        }
        fn drift(&self, _: f64) -> f64 {
            0.0
        }
        fn discount(&self, x: f64) -> f64 {
            if x == self.domain().0 {
                -f64::from(self.nt_star) / self.decay.horizon
            } else {
                self.decay.rate
            }
        }
        fn source(&self, x: f64) -> f64 {
            self.decay.source(x)
        }
        fn terminal(&self, x: f64) -> f64 {
            self.decay.terminal(x)
        }
        fn x_query(&self) -> f64 {
            self.decay.x_query()
        }
    }

    fn singular_at(nt_star: u32) -> SingularAt {
        SingularAt {
            decay: DecayProblem {
                rate: 0.05,
                coupon: 6.0,
                terminal_value: 100.0,
                horizon: 8.0,
            },
            nt_star,
        }
    }

    #[test]
    fn singular_lane_caps_alone_and_siblings_match_scalar() {
        // The first fresh solve of every default-config object is this
        // shape; the planted problem is singular exactly there.
        let shape = fresh_objects()[0].batch_shape().unwrap();
        let planted = || fresh(singular_at(shape.nt));
        assert_eq!(planted().batch_shape(), Some(shape));

        // The factorization names the row the per-step elimination named.
        assert_eq!(
            solve_on_mesh(
                &singular_at(shape.nt),
                shape.nx,
                shape.nt,
                &SolverConfig::default()
            ),
            Err(SolveError::Singular(TridiagError::ZeroPivot { row: 0 }))
        );
        assert!(solve_on_mesh(
            &singular_at(shape.nt),
            shape.nx,
            shape.nt * 2,
            &SolverConfig::default()
        )
        .is_ok());

        // Scalar: capped, bounds unchanged, nothing charged.
        let mut scalar_bad = planted();
        let before = scalar_bad.bounds();
        let mut meter = WorkMeter::new();
        assert_eq!(scalar_bad.iterate(&mut meter), before);
        assert!(scalar_bad.capped());
        assert_eq!(meter.total(), 0);
        assert_eq!(meter.iterations(), 0);

        // Lane: the same, between two siblings that must not notice.
        let mut scalar = fresh_objects();
        let mut siblings = fresh_objects();
        let mut bad = planted();
        let mut meters = vec![WorkMeter::new(); 3];
        let (left, right) = siblings.split_at_mut(1);
        let mut lanes: Vec<&mut dyn BatchLane> = vec![&mut left[0], &mut bad, &mut right[0]];
        let bounds = step_batch(shape, &mut lanes, &mut meters);
        drop(lanes);

        assert_eq!(bounds[1], before);
        assert_eq!(bad.bounds().lo().to_bits(), before.lo().to_bits());
        assert_eq!(bad.bounds().hi().to_bits(), before.hi().to_bits());
        assert!(bad.capped());
        assert_eq!(bad.mesh(), scalar_bad.mesh());
        assert_eq!(bad.cumulative_cost(), scalar_bad.cumulative_cost());
        assert_eq!(meters[1].total(), 0);
        assert_eq!(meters[1].iterations(), 0);

        for (lane, i) in [(0usize, 0usize), (2, 1)] {
            let mut m = WorkMeter::new();
            let expect = scalar[i].iterate(&mut m);
            assert_eq!(bounds[lane].lo().to_bits(), expect.lo().to_bits());
            assert_eq!(bounds[lane].hi().to_bits(), expect.hi().to_bits());
            assert_eq!(siblings[i].mesh(), scalar[i].mesh());
            assert_eq!(meters[lane].breakdown(), m.breakdown());
            assert_eq!(meters[lane].iterations(), m.iterations());
        }
    }

    /// A lone construction's trio, rebuilt from three scalar solves: the
    /// bounds it fits, or the first solve's error, and what it charged.
    fn scalar_trio<P: ParabolicPde>(
        p: &P,
        config: &PdeVaoConfig,
    ) -> (Result<Bounds, SolveError>, WorkBreakdown) {
        let (nt, nx) = (config.initial_nt, config.initial_nx);
        let mut meter = WorkMeter::new();
        let mut f = Vec::new();
        for (t, x) in [(nt, nx), (2 * nt, nx), (nt, 2 * nx)] {
            match solve_on_mesh(p, x, t, &config.solver) {
                Ok(sol) => {
                    meter.charge_exec(sol.work);
                    meter.charge_store_state(1);
                    f.push(sol.value);
                }
                Err(e) => return (Err(e), meter.breakdown()),
            }
        }
        let (lo, hi) = p.domain();
        let (dt, dx) = (p.horizon() / f64::from(nt), (hi - lo) / f64::from(nx));
        let model = TwoTermErrorModel::fit(f[0], f[1], f[2], dt, dx, config.safety);
        (Ok(model.bounds_around(f[0], dt, dx)), meter.breakdown())
    }

    /// Builds every problem's object in one [`PdeResultObject::new_many`]
    /// and checks each slot against its scalar trio, and the meter against
    /// the sum of the scalar charges. Returns the slots.
    fn trio_matches_scalar<P: ParabolicPde + Clone>(
        problems: &[P],
        config: PdeVaoConfig,
    ) -> Vec<Result<PdeResultObject<P>, SolveError>> {
        let mut meter = WorkMeter::new();
        let slots = PdeResultObject::new_many(problems.to_vec(), config, &mut meter);
        assert_eq!(slots.len(), problems.len());
        let mut charged = WorkBreakdown::default();
        for (i, (slot, p)) in slots.iter().zip(problems).enumerate() {
            let (want, work) = scalar_trio(p, &config);
            charged += work;
            match (slot, want) {
                (Ok(obj), Ok(b)) => {
                    assert_eq!(obj.bounds().lo().to_bits(), b.lo().to_bits(), "slot {i}");
                    assert_eq!(obj.bounds().hi().to_bits(), b.hi().to_bits(), "slot {i}");
                    assert_eq!(obj.cumulative_cost(), work.exec_iter, "slot {i}");
                }
                (Err(got), Err(want)) => assert_eq!(*got, want, "slot {i}"),
                (got, want) => panic!("slot {i}: ok {} vs scalar {want:?}", got.is_ok()),
            }
        }
        assert_eq!(meter.breakdown(), charged, "the sum of the scalar charges");
        slots
    }

    #[test]
    fn trio_lanes_fail_a_singular_slot_alone_and_siblings_match_scalar() {
        let config = PdeVaoConfig::default();
        let (nt, nx) = (config.initial_nt, config.initial_nx);
        // Regular at every trio mesh: their boundary pivot is `1 − 1/nt`.
        let sibling = |i: usize| SingularAt {
            decay: problems()[i],
            nt_star: 1,
        };
        // Singular at the first trio mesh, then at the second: the failed
        // slot charges nothing, then the first mesh it did solve.
        for (nt_star, exec, stores) in [(nt, 0, 0), (2 * nt, u64::from(nt * (nx + 1)), 1)] {
            let slots =
                trio_matches_scalar(&[sibling(0), singular_at(nt_star), sibling(1)], config);
            assert!(slots[0].is_ok() && slots[2].is_ok());
            assert_eq!(
                slots[1].as_ref().err(),
                Some(&SolveError::Singular(TridiagError::ZeroPivot { row: 0 }))
            );
            let mut alone = WorkMeter::new();
            let _ = PdeResultObject::new_many([singular_at(nt_star)], config, &mut alone);
            assert_eq!(
                alone.breakdown(),
                WorkBreakdown {
                    exec_iter: exec,
                    store_state: stores,
                    ..WorkBreakdown::default()
                }
            );
        }
    }

    #[test]
    fn trio_lanes_over_the_cell_cap_fail_every_slot_like_scalar() {
        // The first trio mesh (4 × 9 = 36 cells) fits, the second (72) not.
        let config = PdeVaoConfig {
            solver: SolverConfig { max_cells: 40 },
            ..PdeVaoConfig::default()
        };
        let slots = trio_matches_scalar(&problems(), config);
        for slot in &slots {
            assert_eq!(
                slot.as_ref().err(),
                Some(&SolveError::BadMesh { cells: 72, max: 40 })
            );
        }
    }

    #[test]
    fn trio_lanes_across_groups_match_scalar() {
        // Two full groups and a remainder, every problem distinct.
        let many: Vec<DecayProblem> = (0..2 * TRIO_LANES + 3)
            .map(|i| DecayProblem {
                rate: 0.01 + 0.0007 * i as f64,
                coupon: 3.0 + 0.05 * i as f64,
                terminal_value: 100.0,
                horizon: 1.0 + 0.2 * i as f64,
            })
            .collect();
        let slots = trio_matches_scalar(&many, PdeVaoConfig::default());
        assert!(slots.iter().all(Result::is_ok));
    }

    #[test]
    fn trio_lanes_of_nothing_are_nothing() {
        let mut meter = WorkMeter::new();
        let none: [DecayProblem; 0] = [];
        assert!(PdeResultObject::new_many(none, PdeVaoConfig::default(), &mut meter).is_empty());
        assert_eq!(meter.breakdown(), WorkBreakdown::default());
    }

    #[test]
    fn lockstep_solve_is_bit_identical_to_scalar_iterates() {
        let mut scalar = fresh_objects();
        let mut batched = fresh_objects();

        // All decay problems share the mesh schedule, hence the shape.
        let shape = batched[0].batch_shape().unwrap();
        for obj in &batched {
            assert_eq!(obj.batch_shape(), Some(shape));
        }

        let mut scalar_meters: Vec<WorkMeter> = scalar.iter().map(|_| WorkMeter::new()).collect();
        let scalar_bounds: Vec<Bounds> = scalar
            .iter_mut()
            .zip(scalar_meters.iter_mut())
            .map(|(obj, m)| obj.iterate(m))
            .collect();

        let mut meters: Vec<WorkMeter> = batched.iter().map(|_| WorkMeter::new()).collect();
        let mut lanes: Vec<&mut dyn BatchLane> = batched
            .iter_mut()
            .map(|o| o as &mut dyn BatchLane)
            .collect();
        let batch_bounds = step_batch(shape, &mut lanes, &mut meters);
        drop(lanes);

        for i in 0..scalar.len() {
            assert_eq!(
                scalar_bounds[i].lo().to_bits(),
                batch_bounds[i].lo().to_bits(),
                "lane {i} lower bound"
            );
            assert_eq!(
                scalar_bounds[i].hi().to_bits(),
                batch_bounds[i].hi().to_bits(),
                "lane {i} upper bound"
            );
            assert_eq!(scalar[i].mesh(), batched[i].mesh());
            assert_eq!(scalar[i].est_cpu(), batched[i].est_cpu());
            assert_eq!(
                scalar_meters[i].breakdown(),
                meters[i].breakdown(),
                "lane {i} charges its own meter exactly like scalar"
            );
            assert_eq!(scalar_meters[i].iterations(), meters[i].iterations());
        }
    }

    #[test]
    fn batched_refinement_to_convergence_matches_scalar() {
        // Drive one batched and one scalar population all the way down and
        // compare the final converged bounds bitwise.
        let mut scalar = fresh_objects();
        let mut meter = WorkMeter::new();
        for obj in &mut scalar {
            let mut guard = 0;
            while !obj.converged() {
                obj.iterate(&mut meter);
                guard += 1;
                assert!(guard < 64, "scalar object failed to converge");
            }
        }

        let mut batched = fresh_objects();
        let mut guard = 0;
        loop {
            // Group by shape each round, batch the groups, scalar-step the
            // stragglers — a miniature of the server's dispatch.
            let mut by_shape: Vec<(GridShape, Vec<usize>)> = Vec::new();
            for (i, obj) in batched.iter().enumerate() {
                if let Some(s) = obj.batch_shape() {
                    match by_shape.iter_mut().find(|(g, _)| *g == s) {
                        Some((_, v)) => v.push(i),
                        None => by_shape.push((s, vec![i])),
                    }
                }
            }
            if by_shape.is_empty() {
                for obj in &mut batched {
                    if !obj.converged() {
                        obj.iterate(&mut meter);
                    }
                }
                if batched.iter().all(|o| o.converged()) {
                    break;
                }
            }
            for (shape, idxs) in by_shape {
                let mut meters: Vec<WorkMeter> = idxs.iter().map(|_| WorkMeter::new()).collect();
                let mut taken: Vec<&mut PdeResultObject<DecayProblem>> = Vec::new();
                let mut rest = batched.as_mut_slice();
                let mut consumed = 0;
                for &i in &idxs {
                    let (head, tail) = rest.split_at_mut(i - consumed + 1);
                    taken.push(&mut head[i - consumed]);
                    consumed = i + 1;
                    rest = tail;
                }
                let mut lanes: Vec<&mut dyn BatchLane> =
                    taken.into_iter().map(|o| o as &mut dyn BatchLane).collect();
                step_batch(shape, &mut lanes, &mut meters);
            }
            guard += 1;
            assert!(guard < 64, "batched population failed to converge");
        }

        for (s, b) in scalar.iter().zip(&batched) {
            assert_eq!(s.bounds().lo().to_bits(), b.bounds().lo().to_bits());
            assert_eq!(s.bounds().hi().to_bits(), b.bounds().hi().to_bits());
            assert_eq!(s.mesh(), b.mesh());
            assert_eq!(s.cumulative_cost(), b.cumulative_cost());
        }
    }

    #[test]
    fn empty_group_is_a_no_op() {
        let mut lanes: Vec<&mut dyn BatchLane> = Vec::new();
        let mut meters: Vec<WorkMeter> = Vec::new();
        let out = step_batch(GridShape { nt: 4, nx: 8 }, &mut lanes, &mut meters);
        assert!(out.is_empty());
    }
}
