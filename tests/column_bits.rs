//! The column contract: a bond's `t = 0` column at a mesh is the same at
//! every rate, and committing it is the refinement.
//!
//! The server keeps the columns its lane solves produce and commits a later
//! refinement at the same mesh from one, at whatever rate the tick prices.
//! That is sound only if (1) the column a lane solve lends back at rate B
//! is, bit for bit, the column it would have solved at rate A, and (2) its
//! one-lane commit (`lane_commit(shape, column, 1, 0, None, meter)`) leaves
//! the object exactly as the fresh solve at A does: bounds, `est_cpu`,
//! `est_bounds`, `cumulative_cost`, and every meter charge. Both are
//! checked here at every mesh of eight bonds' refinement paths to
//! convergence, against scalar `iterate()`, beside the one-lane batched
//! solve the server runs on a miss — and a problem without the
//! query-free marker never lends a column at all.

use vao_repro::bondlab::{BondPde, BondPricer, BondUniverse};
use vao_repro::numerics::pde::problem::DecayProblem;
use vao_repro::numerics::pde::{
    step_batch, step_batch_keeping, ParabolicPde, PdeResultObject, PdeVaoConfig,
};
use vao_repro::vao::batch::{BatchLane, GridShape, LaneFailure};
use vao_repro::vao::cost::WorkMeter;
use vao_repro::vao::interface::ResultObject;
use vao_repro::vao::Bounds;

const RATE_A: f64 = 0.0583;
const RATE_B: f64 = 0.0412;

/// A lane view of `obj` that solves `shape` whatever `obj`'s own next mesh
/// is, and commits nothing: the way to lend back the column `obj`'s
/// problem solves to at any mesh.
struct AtShape<'a, P: ParabolicPde> {
    obj: &'a PdeResultObject<P>,
    shape: GridShape,
}

impl<P: ParabolicPde> BatchLane for AtShape<'_, P> {
    fn lane_shape(&self) -> Option<GridShape> {
        Some(self.shape)
    }

    fn column_reusable(&self) -> bool {
        self.obj.column_reusable()
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
        self.obj
            .lane_init(shape, sub, diag, sup, src, state, stride, offset);
    }

    fn lane_commit(
        &mut self,
        _: GridShape,
        _: &[f64],
        _: usize,
        _: usize,
        _: Option<LaneFailure>,
        _: &mut WorkMeter,
    ) -> Bounds {
        self.obj.bounds()
    }
}

/// The column `obj`'s problem solves to on `shape`, as a lane solve lends
/// it back; `None` if it lends none.
fn column_of<P: ParabolicPde>(obj: &PdeResultObject<P>, shape: GridShape) -> Option<Box<[f64]>> {
    let mut lane = AtShape { obj, shape };
    let mut lanes: Vec<&mut dyn BatchLane> = vec![&mut lane];
    let mut column = None;
    let mut keep = |_: usize, c: Box<[f64]>| column = Some(c);
    step_batch_keeping(shape, &mut lanes, &mut [WorkMeter::new()], Some(&mut keep));
    column
}

/// Everything the contract compares, as bits.
fn state<P: ParabolicPde>(obj: &PdeResultObject<P>, meter: &WorkMeter) -> String {
    let bits = |b: Bounds| (b.lo().to_bits(), b.hi().to_bits());
    format!(
        "bounds={:?} est_cpu={} est_bounds={:?} cumulative={} mesh={:?} work={:?} iterations={}",
        bits(obj.bounds()),
        obj.est_cpu(),
        bits(obj.est_bounds()),
        obj.cumulative_cost(),
        obj.mesh(),
        meter.breakdown(),
        meter.iterations()
    )
}

#[test]
fn a_column_solved_at_another_rate_commits_like_a_fresh_solve() {
    let pricer = BondPricer::default();
    let universe = BondUniverse::generate(500, 1994);
    let mut meshes = 0;
    for bond in universe.bonds().iter().step_by(63).copied() {
        let mut m = WorkMeter::new();
        // Three objects at rate A: refined by scalar iterate(), by a
        // one-lane batched solve, and from rate B's column.
        let (mut fresh, mut lane, mut served) = (
            pricer.price(bond, RATE_A, &mut m),
            pricer.price(bond, RATE_A, &mut m),
            pricer.price(bond, RATE_A, &mut m),
        );
        let other = pricer.price(bond, RATE_B, &mut m);
        let [mut mf, mut ml, mut ms] = [WorkMeter::new(), WorkMeter::new(), WorkMeter::new()];
        let mut steps = 0;
        while !fresh.converged() && !fresh.capped() {
            let shape = fresh.batch_shape();
            fresh.iterate(&mut mf);
            match shape {
                Some(shape) => {
                    meshes += 1;
                    assert_eq!(lane.batch_shape(), Some(shape));
                    let mut lanes: Vec<&mut dyn BatchLane> = vec![&mut lane];
                    step_batch(shape, &mut lanes, std::slice::from_mut(&mut ml));

                    let column = column_of(&other, shape).expect("a bond's column is lent");
                    assert_eq!(
                        column_of(&fresh, shape).expect("and at rate A"),
                        column,
                        "bond {} mesh {shape}: the column depends on the rate",
                        bond.id
                    );
                    assert_eq!(column.len(), shape.rows());
                    served.lane_commit(shape, &column, 1, 0, None, &mut ms);
                }
                // A trio cache hit: no solve to batch or serve.
                None => {
                    lane.iterate(&mut ml);
                    served.iterate(&mut ms);
                }
            }
            let want = state(&fresh, &mf);
            assert_eq!(state(&lane, &ml), want, "bond {} step {steps}", bond.id);
            assert_eq!(state(&served, &ms), want, "bond {} step {steps}", bond.id);
            steps += 1;
            assert!(steps < 64, "bond {} failed to converge", bond.id);
        }
        assert!(fresh.converged(), "bond {} capped", bond.id);
    }
    assert!(meshes >= 8 * 4, "only {meshes} fresh meshes on the paths");
}

#[test]
fn only_marked_problems_lend_their_columns() {
    const { assert!(BondPde::QUERY_FREE_COLUMN && !DecayProblem::QUERY_FREE_COLUMN) };
    let decay = DecayProblem {
        rate: 0.03,
        coupon: 4.0,
        terminal_value: 100.0,
        horizon: 5.0,
    };
    let mut meter = WorkMeter::new();
    let mut obj = PdeResultObject::new(decay, PdeVaoConfig::default(), &mut meter).unwrap();
    while !obj.converged() && obj.batch_shape().is_none() {
        obj.iterate(&mut meter);
    }
    assert!(!obj.column_reusable());
    let shape = obj.batch_shape().expect("the object reaches a fresh solve");
    assert_eq!(column_of(&obj, shape), None);

    // The real lane, too: it solves and commits, and lends nothing.
    let mut lent = 0;
    let mut keep = |_: usize, _: Box<[f64]>| lent += 1;
    let mut lanes: Vec<&mut dyn BatchLane> = vec![&mut obj];
    step_batch_keeping(shape, &mut lanes, &mut [WorkMeter::new()], Some(&mut keep));
    assert_eq!(lent, 0);
    assert_ne!(
        obj.batch_shape(),
        Some(shape),
        "the lane committed its solve"
    );
}
