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
//!
//! The construction trio keeps its columns too: a relation priced through
//! `PdeResultObject::new_many_with` at rate B from the trio columns solved
//! at rate A must be, object for object and charge for charge, the
//! relation priced fresh at B. Every check a slot makes still comes first,
//! so a failing slot fails as it does with nothing held, and a singular
//! slot's column is never kept.

use vao_repro::bondlab::{BondPde, BondPricer, BondUniverse};
use vao_repro::numerics::pde::problem::DecayProblem;
use vao_repro::numerics::pde::solver::SolveError;
use vao_repro::numerics::pde::{
    step_batch, step_batch_keeping, ParabolicPde, PdeResultObject, PdeVaoConfig, SolverConfig,
    TrioColumns,
};
use vao_repro::numerics::tridiag::TridiagError;
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
    let mut keep = |_: usize, c: &[f64]| column = Some(c.into());
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
    let mut keep = |_: usize, _: &[f64]| lent += 1;
    let mut lanes: Vec<&mut dyn BatchLane> = vec![&mut obj];
    step_batch_keeping(shape, &mut lanes, &mut [WorkMeter::new()], Some(&mut keep));
    assert_eq!(lent, 0);
    assert_ne!(
        obj.batch_shape(),
        Some(shape),
        "the lane committed its solve"
    );
}

/// Trio columns by problem index, with every question asked of them.
#[derive(Default)]
struct Held {
    columns: Vec<(usize, GridShape, Box<[f64]>)>,
    /// Every `held` question, in order.
    asked: Vec<(usize, GridShape)>,
    /// Answer every question with a column of `rows` zeros instead.
    any: Option<Box<[f64]>>,
    kept: Vec<(usize, GridShape)>,
}

impl TrioColumns for Held {
    fn held(&mut self, index: usize, shape: GridShape) -> Option<&[f64]> {
        self.asked.push((index, shape));
        if let Some(any) = &self.any {
            return Some(&any[..shape.rows()]);
        }
        self.columns
            .iter()
            .find(|&&(i, s, _)| i == index && s == shape)
            .map(|(_, _, c)| &**c)
    }

    fn keep(&mut self, index: usize, shape: GridShape, column: &[f64]) {
        self.kept.push((index, shape));
        self.columns.push((index, shape, column.into()));
    }
}

/// Every bond of the 500-bond universe at `step` apart: 63 is more than one
/// trio lane group (64), so the held columns' indices cross a group.
fn trio_bonds(step: usize) -> Vec<vao_repro::bondlab::Bond> {
    BondUniverse::generate(500, 1994)
        .bonds()
        .iter()
        .step_by(step)
        .copied()
        .collect()
}

#[test]
fn a_trio_column_solved_at_one_rate_serves_another_bit_for_bit() {
    let pricer = BondPricer::default();
    let bonds = trio_bonds(7);
    assert!(bonds.len() > 64);
    let mut at_a = Held::default();
    let _ = pricer.price_many_with(&bonds, RATE_A, Some(&mut at_a), &mut WorkMeter::new());
    assert_eq!(at_a.kept.len(), 3 * bonds.len(), "every trio mesh is lent");

    // Rate B's own solves lend the same columns, bit for bit.
    let mut at_b = Held::default();
    let _ = pricer.price_many_with(&bonds, RATE_B, Some(&mut at_b), &mut WorkMeter::new());
    assert_eq!(at_b.kept, at_a.kept);
    for ((_, _, a), (_, _, b)) in at_a.columns.iter().zip(&at_b.columns) {
        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "a trio column depends on the rate");
    }

    // Rate B priced from rate A's columns is rate B priced fresh.
    let (mut mf, mut ms) = (WorkMeter::new(), WorkMeter::new());
    let mut fresh = pricer.price_many(&bonds, RATE_B, &mut mf);
    at_a.asked.clear();
    at_a.kept.clear();
    let mut served = pricer.price_many_with(&bonds, RATE_B, Some(&mut at_a), &mut ms);
    assert_eq!(at_a.asked.len(), 3 * bonds.len());
    assert!(at_a.kept.is_empty(), "a served slot solves nothing");
    assert_eq!(ms.breakdown(), mf.breakdown());
    assert_eq!(ms.iterations(), mf.iterations());
    let none = WorkMeter::new();
    for (i, (f, s)) in fresh.iter_mut().zip(&mut served).enumerate() {
        assert_eq!(state(s, &none), state(f, &none), "bond {i}");
        // The trio's cached values are what later refinements read.
        if i % 8 == 0 {
            let (mut mf, mut ms) = (WorkMeter::new(), WorkMeter::new());
            let mut steps = 0;
            while !f.converged() && !f.capped() {
                f.iterate(&mut mf);
                s.iterate(&mut ms);
                assert_eq!(state(s, &ms), state(f, &mf), "bond {i} step {steps}");
                steps += 1;
                assert!(steps < 64, "bond {i} failed to converge");
            }
        }
    }
}

#[test]
fn an_unmarked_problem_neither_reads_nor_keeps_trio_columns() {
    let decay = |i: u32| DecayProblem {
        rate: 0.03 + 0.01 * f64::from(i),
        coupon: 4.0 + f64::from(i),
        terminal_value: 100.0,
        horizon: 5.0 + f64::from(i),
    };
    let problems: Vec<DecayProblem> = (0..5).map(decay).collect();
    let config = PdeVaoConfig::default();
    let mut everything = Held {
        any: Some(vec![0.0; 64].into()),
        ..Held::default()
    };
    let (mut mf, mut ms) = (WorkMeter::new(), WorkMeter::new());
    let fresh = PdeResultObject::new_many(problems.clone(), config, &mut mf);
    let served = PdeResultObject::new_many_with(problems, config, Some(&mut everything), &mut ms);
    assert!(everything.asked.is_empty() && everything.kept.is_empty());
    for (f, s) in fresh.iter().zip(&served) {
        let none = WorkMeter::new();
        assert_eq!(
            state(s.as_ref().unwrap(), &none),
            state(f.as_ref().unwrap(), &none)
        );
    }
    assert_eq!(ms.breakdown(), mf.breakdown());
}

/// A decay problem marked query-free, singular on exactly the meshes with
/// `nt == nt_star` (as in the lane solver's own tests: at the lower
/// boundary `Δt·r = −1`, exactly, so `diag[0]` is zero), and queried at
/// `query`.
#[derive(Clone, Copy)]
struct Marked {
    nt_star: u32,
    query: f64,
}

impl Marked {
    const DECAY: DecayProblem = DecayProblem {
        rate: 0.05,
        coupon: 6.0,
        terminal_value: 100.0,
        horizon: 8.0,
    };

    /// Regular at every trio mesh, queried mid-domain.
    const REGULAR: Marked = Marked {
        nt_star: 1,
        query: 0.5,
    };
}

impl ParabolicPde for Marked {
    const QUERY_FREE_COLUMN: bool = true;

    fn domain(&self) -> (f64, f64) {
        Self::DECAY.domain()
    }
    fn horizon(&self) -> f64 {
        Self::DECAY.horizon
    }
    fn diffusion(&self, _: f64) -> f64 {
        0.0
    }
    fn drift(&self, _: f64) -> f64 {
        0.0
    }
    fn discount(&self, x: f64) -> f64 {
        if x == self.domain().0 {
            -f64::from(self.nt_star) / Self::DECAY.horizon
        } else {
            Self::DECAY.rate
        }
    }
    fn source(&self, x: f64) -> f64 {
        Self::DECAY.source(x)
    }
    fn terminal(&self, x: f64) -> f64 {
        Self::DECAY.terminal(x)
    }
    fn x_query(&self) -> f64 {
        self.query
    }
}

#[test]
fn a_singular_trio_slot_is_never_kept() {
    let config = PdeVaoConfig::default();
    let (nt, nx) = (config.initial_nt, config.initial_nx);
    let trio = [
        GridShape { nt, nx },
        GridShape { nt: 2 * nt, nx },
        GridShape { nt, nx: 2 * nx },
    ];
    // Singular at the first trio mesh, then at the second: the slot keeps
    // nothing, then only the mesh it solved before.
    for (nt_star, solved) in [(nt, 0), (2 * nt, 1)] {
        let singular = Marked {
            nt_star,
            ..Marked::REGULAR
        };
        let mut held = Held::default();
        let problems = [Marked::REGULAR, singular, Marked::REGULAR];
        let slots = PdeResultObject::new_many_with(
            problems,
            config,
            Some(&mut held),
            &mut WorkMeter::new(),
        );
        assert_eq!(
            slots[1].as_ref().err(),
            Some(&SolveError::Singular(TridiagError::ZeroPivot { row: 0 }))
        );
        assert!(slots[0].is_ok() && slots[2].is_ok());
        let mut want: Vec<(usize, GridShape)> = Vec::new();
        for (m, &shape) in trio.iter().enumerate() {
            want.push((0, shape));
            if m < solved {
                want.push((1, shape));
            }
            want.push((2, shape));
        }
        assert_eq!(held.kept, want, "singular at nt = {nt_star}");
    }
}

#[test]
fn a_failing_slot_fails_the_same_with_columns_held() {
    let config = PdeVaoConfig::default();
    // A query point outside the domain fails `validate()` at the first
    // trio mesh, before any column is asked for.
    let outside = Marked {
        query: 2.0,
        ..Marked::REGULAR
    };
    let problems = [Marked::REGULAR, outside, Marked::REGULAR];
    let mut bare = WorkMeter::new();
    let want = PdeResultObject::new_many(problems, config, &mut bare);
    let mut everything = Held {
        any: Some(vec![0.0; 64].into()),
        ..Held::default()
    };
    let mut meter = WorkMeter::new();
    let got = PdeResultObject::new_many_with(problems, config, Some(&mut everything), &mut meter);
    assert!(matches!(want[1], Err(SolveError::Problem(_))));
    assert_eq!(got[1].as_ref().err(), want[1].as_ref().err());
    assert!(everything.asked.iter().all(|&(i, _)| i != 1));
    assert_eq!(everything.asked.len(), 3 * 2);
    assert_eq!(meter.breakdown(), bare.breakdown());

    // Over the cell cap at the second trio mesh: every slot fails there,
    // with only the first mesh asked for, and charges what it charged bare.
    let capped = PdeVaoConfig {
        solver: SolverConfig { max_cells: 40 },
        ..config
    };
    let regular = [Marked::REGULAR; 3];
    let mut bare = WorkMeter::new();
    let want = PdeResultObject::new_many(regular, capped, &mut bare);
    let mut everything = Held {
        any: Some(vec![0.0; 64].into()),
        ..Held::default()
    };
    let mut meter = WorkMeter::new();
    let got = PdeResultObject::new_many_with(regular, capped, Some(&mut everything), &mut meter);
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.as_ref().err(), w.as_ref().err());
        assert_eq!(
            g.as_ref().err(),
            Some(&SolveError::BadMesh { cells: 72, max: 40 })
        );
    }
    let first = GridShape {
        nt: config.initial_nt,
        nx: config.initial_nx,
    };
    assert_eq!(everything.asked, vec![(0, first), (1, first), (2, first)]);
    assert_eq!(meter.breakdown(), bare.breakdown());
}
