//! Absolute bit pins for the per-tick invoke.
//!
//! `SharedPool::invoke` prices every bond of a relation once per tick; each
//! result object's constructor runs the §4.1 coarse trio before any bound
//! exists. This file pins what that layer hands the scheduler, on the
//! paper-scale universe (500 bonds, seed 1994) at three rates: per rate and
//! per route (cold, and warm-seeded from a partly converged pool), one row
//! of literal `u64`s holding
//!
//! * an FNV-1a hash over every object, in relation order, of its `bounds`,
//!   `est_bounds`, `est_cpu` and `batch_shape`, and
//! * the four `WorkBreakdown` components the invoke charged.
//!
//! 500 is not a multiple of any power-of-two group size, so a grouped
//! constructor sees full groups and a remainder. Each route is pinned a
//! second time through `SharedPool::invoke_with`, its every trio mesh
//! committed from columns kept by an invocation at another rate, as a
//! server tick reads its relation's column store: the same literals. The
//! invoke may be rebuilt freely; these literals may not change.

use va_server::SharedPool;
use vao_repro::bondlab::{BondPricer, BondUniverse};
use vao_repro::numerics::pde::TrioColumns;
use vao_repro::stream::relation::BondRelation;
use vao_repro::vao::adapters::WarmStart;
use vao_repro::vao::batch::GridShape;
use vao_repro::vao::cost::WorkMeter;
use vao_repro::vao::Bounds;

const RATES: [f64; 3] = [0.0583, 0.0412, 0.0757];

/// The rate the held columns are solved at: none of [`RATES`].
const FILL_RATE: f64 = 0.0650;

/// Every `CONVERGE_EVERY`-th object of the seeding pool is refined to
/// convergence; the others take `SEED_STEPS` refinements.
const CONVERGE_EVERY: usize = 50;
const SEED_STEPS: usize = 2;

fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn bounds(words: &mut Vec<u64>, b: Bounds) {
    words.extend([b.lo().to_bits(), b.hi().to_bits()]);
}

/// The pin of one freshly invoked pool and what its invoke charged.
fn row(pool: &SharedPool, meter: &WorkMeter) -> [u64; 5] {
    let mut words = Vec::new();
    for i in 0..pool.len() {
        bounds(&mut words, pool.bounds(i));
        bounds(&mut words, pool.est_bounds(i));
        words.push(pool.est_cpu(i));
        match pool.batch_shape(i) {
            Some(s) => words.extend([1, u64::from(s.nt), u64::from(s.nx)]),
            None => words.push(0),
        }
    }
    let w = meter.breakdown();
    [
        fnv(&words),
        w.exec_iter,
        w.get_state,
        w.store_state,
        w.choose_iter,
    ]
}

/// Seeds for `invoke_warm`: a cold pool at `rate`, some objects converged,
/// the rest a few refinements in, read back as the journal would hold it.
fn seeds(pricer: &BondPricer, relation: &BondRelation, rate: f64) -> Vec<WarmStart> {
    let mut meter = WorkMeter::new();
    let mut pool = SharedPool::invoke(pricer, relation, rate, &mut meter);
    for i in 0..pool.len() {
        if i % CONVERGE_EVERY == 0 {
            while !pool.converged(i) {
                pool.iterate(i, &mut meter);
            }
        } else {
            for _ in 0..SEED_STEPS {
                pool.iterate(i, &mut meter);
            }
        }
    }
    (0..pool.len())
        .map(|i| WarmStart {
            bounds: pool.bounds(i),
            converged: pool.converged(i),
            prior_cost: pool.cumulative_cost(i),
        })
        .collect()
}

/// Trio columns by bond position, as a server's column store holds them,
/// with what the invocations asked of it.
#[derive(Default)]
struct Held {
    columns: Vec<Vec<(GridShape, Box<[f64]>)>>,
    hits: usize,
    misses: usize,
    kept: usize,
}

impl TrioColumns for Held {
    fn held(&mut self, index: usize, shape: GridShape) -> Option<&[f64]> {
        let column = self
            .columns
            .get(index)
            .and_then(|held| held.iter().find(|(s, _)| *s == shape));
        match column {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        column.map(|(_, c)| &**c)
    }

    fn keep(&mut self, index: usize, shape: GridShape, column: &[f64]) {
        if self.columns.len() <= index {
            self.columns.resize_with(index + 1, Vec::new);
        }
        self.columns[index].push((shape, column.into()));
        self.kept += 1;
    }
}

/// Every bond's three trio columns, kept by a cold invoke at [`FILL_RATE`]
/// (which solved, so missed, every one), counters cleared.
fn held_columns(pricer: &BondPricer, relation: &BondRelation) -> Held {
    let mut held = Held::default();
    let mut meter = WorkMeter::new();
    let _ = SharedPool::invoke_with(
        pricer,
        relation,
        FILL_RATE,
        None,
        Some(&mut held),
        &mut meter,
    );
    let trio = 3 * relation.bonds().len();
    assert_eq!((held.hits, held.misses, held.kept), (0, trio, trio));
    Held {
        columns: held.columns,
        ..Held::default()
    }
}

/// Pins `invoke` served from [`held_columns`], and checks that every trio
/// mesh of every invocation was committed from a held column.
fn pin_held(
    what: &str,
    expected: &[[u64; 5]],
    invoke: impl Fn(f64, &mut Held, &mut WorkMeter) -> SharedPool,
) {
    let (pricer, relation) = (BondPricer::default(), relation());
    let mut held = held_columns(&pricer, &relation);
    pin(what, expected, |rate, meter| invoke(rate, &mut held, meter));
    let served = RATES.len() * 3 * relation.bonds().len();
    assert_eq!((held.hits, held.misses, held.kept), (served, 0, 0));
}

/// Runs `invoke` at every rate and compares against `expected`, listing
/// every drifted row in the form the literals are written in.
fn pin(
    what: &str,
    expected: &[[u64; 5]],
    mut invoke: impl FnMut(f64, &mut WorkMeter) -> SharedPool,
) {
    let mut drift = Vec::new();
    for (i, rate) in RATES.into_iter().enumerate() {
        let mut meter = WorkMeter::new();
        let pool = invoke(rate, &mut meter);
        assert_eq!(pool.len(), BondUniverse::PAPER_SIZE);
        let got = row(&pool, &meter);
        if expected.get(i) != Some(&got) {
            let listing: Vec<String> = got.iter().map(|v| format!("0x{v:x}")).collect();
            drift.push(format!("    // {rate}\n    [{}],", listing.join(", ")));
        }
    }
    assert!(
        drift.is_empty(),
        "{what} drifted; actual rows:\n{}",
        drift.join("\n")
    );
    assert_eq!(expected.len(), RATES.len(), "one pinned row per rate");
}

fn relation() -> BondRelation {
    BondRelation::from_universe(&BondUniverse::paper_default())
}

#[test]
fn cold_invokes_keep_their_bits() {
    let (pricer, relation) = (BondPricer::default(), relation());
    pin("cold invoke", COLD, |rate, meter| {
        SharedPool::invoke(&pricer, &relation, rate, meter)
    });
}

#[test]
fn warm_invokes_keep_their_bits() {
    let (pricer, relation) = (BondPricer::default(), relation());
    pin("warm invoke", WARM, |rate, meter| {
        let warm = seeds(&pricer, &relation, rate);
        SharedPool::invoke_warm(&pricer, &relation, rate, &warm, meter)
    });
}

#[test]
fn cold_invokes_served_from_held_columns_keep_their_bits() {
    let pricer = BondPricer::default();
    pin_held(
        "cold invoke from held columns",
        COLD,
        |rate, held, meter| {
            SharedPool::invoke_with(&pricer, &relation(), rate, None, Some(held), meter)
        },
    );
}

#[test]
fn warm_invokes_served_from_held_columns_keep_their_bits() {
    let (pricer, relation) = (BondPricer::default(), relation());
    pin_held(
        "warm invoke from held columns",
        WARM,
        |rate, held, meter| {
            let warm = seeds(&pricer, &relation, rate);
            SharedPool::invoke_with(&pricer, &relation, rate, Some(&warm), Some(held), meter)
        },
    );
}

#[rustfmt::skip]
const COLD: &[[u64; 5]] = &[
    // 0.0583
    [0x59e3817c2fe910f1, 0x157c0, 0x0, 0x5dc, 0x0],
    // 0.0412
    [0xee68442dffc6f81, 0x157c0, 0x0, 0x5dc, 0x0],
    // 0.0757
    [0xda544023f9b07a2, 0x157c0, 0x0, 0x5dc, 0x0],
];

#[rustfmt::skip]
const WARM: &[[u64; 5]] = &[
    // 0.0583
    [0xa9c263b2f83b7279, 0x157c0, 0x0, 0x5dc, 0x0],
    // 0.0412
    [0xf6cf1b840697a930, 0x157c0, 0x0, 0x5dc, 0x0],
    // 0.0757
    [0xaa11214e9df82549, 0x157c0, 0x0, 0x5dc, 0x0],
];
