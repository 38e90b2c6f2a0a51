//! Sketch-guided PERCENTILE (extension): value bounds on the φ-quantile.
//!
//! Unlike [`quantile`](crate::ops::quantile), which *identifies* the rank-`k`
//! object by exact separation, this operator answers the **value** question —
//! "what is the φ-quantile of the relation?" — with an interval of width ≤ ε,
//! and uses an [`IntervalQuantileSketch`] to decide which objects are worth
//! iterating:
//!
//! * The exact output bounds are the order statistics of the endpoint
//!   multisets: `[k-th largest lo, k-th largest hi]` (rank `k` from the top
//!   is `⌈(1 − φ)·N⌉`). Order statistics are monotone in every coordinate, so
//!   this interval contains the φ-quantile of *any* point selection
//!   `v_i ∈ [lo_i, hi_i]` — in particular the true one.
//! * The demand set is the objects whose bounds straddle the sketch's rank
//!   band, a superset of the exact `[k-th lo, k-th hi]` band (each sketch
//!   bucket envelopes the exact value it absorbed). Objects entirely clear of
//!   the band can never move the k-th order statistic, so they are pruned
//!   without ever being iterated — the sketch-guided generalization of
//!   Top-K's two-phase separation.
//!
//! If every straddler converges before the output width reaches ε, the
//! operator stops at the `minWidth` floor and reports the (still sound)
//! wider interval, mirroring SUM's behavior under an unsatisfiable ε.

pub use va_sketch::rank_from_top;
use va_sketch::{BucketKey, IntervalQuantileSketch, LogGrid};

use crate::bounds::Bounds;
use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{operate, push, Demand};
use crate::ops::minmax::AggregateConfig;
use crate::ops::score::{cmp_desc, est_shrink, View};
use crate::precision::PrecisionConstraint;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Relative-error parameter of the guiding sketch. Shared with the server's
/// demand functions so offline and online evaluation prune identically.
pub const SKETCH_ALPHA: f64 = 0.01;

/// Bucket budget of the guiding sketch (per endpoint sketch).
pub const SKETCH_BUDGET: usize = 96;

/// Outcome of a PERCENTILE evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct PercentileResult {
    /// Sound bounds on the φ-quantile value: `[k-th largest lo, k-th
    /// largest hi]` at termination.
    pub bounds: Bounds,
    /// The evaluated rank from the top, `⌈(1 − φ)·N⌉` clamped to `1..=N`.
    pub rank: usize,
    /// Total `iterate()` calls issued.
    pub iterations: u64,
    /// Distinct objects that were iterated at least once — the pruning
    /// numerator (`refined / N` is the touched fraction).
    pub refined: usize,
}

/// Evaluates the φ-quantile value to width ≤ ε with the default (greedy)
/// configuration.
///
/// `phi = 0.5` is the MEDIAN value, `phi → 1` the MAX, `phi → 0` the MIN.
pub fn percentile_vao<R: ResultObject>(
    objs: &mut [R],
    phi: f64,
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<PercentileResult, VaoError> {
    percentile_vao_traced(
        objs,
        phi,
        epsilon,
        &mut AggregateConfig::default(),
        meter,
        &mut NoopObserver,
    )
}

/// Evaluates the φ-quantile value with an explicit configuration and an
/// [`ExecObserver`] receiving the execution trace.
pub fn percentile_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    phi: f64,
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<PercentileResult, VaoError> {
    if objs.is_empty() {
        return Err(VaoError::EmptyInput);
    }
    if !phi.is_finite() || !(0.0..=1.0).contains(&phi) {
        return Err(VaoError::InvalidQuantile { phi });
    }
    epsilon.validate_single_object(objs)?;
    let (k, eps) = (rank_from_top(phi, objs.len()), epsilon.epsilon());
    let mut sketch = IntervalQuantileSketch::new(SKETCH_ALPHA, SKETCH_BUDGET);
    let kind = OperatorKind::Percentile;
    let (iterations, touched) = operate(kind, objs, config, meter, observer, |v, out| {
        demands_percentile(v, k, eps, &mut sketch, out);
    })?;
    let (lo, hi) = rank_bracket(&*objs, k, &mut Vec::new());
    Ok(PercentileResult {
        bounds: Bounds::new(lo, hi),
        rank: k,
        iterations,
        refined: touched.iter().filter(|&&t| t > 0).count(),
    })
}

/// PERCENTILE's demand at rank `k` from the top: nothing once the exact
/// [`rank_bracket`] is within ε; else `sketch` is rebuilt from the live
/// bounds and every object straddling its rank band — a provable superset
/// of the bracket — is demanded by [`band_scan`]. When every straddler is
/// at its `minWidth` floor the demand is empty with the bracket still wider
/// than ε: the tightest sound interval (SUM's floor behavior).
pub fn demands_percentile<V: View + ?Sized>(
    v: &V,
    k: usize,
    epsilon: f64,
    sketch: &mut IntervalQuantileSketch,
    out: &mut Vec<Demand>,
) {
    let (lo, hi) = rank_bracket(v, k, &mut Vec::new());
    if hi - lo > epsilon {
        fill_sketch(sketch, v);
        band_scan(v, rank_band(sketch, k), push(out));
    }
}

/// The exact output bounds at rank `k` from the top (1-based, clamped to
/// the view): `(k-th largest lo, k-th largest hi)`. At most `k − 1` true
/// values can exceed the `k`-th largest `H`, and at least `k` reach the
/// `k`-th largest `L`. `scratch` is reused across rounds; the view must not
/// be empty.
#[must_use]
pub fn rank_bracket<V: View + ?Sized>(v: &V, k: usize, scratch: &mut Vec<f64>) -> (f64, f64) {
    let mut kth_largest = |f: fn(&Bounds) -> f64| {
        scratch.clear();
        scratch.extend((0..v.len()).map(|i| f(&v.bounds(i))));
        scratch.sort_by(|a, b| cmp_desc(*a, *b));
        scratch[k.clamp(1, scratch.len()) - 1]
    };
    (kth_largest(Bounds::lo), kth_largest(Bounds::hi))
}

/// Rebuilds the guiding sketch from the view's current bounds. The sketch
/// does not depend on φ, and its buckets keep min/max envelopes a deletion
/// cannot restore, so it is rebuilt rather than repaired; a scheduler that
/// keeps state across rounds reads the same band from [`BucketKeys`]
/// instead, while the view fits one sketch budget.
pub fn fill_sketch<V: View + ?Sized>(sketch: &mut IntervalQuantileSketch, v: &V) {
    sketch.clear();
    for i in 0..v.len() {
        let b = v.bounds(i);
        sketch.insert(b.lo(), b.hi());
    }
}

/// The sketch's rank-`k` band. It contains the exact [`rank_bracket`], so
/// the straddler set [`band_scan`] derives from it is a superset of the
/// objects that determine the output bounds — pruning by it is sound. A
/// `None` band cannot happen for 1 ≤ k ≤ N; no pruning if it ever did.
#[must_use]
pub fn rank_band(sketch: &IntervalQuantileSketch, k: usize) -> (f64, f64) {
    sketch
        .rank_band_from_top(k as u64)
        .unwrap_or((f64::MIN, f64::MAX))
}

/// Each object's bucket in the two endpoint sketches [`fill_sketch`] fills,
/// kept across rounds so that [`rank_band`]'s answer is read without
/// refilling.
///
/// While the view holds at most [`SKETCH_BUDGET`] objects, neither endpoint
/// sketch can hold more buckets than its budget, so neither collapses: each
/// endpoint lands in its [`LogGrid::key`] bucket at [`SKETCH_ALPHA`], and a
/// bucket's envelope is the smallest and largest endpoint carrying its key.
/// Only an iterated object's keys change, so [`BucketKeys::repair`] takes
/// just those. Larger views keep the fill.
#[derive(Clone, Debug)]
pub struct BucketKeys {
    grid: LogGrid,
    lo: Vec<BucketKey>,
    hi: Vec<BucketKey>,
}

impl BucketKeys {
    /// Every object's endpoint keys, or `None` past [`SKETCH_BUDGET`]
    /// objects, where a sketch may collapse.
    #[must_use]
    pub fn new<V: View + ?Sized>(v: &V) -> Option<Self> {
        if v.len() > SKETCH_BUDGET {
            return None;
        }
        let grid = LogGrid::new(SKETCH_ALPHA);
        let (lo, hi) = (0..v.len())
            .map(|i| {
                let b = v.bounds(i);
                (grid.key(b.lo()), grid.key(b.hi()))
            })
            .unzip();
        Some(Self { grid, lo, hi })
    }

    /// Re-keys the objects `changed`, whose bounds moved.
    pub fn repair<V: View + ?Sized>(&mut self, v: &V, changed: &[usize]) {
        for &i in changed {
            let b = v.bounds(i);
            self.lo[i] = self.grid.key(b.lo());
            self.hi[i] = self.grid.key(b.hi());
        }
    }

    /// What [`rank_band`] reads at rank `k` (in `1..=N`) from a sketch
    /// [`fill_sketch`] filled with `v`, bit for bit. `desc` must order the
    /// objects by upper bound descending and `asc` by lower bound ascending
    /// ([`ranked`](crate::ops::score::ranked) over the view and over its
    /// [`Flipped`](crate::ops::score::Flipped) reflection do).
    ///
    /// The sketch walks its buckets from the top and stops in the bucket of
    /// the `k`-th largest endpoint: `asc[N − k]`'s lower bound and
    /// `desc[k − 1]`'s upper bound. Keys grow with the value, so a bucket is
    /// a run of its order, and its envelope end is where that run starts.
    #[must_use]
    pub fn rank_band<V: View + ?Sized>(
        &self,
        v: &V,
        asc: &[usize],
        desc: &[usize],
        k: usize,
    ) -> (f64, f64) {
        let lo = run_start(&self.lo, asc, v.len() - k);
        let hi = run_start(&self.hi, desc, k - 1);
        let lo = if self.lo[lo] == BucketKey::Zero {
            0.0
        } else {
            v.bounds(lo).lo()
        };
        let hi = if self.hi[hi] == BucketKey::Zero {
            0.0
        } else {
            v.bounds(hi).hi()
        };
        // The sketch's own normalization of the band.
        (lo.min(hi), hi.max(lo))
    }
}

/// The first object of the run of `order` around position `at` whose keys
/// equal `keys[order[at]]`.
fn run_start(keys: &[BucketKey], order: &[usize], at: usize) -> usize {
    let key = keys[order[at]];
    let start = order[..at]
        .iter()
        .rposition(|&j| keys[j] != key)
        .map_or(0, |p| p + 1);
    order[start]
}

/// Scores, as `emit(object, benefit)` in index order, every non-converged
/// object overlapping the rank band — only those can move the k-th order
/// statistic — by how much of the overlap its estimated shrink could clear.
pub fn band_scan<V: View + ?Sized>(
    v: &V,
    (band_lo, band_hi): (f64, f64),
    mut emit: impl FnMut(usize, f64),
) {
    for i in 0..v.len() {
        if v.converged(i) {
            continue;
        }
        let b = v.bounds(i);
        if b.hi() < band_lo || b.lo() > band_hi {
            continue; // sketch-pruned: cannot move the rank-k band
        }
        let overlap = b.hi().min(band_hi) - b.lo().max(band_lo);
        emit(i, overlap.max(0.0).min(est_shrink(b, v.est_bounds(i))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::quantile::quantile_vao;
    use crate::testkit::ScriptedObject;

    fn converging_to(values: &[f64]) -> Vec<ScriptedObject> {
        values
            .iter()
            .map(|&v| {
                ScriptedObject::converging(
                    &[
                        (v - 9.0, v + 9.0),
                        (v - 3.0, v + 3.0),
                        (v - 1.0, v + 1.0),
                        (v - 0.004, v + 0.004),
                    ],
                    10,
                    0.01,
                )
            })
            .collect()
    }

    fn exact_kth(values: &[f64], k: usize) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| b.total_cmp(a));
        v[k - 1]
    }

    #[test]
    fn median_value_is_bracketed_to_epsilon() {
        let values = [110.0, 90.0, 100.0, 130.0, 70.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.05).unwrap();
        let res = percentile_vao(&mut objs, 0.5, eps, &mut meter).unwrap();
        assert_eq!(res.rank, 3);
        assert!(res.bounds.contains(100.0), "median 100 in {:?}", res.bounds);
        assert!(res.bounds.width() <= 0.05);
    }

    #[test]
    fn extreme_quantiles_bracket_max_and_min() {
        let values = [95.0, 105.0, 99.0, 101.0];
        let eps = PrecisionConstraint::new(0.05).unwrap();
        let mut meter = WorkMeter::new();

        let mut a = converging_to(&values);
        let hi = percentile_vao(&mut a, 1.0, eps, &mut meter).unwrap();
        assert!(hi.bounds.contains(105.0));

        let mut b = converging_to(&values);
        let lo = percentile_vao(&mut b, 0.0, eps, &mut meter).unwrap();
        assert!(lo.bounds.contains(95.0));
    }

    #[test]
    fn bounds_always_contain_the_exact_order_statistic() {
        let values = [50.0, 80.0, 20.0, 110.0, 140.0, 65.0, 71.0, 98.0];
        let eps = PrecisionConstraint::new(0.05).unwrap();
        for phi in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let mut objs = converging_to(&values);
            let mut meter = WorkMeter::new();
            let res = percentile_vao(&mut objs, phi, eps, &mut meter).unwrap();
            let exact = exact_kth(&values, res.rank);
            assert!(
                res.bounds.contains(exact),
                "phi={phi}: exact {exact} outside {:?}",
                res.bounds
            );
        }
    }

    #[test]
    fn agrees_with_exact_separation_at_equal_rank() {
        let values = [10.0, 100.0, 100.5, 101.0, 200.0, 55.0, 71.5];
        let eps = PrecisionConstraint::new(0.05).unwrap();

        let mut a = converging_to(&values);
        let mut meter = WorkMeter::new();
        let sk = percentile_vao(&mut a, 0.5, eps, &mut meter).unwrap();

        let mut b = converging_to(&values);
        let ex = quantile_vao(&mut b, sk.rank, eps, &mut meter).unwrap();
        // Both brackets contain the true median, so they must overlap.
        assert!(
            sk.bounds.overlaps(&ex.bounds),
            "sketch {:?} vs exact {:?}",
            sk.bounds,
            ex.bounds
        );
    }

    #[test]
    fn tail_objects_are_never_iterated() {
        // The 10 and 200 outliers never straddle the median band: the
        // sketch-guided demand set must leave them completely untouched.
        let values = [10.0, 100.0, 100.5, 101.0, 200.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.05).unwrap();
        let res = percentile_vao(&mut objs, 0.5, eps, &mut meter).unwrap();
        assert!(res.bounds.contains(100.5));
        assert!(res.refined <= 3, "only the middle cluster may be refined");
        assert!(
            objs[0].bounds().width() > 17.0 && objs[4].bounds().width() > 17.0,
            "tails must keep their initial ±9 bounds"
        );
    }

    #[test]
    fn epsilon_below_min_width_is_rejected_upfront() {
        // Footnote 10: ε below an object's minWidth is unsatisfiable for a
        // single-object output — same typed error as MAX/MIN/quantile.
        let values = [100.0, 100.001, 100.002];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.009).unwrap();
        assert!(matches!(
            percentile_vao(&mut objs, 0.5, eps, &mut meter),
            Err(VaoError::PrecisionTooTight { .. })
        ));
    }

    #[test]
    fn indistinguishable_values_still_terminate_with_sound_bounds() {
        // Values closer together than ε: every straddler converges and the
        // operator must terminate with a containing interval, not spin.
        let values = [100.0, 100.001, 100.002];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.012).unwrap();
        let res = percentile_vao(&mut objs, 0.5, eps, &mut meter).unwrap();
        assert!(res.bounds.contains(100.001));
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.05).unwrap();
        let mut empty: Vec<ScriptedObject> = Vec::new();
        assert!(matches!(
            percentile_vao(&mut empty, 0.5, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
        let mut objs = converging_to(&[1.0, 2.0]);
        for phi in [f64::NAN, -0.1, 1.5] {
            assert!(matches!(
                percentile_vao(&mut objs, phi, eps, &mut meter),
                Err(VaoError::InvalidQuantile { .. })
            ));
        }
    }
}
