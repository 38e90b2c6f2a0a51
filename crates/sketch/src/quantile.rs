//! A UDDSketch-style quantile sketch with bounded relative error, plus the
//! interval-ingesting wrapper the VAO demand functions use.
//!
//! The sketch buckets values by uniform *log-domain* keys: a positive value
//! `v` lands in bucket `⌈ln v / ln γ⌉` where `γ = (1 + α)/(1 − α)`, so every
//! bucket spans at most a relative width of `α` around its midpoint. When
//! the bucket table outgrows its budget the sketch **collapses**: `γ ← γ²`
//! (doubling `α` up to `2α/(1 + α²)`) and adjacent buckets merge pairwise,
//! halving the table. Zero and negative values get their own stores, so the
//! sketch is total over finite `f64`s.
//!
//! On top of the classic scheme each bucket also tracks the exact `min` and
//! `max` it absorbed. Rank queries answer with that `[min, max]` envelope:
//! it is *contained in* the bucket's log-range (so the relative-error
//! guarantee still holds) and it *contains the ingested value at the queried
//! rank by construction* — no floating-point boundary case can push the
//! answer outside the reported interval.

use std::collections::BTreeMap;

/// One log-domain bucket: how many values landed here and the exact range
/// they spanned.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    count: u64,
    min: f64,
    max: f64,
}

impl Bucket {
    fn one(v: f64) -> Self {
        Bucket {
            count: 1,
            min: v,
            max: v,
        }
    }

    fn absorb(&mut self, other: &Bucket) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn push(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The bucket a finite value lands in on a [`LogGrid`]: its sign and, for
/// a nonzero value, its log key `⌈ln |v| / ln γ⌉`. Both zeros share one
/// bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BucketKey {
    /// A negative value, keyed by its magnitude.
    Neg(i64),
    /// `0.0` or `-0.0`.
    Zero,
    /// A positive value.
    Pos(i64),
}

/// The log-domain bucket grid of relative error `α`: `γ = (1 + α)/(1 − α)`.
/// A sketch that never collapsed (at most its budget of distinct buckets
/// ingested) buckets every value by [`LogGrid::key`] on the grid of its
/// construction-time `α`, so a caller that keeps per-value keys can read
/// the sketch's buckets without building it.
#[derive(Clone, Copy, Debug)]
pub struct LogGrid {
    ln_gamma: f64,
}

impl LogGrid {
    /// The grid of relative error `alpha` (`0 < α < 1`).
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            ln_gamma: gamma.ln(),
        }
    }

    /// The bucket finite `v` lands in.
    #[must_use]
    pub fn key(&self, v: f64) -> BucketKey {
        if v == 0.0 {
            return BucketKey::Zero;
        }
        // ⌈ln m / ln γ⌉; the per-bucket min/max envelope makes rank answers
        // immune to the boundary rounding this computation can suffer.
        let key = (v.abs().ln() / self.ln_gamma).ceil() as i64;
        if v > 0.0 {
            BucketKey::Pos(key)
        } else {
            BucketKey::Neg(key)
        }
    }
}

/// A bounded-relative-error quantile sketch over point observations.
///
/// `α` is the *current* relative-error guarantee: any reported rank interval
/// `[min, max]` satisfies `max − min ≤ 2α·max(|min|, |max|) / (1 − α)` for
/// same-signed buckets (the log-bucket width), and always contains the exact
/// value at that rank among the ingested points. Collapses double `α`; read
/// the post-ingest guarantee from [`QuantileSketch::alpha`].
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    /// The bucket grid of the current collapse level.
    grid: LogGrid,
    /// Current relative-error guarantee.
    alpha: f64,
    /// Construction-time guarantee, restored by [`QuantileSketch::clear`].
    alpha0: f64,
    /// Bucket budget; a collapse runs when `pos.len() + neg.len()` exceeds it.
    max_buckets: usize,
    /// Positive store, keyed by `⌈ln v / ln γ⌉`.
    pos: BTreeMap<i64, Bucket>,
    /// Negative store, keyed by `⌈ln |v| / ln γ⌉`.
    neg: BTreeMap<i64, Bucket>,
    /// Exact zeros.
    zeros: u64,
    /// Total ingested count.
    count: u64,
    /// How many collapses have run since the last `clear()`.
    collapses: u32,
}

impl QuantileSketch {
    /// Creates a sketch with initial relative error `alpha` (`0 < α < 1`)
    /// and a bucket budget of `max_buckets` (at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)` or `max_buckets < 2`.
    #[must_use]
    pub fn new(alpha: f64, max_buckets: usize) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0 && alpha.is_finite(),
            "alpha must be in (0, 1), got {alpha}"
        );
        assert!(max_buckets >= 2, "need at least 2 buckets");
        Self {
            grid: LogGrid::new(alpha),
            alpha,
            alpha0: alpha,
            max_buckets,
            pos: BTreeMap::new(),
            neg: BTreeMap::new(),
            zeros: 0,
            count: 0,
            collapses: 0,
        }
    }

    /// The current relative-error guarantee (doubles per collapse).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total observations ingested.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether the sketch holds no observations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Live buckets (positive + negative stores; zeros are one counter).
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Collapses run since construction or the last [`QuantileSketch::clear`].
    #[must_use]
    pub fn collapses(&self) -> u32 {
        self.collapses
    }

    /// Drops all observations but keeps the *initial* accuracy and budget
    /// (the collapse level resets along with the data).
    pub fn clear(&mut self) {
        self.alpha = self.alpha0;
        self.grid = LogGrid::new(self.alpha0);
        self.pos.clear();
        self.neg.clear();
        self.zeros = 0;
        self.count = 0;
        self.collapses = 0;
    }

    /// Ingests one finite observation.
    ///
    /// # Panics
    ///
    /// Panics on non-finite values (the VAO layer only produces finite
    /// bounds; a NaN here is a caller bug worth failing loudly on).
    pub fn insert(&mut self, v: f64) {
        assert!(v.is_finite(), "sketch observations must be finite, got {v}");
        self.count += 1;
        let (store, key) = match self.grid.key(v) {
            BucketKey::Zero => {
                self.zeros += 1;
                return;
            }
            BucketKey::Pos(key) => (&mut self.pos, key),
            BucketKey::Neg(key) => (&mut self.neg, key),
        };
        store
            .entry(key)
            .and_modify(|b| b.push(v))
            .or_insert_with(|| Bucket::one(v));
        if self.pos.len() + self.neg.len() > self.max_buckets {
            self.collapse();
        }
    }

    /// γ ← γ², merging key `k` into `⌈k/2⌉`. Halves the table, doubles α.
    fn collapse(&mut self) {
        self.grid.ln_gamma *= 2.0;
        self.alpha = 2.0 * self.alpha / (1.0 + self.alpha * self.alpha);
        self.collapses += 1;
        for store in [&mut self.pos, &mut self.neg] {
            let old = std::mem::take(store);
            for (k, b) in old {
                // ceil(k / 2) over signed keys.
                let nk = (k + 1).div_euclid(2);
                store
                    .entry(nk)
                    .and_modify(|dst| dst.absorb(&b))
                    .or_insert(b);
            }
        }
    }

    /// The `[min, max]` envelope of the bucket holding the `k`-th *largest*
    /// ingested value (1-based). `None` when `k` is 0 or exceeds the count.
    ///
    /// The exact `k`-th largest ingested value lies inside the returned
    /// interval, and the interval is no wider than one log bucket.
    #[must_use]
    pub fn rank_from_top(&self, k: u64) -> Option<(f64, f64)> {
        if k == 0 || k > self.count {
            return None;
        }
        let mut remaining = k;
        // Descending value order: positives (largest key first), zeros,
        // then negatives (smallest magnitude first).
        for (_, b) in self.pos.iter().rev() {
            if remaining <= b.count {
                return Some((b.min, b.max));
            }
            remaining -= b.count;
        }
        if remaining <= self.zeros {
            return Some((0.0, 0.0));
        }
        remaining -= self.zeros;
        for b in self.neg.values() {
            if remaining <= b.count {
                return Some((b.min, b.max));
            }
            remaining -= b.count;
        }
        None
    }
}

/// A quantile sketch over **interval observations**: each object contributes
/// its `[L, H]` error bounds, one endpoint per underlying sketch.
///
/// For any point selection `v_i ∈ [L_i, H_i]`, the `k`-th largest of the
/// `v_i` lies between the `k`-th largest `L` and the `k`-th largest `H`
/// (order statistics are monotone in every coordinate). The reported band
/// therefore contains the `k`-th order statistic of the *true* values
/// whenever the ingested intervals do — with total slack of at most one
/// sketch bucket on each side on top of the interval-induced spread:
/// **error = sketch guarantee ⊕ interval width**.
#[derive(Clone, Debug)]
pub struct IntervalQuantileSketch {
    lo: QuantileSketch,
    hi: QuantileSketch,
}

impl IntervalQuantileSketch {
    /// Creates the wrapper with the given per-endpoint sketch parameters.
    #[must_use]
    pub fn new(alpha: f64, max_buckets: usize) -> Self {
        Self {
            lo: QuantileSketch::new(alpha, max_buckets),
            hi: QuantileSketch::new(alpha, max_buckets),
        }
    }

    /// Ingests one `[lo, hi]` observation.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either endpoint is non-finite.
    pub fn insert(&mut self, lo: f64, hi: f64) {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        self.lo.insert(lo);
        self.hi.insert(hi);
    }

    /// Observations ingested.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.lo.count()
    }

    /// Whether no observations have been ingested.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// The current (post-collapse) relative-error guarantee: the worse of
    /// the two endpoint sketches.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.lo.alpha().max(self.hi.alpha())
    }

    /// Drops all observations, keeping capacity and initial accuracy.
    pub fn clear(&mut self) {
        self.lo.clear();
        self.hi.clear();
    }

    /// A band containing the `k`-th largest value of every point selection
    /// within the ingested intervals (1-based rank from the top).
    ///
    /// Returns `None` for out-of-range ranks or an empty sketch.
    #[must_use]
    pub fn rank_band_from_top(&self, k: u64) -> Option<(f64, f64)> {
        let (lo_min, _) = self.lo.rank_from_top(k)?;
        let (_, hi_max) = self.hi.rank_from_top(k)?;
        // Degenerate float corner: a collapse on one side only could cross
        // the envelopes; normalize so callers always see a valid interval.
        Some((lo_min.min(hi_max), hi_max.max(lo_min)))
    }

    /// [`IntervalQuantileSketch::rank_band_from_top`] addressed by quantile
    /// `phi ∈ [0, 1]` using the operator family's rank convention
    /// ([`crate::rank_from_top`]).
    #[must_use]
    pub fn quantile_band(&self, phi: f64) -> Option<(f64, f64)> {
        let n = usize::try_from(self.count()).ok()?;
        let k = crate::rank_from_top(phi, n);
        self.rank_band_from_top(k as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_kth_from_top(vals: &[f64], k: usize) -> f64 {
        let mut v = vals.to_vec();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        v[k - 1]
    }

    #[test]
    fn rank_answers_contain_the_exact_order_statistic() {
        let mut s = QuantileSketch::new(0.01, 64);
        let vals: Vec<f64> = (0..500).map(|i| 80.0 + (i as f64) * 0.1).collect();
        for &v in &vals {
            s.insert(v);
        }
        for k in [1usize, 2, 125, 250, 375, 499, 500] {
            let (lo, hi) = s.rank_from_top(k as u64).unwrap();
            let exact = exact_kth_from_top(&vals, k);
            assert!(
                lo <= exact && exact <= hi,
                "k={k}: {exact} not in [{lo},{hi}]"
            );
            // One log bucket wide at most: relative width ≈ 2α/(1−α).
            assert!(hi - lo <= 2.0 * s.alpha() / (1.0 - s.alpha()) * hi + 1e-9);
        }
    }

    #[test]
    fn handles_zeros_and_negatives() {
        let mut s = QuantileSketch::new(0.05, 32);
        let vals = [-10.0, -1.0, 0.0, 0.0, 2.0, 100.0];
        for &v in &vals {
            s.insert(v);
        }
        assert_eq!(s.count(), 6);
        let cases = [
            (1, 100.0),
            (2, 2.0),
            (3, 0.0),
            (4, 0.0),
            (5, -1.0),
            (6, -10.0),
        ];
        for (k, exact) in cases {
            let (lo, hi) = s.rank_from_top(k).unwrap();
            assert!(
                lo <= exact && exact <= hi,
                "k={k}: {exact} not in [{lo},{hi}]"
            );
        }
        assert!(s.rank_from_top(0).is_none());
        assert!(s.rank_from_top(7).is_none());
    }

    #[test]
    fn collapse_keeps_containment_and_doubles_alpha() {
        let mut s = QuantileSketch::new(0.001, 8);
        let vals: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        for &v in &vals {
            s.insert(v);
        }
        assert!(s.collapses() > 0, "tiny budget must force collapses");
        assert!(s.buckets() <= 8);
        assert!(s.alpha() > 0.001);
        for k in [1usize, 100, 500, 900, 1000] {
            let (lo, hi) = s.rank_from_top(k as u64).unwrap();
            let exact = exact_kth_from_top(&vals, k);
            assert!(
                lo <= exact && exact <= hi,
                "k={k}: {exact} not in [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn clear_restores_initial_accuracy() {
        let mut s = QuantileSketch::new(0.001, 8);
        for i in 1..=1000 {
            s.insert(i as f64);
        }
        let collapsed_alpha = s.alpha();
        assert!(collapsed_alpha > 0.001);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.collapses(), 0);
        assert!(
            (s.alpha() - 0.001).abs() < 1e-9,
            "alpha after clear: {}",
            s.alpha()
        );
    }

    #[test]
    fn interval_band_brackets_any_point_selection() {
        let mut s = IntervalQuantileSketch::new(0.01, 64);
        // Objects i with bounds [i, i + 5].
        let n = 100u64;
        for i in 0..n {
            s.insert(i as f64, i as f64 + 5.0);
        }
        for k in [1u64, 10, 50, 100] {
            let (b_lo, b_hi) = s.rank_band_from_top(k).unwrap();
            // Midpoint selection: k-th largest of {i + 2.5}.
            let exact = (n - k) as f64 + 2.5;
            assert!(
                b_lo <= exact && exact <= b_hi,
                "k={k}: {exact} not in [{b_lo},{b_hi}]"
            );
        }
        assert!(s.rank_band_from_top(0).is_none());
        assert!(s.rank_band_from_top(n + 1).is_none());
    }

    #[test]
    #[should_panic(expected = "inverted interval")]
    fn interval_rejects_inverted() {
        let mut s = IntervalQuantileSketch::new(0.01, 8);
        s.insert(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite() {
        let mut s = QuantileSketch::new(0.01, 8);
        s.insert(f64::NAN);
    }
}
