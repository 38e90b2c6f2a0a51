//! Per-tick execution statistics and the engine's observability hooks.
//!
//! Every tick the engine threads a [`TickObserver`] through the traced VAO
//! operator entry points, turning the raw event stream into three compact
//! per-tick measurements that ride along in [`TickStats`]:
//!
//! * which operator ran (`operator` tag),
//! * a fixed-bucket [`IterHistogram`] of `iterate()` calls per result
//!   object (the quantity behind the paper's Figure 8 discussion of where
//!   the VAO saves its work), and
//! * an estimated-vs-actual CPU error summary
//!   ([`vao::trace::CpuEstimation`]) grading §4's `estCPU` quality.
//!
//! [`RunSummary`] merges those per-tick measurements into run totals,
//! including the run-level iteration histogram.

use std::time::Duration;

use vao::cost::WorkBreakdown;
use vao::trace::{
    ChoiceRecord, CpuEstimation, ExecObserver, HybridDecisionRecord, IterationRecord,
    OperatorEndRecord, OperatorKind,
};

/// Number of buckets in [`IterHistogram`].
pub const ITER_BUCKETS: usize = 9;

/// A fixed-bucket histogram of `iterate()` calls per result object.
///
/// Buckets are `0, 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, ≥65` — doubling
/// widths, chosen so both the "decided from initial bounds" mass (bucket 0)
/// and the heavy convergence tail stay visible. The array layout keeps the
/// type `Copy`, so [`TickStats`] remains a plain value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterHistogram {
    buckets: [u64; ITER_BUCKETS],
}

impl IterHistogram {
    /// Human-readable bucket labels, aligned with [`IterHistogram::buckets`].
    pub const LABELS: [&'static str; ITER_BUCKETS] =
        ["0", "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"];

    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from previously captured bucket counts (the
    /// persistence layer round-trips histograms through snapshots).
    #[must_use]
    pub fn from_buckets(buckets: [u64; ITER_BUCKETS]) -> Self {
        Self { buckets }
    }

    /// Records one result object that received `iterations` calls.
    pub fn record(&mut self, iterations: u64) {
        let idx = match iterations {
            0 => 0,
            1 => 1,
            2 => 2,
            3..=4 => 3,
            5..=8 => 4,
            9..=16 => 5,
            17..=32 => 6,
            33..=64 => 7,
            _ => 8,
        };
        self.buckets[idx] += 1;
    }

    /// The bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; ITER_BUCKETS] {
        &self.buckets
    }

    /// Total result objects recorded.
    #[must_use]
    pub fn total_objects(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds another histogram's counts into this one.
    pub fn merge(&mut self, other: &IterHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// What one rate tick cost to process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TickStats {
    /// The rate processed.
    pub rate: f64,
    /// Logical work, by component (§3.2's cost decomposition).
    pub work: WorkBreakdown,
    /// Wall-clock time for the tick.
    pub wall: Duration,
    /// Total `iterate()` calls across all result objects.
    pub iterations: u64,
    /// Stable name of the operator the tick's query ran
    /// (`"selection"`, `"max"`, …).
    pub operator: &'static str,
    /// Result objects whose per-object iteration counts were traced this
    /// tick (zero for the traditional path, which never calls `iterate()`
    /// on the clock).
    pub objects: u64,
    /// Iterations-per-result-object distribution for the traced objects.
    pub iter_histogram: IterHistogram,
    /// Estimated-vs-actual CPU error over the tick's traced iterations.
    pub cpu_est: CpuEstimation,
}

impl TickStats {
    /// Total logical work for the tick.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.work.total()
    }

    /// Mean `iterate()` calls per traced result object (zero when nothing
    /// was traced).
    #[must_use]
    pub fn mean_iterations_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.iterations as f64 / self.objects as f64
        }
    }
}

/// Aggregates a run of tick stats.
#[derive(Clone, Debug, Default)]
pub struct RunSummary {
    /// Ticks processed.
    pub ticks: usize,
    /// Summed work across ticks.
    pub work: WorkBreakdown,
    /// Summed wall time.
    pub wall: Duration,
    /// Summed iterations.
    pub iterations: u64,
    /// Summed traced result objects.
    pub objects: u64,
    /// Run-level iterations-per-result-object histogram (per-tick
    /// histograms merged).
    pub iter_histogram: IterHistogram,
    /// Run-level CPU estimation error: per-tick means combined weighted by
    /// each tick's traced iteration count.
    pub cpu_est: CpuEstimation,
}

impl RunSummary {
    /// Folds tick stats into a summary.
    #[must_use]
    pub fn from_ticks(ticks: &[TickStats]) -> Self {
        let mut s = Self::default();
        let mut abs_sum = 0.0f64;
        let mut pct_sum = 0.0f64;
        for t in ticks {
            s.ticks += 1;
            s.work += t.work;
            s.wall += t.wall;
            s.iterations += t.iterations;
            s.objects += t.objects;
            s.iter_histogram.merge(&t.iter_histogram);
            s.cpu_est.iterations += t.cpu_est.iterations;
            s.cpu_est.pct_iterations += t.cpu_est.pct_iterations;
            abs_sum += t.cpu_est.mean_abs_error * t.cpu_est.iterations as f64;
            // Each tick's mape averages only its pct-eligible (positive
            // measured cost) iterations, so it must be re-weighted by that
            // count — weighting by the total iteration count would let
            // zero-cost iterations dilute the run-level percentage.
            pct_sum += t.cpu_est.mean_abs_pct_error * t.cpu_est.pct_iterations as f64;
        }
        if s.cpu_est.iterations > 0 {
            s.cpu_est.mean_abs_error = abs_sum / s.cpu_est.iterations as f64;
        }
        if s.cpu_est.pct_iterations > 0 {
            s.cpu_est.mean_abs_pct_error = pct_sum / s.cpu_est.pct_iterations as f64;
        }
        s
    }

    /// Mean work per tick (zero if no ticks).
    #[must_use]
    pub fn mean_work(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.work.total() as f64 / self.ticks as f64
        }
    }

    /// Mean `iterate()` calls per traced result object across the run.
    #[must_use]
    pub fn mean_iterations_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            // The histogram only knows bucket membership, so the mean uses
            // the exact iteration total.
            self.iterations as f64 / self.objects as f64
        }
    }
}

/// The engine's per-tick [`ExecObserver`]: folds the event stream into the
/// compact per-tick measurements of [`TickStats`] without retaining events.
///
/// Per-object counts are buffered for the operator evaluation in flight and
/// flushed into the histogram when the operator ends, so one observer can
/// watch many operator evaluations per tick (e.g. one selection VAO per
/// bond). Nested evaluations (hybrid SUM delegating to the SUM VAO) flush
/// at the inner operator's end; the outer end then has nothing left to
/// flush, which keeps objects from being double-counted.
#[derive(Clone, Debug, Default)]
pub struct TickObserver {
    current: Vec<u64>,
    histogram: IterHistogram,
    objects: u64,
    cpu_iters: u64,
    cpu_abs_sum: f64,
    cpu_pct_iters: u64,
    cpu_pct_sum: f64,
}

impl TickObserver {
    /// A fresh observer for one tick.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The iterations-per-object histogram accumulated so far.
    #[must_use]
    pub fn histogram(&self) -> IterHistogram {
        self.histogram
    }

    /// Traced result objects flushed so far.
    #[must_use]
    pub fn objects(&self) -> u64 {
        self.objects
    }

    /// CPU-estimation summary over the observed iterations.
    #[must_use]
    pub fn cpu_estimation(&self) -> CpuEstimation {
        CpuEstimation {
            iterations: self.cpu_iters,
            pct_iterations: self.cpu_pct_iters,
            mean_abs_error: if self.cpu_iters > 0 {
                self.cpu_abs_sum / self.cpu_iters as f64
            } else {
                0.0
            },
            mean_abs_pct_error: if self.cpu_pct_iters > 0 {
                self.cpu_pct_sum / self.cpu_pct_iters as f64
            } else {
                0.0
            },
        }
    }
}

impl ExecObserver for TickObserver {
    fn on_operator_start(&mut self, _kind: OperatorKind, objects: usize) {
        self.current.clear();
        self.current.resize(objects, 0);
    }

    fn on_choice(&mut self, _choice: &ChoiceRecord) {}

    fn on_iteration(&mut self, iteration: &IterationRecord) {
        if iteration.object >= self.current.len() {
            self.current.resize(iteration.object + 1, 0);
        }
        self.current[iteration.object] += 1;
        self.cpu_iters += 1;
        let err = iteration.cpu_error().unsigned_abs() as f64;
        self.cpu_abs_sum += err;
        if iteration.actual_cpu > 0 {
            self.cpu_pct_iters += 1;
            self.cpu_pct_sum += err / iteration.actual_cpu as f64;
        }
    }

    fn on_hybrid_decision(&mut self, _decision: &HybridDecisionRecord) {}

    fn on_operator_end(&mut self, _end: &OperatorEndRecord) {
        for &count in &self.current {
            self.histogram.record(count);
        }
        self.objects += self.current.len() as u64;
        self.current.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(exec: u64) -> TickStats {
        let mut hist = IterHistogram::new();
        hist.record(0);
        hist.record(3);
        TickStats {
            rate: 0.05,
            work: WorkBreakdown {
                exec_iter: exec,
                get_state: 1,
                store_state: 1,
                choose_iter: 2,
            },
            wall: Duration::from_millis(3),
            iterations: 5,
            operator: "max",
            objects: 2,
            iter_histogram: hist,
            cpu_est: CpuEstimation {
                iterations: 5,
                pct_iterations: 5,
                mean_abs_error: 2.0,
                mean_abs_pct_error: 0.1,
            },
        }
    }

    #[test]
    fn totals_and_summary() {
        let t = tick(100);
        assert_eq!(t.total_work(), 104);
        assert!((t.mean_iterations_per_object() - 2.5).abs() < 1e-12);
        let s = RunSummary::from_ticks(&[tick(100), tick(200)]);
        assert_eq!(s.ticks, 2);
        assert_eq!(s.work.exec_iter, 300);
        assert_eq!(s.iterations, 10);
        assert_eq!(s.wall, Duration::from_millis(6));
        assert!((s.mean_work() - (104.0 + 204.0) / 2.0).abs() < 1e-12);
        // Histograms merged, objects summed, cpu means weight-averaged.
        assert_eq!(s.objects, 4);
        assert_eq!(s.iter_histogram.buckets()[0], 2);
        assert_eq!(s.iter_histogram.buckets()[3], 2);
        assert_eq!(s.cpu_est.iterations, 10);
        assert_eq!(s.cpu_est.pct_iterations, 10);
        assert!((s.cpu_est.mean_abs_error - 2.0).abs() < 1e-12);
        assert!((s.cpu_est.mean_abs_pct_error - 0.1).abs() < 1e-12);
    }

    #[test]
    fn run_mape_weights_by_pct_eligible_iterations_only() {
        // Tick A: 10 iterations, all at zero measured cost -> mape 0.0 over
        // 0 eligible iterations. Tick B: 10 iterations with positive cost,
        // mape 0.5 over all 10. The run-level mape is 0.5 — tick A has no
        // defined percentage error and must not dilute it to 0.25 (the
        // pre-fix behavior, which weighted by total iterations).
        let zero_cost = TickStats {
            cpu_est: CpuEstimation {
                iterations: 10,
                pct_iterations: 0,
                mean_abs_error: 3.0,
                mean_abs_pct_error: 0.0,
            },
            ..tick(100)
        };
        let biased = TickStats {
            cpu_est: CpuEstimation {
                iterations: 10,
                pct_iterations: 10,
                mean_abs_error: 5.0,
                mean_abs_pct_error: 0.5,
            },
            ..tick(100)
        };
        let s = RunSummary::from_ticks(&[zero_cost, biased]);
        assert_eq!(s.cpu_est.iterations, 20);
        assert_eq!(s.cpu_est.pct_iterations, 10);
        assert!((s.cpu_est.mean_abs_pct_error - 0.5).abs() < 1e-12);
        // mae still weights by total iterations: (10*3 + 10*5) / 20 = 4.
        assert!((s.cpu_est.mean_abs_error - 4.0).abs() < 1e-12);
        // All-zero-cost runs report mape 0.0, never NaN.
        let s = RunSummary::from_ticks(&[zero_cost]);
        assert_eq!(s.cpu_est.mean_abs_pct_error, 0.0);
        assert!(s.cpu_est.mean_abs_pct_error.is_finite());
    }

    #[test]
    fn empty_summary() {
        let s = RunSummary::from_ticks(&[]);
        assert_eq!(s.ticks, 0);
        assert_eq!(s.mean_work(), 0.0);
        assert_eq!(s.mean_iterations_per_object(), 0.0);
        assert_eq!(s.cpu_est, CpuEstimation::default());
    }

    #[test]
    fn histogram_buckets_and_labels_align() {
        let mut h = IterHistogram::new();
        for (iters, expect_bucket) in [
            (0u64, 0usize),
            (1, 1),
            (2, 2),
            (3, 3),
            (4, 3),
            (5, 4),
            (8, 4),
            (9, 5),
            (16, 5),
            (17, 6),
            (32, 6),
            (33, 7),
            (64, 7),
            (65, 8),
            (1000, 8),
        ] {
            let before = h.buckets()[expect_bucket];
            h.record(iters);
            assert_eq!(
                h.buckets()[expect_bucket],
                before + 1,
                "{iters} iterations should land in bucket {}",
                IterHistogram::LABELS[expect_bucket]
            );
        }
        assert_eq!(h.total_objects(), 15);
        assert_eq!(IterHistogram::LABELS.len(), ITER_BUCKETS);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = IterHistogram::new();
        a.record(0);
        a.record(7);
        let mut b = IterHistogram::new();
        b.record(0);
        a.merge(&b);
        assert_eq!(a.buckets()[0], 2);
        assert_eq!(a.buckets()[4], 1);
        assert_eq!(a.total_objects(), 3);
    }

    #[test]
    fn tick_observer_flushes_objects_at_operator_end() {
        use vao::Bounds;
        let mut obs = TickObserver::new();
        obs.on_operator_start(OperatorKind::Max, 3);
        let it = |object: usize, est: u64, actual: u64| IterationRecord {
            object,
            seq: 1,
            before: Bounds::new(0.0, 10.0),
            after: Bounds::new(2.0, 8.0),
            est_cpu: est,
            actual_cpu: actual,
        };
        obs.on_iteration(&it(0, 10, 8));
        obs.on_iteration(&it(0, 10, 10));
        obs.on_iteration(&it(2, 4, 8));
        obs.on_operator_end(&OperatorEndRecord {
            kind: OperatorKind::Max,
            iterations: 3,
            work: WorkBreakdown::default(),
        });
        assert_eq!(obs.objects(), 3);
        let h = obs.histogram();
        assert_eq!(h.buckets()[0], 1, "object 1 never iterated");
        assert_eq!(h.buckets()[1], 1, "object 2 iterated once");
        assert_eq!(h.buckets()[2], 1, "object 0 iterated twice");
        let est = obs.cpu_estimation();
        assert_eq!(est.iterations, 3);
        // Abs errors 2, 0, 4 -> mean 2; pct errors 0.25, 0, 0.5 -> mean 0.25.
        assert!((est.mean_abs_error - 2.0).abs() < 1e-12);
        assert!((est.mean_abs_pct_error - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tick_observer_handles_repeated_operators() {
        // One selection VAO per bond: three separate start/end pairs.
        let mut obs = TickObserver::new();
        for iters in [0u64, 2, 1] {
            obs.on_operator_start(OperatorKind::Selection, 1);
            for seq in 0..iters {
                obs.on_iteration(&IterationRecord {
                    object: 0,
                    seq: seq + 1,
                    before: vao::Bounds::new(0.0, 10.0),
                    after: vao::Bounds::new(2.0, 8.0),
                    est_cpu: 5,
                    actual_cpu: 5,
                });
            }
            obs.on_operator_end(&OperatorEndRecord {
                kind: OperatorKind::Selection,
                iterations: iters,
                work: WorkBreakdown::default(),
            });
        }
        assert_eq!(obs.objects(), 3);
        let h = obs.histogram();
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[2], 1);
    }
}
