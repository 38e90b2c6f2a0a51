//! Execution-trace observability for VAO scheduling.
//!
//! The operators of §5 make hundreds of small decisions per evaluation —
//! which object to iterate, how much benefit they expected, how much CPU the
//! iteration actually cost — and the aggregate numbers in a
//! [`WorkMeter`](crate::cost::WorkMeter) flatten all of that away. This
//! module exposes the decision stream itself:
//!
//! * [`ExecObserver`] — a callback trait the traced operator entry points
//!   ([`crate::ops::selection::select_traced`],
//!   [`crate::ops::minmax::max_vao_traced`],
//!   [`crate::ops::sum::weighted_sum_vao_traced`], … — every VAO of
//!   [`crate::ops`] but the heap-indexed SUM has one) thread through the
//!   evaluation loop they share. Every hook has an empty `#[inline]`
//!   default and the loop guards event construction behind
//!   [`ExecObserver::is_enabled`], so
//!   with the [`NoopObserver`] the whole layer monomorphizes to nothing:
//!   the untraced entry points stay exactly as fast as before the layer
//!   existed, and charge the exact same logical work either way (observers
//!   never touch the meter).
//! * [`Recorder`] — an observer that captures the full event stream
//!   ([`TraceEvent`]) and answers the questions the paper's figures are
//!   built from: per-object iteration counts, bound-width trajectories, and
//!   estimated-vs-actual CPU error (§4's `estCPU` quality).
//!
//! ```
//! use vao::cost::WorkMeter;
//! use vao::ops::selection::{select_traced, CmpOp};
//! use vao::testkit::ScriptedObject;
//! use vao::trace::Recorder;
//!
//! let mut obj = ScriptedObject::converging(
//!     &[(98.0, 110.0), (102.0, 107.0), (105.0, 105.005)],
//!     100,
//!     0.01,
//! );
//! let mut meter = WorkMeter::new();
//! let mut rec = Recorder::new();
//! select_traced(&mut obj, CmpOp::Gt, 100.0, &mut meter, &mut rec).unwrap();
//! // One refinement was needed; the recorder saw its bounds trajectory.
//! assert_eq!(rec.iterations_for(0), 1);
//! assert_eq!(rec.trajectory(0).len(), 2); // initial bounds + 1 refinement
//! ```

use crate::bounds::Bounds;
use crate::cost::{Work, WorkBreakdown};

/// Which operator produced a trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OperatorKind {
    /// Selection predicate (§3.2).
    Selection,
    /// MAX aggregate (§5.1).
    Max,
    /// MIN aggregate (§5.1, via negation).
    Min,
    /// Weighted SUM/AVE aggregate (§5.2).
    Sum,
    /// Hybrid SUM (§6.3).
    HybridSum,
    /// Top-K (extension of §5.1).
    TopK,
    /// Predicate COUNT with bounded slack (extension).
    Count,
    /// MEDIAN and the rank-`k` order statistics (extension; every rank
    /// reports under this one name).
    Median,
    /// Sketch-guided PERCENTILE value bounds (extension).
    Percentile,
    /// Sketch-guided HEAVY-HITTERS (extension).
    HeavyHitters,
    /// Cross-query shared-pool scheduler (the `va-server` extension of §5's
    /// greedy choice to every registered query at once).
    SharedPool,
}

impl OperatorKind {
    /// Stable lowercase name used in CSV/JSONL output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            OperatorKind::Selection => "selection",
            OperatorKind::Max => "max",
            OperatorKind::Min => "min",
            OperatorKind::Sum => "sum",
            OperatorKind::HybridSum => "hybrid_sum",
            OperatorKind::TopK => "topk",
            OperatorKind::Count => "count",
            OperatorKind::Median => "median",
            OperatorKind::Percentile => "percentile",
            OperatorKind::HeavyHitters => "heavyhitters",
            OperatorKind::SharedPool => "shared_pool",
        }
    }
}

impl std::fmt::Display for OperatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One strategy decision: which object the policy chose to iterate next,
/// and the estimates that justified the choice (§5's benefit/`estCPU`
/// ratio).
#[derive(Clone, Copy, Debug)]
pub struct ChoiceRecord {
    /// Index of the chosen result object in the operator's input set.
    pub object: usize,
    /// The chosen candidate's estimated benefit (operator-specific units:
    /// overlap reduction for MAX, weighted error reduction for SUM).
    pub benefit: f64,
    /// The chosen candidate's `estCPU` at decision time.
    pub est_cpu: Work,
    /// The greedy score `benefit / max(estCPU, 1)` the policy ranked by.
    pub score: f64,
    /// How many candidates were scored for this decision (`chooseIter` is
    /// charged proportionally to this).
    pub candidates: usize,
}

/// One `iterate()` call: the bounds it moved and the CPU it consumed
/// against the `estCPU` prediction.
#[derive(Clone, Copy, Debug)]
pub struct IterationRecord {
    /// Index of the iterated result object.
    pub object: usize,
    /// 1-based position of this call in the operator evaluation.
    pub seq: u64,
    /// Bounds before the call.
    pub before: Bounds,
    /// Bounds after the call.
    pub after: Bounds,
    /// The object's `estCPU` immediately before the call.
    pub est_cpu: Work,
    /// Work actually charged to the meter by the call (all components).
    pub actual_cpu: Work,
}

impl IterationRecord {
    /// Signed estimation error `estCPU − actual` in work units.
    #[must_use]
    pub fn cpu_error(&self) -> i64 {
        self.est_cpu as i64 - self.actual_cpu as i64
    }

    /// How much the call narrowed the bounds.
    #[must_use]
    pub fn width_reduction(&self) -> f64 {
        (self.before.width() - self.after.width()).max(0.0)
    }
}

/// End-of-evaluation summary for one operator invocation.
#[derive(Clone, Copy, Debug)]
pub struct OperatorEndRecord {
    /// Which operator finished.
    pub kind: OperatorKind,
    /// Total `iterate()` calls it issued.
    pub iterations: u64,
    /// Work charged to the meter during the evaluation.
    pub work: WorkBreakdown,
}

/// One batched scheduler round: the top-`batch` candidates on distinct
/// result objects were selected, admitted against the work budget, and
/// their `iterate()` calls run (possibly on several worker threads) before
/// bounds were merged and the round's work charged.
///
/// Serial (unbatched) schedulers are the `batch == admitted == 1` special
/// case; a round with `admitted < selected` was truncated by up-front
/// budget admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRecord {
    /// 1-based round ordinal within the operator evaluation.
    pub round: u64,
    /// Candidates scored this round (`chooseIter` is charged
    /// proportionally to this, once per round).
    pub candidates: usize,
    /// Distinct objects the policy selected for the round (≤ the
    /// configured batch size).
    pub selected: usize,
    /// Objects actually iterated after up-front budget admission
    /// (`admitted ≤ selected`; 0 never reaches the observer — the round
    /// degrades to a `budget_exhausted` event instead).
    pub admitted: usize,
    /// Summed `estCPU` of the admitted batch — the basis of the admission
    /// decision.
    pub est_cpu: Work,
    /// Work actually charged to the meter during the round (choice scoring
    /// plus every admitted `iterate()`).
    pub work: Work,
}

/// A scheduler ran out of per-tick work budget with refinement demand still
/// outstanding and degraded to anytime (interval-valued) answers.
#[derive(Clone, Copy, Debug)]
pub struct BudgetExhaustedRecord {
    /// The work-unit budget that was in force.
    pub budget: Work,
    /// Work already charged when the scheduler stopped. The scheduler stops
    /// *before* an `iterate()` that would overrun the budget, so any
    /// overshoot is bounded by the final choice-scoring charge.
    pub spent: Work,
    /// How many queries (or candidates, for single-query schedulers) still
    /// wanted refinement when the budget ran out.
    pub deferred: usize,
}

/// A server recovered persistent state from disk before resuming ticks.
///
/// Emitted once by the durability layer at the first observed tick after a
/// restart, so traces of a recovered run record where its history came
/// from — and, via `truncated_bytes`, whether a torn final journal record
/// was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Sequence number of the snapshot recovery started from (`None` when
    /// the whole journal was replayed from genesis).
    pub snapshot_seq: Option<u64>,
    /// Journal events replayed on top of the snapshot (0 after a clean
    /// shutdown).
    pub replayed_events: u64,
    /// Bytes of torn final journal record truncated away (0 on a clean
    /// open).
    pub truncated_bytes: u64,
    /// Corrupt snapshot files newer than the one recovery used that had to
    /// be skipped (0 on a healthy dir). Non-zero means recovery fell back
    /// to an older snapshot — a longer replay, not lost data.
    pub skipped_snapshots: u64,
    /// Stale temp files (crash leftovers from atomic writes) swept away
    /// before recovery started.
    pub swept_tmp_files: u64,
}

/// A durable server reclaimed journal segments after a snapshot became
/// durable.
///
/// Emitted at the first observed tick after the compaction (snapshot
/// writes happen between ticks), so traces record when history was
/// physically deleted and how much disk came back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionRecord {
    /// Sequence number of the snapshot whose durability triggered the
    /// compaction.
    pub snapshot_seq: u64,
    /// Journal segments deleted.
    pub segments_deleted: u64,
    /// Bytes those segments held.
    pub bytes_reclaimed: u64,
    /// Journal segments still on disk afterwards.
    pub live_segments: u64,
}

/// The §6.3 hybrid operator's routing decision.
#[derive(Clone, Copy, Debug)]
pub struct HybridDecisionRecord {
    /// True when the VAO path was chosen, false for the traditional path.
    pub chose_vao: bool,
    /// Measured precision slack `ε / Σ wᵢ·minWidthᵢ`.
    pub slack: f64,
    /// Measured top-decile weight concentration.
    pub concentration: f64,
}

/// Callbacks fired by the traced operator evaluation loops.
///
/// Implementations must not panic out of hooks and must not assume hooks
/// are called at all: the untraced entry points use [`NoopObserver`], whose
/// [`is_enabled`](ExecObserver::is_enabled) returns `false`, and the loops
/// skip both the hooks *and* the work of assembling their arguments.
///
/// Observers never receive the meter and cannot charge work, which is what
/// guarantees the acceptance property that tracing leaves every
/// [`WorkBreakdown`] bit-identical.
pub trait ExecObserver {
    /// Whether the operator loops should assemble and deliver events.
    ///
    /// The default is `true` (any custom observer presumably wants its
    /// events); [`NoopObserver`] overrides this to `false`, which lets the
    /// optimizer delete the observation blocks entirely.
    #[inline]
    fn is_enabled(&self) -> bool {
        true
    }

    /// An operator evaluation over `objects` result objects began.
    #[inline]
    fn on_operator_start(&mut self, kind: OperatorKind, objects: usize) {
        let _ = (kind, objects);
    }

    /// The iteration strategy picked its next object.
    #[inline]
    fn on_choice(&mut self, choice: &ChoiceRecord) {
        let _ = choice;
    }

    /// One `iterate()` call completed.
    #[inline]
    fn on_iteration(&mut self, iteration: &IterationRecord) {
        let _ = iteration;
    }

    /// The hybrid SUM operator routed an evaluation.
    #[inline]
    fn on_hybrid_decision(&mut self, decision: &HybridDecisionRecord) {
        let _ = decision;
    }

    /// A batched scheduler finished one round (selection, admission,
    /// parallel iteration, merge).
    #[inline]
    fn on_round(&mut self, round: &RoundRecord) {
        let _ = round;
    }

    /// A budgeted scheduler exhausted its per-tick work budget and fell
    /// back to anytime answers for the queries still refining.
    #[inline]
    fn on_budget_exhausted(&mut self, record: &BudgetExhaustedRecord) {
        let _ = record;
    }

    /// A server recovered persistent state (snapshot + journal replay)
    /// before this evaluation.
    #[inline]
    fn on_recovery(&mut self, record: &RecoveryRecord) {
        let _ = record;
    }

    /// A durable server compacted its journal (deleted fully-covered
    /// segments) after a snapshot became durable.
    #[inline]
    fn on_compaction(&mut self, record: &CompactionRecord) {
        let _ = record;
    }

    /// An operator evaluation finished (successfully).
    #[inline]
    fn on_operator_end(&mut self, end: &OperatorEndRecord) {
        let _ = end;
    }
}

/// Forwarding impl so call sites can pass `&mut observer` down without
/// consuming it.
impl<O: ExecObserver + ?Sized> ExecObserver for &mut O {
    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    #[inline]
    fn on_operator_start(&mut self, kind: OperatorKind, objects: usize) {
        (**self).on_operator_start(kind, objects);
    }

    #[inline]
    fn on_choice(&mut self, choice: &ChoiceRecord) {
        (**self).on_choice(choice);
    }

    #[inline]
    fn on_iteration(&mut self, iteration: &IterationRecord) {
        (**self).on_iteration(iteration);
    }

    #[inline]
    fn on_hybrid_decision(&mut self, decision: &HybridDecisionRecord) {
        (**self).on_hybrid_decision(decision);
    }

    #[inline]
    fn on_round(&mut self, round: &RoundRecord) {
        (**self).on_round(round);
    }

    #[inline]
    fn on_budget_exhausted(&mut self, record: &BudgetExhaustedRecord) {
        (**self).on_budget_exhausted(record);
    }

    #[inline]
    fn on_recovery(&mut self, record: &RecoveryRecord) {
        (**self).on_recovery(record);
    }

    #[inline]
    fn on_compaction(&mut self, record: &CompactionRecord) {
        (**self).on_compaction(record);
    }

    #[inline]
    fn on_operator_end(&mut self, end: &OperatorEndRecord) {
        (**self).on_operator_end(end);
    }
}

/// The do-nothing observer the untraced entry points use.
///
/// Its `is_enabled` returns `false`, so after monomorphization every
/// observation block in the operator loops is dead code and the traced and
/// untraced paths compile to the same machine code.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl ExecObserver for NoopObserver {
    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// One event in a recorded execution trace.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// An operator evaluation began.
    OperatorStart {
        /// Which operator.
        kind: OperatorKind,
        /// Size of its input set.
        objects: usize,
    },
    /// A strategy decision.
    Choice(ChoiceRecord),
    /// An `iterate()` call.
    Iteration(IterationRecord),
    /// A hybrid routing decision.
    HybridDecision(HybridDecisionRecord),
    /// A batched scheduler round completed.
    Round(RoundRecord),
    /// A budgeted scheduler ran out of work budget mid-evaluation.
    BudgetExhausted(BudgetExhaustedRecord),
    /// A server recovered persistent state before resuming.
    Recovery(RecoveryRecord),
    /// A durable server reclaimed journal segments behind a snapshot.
    Compaction(CompactionRecord),
    /// An operator evaluation finished.
    OperatorEnd(OperatorEndRecord),
}

/// Mean absolute `estCPU` error over the iterations of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuEstimation {
    /// Iterations the statistics cover.
    pub iterations: u64,
    /// Iterations that contributed to `mean_abs_pct_error` — those with a
    /// positive measured cost. Zero-cost iterations have no defined
    /// percentage error and are excluded from the mean (which reports 0.0
    /// when *no* iteration had positive cost); carrying the eligible count
    /// here is what lets downstream aggregation re-weight per-tick means
    /// without re-counting zero-cost iterations.
    pub pct_iterations: u64,
    /// Mean of `|estCPU − actual|` in work units.
    pub mean_abs_error: f64,
    /// Mean of `|estCPU − actual| / actual` over the `pct_iterations`
    /// eligible iterations, as a fraction: 0.07 means estimates were off
    /// by 7 % on average. Defined as 0.0 when `pct_iterations == 0`.
    pub mean_abs_pct_error: f64,
}

/// An [`ExecObserver`] that records every event for later inspection.
///
/// The recorder is an append-only log plus a handful of derived views
/// (per-object iteration counts, bound trajectories, CPU-estimation error).
/// It can observe any number of operator evaluations; events accumulate
/// until [`Recorder::clear`].
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    events: Vec<TraceEvent>,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Discards all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Number of `iterate()` calls recorded for object `index`.
    #[must_use]
    pub fn iterations_for(&self, index: usize) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Iteration(it) if it.object == index))
            .count() as u64
    }

    /// Per-object iteration counts, indexed by object; sized to the largest
    /// object index seen (empty when no iterations were recorded).
    #[must_use]
    pub fn iterations_per_object(&self) -> Vec<u64> {
        let mut counts: Vec<u64> = Vec::new();
        for e in &self.events {
            if let TraceEvent::Iteration(it) = e {
                if it.object >= counts.len() {
                    counts.resize(it.object + 1, 0);
                }
                counts[it.object] += 1;
            }
        }
        counts
    }

    /// The bounds trajectory of object `index`: its bounds before its first
    /// recorded iteration, then the bounds after each iteration, in order.
    /// Empty when the object was never iterated.
    #[must_use]
    pub fn trajectory(&self, index: usize) -> Vec<Bounds> {
        let mut traj = Vec::new();
        for e in &self.events {
            if let TraceEvent::Iteration(it) = e {
                if it.object == index {
                    if traj.is_empty() {
                        traj.push(it.before);
                    }
                    traj.push(it.after);
                }
            }
        }
        traj
    }

    /// Aggregate `estCPU` estimation error over every recorded iteration.
    #[must_use]
    pub fn cpu_estimation(&self) -> CpuEstimation {
        let mut n = 0u64;
        let mut abs_sum = 0.0f64;
        let mut pct_n = 0u64;
        let mut pct_sum = 0.0f64;
        for e in &self.events {
            if let TraceEvent::Iteration(it) = e {
                n += 1;
                let err = it.cpu_error().unsigned_abs();
                abs_sum += err as f64;
                if it.actual_cpu > 0 {
                    pct_n += 1;
                    pct_sum += err as f64 / it.actual_cpu as f64;
                }
            }
        }
        CpuEstimation {
            iterations: n,
            pct_iterations: pct_n,
            mean_abs_error: if n > 0 { abs_sum / n as f64 } else { 0.0 },
            mean_abs_pct_error: if pct_n > 0 {
                pct_sum / pct_n as f64
            } else {
                0.0
            },
        }
    }

    /// Number of strategy decisions recorded.
    #[must_use]
    pub fn choices(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Choice(_)))
            .count()
    }

    /// The batched-round records, in order.
    #[must_use]
    pub fn rounds(&self) -> Vec<RoundRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Round(r) => Some(*r),
                _ => None,
            })
            .collect()
    }
}

impl ExecObserver for Recorder {
    fn on_operator_start(&mut self, kind: OperatorKind, objects: usize) {
        self.events
            .push(TraceEvent::OperatorStart { kind, objects });
    }

    fn on_choice(&mut self, choice: &ChoiceRecord) {
        self.events.push(TraceEvent::Choice(*choice));
    }

    fn on_iteration(&mut self, iteration: &IterationRecord) {
        self.events.push(TraceEvent::Iteration(*iteration));
    }

    fn on_hybrid_decision(&mut self, decision: &HybridDecisionRecord) {
        self.events.push(TraceEvent::HybridDecision(*decision));
    }

    fn on_round(&mut self, round: &RoundRecord) {
        self.events.push(TraceEvent::Round(*round));
    }

    fn on_budget_exhausted(&mut self, record: &BudgetExhaustedRecord) {
        self.events.push(TraceEvent::BudgetExhausted(*record));
    }

    fn on_recovery(&mut self, record: &RecoveryRecord) {
        self.events.push(TraceEvent::Recovery(*record));
    }

    fn on_compaction(&mut self, record: &CompactionRecord) {
        self.events.push(TraceEvent::Compaction(*record));
    }

    fn on_operator_end(&mut self, end: &OperatorEndRecord) {
        self.events.push(TraceEvent::OperatorEnd(*end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(lo: f64, hi: f64) -> Bounds {
        Bounds::new(lo, hi)
    }

    fn iteration(object: usize, seq: u64, before: Bounds, after: Bounds) -> IterationRecord {
        IterationRecord {
            object,
            seq,
            before,
            after,
            est_cpu: 10,
            actual_cpu: 8,
        }
    }

    #[test]
    fn noop_observer_is_disabled() {
        assert!(!NoopObserver.is_enabled());
        // And the forwarding impl preserves that.
        let mut noop = NoopObserver;
        let fwd = &mut noop;
        assert!(!fwd.is_enabled());
    }

    #[test]
    fn recorder_is_enabled_by_default() {
        assert!(Recorder::new().is_enabled());
    }

    #[test]
    fn recorder_counts_iterations_per_object() {
        let mut rec = Recorder::new();
        rec.on_iteration(&iteration(2, 1, b(0.0, 10.0), b(2.0, 8.0)));
        rec.on_iteration(&iteration(0, 2, b(0.0, 4.0), b(1.0, 3.0)));
        rec.on_iteration(&iteration(2, 3, b(2.0, 8.0), b(4.0, 6.0)));
        assert_eq!(rec.iterations_for(2), 2);
        assert_eq!(rec.iterations_for(0), 1);
        assert_eq!(rec.iterations_for(1), 0);
        assert_eq!(rec.iterations_per_object(), vec![1, 0, 2]);
    }

    #[test]
    fn recorder_builds_bound_trajectories() {
        let mut rec = Recorder::new();
        rec.on_iteration(&iteration(1, 1, b(0.0, 10.0), b(2.0, 8.0)));
        rec.on_iteration(&iteration(1, 2, b(2.0, 8.0), b(4.0, 6.0)));
        assert_eq!(
            rec.trajectory(1),
            vec![b(0.0, 10.0), b(2.0, 8.0), b(4.0, 6.0)]
        );
        assert!(rec.trajectory(0).is_empty());
    }

    #[test]
    fn cpu_estimation_summarizes_errors() {
        let mut rec = Recorder::new();
        // est 10 actual 8 -> abs err 2, pct 0.25.
        rec.on_iteration(&iteration(0, 1, b(0.0, 2.0), b(0.5, 1.5)));
        // est 6 actual 8 -> abs err 2, pct 0.25.
        rec.on_iteration(&IterationRecord {
            est_cpu: 6,
            ..iteration(0, 2, b(0.5, 1.5), b(0.9, 1.1))
        });
        let est = rec.cpu_estimation();
        assert_eq!(est.iterations, 2);
        assert_eq!(est.pct_iterations, 2);
        assert!((est.mean_abs_error - 2.0).abs() < 1e-12);
        assert!((est.mean_abs_pct_error - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cpu_estimation_skips_zero_cost_in_pct() {
        let mut rec = Recorder::new();
        rec.on_iteration(&IterationRecord {
            actual_cpu: 0,
            est_cpu: 5,
            ..iteration(0, 1, b(0.0, 2.0), b(0.5, 1.5))
        });
        let est = rec.cpu_estimation();
        assert_eq!(est.iterations, 1);
        assert_eq!(
            est.pct_iterations, 0,
            "zero-cost iterations are pct-ineligible"
        );
        assert_eq!(
            est.mean_abs_pct_error, 0.0,
            "defined as 0.0 when nothing is eligible"
        );
        assert!((est.mean_abs_error - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_estimation_counts_pct_eligible_iterations_separately() {
        let mut rec = Recorder::new();
        // One eligible (est 10, actual 8 -> pct 0.25), one zero-cost.
        rec.on_iteration(&iteration(0, 1, b(0.0, 2.0), b(0.5, 1.5)));
        rec.on_iteration(&IterationRecord {
            actual_cpu: 0,
            est_cpu: 4,
            ..iteration(0, 2, b(0.5, 1.5), b(0.9, 1.1))
        });
        let est = rec.cpu_estimation();
        assert_eq!(est.iterations, 2);
        assert_eq!(est.pct_iterations, 1);
        // The mean is over eligible iterations only, not diluted by the
        // zero-cost one.
        assert!((est.mean_abs_pct_error - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_recorder_yields_zeroed_summaries() {
        let rec = Recorder::new();
        assert_eq!(rec.cpu_estimation(), CpuEstimation::default());
        assert!(rec.iterations_per_object().is_empty());
        assert_eq!(rec.choices(), 0);
    }

    #[test]
    fn clear_resets_the_log() {
        let mut rec = Recorder::new();
        rec.on_operator_start(OperatorKind::Max, 3);
        rec.on_choice(&ChoiceRecord {
            object: 0,
            benefit: 1.0,
            est_cpu: 4,
            score: 0.25,
            candidates: 3,
        });
        assert_eq!(rec.events().len(), 2);
        rec.clear();
        assert!(rec.events().is_empty());
    }

    #[test]
    fn iteration_record_derived_quantities() {
        let it = iteration(0, 1, b(0.0, 10.0), b(2.0, 8.0));
        assert_eq!(it.cpu_error(), 2);
        assert!((it.width_reduction() - 4.0).abs() < 1e-12);
        // A widening iterate (contract violation) clamps to zero reduction.
        let widened = iteration(0, 2, b(2.0, 8.0), b(0.0, 10.0));
        assert_eq!(widened.width_reduction(), 0.0);
    }

    #[test]
    fn operator_kind_names_are_stable() {
        assert_eq!(OperatorKind::Selection.name(), "selection");
        assert_eq!(OperatorKind::Max.to_string(), "max");
        assert_eq!(OperatorKind::HybridSum.name(), "hybrid_sum");
        assert_eq!(OperatorKind::TopK.name(), "topk");
        assert_eq!(OperatorKind::Count.name(), "count");
        assert_eq!(OperatorKind::Median.name(), "median");
        assert_eq!(OperatorKind::Percentile.name(), "percentile");
        assert_eq!(OperatorKind::HeavyHitters.name(), "heavyhitters");
        assert_eq!(OperatorKind::SharedPool.name(), "shared_pool");
    }

    #[test]
    fn recorder_captures_recovery_events() {
        let mut rec = Recorder::new();
        let record = RecoveryRecord {
            snapshot_seq: Some(3),
            replayed_events: 7,
            truncated_bytes: 12,
            skipped_snapshots: 1,
            swept_tmp_files: 2,
        };
        // Route through the forwarding impl like the server's fanout does.
        let mut fwd = &mut rec;
        ExecObserver::on_recovery(&mut fwd, &record);
        assert!(matches!(
            rec.events(),
            [TraceEvent::Recovery(r)] if *r == record
        ));
        // The default hook is a no-op: a NoopObserver accepts it.
        NoopObserver.on_recovery(&record);
    }

    #[test]
    fn recorder_captures_compaction_events() {
        let mut rec = Recorder::new();
        let record = CompactionRecord {
            snapshot_seq: 4,
            segments_deleted: 2,
            bytes_reclaimed: 8_192,
            live_segments: 3,
        };
        let mut fwd = &mut rec;
        ExecObserver::on_compaction(&mut fwd, &record);
        assert!(matches!(
            rec.events(),
            [TraceEvent::Compaction(r)] if *r == record
        ));
        NoopObserver.on_compaction(&record);
    }

    #[test]
    fn recorder_captures_budget_exhaustion() {
        let mut rec = Recorder::new();
        rec.on_budget_exhausted(&BudgetExhaustedRecord {
            budget: 1000,
            spent: 980,
            deferred: 3,
        });
        // The forwarding impl routes the hook too.
        let mut fwd = &mut rec;
        ExecObserver::on_budget_exhausted(
            &mut fwd,
            &BudgetExhaustedRecord {
                budget: 1000,
                spent: 999,
                deferred: 1,
            },
        );
        let spent: Vec<Work> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BudgetExhausted(r) => Some(r.spent),
                _ => None,
            })
            .collect();
        assert_eq!(spent, vec![980, 999]);
    }
}
