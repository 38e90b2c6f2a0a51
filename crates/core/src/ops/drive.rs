//! §5's round loop, written once.
//!
//! Every VAO runs the same cycle — score the candidate iterations by
//! benefit / `estCPU`, iterate the best, stop on the operator's own rule —
//! and [`run_rounds`] is that cycle, for a dedicated operator and for
//! `va-server`'s shared pool alike. Per round it sums the demand lists of a
//! [`DemandSource`] per object (weighted), chooses the top `batch` on
//! distinct objects, admits the longest prefix that fits the work budget,
//! hands it to the [`Pool`] to iterate, checks each object's progress, and
//! has the source repair its lists. It stops when no list demands
//! anything — the operators' stopping rules are "the demand is empty" —
//! or when the budget admits nothing.
//!
//! The loop is generic over the two things that differ, both monomorphised:
//!
//! * the **pool** — the scoring [`View`] (with the `estCPU` the loop ranks
//!   and admits by) and the hook that runs an admitted round. A slice of
//!   result objects is a pool whose hook is a plain `iterate()`; the
//!   server's runs a round inline, in SoA lanes or on worker threads.
//! * the **demand source** — the weighted lists and their repair. An
//!   operator's is its stateless demand function recomputed every round
//!   (one list, weight 1); the server's is every session's, repaired
//!   incrementally.
//!
//! A dedicated operator is the loop with one object per round and no
//! budget, bracketed by its `operator_start` / `operator_end` events (the
//! crate-private `Driver`). The same driver offers the guarded single
//! `iterate()` that the loops which are not §5's choice are built on:
//! SELECT's pipeline, `calibrate`, the §6.2 oracle and the heap-indexed SUM
//! ablation.

use crate::bounds::Bounds;
use crate::cost::{Work, WorkBreakdown, WorkMeter};
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::minmax::AggregateConfig;
use crate::ops::score::View;
use crate::precision::PrecisionConstraint;
use crate::strategy::{Candidate, ChoicePolicy};
use crate::trace::{
    BudgetExhaustedRecord, ExecObserver, IterationRecord, NoopObserver, OperatorEndRecord,
    OperatorKind, RoundRecord,
};

/// One demand list's appetite for refining one object.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    /// Object index.
    pub object: usize,
    /// Expected output-bound-width reduction, in the list's output units
    /// (§5's benefit estimate). May be zero when the object's own estimate
    /// predicts no progress; the greedy policy's widest-first fallback
    /// still guarantees progress then.
    pub benefit: f64,
}

/// The sink a scoring function emits `(object, benefit)` into.
pub fn push(out: &mut Vec<Demand>) -> impl FnMut(usize, f64) + '_ {
    |object, benefit| out.push(Demand { object, benefit })
}

/// One object's iteration in an admitted round.
#[derive(Clone, Copy, Debug)]
pub struct Step {
    /// Bounds before the `iterate()` call.
    pub before: Bounds,
    /// Bounds after it.
    pub after: Bounds,
    /// Work the call charged.
    pub work: WorkBreakdown,
}

/// What the round loop schedules over.
pub trait Pool {
    /// What scoring reads: the objects' bounds, estimates and convergence.
    type View: View + ?Sized;

    /// What running a round can fail with besides a stall.
    type Error: From<VaoError>;

    /// The pool's current [`View`].
    fn view(&self) -> &Self::View;

    /// Iterates the distinct objects `objs` once each, charging `meter`,
    /// and returns their steps in the order given.
    fn execute<O: ExecObserver>(
        &mut self,
        objs: &[usize],
        meter: &mut WorkMeter,
        observer: &mut O,
    ) -> Result<Vec<Step>, Self::Error>;
}

/// A slice of result objects: the columns are the objects' own answers and
/// a round is one plain `iterate()` per admitted object.
impl<R: ResultObject> Pool for [R] {
    type View = [R];
    type Error = VaoError;

    fn view(&self) -> &[R] {
        self
    }

    fn execute<O: ExecObserver>(
        &mut self,
        objs: &[usize],
        meter: &mut WorkMeter,
        _observer: &mut O,
    ) -> Result<Vec<Step>, VaoError> {
        let mut steps = Vec::with_capacity(objs.len());
        for &i in objs {
            let (before, snap) = (self[i].bounds(), meter.snapshot());
            let after = self[i].iterate(meter);
            let work = meter.since(&snap);
            steps.push(Step {
                before,
                after,
                work,
            });
        }
        Ok(steps)
    }
}

/// Where the round loop's demand comes from: weighted lists over a view,
/// current for its bounds at the top of every round. A list is empty
/// exactly when its query can answer from the current bounds.
pub trait DemandSource<V: ?Sized> {
    /// Number of lists.
    fn lists(&self) -> usize;

    /// List `s` and its weight (a session's priority).
    fn list(&self, s: usize) -> (f64, &[Demand]);

    /// Lists that still demand something.
    fn outstanding(&self) -> usize;

    /// Brings every list up to date after the distinct objects `changed`
    /// were iterated.
    fn repair(&mut self, view: &V, changed: &[usize]);
}

/// How one run of the loop chooses, and how far it may go.
#[derive(Debug)]
pub struct Schedule<'a> {
    /// The iteration-choice policy.
    pub policy: &'a mut ChoicePolicy,
    /// Distinct objects chosen per round (clamped to at least 1).
    pub batch: usize,
    /// The total the meter may reach: a round is admitted only as far as
    /// its summed `estCPU` fits. `None` is unbudgeted.
    pub budget: Option<Work>,
    /// Defensive cap on `iterate()` calls.
    pub limit: u64,
}

/// What one run of the loop did.
#[derive(Clone, Debug, Default)]
pub struct Rounds {
    /// `iterate()` calls issued.
    pub iterations: u64,
    /// Per list, the iterations credited to it: each admitted object goes
    /// to the list with the highest weighted benefit on it (the first such).
    pub driven: Vec<u64>,
    /// Iterations per object.
    pub per_object: Vec<u64>,
    /// Whether the budget ran out with demand outstanding.
    pub budget_exhausted: bool,
}

/// Runs rounds over `pool` until `source` demands nothing or the budget
/// admits nothing (see the module docs). `meter` is the one the budget
/// applies to.
///
/// # Errors
///
/// [`VaoError::IterationLimitExceeded`] past `schedule.limit` or when an
/// unconverged object's iteration moved nothing (it would never meet a
/// stopping rule); whatever the pool's round fails with.
pub fn run_rounds<P, D, O>(
    pool: &mut P,
    source: &mut D,
    schedule: Schedule<'_>,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<Rounds, P::Error>
where
    P: Pool + ?Sized,
    D: DemandSource<P::View> + ?Sized,
    O: ExecObserver,
{
    let (budget, limit) = (schedule.budget, schedule.limit);
    let stalled = || VaoError::IterationLimitExceeded { limit };
    let n = pool.view().len();
    let mut weighted = vec![0.0f64; n];
    let mut demanded = vec![false; n];
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut done = Rounds {
        driven: vec![0; source.lists()],
        per_object: vec![0; n],
        ..Rounds::default()
    };
    let mut round = 0u64;
    loop {
        let outstanding = source.outstanding();
        if outstanding == 0 {
            return Ok(done);
        }
        if done.iterations >= limit {
            return Err(stalled().into());
        }
        let round_snap = meter.snapshot();

        // An object's benefit is the weighted sum of what every list
        // expects from it; candidates are offered in object-index order.
        weighted.fill(0.0);
        demanded.fill(false);
        for s in 0..source.lists() {
            let (w, list) = source.list(s);
            for d in list {
                weighted[d.object] += w * d.benefit;
                demanded[d.object] = true;
            }
        }
        candidates.clear();
        candidates.extend((0..n).filter(|&i| demanded[i]).map(|i| Candidate {
            index: i,
            benefit: weighted[i],
            est_cpu: pool.view().est_cpu(i),
            width: pool.view().bounds(i).width(),
        }));
        // `chooseIter`: one unit per candidate scanned (§5.1).
        meter.charge_choose(candidates.len() as Work);
        if candidates.is_empty() {
            return Err(stalled().into());
        }
        let room = (limit - done.iterations).min(schedule.batch.max(1) as u64) as usize;
        let selected = schedule.policy.top_k_traced(&candidates, room, observer);

        // Admit the longest prefix, in pick order, whose summed estCPU fits.
        let spent = meter.total();
        let mut admitted_est: Work = 0;
        let mut admitted: Vec<&Candidate> = Vec::with_capacity(selected.len());
        for &p in &selected {
            let est = candidates[p].est_cpu;
            if budget.is_some_and(|b| spent + admitted_est + est > b) {
                break;
            }
            admitted_est += est;
            admitted.push(&candidates[p]);
        }
        if admitted.is_empty() {
            if observer.is_enabled() {
                observer.on_budget_exhausted(&BudgetExhaustedRecord {
                    budget: budget.unwrap_or(0),
                    spent,
                    deferred: outstanding,
                });
            }
            done.budget_exhausted = true;
            return Ok(done);
        }
        let objs: Vec<usize> = admitted.iter().map(|c| c.index).collect();
        for s in objs.iter().filter_map(|&i| claimant(source, i)) {
            done.driven[s] += 1;
        }

        let steps = pool.execute(&objs, meter, observer)?;
        // Records and the progress check in pick order, whoever ran what.
        for (c, step) in admitted.iter().zip(&steps) {
            done.iterations += 1;
            done.per_object[c.index] += 1;
            if observer.is_enabled() {
                observer.on_iteration(&IterationRecord {
                    object: c.index,
                    seq: done.iterations,
                    before: step.before,
                    after: step.after,
                    est_cpu: c.est_cpu,
                    actual_cpu: step.work.total(),
                });
            }
            if step.after == step.before && !pool.view().converged(c.index) {
                return Err(stalled().into());
            }
        }
        round += 1;
        if observer.is_enabled() {
            observer.on_round(&RoundRecord {
                round,
                candidates: candidates.len(),
                selected: selected.len(),
                admitted: objs.len(),
                est_cpu: admitted_est,
                work: meter.since(&round_snap).total(),
            });
        }
        source.repair(pool.view(), &objs);
    }
}

/// The list that wants object `i` most: the highest weighted benefit on
/// it, the first such on a tie (a zero-benefit fallback pick goes to its
/// first demander).
fn claimant<V: ?Sized, D: DemandSource<V> + ?Sized>(source: &D, i: usize) -> Option<usize> {
    let mut claim: Option<(usize, f64)> = None;
    for s in 0..source.lists() {
        let (weight, list) = source.list(s);
        if let Some(d) = list.iter().find(|d| d.object == i) {
            let w = weight * d.benefit;
            if claim.is_none_or(|(_, best)| w > best) {
                claim = Some((s, w));
            }
        }
    }
    claim.map(|(s, _)| s)
}

/// An operator's demand source: its stateless demand function, recomputed
/// over the objects after every round.
struct Recompute<F> {
    demand: F,
    list: Vec<Demand>,
}

impl<V: ?Sized, F: FnMut(&V, &mut Vec<Demand>)> DemandSource<V> for Recompute<F> {
    fn lists(&self) -> usize {
        1
    }

    fn list(&self, _: usize) -> (f64, &[Demand]) {
        (1.0, &self.list)
    }

    fn outstanding(&self) -> usize {
        usize::from(!self.list.is_empty())
    }

    fn repair(&mut self, view: &V, _: &[usize]) {
        self.list.clear();
        (self.demand)(view, &mut self.list);
    }
}

/// One operator evaluation of `kind` through the round loop: `demand`, the
/// operator's stateless demand function, is its one list (weight 1), one
/// object per round, no budget; the operator's start and end events
/// bracket it. Returns the `iterate()` calls issued and the iterations per
/// object.
pub(super) fn operate<R: ResultObject, O: ExecObserver>(
    kind: OperatorKind,
    objs: &mut [R],
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: O,
    mut demand: impl FnMut(&[R], &mut Vec<Demand>),
) -> Result<(u64, Vec<u64>), VaoError> {
    let limit = config.iteration_limit;
    let mut drive = Driver::begin(kind, objs.len(), limit, meter, observer);
    let mut list = Vec::new();
    demand(&*objs, &mut list);
    let source = &mut Recompute { demand, list };
    let schedule = Schedule {
        policy: &mut config.policy,
        batch: 1,
        budget: None,
        limit,
    };
    let done = run_rounds(objs, source, schedule, drive.meter, &mut drive.observer)?;
    drive.iterations = done.iterations;
    Ok((drive.finish(), done.per_object))
}

/// One operator evaluation in flight: its meter, its observer, its
/// iteration count and the defensive cap on it.
pub(super) struct Driver<'a, O: ExecObserver> {
    /// The evaluation's meter (`sum_heap` charges its heap operations here).
    pub(super) meter: &'a mut WorkMeter,
    observer: O,
    limit: u64,
    iterations: u64,
    /// What [`Driver::finish`] reports against; `None` when nobody listens.
    span: Option<(OperatorKind, WorkBreakdown)>,
}

impl<'a> Driver<'a, NoopObserver> {
    /// A driver for the loops that report to nobody (`calibrate`,
    /// `oracle_max`, `sum_heap`).
    pub(super) fn unobserved(limit: u64, meter: &'a mut WorkMeter) -> Self {
        Driver {
            meter,
            observer: NoopObserver,
            limit,
            iterations: 0,
            span: None,
        }
    }
}

impl<'a, O: ExecObserver> Driver<'a, O> {
    /// Opens an evaluation of `kind` over `objects` result objects.
    pub(super) fn begin(
        kind: OperatorKind,
        objects: usize,
        limit: u64,
        meter: &'a mut WorkMeter,
        mut observer: O,
    ) -> Self {
        let span = observer.is_enabled().then(|| {
            observer.on_operator_start(kind, objects);
            (kind, meter.snapshot())
        });
        Driver {
            meter,
            observer,
            limit,
            iterations: 0,
            span,
        }
    }

    /// `iterate()` calls issued so far.
    pub(super) fn iterations(&self) -> u64 {
        self.iterations
    }

    /// One guarded `iterate()` of `obj`, reported as object `index`: refuses
    /// past the iteration limit, and treats unchanged bounds on an
    /// unconverged object as a stall (it would never meet any stopping
    /// rule). Returns the bounds before and after.
    pub(super) fn step<R: ResultObject>(
        &mut self,
        obj: &mut R,
        index: usize,
    ) -> Result<(Bounds, Bounds), VaoError> {
        let stalled = VaoError::IterationLimitExceeded { limit: self.limit };
        if self.iterations >= self.limit {
            return Err(stalled);
        }
        // The estimate and the meter snapshot (the call's actual CPU is the
        // meter's movement across it) are the one piece of bookkeeping only
        // the trace needs.
        let traced = self
            .observer
            .is_enabled()
            .then(|| (obj.est_cpu(), self.meter.snapshot()));
        let before = obj.bounds();
        let after = obj.iterate(self.meter);
        self.iterations += 1;
        if let Some((est_cpu, snapshot)) = traced {
            self.observer.on_iteration(&IterationRecord {
                object: index,
                seq: self.iterations,
                before,
                after,
                est_cpu,
                actual_cpu: self.meter.since(&snapshot).total(),
            });
        }
        if after == before && !obj.converged() {
            return Err(stalled);
        }
        Ok((before, after))
    }

    /// Closes the evaluation and returns its iteration count.
    pub(super) fn finish(mut self) -> u64 {
        if let Some((kind, start)) = self.span {
            self.observer.on_operator_end(&OperatorEndRecord {
                kind,
                iterations: self.iterations,
                work: self.meter.since(&start),
            });
        }
        self.iterations
    }
}

/// What every operator of the rank family (MAX/MIN, Top-K, the order
/// statistics) checks first: rank `k` exists among `objs`, and ε is
/// reachable by any single object (footnote 10: ε ≥ max `minWidth`).
pub(super) fn validate_rank<R: ResultObject>(
    objs: &[R],
    k: usize,
    epsilon: PrecisionConstraint,
) -> Result<(), VaoError> {
    if k == 0 || k > objs.len() {
        return Err(VaoError::EmptyInput);
    }
    epsilon.validate_single_object(objs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;
    use crate::trace::{Recorder, TraceEvent};

    /// Two weighted lists, fixed for the test: what a two-session server
    /// would hold before its first round.
    struct Fixed(Vec<(f64, Vec<Demand>)>);

    impl DemandSource<[ScriptedObject]> for Fixed {
        fn lists(&self) -> usize {
            self.0.len()
        }

        fn list(&self, s: usize) -> (f64, &[Demand]) {
            (self.0[s].0, &self.0[s].1)
        }

        fn outstanding(&self) -> usize {
            self.0.iter().filter(|(_, list)| !list.is_empty()).count()
        }

        fn repair(&mut self, pool: &[ScriptedObject], changed: &[usize]) {
            for (_, list) in &mut self.0 {
                list.retain(|d| !changed.contains(&d.object) || !pool[d.object].converged());
            }
        }
    }

    fn demand(object: usize, benefit: f64) -> Demand {
        Demand { object, benefit }
    }

    #[test]
    fn a_batched_budgeted_round_admits_a_prefix_and_credits_the_keenest_list() {
        // Three one-step objects at estCPU 4 (each step charges 6). Object
        // 1 is wanted by both lists, most by the heavier one. The budget of
        // 12 admits two of the three picks after the round's choice charge
        // of 3, and nothing afterwards.
        let mut objs: Vec<ScriptedObject> = (0..3)
            .map(|i| {
                let lo = 10.0 * f64::from(i);
                ScriptedObject::converging(&[(lo, lo + 4.0), (lo + 1.0, lo + 1.004)], 4, 0.01)
            })
            .collect();
        let mut source = Fixed(vec![
            (1.0, vec![demand(0, 3.0), demand(1, 1.0)]),
            (2.0, vec![demand(1, 1.0), demand(2, 0.5)]),
        ]);
        let mut policy = ChoicePolicy::greedy();
        let schedule = Schedule {
            policy: &mut policy,
            batch: 3,
            budget: Some(12),
            limit: 100,
        };
        let mut meter = WorkMeter::new();
        let mut rec = Recorder::new();
        let done = run_rounds(&mut objs[..], &mut source, schedule, &mut meter, &mut rec).unwrap();
        // Weighted benefits 3.0, 3.0 and 1.0: objects 0 and 1 tie and go
        // in index order, 3 + 4 + 4 fits under 12 and a third 4 does not.
        assert_eq!(done.per_object, vec![1, 1, 0]);
        assert_eq!(done.driven, vec![1, 1]);
        assert!(done.budget_exhausted);
        let rounds: Vec<RoundRecord> = rec.rounds();
        assert_eq!(rounds.len(), 1);
        assert_eq!((rounds[0].selected, rounds[0].admitted), (3, 2));
        assert!(matches!(
            rec.events().last(),
            Some(TraceEvent::BudgetExhausted(_))
        ));
    }

    #[test]
    fn driver_refuses_the_step_past_its_limit() {
        let mut obj = ScriptedObject::converging(&[(0.0, 8.0), (1.0, 5.0), (2.0, 2.004)], 3, 0.01);
        let mut meter = WorkMeter::new();
        let mut drive = Driver::unobserved(1, &mut meter);
        assert!(drive.step(&mut obj, 0).is_ok());
        assert_eq!(
            drive.step(&mut obj, 0),
            Err(VaoError::IterationLimitExceeded { limit: 1 })
        );
        assert_eq!(drive.finish(), 1);
        assert_eq!(obj.position(), 1, "the refused step never ran");
    }
}
