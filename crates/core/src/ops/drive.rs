//! §5's iteration loop, written once.
//!
//! Every VAO runs the same cycle — score the candidate iterations by
//! benefit / `estCPU`, iterate the best one, stop on the operator's own
//! condition — and the operators differ only in how they score and when
//! they stop. [`Driver`] is the part they share: the bracket of trace
//! events around one evaluation, the charged and traced choice, and the
//! guarded `iterate()` call — the only one under `ops/`; the heap-indexed
//! SUM, `calibrate` and `oracle_max` keep their own loops around
//! [`Driver::step`]. [`separate_top`] is the guess-and-reduce separation of
//! §5.1 that MAX, MIN, Top-K and the order statistics all run — the loop
//! around [`score`](super::score)'s contest and benefits — and [`refine`]
//! the tail that narrows an identified object to ε.

use crate::bounds::Bounds;
use crate::cost::{Work, WorkBreakdown, WorkMeter};
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::score::{by_hi_then_lo, contest, score_separation, separated, RankOrder};
use crate::precision::PrecisionConstraint;
use crate::strategy::{Candidate, ChoicePolicy};
use crate::trace::{ExecObserver, IterationRecord, NoopObserver, OperatorEndRecord, OperatorKind};

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

    /// The error every broken progress contract maps to.
    fn stalled(&self) -> VaoError {
        VaoError::IterationLimitExceeded { limit: self.limit }
    }

    /// `chooseIter`: charges one unit per candidate scanned (§5.1: choosing
    /// costs O(N) in the objects still in contention), lets `policy` pick,
    /// reports the decision, and returns the chosen **object index**. No
    /// pick means the operator's stopping rule let an all-converged
    /// candidate set through: a stall.
    pub(super) fn choose(
        &mut self,
        policy: &mut ChoicePolicy,
        candidates: &[Candidate],
    ) -> Result<usize, VaoError> {
        self.meter.charge_choose(candidates.len() as Work);
        match policy.pick_traced(candidates, &mut self.observer) {
            Some(pick) => Ok(candidates[pick].index),
            None => Err(self.stalled()),
        }
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
        if self.iterations >= self.limit {
            return Err(self.stalled());
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
            return Err(self.stalled());
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

/// Iterates `obj` until its bounds are no wider than ε (which
/// [`validate_rank`] checked is reachable).
pub(super) fn refine<R: ResultObject, O: ExecObserver>(
    obj: &mut R,
    index: usize,
    epsilon: PrecisionConstraint,
    drive: &mut Driver<'_, O>,
) -> Result<(), VaoError> {
    while obj.bounds().width() > epsilon.epsilon() && !obj.converged() {
        drive.step(obj, index)?;
    }
    Ok(())
}

/// Guess-and-reduce separation (§5.1): iterates until the `k` objects of
/// `pool` that rank first under `order` are separated from the rest of the
/// pool — every outsider provably below the members' boundary θ, or
/// indistinguishable from it at full accuracy (the boundary holder and
/// every outsider still reaching θ at their stopping conditions; stopping
/// case 2). Returns the members in rank order and those tied outsiders in
/// pool order. Indices — in `pool`, in the result and in the trace — are
/// positions in `objs`; `k` must be in `1..=pool.len()`.
pub(super) fn separate<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    pool: &[usize],
    k: usize,
    order: RankOrder,
    policy: &mut ChoicePolicy,
    drive: &mut Driver<'_, O>,
) -> Result<(Vec<usize>, Vec<usize>), VaoError> {
    loop {
        let (members, holder, unresolved) = contest(&*objs, pool, k, order);
        if separated(&*objs, holder, &unresolved) {
            return Ok((members, unresolved));
        }
        let mut candidates = Vec::with_capacity(unresolved.len() + 1);
        score_separation(&*objs, holder, &unresolved, |i, benefit| {
            candidates.push(Candidate::of(i, &objs[i], benefit));
        });
        let chosen = drive.choose(policy, &candidates)?;
        drive.step(&mut objs[chosen], chosen)?;
    }
}

/// The separation every rank operator starts with: the `k` objects with
/// the highest upper bounds against all of `objs` — MAX's guess `o'_max`
/// at `k = 1`, Top-K's member set, the order statistics' outer phase.
pub(super) fn separate_top<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    k: usize,
    policy: &mut ChoicePolicy,
    drive: &mut Driver<'_, O>,
) -> Result<(Vec<usize>, Vec<usize>), VaoError> {
    let everyone: Vec<usize> = (0..objs.len()).collect();
    separate(objs, &everyone, k, by_hi_then_lo, policy, drive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;
    use crate::trace::{Recorder, TraceEvent};

    #[test]
    fn separation_over_a_sub_pool_reports_input_set_indices() {
        // Only objects 0 and 1 contest; object 2 (the global maximum) is
        // outside the pool and must be neither touched nor reported.
        let mut objs = vec![
            ScriptedObject::converging(&[(97.0, 101.0), (98.0, 99.0), (98.4, 98.405)], 4, 0.01),
            ScriptedObject::converging(&[(95.0, 103.0), (97.0, 99.0), (98.0, 98.005)], 4, 0.01),
            ScriptedObject::converging(&[(100.0, 106.0), (103.0, 103.005)], 4, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let mut rec = Recorder::new();
        let mut drive = Driver::begin(OperatorKind::Max, 3, 1000, &mut meter, &mut rec);
        let mut policy = ChoicePolicy::greedy();
        let (members, ties) = separate(
            &mut objs,
            &[1, 0],
            1,
            by_hi_then_lo,
            &mut policy,
            &mut drive,
        )
        .unwrap();
        assert_eq!(members, vec![0], "98.4 beats 98.0");
        assert!(ties.is_empty());
        let iterations = drive.finish();
        assert!(iterations > 0);
        assert_eq!(objs[2].position(), 0);
        let touched: Vec<usize> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Iteration(it) => Some(it.object),
                _ => None,
            })
            .collect();
        assert_eq!(touched.len() as u64, iterations);
        assert!(touched.iter().all(|&i| i < 2));
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
