//! The MIN and MAX aggregate VAOs (§5.1).
//!
//! Given a set of result objects `O`, MAX returns the bounds of an object
//! `o_max` such that every other object is either provably smaller
//! (`o_max.L > o_i.H`) or indistinguishable at full accuracy (overlapping
//! with both objects at their stopping conditions). The operator cannot
//! know `o_max` up front — finding it *is* the objective — so it maintains
//! an **educated guess** `o'_max` (the object with the highest upper bound)
//! and greedily picks the iteration with the highest estimated
//! overlap-reduction per CPU cycle between `o'_max` and the rest, revising
//! the guess whenever it loses the highest upper bound. That is the rank
//! family's demand ([`demands_rank`]) at `k = 1` — separate, then refine
//! the winner to ε — run by the round loop. MIN is symmetric and
//! implemented by running MAX over negated views of the objects.

use crate::adapters::Negated;
use crate::bounds::Bounds;
use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{operate, validate_rank};
use crate::ops::score::{contest_top, demands_rank};
use crate::ops::DEFAULT_ITERATION_LIMIT;
use crate::precision::PrecisionConstraint;
use crate::strategy::ChoicePolicy;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Result of a MIN/MAX evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct ExtremeResult {
    /// Index of the winning object in the input set.
    pub argext: usize,
    /// Final bounds on the winner's value (width ≤ ε unless `ties` is
    /// non-empty and tied objects stopped the refinement earlier).
    pub bounds: Bounds,
    /// Objects that reached their stopping condition while still
    /// overlapping the winner — indistinguishable from it at full accuracy
    /// (stopping case 2 of §5.1).
    pub ties: Vec<usize>,
    /// Total `iterate()` calls issued.
    pub iterations: u64,
}

/// Tunables shared by the aggregate VAOs.
#[derive(Clone, Debug)]
pub struct AggregateConfig {
    /// Iteration-choice policy (the paper's operators use greedy).
    pub policy: ChoicePolicy,
    /// Defensive cap on total `iterate()` calls per evaluation.
    pub iteration_limit: u64,
}

impl Default for AggregateConfig {
    fn default() -> Self {
        Self {
            policy: ChoicePolicy::greedy(),
            iteration_limit: DEFAULT_ITERATION_LIMIT,
        }
    }
}

/// Evaluates MAX over `objs` with the default (greedy) configuration.
///
/// ```
/// use vao::cost::WorkMeter;
/// use vao::ops::minmax::max_vao;
/// use vao::precision::PrecisionConstraint;
/// use vao::testkit::ScriptedObject;
///
/// // Two bonds: the operator identifies the winner without fully
/// // converging the loser.
/// let mut objs = vec![
///     ScriptedObject::converging(&[(90.0, 101.0), (94.0, 96.0), (95.0, 95.005)], 10, 0.01),
///     ScriptedObject::converging(&[(98.0, 112.0), (104.0, 106.0), (105.0, 105.005)], 10, 0.01),
/// ];
/// let mut meter = WorkMeter::new();
/// let res = max_vao(&mut objs, PrecisionConstraint::new(0.01).unwrap(), &mut meter).unwrap();
/// assert_eq!(res.argext, 1);
/// assert!(res.bounds.contains(105.0));
/// ```
pub fn max_vao<R: ResultObject>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    max_vao_with(objs, epsilon, &mut AggregateConfig::default(), meter)
}

/// Evaluates MIN over `objs` with the default (greedy) configuration.
pub fn min_vao<R: ResultObject>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    min_vao_traced(
        objs,
        epsilon,
        &mut AggregateConfig::default(),
        meter,
        &mut NoopObserver,
    )
}

/// Evaluates MIN with an explicit configuration and an [`ExecObserver`]
/// receiving the execution trace, by running MAX over negated views of the
/// objects and reflecting the resulting bounds back.
///
/// Trace events are emitted from inside that MAX loop: bounds in
/// [`crate::trace::IterationRecord`]s are in the **negated** domain (the
/// operator kind is still reported as [`OperatorKind::Min`]).
pub fn min_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<ExtremeResult, VaoError> {
    let mut negated: Vec<Negated<&mut R>> = objs.iter_mut().map(Negated).collect();
    let res = extreme(
        &mut negated,
        epsilon,
        config,
        meter,
        observer,
        OperatorKind::Min,
    )?;
    Ok(ExtremeResult {
        bounds: res.bounds.negate(),
        ..res
    })
}

/// Evaluates MAX over `objs` with an explicit configuration.
///
/// # Errors
///
/// * [`VaoError::EmptyInput`] for an empty object set.
/// * [`VaoError::PrecisionTooTight`] if ε < max(minWidth) (footnote 10).
/// * [`VaoError::IterationLimitExceeded`] if the configured budget runs out
///   (only possible when a result object violates its progress contract).
pub fn max_vao_with<R: ResultObject>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    max_vao_traced(objs, epsilon, config, meter, &mut NoopObserver)
}

/// [`max_vao_with`] with an [`ExecObserver`] receiving the execution
/// trace: operator start/end, one [`crate::trace::ChoiceRecord`] per
/// strategy decision (phase-2 winner refinement included: it is a charged
/// choice too, over the winner alone), and one
/// [`crate::trace::IterationRecord`] per `iterate()` call.
pub fn max_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<ExtremeResult, VaoError> {
    extreme(objs, epsilon, config, meter, observer, OperatorKind::Max)
}

fn extreme<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
    kind: OperatorKind,
) -> Result<ExtremeResult, VaoError> {
    validate_rank(objs, 1, epsilon)?;
    let eps = epsilon.epsilon();
    let (iterations, _) = operate(kind, objs, config, meter, observer, |v, out| {
        demands_rank(v, 1, eps, out);
    })?;
    let (_, winner, ties) = contest_top(&*objs, 1);
    Ok(ExtremeResult {
        argext: winner,
        bounds: objs[winner].bounds(),
        ties,
        iterations,
    })
}

/// The *envelope* MAX bounds of footnote 9:
/// `[max_i oᵢ.L, max_i oᵢ.H]` — the alternative definition used by the
/// approximate distributed-caching literature, where the two endpoints may
/// come from *different* objects. It costs no iterations at all, but it
/// does not identify which object is the maximum ("give me bounds on the
/// bond with maximum value" is unanswerable from it), which is why the
/// paper's MAX VAO uses the object-identifying definition instead.
pub fn max_envelope<R: ResultObject>(objs: &[R]) -> Result<Bounds, VaoError> {
    if objs.is_empty() {
        return Err(VaoError::EmptyInput);
    }
    let (lo, hi) = objs
        .iter()
        .fold((f64::NEG_INFINITY, f64::NEG_INFINITY), |(lo, hi), o| {
            let b = o.bounds();
            (lo.max(b.lo()), hi.max(b.hi()))
        });
    Ok(Bounds::new(lo, hi))
}

/// The envelope MIN bounds: `[min_i oᵢ.L, min_i oᵢ.H]` (footnote 9's exact
/// formula). See [`max_envelope`] for the trade-off against the paper's
/// object-identifying MIN.
pub fn min_envelope<R: ResultObject>(objs: &[R]) -> Result<Bounds, VaoError> {
    if objs.is_empty() {
        return Err(VaoError::EmptyInput);
    }
    let (lo, hi) = objs
        .iter()
        .fold((f64::INFINITY, f64::INFINITY), |(lo, hi), o| {
            let b = o.bounds();
            (lo.min(b.lo()), hi.min(b.hi()))
        });
    Ok(Bounds::new(lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{ScriptedObject, ScriptedStep};
    use crate::trace::{Recorder, TraceEvent};

    /// The three objects of the paper's Table 2, with perfect estimates for
    /// their first iteration and a convergent tail thereafter.
    fn table2_objects() -> Vec<ScriptedObject> {
        // o1: [97,101] -> est [98,99]; o2: [95,103] -> est [96,101];
        // o3: [100,106] -> est [102,104]; all estCPU = 4.
        let mk = |first: (f64, f64), est: (f64, f64), tail: &[(f64, f64)]| {
            let mut steps = vec![ScriptedStep {
                bounds: Bounds::new(first.0, first.1),
                cost: 0,
                est_cpu: 4,
                est_bounds: Bounds::new(est.0, est.1),
            }];
            let mut all = vec![est];
            all.extend_from_slice(tail);
            for (k, b) in all.iter().enumerate() {
                let next = all.get(k + 1).copied().unwrap_or(*b);
                steps.push(ScriptedStep {
                    bounds: Bounds::new(b.0, b.1),
                    cost: 4,
                    est_cpu: 4,
                    est_bounds: Bounds::new(next.0, next.1),
                });
            }
            ScriptedObject::new(steps, 0.01)
        };
        vec![
            mk((97.0, 101.0), (98.0, 99.0), &[(98.4, 98.405)]),
            mk(
                (95.0, 103.0),
                (96.0, 101.0),
                &[(97.0, 99.0), (98.0, 98.005)],
            ),
            mk(
                (100.0, 106.0),
                (102.0, 104.0),
                &[(102.9, 103.1), (103.0, 103.005)],
            ),
        ]
    }

    #[test]
    fn paper_table2_first_choice_is_o3() {
        // §5.1 computes estimated overlap reductions 1, 2 and 3 for o1, o2,
        // o3 and — with equal estCPU — picks o3 (the guess itself).
        let objs = table2_objects();
        let (guess, holder, unresolved) = contest_top(&objs[..], 1);
        assert_eq!(guess, vec![2], "o3 has the highest upper bound");
        assert_eq!(holder, 2);
        assert_eq!(unresolved, vec![0, 1]);
        let mut demand = Vec::new();
        demands_rank(&objs[..], 1, 0.5, &mut demand);
        let benefits: Vec<(usize, f64)> = demand.iter().map(|d| (d.object, d.benefit)).collect();
        // o1: min(101-100, 101-99) = 1. o2: min(103-100, 103-101) = 2.
        // o3: raising L from 100 to estL 102 clears min(1,2)+min(3,2) = 3.
        assert_eq!(benefits, vec![(2, 3.0), (0, 1.0), (1, 2.0)]);

        let mut rec = Recorder::new();
        let mut objs = table2_objects();
        let eps = PrecisionConstraint::new(0.5).unwrap();
        max_vao_traced(
            &mut objs,
            eps,
            &mut AggregateConfig::default(),
            &mut WorkMeter::new(),
            &mut rec,
        )
        .unwrap();
        let first = rec.events().iter().find_map(|e| match e {
            TraceEvent::Choice(c) => Some((c.object, c.benefit, c.candidates)),
            _ => None,
        });
        assert_eq!(first, Some((2, 3.0, 3)));
    }

    #[test]
    fn paper_table2_full_run_finds_o3() {
        let mut objs = table2_objects();
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.5).unwrap();
        let res = max_vao(&mut objs, eps, &mut meter).unwrap();
        assert_eq!(res.argext, 2);
        assert!(res.ties.is_empty());
        assert!(res.bounds.width() <= 0.5);
        assert!(res.bounds.lo() >= 102.0);
        // The strategy never needed to converge o1/o2 fully.
        assert!(!objs[0].converged() || !objs[1].converged());
        // chooseIter cost was charged.
        assert!(meter.breakdown().choose_iter > 0);
    }

    #[test]
    fn single_object_is_refined_to_epsilon() {
        let mut objs = vec![ScriptedObject::converging(
            &[(0.0, 10.0), (4.0, 6.0), (4.9, 5.1), (5.0, 5.005)],
            10,
            0.01,
        )];
        let mut meter = WorkMeter::new();
        let res = max_vao(
            &mut objs,
            PrecisionConstraint::new(0.3).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.argext, 0);
        assert!(res.bounds.width() <= 0.3);
        // Stopped at [4.9, 5.1] (width 0.2), not at full convergence.
        assert_eq!(res.iterations, 2);
    }

    #[test]
    fn disjoint_objects_require_no_iterations() {
        let mut objs = vec![
            ScriptedObject::converging(&[(0.0, 1.0)], 10, 2.0),
            ScriptedObject::converging(&[(5.0, 6.0)], 10, 2.0),
            ScriptedObject::converging(&[(2.0, 3.0)], 10, 2.0),
        ];
        let mut meter = WorkMeter::new();
        let res = max_vao(
            &mut objs,
            PrecisionConstraint::new(2.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.argext, 1);
        assert_eq!(res.iterations, 0);
        assert_eq!(meter.total(), 0);
    }

    #[test]
    fn indistinguishable_objects_reported_as_ties() {
        // Two objects converge to overlapping, sub-minWidth bounds around
        // the same value: stopping case 2.
        let mut objs = vec![
            ScriptedObject::converging(&[(90.0, 110.0), (99.999, 100.004)], 10, 0.01),
            ScriptedObject::converging(&[(95.0, 108.0), (100.0, 100.005)], 10, 0.01),
            ScriptedObject::converging(&[(0.0, 5.0)], 10, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let res = max_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        // Winner has the highest upper bound among the tied pair.
        assert_eq!(res.argext, 1);
        assert_eq!(res.ties, vec![0]);
        assert!(objs[0].converged() && objs[1].converged());
    }

    #[test]
    fn empty_input_rejected() {
        let mut objs: Vec<ScriptedObject> = vec![];
        let mut meter = WorkMeter::new();
        let err = max_vao(
            &mut objs,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap_err();
        assert_eq!(err, VaoError::EmptyInput);
    }

    #[test]
    fn epsilon_below_min_width_rejected() {
        let mut objs = vec![ScriptedObject::converging(&[(0.0, 1.0)], 1, 0.05)];
        let mut meter = WorkMeter::new();
        let err = max_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap_err();
        assert!(matches!(err, VaoError::PrecisionTooTight { .. }));
    }

    #[test]
    fn guess_revision_recovers_from_wrong_initial_guess() {
        // Object 0 starts with the highest H but collapses low; object 1 is
        // the true max. The operator must revise its guess and still win.
        let mut objs = vec![
            ScriptedObject::converging(&[(80.0, 120.0), (84.0, 86.0), (85.0, 85.005)], 10, 0.01),
            ScriptedObject::converging(&[(90.0, 110.0), (99.0, 101.0), (100.0, 100.005)], 10, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let res = max_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.argext, 1);
        assert!(res.bounds.lo() >= 100.0 - 1e-9);
    }

    #[test]
    fn min_vao_is_symmetric_to_max() {
        let mut objs = vec![
            ScriptedObject::converging(
                &[(90.0, 110.0), (104.0, 106.0), (105.0, 105.005)],
                10,
                0.01,
            ),
            ScriptedObject::converging(&[(85.0, 108.0), (94.0, 96.0), (95.0, 95.005)], 10, 0.01),
            ScriptedObject::converging(
                &[(97.0, 112.0), (102.0, 104.0), (103.0, 103.005)],
                10,
                0.01,
            ),
        ];
        let mut meter = WorkMeter::new();
        let res = min_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.argext, 1);
        assert!(res.bounds.contains(95.0));
        assert!(res.bounds.lo() <= res.bounds.hi());
    }

    #[test]
    fn stalled_object_yields_iteration_error() {
        // Object 1 overlaps the guess forever without converging.
        let mut objs = vec![
            ScriptedObject::converging(&[(90.0, 110.0), (99.0, 101.0), (100.0, 100.005)], 10, 0.01),
            ScriptedObject::converging(&[(95.0, 105.0)], 10, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let err = max_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap_err();
        assert!(matches!(err, VaoError::IterationLimitExceeded { .. }));
    }

    #[test]
    fn envelope_bounds_need_no_iterations_but_mix_objects() {
        // Footnote 9's example distinction: the envelope's endpoints can
        // come from different objects.
        let objs = vec![
            ScriptedObject::converging(&[(97.0, 101.0)], 10, 0.01),
            ScriptedObject::converging(&[(95.0, 103.0)], 10, 0.01),
            ScriptedObject::converging(&[(100.0, 106.0)], 10, 0.01),
        ];
        let mx = max_envelope(&objs).unwrap();
        assert_eq!((mx.lo(), mx.hi()), (100.0, 106.0));
        let mn = min_envelope(&objs).unwrap();
        // min L from o2 (95), min H from o1 (101): mixed endpoints.
        assert_eq!((mn.lo(), mn.hi()), (95.0, 101.0));
        // Envelopes always contain the true extreme value.
        assert!(mx.contains(103.0)); // if o3 converged to 103
        assert!(mn.contains(98.4)); // if o1 converged to 98.4
        assert!(max_envelope::<ScriptedObject>(&[]).is_err());
        assert!(min_envelope::<ScriptedObject>(&[]).is_err());
    }

    #[test]
    fn envelope_contains_the_identified_extreme() {
        let mut objs = table2_objects();
        let envelope = max_envelope(&objs).unwrap();
        let mut meter = WorkMeter::new();
        let res = max_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(envelope.lo() <= res.bounds.lo() + 1e-12);
        assert!(res.bounds.hi() <= envelope.hi() + 1e-12);
    }

    #[test]
    fn all_policies_find_the_same_argmax() {
        let eps = PrecisionConstraint::new(0.01).unwrap();
        for policy in [
            ChoicePolicy::greedy(),
            ChoicePolicy::round_robin(),
            ChoicePolicy::random(123),
            ChoicePolicy::widest_first(),
        ] {
            let mut objs = table2_objects();
            let mut meter = WorkMeter::new();
            let mut config = AggregateConfig {
                policy,
                iteration_limit: 1000,
            };
            let res = max_vao_with(&mut objs, eps, &mut config, &mut meter).unwrap();
            assert_eq!(res.argext, 2, "every strategy must agree on the answer");
        }
    }
}
