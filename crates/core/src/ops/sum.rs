//! The weighted SUM/AVE aggregate VAO (§5.2).
//!
//! Given result objects `O` and nonnegative weights `W`, the operator
//! maintains the interval `[Σ wᵢ·Lᵢ, Σ wᵢ·Hᵢ]` and iterates — greedily
//! picking the object with the largest estimated weighted error-reduction
//! per CPU cycle — until the interval is narrower than the precision
//! constraint ε or every object has reached its own `minWidth`. With unit
//! weights this is SUM; with weights `1/N` it is AVE.

use crate::bounds::Bounds;
use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{operate, Demand};
use crate::ops::minmax::AggregateConfig;
use crate::ops::score::{est_shrink, View};
use crate::precision::PrecisionConstraint;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Result of a SUM/AVE evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct SumResult {
    /// Final bounds on the weighted sum.
    pub bounds: Bounds,
    /// Total `iterate()` calls issued.
    pub iterations: u64,
    /// True when the operator stopped because every object converged rather
    /// than because the ε target was met first. (The bounds may still meet
    /// ε — converged objects are typically narrower than their `minWidth`.)
    pub stopped_at_floor: bool,
}

/// Evaluates SUM (unit weights) with the default greedy configuration.
pub fn sum_vao<R: ResultObject>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<SumResult, VaoError> {
    weighted_sum_vao(objs, &vec![1.0; objs.len()], epsilon, meter)
}

/// Evaluates AVE (weights `1/N`) with the default greedy configuration.
pub fn ave_vao<R: ResultObject>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<SumResult, VaoError> {
    weighted_sum_vao(
        objs,
        &vec![ave_weight(objs.len()); objs.len()],
        epsilon,
        meter,
    )
}

/// Evaluates a weighted SUM with the default greedy configuration.
///
/// ```
/// use vao::cost::WorkMeter;
/// use vao::ops::sum::weighted_sum_vao;
/// use vao::precision::PrecisionConstraint;
/// use vao::testkit::ScriptedObject;
///
/// let mut objs = vec![
///     ScriptedObject::converging(&[(90.0, 110.0), (100.0, 100.005)], 10, 0.01),
///     ScriptedObject::converging(&[(40.0, 60.0), (50.0, 50.005)], 10, 0.01),
/// ];
/// let mut meter = WorkMeter::new();
/// // Portfolio of 2 shares of the first bond and 1 of the second.
/// let res = weighted_sum_vao(
///     &mut objs,
///     &[2.0, 1.0],
///     PrecisionConstraint::new(1.0).unwrap(),
///     &mut meter,
/// )
/// .unwrap();
/// assert!(res.bounds.contains(250.0));
/// assert!(res.bounds.width() <= 1.0);
/// ```
pub fn weighted_sum_vao<R: ResultObject>(
    objs: &mut [R],
    weights: &[f64],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<SumResult, VaoError> {
    weighted_sum_vao_with(
        objs,
        weights,
        epsilon,
        &mut AggregateConfig::default(),
        meter,
    )
}

/// Evaluates a weighted SUM with an explicit configuration.
///
/// # Errors
///
/// * [`VaoError::EmptyInput`] for an empty object set.
/// * [`VaoError::WeightCountMismatch`] / [`VaoError::InvalidWeight`] for
///   malformed weights.
/// * [`VaoError::PrecisionTooTight`] if ε < Σ wᵢ·minWidthᵢ, which no amount
///   of iteration could satisfy.
/// * [`VaoError::IterationLimitExceeded`] if a result object stalls.
pub fn weighted_sum_vao_with<R: ResultObject>(
    objs: &mut [R],
    weights: &[f64],
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
) -> Result<SumResult, VaoError> {
    weighted_sum_vao_traced(objs, weights, epsilon, config, meter, &mut NoopObserver)
}

/// [`weighted_sum_vao_with`] with an [`ExecObserver`] receiving the
/// execution trace: operator start/end, one
/// [`crate::trace::ChoiceRecord`] per strategy decision and one
/// [`crate::trace::IterationRecord`] per `iterate()` call.
pub fn weighted_sum_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    weights: &[f64],
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<SumResult, VaoError> {
    validate_sum_input(objs, weights, epsilon)?;
    let (weight, eps) = (|i: usize| weights[i], epsilon.epsilon());
    let (iterations, _) = operate(
        OperatorKind::Sum,
        objs,
        config,
        meter,
        observer,
        |v, out| {
            demands_sum(v, weight, eps, out);
        },
    )?;
    let bounds = weighted_interval(&*objs, weight);
    Ok(SumResult {
        bounds,
        iterations,
        // Demand ends short of ε only when every weighted object converged.
        stopped_at_floor: bounds.width() > eps,
    })
}

/// Object `i`'s SUM/AVE demand at weight `w` — a function of its own bounds
/// only: none at weight zero or once converged, else the paper's
/// `wᵢ[(estLᵢ − Lᵢ) + (Hᵢ − estHᵢ)]` ([`est_shrink`] clamps each term).
#[must_use]
pub fn sum_entry<V: View + ?Sized>(v: &V, w: f64, i: usize) -> Option<Demand> {
    (w != 0.0 && !v.converged(i)).then(|| Demand {
        object: i,
        benefit: w * est_shrink(v.bounds(i), v.est_bounds(i)),
    })
}

/// SUM/AVE's stopping rule: the [`weighted_interval`] is no wider than ε.
#[must_use]
pub fn sum_done<V: View + ?Sized>(v: &V, weight: impl Fn(usize) -> f64, epsilon: f64) -> bool {
    weighted_interval(v, weight).width() <= epsilon
}

/// SUM/AVE's demand: every object's [`sum_entry`] in index order, until
/// [`sum_done`].
pub fn demands_sum<V: View + ?Sized>(
    v: &V,
    weight: impl Fn(usize) -> f64,
    epsilon: f64,
    out: &mut Vec<Demand>,
) {
    if !sum_done(v, &weight, epsilon) {
        out.extend((0..v.len()).filter_map(|i| sum_entry(v, weight(i), i)));
    }
}

/// What a weighted SUM over `n` objects asks of its weights: something to
/// sum, one weight per object, each finite and nonnegative.
pub fn validate_weights(n: usize, weights: &[f64]) -> Result<(), VaoError> {
    if n == 0 {
        return Err(VaoError::EmptyInput);
    }
    if n != weights.len() {
        return Err(VaoError::WeightCountMismatch {
            objects: n,
            weights: weights.len(),
        });
    }
    match weights.iter().position(|w| !w.is_finite() || *w < 0.0) {
        Some(index) => Err(VaoError::InvalidWeight {
            index,
            weight: weights[index],
        }),
        None => Ok(()),
    }
}

/// What a weighted SUM checks before it touches an object: well-formed
/// weights and a reachable ε.
pub(super) fn validate_sum_input<R: ResultObject>(
    objs: &[R],
    weights: &[f64],
    epsilon: PrecisionConstraint,
) -> Result<(), VaoError> {
    validate_weights(objs.len(), weights)?;
    epsilon.validate_weighted(objs, weights)
}

/// AVE's weight: AVE is the weighted SUM with every weight `1/n`.
#[must_use]
pub fn ave_weight(n: usize) -> f64 {
    1.0 / n.max(1) as f64
}

/// The endpoints of SUM's output interval, `(Σ wᵢ·Lᵢ, Σ wᵢ·Hᵢ)` with
/// `wᵢ = weight(i)`, each added from zero in index order.
///
/// Summation order is part of an answer's bits, and the interval's width
/// decides when a SUM stops, so this is the only place the sum is formed:
/// the operators stop on it, a store that schedules SUM stops on it, and
/// the answer reports it.
#[must_use]
pub fn weighted_endpoints<V: View + ?Sized>(v: &V, weight: impl Fn(usize) -> f64) -> (f64, f64) {
    (0..v.len()).fold((0.0, 0.0), |(lo, hi), i| {
        let (w, b) = (weight(i), v.bounds(i));
        (lo + w * b.lo(), hi + w * b.hi())
    })
}

/// SUM's output interval `[Σ wᵢ·Lᵢ, Σ wᵢ·Hᵢ]` (see [`weighted_endpoints`]).
///
/// # Panics
///
/// Panics if the weights carry a sum past `f64`; nonnegative weights over
/// ordered bounds cannot invert it.
#[must_use]
pub fn weighted_interval<V: View + ?Sized>(v: &V, weight: impl Fn(usize) -> f64) -> Bounds {
    let (lo, hi) = weighted_endpoints(v, weight);
    Bounds::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::ChoicePolicy;
    use crate::testkit::ScriptedObject;

    fn trio() -> Vec<ScriptedObject> {
        // Table 2 objects with convergent tails; per-step cost 4.
        vec![
            ScriptedObject::converging(&[(97.0, 101.0), (98.0, 99.0), (98.4, 98.405)], 4, 0.01),
            ScriptedObject::converging(
                &[(95.0, 103.0), (96.0, 101.0), (97.0, 99.0), (98.0, 98.005)],
                4,
                0.01,
            ),
            ScriptedObject::converging(
                &[
                    (100.0, 106.0),
                    (102.0, 104.0),
                    (102.9, 103.1),
                    (103.0, 103.005),
                ],
                4,
                0.01,
            ),
        ]
    }

    #[test]
    fn paper_section52_first_choice_is_o3() {
        // §5.2: estimated error reductions for o1, o2, o3 are 1, 1 and 4/3
        // under AVE weights (1/3 each): the VAO iterates over o3.
        // With equal weights the same ranking holds: reductions 3, 3, 4.
        let objs = trio();
        let reductions: Vec<f64> = objs
            .iter()
            .map(|o| est_shrink(o.bounds(), o.est_bounds()))
            .collect();
        assert_eq!(reductions, vec![3.0, 3.0, 4.0]);
        // Weighted by 1/3: 1, 1, 4/3 — exactly the paper's numbers.
        let weighted: Vec<f64> = reductions.iter().map(|r| r / 3.0).collect();
        assert!((weighted[2] - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sum_terminates_at_epsilon_not_floor() {
        let mut objs = trio();
        let mut meter = WorkMeter::new();
        // Initial total bounds: [292, 310], width 18. ε = 8 is reachable
        // after refining without full convergence.
        let res = sum_vao(
            &mut objs,
            PrecisionConstraint::new(8.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(res.bounds.width() <= 8.0);
        assert!(!res.stopped_at_floor);
        assert!(
            objs.iter().any(|o| !o.converged()),
            "ε=8 must not need full accuracy"
        );
        // True sum of converged values ≈ 98.40 + 98.00 + 103.00 = 299.4.
        assert!(res.bounds.contains(299.4));
    }

    #[test]
    fn sum_runs_to_floor_when_epsilon_is_tight() {
        let mut objs = trio();
        let mut meter = WorkMeter::new();
        // Floor = 3 * 0.01 = 0.03; converged widths are 0.005 each, so the
        // final width 0.015 meets ε = 0.03 only after full convergence.
        let res = sum_vao(
            &mut objs,
            PrecisionConstraint::new(0.03).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(objs.iter().all(ScriptedObject::converged));
        assert!(res.bounds.width() <= 0.03);
        // 2 + 3 + 3 refinements in total.
        assert_eq!(res.iterations, 8);
    }

    #[test]
    fn epsilon_below_weighted_floor_rejected() {
        let mut objs = trio();
        let mut meter = WorkMeter::new();
        let err = sum_vao(
            &mut objs,
            PrecisionConstraint::new(0.02).unwrap(),
            &mut meter,
        )
        .unwrap_err();
        assert!(matches!(err, VaoError::PrecisionTooTight { .. }));
    }

    #[test]
    fn heavier_weights_draw_iterations_first() {
        // Two identical objects; one weighted 10x. The first refinements
        // must all go to the heavy object.
        let script: &[(f64, f64)] = &[
            (0.0, 16.0),
            (4.0, 12.0),
            (6.0, 10.0),
            (7.0, 9.0),
            (7.5, 8.5),
            (8.0, 8.005),
        ];
        let mut objs = vec![
            ScriptedObject::converging(script, 4, 0.01),
            ScriptedObject::converging(script, 4, 0.01),
        ];
        let weights = [10.0, 1.0];
        let mut meter = WorkMeter::new();
        // Initial width: 11 * 16 = 176. Stop at 80: heavy object should do
        // the shrinking (10 * (16 - width0) >= 96 -> width0 <= 6.4).
        let res = weighted_sum_vao(
            &mut objs,
            &weights,
            PrecisionConstraint::new(80.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(res.bounds.width() <= 80.0);
        assert!(objs[0].position() >= 2, "heavy object was refined");
        assert_eq!(objs[1].position(), 0, "light object untouched");
    }

    #[test]
    fn zero_weight_objects_are_ignored_costlessly() {
        let mut objs = vec![
            ScriptedObject::converging(&[(0.0, 10.0), (4.0, 6.0), (5.0, 5.005)], 4, 0.01),
            ScriptedObject::converging(&[(0.0, 1000.0)], 4, 0.01), // wide but weightless
        ];
        let weights = [1.0, 0.0];
        let mut meter = WorkMeter::new();
        let res = weighted_sum_vao(
            &mut objs,
            &weights,
            PrecisionConstraint::new(2.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(res.bounds.width() <= 2.0);
        assert_eq!(objs[1].position(), 0, "zero-weight object never iterated");
    }

    #[test]
    fn ave_scales_sum_by_n() {
        let mut objs = trio();
        let mut meter = WorkMeter::new();
        let res = ave_vao(
            &mut objs,
            PrecisionConstraint::new(0.05).unwrap(),
            &mut meter,
        )
        .unwrap();
        // Average of ≈ (98.4, 98.0, 103.0) ≈ 99.8.
        assert!(res.bounds.contains(299.4 / 3.0));
        assert!(res.bounds.width() <= 0.05);
    }

    #[test]
    fn invalid_weights_rejected() {
        let mut objs = trio();
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(1.0).unwrap();
        let err = weighted_sum_vao(&mut objs, &[1.0, -2.0, 1.0], eps, &mut meter).unwrap_err();
        assert_eq!(
            err,
            VaoError::InvalidWeight {
                index: 1,
                weight: -2.0
            }
        );
        let err = weighted_sum_vao(&mut objs, &[1.0, f64::NAN, 1.0], eps, &mut meter).unwrap_err();
        assert!(matches!(err, VaoError::InvalidWeight { index: 1, .. }));
        let err = weighted_sum_vao(&mut objs, &[1.0, 1.0], eps, &mut meter).unwrap_err();
        assert!(matches!(err, VaoError::WeightCountMismatch { .. }));
    }

    #[test]
    fn empty_input_rejected() {
        let mut objs: Vec<ScriptedObject> = vec![];
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(1.0).unwrap();
        assert_eq!(
            sum_vao(&mut objs, eps, &mut meter).unwrap_err(),
            VaoError::EmptyInput
        );
        assert_eq!(
            ave_vao(&mut objs, eps, &mut meter).unwrap_err(),
            VaoError::EmptyInput
        );
    }

    #[test]
    fn stalled_object_yields_iteration_error() {
        // Never converges, never narrows enough for ε.
        let mut objs = vec![ScriptedObject::converging(
            &[(0.0, 10.0), (1.0, 9.0)],
            4,
            0.01,
        )];
        let mut meter = WorkMeter::new();
        let err = sum_vao(
            &mut objs,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap_err();
        assert!(matches!(err, VaoError::IterationLimitExceeded { .. }));
    }

    #[test]
    fn round_robin_policy_still_converges() {
        let mut objs = trio();
        let mut meter = WorkMeter::new();
        let mut config = AggregateConfig {
            policy: ChoicePolicy::round_robin(),
            iteration_limit: 1000,
        };
        let res = weighted_sum_vao_with(
            &mut objs,
            &[1.0, 1.0, 1.0],
            PrecisionConstraint::new(0.03).unwrap(),
            &mut config,
            &mut meter,
        )
        .unwrap();
        assert!(res.bounds.width() <= 0.03);
    }
}
