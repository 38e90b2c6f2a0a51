//! Top-K: a natural generalization of the MAX VAO (§5.1).
//!
//! MAX separates one presumed winner from everything else; Top-K maintains
//! a presumed *member set* `S'` (the K objects with the highest upper
//! bounds) and drives iterations until every non-member is provably below
//! the weakest member — i.e. below the **boundary** `θ = min_{s∈S'} s.L` —
//! or indistinguishable from it at full accuracy. The greedy scoring
//! mirrors MAX: a non-member's iteration reduces its own overlap with the
//! boundary; iterating the boundary-holding member raises `θ` against all
//! unresolved non-members at once. With `k = 1` the operator degenerates
//! to MAX and performs the same iterations.

use crate::bounds::Bounds;
use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{operate, validate_rank};
use crate::ops::minmax::AggregateConfig;
use crate::ops::score::{contest_top, demands_rank};
use crate::precision::PrecisionConstraint;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Result of a Top-K evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKResult {
    /// Indices of the K members, ordered by descending upper bound.
    pub members: Vec<usize>,
    /// Final bounds of each member (aligned with `members`; widths ≤ ε).
    pub bounds: Vec<Bounds>,
    /// Non-members that reached their stopping condition while still
    /// overlapping the boundary — indistinguishable from the weakest
    /// member at full accuracy.
    pub ties: Vec<usize>,
    /// Total `iterate()` calls issued.
    pub iterations: u64,
}

/// Evaluates Top-K with the default greedy configuration.
pub fn topk_vao<R: ResultObject>(
    objs: &mut [R],
    k: usize,
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<TopKResult, VaoError> {
    topk_vao_traced(
        objs,
        k,
        epsilon,
        &mut AggregateConfig::default(),
        meter,
        &mut NoopObserver,
    )
}

/// Evaluates Top-K with an explicit configuration and an [`ExecObserver`]
/// receiving the execution trace (one choice event per separation
/// decision, one iteration event per `iterate()` call, member refinement
/// included).
///
/// # Errors
///
/// * [`VaoError::EmptyInput`] when `objs` is empty or `k` is zero or
///   exceeds the object count (a K that returns everything needs no
///   operator).
/// * [`VaoError::PrecisionTooTight`] if ε < max(minWidth).
/// * [`VaoError::IterationLimitExceeded`] on stalled objects.
pub fn topk_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    k: usize,
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<TopKResult, VaoError> {
    validate_rank(objs, k, epsilon)?;
    let eps = epsilon.epsilon();
    let (iterations, _) = operate(
        OperatorKind::TopK,
        objs,
        config,
        meter,
        observer,
        |v, out| {
            demands_rank(v, k, eps, out);
        },
    )?;
    // The member guess is in rank order: descending upper bound.
    let (members, _, ties) = contest_top(&*objs, k);
    let bounds = members.iter().map(|&i| objs[i].bounds()).collect();
    Ok(TopKResult {
        members,
        bounds,
        ties,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::minmax::max_vao;
    use crate::testkit::ScriptedObject;

    fn converging_to(values: &[f64]) -> Vec<ScriptedObject> {
        values
            .iter()
            .map(|&v| {
                ScriptedObject::converging(
                    &[
                        (v - 8.0, v + 8.0),
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

    #[test]
    fn top1_agrees_with_max() {
        let values = [95.0, 105.0, 99.0, 101.0];
        let eps = PrecisionConstraint::new(0.01).unwrap();

        let mut a = converging_to(&values);
        let mut meter = WorkMeter::new();
        let top1 = topk_vao(&mut a, 1, eps, &mut meter).unwrap();

        let mut b = converging_to(&values);
        let mut meter2 = WorkMeter::new();
        let max = max_vao(&mut b, eps, &mut meter2).unwrap();

        assert_eq!(top1.members, vec![max.argext]);
        assert_eq!(top1.members[0], 1);
        // Not merely the same answer: the same execution.
        assert_eq!(top1.iterations, max.iterations);
        assert_eq!(meter.breakdown(), meter2.breakdown());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bounds(), y.bounds());
        }
    }

    #[test]
    fn finds_the_true_top_3() {
        let values = [90.0, 107.0, 95.0, 103.0, 99.0, 111.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = topk_vao(
            &mut objs,
            3,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.members, vec![5, 1, 3], "descending by value");
        assert!(res.ties.is_empty());
        for b in &res.bounds {
            assert!(b.width() <= 0.01);
        }
        // The losers were not all run to convergence.
        assert!(!objs[0].converged());
    }

    #[test]
    fn disjoint_objects_need_no_separation_work() {
        let mut objs = vec![
            ScriptedObject::converging(&[(0.0, 1.0)], 10, 2.0),
            ScriptedObject::converging(&[(10.0, 11.0)], 10, 2.0),
            ScriptedObject::converging(&[(20.0, 21.0)], 10, 2.0),
            ScriptedObject::converging(&[(30.0, 31.0)], 10, 2.0),
        ];
        let mut meter = WorkMeter::new();
        let res = topk_vao(
            &mut objs,
            2,
            PrecisionConstraint::new(2.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.members, vec![3, 2]);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn boundary_ties_are_reported() {
        // Third and fourth values indistinguishable at minWidth: with k=3
        // the boundary member and the tied outsider both converge
        // overlapping.
        let mut objs = vec![
            ScriptedObject::converging(&[(100.0, 120.0), (110.0, 110.004)], 10, 0.01),
            ScriptedObject::converging(&[(95.0, 115.0), (105.0, 105.004)], 10, 0.01),
            ScriptedObject::converging(&[(80.0, 110.0), (99.999, 100.003)], 10, 0.01),
            ScriptedObject::converging(&[(85.0, 112.0), (100.0, 100.004)], 10, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let res = topk_vao(
            &mut objs,
            3,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.members.len(), 3);
        assert_eq!(res.ties.len(), 1, "one indistinguishable outsider");
        let outsider = res.ties[0];
        assert!(!res.members.contains(&outsider));
    }

    #[test]
    fn k_equal_n_rejected_as_trivial() {
        let mut objs = converging_to(&[1.0, 2.0]);
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.01).unwrap();
        assert!(matches!(
            topk_vao(&mut objs, 3, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
        assert!(matches!(
            topk_vao(&mut objs, 0, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
        // k == n is allowed (refine-all), k > n is not.
        assert!(topk_vao(&mut objs, 2, eps, &mut meter).is_ok());
    }

    #[test]
    fn epsilon_validation_applies() {
        let mut objs = converging_to(&[1.0, 50.0]);
        let mut meter = WorkMeter::new();
        assert!(matches!(
            topk_vao(
                &mut objs,
                1,
                PrecisionConstraint::new(0.001).unwrap(),
                &mut meter
            ),
            Err(VaoError::PrecisionTooTight { .. })
        ));
    }

    #[test]
    fn guess_revision_handles_deceptive_uppers() {
        // Object 0 flashes the highest H but collapses; the true top-2 are
        // objects 1 and 2.
        let mut objs = vec![
            ScriptedObject::converging(&[(60.0, 140.0), (62.0, 66.0), (64.0, 64.004)], 10, 0.01),
            ScriptedObject::converging(
                &[(90.0, 120.0), (104.0, 106.0), (105.0, 105.004)],
                10,
                0.01,
            ),
            ScriptedObject::converging(&[(85.0, 118.0), (99.0, 101.0), (100.0, 100.004)], 10, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let res = topk_vao(
            &mut objs,
            2,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.members, vec![1, 2]);
    }

    #[test]
    fn topk_work_grows_with_k_on_clustered_data() {
        // Separating a deeper boundary takes at least as much work.
        let values: Vec<f64> = (0..10).map(|i| 100.0 + i as f64 * 0.5).collect();
        let eps = PrecisionConstraint::new(0.01).unwrap();
        let mut works = Vec::new();
        for k in [1usize, 3, 6] {
            let mut objs = converging_to(&values);
            let mut meter = WorkMeter::new();
            topk_vao(&mut objs, k, eps, &mut meter).unwrap();
            works.push(meter.total());
        }
        assert!(works[0] <= works[2], "k=1 {} vs k=6 {}", works[0], works[2]);
    }
}
