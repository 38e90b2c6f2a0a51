//! Order statistics: MEDIAN and general quantiles (extension).
//!
//! The rank-`k`-from-top object generalizes both MAX (`k = 1`) and MIN
//! (`k = N`). The operator runs the shared guess-and-reduce separation of
//! §5.1 twice:
//!
//! 1. **Outer separation** — split the objects into the presumed top-`k`
//!    member set and the rest, iterating until no outsider's upper bound
//!    reaches above the members' boundary (exactly the Top-K phase).
//! 2. **Inner separation** — find the *minimum* of the member set (the
//!    rank-`k` object itself): the same separation with `k = 1`, over
//!    negated views and restricted to the members, iterating until no
//!    other member's lower bound dips below it.
//!
//! With `k = 1` the inner phase has nobody to separate and the operator *is*
//! MAX; with `k = N` the outer phase has nobody to separate and it is MIN
//! (up to the guess between members that tie exactly on their lower bound,
//! which this phase leaves to the member order where MIN looks at the upper
//! bound). Ties at `minWidth` resolution are reported, as in MAX. MEDIAN is
//! the rank `⌈N/2⌉` from the top.

use crate::adapters::Negated;
use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{refine, separate, separate_top, validate_rank, Driver};
use crate::ops::minmax::{AggregateConfig, ExtremeResult};
use crate::ops::score::by_hi;
use crate::precision::PrecisionConstraint;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Evaluates the median (rank `⌈N/2⌉` from the top) with the default
/// greedy configuration.
pub fn median_vao<R: ResultObject>(
    objs: &mut [R],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    let k = objs.len().div_ceil(2);
    quantile_vao(objs, k, epsilon, meter)
}

/// Evaluates the rank-`k`-from-top object (`k = 1` is MAX, `k = N` is MIN)
/// with the default greedy configuration.
pub fn quantile_vao<R: ResultObject>(
    objs: &mut [R],
    k: usize,
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    quantile_vao_traced(
        objs,
        k,
        epsilon,
        &mut AggregateConfig::default(),
        meter,
        &mut NoopObserver,
    )
}

/// Evaluates the rank-`k`-from-top object with an explicit configuration
/// and an [`ExecObserver`] receiving the execution trace. Every rank
/// reports as [`OperatorKind::Median`]; object indices are positions in
/// `objs` in both phases, and the inner phase's events carry bounds in the
/// **negated** domain (as MIN's do).
pub fn quantile_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    k: usize,
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<ExtremeResult, VaoError> {
    validate_rank(objs, k, epsilon)?;
    let mut drive = Driver::begin(
        OperatorKind::Median,
        objs.len(),
        config.iteration_limit,
        meter,
        observer,
    );

    // Phase 1: outer separation of the top-k member set.
    let (members, mut ties) = separate_top(objs, k, &mut config.policy, &mut drive)?;
    // Phase 2: inner MIN separation within the member set.
    let (winner, inner_ties) = {
        let mut negated: Vec<Negated<&mut R>> = objs.iter_mut().map(Negated).collect();
        separate(
            &mut negated,
            &members,
            1,
            by_hi,
            &mut config.policy,
            &mut drive,
        )?
    };
    let winner = winner[0];
    // Phase 3: refine the rank-k object to ε.
    refine(&mut objs[winner], winner, epsilon, &mut drive)?;

    ties.extend(inner_ties);
    ties.sort_unstable();
    ties.dedup();
    Ok(ExtremeResult {
        argext: winner,
        bounds: objs[winner].bounds(),
        ties,
        iterations: drive.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::minmax::{max_vao, min_vao};
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

    #[test]
    fn median_of_odd_set_is_the_middle_value() {
        let values = [110.0, 90.0, 100.0, 130.0, 70.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = median_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(values[res.argext], 100.0);
        assert!(res.bounds.contains(100.0));
        assert!(res.ties.is_empty());
    }

    #[test]
    fn rank_1_matches_max_and_rank_n_matches_min() {
        let values = [95.0, 105.0, 99.0, 101.0];
        let eps = PrecisionConstraint::new(0.01).unwrap();

        // Not merely the same answer: the same execution (result with its
        // iteration count, every work component, every object's bounds).
        let run = |op: &dyn Fn(&mut [ScriptedObject], &mut WorkMeter) -> ExtremeResult| {
            let mut objs = converging_to(&values);
            let mut meter = WorkMeter::new();
            let res = op(&mut objs, &mut meter);
            let bounds: Vec<_> = objs.iter().map(ResultObject::bounds).collect();
            (res, meter.breakdown(), bounds)
        };

        let q1 = run(&|o, m| quantile_vao(o, 1, eps, m).unwrap());
        assert_eq!(values[q1.0.argext], 105.0);
        assert_eq!(q1, run(&|o, m| max_vao(o, eps, m).unwrap()));

        let qn = run(&|o, m| quantile_vao(o, 4, eps, m).unwrap());
        assert_eq!(values[qn.0.argext], 95.0);
        assert_eq!(qn, run(&|o, m| min_vao(o, eps, m).unwrap()));
    }

    #[test]
    fn quantile_sweeps_the_whole_order() {
        let values = [50.0, 80.0, 20.0, 110.0, 140.0, 65.0];
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted.reverse(); // descending: rank k from top = sorted[k-1]
        for k in 1..=values.len() {
            let mut objs = converging_to(&values);
            let mut meter = WorkMeter::new();
            let res = quantile_vao(
                &mut objs,
                k,
                PrecisionConstraint::new(0.01).unwrap(),
                &mut meter,
            )
            .unwrap();
            assert_eq!(
                values[res.argext],
                sorted[k - 1],
                "rank {k}: got {}, want {}",
                values[res.argext],
                sorted[k - 1]
            );
        }
    }

    #[test]
    fn median_leaves_extremes_coarse() {
        // The far tails should not need full refinement to place the
        // median.
        let values = [10.0, 100.0, 101.0, 102.0, 200.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = median_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(values[res.argext], 101.0);
        assert!(
            !objs[0].converged() && !objs[4].converged(),
            "the 10 and 200 outliers must stay coarse"
        );
    }

    #[test]
    fn indistinguishable_neighbors_reported_as_ties() {
        let values = [90.0, 100.0, 100.003, 120.0, 130.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = median_vao(
            &mut objs,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        // Median is rank 3 from top: one of the two ~100 objects; the
        // other is indistinguishable.
        assert!((values[res.argext] - 100.0).abs() < 0.01);
        assert_eq!(res.ties.len(), 1);
    }

    #[test]
    fn rejects_bad_ranks() {
        let mut objs = converging_to(&[1.0, 2.0]);
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(0.01).unwrap();
        assert!(matches!(
            quantile_vao(&mut objs, 0, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
        assert!(matches!(
            quantile_vao(&mut objs, 3, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
    }
}
