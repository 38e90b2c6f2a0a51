//! Order statistics: MEDIAN and general quantiles (extension).
//!
//! The rank-`k`-from-top object generalizes both MAX (`k = 1`) and MIN
//! (`k = N`). Its demand ([`demands_quantile`]) runs the guess-and-reduce
//! separation of §5.1 twice, then refines:
//!
//! 1. **Outer separation** — split the objects into the presumed top-`k`
//!    member set and the rest, until no outsider's upper bound reaches
//!    above the members' boundary (exactly the Top-K phase).
//! 2. **Inner separation** — find the *minimum* of the member set (the
//!    rank-`k` object itself): the same separation with `k = 1`, over a
//!    flipped view and restricted to the members, until no other member's
//!    lower bound dips below it.
//! 3. **Refinement** of that object to ε.
//!
//! With `k = 1` the inner phase has nobody to separate and the operator *is*
//! MAX; with `k = N` the outer phase has nobody to separate and it is MIN
//! (up to the guess between members that tie exactly on their lower bound,
//! which this phase leaves to the member order where MIN looks at the upper
//! bound). Ties at `minWidth` resolution are reported, as in MAX. MEDIAN is
//! the rank `⌈N/2⌉` from the top.

use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{operate, push, validate_rank, Demand};
use crate::ops::minmax::{AggregateConfig, ExtremeResult};
use crate::ops::score::{
    contest_top, refine_to_epsilon, score_separation, separated, straddlers, Flipped, View,
};
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
/// reports as [`OperatorKind::Median`].
pub fn quantile_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    k: usize,
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<ExtremeResult, VaoError> {
    validate_rank(objs, k, epsilon)?;
    let (kind, eps) = (OperatorKind::Median, epsilon.epsilon());
    let (iterations, _) = operate(kind, objs, config, meter, observer, |v, out| {
        demands_quantile(v, k, eps, out);
    })?;
    // The winner is the boundary member; the ties are the converged outer
    // straddlers plus the members still overlapping the winner.
    let (members, winner, mut ties) = contest_top(&*objs, k);
    ties.extend(straddlers(&Flipped(&*objs), members, &[winner], winner));
    ties.sort_unstable();
    ties.dedup();
    Ok(ExtremeResult {
        argext: winner,
        bounds: objs[winner].bounds(),
        ties,
        iterations,
    })
}

/// The order statistic's demand at rank `k` from the top: the three phases
/// over [`contest_top`] (see the module docs).
pub fn demands_quantile<V: View + ?Sized>(v: &V, k: usize, epsilon: f64, out: &mut Vec<Demand>) {
    let (members, holder, outer) = contest_top(v, k);
    quantile_phases(v, &members, holder, &outer, epsilon, &mut Vec::new(), out);
}

/// The order statistic's phases over an already-derived member guess (in
/// rank order — the inner θ benefit sums over it), θ holder and outer
/// straddler set. `inner` is scratch for the inner contenders.
pub fn quantile_phases<V: View + ?Sized>(
    v: &V,
    members: &[usize],
    holder: usize,
    outer: &[usize],
    epsilon: f64,
    inner: &mut Vec<usize>,
    out: &mut Vec<Demand>,
) {
    if !separated(v, holder, outer) {
        score_separation(v, holder, outer, push(out));
        return;
    }
    // Inner MIN among the members: the flipped view's guess is the member
    // with the lowest lower bound, which is θ's holder.
    let vmin = Flipped(v);
    inner.clear();
    inner.extend(straddlers(
        &vmin,
        members.iter().copied(),
        &[holder],
        holder,
    ));
    if !separated(&vmin, holder, inner) {
        score_separation(&vmin, holder, inner, push(out));
        return;
    }
    refine_to_epsilon(v, holder, epsilon, out);
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
