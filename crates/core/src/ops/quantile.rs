//! Order statistics: MEDIAN and general quantiles (extension).
//!
//! The rank-`k`-from-top object generalizes both MAX (`k = 1`) and MIN
//! (`k = N`). The operator runs in two phases, each a guess-and-reduce
//! separation in the style of §5.1:
//!
//! 1. **Outer separation** — split the objects into the presumed top-`k`
//!    member set and the rest, iterating until no outsider's upper bound
//!    reaches above the members' boundary (exactly the Top-K phase).
//! 2. **Inner separation** — find the *minimum* of the member set (the
//!    rank-`k` object itself), iterating until no other member's lower
//!    bound dips below it.
//!
//! Ties at `minWidth` resolution are reported, as in MAX. MEDIAN is the
//! rank `⌈N/2⌉` from the top.

use crate::cost::{Work, WorkMeter};
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::minmax::{AggregateConfig, ExtremeResult};
use crate::precision::PrecisionConstraint;
use crate::strategy::Candidate;

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
    quantile_vao_with(objs, k, epsilon, &mut AggregateConfig::default(), meter)
}

/// Evaluates the rank-`k`-from-top object with an explicit configuration.
pub fn quantile_vao_with<R: ResultObject>(
    objs: &mut [R],
    k: usize,
    epsilon: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    if objs.is_empty() || k == 0 || k > objs.len() {
        return Err(VaoError::EmptyInput);
    }
    epsilon.validate_single_object(objs)?;

    let mut iterations = 0u64;
    let step = |objs: &mut [R], idx: usize, iterations: &mut u64, meter: &mut WorkMeter| {
        if *iterations >= config.iteration_limit {
            return Err(VaoError::IterationLimitExceeded {
                limit: config.iteration_limit,
            });
        }
        let before = objs[idx].bounds();
        let after = objs[idx].iterate(meter);
        *iterations += 1;
        if after == before && !objs[idx].converged() {
            return Err(VaoError::IterationLimitExceeded {
                limit: config.iteration_limit,
            });
        }
        Ok(())
    };

    // ---- Phase 1: outer separation (identical in spirit to Top-K). ----
    let (members, mut ties) = loop {
        let members = top_by_hi(objs, k);
        let &theta_holder = members
            .iter()
            .min_by(|&&a, &&b| objs[a].bounds().lo().total_cmp(&objs[b].bounds().lo()))
            .expect("k >= 1");
        let theta = objs[theta_holder].bounds().lo();
        let unresolved: Vec<usize> = (0..objs.len())
            .filter(|&i| !members.contains(&i) && objs[i].bounds().hi() >= theta)
            .collect();
        if unresolved.is_empty() {
            break (members, Vec::new());
        }
        if objs[theta_holder].converged() && unresolved.iter().all(|&i| objs[i].converged()) {
            break (members, unresolved);
        }
        let mut candidates = Vec::with_capacity(unresolved.len() + 1);
        if !objs[theta_holder].converged() {
            let est_raise = (objs[theta_holder].est_bounds().lo() - theta).max(0.0);
            let benefit: f64 = unresolved
                .iter()
                .map(|&j| (objs[j].bounds().hi() - theta).max(0.0).min(est_raise))
                .sum();
            candidates.push(Candidate {
                index: theta_holder,
                benefit,
                est_cpu: objs[theta_holder].est_cpu(),
                width: objs[theta_holder].bounds().width(),
            });
        }
        for &i in &unresolved {
            if objs[i].converged() {
                continue;
            }
            let b = objs[i].bounds();
            candidates.push(Candidate {
                index: i,
                benefit: (b.hi() - theta)
                    .max(0.0)
                    .min((b.hi() - objs[i].est_bounds().hi()).max(0.0)),
                est_cpu: objs[i].est_cpu(),
                width: b.width(),
            });
        }
        meter.charge_choose(candidates.len() as Work);
        let Some(pick) = config.policy.pick(&candidates) else {
            return Err(VaoError::IterationLimitExceeded {
                limit: config.iteration_limit,
            });
        };
        step(objs, candidates[pick].index, &mut iterations, meter)?;
    };

    // ---- Phase 2: inner MIN separation within the member set. ----
    let winner = loop {
        // Guess: the member with the lowest lower bound.
        let &guess = members
            .iter()
            .min_by(|&&a, &&b| objs[a].bounds().lo().total_cmp(&objs[b].bounds().lo()))
            .expect("k >= 1");
        let guess_hi = objs[guess].bounds().hi();
        let unresolved: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&i| i != guess && objs[i].bounds().lo() <= guess_hi)
            .collect();
        if unresolved.is_empty() {
            break guess;
        }
        if objs[guess].converged() && unresolved.iter().all(|&i| objs[i].converged()) {
            ties.extend(unresolved.iter().copied());
            break guess;
        }
        let mut candidates = Vec::with_capacity(unresolved.len() + 1);
        if !objs[guess].converged() {
            let est_drop = (guess_hi - objs[guess].est_bounds().hi()).max(0.0);
            let benefit: f64 = unresolved
                .iter()
                .map(|&j| (guess_hi - objs[j].bounds().lo()).max(0.0).min(est_drop))
                .sum();
            candidates.push(Candidate {
                index: guess,
                benefit,
                est_cpu: objs[guess].est_cpu(),
                width: objs[guess].bounds().width(),
            });
        }
        for &i in &unresolved {
            if objs[i].converged() {
                continue;
            }
            let b = objs[i].bounds();
            candidates.push(Candidate {
                index: i,
                benefit: (guess_hi - b.lo())
                    .max(0.0)
                    .min((objs[i].est_bounds().lo() - b.lo()).max(0.0)),
                est_cpu: objs[i].est_cpu(),
                width: b.width(),
            });
        }
        meter.charge_choose(candidates.len() as Work);
        let Some(pick) = config.policy.pick(&candidates) else {
            return Err(VaoError::IterationLimitExceeded {
                limit: config.iteration_limit,
            });
        };
        step(objs, candidates[pick].index, &mut iterations, meter)?;
    };

    // ---- Phase 3: refine the rank-k object to ε. ----
    while objs[winner].bounds().width() > epsilon.epsilon() && !objs[winner].converged() {
        step(objs, winner, &mut iterations, meter)?;
    }

    ties.sort_unstable();
    ties.dedup();
    Ok(ExtremeResult {
        argext: winner,
        bounds: objs[winner].bounds(),
        ties,
        iterations,
    })
}

/// The `k` indices with the highest upper bounds (deterministic ties).
fn top_by_hi<R: ResultObject>(objs: &[R], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..objs.len()).collect();
    idx.sort_by(|&a, &b| {
        let (ba, bb) = (objs[a].bounds(), objs[b].bounds());
        bb.hi()
            .total_cmp(&ba.hi())
            .then(bb.lo().total_cmp(&ba.lo()))
            .then(a.cmp(&b))
    });
    idx.truncate(k);
    idx
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
