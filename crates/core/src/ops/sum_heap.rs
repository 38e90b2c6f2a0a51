//! Heap-indexed weighted SUM — §5.2's sublinear iteration choice.
//!
//! The baseline SUM VAO re-scans every unconverged object to pick its next
//! iteration (`O(N)` per choice; §5.2 notes "the VAO can choose iterations
//! in sublinear time using indexes such as heap queues, \[but\] we found
//! such optimizations unnecessary in our current experiments"). This
//! module implements that index: a lazy binary max-heap over per-object
//! scores. Iterating an object changes *only its own* score, so each
//! choice is `O(log N)` — pop the best fresh entry, iterate, push the
//! updated entry. Stale entries (superseded versions) are discarded on
//! pop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::cost::{Work, WorkMeter};
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::Driver;
use crate::ops::score::est_shrink;
use crate::ops::sum::{validate_sum_input, weighted_endpoints, weighted_interval, SumResult};
use crate::ops::DEFAULT_ITERATION_LIMIT;
use crate::precision::PrecisionConstraint;

/// Heap entry: score-ordered, with a version stamp for lazy invalidation.
struct Entry {
    score: f64,
    width: f64,
    version: u64,
    index: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Primary: greedy score. Secondary: width (the same fallback the
        // scan-based policy uses when estimates carry no signal).
        // Tertiary: lower index, for determinism.
        self.score
            .total_cmp(&other.score)
            .then(self.width.total_cmp(&other.width))
            .then(other.index.cmp(&self.index))
    }
}

fn score_of<R: ResultObject>(obj: &R, weight: f64) -> (f64, f64) {
    let b = obj.bounds();
    let score = weight * est_shrink(b, obj.est_bounds()) / (obj.est_cpu().max(1) as f64);
    (score, b.width())
}

/// Weighted SUM with a heap-indexed greedy strategy. Semantically
/// equivalent to [`crate::ops::sum::weighted_sum_vao`] (same stopping
/// conditions, same greedy criterion); only the choice data structure —
/// and therefore the `chooseIter` cost profile — differs.
pub fn weighted_sum_vao_heap<R: ResultObject>(
    objs: &mut [R],
    weights: &[f64],
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<SumResult, VaoError> {
    validate_sum_input(objs, weights, epsilon)?;

    let n = objs.len();
    let weight = |i: usize| weights[i];
    // Running totals keep the round at O(log N): they only say when a stop
    // is worth checking. The interval itself is the shared index-order
    // re-add, so the heap stops where the scan does and reports its bits.
    let (mut lo_sum, mut hi_sum) = weighted_endpoints(&*objs, weight);

    let mut versions = vec![0u64; n];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(n);
    for (i, o) in objs.iter().enumerate() {
        if !o.converged() {
            let (score, width) = score_of(o, weights[i]);
            heap.push(Entry {
                score,
                width,
                version: 0,
                index: i,
            });
        }
    }
    // Building the index is one O(N) pass (heapify), charged like a scan.
    meter.charge_choose(n as Work);

    let mut drive = Driver::unobserved(DEFAULT_ITERATION_LIMIT, meter);
    loop {
        if hi_sum - lo_sum <= epsilon.epsilon() {
            let bounds = weighted_interval(&*objs, weight);
            if bounds.width() <= epsilon.epsilon() {
                return Ok(SumResult {
                    bounds,
                    iterations: drive.iterations(),
                    stopped_at_floor: false,
                });
            }
            (lo_sum, hi_sum) = (bounds.lo(), bounds.hi());
        }
        // Pop the best fresh entry; stale or converged entries are skipped.
        let chosen = loop {
            match heap.pop() {
                None => {
                    return Ok(SumResult {
                        bounds: weighted_interval(&*objs, weight),
                        iterations: drive.iterations(),
                        stopped_at_floor: true,
                    });
                }
                Some(e) => {
                    drive.meter.charge_choose(1);
                    if e.version == versions[e.index] && !objs[e.index].converged() {
                        break e.index;
                    }
                }
            }
        };

        let (before, after) = drive.step(&mut objs[chosen], chosen)?;
        let w = weights[chosen];
        lo_sum += w * (after.lo() - before.lo());
        hi_sum += w * (after.hi() - before.hi());

        versions[chosen] += 1;
        if !objs[chosen].converged() {
            let (score, width) = score_of(&objs[chosen], w);
            heap.push(Entry {
                score,
                width,
                version: versions[chosen],
                index: chosen,
            });
            drive.meter.charge_choose(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::sum::weighted_sum_vao;
    use crate::testkit::ScriptedObject;

    fn converging_to(values: &[f64]) -> Vec<ScriptedObject> {
        values
            .iter()
            .map(|&v| {
                ScriptedObject::converging(
                    &[
                        (v - 16.0, v + 16.0),
                        (v - 6.0, v + 6.0),
                        (v - 2.0, v + 2.0),
                        (v - 0.5, v + 0.5),
                        (v - 0.004, v + 0.004),
                    ],
                    10,
                    0.01,
                )
            })
            .collect()
    }

    #[test]
    fn heap_and_scan_agree_on_results() {
        let values: Vec<f64> = (0..40).map(|i| 80.0 + (i as f64) * 1.3).collect();
        let weights: Vec<f64> = (0..40).map(|i| 1.0 + (i % 7) as f64).collect();
        let floor: f64 = weights.iter().map(|w| w * 0.01).sum();
        let eps = PrecisionConstraint::new(floor * 30.0).unwrap();
        let true_sum: f64 = values.iter().zip(&weights).map(|(v, w)| v * w).sum();

        let mut a = converging_to(&values);
        let mut ma = WorkMeter::new();
        let ra = weighted_sum_vao(&mut a, &weights, eps, &mut ma).unwrap();

        let mut b = converging_to(&values);
        let mut mb = WorkMeter::new();
        let rb = weighted_sum_vao_heap(&mut b, &weights, eps, &mut mb).unwrap();

        assert!(ra.bounds.contains(true_sum));
        assert!(rb.bounds.contains(true_sum));
        assert!(ra.bounds.width() <= eps.epsilon());
        assert!(rb.bounds.width() <= eps.epsilon());
        // Identical greedy criterion: execution work should match exactly
        // for deterministic scripted objects.
        assert_eq!(
            ma.breakdown().exec_iter,
            mb.breakdown().exec_iter,
            "both strategies perform the same greedy iterations"
        );
    }

    #[test]
    fn heap_choose_cost_is_far_below_scan_cost() {
        // Many objects, tight epsilon: the scan pays O(N) per iteration,
        // the heap O(log N).
        let values: Vec<f64> = (0..200).map(|i| 50.0 + (i as f64) * 0.7).collect();
        let weights = vec![1.0; 200];
        let eps = PrecisionConstraint::new(200.0 * 0.01 * 1.001).unwrap();

        let mut a = converging_to(&values);
        let mut ma = WorkMeter::new();
        weighted_sum_vao(&mut a, &weights, eps, &mut ma).unwrap();

        let mut b = converging_to(&values);
        let mut mb = WorkMeter::new();
        weighted_sum_vao_heap(&mut b, &weights, eps, &mut mb).unwrap();

        assert!(
            mb.breakdown().choose_iter * 10 < ma.breakdown().choose_iter,
            "heap {} vs scan {}",
            mb.breakdown().choose_iter,
            ma.breakdown().choose_iter
        );
    }

    #[test]
    fn heap_respects_epsilon_and_floor() {
        let values = [100.0, 50.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        // Wide epsilon: stops early.
        let res = weighted_sum_vao_heap(
            &mut objs,
            &[1.0, 1.0],
            PrecisionConstraint::new(20.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(res.bounds.width() <= 20.0);
        assert!(!res.stopped_at_floor);
        assert!(res.bounds.contains(150.0));

        // Floor run: every object converges.
        let mut objs = converging_to(&values);
        let res = weighted_sum_vao_heap(
            &mut objs,
            &[1.0, 1.0],
            PrecisionConstraint::new(0.021).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(objs.iter().all(ScriptedObject::converged));
        assert!(res.bounds.width() <= 0.021);
    }

    #[test]
    fn heap_validates_inputs_like_the_scan() {
        let mut objs: Vec<ScriptedObject> = vec![];
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(1.0).unwrap();
        assert_eq!(
            weighted_sum_vao_heap(&mut objs, &[], eps, &mut meter).unwrap_err(),
            VaoError::EmptyInput
        );
        let mut objs = converging_to(&[1.0]);
        assert!(matches!(
            weighted_sum_vao_heap(&mut objs, &[-1.0], eps, &mut meter).unwrap_err(),
            VaoError::InvalidWeight { .. }
        ));
        let mut objs = converging_to(&[1.0]);
        assert!(matches!(
            weighted_sum_vao_heap(&mut objs, &[1.0, 2.0], eps, &mut meter).unwrap_err(),
            VaoError::WeightCountMismatch { .. }
        ));
    }

    #[test]
    fn heap_detects_stalled_objects() {
        let mut objs = vec![ScriptedObject::converging(
            &[(0.0, 10.0), (1.0, 9.0)],
            4,
            0.01,
        )];
        let mut meter = WorkMeter::new();
        assert!(matches!(
            weighted_sum_vao_heap(
                &mut objs,
                &[1.0],
                PrecisionConstraint::new(1.0).unwrap(),
                &mut meter
            )
            .unwrap_err(),
            VaoError::IterationLimitExceeded { .. }
        ));
    }
}
