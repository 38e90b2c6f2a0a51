//! Property-based tests for the extension operators (Top-K, quantile,
//! COUNT, heap SUM) against ground truth on sound nested scripts.

use proptest::prelude::*;

use vao::cost::WorkMeter;
use vao::ops::count::count_vao;
use vao::ops::quantile::quantile_vao;
use vao::ops::selection::CmpOp;
use vao::ops::sum::weighted_sum_vao;
use vao::ops::sum_heap::weighted_sum_vao_heap;
use vao::ops::topk::topk_vao;
use vao::precision::PrecisionConstraint;
use vao::testkit::ScriptedObject;

const MIN_WIDTH: f64 = 0.01;

fn nested_script(truth: f64, lo_pad: f64, hi_pad: f64, shrinks: &[f64]) -> Vec<(f64, f64)> {
    let mut lo_d = lo_pad.max(0.5);
    let mut hi_d = hi_pad.max(0.5);
    let mut script = vec![(truth - lo_d, truth + hi_d)];
    for &s in shrinks {
        lo_d *= s;
        hi_d *= s;
        script.push((truth - lo_d, truth + hi_d));
    }
    let w = MIN_WIDTH * 0.4;
    script.push((truth - w, truth + w));
    script
}

fn objects_strategy(_max: usize) -> impl Strategy<Value = Vec<(f64, Vec<(f64, f64)>)>> {
    prop::collection::vec(
        (
            0.0f64..200.0,
            0.5f64..15.0,
            0.5f64..15.0,
            prop::collection::vec(0.3f64..0.8, 1..6),
        )
            .prop_map(|(truth, lo, hi, shrinks)| (truth, nested_script(truth, lo, hi, &shrinks))),
        2..=10,
    )
}

fn build(objs: &[(f64, Vec<(f64, f64)>)]) -> Vec<ScriptedObject> {
    objs.iter()
        .map(|(_, s)| ScriptedObject::converging(s, 10, MIN_WIDTH))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn topk_members_are_the_k_largest(objs in objects_strategy(10), k_frac in 0.1f64..1.0) {
        let truths: Vec<f64> = objs.iter().map(|(t, _)| *t).collect();
        let k = ((truths.len() as f64 * k_frac).ceil() as usize).clamp(1, truths.len());
        let mut scripted = build(&objs);
        let mut meter = WorkMeter::new();
        let res = topk_vao(
            &mut scripted,
            k,
            PrecisionConstraint::new(MIN_WIDTH).unwrap(),
            &mut meter,
        )
        .unwrap();
        prop_assert_eq!(res.members.len(), k);
        // Every member's truth must be >= every non-member's truth, up to
        // the minWidth indistinguishability band.
        let member_min = res
            .members
            .iter()
            .map(|&i| truths[i])
            .fold(f64::INFINITY, f64::min);
        for (i, &truth) in truths.iter().enumerate() {
            if !res.members.contains(&i) {
                prop_assert!(
                    truth <= member_min + MIN_WIDTH,
                    "non-member {} ({}) above member floor {}",
                    i, truth, member_min
                );
            }
        }
    }

    #[test]
    fn quantile_matches_sorted_order(objs in objects_strategy(10), k_frac in 0.0f64..1.0) {
        let truths: Vec<f64> = objs.iter().map(|(t, _)| *t).collect();
        let n = truths.len();
        let k = ((n as f64 * k_frac).floor() as usize).clamp(1, n);
        let mut scripted = build(&objs);
        let mut meter = WorkMeter::new();
        let res = quantile_vao(
            &mut scripted,
            k,
            PrecisionConstraint::new(MIN_WIDTH).unwrap(),
            &mut meter,
        )
        .unwrap();
        let mut sorted = truths.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.reverse();
        prop_assert!(
            (truths[res.argext] - sorted[k - 1]).abs() <= 2.0 * MIN_WIDTH,
            "rank {} returned {} want {}",
            k, truths[res.argext], sorted[k - 1]
        );
        prop_assert!(res.bounds.contains(truths[res.argext]));
    }

    #[test]
    fn exact_count_matches_ground_truth(
        objs in objects_strategy(10),
        constant in 0.0f64..200.0,
    ) {
        let truths: Vec<f64> = objs.iter().map(|(t, _)| *t).collect();
        // Skip draws with truths inside the equality band of the constant
        // (resolution there is minWidth-defined, not ground-truth-defined).
        prop_assume!(truths.iter().all(|t| (t - constant).abs() > MIN_WIDTH));
        let mut scripted = build(&objs);
        let mut meter = WorkMeter::new();
        let res = count_vao(&mut scripted, CmpOp::Gt, constant, 0, &mut meter).unwrap();
        let expected = truths.iter().filter(|&&t| t > constant).count();
        prop_assert_eq!(res.exact(), Some(expected));
    }

    #[test]
    fn count_slack_bounds_always_bracket_truth(
        objs in objects_strategy(10),
        constant in 0.0f64..200.0,
        slack in 0usize..10,
    ) {
        let truths: Vec<f64> = objs.iter().map(|(t, _)| *t).collect();
        prop_assume!(truths.iter().all(|t| (t - constant).abs() > MIN_WIDTH));
        let mut scripted = build(&objs);
        let mut meter = WorkMeter::new();
        let res = count_vao(&mut scripted, CmpOp::Gt, constant, slack, &mut meter).unwrap();
        let expected = truths.iter().filter(|&&t| t > constant).count();
        prop_assert!(res.count_lo <= expected && expected <= res.count_hi,
            "[{}, {}] vs {}", res.count_lo, res.count_hi, expected);
        prop_assert!(res.count_hi - res.count_lo <= slack);
    }

    #[test]
    fn heap_sum_matches_scan_sum_exactly(objs in objects_strategy(10)) {
        let n = objs.len();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let floor: f64 = weights.iter().map(|w| w * MIN_WIDTH).sum();
        let eps = PrecisionConstraint::new(floor * 5.0).unwrap();

        let mut a = build(&objs);
        let mut ma = WorkMeter::new();
        let ra = weighted_sum_vao(&mut a, &weights, eps, &mut ma).unwrap();

        let mut b = build(&objs);
        let mut mb = WorkMeter::new();
        let rb = weighted_sum_vao_heap(&mut b, &weights, eps, &mut mb).unwrap();

        let true_sum: f64 = objs.iter().zip(&weights).map(|((t, _), w)| t * w).sum();
        prop_assert!(ra.bounds.contains(true_sum));
        prop_assert!(rb.bounds.contains(true_sum));
        prop_assert_eq!(ma.breakdown().exec_iter, mb.breakdown().exec_iter);
    }
}
