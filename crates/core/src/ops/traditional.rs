//! Traditional ("black box") baseline operators (§3.1, §6).
//!
//! A traditional UDF always runs to full accuracy — error below `minWidth`
//! — because the operator evaluating its result has no control over its
//! execution. The paper builds its baseline generously: each function call
//! "knows a priori the step sizes needed to get the desired accuracy, and no
//! further work has to be done to ensure that the error is acceptable"
//! (§6). We reproduce that with a **calibration** pass: a result object is
//! iterated to convergence once, off the clock, and the baseline thereafter
//! charges only [`crate::ResultObject::standalone_cost`] — the cost of a
//! single solver run at the final accuracy.

use crate::bounds::Bounds;
use crate::cost::{Work, WorkMeter};
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::Driver;
use crate::ops::score::View;
use crate::ops::selection::CmpOp;
use crate::ops::sum::validate_weights;
use crate::ops::DEFAULT_ITERATION_LIMIT;

/// The outcome of calibrating one function call: the accurate value and the
/// work a single full-accuracy black-box execution costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlackBoxSpec {
    /// The function value at full accuracy (bounds midpoint at convergence).
    pub value: f64,
    /// Work of one black-box execution at that accuracy.
    pub work: Work,
    /// The converged object's final bounds width (strictly below its
    /// `minWidth`).
    pub final_width: f64,
}

/// A black-box result *is* a result object at its final accuracy: the
/// specs read as converged points, so the conventional operator over the
/// values is the §5 answer over this view.
impl View for [BlackBoxSpec] {
    fn len(&self) -> usize {
        <[BlackBoxSpec]>::len(self)
    }

    fn bounds(&self, i: usize) -> Bounds {
        Bounds::point(self[i].value)
    }

    fn est_bounds(&self, i: usize) -> Bounds {
        self.bounds(i)
    }

    fn converged(&self, _: usize) -> bool {
        true
    }

    /// A converged object has no next iteration to pay for.
    fn est_cpu(&self, _: usize) -> Work {
        0
    }
}

/// Iterates `obj` to convergence and records its black-box execution spec.
///
/// Calibration work is charged to `calibration_meter` (the experiments use
/// a throwaway meter here — this models the paper's off-line measurement of
/// the step sizes each bond needs).
pub fn calibrate<R: ResultObject>(
    obj: &mut R,
    calibration_meter: &mut WorkMeter,
) -> Result<BlackBoxSpec, VaoError> {
    let mut drive = Driver::unobserved(DEFAULT_ITERATION_LIMIT, calibration_meter);
    while !obj.converged() {
        drive.step(obj, 0)?;
    }
    let bounds = obj.bounds();
    Ok(BlackBoxSpec {
        value: bounds.mid(),
        work: obj.standalone_cost(),
        final_width: bounds.width(),
    })
}

/// Executes one black-box call: charges the calibrated work, returns the
/// full-accuracy value.
pub fn black_box_call(spec: &BlackBoxSpec, meter: &mut WorkMeter) -> f64 {
    meter.charge_exec(spec.work);
    spec.value
}

/// Traditional selection: run every function to full accuracy, then compare.
///
/// Returns the indices of tuples satisfying the predicate.
pub fn traditional_select(
    specs: &[BlackBoxSpec],
    op: CmpOp,
    constant: f64,
    meter: &mut WorkMeter,
) -> Vec<usize> {
    specs
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let v = black_box_call(s, meter);
            op.eval(v, constant).then_some(i)
        })
        .collect()
}

/// Traditional MAX: run every function to full accuracy, take the largest.
pub fn traditional_max(
    specs: &[BlackBoxSpec],
    meter: &mut WorkMeter,
) -> Result<(usize, f64), VaoError> {
    if specs.is_empty() {
        return Err(VaoError::EmptyInput);
    }
    let mut best = (0, black_box_call(&specs[0], meter));
    for (i, s) in specs.iter().enumerate().skip(1) {
        let v = black_box_call(s, meter);
        if v > best.1 {
            best = (i, v);
        }
    }
    Ok(best)
}

/// Traditional weighted SUM: run every function to full accuracy and form
/// the weighted sum of the point values.
pub fn traditional_weighted_sum(
    specs: &[BlackBoxSpec],
    weights: &[f64],
    meter: &mut WorkMeter,
) -> Result<f64, VaoError> {
    validate_weights(specs.len(), weights)?;
    Ok(specs
        .iter()
        .zip(weights)
        .map(|(s, &w)| w * black_box_call(s, meter))
        .sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    fn converging(values: &[(f64, f64)], cost: Work) -> ScriptedObject {
        ScriptedObject::converging(values, cost, 0.01)
    }

    fn spec(v: f64, work: Work) -> BlackBoxSpec {
        BlackBoxSpec {
            value: v,
            work,
            final_width: 0.005,
        }
    }

    #[test]
    fn calibrate_converges_and_records_standalone_cost() {
        let mut obj = converging(&[(90.0, 110.0), (99.0, 101.0), (100.0, 100.004)], 50);
        let mut cal = WorkMeter::new();
        let spec = calibrate(&mut obj, &mut cal).unwrap();
        assert!((spec.value - 100.002).abs() < 1e-9);
        // ScriptedObject's standalone cost is its last step cost (PDE-style).
        assert_eq!(spec.work, 50);
        assert!(spec.final_width < 0.01);
        // Calibration itself paid the full iterative cost (2 steps).
        assert_eq!(cal.breakdown().exec_iter, 100);
    }

    #[test]
    fn calibrate_detects_stall() {
        let mut obj = converging(&[(90.0, 110.0), (95.0, 105.0)], 10);
        let mut cal = WorkMeter::new();
        assert!(matches!(
            calibrate(&mut obj, &mut cal),
            Err(VaoError::IterationLimitExceeded { .. })
        ));
    }

    #[test]
    fn black_box_call_charges_fixed_work() {
        let s = spec(105.0, 1234);
        let mut m = WorkMeter::new();
        assert_eq!(black_box_call(&s, &mut m), 105.0);
        assert_eq!(black_box_call(&s, &mut m), 105.0);
        assert_eq!(m.breakdown().exec_iter, 2468);
    }

    #[test]
    fn traditional_select_cost_is_query_independent() {
        // §6.1: the traditional operator's runtime is constant because it
        // does not depend on the query constant.
        let specs = vec![spec(95.0, 100), spec(105.0, 200), spec(99.0, 300)];
        for constant in [0.0, 99.5, 1000.0] {
            let mut m = WorkMeter::new();
            let _ = traditional_select(&specs, CmpOp::Gt, constant, &mut m);
            assert_eq!(m.total(), 600);
        }
        let mut m = WorkMeter::new();
        let sat = traditional_select(&specs, CmpOp::Gt, 100.0, &mut m);
        assert_eq!(sat, vec![1]);
        let sat = traditional_select(&specs, CmpOp::Lt, 100.0, &mut m);
        assert_eq!(sat, vec![0, 2]);
    }

    #[test]
    fn traditional_max_and_min() {
        use crate::ops::score::{contest_top, Flipped};
        let specs = vec![spec(95.0, 1), spec(105.0, 1), spec(99.0, 1)];
        let mut m = WorkMeter::new();
        assert_eq!(traditional_max(&specs, &mut m).unwrap(), (1, 105.0));
        assert_eq!(m.total(), 3, "the aggregate ran every function");
        // MIN has no function of its own: the specs read as converged
        // points, and MIN is the rank contest over the flipped view.
        let (_, lowest, ties) = contest_top(&Flipped(&specs[..]), 1);
        assert_eq!(lowest, 0);
        assert_eq!(specs[..].bounds(lowest), Bounds::point(95.0));
        assert!(ties.is_empty() && specs[..].converged(lowest));
        assert!(matches!(
            traditional_max(&[], &mut m),
            Err(VaoError::EmptyInput)
        ));
    }

    #[test]
    fn traditional_weighted_sum_values_and_errors() {
        let specs = vec![spec(100.0, 10), spec(50.0, 10)];
        let mut m = WorkMeter::new();
        let v = traditional_weighted_sum(&specs, &[2.0, 1.0], &mut m).unwrap();
        assert_eq!(v, 250.0);
        assert_eq!(m.total(), 20);
        assert!(matches!(
            traditional_weighted_sum(&specs, &[1.0], &mut m),
            Err(VaoError::WeightCountMismatch { .. })
        ));
        assert!(matches!(
            traditional_weighted_sum(&specs, &[1.0, -1.0], &mut m),
            Err(VaoError::InvalidWeight { .. })
        ));
        assert!(matches!(
            traditional_weighted_sum(&[], &[], &mut m),
            Err(VaoError::EmptyInput)
        ));
    }
}
