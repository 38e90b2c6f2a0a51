//! COUNT over a selection predicate, with a bounded-slack early stop.
//!
//! `COUNT(model(args) ⟨op⟩ c)` needs each tuple only classified, not
//! priced — and often not even classified: if the query tolerates a count
//! error of ±`slack`, the operator can leave up to `slack` straddling
//! objects unresolved and report the count as an integer interval. This
//! extends the paper's selection VAO with the aggregate-style precision
//! trade-off of §5 (the paper's precision constraints bound *value* widths;
//! here the constraint bounds the count's width).

use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::{operate, Demand};
use crate::ops::minmax::AggregateConfig;
use crate::ops::score::View;
use crate::ops::selection::{decided, probe_benefit, CmpOp};
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Result of a COUNT evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct CountResult {
    /// Objects proven (or resolved at `minWidth`) to satisfy the predicate.
    pub count_lo: usize,
    /// `count_lo` plus the objects left unresolved under the slack.
    pub count_hi: usize,
    /// Indices of the unresolved objects (`count_hi - count_lo` of them).
    pub unresolved: Vec<usize>,
    /// Total `iterate()` calls issued.
    pub iterations: u64,
}

impl CountResult {
    /// The exact count when no slack was consumed.
    #[must_use]
    pub fn exact(&self) -> Option<usize> {
        (self.count_lo == self.count_hi).then_some(self.count_lo)
    }
}

/// Evaluates COUNT with the default greedy configuration.
pub fn count_vao<R: ResultObject>(
    objs: &mut [R],
    op: CmpOp,
    constant: f64,
    slack: usize,
    meter: &mut WorkMeter,
) -> Result<CountResult, VaoError> {
    count_vao_traced(
        objs,
        op,
        constant,
        slack,
        &mut AggregateConfig::default(),
        meter,
        &mut NoopObserver,
    )
}

/// Evaluates COUNT with an explicit configuration and an [`ExecObserver`]
/// receiving the execution trace.
///
/// Iterates until at most `slack` objects remain unable to be classified,
/// greedily spending work where the estimated bounds shrink most per CPU
/// cycle. `slack = 0` gives the exact count (every object classified,
/// `minWidth`-resolution included).
pub fn count_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    op: CmpOp,
    constant: f64,
    slack: usize,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<CountResult, VaoError> {
    if !constant.is_finite() {
        return Err(VaoError::NonFiniteConstant { value: constant });
    }
    let (iterations, _) = operate(
        OperatorKind::Count,
        objs,
        config,
        meter,
        observer,
        |v, out| {
            demands_classify(v, op, constant, slack, out);
        },
    )?;
    let (count_lo, unresolved) = classify(&*objs, op, constant);
    Ok(CountResult {
        count_lo,
        count_hi: count_lo + unresolved.len(),
        unresolved,
        iterations,
    })
}

/// Object `i`'s SELECT/COUNT demand: demanded while undecided, at the probe
/// benefit — biggest estimated width reduction, with a bonus when the
/// estimate already clears the constant (it would decide).
#[must_use]
pub fn classify_entry<V: View + ?Sized>(
    v: &V,
    op: CmpOp,
    constant: f64,
    i: usize,
) -> Option<Demand> {
    decided(v, i, op, constant).is_none().then(|| Demand {
        object: i,
        benefit: probe_benefit(v, i, op, constant),
    })
}

/// COUNT's demand (SELECT's at `slack = 0`), appended to an empty `out`:
/// every undecided object, or nothing once at most `slack` remain.
pub fn demands_classify<V: View + ?Sized>(
    v: &V,
    op: CmpOp,
    constant: f64,
    slack: usize,
    out: &mut Vec<Demand>,
) {
    out.extend((0..v.len()).filter_map(|i| classify_entry(v, op, constant, i)));
    if out.len() <= slack {
        out.clear();
    }
}

/// COUNT's classification pass: `(proven count, undecided objects)`, an
/// object counting as proven when it is [`decided`] to satisfy the
/// predicate (`minWidth` resolution included).
#[must_use]
pub fn classify<V: View + ?Sized>(v: &V, op: CmpOp, constant: f64) -> (usize, Vec<usize>) {
    let mut count_lo = 0usize;
    let mut unresolved = Vec::new();
    for i in 0..v.len() {
        match decided(v, i, op, constant) {
            Some(d) => count_lo += usize::from(d.satisfied),
            None => unresolved.push(i),
        }
    }
    (count_lo, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    fn converging_to(values: &[f64]) -> Vec<ScriptedObject> {
        values
            .iter()
            .map(|&v| {
                ScriptedObject::converging(
                    &[
                        (v - 10.0, v + 10.0),
                        (v - 2.0, v + 2.0),
                        (v - 0.004, v + 0.004),
                    ],
                    10,
                    0.01,
                )
            })
            .collect()
    }

    #[test]
    fn exact_count_matches_ground_truth() {
        let values = [95.0, 105.0, 99.0, 110.0, 101.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = count_vao(&mut objs, CmpOp::Gt, 100.0, 0, &mut meter).unwrap();
        assert_eq!(res.exact(), Some(3));
        assert!(res.unresolved.is_empty());
    }

    #[test]
    fn slack_trades_precision_for_work() {
        // Three values hug the constant; allowing slack 3 lets the
        // operator skip their expensive resolution entirely.
        let values = [100.001, 99.999, 100.002, 150.0, 50.0];
        let exact_work = {
            let mut objs = converging_to(&values);
            let mut meter = WorkMeter::new();
            let res = count_vao(&mut objs, CmpOp::Gt, 100.0, 0, &mut meter).unwrap();
            // The three stragglers converge to ±0.004 around ~100, still
            // containing the constant: resolved as "equal", failing Gt.
            // Only 150.0 passes.
            assert_eq!(res.exact(), Some(1));
            meter.total()
        };
        let slack_work = {
            let mut objs = converging_to(&values);
            let mut meter = WorkMeter::new();
            let res = count_vao(&mut objs, CmpOp::Gt, 100.0, 3, &mut meter).unwrap();
            assert!(res.count_lo <= 3 && res.count_hi >= 1);
            assert!(res.count_hi - res.count_lo <= 3);
            meter.total()
        };
        assert!(
            slack_work * 3 < exact_work,
            "slack {slack_work} vs exact {exact_work}"
        );
    }

    #[test]
    fn exact_count_resolves_straddlers_via_min_width() {
        // Values converging to within minWidth of the constant count as
        // equal: Gt excludes them, Ge includes them.
        let values = [100.001, 99.999];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = count_vao(&mut objs, CmpOp::Gt, 100.0, 0, &mut meter).unwrap();
        assert_eq!(res.exact(), Some(0), "both treated as == 100, Gt fails");

        let mut objs = converging_to(&values);
        let res = count_vao(&mut objs, CmpOp::Ge, 100.0, 0, &mut meter).unwrap();
        assert_eq!(res.exact(), Some(2), "both treated as == 100, Ge passes");
    }

    #[test]
    fn well_separated_objects_cost_little() {
        let values = [10.0, 20.0, 300.0, 400.0];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = count_vao(&mut objs, CmpOp::Lt, 150.0, 0, &mut meter).unwrap();
        assert_eq!(res.exact(), Some(2));
        // One refinement per object at most (initial ±10 bounds straddle
        // nothing once refined to ±2).
        assert!(res.iterations <= 4, "{} iterations", res.iterations);
    }

    #[test]
    fn rejects_non_finite_constant() {
        let mut objs = converging_to(&[1.0]);
        let mut meter = WorkMeter::new();
        assert!(matches!(
            count_vao(&mut objs, CmpOp::Gt, f64::NAN, 0, &mut meter),
            Err(VaoError::NonFiniteConstant { .. })
        ));
    }

    #[test]
    fn empty_input_counts_zero() {
        let mut objs: Vec<ScriptedObject> = vec![];
        let mut meter = WorkMeter::new();
        let res = count_vao(&mut objs, CmpOp::Gt, 0.0, 0, &mut meter).unwrap();
        assert_eq!(res.exact(), Some(0));
    }

    #[test]
    fn stalled_object_errors() {
        let mut objs = vec![ScriptedObject::converging(&[(90.0, 110.0)], 10, 0.01)];
        let mut meter = WorkMeter::new();
        assert!(matches!(
            count_vao(&mut objs, CmpOp::Gt, 100.0, 0, &mut meter),
            Err(VaoError::IterationLimitExceeded { .. })
        ));
    }
}
