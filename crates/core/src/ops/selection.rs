//! The selection VAO (§3.2).
//!
//! Evaluates a comparison predicate `f(args) ⟨op⟩ constant` over a result
//! object, iterating only until the bounds clear the constant — or until the
//! bounds fall below `minWidth` while still containing it, in which case the
//! function value is *considered equal to the constant* and the predicate is
//! resolved accordingly (paper, §3.2).

use crate::bounds::Bounds;
use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::Driver;
use crate::ops::score::{est_shrink, View};
use crate::ops::DEFAULT_ITERATION_LIMIT;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Comparison operator of a selection predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `f(args) > c`
    Gt,
    /// `f(args) >= c`
    Ge,
    /// `f(args) < c`
    Lt,
    /// `f(args) <= c`
    Le,
}

impl CmpOp {
    /// Evaluates the operator on an exact value.
    #[must_use]
    pub fn eval(&self, value: f64, constant: f64) -> bool {
        match self {
            CmpOp::Gt => value > constant,
            CmpOp::Ge => value >= constant,
            CmpOp::Lt => value < constant,
            CmpOp::Le => value <= constant,
        }
    }

    /// The predicate's outcome if the function value equals the constant —
    /// the resolution rule for bounds that reach `minWidth` still containing
    /// the constant.
    #[must_use]
    pub fn outcome_at_equality(&self) -> bool {
        matches!(self, CmpOp::Ge | CmpOp::Le)
    }

    /// Tries to decide the predicate from bounds alone: `Some(answer)` when
    /// every value in `bounds` gives the same answer, `None` otherwise.
    #[must_use]
    pub fn decide(&self, bounds: &Bounds, constant: f64) -> Option<bool> {
        match self {
            CmpOp::Gt => {
                if bounds.lo() > constant {
                    Some(true)
                } else if bounds.hi() <= constant {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Ge => {
                if bounds.lo() >= constant {
                    Some(true)
                } else if bounds.hi() < constant {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Lt => {
                if bounds.hi() < constant {
                    Some(true)
                } else if bounds.lo() >= constant {
                    Some(false)
                } else {
                    None
                }
            }
            CmpOp::Le => {
                if bounds.hi() <= constant {
                    Some(true)
                } else if bounds.lo() > constant {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }
}

impl std::fmt::Display for CmpOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
        };
        f.write_str(s)
    }
}

/// How a predicate was settled for one object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decided {
    /// Whether the object satisfies the predicate.
    pub satisfied: bool,
    /// True when the bounds still contained the constant at the `minWidth`
    /// stopping condition and the value was treated as equal to it.
    pub at_min_width: bool,
}

/// Classifies object `i` against `⟨op⟩ constant` under §3.2's two stopping
/// conditions: decided from its bounds, or — converged with the constant
/// still inside — resolved as equality; `None` while neither holds.
#[must_use]
pub fn decided<V: View + ?Sized>(v: &V, i: usize, op: CmpOp, constant: f64) -> Option<Decided> {
    match op.decide(&v.bounds(i), constant) {
        Some(satisfied) => Some(Decided {
            satisfied,
            at_min_width: false,
        }),
        None if v.converged(i) => Some(Decided {
            satisfied: op.outcome_at_equality(),
            at_min_width: true,
        }),
        None => None,
    }
}

/// The benefit of probing undecided object `i` once more: its estimated
/// shrink, plus its whole current width when the estimate already clears
/// the constant (the iteration would decide it).
#[must_use]
pub fn probe_benefit<V: View + ?Sized>(v: &V, i: usize, op: CmpOp, constant: f64) -> f64 {
    let (b, eb) = (v.bounds(i), v.est_bounds(i));
    let mut benefit = est_shrink(b, eb);
    if op.decide(&eb, constant).is_some() {
        benefit += b.width();
    }
    benefit
}

/// Outcome of evaluating a selection predicate over one result object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SelectionOutcome {
    /// Whether the tuple satisfies the predicate.
    pub satisfied: bool,
    /// True when the answer was forced by the `minWidth` stopping condition
    /// (bounds still contained the constant; value treated as equal to it).
    pub decided_at_min_width: bool,
    /// Number of `iterate()` calls issued for this object.
    pub iterations: u64,
    /// The bounds at the moment the predicate was decided.
    pub final_bounds: Bounds,
}

/// Evaluates `obj ⟨op⟩ constant`, refining `obj` only as far as needed.
///
/// Equivalent to [`SelectionVao::evaluate`] with the default iteration
/// limit.
pub fn select<R: ResultObject>(
    obj: &mut R,
    op: CmpOp,
    constant: f64,
    meter: &mut WorkMeter,
) -> Result<SelectionOutcome, VaoError> {
    SelectionVao::new(op, constant)?.evaluate(obj, meter)
}

/// [`select`] with an [`ExecObserver`] receiving the execution trace:
/// operator start/end, plus one event per `iterate()` call carrying the
/// bounds before/after and the `estCPU`-vs-actual CPU comparison.
pub fn select_traced<R: ResultObject, O: ExecObserver>(
    obj: &mut R,
    op: CmpOp,
    constant: f64,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<SelectionOutcome, VaoError> {
    SelectionVao::new(op, constant)?.evaluate_traced(obj, meter, observer)
}

/// A reusable selection VAO: `f(args) ⟨op⟩ constant`.
#[derive(Clone, Copy, Debug)]
pub struct SelectionVao {
    op: CmpOp,
    constant: f64,
    iteration_limit: u64,
}

impl SelectionVao {
    /// Creates the operator, validating the constant.
    pub fn new(op: CmpOp, constant: f64) -> Result<Self, VaoError> {
        if !constant.is_finite() {
            return Err(VaoError::NonFiniteConstant { value: constant });
        }
        Ok(Self {
            op,
            constant,
            iteration_limit: DEFAULT_ITERATION_LIMIT,
        })
    }

    /// Overrides the defensive iteration limit.
    #[must_use]
    pub fn with_iteration_limit(mut self, limit: u64) -> Self {
        self.iteration_limit = limit;
        self
    }

    /// The comparison operator.
    #[must_use]
    pub fn op(&self) -> CmpOp {
        self.op
    }

    /// The selection constant.
    #[must_use]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Evaluates the predicate over `obj`, iterating until either the bounds
    /// no longer contain the constant or the bounds width falls below
    /// `minWidth` (§3.2's two stopping conditions).
    pub fn evaluate<R: ResultObject>(
        &self,
        obj: &mut R,
        meter: &mut WorkMeter,
    ) -> Result<SelectionOutcome, VaoError> {
        self.evaluate_traced(obj, meter, &mut NoopObserver)
    }

    /// [`SelectionVao::evaluate`] with an [`ExecObserver`] receiving the
    /// execution trace. The single result object is reported as object 0.
    pub fn evaluate_traced<R: ResultObject, O: ExecObserver>(
        &self,
        obj: &mut R,
        meter: &mut WorkMeter,
        observer: &mut O,
    ) -> Result<SelectionOutcome, VaoError> {
        let mut drive = Driver::begin(
            OperatorKind::Selection,
            1,
            self.iteration_limit,
            meter,
            observer,
        );
        let outcome = loop {
            if let Some(d) = decided(std::slice::from_ref(&*obj), 0, self.op, self.constant) {
                break d;
            }
            drive.step(obj, 0)?;
        };
        Ok(SelectionOutcome {
            satisfied: outcome.satisfied,
            decided_at_min_width: outcome.at_min_width,
            iterations: drive.finish(),
            final_bounds: obj.bounds(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    #[test]
    fn decide_gt_cases() {
        let c = 100.0;
        assert_eq!(CmpOp::Gt.decide(&Bounds::new(101.0, 104.0), c), Some(true));
        assert_eq!(CmpOp::Gt.decide(&Bounds::new(90.0, 99.0), c), Some(false));
        // hi == constant: value <= c everywhere, so Gt is decidedly false.
        assert_eq!(CmpOp::Gt.decide(&Bounds::new(90.0, 100.0), c), Some(false));
        // lo == constant with hi above: could be equal (false) or above (true).
        assert_eq!(CmpOp::Gt.decide(&Bounds::new(100.0, 104.0), c), None);
        assert_eq!(CmpOp::Gt.decide(&Bounds::new(98.0, 110.0), c), None);
    }

    #[test]
    fn decide_ge_lt_le_cases() {
        let c = 100.0;
        assert_eq!(CmpOp::Ge.decide(&Bounds::new(100.0, 104.0), c), Some(true));
        assert_eq!(CmpOp::Ge.decide(&Bounds::new(90.0, 99.9), c), Some(false));
        assert_eq!(CmpOp::Ge.decide(&Bounds::new(99.0, 100.0), c), None);

        assert_eq!(CmpOp::Lt.decide(&Bounds::new(90.0, 99.9), c), Some(true));
        assert_eq!(CmpOp::Lt.decide(&Bounds::new(100.0, 104.0), c), Some(false));
        assert_eq!(CmpOp::Lt.decide(&Bounds::new(99.0, 100.0), c), None);

        assert_eq!(CmpOp::Le.decide(&Bounds::new(90.0, 100.0), c), Some(true));
        assert_eq!(CmpOp::Le.decide(&Bounds::new(100.1, 104.0), c), Some(false));
        assert_eq!(CmpOp::Le.decide(&Bounds::new(99.0, 101.0), c), None);
    }

    #[test]
    fn paper_figure3_example() {
        // Figure 3: model(IR.rate, BD) > $100 with initial bounds [98, 110]
        // (undecided) refined by one iteration to [102, 107]: both bounds
        // above $100, predicate true, error still far above minWidth $.01.
        let mut obj = ScriptedObject::converging(
            &[
                (98.0, 110.0),
                (102.0, 107.0),
                (104.9, 105.1),
                (105.0, 105.005),
            ],
            100,
            0.01,
        );
        let mut meter = WorkMeter::new();
        let out = select(&mut obj, CmpOp::Gt, 100.0, &mut meter).unwrap();
        assert!(out.satisfied);
        assert!(!out.decided_at_min_width);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.final_bounds, Bounds::new(102.0, 107.0));
        // Only one refinement was paid for.
        assert_eq!(meter.breakdown().exec_iter, 100);
    }

    #[test]
    fn immediate_decision_costs_nothing() {
        let mut obj = ScriptedObject::converging(&[(101.0, 110.0), (105.0, 105.005)], 100, 0.01);
        let mut meter = WorkMeter::new();
        let out = select(&mut obj, CmpOp::Gt, 100.0, &mut meter).unwrap();
        assert!(out.satisfied);
        assert_eq!(out.iterations, 0);
        assert_eq!(meter.total(), 0);
    }

    #[test]
    fn min_width_resolution_treats_value_as_equal() {
        // Bounds converge to [99.999, 100.005] around the constant 100:
        // width 0.006 < minWidth 0.01, still contains 100.
        let script = [(90.0, 110.0), (99.0, 101.0), (99.999, 100.005)];
        let mut meter = WorkMeter::new();

        let mut obj = ScriptedObject::converging(&script, 10, 0.01);
        let out = select(&mut obj, CmpOp::Gt, 100.0, &mut meter).unwrap();
        assert!(!out.satisfied, "value == constant fails Gt");
        assert!(out.decided_at_min_width);
        assert_eq!(out.iterations, 2);

        let mut obj = ScriptedObject::converging(&script, 10, 0.01);
        let out = select(&mut obj, CmpOp::Ge, 100.0, &mut meter).unwrap();
        assert!(out.satisfied, "value == constant satisfies Ge");

        let mut obj = ScriptedObject::converging(&script, 10, 0.01);
        let out = select(&mut obj, CmpOp::Lt, 100.0, &mut meter).unwrap();
        assert!(!out.satisfied);

        let mut obj = ScriptedObject::converging(&script, 10, 0.01);
        let out = select(&mut obj, CmpOp::Le, 100.0, &mut meter).unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn stalled_object_reports_error_not_hang() {
        // Script ends undecided and unconverged; iterate() becomes a no-op.
        let mut obj = ScriptedObject::converging(&[(90.0, 110.0), (95.0, 105.0)], 10, 0.01);
        let mut meter = WorkMeter::new();
        let err = select(&mut obj, CmpOp::Gt, 100.0, &mut meter).unwrap_err();
        assert!(matches!(err, VaoError::IterationLimitExceeded { .. }));
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let script: Vec<(f64, f64)> = (0..100)
            .map(|i| (90.0 + 0.01 * i as f64, 110.0 - 0.01 * i as f64))
            .collect();
        let mut obj = ScriptedObject::converging(&script, 1, 0.0001);
        let mut meter = WorkMeter::new();
        let vao = SelectionVao::new(CmpOp::Gt, 100.0)
            .unwrap()
            .with_iteration_limit(5);
        let err = vao.evaluate(&mut obj, &mut meter).unwrap_err();
        assert_eq!(err, VaoError::IterationLimitExceeded { limit: 5 });
        assert_eq!(meter.iterations(), 5);
    }

    #[test]
    fn rejects_non_finite_constant() {
        assert!(SelectionVao::new(CmpOp::Gt, f64::NAN).is_err());
        assert!(SelectionVao::new(CmpOp::Lt, f64::INFINITY).is_err());
    }

    #[test]
    fn eval_and_equality_outcomes_agree_with_decide() {
        // decide() on a point interval must match eval() on the value.
        for op in [CmpOp::Gt, CmpOp::Ge, CmpOp::Lt, CmpOp::Le] {
            for v in [-1.0, 0.0, 1.0] {
                let d = op.decide(&Bounds::point(v), 0.0);
                assert_eq!(d, Some(op.eval(v, 0.0)), "op {op} v {v}");
            }
            assert_eq!(op.outcome_at_equality(), op.eval(0.0, 0.0));
        }
    }

    #[test]
    fn display_ops() {
        assert_eq!(CmpOp::Gt.to_string(), ">");
        assert_eq!(CmpOp::Le.to_string(), "<=");
    }
}
