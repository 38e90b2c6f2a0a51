//! Generic result-object adapters.
//!
//! * [`Negated`] flips an object's bounds about zero — MIN runs MAX over
//!   negated objects (§5.1 notes MIN is symmetric to MAX).
//! * [`Shifted`] translates an object's bounds by a constant — the synthetic
//!   workload generator of §6 maps a real bond's result object onto a target
//!   result distribution by shifting.
//! * [`WarmStarted`] seeds a freshly invoked object with bounds a previous
//!   process converged to — the recovery path's way of re-admitting objects
//!   at their achieved accuracy instead of re-iterating from scratch.

use crate::batch::{BatchLane, GridShape};
use crate::bounds::Bounds;
use crate::cost::{Work, WorkMeter};
use crate::interface::ResultObject;

/// Recovered per-object state used to seed a [`WarmStarted`] adapter: the
/// bounds a previous run last reported for the object, whether it had
/// converged, and the work it had accumulated.
///
/// This is the core-side "warm start hook": the persistence layer stores
/// the bounds and converged flag of one of these per pool object per rate,
/// and a recovering server wraps its freshly invoked objects in
/// [`WarmStarted`] seeded from them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmStart {
    /// The bounds the previous run last reported.
    pub bounds: Bounds,
    /// Whether the previous run had reached the stopping condition.
    pub converged: bool,
    /// Work units the object had charged in the previous run, added to
    /// [`ResultObject::cumulative_cost`]. `va-server` seeds 0: its warm
    /// records keep only bounds and converged state, and nothing it
    /// schedules or reports reads an object's lifetime cost.
    pub prior_cost: Work,
}

/// Presents an inner result object with bounds reflected about zero.
///
/// If the inner object bounds a value `v` by `[L, H]`, the adapter bounds
/// `-v` by `[-H, -L]`. Iteration, costs and convergence pass straight
/// through, so a MAX over `Negated` objects performs exactly the iterations
/// a native MIN would.
pub struct Negated<R: ResultObject>(pub R);

impl<R: ResultObject> ResultObject for Negated<R> {
    fn bounds(&self) -> Bounds {
        self.0.bounds().negate()
    }

    fn min_width(&self) -> f64 {
        self.0.min_width()
    }

    fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
        self.0.iterate(meter).negate()
    }

    fn est_cpu(&self) -> Work {
        self.0.est_cpu()
    }

    fn est_bounds(&self) -> Bounds {
        self.0.est_bounds().negate()
    }

    fn converged(&self) -> bool {
        self.0.converged()
    }

    fn standalone_cost(&self) -> Work {
        self.0.standalone_cost()
    }

    fn cumulative_cost(&self) -> Work {
        self.0.cumulative_cost()
    }

    // Lane batching passes through: the lane protocol runs in the inner
    // object's frame, and dispatchers read post-commit bounds through the
    // adapter (which negates), so batched and scalar execution agree.
    fn batch_shape(&self) -> Option<GridShape> {
        self.0.batch_shape()
    }

    fn as_batch_lane(&mut self) -> Option<&mut dyn BatchLane> {
        self.0.as_batch_lane()
    }
}

/// Presents an inner result object with bounds translated by a constant.
///
/// §6 of the paper builds stress workloads by generating target values from
/// a chosen distribution and shifting each real bond's refinements by
/// `target − converged_real_value`; the shifted object costs exactly what
/// the real one costs while converging to the synthetic value.
pub struct Shifted<R: ResultObject> {
    inner: R,
    delta: f64,
}

impl<R: ResultObject> Shifted<R> {
    /// Wraps `inner`, translating all reported bounds by `delta`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is not finite.
    #[must_use]
    pub fn new(inner: R, delta: f64) -> Self {
        assert!(delta.is_finite(), "shift delta must be finite");
        Self { inner, delta }
    }

    /// The translation applied to the inner object's bounds.
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Consumes the adapter, returning the inner object.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: ResultObject> ResultObject for Shifted<R> {
    fn bounds(&self) -> Bounds {
        self.inner.bounds().shift(self.delta)
    }

    fn min_width(&self) -> f64 {
        self.inner.min_width()
    }

    fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
        self.inner.iterate(meter).shift(self.delta)
    }

    fn est_cpu(&self) -> Work {
        self.inner.est_cpu()
    }

    fn est_bounds(&self) -> Bounds {
        self.inner.est_bounds().shift(self.delta)
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }

    fn standalone_cost(&self) -> Work {
        self.inner.standalone_cost()
    }

    fn cumulative_cost(&self) -> Work {
        self.inner.cumulative_cost()
    }

    fn batch_shape(&self) -> Option<GridShape> {
        self.inner.batch_shape()
    }

    fn as_batch_lane(&mut self) -> Option<&mut dyn BatchLane> {
        self.inner.as_batch_lane()
    }
}

/// Presents a freshly invoked result object seeded with the bounds a
/// previous process converged to.
///
/// The seeding is deliberately asymmetric between the two bound families:
///
/// * **`est_bounds()`** — always intersected with the seed. Estimated
///   bounds only steer the §5 strategy (`estL`/`estH`); tightening them
///   with recovered knowledge makes the scheduler *plan* as if the work
///   were already done, without asserting anything unproven.
/// * **`bounds()`** — intersected with the seed **only when the seed had
///   converged**. A converged seed's interval is a finished fact: the
///   adapter reports it, reports [`converged`](ResultObject::converged),
///   estimates zero [`est_cpu`](ResultObject::est_cpu), and turns
///   `iterate()` into a free no-op, so schedulers skip the object exactly
///   as they skip natively converged objects. A *non-converged* seed must
///   not tighten the reported bounds: schedulers detect stalls by watching
///   `bounds()` move across `iterate()` calls, and a seed the inner solver
///   has not caught up to yet would mask that movement.
///
/// Work accounting: iterations on the inner object charge the meter
/// exactly as they would un-wrapped (warm starts save work by *skipping*
/// iterations, never by discounting them), while `cumulative_cost` adds
/// `prior_cost` so the object's lifetime cost spans the restart.
pub struct WarmStarted<R: ResultObject> {
    inner: R,
    seed: Bounds,
    seed_converged: bool,
    prior_cost: Work,
}

impl<R: ResultObject> WarmStarted<R> {
    /// Wraps `inner`, seeding it with recovered state.
    #[must_use]
    pub fn new(inner: R, warm: WarmStart) -> Self {
        Self {
            inner,
            seed: warm.bounds,
            seed_converged: warm.converged,
            prior_cost: warm.prior_cost,
        }
    }

    /// The seed bounds the adapter was built with.
    #[must_use]
    pub fn seed(&self) -> Bounds {
        self.seed
    }

    /// Consumes the adapter, returning the inner object.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn intersect_seed(&self, b: Bounds) -> Bounds {
        // Disjoint intervals can only arise from a seed that does not
        // belong to this object (caller bug) or broken persistence; fall
        // back to the inner object's own bounds, which are always sound.
        b.intersect(&self.seed).unwrap_or(b)
    }
}

impl<R: ResultObject> ResultObject for WarmStarted<R> {
    fn bounds(&self) -> Bounds {
        let inner = self.inner.bounds();
        if self.seed_converged {
            self.intersect_seed(inner)
        } else {
            inner
        }
    }

    fn min_width(&self) -> f64 {
        self.inner.min_width()
    }

    fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
        if self.seed_converged {
            // Already-final state: nothing to refine, nothing to charge.
            self.bounds()
        } else {
            self.inner.iterate(meter)
        }
    }

    fn est_cpu(&self) -> Work {
        if self.seed_converged {
            0
        } else {
            self.inner.est_cpu()
        }
    }

    fn est_bounds(&self) -> Bounds {
        self.intersect_seed(self.inner.est_bounds())
    }

    fn converged(&self) -> bool {
        self.seed_converged || self.inner.converged()
    }

    fn standalone_cost(&self) -> Work {
        self.inner.standalone_cost()
    }

    fn cumulative_cost(&self) -> Work {
        self.inner.cumulative_cost() + self.prior_cost
    }

    // A converged seed makes iterate() a free no-op, so the object must
    // never join a batch; a non-converged seed passes iteration straight
    // through to the inner solver, and its lane view with it.
    fn batch_shape(&self) -> Option<GridShape> {
        if self.seed_converged {
            None
        } else {
            self.inner.batch_shape()
        }
    }

    fn as_batch_lane(&mut self) -> Option<&mut dyn BatchLane> {
        if self.seed_converged {
            None
        } else {
            self.inner.as_batch_lane()
        }
    }
}

/// Boxed-object passthrough so `Box<dyn ResultObject>` (with or without
/// auto-trait markers such as `Send`) is itself a [`ResultObject`] —
/// operators can then be written once over `R: ResultObject` and used with
/// heterogeneous boxed objects.
impl<R: ResultObject + ?Sized> ResultObject for Box<R> {
    fn bounds(&self) -> Bounds {
        (**self).bounds()
    }

    fn min_width(&self) -> f64 {
        (**self).min_width()
    }

    fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
        (**self).iterate(meter)
    }

    fn est_cpu(&self) -> Work {
        (**self).est_cpu()
    }

    fn est_bounds(&self) -> Bounds {
        (**self).est_bounds()
    }

    fn converged(&self) -> bool {
        (**self).converged()
    }

    fn standalone_cost(&self) -> Work {
        (**self).standalone_cost()
    }

    fn cumulative_cost(&self) -> Work {
        (**self).cumulative_cost()
    }

    fn batch_shape(&self) -> Option<GridShape> {
        (**self).batch_shape()
    }

    fn as_batch_lane(&mut self) -> Option<&mut dyn BatchLane> {
        (**self).as_batch_lane()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    #[test]
    fn negated_flips_bounds_and_estimates() {
        let inner = ScriptedObject::converging(&[(1.0, 3.0), (2.0, 2.001)], 5, 0.01);
        let mut neg = Negated(inner);
        assert_eq!(neg.bounds(), Bounds::new(-3.0, -1.0));
        assert_eq!(neg.est_bounds(), Bounds::new(-2.001, -2.0));
        let mut m = WorkMeter::new();
        let b = neg.iterate(&mut m);
        assert_eq!(b, Bounds::new(-2.001, -2.0));
        assert!(neg.converged());
        assert_eq!(m.breakdown().exec_iter, 5);
    }

    #[test]
    fn double_negation_is_identity() {
        let inner = ScriptedObject::converging(&[(1.0, 3.0)], 5, 0.01);
        let twice = Negated(Negated(inner));
        assert_eq!(twice.bounds(), Bounds::new(1.0, 3.0));
    }

    #[test]
    fn shifted_translates_everything_but_costs() {
        let inner = ScriptedObject::converging(&[(100.0, 110.0), (104.0, 104.005)], 7, 0.01);
        let mut sh = Shifted::new(inner, -4.0);
        assert_eq!(sh.bounds(), Bounds::new(96.0, 106.0));
        assert_eq!(sh.est_bounds(), Bounds::new(100.0, 100.005));
        let mut m = WorkMeter::new();
        sh.iterate(&mut m);
        assert_eq!(sh.bounds(), Bounds::new(100.0, 100.005));
        assert!(sh.converged());
        // Costs are the inner object's, untouched by the shift.
        assert_eq!(m.breakdown().exec_iter, 7);
        assert_eq!(sh.cumulative_cost(), 7);
        assert_eq!(sh.standalone_cost(), 7);
    }

    #[test]
    fn boxed_dyn_object_implements_trait() {
        let mut obj: Box<dyn ResultObject> = Box::new(ScriptedObject::converging(
            &[(0.0, 2.0), (1.0, 1.001)],
            3,
            0.01,
        ));
        let mut m = WorkMeter::new();
        obj.iterate(&mut m);
        assert!(obj.converged());
        assert_eq!(obj.bounds(), Bounds::new(1.0, 1.001));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn shifted_rejects_nan_delta() {
        let inner = ScriptedObject::converging(&[(0.0, 1.0)], 1, 0.01);
        let _ = Shifted::new(inner, f64::NAN);
    }

    #[test]
    fn converged_seed_finishes_the_object_for_free() {
        // Fresh object with wide bounds; the previous run converged it.
        let inner = ScriptedObject::converging(&[(90.0, 110.0), (99.0, 101.0)], 5, 0.01);
        let mut warm = WarmStarted::new(
            inner,
            WarmStart {
                bounds: Bounds::new(100.0, 100.005),
                converged: true,
                prior_cost: 40,
            },
        );
        assert!(warm.converged());
        assert_eq!(warm.bounds(), Bounds::new(100.0, 100.005));
        assert_eq!(warm.est_bounds(), Bounds::new(100.0, 100.005));
        assert_eq!(warm.est_cpu(), 0);
        assert_eq!(warm.seed(), Bounds::new(100.0, 100.005));
        // iterate() is a free no-op: no charge, no iteration counted.
        let mut m = WorkMeter::new();
        let b = warm.iterate(&mut m);
        assert_eq!(b, Bounds::new(100.0, 100.005));
        assert_eq!(m.total(), 0);
        assert_eq!(m.iterations(), 0);
        // Lifetime cost spans the restart: nothing new, prior carried.
        assert_eq!(warm.cumulative_cost(), 40);
    }

    #[test]
    fn non_converged_seed_steers_estimates_but_not_bounds() {
        let inner =
            ScriptedObject::converging(&[(90.0, 110.0), (95.0, 105.0), (99.0, 99.005)], 5, 0.01);
        let mut warm = WarmStarted::new(
            inner,
            WarmStart {
                bounds: Bounds::new(96.0, 104.0),
                converged: false,
                prior_cost: 10,
            },
        );
        // Reported bounds stay the inner object's own (stall detection
        // watches these move), while planning estimates tighten: the inner
        // estimate (95, 105) intersects the seed down to (96, 104).
        assert_eq!(warm.bounds(), Bounds::new(90.0, 110.0));
        assert_eq!(warm.est_bounds(), Bounds::new(96.0, 104.0));
        assert!(!warm.converged());
        assert!(warm.est_cpu() > 0);
        // Iteration passes through to the inner solver and charges fully.
        let mut m = WorkMeter::new();
        let b = warm.iterate(&mut m);
        assert_eq!(b, Bounds::new(95.0, 105.0));
        assert_eq!(m.breakdown().exec_iter, 5);
        assert_eq!(m.iterations(), 1);
        let b = warm.iterate(&mut m);
        assert_eq!(b, Bounds::new(99.0, 99.005));
        assert!(warm.converged(), "inner convergence shows through");
        assert_eq!(warm.cumulative_cost(), 10 + 10);
        assert_eq!(warm.min_width(), 0.01);
        assert_eq!(warm.into_inner().bounds(), Bounds::new(99.0, 99.005));
    }

    #[test]
    fn disjoint_seed_falls_back_to_inner_bounds() {
        let inner = ScriptedObject::converging(&[(0.0, 1.0)], 1, 0.01);
        let warm = WarmStarted::new(
            inner,
            WarmStart {
                bounds: Bounds::new(5.0, 6.0),
                converged: true,
                prior_cost: 0,
            },
        );
        assert_eq!(warm.bounds(), Bounds::new(0.0, 1.0));
        assert_eq!(warm.est_bounds(), Bounds::new(0.0, 1.0));
    }
}
