//! The VAO cost model of §3.2.
//!
//! The paper decomposes the cost of the *i*-th iteration of a function call
//! into three components —
//!
//! ```text
//! cost_iter = get_state + exec_iter + store_state
//! ```
//!
//! — and, for operators that choose among several result objects, adds a
//! fourth `chooseIter` term for strategy overhead. All costs here are
//! *logical work units*: deterministic counts of elementary operations (one
//! PDE grid-cell update, one integrand evaluation, one state-word copy, one
//! candidate scored). Wall-clock time tracks work units closely because each
//! unit corresponds to O(1) floating-point work, but work units are exactly
//! reproducible and are what the test suite asserts on.

/// Logical work units (elementary operations).
pub type Work = u64;

/// Per-component accounting of work, mirroring §3.2's cost equation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkBreakdown {
    /// Work spent executing solver iterations (`exec_iter`).
    pub exec_iter: Work,
    /// Work spent loading result-object state (`get_state`).
    pub get_state: Work,
    /// Work spent saving result-object state (`store_state`).
    pub store_state: Work,
    /// Work spent by operators choosing which object to iterate
    /// (`chooseIter`).
    pub choose_iter: Work,
}

impl WorkBreakdown {
    /// Total work across all components.
    #[must_use]
    pub fn total(&self) -> Work {
        self.exec_iter + self.get_state + self.store_state + self.choose_iter
    }

    /// Component-wise difference `self - earlier`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via underflow) if `earlier` is not a
    /// snapshot taken before `self` on the same meter.
    #[must_use]
    pub fn since(&self, earlier: &WorkBreakdown) -> WorkBreakdown {
        WorkBreakdown {
            exec_iter: self.exec_iter - earlier.exec_iter,
            get_state: self.get_state - earlier.get_state,
            store_state: self.store_state - earlier.store_state,
            choose_iter: self.choose_iter - earlier.choose_iter,
        }
    }
}

impl std::ops::Add for WorkBreakdown {
    type Output = WorkBreakdown;

    fn add(self, rhs: WorkBreakdown) -> WorkBreakdown {
        WorkBreakdown {
            exec_iter: self.exec_iter + rhs.exec_iter,
            get_state: self.get_state + rhs.get_state,
            store_state: self.store_state + rhs.store_state,
            choose_iter: self.choose_iter + rhs.choose_iter,
        }
    }
}

impl std::ops::AddAssign for WorkBreakdown {
    fn add_assign(&mut self, rhs: WorkBreakdown) {
        *self = *self + rhs;
    }
}

/// Accumulates the work charged by result objects and operators.
///
/// A meter is threaded through every [`crate::ResultObject::iterate`] call
/// and every operator invocation, so a single meter captures the full cost
/// of evaluating a query — which is what the experiments compare between
/// VAOs and traditional operators.
#[derive(Clone, Debug, Default)]
pub struct WorkMeter {
    breakdown: WorkBreakdown,
    iterations: u64,
}

impl WorkMeter {
    /// A fresh meter with all counters at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges solver-execution work.
    pub fn charge_exec(&mut self, units: Work) {
        self.breakdown.exec_iter += units;
    }

    /// Charges state-load work.
    pub fn charge_get_state(&mut self, units: Work) {
        self.breakdown.get_state += units;
    }

    /// Charges state-store work.
    pub fn charge_store_state(&mut self, units: Work) {
        self.breakdown.store_state += units;
    }

    /// Charges operator strategy work (`chooseIter`).
    pub fn charge_choose(&mut self, units: Work) {
        self.breakdown.choose_iter += units;
    }

    /// Records that one `iterate()` call completed.
    pub fn count_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Number of `iterate()` calls recorded so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Current cumulative breakdown.
    #[must_use]
    pub fn breakdown(&self) -> WorkBreakdown {
        self.breakdown
    }

    /// Total work across all components.
    #[must_use]
    pub fn total(&self) -> Work {
        self.breakdown.total()
    }

    /// Snapshot for later differencing with [`WorkMeter::since`].
    #[must_use]
    pub fn snapshot(&self) -> WorkBreakdown {
        self.breakdown
    }

    /// Work charged since `snapshot` was taken.
    #[must_use]
    pub fn since(&self, snapshot: &WorkBreakdown) -> WorkBreakdown {
        self.breakdown.since(snapshot)
    }

    /// Merges another meter's counters into this one.
    ///
    /// Batched schedulers hand each worker thread a private scratch meter
    /// (a `&mut WorkMeter` cannot be shared across threads) and merge the
    /// scratch meters back after the batch joins. Work units are additive
    /// counters, so the merged totals are bit-identical to what serial
    /// execution of the same `iterate()` calls would have charged.
    pub fn absorb(&mut self, other: &WorkMeter) {
        self.breakdown += other.breakdown;
        self.iterations += other.iterations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_component() {
        let mut m = WorkMeter::new();
        m.charge_exec(100);
        m.charge_exec(50);
        m.charge_get_state(3);
        m.charge_store_state(4);
        m.charge_choose(7);
        let b = m.breakdown();
        assert_eq!(b.exec_iter, 150);
        assert_eq!(b.get_state, 3);
        assert_eq!(b.store_state, 4);
        assert_eq!(b.choose_iter, 7);
        assert_eq!(m.total(), 164);
    }

    #[test]
    fn snapshot_diff_isolates_a_phase() {
        let mut m = WorkMeter::new();
        m.charge_exec(10);
        let snap = m.snapshot();
        m.charge_exec(25);
        m.charge_choose(5);
        let d = m.since(&snap);
        assert_eq!(d.exec_iter, 25);
        assert_eq!(d.choose_iter, 5);
        assert_eq!(d.total(), 30);
        // Full total still includes the pre-snapshot work.
        assert_eq!(m.total(), 40);
    }

    #[test]
    fn iteration_counting() {
        let mut m = WorkMeter::new();
        assert_eq!(m.iterations(), 0);
        m.count_iteration();
        m.count_iteration();
        assert_eq!(m.iterations(), 2);
    }

    #[test]
    fn absorb_merges_meters() {
        let mut a = WorkMeter::new();
        a.charge_exec(5);
        a.count_iteration();
        let mut b = WorkMeter::new();
        b.charge_exec(7);
        b.charge_choose(2);
        b.count_iteration();
        a.absorb(&b);
        assert_eq!(a.total(), 14);
        assert_eq!(a.iterations(), 2);
    }

    #[test]
    fn breakdown_add() {
        let a = WorkBreakdown {
            exec_iter: 1,
            get_state: 2,
            store_state: 3,
            choose_iter: 4,
        };
        let b = WorkBreakdown {
            exec_iter: 10,
            get_state: 20,
            store_state: 30,
            choose_iter: 40,
        };
        let c = a + b;
        assert_eq!(c.exec_iter, 11);
        assert_eq!(c.get_state, 22);
        assert_eq!(c.store_state, 33);
        assert_eq!(c.choose_iter, 44);
        assert_eq!(c.total(), 110);
    }
}
