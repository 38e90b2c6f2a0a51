//! Per-tick work accounting and its run-level fold.
//!
//! [`TickStats`] is what one rate tick cost: §3.2's work components, the
//! `iterate()` calls, and the wall time. [`RunSummary`] keeps only the
//! integer counters, summed, so a run of any length is folded in constant
//! memory and the fold is exact in any order.

use std::time::Duration;

use vao::cost::WorkBreakdown;

/// What one rate tick cost to process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TickStats {
    /// The rate processed.
    pub rate: f64,
    /// Logical work, by component (§3.2's cost decomposition).
    pub work: WorkBreakdown,
    /// Wall-clock time for the tick.
    pub wall: Duration,
    /// Total `iterate()` calls across all result objects.
    pub iterations: u64,
}

impl TickStats {
    /// Total logical work for the tick.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        self.work.total()
    }
}

/// The running fold of a run's ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Ticks processed.
    pub ticks: u64,
    /// Summed work across ticks.
    pub work: WorkBreakdown,
    /// Summed iterations.
    pub iterations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_work_sums_every_component() {
        let t = TickStats {
            rate: 0.05,
            work: WorkBreakdown {
                exec_iter: 100,
                get_state: 1,
                store_state: 1,
                choose_iter: 2,
            },
            wall: Duration::from_millis(3),
            iterations: 5,
        };
        assert_eq!(t.total_work(), 104);
    }
}
