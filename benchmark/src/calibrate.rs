//! Speed normalisation: a fixed kernel timed beside the laps.
//!
//! The sandbox this runs on is a 2-vCPU microVM whose host does not report
//! steal time: when a neighbour is busy, *everything* — solver, demand
//! code, fsync — runs 10–25 % slower for minutes at a time, and two
//! invocations of identical code disagree by that much. Floors over laps
//! cannot see through a slowdown that lasts the whole invocation.
//!
//! So every lap also times this kernel (a Thomas-style sweep over two
//! L1-sized arrays: floating-point dependency chains plus streaming loads,
//! the solver's instruction mix, owned by the benchmark and never touched
//! by a change to the program) before every position and around set-up
//! and recovery. A timed section's *speed factor* is the second-smallest
//! of the four kernel samples nearest to it, over the kernel's nominal
//! duration, and the section's time is divided by it before floors are
//! taken. Times are therefore reported in milliseconds **at the speed
//! where the kernel takes `NOMINAL_S`** — on an undisturbed box that is
//! plain wall time.
//!
//! Why the second-smallest of four: the box flips between two speeds on a
//! scale of seconds, so the factor has to be local to the section; the
//! kernel's own samples only ever err upwards (a preemption), and one
//! inflated sample must not make its section look fast, because a floor
//! would then pick exactly that one. Replaying 120–150 recorded laps per
//! workload in blocks of 30, this brought the max − min spread of the
//! floor metrics from 10–17 % (raw wall time) to 1–4 % on the
//! single-threaded workloads and 6 % on `durable_tenants`.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's duration on the builder's sandbox at its quietest.
pub const NOMINAL_S: f64 = 400e-6;

const ROWS: usize = 2048;
const SWEEPS: usize = 24;

/// Runs the fixed kernel once and returns its wall seconds.
pub fn kernel() -> f64 {
    let mut diag = [0.0f64; ROWS];
    let mut rhs = [0.0f64; ROWS];
    let started = Instant::now();
    let mut carry = 1.0f64;
    for sweep in 0..SWEEPS {
        // Forward elimination then back substitution of a diagonally
        // dominant tridiagonal system, like one implicit time step.
        diag[0] = 4.0 + carry * 1e-3;
        rhs[0] = 1.0 + sweep as f64;
        for i in 1..ROWS {
            let m = 1.0 / diag[i - 1];
            diag[i] = 4.0 - m;
            rhs[i] = (i & 7) as f64 - m * rhs[i - 1];
        }
        let mut x = rhs[ROWS - 1] / diag[ROWS - 1];
        for i in (0..ROWS - 1).rev() {
            x = (rhs[i] - x) / diag[i];
        }
        carry = black_box(x);
    }
    black_box(carry);
    started.elapsed().as_secs_f64()
}

/// Second-smallest sample over the nominal duration (the smallest when
/// there is only one; 1 when there is none).
fn factor_of(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples {
        [] => 1.0,
        [only] => *only / NOMINAL_S,
        [_, second, ..] => *second / NOMINAL_S,
    }
}

/// Speed factor of position `k` of a lap whose `samples[k]` was taken
/// just before position `k` (and `samples[positions]` after the last):
/// from the two samples before and the two after. > 1 on a slowed box.
pub fn position_factor(samples: &[f64], k: usize) -> f64 {
    let from = k.saturating_sub(1).min(samples.len());
    let to = (k + 3).min(samples.len());
    factor_of(&mut samples[from..to].to_vec())
}

/// Kernel samples around one long timed section (set-up, recovery): two
/// before, two after.
pub struct Around([f64; 2]);

impl Around {
    pub fn start() -> Self {
        Self([kernel(), kernel()])
    }

    /// The section's speed factor.
    pub fn finish(self) -> f64 {
        let [a, b] = self.0;
        factor_of(&mut [a, b, kernel(), kernel()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_inflated_or_one_lucky_sample_does_not_set_the_factor() {
        let n = NOMINAL_S;
        assert_eq!(factor_of(&mut [n, n, n, n]), 1.0);
        assert_eq!(factor_of(&mut [n, 40.0 * n, n, n]), 1.0);
        assert_eq!(factor_of(&mut [1.2 * n, 1.2 * n, 1.2 * n, 1.2 * n]), 1.2);
        // A single fast sample on a slowed box is not believed.
        assert_eq!(factor_of(&mut [1.2 * n, n, 1.2 * n, 1.2 * n]), 1.2);
        assert_eq!(factor_of(&mut []), 1.0);
        assert_eq!(factor_of(&mut [1.1 * n]), 1.1);
    }

    #[test]
    fn a_position_uses_the_two_samples_on_either_side() {
        let n = NOMINAL_S;
        // Positions 0..=3; the box slows down from sample 3 on.
        let samples = [n, n, n, 1.3 * n, 1.3 * n];
        assert_eq!(position_factor(&samples, 0), 1.0); // samples 0..3
        assert_eq!(position_factor(&samples, 1), 1.0); // samples 0..4
        assert_eq!(position_factor(&samples, 2), 1.0); // samples 1..5: n n 1.3n 1.3n
        assert_eq!(position_factor(&samples, 3), 1.3); // samples 2..5: n 1.3n 1.3n
        assert_eq!(position_factor(&[], 0), 1.0);
    }

    #[test]
    fn kernel_does_measurable_work() {
        let t = kernel();
        assert!(t > 0.0 && t < 1.0, "{t}");
    }
}
