//! Composite quadrature rules and the interval-halving ladder.

/// Composite trapezoid rule with `n ≥ 1` equal intervals.
///
/// Error is `O(h²)` overall (`O(h³)` per interval, as §4.3 notes).
pub fn composite_trapezoid(f: &dyn Fn(f64) -> f64, a: f64, b: f64, n: u32) -> f64 {
    assert!(n >= 1, "need at least one interval");
    let h = (b - a) / f64::from(n);
    let mut sum = 0.5 * (f(a) + f(b));
    for i in 1..n {
        sum += f(a + h * f64::from(i));
    }
    sum * h
}

/// Composite Simpson rule with an even `n ≥ 2` intervals. Error `O(h⁴)`.
pub fn composite_simpson(f: &dyn Fn(f64) -> f64, a: f64, b: f64, n: u32) -> f64 {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "Simpson needs an even interval count"
    );
    let h = (b - a) / f64::from(n);
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * f(a + h * f64::from(i));
    }
    sum * h / 3.0
}

/// The interval-halving trapezoid ladder: level `k` holds the composite
/// trapezoid estimate with `2^k` intervals, and advancing a level evaluates
/// only the `2^k` *new* midpoints — every previous evaluation is reused.
///
/// This is the refinement scheme of §4.3 ("subsequent iterations halve the
/// existing intervals"), and both the trapezoid- and Simpson-based result
/// objects are built on it (Simpson at level `k` is the Richardson
/// combination `(4·Tₖ − Tₖ₋₁)/3`).
pub struct TrapezoidLadder<F> {
    f: F,
    a: f64,
    b: f64,
    level: u32,
    current: f64,
    evals: u64,
}

impl<F: Fn(f64) -> f64> TrapezoidLadder<F> {
    /// Starts the ladder at level 0 (a single interval, 2 evaluations).
    pub fn new(f: F, a: f64, b: f64) -> Self {
        assert!(a.is_finite() && b.is_finite() && a < b, "bad interval");
        let current = 0.5 * (b - a) * (f(a) + f(b));
        Self {
            f,
            a,
            b,
            level: 0,
            current,
            evals: 2,
        }
    }

    /// Current level `k` (the estimate uses `2^k` intervals).
    #[must_use]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Current trapezoid estimate `Tₖ`.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.current
    }

    /// Total function evaluations so far (`2^k + 1`).
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.evals
    }

    /// Function evaluations the next [`TrapezoidLadder::advance`] will make.
    #[must_use]
    pub fn next_evaluations(&self) -> u64 {
        1u64 << self.level
    }

    /// Advances to level `k+1`, evaluating the new midpoints, and returns
    /// the new estimate.
    pub fn advance(&mut self) -> f64 {
        let n_new = 1u64 << self.level; // midpoints to add
        let h_new = (self.b - self.a) / (2.0 * n_new as f64);
        let mut mid_sum = 0.0;
        for i in 0..n_new {
            let x = self.a + h_new * (2.0 * i as f64 + 1.0);
            mid_sum += (self.f)(x);
        }
        self.current = 0.5 * self.current + h_new * mid_sum;
        self.level += 1;
        self.evals += n_new;
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trapezoid_exact_for_linear() {
        let f = |x: f64| 3.0 * x + 1.0;
        let v = composite_trapezoid(&f, 0.0, 2.0, 1);
        assert!((v - 8.0).abs() < 1e-12);
    }

    #[test]
    fn trapezoid_converges_quadratically() {
        let f = |x: f64| x.sin();
        let exact = 1.0 - (1.0f64).cos();
        let e1 = (composite_trapezoid(&f, 0.0, 1.0, 8) - exact).abs();
        let e2 = (composite_trapezoid(&f, 0.0, 1.0, 16) - exact).abs();
        let ratio = e1 / e2;
        assert!((3.5..4.5).contains(&ratio), "expected ~4, got {ratio}");
    }

    #[test]
    fn simpson_exact_for_cubics() {
        let f = |x: f64| x * x * x - 2.0 * x * x + 5.0;
        // ∫₀² = 4 - 16/3 + 10 = 8.666...
        let exact = 4.0 - 16.0 / 3.0 + 10.0;
        let v = composite_simpson(&f, 0.0, 2.0, 2);
        assert!((v - exact).abs() < 1e-12);
    }

    #[test]
    fn simpson_converges_quartically() {
        let f = |x: f64| (2.0 * x).exp();
        let exact = ((2.0f64).exp() * (2.0f64).exp() - 1.0) / 2.0; // ∫₀² e^{2x}
        let e1 = (composite_simpson(&f, 0.0, 2.0, 8) - exact).abs();
        let e2 = (composite_simpson(&f, 0.0, 2.0, 16) - exact).abs();
        let ratio = e1 / e2;
        assert!((12.0..20.0).contains(&ratio), "expected ~16, got {ratio}");
    }

    #[test]
    #[should_panic(expected = "even")]
    fn simpson_rejects_odd_n() {
        let _ = composite_simpson(&|x| x, 0.0, 1.0, 3);
    }

    #[test]
    fn ladder_matches_direct_composites() {
        let f = |x: f64| x.exp() * x.cos();
        let mut ladder = TrapezoidLadder::new(&f, 0.0, 2.0);
        for k in 1..=8 {
            let v = ladder.advance();
            let direct = composite_trapezoid(&f, 0.0, 2.0, 1 << k);
            assert!((v - direct).abs() < 1e-12, "level {k}: {v} vs {direct}");
        }
        assert_eq!(ladder.level(), 8);
        assert_eq!(ladder.evaluations(), (1 << 8) + 1);
    }

    #[test]
    fn ladder_eval_accounting() {
        let f = |x: f64| x;
        let mut ladder = TrapezoidLadder::new(&f, 0.0, 1.0);
        assert_eq!(ladder.evaluations(), 2);
        assert_eq!(ladder.next_evaluations(), 1);
        ladder.advance();
        assert_eq!(ladder.evaluations(), 3);
        assert_eq!(ladder.next_evaluations(), 2);
        ladder.advance();
        assert_eq!(ladder.evaluations(), 5);
    }
}
