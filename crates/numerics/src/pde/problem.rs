//! Problem definition for parabolic PDEs.

/// A parabolic PDE terminal-value problem
/// `a(x)·F_xx + b(x)·F_x + F_t − r(x)·F + c(x) = 0` on
/// `x ∈ [x_min, x_max]`, `t ∈ [0, T]`, with `F(x, T)` given, queried at
/// `F(x_query, 0)`.
///
/// This is the shape of the paper's Figure-4 bond PDE, where `x` is the
/// short interest rate and `t` runs from now (0) to the bond's maturity
/// (`T`): diffusion `a = σ²/2`, drift `b = κμ − (κ+q)x`, discounting
/// `r(x)`, and a coupon-payment source term `c`.
pub trait ParabolicPde {
    /// Spatial domain `[x_min, x_max]`. Must satisfy `x_min < x_max`.
    fn domain(&self) -> (f64, f64);

    /// Terminal time `T > 0` (e.g. years to maturity).
    fn horizon(&self) -> f64;

    /// Diffusion coefficient `a(x) ≥ 0` multiplying `F_xx`.
    fn diffusion(&self, x: f64) -> f64;

    /// Drift coefficient `b(x)` multiplying `F_x`.
    fn drift(&self, x: f64) -> f64;

    /// Discount rate `r(x)` multiplying `−F`.
    fn discount(&self, x: f64) -> f64;

    /// Source term `c(x)` (e.g. continuous coupon flow). Like the other
    /// coefficients it does not depend on `t`, so a solver evaluates it
    /// once per mesh column, not once per cell.
    fn source(&self, x: f64) -> f64;

    /// Terminal condition `F(x, T)`.
    fn terminal(&self, x: f64) -> f64;

    /// The spatial point at which the solution is wanted (must lie in the
    /// domain).
    fn x_query(&self) -> f64;

    /// Marks a problem type whose `t = 0` column on a mesh is
    /// *query-free*: between two instances that describe the same function
    /// (for a bond: the same bond and rate model at different current
    /// rates), [`x_query`](ParabolicPde::x_query) is the only method whose
    /// answer differs. The solver reads `x_query` only to interpolate the
    /// finished column, so such instances solve to the same column, bit
    /// for bit. Setting this promises that a column solved for one of them
    /// may serve another. Default `false`.
    const QUERY_FREE_COLUMN: bool = false;

    /// Validates the basic geometry. Implementations get this for free;
    /// solvers call it once before meshing.
    fn validate(&self) -> Result<(), String> {
        let (lo, hi) = self.domain();
        if !(lo.is_finite() && hi.is_finite() && lo < hi) {
            return Err(format!("invalid domain [{lo}, {hi}]"));
        }
        let t = self.horizon();
        if !(t.is_finite() && t > 0.0) {
            return Err(format!("invalid horizon {t}"));
        }
        let q = self.x_query();
        if !(q >= lo && q <= hi) {
            return Err(format!("query point {q} outside domain [{lo}, {hi}]"));
        }
        Ok(())
    }
}

/// A self-contained test problem with a known closed-form solution:
/// the pure-decay equation `F_t − r·F + c = 0` (no diffusion, no drift),
/// whose solution is
/// `F(x, t) = (terminal + c/r)·e^{−r(T−t)} − c/r + ... ` — concretely, with
/// constant coefficients, `F(x, 0) = terminal·e^{−rT} + (c/r)(1 − e^{−rT})`.
///
/// Because the solution is independent of `x` and smooth in `t`, the mesh
/// solver's spatial error is exactly zero and its temporal error is `O(Δt)`
/// — a sharp probe for both the solver and the error model.
#[derive(Clone, Copy, Debug)]
pub struct DecayProblem {
    /// Discount rate `r > 0`.
    pub rate: f64,
    /// Constant source `c`.
    pub coupon: f64,
    /// Terminal value `F(x, T)`.
    pub terminal_value: f64,
    /// Horizon `T`.
    pub horizon: f64,
}

impl DecayProblem {
    /// The exact value `F(x_query, 0)`.
    #[must_use]
    pub fn exact(&self) -> f64 {
        let decay = (-self.rate * self.horizon).exp();
        self.terminal_value * decay + (self.coupon / self.rate) * (1.0 - decay)
    }
}

impl ParabolicPde for DecayProblem {
    fn domain(&self) -> (f64, f64) {
        (0.0, 1.0)
    }

    fn horizon(&self) -> f64 {
        self.horizon
    }

    fn diffusion(&self, _x: f64) -> f64 {
        0.0
    }

    fn drift(&self, _x: f64) -> f64 {
        0.0
    }

    fn discount(&self, _x: f64) -> f64 {
        self.rate
    }

    fn source(&self, _x: f64) -> f64 {
        self.coupon
    }

    fn terminal(&self, _x: f64) -> f64 {
        self.terminal_value
    }

    fn x_query(&self) -> f64 {
        0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_problem_exact_value() {
        // r=0.05, c=5, terminal=0, T=10: F = 100*(1 - e^{-0.5}).
        let p = DecayProblem {
            rate: 0.05,
            coupon: 5.0,
            terminal_value: 0.0,
            horizon: 10.0,
        };
        let expected = 100.0 * (1.0 - (-0.5f64).exp());
        assert!((p.exact() - expected).abs() < 1e-12);
    }

    #[test]
    fn decay_problem_validates() {
        let p = DecayProblem {
            rate: 0.05,
            coupon: 5.0,
            terminal_value: 0.0,
            horizon: 10.0,
        };
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_geometry() {
        struct Bad;
        impl ParabolicPde for Bad {
            fn domain(&self) -> (f64, f64) {
                (1.0, 0.0)
            }
            fn horizon(&self) -> f64 {
                1.0
            }
            fn diffusion(&self, _: f64) -> f64 {
                0.0
            }
            fn drift(&self, _: f64) -> f64 {
                0.0
            }
            fn discount(&self, _: f64) -> f64 {
                0.0
            }
            fn source(&self, _: f64) -> f64 {
                0.0
            }
            fn terminal(&self, _: f64) -> f64 {
                0.0
            }
            fn x_query(&self) -> f64 {
                0.5
            }
        }
        assert!(Bad.validate().is_err());

        struct BadQuery;
        impl ParabolicPde for BadQuery {
            fn domain(&self) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn horizon(&self) -> f64 {
                1.0
            }
            fn diffusion(&self, _: f64) -> f64 {
                0.0
            }
            fn drift(&self, _: f64) -> f64 {
                0.0
            }
            fn discount(&self, _: f64) -> f64 {
                0.0
            }
            fn source(&self, _: f64) -> f64 {
                0.0
            }
            fn terminal(&self, _: f64) -> f64 {
                0.0
            }
            fn x_query(&self) -> f64 {
                2.0
            }
        }
        assert!(BadQuery.validate().is_err());
    }
}
