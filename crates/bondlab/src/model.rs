//! The Figure-4 pricing PDE, instantiated per bond.
//!
//! The paper's bond model (after Stanton \[28\]) prices a bond as `F(x, t)`
//! where `x` is the short interest rate and `t` runs from now (0) to
//! maturity (`t_mat`), satisfying
//!
//! ```text
//! ½σ²·F_xx + [κμ − (κ+q)x]·F_x + F_t − rF + C = 0,    F(x, t_mat) = 0,
//! ```
//!
//! with σ the rate volatility, κ the mean-reversion speed toward the
//! long-run level μ, q the market price of risk, `r = x` the discount rate,
//! and `C` the bond's continuous payment stream. The query is
//! `F(x_current, 0)`.

use va_numerics::pde::ParabolicPde;

use crate::bond::Bond;

/// Parameters of the single-factor short-rate process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShortRateModel {
    /// Rate volatility σ (absolute, per √year).
    pub sigma: f64,
    /// Mean-reversion speed κ.
    pub kappa: f64,
    /// Long-run rate level μ.
    pub mu: f64,
    /// Market price of risk q.
    pub q: f64,
    /// Lateral domain for the rate grid `[x_min, x_max]`; must comfortably
    /// contain every rate the experiments query.
    pub x_min: f64,
    /// Upper end of the rate grid.
    pub x_max: f64,
}

impl Default for ShortRateModel {
    /// Parameters in the ballpark of 1990s term-structure estimations:
    /// σ = 2 %/√yr, κ = 0.25/yr toward μ = 7 %, risk premium folded into q.
    fn default() -> Self {
        Self {
            sigma: 0.02,
            kappa: 0.25,
            mu: 0.07,
            q: 0.0,
            x_min: 0.0,
            x_max: 0.30,
        }
    }
}

/// One bond's pricing problem under a short-rate model, at a given current
/// rate — the `(IR.rate, BD)` argument pair of the paper's `model()` UDF.
#[derive(Clone, Copy, Debug)]
pub struct BondPde {
    /// The instrument.
    pub bond: Bond,
    /// The rate process.
    pub model: ShortRateModel,
    /// Current short rate (the query point).
    pub current_rate: f64,
}

impl BondPde {
    /// Creates the pricing problem.
    ///
    /// # Panics
    ///
    /// Panics if `current_rate` lies outside the model's rate grid.
    #[must_use]
    pub fn new(bond: Bond, model: ShortRateModel, current_rate: f64) -> Self {
        assert!(
            current_rate >= model.x_min && current_rate <= model.x_max,
            "current rate {current_rate} outside grid [{}, {}]",
            model.x_min,
            model.x_max
        );
        Self {
            bond,
            model,
            current_rate,
        }
    }
}

impl ParabolicPde for BondPde {
    fn domain(&self) -> (f64, f64) {
        (self.model.x_min, self.model.x_max)
    }

    fn horizon(&self) -> f64 {
        self.bond.years_to_maturity
    }

    fn diffusion(&self, _x: f64) -> f64 {
        0.5 * self.model.sigma * self.model.sigma
    }

    fn drift(&self, x: f64) -> f64 {
        self.model.kappa * self.model.mu - (self.model.kappa + self.model.q) * x
    }

    fn discount(&self, x: f64) -> f64 {
        x.max(0.0)
    }

    fn source(&self, _x: f64) -> f64 {
        self.bond.payment_rate()
    }

    fn terminal(&self, _x: f64) -> f64 {
        0.0
    }

    fn x_query(&self) -> f64 {
        self.current_rate
    }

    // Every coefficient, the source, the terminal condition and the domain
    // read only the bond and the model: the current rate is the query
    // point and nothing else, so a bond's column at a mesh serves every
    // rate.
    const QUERY_FREE_COLUMN: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use va_numerics::pde::{solve_on_mesh, SolverConfig};

    fn bond() -> Bond {
        Bond::new(0, 0.07, 29.5, 100.0)
    }

    #[test]
    fn drift_pulls_toward_long_run_mean() {
        let p = BondPde::new(bond(), ShortRateModel::default(), 0.0585);
        assert!(p.drift(0.02) > 0.0, "below mu: drift up");
        assert!(p.drift(0.12) < 0.0, "above mu: drift down");
        assert!(p.drift(0.07).abs() < 1e-12, "zero at mu when q = 0");
    }

    #[test]
    fn price_is_in_a_realistic_range() {
        let p = BondPde::new(bond(), ShortRateModel::default(), 0.0585);
        let sol = solve_on_mesh(&p, 64, 512, &SolverConfig::default()).unwrap();
        // A 7% 30-year amortizer with rates ~5.85% mean-reverting to 7%
        // should trade in the broad vicinity of par.
        assert!(
            (80.0..130.0).contains(&sol.value),
            "implausible price {}",
            sol.value
        );
    }

    #[test]
    fn price_decreases_with_current_rate() {
        let cfg = SolverConfig::default();
        let lo = solve_on_mesh(
            &BondPde::new(bond(), ShortRateModel::default(), 0.04),
            64,
            512,
            &cfg,
        )
        .unwrap()
        .value;
        let hi = solve_on_mesh(
            &BondPde::new(bond(), ShortRateModel::default(), 0.08),
            64,
            512,
            &cfg,
        )
        .unwrap()
        .value;
        assert!(lo > hi, "price(4%) = {lo} must exceed price(8%) = {hi}");
    }

    #[test]
    fn price_increases_with_coupon() {
        let cfg = SolverConfig::default();
        let model = ShortRateModel::default();
        let low_coupon = solve_on_mesh(
            &BondPde::new(Bond::new(0, 0.055, 29.5, 100.0), model, 0.0585),
            64,
            512,
            &cfg,
        )
        .unwrap()
        .value;
        let high_coupon = solve_on_mesh(
            &BondPde::new(Bond::new(1, 0.085, 29.5, 100.0), model, 0.0585),
            64,
            512,
            &cfg,
        )
        .unwrap()
        .value;
        assert!(high_coupon > low_coupon + 5.0);
    }

    #[test]
    fn zero_volatility_zero_reversion_matches_flat_discounting() {
        // With σ = 0 and κ = 0, rates stay at the current level and the PDE
        // price must converge to the closed-form flat-rate value.
        let model = ShortRateModel {
            sigma: 0.0,
            kappa: 0.0,
            mu: 0.07,
            q: 0.0,
            ..ShortRateModel::default()
        };
        let b = bond();
        let rate = 0.06;
        let p = BondPde::new(b, model, rate);
        let sol = solve_on_mesh(&p, 256, 2048, &SolverConfig::default()).unwrap();
        let exact = b.flat_rate_value(rate);
        assert!(
            (sol.value - exact).abs() < 0.15,
            "PDE {} vs closed form {exact}",
            sol.value
        );
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn rejects_rate_outside_grid() {
        let _ = BondPde::new(bond(), ShortRateModel::default(), 0.50);
    }
}
