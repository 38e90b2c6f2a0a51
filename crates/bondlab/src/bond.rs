//! The fixed-income instrument being priced.

/// An MBS-style amortizing bond (the paper's data set: Freddie Mac Gold PC
/// 30-year mortgage-backed securities issued during 1993).
///
/// The instrument pays a continuous level cash-flow stream that fully
/// amortizes the \$100 face value by maturity — the continuous-time
/// idealization of a level-pay mortgage pool — so its terminal value is 0,
/// which is the boundary condition §4.1 uses ("the value of a bond is 0 at
/// maturity").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bond {
    /// Stable identifier within its universe.
    pub id: u32,
    /// Net pass-through coupon rate (annual, continuous compounding), e.g.
    /// `0.075` for 7.5 %.
    pub coupon: f64,
    /// Years remaining to maturity at the pricing date.
    pub years_to_maturity: f64,
    /// Face value (the paper's prices are per \$100 face).
    pub face: f64,
}

/// Smallest coupon a bond may carry. `1 − e^{−c·T}` in
/// [`Bond::payment_rate`] loses digits as `c·T` shrinks, and once `c·T`
/// falls under `2⁻⁵³` it rounds to zero and the price to NaN.
pub const MIN_COUPON: f64 = 1e-4;
/// Shortest maturity a bond may have, in years: one day.
pub const MIN_MATURITY: f64 = 1.0 / 365.0;
/// Longest maturity a bond may have, in years.
pub const MAX_MATURITY: f64 = 100.0;
/// Largest face value a bond may have.
pub const MAX_FACE: f64 = 1e9;

impl Bond {
    /// Creates a bond, validating its economics: the one definition of
    /// what a priceable bond is, for wire input and journaled records.
    ///
    /// The box is the one the pricer is finite on: coupon in
    /// `[MIN_COUPON, 1)`, maturity in `[MIN_MATURITY, MAX_MATURITY]` years
    /// and face in `(0, MAX_FACE]`. Every generated universe lies inside it.
    ///
    /// # Errors
    ///
    /// A non-finite or out-of-box coupon, maturity or face value, named in
    /// the message.
    pub fn try_new(
        id: u32,
        coupon: f64,
        years_to_maturity: f64,
        face: f64,
    ) -> Result<Self, String> {
        // `{:?}` keeps a hostile 1e-300 or 1e308 to a few characters.
        if !(MIN_COUPON..1.0).contains(&coupon) {
            return Err(format!(
                "coupon must be a rate in [{MIN_COUPON}, 1), got {coupon:?}"
            ));
        }
        if !(MIN_MATURITY..=MAX_MATURITY).contains(&years_to_maturity) {
            return Err(format!(
                "maturity must be in [1/365, {MAX_MATURITY}] years, got {years_to_maturity:?}"
            ));
        }
        if !(face > 0.0 && face <= MAX_FACE) {
            return Err(format!("face must be in (0, {MAX_FACE:e}], got {face:?}"));
        }
        Ok(Self {
            id,
            coupon,
            years_to_maturity,
            face,
        })
    }

    /// [`Bond::try_new`] for generators and tests, where bad values are
    /// programmer errors.
    ///
    /// # Panics
    ///
    /// Panics with [`Bond::try_new`]'s message.
    #[must_use]
    pub fn new(id: u32, coupon: f64, years_to_maturity: f64, face: f64) -> Self {
        Self::try_new(id, coupon, years_to_maturity, face).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The continuous level payment rate (per year) that fully amortizes
    /// the face value over the remaining term at the coupon rate:
    /// `p = face · c / (1 − e^{−c·T})`.
    ///
    /// This is the constant source term `C` of the pricing PDE.
    #[must_use]
    pub fn payment_rate(&self) -> f64 {
        let c = self.coupon;
        let t = self.years_to_maturity;
        self.face * c / (1.0 - (-c * t).exp())
    }

    /// Present value of the payment stream discounted at a flat continuous
    /// rate `r` — a closed-form sanity reference for the PDE model in the
    /// zero-volatility, zero-mean-reversion limit:
    /// `PV = p · (1 − e^{−rT}) / r`.
    #[must_use]
    pub fn flat_rate_value(&self, r: f64) -> f64 {
        let p = self.payment_rate();
        let t = self.years_to_maturity;
        if r.abs() < 1e-12 {
            return p * t;
        }
        p * (1.0 - (-r * t).exp()) / r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payment_amortizes_face_at_coupon_rate() {
        // Discounting the payment stream at the coupon rate must recover
        // the face value exactly (definition of the level payment).
        let b = Bond::new(0, 0.075, 30.0, 100.0);
        let pv = b.flat_rate_value(b.coupon);
        assert!((pv - 100.0).abs() < 1e-9, "{pv}");
    }

    #[test]
    fn prices_move_inversely_with_rates() {
        let b = Bond::new(0, 0.07, 29.5, 100.0);
        let low = b.flat_rate_value(0.05);
        let par = b.flat_rate_value(0.07);
        let high = b.flat_rate_value(0.09);
        assert!(low > par && par > high);
        assert!((par - 100.0).abs() < 1e-9);
        // Realistic magnitudes: a 200bp move is worth roughly 10-25 points
        // on a 30-year amortizing bond.
        assert!(low - par > 5.0 && low - par < 30.0, "{}", low - par);
    }

    #[test]
    fn payment_rate_exceeds_simple_interest() {
        // Amortizing principal means the payment is above pure interest.
        let b = Bond::new(0, 0.06, 30.0, 100.0);
        assert!(b.payment_rate() > 6.0);
        assert!(b.payment_rate() < 10.0);
    }

    #[test]
    fn zero_rate_limit_is_total_payments() {
        let b = Bond::new(0, 0.08, 25.0, 100.0);
        let pv0 = b.flat_rate_value(0.0);
        assert!((pv0 - b.payment_rate() * 25.0).abs() < 1e-9);
    }

    #[test]
    fn try_new_mirrors_the_constructor_contract() {
        assert!(Bond::try_new(0, 0.07, 10.0, 100.0).is_ok());
        assert!(Bond::try_new(0, 0.0, 10.0, 100.0).is_err());
        assert!(Bond::try_new(0, 1.0, 10.0, 100.0).is_err());
        assert!(Bond::try_new(0, f64::NAN, 10.0, 100.0).is_err());
        assert!(Bond::try_new(0, 0.07, 0.0, 100.0).is_err());
        assert!(Bond::try_new(0, 0.07, f64::INFINITY, 100.0).is_err());
        assert!(Bond::try_new(0, 0.07, 10.0, 0.0).is_err());
        assert!(Bond::try_new(0, 0.07, 10.0, -5.0).is_err());
    }

    #[test]
    fn try_new_refuses_bonds_outside_the_priceable_box() {
        // Each of these once priced to NaN bounds.
        assert!(Bond::try_new(0, 1e-300, 10.0, 100.0).is_err());
        assert!(Bond::try_new(0, 0.05, 1e-300, 100.0).is_err());
        assert!(Bond::try_new(0, 0.05, 10.0, 1e308).is_err());
        // The box's own edges are in it; a step past each is not.
        assert!(Bond::try_new(0, MIN_COUPON, MIN_MATURITY, MAX_FACE).is_ok());
        assert!(Bond::try_new(0, 0.9999, MAX_MATURITY, f64::MIN_POSITIVE).is_ok());
        assert!(Bond::try_new(0, MIN_COUPON * 0.99, 10.0, 100.0).is_err());
        assert!(Bond::try_new(0, 0.05, MIN_MATURITY * 0.99, 100.0).is_err());
        assert!(Bond::try_new(0, 0.05, MAX_MATURITY * 1.01, 100.0).is_err());
        assert!(Bond::try_new(0, 0.05, 10.0, MAX_FACE * 1.01).is_err());
    }

    #[test]
    #[should_panic(expected = "coupon")]
    fn rejects_bad_coupon() {
        let _ = Bond::new(0, 0.0, 30.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "maturity")]
    fn rejects_bad_maturity() {
        let _ = Bond::new(0, 0.07, -1.0, 100.0);
    }
}
