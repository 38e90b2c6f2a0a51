//! `Bond::try_new` admits exactly the box the pricer is finite on: the
//! coarse trio of every bond drawn anywhere in it, at any rate on the model
//! grid, yields finite bounds, estimates and error model.

use bondlab::bond::{MAX_FACE, MAX_MATURITY, MIN_COUPON, MIN_MATURITY};
use bondlab::{Bond, BondPricer};
use proptest::prelude::*;
use vao::cost::WorkMeter;
use vao::interface::ResultObject;

/// Prices `bonds` at `rate` in one relation-wide call and checks every
/// object's trio came out finite.
fn assert_finite_trios(bonds: &[Bond], rate: f64) -> Result<(), TestCaseError> {
    let mut meter = WorkMeter::new();
    let objects = BondPricer::default().price_many(bonds, rate, &mut meter);
    prop_assert_eq!(objects.len(), bonds.len());
    for (bond, obj) in bonds.iter().zip(&objects) {
        let (b, est) = (obj.bounds(), obj.est_bounds());
        let model = obj.error_model();
        let words = [b.lo(), b.hi(), est.lo(), est.hi(), model.k1, model.k2];
        prop_assert!(
            words.iter().all(|w| w.is_finite()),
            "{bond:?} at {rate}: bounds {b}, est {est}, model {model:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coupon, maturity and face drawn log-uniformly across the box, so
    /// every decade of each is exercised; up to 80 bonds per call, so some
    /// calls span more than one lane group.
    #[test]
    fn coarse_trio_is_finite_everywhere_in_the_box(
        draws in prop::collection::vec(
            (-4.0f64..0.0, MIN_MATURITY.log10()..MAX_MATURITY.log10(), -6.0f64..MAX_FACE.log10()),
            1..80,
        ),
        rate in 0.0f64..0.3,
    ) {
        let bonds: Vec<Bond> = draws
            .iter()
            .enumerate()
            .map(|(i, &(c, t, f))| {
                // Clamped: `powf` may round a draw a hair past an edge.
                let coupon = 10f64.powf(c).max(MIN_COUPON);
                let maturity = 10f64.powf(t).clamp(MIN_MATURITY, MAX_MATURITY);
                let face = 10f64.powf(f).min(MAX_FACE);
                Bond::try_new(i as u32, coupon, maturity, face).expect("drawn inside the box")
            })
            .collect();
        assert_finite_trios(&bonds, rate)?;
    }
}

#[test]
fn coarse_trio_is_finite_at_the_corners_of_the_box() {
    let mut bonds = Vec::new();
    for coupon in [MIN_COUPON, 1.0 - f64::EPSILON] {
        for maturity in [MIN_MATURITY, MAX_MATURITY] {
            for face in [f64::MIN_POSITIVE, MAX_FACE] {
                let id = bonds.len() as u32;
                bonds.push(Bond::try_new(id, coupon, maturity, face).expect("a corner"));
            }
        }
    }
    for rate in [0.0, 0.0583, 0.3] {
        assert_finite_trios(&bonds, rate).expect("finite corners");
    }
}
