//! The bond model as a variable-accuracy UDF.
//!
//! [`BondPricer`] is the paper's `model(IR.rate, BD)` function: given a
//! current interest rate and a bond, it begins a PDE solve and hands back a
//! result object whose bounds tighten on demand. `minWidth` defaults to
//! \$0.01 — "since prices can only be accurate to \$.01 anyway" (§1.2).

use va_numerics::pde::{PdeResultObject, PdeVaoConfig, TrioColumns};
use vao::cost::WorkMeter;
use vao::interface::{ResultObject, VariableAccuracyFn};

use crate::bond::Bond;
use crate::model::{BondPde, ShortRateModel};

/// Prices bonds through the VAO interface.
#[derive(Clone, Copy, Debug)]
pub struct BondPricer {
    /// The short-rate process shared by every pricing call.
    pub model: ShortRateModel,
    /// Result-object construction parameters (initial mesh, `minWidth`,
    /// safety factor).
    pub vao: PdeVaoConfig,
}

impl Default for BondPricer {
    fn default() -> Self {
        Self {
            model: ShortRateModel::default(),
            vao: PdeVaoConfig {
                min_width: 0.01, // prices are meaningful to the cent
                ..PdeVaoConfig::default()
            },
        }
    }
}

impl BondPricer {
    /// Creates a pricer with explicit model and VAO configuration.
    #[must_use]
    pub fn new(model: ShortRateModel, vao: PdeVaoConfig) -> Self {
        Self { model, vao }
    }

    /// Begins pricing `bond` at `rate`, returning the concrete result
    /// object type (useful when static dispatch matters).
    ///
    /// # Panics
    ///
    /// Panics if the rate is outside the model grid or the initial coarse
    /// solve fails — both indicate misconfiguration, not data conditions.
    #[must_use]
    pub fn price(&self, bond: Bond, rate: f64, meter: &mut WorkMeter) -> PdeResultObject<BondPde> {
        let problem = BondPde::new(bond, self.model, rate);
        PdeResultObject::new(problem, self.vao, meter).expect(INITIAL_SOLVE_FAILED)
    }

    /// [`BondPricer::price`] for every bond of a relation at once, in order:
    /// the coarse trios run as lanes of shared lockstep solves
    /// ([`PdeResultObject::new_many`]), and each object and every meter
    /// charge is bit-identical to pricing the bonds one by one.
    ///
    /// # Panics
    ///
    /// As [`BondPricer::price`], for any bond.
    #[must_use]
    pub fn price_many(
        &self,
        bonds: &[Bond],
        rate: f64,
        meter: &mut WorkMeter,
    ) -> Vec<PdeResultObject<BondPde>> {
        self.price_many_with(bonds, rate, None, meter)
    }

    /// [`BondPricer::price_many`] through kept trio columns, by bond
    /// position in `bonds` ([`PdeResultObject::new_many_with`]): a held
    /// column is committed instead of solved, a solved one is lent to
    /// `columns`, and each object and every meter charge is still
    /// bit-identical to pricing the bonds one by one. A bond's column does
    /// not depend on the rate, so columns kept at one rate serve another.
    ///
    /// # Panics
    ///
    /// As [`BondPricer::price`], for any bond.
    #[must_use]
    pub fn price_many_with(
        &self,
        bonds: &[Bond],
        rate: f64,
        columns: Option<&mut dyn TrioColumns>,
        meter: &mut WorkMeter,
    ) -> Vec<PdeResultObject<BondPde>> {
        let problems = bonds
            .iter()
            .map(|&bond| BondPde::new(bond, self.model, rate));
        PdeResultObject::new_many_with(problems, self.vao, columns, meter)
            .into_iter()
            .map(|slot| slot.expect(INITIAL_SOLVE_FAILED))
            .collect()
    }
}

const INITIAL_SOLVE_FAILED: &str = "bond PDE initial solve failed: misconfigured model or mesh";

/// Arguments to the pricing UDF: the streaming rate and the bond tuple.
pub type PricingArgs = (f64, Bond);

impl VariableAccuracyFn<PricingArgs> for BondPricer {
    fn invoke(&self, args: &PricingArgs, meter: &mut WorkMeter) -> Box<dyn ResultObject + Send> {
        let (rate, bond) = *args;
        Box::new(self.price(bond, rate, meter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vao::ops::selection::{select, CmpOp};
    use vao::ops::traditional::calibrate;

    fn pricer() -> BondPricer {
        BondPricer::default()
    }

    fn bond() -> Bond {
        Bond::new(0, 0.07, 29.5, 100.0)
    }

    #[test]
    fn initial_object_is_coarse_but_cheap() {
        let mut meter = WorkMeter::new();
        let obj = pricer().price(bond(), 0.0585, &mut meter);
        assert!(!obj.converged());
        assert!(obj.bounds().width() > 0.01, "initial bounds are coarse");
        // The initial trio costs three small solves, far below one fine one.
        assert!(
            meter.total() < 1000,
            "initial work {} too high",
            meter.total()
        );
    }

    #[test]
    fn converges_to_cent_accuracy() {
        let mut meter = WorkMeter::new();
        let mut obj = pricer().price(bond(), 0.0585, &mut meter);
        let spec = calibrate(&mut obj, &mut meter).unwrap();
        assert!(spec.final_width < 0.01);
        assert!((80.0..130.0).contains(&spec.value), "price {}", spec.value);
    }

    #[test]
    fn converged_price_is_stable_across_refinement_paths() {
        // Convergence from two different initial meshes must agree to
        // within a cent or two (both bound the same true value).
        let mut m1 = WorkMeter::new();
        let mut coarse = pricer().price(bond(), 0.0585, &mut m1);
        let v1 = calibrate(&mut coarse, &mut m1).unwrap().value;

        let finer_start = BondPricer {
            vao: PdeVaoConfig {
                initial_nx: 16,
                initial_nt: 8,
                ..pricer().vao
            },
            ..pricer()
        };
        let mut m2 = WorkMeter::new();
        let mut fine = finer_start.price(bond(), 0.0585, &mut m2);
        let v2 = calibrate(&mut fine, &mut m2).unwrap().value;
        assert!((v1 - v2).abs() < 0.02, "{v1} vs {v2}");
    }

    #[test]
    fn selection_decides_far_from_full_accuracy() {
        // A bond comfortably above $95: the predicate resolves in a few
        // refinements at a fraction of the convergence work.
        let mut sel_meter = WorkMeter::new();
        let mut obj = pricer().price(bond(), 0.0585, &mut sel_meter);
        let out = select(&mut obj, CmpOp::Gt, 5.0, &mut sel_meter).unwrap();
        assert!(out.satisfied);
        let selection_work = sel_meter.total();

        let mut cal_meter = WorkMeter::new();
        let mut obj2 = pricer().price(bond(), 0.0585, &mut cal_meter);
        calibrate(&mut obj2, &mut cal_meter).unwrap();
        let full_work = cal_meter.total();

        assert!(
            selection_work * 10 < full_work,
            "selection {selection_work} vs full {full_work}"
        );
    }

    #[test]
    fn udf_interface_returns_boxed_objects() {
        let mut meter = WorkMeter::new();
        let p = pricer();
        let obj = p.invoke(&(0.0585, bond()), &mut meter);
        assert!(obj.bounds().lo() < obj.bounds().hi());
        assert_eq!(obj.min_width(), 0.01);
    }

    #[test]
    fn prices_respond_to_rate_moves() {
        let mut meter = WorkMeter::new();
        let p = pricer();
        let mut lo = p.price(bond(), 0.05, &mut meter);
        let mut hi = p.price(bond(), 0.07, &mut meter);
        let v_lo = calibrate(&mut lo, &mut meter).unwrap().value;
        let v_hi = calibrate(&mut hi, &mut meter).unwrap().value;
        assert!(v_lo > v_hi, "price(5%) {v_lo} vs price(7%) {v_hi}");
    }
}
