//! Shared experimental setup: the bond universe, the pricer, and the
//! one-time calibration pass that every §6 experiment builds on.

use std::time::{Duration, Instant};

use bondlab::model::BondPde;
use bondlab::{BondPricer, BondUniverse, RateSeries};
use va_numerics::pde::{solve_on_mesh, PdeResultObject};
use vao::adapters::Shifted;
use vao::cost::WorkMeter;
use vao::ops::traditional::{calibrate, BlackBoxSpec};

use va_workloads::SyntheticMapping;

/// A prepared experimental environment.
///
/// Construction converges every bond once at the experiment rate (the
/// paper's methodology: the black-box baseline "knows a priori the step
/// sizes needed", and the synthetic workloads need each bond's converged
/// value for the shift mapping).
pub struct Lab {
    /// The bond universe.
    pub universe: BondUniverse,
    /// The pricing UDF.
    pub pricer: BondPricer,
    /// The experiment rate (paper: the opening rate for Jan 3, 1994).
    pub rate: f64,
    /// Per-bond converged model values.
    pub converged: Vec<f64>,
    /// Per-bond black-box execution specs at `rate`.
    pub specs: Vec<BlackBoxSpec>,
    /// Per-bond mesh resolutions `(n_t, n_x)` at convergence — the "step
    /// sizes needed" that the paper's black-box baseline replays.
    pub final_meshes: Vec<(u32, u32)>,
}

impl Lab {
    /// Builds a lab over `n` bonds at the default seed and opening rate.
    #[must_use]
    pub fn new(n: usize, seed: u64) -> Self {
        let universe = BondUniverse::generate(n, seed);
        let pricer = BondPricer::default();
        let rate = RateSeries::january_1994().opening_rate();
        let mut off_clock = WorkMeter::new();
        let mut converged = Vec::with_capacity(n);
        let mut specs = Vec::with_capacity(n);
        let mut final_meshes = Vec::with_capacity(n);
        for mut obj in pricer.price_many(universe.bonds(), rate, &mut off_clock) {
            let spec = calibrate(&mut obj, &mut off_clock).expect("bond model must converge");
            converged.push(spec.value);
            specs.push(spec);
            final_meshes.push(obj.mesh());
        }
        Self {
            universe,
            pricer,
            rate,
            converged,
            specs,
            final_meshes,
        }
    }

    /// The paper-scale lab: 500 bonds.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self::new(BondUniverse::PAPER_SIZE, 1994)
    }

    /// Number of bonds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.universe.len()
    }

    /// Whether the lab is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.universe.is_empty()
    }

    /// Fresh result objects for every bond (work charged to `meter`).
    #[must_use]
    pub fn objects(&self, meter: &mut WorkMeter) -> Vec<PdeResultObject<BondPde>> {
        self.pricer
            .price_many(self.universe.bonds(), self.rate, meter)
    }

    /// Fresh result objects shifted onto a synthetic distribution.
    #[must_use]
    pub fn synthetic_objects(
        &self,
        mapping: &SyntheticMapping,
        meter: &mut WorkMeter,
    ) -> Vec<Shifted<PdeResultObject<BondPde>>> {
        assert_eq!(mapping.len(), self.len(), "mapping/universe mismatch");
        self.objects(meter)
            .into_iter()
            .enumerate()
            .map(|(i, obj)| mapping.wrap(i, obj))
            .collect()
    }

    /// Black-box specs shifted onto a synthetic distribution: the work is
    /// each real bond's (shifting is free), the value is the synthetic one.
    #[must_use]
    pub fn synthetic_specs(&self, mapping: &SyntheticMapping) -> Vec<BlackBoxSpec> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| BlackBoxSpec {
                value: mapping.synthetic_value(i, self.converged[i]),
                ..*s
            })
            .collect()
    }

    /// Total black-box work for one traditional evaluation over all bonds —
    /// the paper's query-independent baseline runtime.
    #[must_use]
    pub fn traditional_work(&self) -> u64 {
        self.specs.iter().map(|s| s.work).sum()
    }

    /// *Actually executes* one traditional pass: re-solves each bond's PDE
    /// at its calibrated mesh (the paper's "run the PDE solvers with the
    /// corresponding step sizes"). Returns `(values, work, wall)` — this is
    /// the honest wall-clock baseline (`harness fig8` reports it), whereas
    /// [`Lab::traditional_work`] only replays the accounted work.
    #[must_use]
    pub fn traditional_execute(&self) -> (Vec<f64>, u64, Duration) {
        let start = Instant::now();
        let mut work = 0u64;
        let mut values = Vec::with_capacity(self.len());
        for (&bond, &(nt, nx)) in self.universe.bonds().iter().zip(&self.final_meshes) {
            let problem = BondPde::new(bond, self.pricer.model, self.rate);
            let sol = solve_on_mesh(&problem, nx, nt, &self.pricer.vao.solver)
                .expect("calibrated mesh must solve");
            values.push(sol.value);
            work += sol.work;
        }
        (values, work, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vao::interface::ResultObject;

    #[test]
    fn lab_calibrates_every_bond() {
        let lab = Lab::new(6, 7);
        assert_eq!(lab.len(), 6);
        assert!(!lab.is_empty());
        for (v, s) in lab.converged.iter().zip(&lab.specs) {
            assert!((80.0..130.0).contains(v), "price {v}");
            assert!(s.final_width < 0.01);
            assert!(s.work > 0);
        }
        assert!(lab.traditional_work() > 0);
    }

    #[test]
    fn objects_are_fresh_and_coarse() {
        let lab = Lab::new(3, 7);
        let mut meter = WorkMeter::new();
        let objs = lab.objects(&mut meter);
        assert_eq!(objs.len(), 3);
        for o in &objs {
            assert!(!o.converged());
        }
        // Creating coarse objects costs far less than one traditional pass.
        assert!(meter.total() * 10 < lab.traditional_work());
    }

    #[test]
    fn traditional_execute_reproduces_calibrated_values_and_work() {
        let lab = Lab::new(4, 7);
        let (values, work, wall) = lab.traditional_execute();
        assert_eq!(values.len(), 4);
        assert_eq!(work, lab.traditional_work(), "same meshes, same work");
        assert!(wall.as_nanos() > 0);
        for (v, spec) in values.iter().zip(&lab.specs) {
            // The calibrated spec value is the bounds midpoint; a raw solve
            // at the same mesh lands within the final error bounds' scale.
            assert!((v - spec.value).abs() < 0.02, "{v} vs {}", spec.value);
        }
    }

    #[test]
    fn synthetic_objects_converge_to_mapped_values() {
        use va_workloads::TargetDistribution;
        use vao::ops::traditional::calibrate;

        let lab = Lab::new(3, 7);
        let mapping = SyntheticMapping::generate(
            &lab.converged,
            TargetDistribution::Gaussian {
                mean: 100.0,
                std_dev: 0.0,
            },
            5,
        );
        let mut meter = WorkMeter::new();
        let mut objs = lab.synthetic_objects(&mapping, &mut meter);
        for obj in &mut objs {
            let spec = calibrate(obj, &mut meter).unwrap();
            assert!(
                (spec.value - 100.0).abs() < 0.02,
                "synthetic value {}",
                spec.value
            );
        }
        let specs = lab.synthetic_specs(&mapping);
        for (i, s) in specs.iter().enumerate() {
            assert!((s.value - 100.0).abs() < 0.02);
            assert_eq!(s.work, lab.specs[i].work, "shifted work is unchanged");
        }
    }
}
