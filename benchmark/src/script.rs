//! `--seed` → the script of tick rates a workload replays.
//!
//! The program under test sees only the rates. A script is *stratified*:
//! the workload's rate band is cut into one stratum per distinct rate, the
//! seed picks a grid point inside each stratum and then the order the
//! rates are visited in. Every seed therefore covers the same band with
//! the same density — metrics are comparable across seeds — while no two
//! seeds tick the same numbers in the same order.

/// SplitMix64: small, seedable, and good enough to jitter and shuffle.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// How a workload's rates are laid out.
#[derive(Clone, Copy, Debug)]
pub struct ScriptShape {
    /// Lowest rate of the band, in grid units (see `units_per_one`).
    pub band_start: u64,
    /// Width of one stratum in grid units; the seed picks one of the
    /// `jitter` central grid points of each stratum.
    pub stratum: u64,
    /// Number of admissible grid points per stratum (≤ `stratum`).
    pub jitter: u64,
    /// Distinct rates (strata).
    pub distinct: usize,
    /// Passes over the distinct rates; each pass visits every rate once in
    /// a fresh seed-chosen order (positions = `distinct × passes`).
    pub passes: usize,
    /// Grid units per 1.0 of rate (`1e4` = basis points). Rates are
    /// `point / units_per_one`, so they print with few digits on the wire.
    pub units_per_one: f64,
}

impl ScriptShape {
    pub fn positions(&self) -> usize {
        self.distinct * self.passes
    }

    /// A rate below the band that no stratum can produce: the un-timed
    /// first tick of every lap runs at it, so no scripted position is
    /// pre-warmed by set-up.
    pub fn warmup_rate(&self) -> f64 {
        (self.band_start - self.stratum) as f64 / self.units_per_one
    }

    /// The scripted rates for `seed`, `positions()` long.
    pub fn rates(&self, seed: u64) -> Vec<f64> {
        assert!(self.jitter >= 1 && self.jitter <= self.stratum);
        let mut rng = Rng::new(seed);
        let inset = (self.stratum - self.jitter) / 2;
        let distinct: Vec<f64> = (0..self.distinct as u64)
            .map(|k| {
                let point = self.band_start + k * self.stratum + inset + rng.below(self.jitter);
                point as f64 / self.units_per_one
            })
            .collect();
        let mut script = Vec::with_capacity(self.positions());
        for _ in 0..self.passes {
            let mut pass = distinct.clone();
            rng.shuffle(&mut pass);
            script.extend(pass);
        }
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: ScriptShape = ScriptShape {
        band_start: 56_000,
        stratum: 25,
        jitter: 9,
        distinct: 8,
        passes: 3,
        units_per_one: 1e6,
    };

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        assert_eq!(SHAPE.rates(7), SHAPE.rates(7));
        assert_ne!(SHAPE.rates(7), SHAPE.rates(8));
        assert_eq!(SHAPE.rates(7).len(), 24);
    }

    #[test]
    fn every_pass_visits_one_rate_per_stratum_inside_its_jitter_window() {
        for seed in 0..50 {
            let rates = SHAPE.rates(seed);
            for pass in rates.chunks(SHAPE.distinct) {
                let mut points: Vec<u64> = pass
                    .iter()
                    .map(|r| (r * SHAPE.units_per_one).round() as u64)
                    .collect();
                points.sort_unstable();
                for (k, p) in points.iter().enumerate() {
                    let lo = SHAPE.band_start + k as u64 * SHAPE.stratum + 8;
                    assert!((lo..lo + 9).contains(p), "seed {seed} stratum {k}: {p}");
                }
            }
            // The same distinct rates in every pass.
            let mut first: Vec<u64> = rates[..8].iter().map(|r| r.to_bits()).collect();
            let mut last: Vec<u64> = rates[16..].iter().map(|r| r.to_bits()).collect();
            first.sort_unstable();
            last.sort_unstable();
            assert_eq!(first, last);
            assert!(rates.iter().all(|&r| r > SHAPE.warmup_rate()));
        }
    }
}
