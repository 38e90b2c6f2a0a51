//! The lap-floor estimator.
//!
//! A workload replays one fixed script of S tick positions over L laps,
//! each lap on freshly built state. Position *k*'s time is the **minimum
//! over laps** — its floor. Work units and answer digests are asserted
//! identical across laps, so every lap times the same computation and the
//! minimum is the run that met the least interference: a property of the
//! program, not of its neighbours on the box. Percentiles are then taken
//! over the S floors, not over the S·L raw samples.

/// Per-position samples over laps: `samples[lap][position]`, seconds.
#[derive(Clone, Debug, Default)]
pub struct Laps {
    samples: Vec<Vec<f64>>,
}

impl Laps {
    pub fn push(&mut self, lap: Vec<f64>) {
        if let Some(first) = self.samples.first() {
            assert_eq!(first.len(), lap.len(), "every lap replays the same script");
        }
        self.samples.push(lap);
    }

    pub fn laps(&self) -> usize {
        self.samples.len()
    }

    /// Raw sample count (S·L), reported beside every percentile.
    pub fn raw_samples(&self) -> usize {
        self.samples.iter().map(Vec::len).sum()
    }

    /// Per-position minimum over laps.
    pub fn floors(&self) -> Vec<f64> {
        let positions = self.samples.first().map_or(0, Vec::len);
        (0..positions)
            .map(|k| {
                self.samples
                    .iter()
                    .map(|lap| lap[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// Median over positions of (raw median over laps / floor): how far a
    /// typical raw sample sits above the floor on this box.
    pub fn raw_over_floor(&self) -> f64 {
        let floors = self.floors();
        let ratios: Vec<f64> = floors
            .iter()
            .enumerate()
            .map(|(k, &floor)| {
                let column: Vec<f64> = self.samples.iter().map(|lap| lap[k]).collect();
                percentile(&column, 0.5) / floor
            })
            .collect();
        percentile(&ratios, 0.5)
    }

    /// Share of raw samples slower than `factor` × their position's floor.
    pub fn stall_share(&self, factor: f64) -> f64 {
        let floors = self.floors();
        let stalled = self
            .samples
            .iter()
            .flat_map(|lap| lap.iter().zip(&floors))
            .filter(|(&raw, &floor)| raw > factor * floor)
            .count();
        stalled as f64 / self.raw_samples().max(1) as f64
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (below, above) = (at.floor() as usize, at.ceil() as usize);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `(max − min) / median`: the selftest's run-to-run spread of one metric.
pub fn spread(values: &[f64]) -> f64 {
    let median = percentile(values, 0.5);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if median == 0.0 {
        return if max == minimum(values) {
            0.0
        } else {
            f64::INFINITY
        };
    }
    (max - minimum(values)) / median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_take_the_minimum_per_position_not_per_lap() {
        let mut laps = Laps::default();
        laps.push(vec![5.0, 1.0, 9.0]);
        laps.push(vec![2.0, 4.0, 9.5]);
        laps.push(vec![3.0, 2.0, 7.0]);
        assert_eq!(laps.floors(), vec![2.0, 1.0, 7.0]);
        assert_eq!(laps.raw_samples(), 9);
        assert_eq!(laps.laps(), 3);
    }

    #[test]
    fn one_slow_lap_does_not_move_a_floor() {
        let mut laps = Laps::default();
        for _ in 0..8 {
            laps.push(vec![1.0, 2.0]);
        }
        laps.push(vec![40.0, 80.0]);
        assert_eq!(laps.floors(), vec![1.0, 2.0]);
        // 2 of 18 samples sit above 5× their floor.
        assert!((laps.stall_share(5.0) - 2.0 / 18.0).abs() < 1e-12);
        assert_eq!(laps.raw_over_floor(), 1.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[10.0, 10.0, 10.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "same script")]
    fn laps_of_different_length_are_refused() {
        let mut laps = Laps::default();
        laps.push(vec![1.0]);
        laps.push(vec![1.0, 2.0]);
    }
}
