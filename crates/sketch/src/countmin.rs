//! The count-min frequency sketch (Cormode & Muthukrishnan): a `depth × width`
//! counter grid where each row hashes keys independently and point queries
//! return the row-wise minimum.
//!
//! Estimates **never underestimate** — the property the HEAVYHITTERS demand
//! function leans on: probing a price cell's *possible* population through
//! the sketch can only err toward keeping an object in the demand set,
//! never toward wrongly declaring the query converged.
//!
//! Hashing is deterministic (SplitMix64 with fixed per-row seeds), so ticks
//! replay bit-identically across runs and recoveries.

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic count-min sketch over `i64` keys.
#[derive(Clone, Debug)]
pub struct CountMin {
    width: usize,
    depth: usize,
    /// Row-major `depth × width` counters.
    grid: Vec<u64>,
    /// Total weight added.
    weight: u64,
}

impl CountMin {
    /// Creates a sketch with `width` counters per row (rounded up to a
    /// power of two) and `depth` independent rows.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `depth` is zero.
    #[must_use]
    pub fn new(width: usize, depth: usize) -> Self {
        assert!(width > 0 && depth > 0, "width and depth must be positive");
        let width = width.next_power_of_two();
        Self {
            width,
            depth,
            grid: vec![0; width * depth],
            weight: 0,
        }
    }

    /// Counters per row.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Independent hash rows.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Total weight added since construction or [`CountMin::clear`].
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Zeroes every counter, keeping the allocation.
    pub fn clear(&mut self) {
        self.grid.fill(0);
        self.weight = 0;
    }

    fn slot(&self, row: usize, key: i64) -> usize {
        let seed = splitmix64(0xC0FF_EE00_u64.wrapping_add(row as u64));
        let h = splitmix64((key as u64) ^ seed);
        row * self.width + (h as usize & (self.width - 1))
    }

    /// Adds `weight` occurrences of `key`.
    pub fn add(&mut self, key: i64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.weight += weight;
        for row in 0..self.depth {
            let s = self.slot(row, key);
            self.grid[s] = self.grid[s].saturating_add(weight);
        }
    }

    /// Takes back `weight` occurrences of `key` charged by an earlier
    /// [`CountMin::add`]. The grid is a sum of per-key charges, so (short of
    /// a saturated counter) the sketch afterwards is cell-for-cell the one a
    /// rebuild without those occurrences would produce.
    ///
    /// # Panics
    ///
    /// Panics if more weight is removed than was added — a caller bug.
    pub fn remove(&mut self, key: i64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.weight = self
            .weight
            .checked_sub(weight)
            .expect("removed more weight than was added");
        for row in 0..self.depth {
            let s = self.slot(row, key);
            self.grid[s] = self.grid[s]
                .checked_sub(weight)
                .expect("removed more weight than was added");
        }
    }

    /// Estimated frequency of `key`: the minimum over rows. Never less than
    /// the true added weight for `key`.
    #[must_use]
    pub fn estimate(&self, key: i64) -> u64 {
        (0..self.depth)
            .map(|row| self.grid[self.slot(row, key)])
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(64, 4);
        let mut truth: HashMap<i64, u64> = HashMap::new();
        for i in 0..1000i64 {
            let key = i % 97;
            let w = 1 + (i as u64 % 3);
            cm.add(key, w);
            *truth.entry(key).or_default() += w;
        }
        for (&k, &f) in &truth {
            assert!(cm.estimate(k) >= f, "key {k}: {} < {f}", cm.estimate(k));
        }
    }

    #[test]
    fn small_universes_are_exact() {
        // Fewer distinct keys than width ⇒ rare collisions; with depth 4
        // over 8 keys in 64 slots, estimates are exact in practice.
        let mut cm = CountMin::new(64, 4);
        for k in 0..8i64 {
            cm.add(k, (k as u64 + 1) * 10);
        }
        for k in 0..8i64 {
            assert_eq!(cm.estimate(k), (k as u64 + 1) * 10);
        }
        assert_eq!(cm.estimate(999), 0);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = CountMin::new(32, 3);
        let mut b = CountMin::new(32, 3);
        for i in 0..100i64 {
            a.add(i * 7 - 50, 2);
            b.add(i * 7 - 50, 2);
        }
        for i in -60..60i64 {
            assert_eq!(a.estimate(i), b.estimate(i));
        }
    }

    #[test]
    fn remove_is_the_exact_inverse_of_add() {
        let mut kept = CountMin::new(16, 3);
        let mut churned = CountMin::new(16, 3);
        for k in 0..40i64 {
            kept.add(k, 2);
            churned.add(k, 2);
            churned.add(k * 31 + 7, 1);
        }
        for k in 0..40i64 {
            churned.remove(k * 31 + 7, 1);
        }
        assert_eq!(churned.weight(), kept.weight());
        for k in -50..1400i64 {
            assert_eq!(churned.estimate(k), kept.estimate(k), "key {k}");
        }
    }

    #[test]
    fn clear_zeroes_counts() {
        let mut cm = CountMin::new(16, 2);
        cm.add(5, 9);
        cm.clear();
        assert_eq!(cm.weight(), 0);
        assert_eq!(cm.estimate(5), 0);
    }

    #[test]
    fn width_rounds_to_power_of_two() {
        let cm = CountMin::new(33, 1);
        assert_eq!(cm.width(), 64);
    }
}
