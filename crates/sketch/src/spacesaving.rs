//! The SpaceSaving heavy-hitters summary (Metwally, Agrawal & El Abbadi):
//! `m` monitored keys, each with a count and an overestimation error.
//!
//! Guarantees, for any key `x` with true frequency `f(x)` after `N` offers:
//!
//! * if `f(x) > N / m`, then `x` is monitored;
//! * for a monitored `x`: `count(x) − err(x) ≤ f(x) ≤ count(x)`.
//!
//! The HEAVYHITTERS demand function uses the summary over the *resolved*
//! price cells to derive a sound lower bound on the k-th heaviest cell's
//! count ([`SpaceSaving::kth_guaranteed`]) — the admission threshold that
//! prunes uncontended objects from the demand set.

use std::collections::HashMap;

/// One monitored counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// The monitored key.
    pub key: i64,
    /// Estimated frequency (never an underestimate).
    pub count: u64,
    /// Maximum overestimation: `count − err` is a guaranteed lower bound.
    pub err: u64,
}

/// A fixed-capacity SpaceSaving summary over `i64` keys.
#[derive(Clone, Debug)]
pub struct SpaceSaving {
    capacity: usize,
    counters: Vec<Counter>,
    /// key → index into `counters`.
    index: HashMap<i64, usize>,
    offers: u64,
    /// Replacements since construction or the last `clear()`.
    evictions: u64,
}

impl SpaceSaving {
    /// Creates a summary monitoring at most `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            counters: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            offers: 0,
            evictions: 0,
        }
    }

    /// Total weight offered so far.
    #[must_use]
    pub fn offers(&self) -> u64 {
        self.offers
    }

    /// Monitored counters, in arbitrary order. Use
    /// [`SpaceSaving::top`] for the ranked view.
    #[must_use]
    pub fn counters(&self) -> &[Counter] {
        &self.counters
    }

    /// Drops all counters, keeping capacity.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.index.clear();
        self.offers = 0;
        self.evictions = 0;
    }

    /// Whether every offered key still has its own counter (no replacement
    /// has happened): the counts are then the true frequencies, and the
    /// summary is the same whatever order the offers arrived in.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.evictions == 0
    }

    /// Offers `weight` occurrences of `key`.
    pub fn offer(&mut self, key: i64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.offers += weight;
        if let Some(&i) = self.index.get(&key) {
            self.counters[i].count += weight;
            return;
        }
        if self.counters.len() < self.capacity {
            self.index.insert(key, self.counters.len());
            self.counters.push(Counter {
                key,
                count: weight,
                err: 0,
            });
            return;
        }
        // Evict the minimum counter: the newcomer inherits its count as
        // overestimation error (the classic SpaceSaving replacement).
        let (mut min_i, mut min_c) = (0usize, u64::MAX);
        for (i, c) in self.counters.iter().enumerate() {
            if c.count < min_c {
                min_i = i;
                min_c = c.count;
            }
        }
        let evicted = self.counters[min_i];
        self.evictions += 1;
        self.index.remove(&evicted.key);
        self.index.insert(key, min_i);
        self.counters[min_i] = Counter {
            key,
            count: min_c + weight,
            err: min_c,
        };
    }

    /// Estimated frequency of `key`: the monitored count, or the minimum
    /// counter (the ceiling every unmonitored key sits under). Never an
    /// underestimate.
    #[must_use]
    pub fn estimate(&self, key: i64) -> u64 {
        match self.index.get(&key) {
            Some(&i) => self.counters[i].count,
            None if self.counters.len() < self.capacity => 0,
            None => self.counters.iter().map(|c| c.count).min().unwrap_or(0),
        }
    }

    /// The monitored counters sorted by descending count (ties: ascending
    /// key), truncated to `k`.
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<Counter> {
        let mut v = self.counters.clone();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v.truncate(k);
        v
    }

    /// A guaranteed lower bound on the `k`-th largest *true* frequency:
    /// the `k`-th largest `count − err` over the monitored keys (0 when
    /// fewer than `k` are monitored).
    #[must_use]
    pub fn kth_guaranteed(&self, k: usize) -> u64 {
        if k == 0 || k > self.counters.len() {
            return 0;
        }
        let mut lows: Vec<u64> = self
            .counters
            .iter()
            .map(|c| c.count.saturating_sub(c.err))
            .collect();
        lows.sort_unstable_by(|a, b| b.cmp(a));
        lows[k - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut s = SpaceSaving::new(8);
        for (key, n) in [(1i64, 5u64), (2, 3), (3, 1)] {
            s.offer(key, n);
        }
        assert_eq!(s.estimate(1), 5);
        assert_eq!(s.estimate(2), 3);
        assert_eq!(s.estimate(99), 0, "unmonitored under capacity is exact 0");
        let top = s.top(2);
        assert_eq!((top[0].key, top[0].count), (1, 5));
        assert_eq!((top[1].key, top[1].count), (2, 3));
        assert_eq!(s.kth_guaranteed(1), 5);
        assert_eq!(s.kth_guaranteed(2), 3);
        assert_eq!(s.kth_guaranteed(4), 0);
        assert!(s.is_exact());
    }

    #[test]
    fn never_underestimates_and_bounds_error() {
        // Skewed stream through a tight summary.
        let mut s = SpaceSaving::new(4);
        let mut truth: HashMap<i64, u64> = HashMap::new();
        let stream: Vec<i64> = (0..200)
            .map(|i| match i % 10 {
                0..=4 => 1, // heavy
                5..=7 => 2, // medium
                _ => 3 + (i as i64 % 13),
            })
            .collect();
        for &k in &stream {
            s.offer(k, 1);
            *truth.entry(k).or_default() += 1;
        }
        for (&k, &f) in &truth {
            assert!(
                s.estimate(k) >= f,
                "underestimated {k}: {} < {f}",
                s.estimate(k)
            );
        }
        for c in s.counters() {
            let f = truth.get(&c.key).copied().unwrap_or(0);
            assert!(c.count - c.err <= f, "lower bound broken for {}", c.key);
        }
        // The genuinely heavy key must be monitored (f > N/m = 200/4).
        assert!(s.counters().iter().any(|c| c.key == 1));
        // kth_guaranteed never exceeds the true k-th largest frequency.
        let mut freqs: Vec<u64> = truth.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        for k in 1..=4 {
            assert!(
                s.kth_guaranteed(k) <= freqs[k - 1],
                "k={k}: {} > {}",
                s.kth_guaranteed(k),
                freqs[k - 1]
            );
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = SpaceSaving::new(2);
        s.offer(1, 10);
        s.offer(2, 5);
        s.offer(3, 1);
        assert!(!s.is_exact(), "the third key replaced a counter");
        s.clear();
        assert!(s.is_exact());
        assert_eq!(s.offers(), 0);
        assert_eq!(s.counters().len(), 0);
        s.offer(7, 2);
        assert_eq!(s.estimate(7), 2);
        assert_eq!(s.estimate(1), 0, "pre-clear state must not leak");
    }
}
