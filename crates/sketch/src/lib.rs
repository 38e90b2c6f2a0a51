//! # va-sketch — bounded-error sketches over interval observations
//!
//! Compact summaries backing the sketch-guided VAO family (PERCENTILE,
//! HEAVYHITTERS): a UDDSketch-style quantile sketch with bounded relative
//! error ([`QuantileSketch`]), a SpaceSaving heavy-hitters summary
//! ([`SpaceSaving`]) and a count-min frequency sketch ([`CountMin`]).
//!
//! Unlike the textbook versions, these sketches are fed **interval
//! observations**: each object contributes its current error bounds
//! `[L, H]` instead of a point value. [`IntervalQuantileSketch`] ingests
//! both endpoints and answers rank queries with a band that provably
//! contains the corresponding order statistic of *any* point selection
//! `v_i ∈ [L_i, H_i]` — the reported error composes the sketch's own
//! bucket-width guarantee with the ingested interval widths (see
//! `docs/SKETCHES.md` for the composition model).
//!
//! Everything is `std`-only, deterministic, and allocation-reusing
//! (`clear()` keeps capacity), because the `va-server` demand functions
//! rebuild their summaries from the live pool whenever a kept summary
//! cannot be repaired. A caller that keeps per-value bucket keys
//! ([`LogGrid::key`]) can read a never-collapsed quantile sketch's buckets
//! without filling it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod countmin;
pub mod quantile;
pub mod spacesaving;

pub use countmin::CountMin;
pub use quantile::{BucketKey, IntervalQuantileSketch, LogGrid, QuantileSketch};
pub use spacesaving::SpaceSaving;

/// Clamped rank-from-top for the `phi`-quantile over `n` observations:
/// `⌈(1 − phi)·n⌉`, clamped to `1..=n`.
///
/// This matches the rank convention of the exact-separation operators:
/// `phi = 0.5` is rank `⌈n/2⌉` from the top (the MEDIAN element), `phi → 1`
/// approaches the maximum (rank 1) and `phi → 0` the minimum (rank `n`).
#[must_use]
pub fn rank_from_top(phi: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    let raw = (1.0 - phi) * n as f64;
    if raw.is_nan() {
        return 1;
    }
    // Snap values a few ulps from an integer before taking the ceiling, so
    // quantiles like 0.99 of 500 land on rank 5, not 6 (1 − 0.99 is not
    // exactly 0.01 in binary).
    let snapped = if (raw - raw.round()).abs() < 1e-9 * (n as f64).max(1.0) {
        raw.round()
    } else {
        raw.ceil()
    };
    (snapped as i64).clamp(1, n as i64) as usize
}

#[cfg(test)]
mod tests {
    use super::rank_from_top;

    #[test]
    fn rank_convention_matches_exact_operators() {
        // Median: rank ⌈n/2⌉ from the top.
        assert_eq!(rank_from_top(0.5, 500), 250);
        assert_eq!(rank_from_top(0.5, 5), 3);
        // p99 of 500: the 5th largest.
        assert_eq!(rank_from_top(0.99, 500), 5);
        // Extremes clamp to MAX / MIN.
        assert_eq!(rank_from_top(1.0, 500), 1);
        assert_eq!(rank_from_top(0.0, 500), 500);
        assert_eq!(rank_from_top(0.5, 0), 0);
    }
}
