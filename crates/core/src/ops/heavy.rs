//! Sketch-guided HEAVY-HITTERS (extension): the `k` most-populated price
//! cells, pruned by SpaceSaving + count-min summaries.
//!
//! The value axis is divided into cells of width ε (`cell = ⌊v / ε⌋`). An
//! object is **resolved** once its bounds fit inside one cell, or once it has
//! converged (its `minWidth` interval may still straddle a boundary; the
//! midpoint cell is then the deterministic assignment — the `minWidth`-floor
//! caveat shared with SUM and PERCENTILE). The answer is the `k` cells with
//! the most resolved objects.
//!
//! Demand pruning composes two sound frequency summaries over the cells:
//!
//! * a [`SpaceSaving`] summary of the *resolved* cells yields
//!   `T = kth_guaranteed(k)`, a lower bound on the final k-th heaviest
//!   count (counts only grow as objects resolve);
//! * [`CountMin`] sketches of the resolved cells and of the unresolved
//!   *spans* yield `possible(c)`, an upper bound on any cell's final count
//!   (count-min never underestimates, and every unresolved object is charged
//!   to all cells it touches).
//!
//! An unresolved object whose whole span satisfies `possible(c) < T` can
//! neither join, displace nor tie the top-`k` wherever its value lands, so
//! it is pruned from the demand set without further iteration. When every
//! unresolved object is prunable the answer is final — the summaries only
//! ever err toward keeping an object in the demand set, never toward a
//! premature answer.

use std::collections::BTreeMap;

use va_sketch::{CountMin, SpaceSaving};

use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::Driver;
use crate::ops::minmax::AggregateConfig;
use crate::precision::PrecisionConstraint;
use crate::strategy::Candidate;
use crate::trace::{ExecObserver, NoopObserver, OperatorKind};

/// Widest unresolved span (in cells) charged cell-by-cell to the pending
/// count-min; anything wider is treated as contended outright.
pub const SPAN_PROBE_CAP: i64 = 64;

/// Count-min geometry for the cell summaries (width is rounded up to a
/// power of two).
pub const COUNTMIN_WIDTH: usize = 1024;
/// Count-min rows.
pub const COUNTMIN_DEPTH: usize = 4;

/// The ε-width cell containing `v`: `⌊v / width⌋`, saturating at the `i64`
/// range for extreme magnitudes.
#[must_use]
pub fn cell_of(v: f64, width: f64) -> i64 {
    let r = (v / width).floor();
    if r >= i64::MAX as f64 {
        i64::MAX
    } else if r <= i64::MIN as f64 {
        i64::MIN
    } else {
        r as i64
    }
}

/// The value interval covered by `cell`: `[cell·width, (cell + 1)·width)`.
#[must_use]
pub fn cell_bounds(cell: i64, width: f64) -> (f64, f64) {
    (cell as f64 * width, (cell as f64 + 1.0) * width)
}

/// One ranked cell of a HEAVY-HITTERS answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeavyCell {
    /// The cell index (`⌊v / ε⌋`).
    pub cell: i64,
    /// Number of resolved objects assigned to the cell.
    pub count: u64,
}

/// Outcome of a HEAVY-HITTERS evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct HeavyResult {
    /// The top cells by count (descending; ties by ascending cell index),
    /// at most `k` of them — fewer when the relation populates fewer cells.
    pub cells: Vec<HeavyCell>,
    /// Non-member cells whose count equals the k-th member's count —
    /// indistinguishable from the boundary member, as in MAX's ties.
    pub ties: Vec<i64>,
    /// Total `iterate()` calls issued.
    pub iterations: u64,
    /// Distinct objects that were iterated at least once.
    pub refined: usize,
}

/// Evaluates the `k` heaviest ε-cells with the default (greedy)
/// configuration.
pub fn heavy_hitters_vao<R: ResultObject>(
    objs: &mut [R],
    k: usize,
    cell: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<HeavyResult, VaoError> {
    heavy_hitters_vao_traced(
        objs,
        k,
        cell,
        &mut AggregateConfig::default(),
        meter,
        &mut NoopObserver,
    )
}

/// Evaluates the `k` heaviest ε-cells with an explicit configuration and an
/// [`ExecObserver`] receiving the execution trace.
pub fn heavy_hitters_vao_traced<R: ResultObject, O: ExecObserver>(
    objs: &mut [R],
    k: usize,
    cell: PrecisionConstraint,
    config: &mut AggregateConfig,
    meter: &mut WorkMeter,
    observer: &mut O,
) -> Result<HeavyResult, VaoError> {
    if objs.is_empty() || k == 0 {
        return Err(VaoError::EmptyInput);
    }
    let width = cell.epsilon();
    let mut drive = Driver::begin(
        OperatorKind::HeavyHitters,
        objs.len(),
        config.iteration_limit,
        meter,
        observer,
    );

    // At most one cell per object can be occupied, so `k` beyond that sizes
    // nothing (and a hostile `k` allocates nothing).
    let mut ss = SpaceSaving::new(k.min(objs.len()).saturating_mul(4).max(64));
    let mut cm_resolved = CountMin::new(COUNTMIN_WIDTH, COUNTMIN_DEPTH);
    let mut cm_pending = CountMin::new(COUNTMIN_WIDTH, COUNTMIN_DEPTH);
    let mut touched = vec![false; objs.len()];
    loop {
        ss.clear();
        cm_resolved.clear();
        cm_pending.clear();
        let mut unresolved = Vec::new();
        for (i, o) in objs.iter().enumerate() {
            match resolved_cell(o, width) {
                Some(c) => {
                    ss.offer(c, 1);
                    cm_resolved.add(c, 1);
                }
                None => unresolved.push(i),
            }
        }
        if unresolved.is_empty() {
            break;
        }
        // Charge every unresolved object to all cells it might land in.
        for &i in &unresolved {
            let b = objs[i].bounds();
            let (c_lo, c_hi) = (cell_of(b.lo(), width), cell_of(b.hi(), width));
            if c_hi - c_lo <= SPAN_PROBE_CAP {
                for c in c_lo..=c_hi {
                    cm_pending.add(c, 1);
                }
            }
        }
        let threshold = ss.kth_guaranteed(k).max(1);

        let mut candidates = Vec::new();
        for &i in &unresolved {
            let b = objs[i].bounds();
            let (c_lo, c_hi) = (cell_of(b.lo(), width), cell_of(b.hi(), width));
            let contended = c_hi - c_lo > SPAN_PROBE_CAP
                || (c_lo..=c_hi)
                    .any(|c| cm_resolved.estimate(c) + cm_pending.estimate(c) >= threshold);
            if !contended {
                continue;
            }
            let est = objs[i].est_bounds();
            let shrink = (est.lo() - b.lo()).max(0.0) + (b.hi() - est.hi()).max(0.0);
            // Landing in a single cell is worth a full cell width on top of
            // the raw shrink — it removes the object from the demand set.
            let resolve_bonus = if cell_of(est.lo(), width) == cell_of(est.hi(), width) {
                width
            } else {
                0.0
            };
            candidates.push(Candidate::of(i, &objs[i], shrink + resolve_bonus));
        }
        if candidates.is_empty() {
            // Every unresolved object is provably clear of the top-k: the
            // membership and the member counts are already final.
            break;
        }
        let idx = drive.choose(&mut config.policy, &candidates)?;
        drive.step(&mut objs[idx], idx)?;
        touched[idx] = true;
    }

    // Finalize with an exact counting pass over the resolved objects — the
    // sketches only ever steer iteration, never the reported counts.
    let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
    for o in objs.iter() {
        if let Some(c) = resolved_cell(o, width) {
            *counts.entry(c).or_default() += 1;
        }
    }
    let mut ranked: Vec<HeavyCell> = counts
        .into_iter()
        .map(|(cell, count)| HeavyCell { cell, count })
        .collect();
    ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.cell.cmp(&b.cell)));
    let take = k.min(ranked.len());
    let boundary = ranked[take - 1].count;
    let ties: Vec<i64> = ranked[take..]
        .iter()
        .take_while(|c| c.count == boundary)
        .map(|c| c.cell)
        .collect();
    ranked.truncate(take);
    Ok(HeavyResult {
        cells: ranked,
        ties,
        iterations: drive.finish(),
        refined: touched.iter().filter(|&&t| t).count(),
    })
}

/// The cell an object definitively occupies, if any: its whole bounds fit
/// in one cell, or it has converged (midpoint assignment at the `minWidth`
/// floor).
fn resolved_cell<R: ResultObject>(o: &R, width: f64) -> Option<i64> {
    let b = o.bounds();
    let (c_lo, c_hi) = (cell_of(b.lo(), width), cell_of(b.hi(), width));
    if c_lo == c_hi {
        Some(c_lo)
    } else if o.converged() {
        Some(cell_of(b.mid(), width))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    fn converging_to(values: &[f64]) -> Vec<ScriptedObject> {
        values
            .iter()
            .map(|&v| {
                ScriptedObject::converging(
                    &[
                        (v - 9.0, v + 9.0),
                        (v - 3.0, v + 3.0),
                        (v - 1.0, v + 1.0),
                        (v - 0.004, v + 0.004),
                    ],
                    10,
                    0.01,
                )
            })
            .collect()
    }

    /// Objects that start (and stay) inside a single cell of width 1.
    fn tight(values: &[f64]) -> Vec<ScriptedObject> {
        values
            .iter()
            .map(|&v| {
                ScriptedObject::converging(&[(v - 0.1, v + 0.1), (v - 0.004, v + 0.004)], 10, 0.01)
            })
            .collect()
    }

    #[test]
    fn cell_geometry_is_floor_based() {
        assert_eq!(cell_of(100.2, 1.0), 100);
        assert_eq!(cell_of(-0.5, 1.0), -1);
        assert_eq!(cell_of(0.0, 1.0), 0);
        assert_eq!(cell_bounds(100, 1.0), (100.0, 101.0));
        assert_eq!(cell_of(1e300, 1e-300), i64::MAX);
    }

    #[test]
    fn finds_the_heaviest_cell() {
        let values = [100.2, 100.4, 100.6, 200.5, 50.3];
        let mut objs = converging_to(&values);
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            1,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.cells.len(), 1);
        assert_eq!(
            res.cells[0],
            HeavyCell {
                cell: 100,
                count: 3
            }
        );
        assert!(res.ties.is_empty());
    }

    #[test]
    fn uncontended_objects_are_pruned_without_iteration() {
        // Four objects already resolved in cell 100 (T = 4); the wide
        // outlier's possible count is 1 everywhere it might land, so it must
        // be pruned with zero iterate() calls.
        let mut objs = tight(&[100.2, 100.4, 100.6, 100.8]);
        objs.extend(converging_to(&[500.0]));
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            1,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(
            res.cells[0],
            HeavyCell {
                cell: 100,
                count: 4
            }
        );
        assert_eq!(res.iterations, 0, "no object may be iterated");
        assert!(!objs[4].converged(), "the outlier must stay coarse");
    }

    #[test]
    fn contended_straddlers_are_refined_until_they_land() {
        // Two tight cells of 2; a wide straddler over both decides the
        // winner, so it must be refined until it resolves into cell 100.
        let mut objs = tight(&[100.2, 100.6, 101.3, 101.7]);
        objs.extend(converging_to(&[100.5]));
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            1,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert!(res.iterations > 0);
        assert_eq!(
            res.cells[0],
            HeavyCell {
                cell: 100,
                count: 3
            }
        );
        assert!(res.ties.is_empty());
    }

    #[test]
    fn equal_cells_are_reported_as_ties() {
        let mut objs = tight(&[100.2, 100.6, 200.3, 200.7]);
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            1,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(
            res.cells,
            vec![HeavyCell {
                cell: 100,
                count: 2
            }]
        );
        assert_eq!(res.ties, vec![200]);
    }

    #[test]
    fn fewer_cells_than_k_returns_them_all() {
        let mut objs = tight(&[100.2, 100.6]);
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            5,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(
            res.cells,
            vec![HeavyCell {
                cell: 100,
                count: 2
            }]
        );
    }

    #[test]
    fn converged_boundary_straddlers_take_their_midpoint_cell() {
        // A converged object whose minWidth interval straddles the 101
        // boundary: deterministic midpoint assignment.
        let mut objs = tight(&[100.2, 100.6]);
        objs.push(ScriptedObject::converging(&[(100.998, 101.006)], 10, 0.01));
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            2,
            PrecisionConstraint::new(1.0).unwrap(),
            &mut meter,
        )
        .unwrap();
        // Midpoint 101.002 → cell 101.
        assert_eq!(
            res.cells,
            vec![
                HeavyCell {
                    cell: 100,
                    count: 2
                },
                HeavyCell {
                    cell: 101,
                    count: 1
                }
            ]
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut meter = WorkMeter::new();
        let eps = PrecisionConstraint::new(1.0).unwrap();
        let mut empty: Vec<ScriptedObject> = Vec::new();
        assert!(matches!(
            heavy_hitters_vao(&mut empty, 1, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
        let mut objs = tight(&[1.0]);
        assert!(matches!(
            heavy_hitters_vao(&mut objs, 0, eps, &mut meter),
            Err(VaoError::EmptyInput)
        ));
    }
}
