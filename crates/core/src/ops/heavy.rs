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
use crate::ops::drive::{operate, Demand};
use crate::ops::minmax::AggregateConfig;
use crate::ops::score::{est_shrink, View};
use crate::precision::PrecisionConstraint;
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
    let (width, mut summaries) = (cell.epsilon(), HeavySummaries::new(k, objs.len()));
    let kind = OperatorKind::HeavyHitters;
    let (iterations, touched) = operate(kind, objs, config, meter, observer, |v, out| {
        demands_heavy(v, k, width, &mut summaries, out);
    })?;
    let (cells, ties) = rank_cells(cell_counts(&*objs, width).0, k);
    Ok(HeavyResult {
        cells,
        ties,
        iterations,
        refined: touched.iter().filter(|&&t| t > 0).count(),
    })
}

/// HEAVYHITTERS' demand: `summaries` rebuilt from the view's spans, then
/// [`heavy_scan`]. Empty once nothing is unresolved or every unresolved
/// object is provably clear of the top-k: the membership and the member
/// counts are then final.
pub fn demands_heavy<V: View + ?Sized>(
    v: &V,
    k: usize,
    width: f64,
    summaries: &mut HeavySummaries,
    out: &mut Vec<Demand>,
) {
    let spans: Vec<CellSpan> = (0..v.len()).map(|i| cell_span(v, i, width)).collect();
    summaries.rebuild(&spans);
    heavy_scan(v, &spans, summaries, k, width, out);
}

/// Demands the unresolved objects that are still [`contended`] under the
/// summaries `s` (which must hold exactly `spans`), each at its
/// [`resolve_benefit`].
pub fn heavy_scan<V: View + ?Sized>(
    v: &V,
    spans: &[CellSpan],
    s: &HeavySummaries,
    k: usize,
    width: f64,
    out: &mut Vec<Demand>,
) {
    out.extend(contended(spans, s, k).map(|i| Demand {
        object: i,
        benefit: resolve_benefit(v, i, width),
    }));
}

/// Where an object stands against the ε-cell grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellSpan {
    /// The cell the object definitively occupies: whole bounds inside one
    /// cell, or converged (deterministic midpoint assignment at the
    /// `minWidth` floor).
    Resolved(i64),
    /// Still unresolved: the cells of its lower and upper bound.
    Pending {
        /// Cell of the lower bound.
        lo: i64,
        /// Cell of the upper bound.
        hi: i64,
    },
}

/// Object `i`'s [`CellSpan`] on the grid of cell width `width`.
#[must_use]
pub fn cell_span<V: View + ?Sized>(v: &V, i: usize, width: f64) -> CellSpan {
    let b = v.bounds(i);
    let (c_lo, c_hi) = (cell_of(b.lo(), width), cell_of(b.hi(), width));
    if c_lo == c_hi {
        CellSpan::Resolved(c_lo)
    } else if v.converged(i) {
        CellSpan::Resolved(cell_of(b.mid(), width))
    } else {
        CellSpan::Pending { lo: c_lo, hi: c_hi }
    }
}

/// The cells an unresolved span is probed at: all of them, or `None` when
/// the span is past [`SPAN_PROBE_CAP`] — such an object is contended
/// outright and never charged. The subtraction saturates: extreme bounds
/// put the two ends at opposite ends of the `i64` range.
fn probed_cells(lo: i64, hi: i64) -> Option<std::ops::RangeInclusive<i64>> {
    (hi.saturating_sub(lo) <= SPAN_PROBE_CAP).then_some(lo..=hi)
}

/// The frequency summaries over price cells that steer HEAVYHITTERS.
#[derive(Clone, Debug)]
pub struct HeavySummaries {
    resolved: SpaceSaving,
    cm_resolved: CountMin,
    cm_pending: CountMin,
}

impl HeavySummaries {
    /// Summaries for the `k` heaviest cells of `n` objects. At most `n`
    /// cells can be occupied, so a `k` beyond `n` sizes nothing (and a
    /// hostile `k` allocates nothing).
    #[must_use]
    pub fn new(k: usize, n: usize) -> Self {
        Self {
            resolved: SpaceSaving::new(k.min(n).saturating_mul(4).max(64)),
            cm_resolved: CountMin::new(COUNTMIN_WIDTH, COUNTMIN_DEPTH),
            cm_pending: CountMin::new(COUNTMIN_WIDTH, COUNTMIN_DEPTH),
        }
    }

    /// Charges one object's span: a resolved object counts towards its
    /// cell; an unresolved one charges every cell it might land in.
    pub fn add(&mut self, span: CellSpan) {
        match span {
            CellSpan::Resolved(c) => {
                self.resolved.offer(c, 1);
                self.cm_resolved.add(c, 1);
            }
            CellSpan::Pending { lo, hi } => {
                for c in probed_cells(lo, hi).into_iter().flatten() {
                    self.cm_pending.add(c, 1);
                }
            }
        }
    }

    /// Takes back what [`HeavySummaries::add`] charged for an unresolved
    /// span — exactly, the grid being a sum of such charges.
    pub fn remove_pending(&mut self, lo: i64, hi: i64) {
        for c in probed_cells(lo, hi).into_iter().flatten() {
            self.cm_pending.remove(c, 1);
        }
    }

    /// Clears the summaries and charges `spans` in index order.
    pub fn rebuild(&mut self, spans: &[CellSpan]) {
        self.resolved.clear();
        self.cm_resolved.clear();
        self.cm_pending.clear();
        for &span in spans {
            self.add(span);
        }
    }

    /// Whether the resolved-cell summary still equals, whatever the order
    /// of its offers, a rebuild from the same spans (it has not replaced a
    /// counter).
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.resolved.is_exact()
    }
}

/// The unresolved objects that are still *contended* under the summaries
/// `s` (which must hold exactly `spans`), in index order: some cell the
/// object overlaps could still reach the k-th heaviest count. Counts only
/// grow as objects resolve, so the SpaceSaving guarantee on the current k-th
/// count lower-bounds the final one; both sketches only ever overestimate,
/// so pruning errs toward keeping objects.
pub fn contended<'a>(
    spans: &'a [CellSpan],
    s: &'a HeavySummaries,
    k: usize,
) -> impl Iterator<Item = usize> + 'a {
    let threshold = s.resolved.kth_guaranteed(k).max(1);
    spans.iter().enumerate().filter_map(move |(i, span)| {
        let &CellSpan::Pending { lo, hi } = span else {
            return None;
        };
        let reachable = |c| s.cm_resolved.estimate(c) + s.cm_pending.estimate(c) >= threshold;
        probed_cells(lo, hi)
            .is_none_or(|mut cells| cells.any(reachable))
            .then_some(i)
    })
}

/// The benefit of iterating contended object `i`: its estimated shrink,
/// plus its whole current width when the estimate lands in a single cell
/// (the iteration would resolve it and remove it from the demand set) —
/// SELECT/COUNT's decision bonus, on the cell grid.
#[must_use]
pub fn resolve_benefit<V: View + ?Sized>(v: &V, i: usize, width: f64) -> f64 {
    let (b, eb) = (v.bounds(i), v.est_bounds(i));
    let resolves = cell_of(eb.lo(), width) == cell_of(eb.hi(), width);
    est_shrink(b, eb) + if resolves { b.width() } else { 0.0 }
}

/// Resolved objects per ε-cell, and how many objects are still unresolved.
#[must_use]
pub fn cell_counts<V: View + ?Sized>(v: &V, width: f64) -> (BTreeMap<i64, u64>, u64) {
    let mut counts: BTreeMap<i64, u64> = BTreeMap::new();
    let mut unresolved = 0u64;
    for i in 0..v.len() {
        match cell_span(v, i, width) {
            CellSpan::Resolved(c) => *counts.entry(c).or_default() += 1,
            CellSpan::Pending { .. } => unresolved += 1,
        }
    }
    (counts, unresolved)
}

/// Exact top-`k` ranking of resolved cell counts — the final counting pass
/// the sketches only ever steer towards, never decide: the top cells
/// (descending count, ties by ascending cell) and the non-member cells
/// tied with the last of them.
#[must_use]
pub fn rank_cells(counts: BTreeMap<i64, u64>, k: usize) -> (Vec<HeavyCell>, Vec<i64>) {
    let mut ranked: Vec<HeavyCell> = counts
        .into_iter()
        .map(|(cell, count)| HeavyCell { cell, count })
        .collect();
    ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.cell.cmp(&b.cell)));
    let take = k.min(ranked.len());
    if take == 0 {
        return (Vec::new(), Vec::new());
    }
    let boundary = ranked[take - 1].count;
    let ties: Vec<i64> = ranked[take..]
        .iter()
        .take_while(|c| c.count == boundary)
        .map(|c| c.cell)
        .collect();
    ranked.truncate(take);
    (ranked, ties)
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
    fn a_span_across_the_whole_cell_range_is_contended_not_walked() {
        // At ε = 1e-3 the wide object's bounds land in cells `i64::MIN` and
        // `i64::MAX`: the span test must saturate, not overflow (a panic in
        // a debug build) or wrap to −1 and probe 2^64 cells (a hang in a
        // release one). Past the probe cap it is contended outright, gets
        // iterated, and resolves.
        let mut objs = vec![
            ScriptedObject::converging(&[(-1e300, 1e300), (2.0001, 2.0004)], 10, 0.01),
            ScriptedObject::converging(&[(0.0, 5.0), (2.0002, 2.0006)], 10, 0.01),
        ];
        assert_eq!(
            cell_span(&objs[..], 0, 1e-3),
            CellSpan::Pending {
                lo: i64::MIN,
                hi: i64::MAX
            }
        );
        let mut meter = WorkMeter::new();
        let res = heavy_hitters_vao(
            &mut objs,
            1,
            PrecisionConstraint::new(1e-3).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(objs[0].position(), 1, "the wide object was contended");
        assert_eq!(
            res.cells,
            vec![HeavyCell {
                cell: 2000,
                count: 2
            }]
        );
        assert_eq!((res.iterations, res.refined), (2, 2));
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
