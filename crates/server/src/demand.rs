//! Per-query refinement demand over the shared pool.
//!
//! Each registered query contributes a *demand list*: given the pool's
//! current bounds, which objects does it still want refined and what
//! output-bound-width reduction does it expect from each. The list is the
//! query's dedicated operator's demand function — `vao::ops` holds each
//! one once, and a dedicated operator runs the same function through the
//! same round loop — read over the pool: [`SharedPool`] is a
//! [`vao::ops::score::View`]. A MAX query scores overlap reduction against
//! its educated guess, a SUM query weighted width reduction, COUNT/SELECT
//! expected classification progress. The answer is shared the same way: a
//! `Final` is [`Query::output`] over the pool. What stays here is the
//! dispatch from a [`Query`] to its function, the anytime `Partial`, and
//! the incremental caches of [`RoundView`].
//!
//! The invariant the scheduler builds on: **a query's demand list is empty
//! exactly when the pool's current bounds let it emit a
//! [`Answer::Final`]** — the same stopping conditions as the dedicated
//! operators, including MAX/TOP-K stopping case 2 (everything overlapping
//! the winner converged ⇒ ties).
//!
//! [`demands`] / [`demands_stateful`] are the *stateless recompute*: every
//! set (member guess, straddlers, unresolved objects, order statistics,
//! sketch summaries) is re-derived from the pool on each call. The
//! scheduler does not call them per round — it keeps a [`RoundView`] that
//! repairs the same state for the objects a round iterated — but they
//! remain the public API and the oracle the maintained lists are tested
//! against, and both paths emit through the same per-object and per-phase
//! functions of `vao::ops`: a benefit expression exists exactly once in
//! the workspace.

mod round;

pub use round::RoundView;
pub use vao::ops::drive::Demand;

use va_sketch::IntervalQuantileSketch;
use va_stream::{BondRelation, Query};
use vao::error::VaoError;
use vao::ops::count::{classify, demands_classify};
use vao::ops::heavy::{cell_counts, demands_heavy, HeavySummaries};
use vao::ops::minmax::{max_envelope, min_envelope};
use vao::ops::percentile::{
    demands_percentile, rank_bracket, rank_from_top, SKETCH_ALPHA, SKETCH_BUDGET,
};
use vao::ops::quantile::demands_quantile;
use vao::ops::score::{demands_rank, Flipped};
use vao::ops::sum::{ave_weight, demands_sum, weighted_endpoints, weighted_interval};
use vao::Bounds;

use crate::answer::Answer;
use crate::error::ServerError;
use crate::pool::SharedPool;

/// Reusable sketch summaries for the sketch-guided demand functions
/// (PERCENTILE, HEAVYHITTERS). One per session; a caller that recomputes
/// repeatedly keeps them so each rebuild reuses allocations. The summaries
/// are *derived* state — rebuilt from the pool's live bounds on every call
/// — so they are never journaled: a recovered session simply rebuilds them
/// on its first tick.
#[derive(Clone, Debug, Default)]
pub struct SketchState {
    quantile: Option<IntervalQuantileSketch>,
    heavy: Option<HeavySummaries>,
}

/// Fills `out` with the query's outstanding demands. Empty ⇔ the query can
/// answer [`Answer::Final`] from the pool's current bounds.
///
/// Stateless convenience over [`demands_stateful`]: sketch-guided queries
/// build fresh summaries per call. The stateful entry point reuses
/// per-session summary allocations across calls; both produce identical
/// demands.
pub fn demands(query: &Query, pool: &SharedPool, out: &mut Vec<Demand>) {
    demands_stateful(query, pool, &mut SketchState::default(), out);
}

/// [`demands`] with caller-owned sketch state (one [`SketchState`] per
/// session; only PERCENTILE/HEAVYHITTERS touch it).
pub fn demands_stateful(
    query: &Query,
    pool: &SharedPool,
    state: &mut SketchState,
    out: &mut Vec<Demand>,
) {
    out.clear();
    let n = pool.len();
    if n == 0 {
        // Nothing to refine; the answer path reports the empty relation as
        // a typed error for the shapes that have no answer over ∅.
        return;
    }
    match query {
        Query::Selection { op, constant } => demands_classify(pool, *op, *constant, 0, out),
        Query::Count {
            op,
            constant,
            slack,
        } => demands_classify(pool, *op, *constant, *slack, out),
        Query::Sum { weights, epsilon } => demands_sum(pool, |i| weights[i], *epsilon, out),
        Query::Ave { epsilon } => {
            let w = ave_weight(n);
            demands_sum(pool, |_| w, *epsilon, out);
        }
        Query::Max { epsilon } => demands_rank(pool, 1, *epsilon, out),
        Query::Min { epsilon } => demands_rank(&Flipped(pool), 1, *epsilon, out),
        Query::TopK { k, epsilon } => demands_rank(pool, *k, *epsilon, out),
        Query::Median { epsilon } => demands_quantile(pool, n.div_ceil(2), *epsilon, out),
        Query::Percentile { phi, epsilon } => {
            let sketch = state
                .quantile
                .get_or_insert_with(|| IntervalQuantileSketch::new(SKETCH_ALPHA, SKETCH_BUDGET));
            demands_percentile(pool, rank_from_top(*phi, n), *epsilon, sketch, out);
        }
        Query::HeavyHitters { k, epsilon } => {
            let summaries = state
                .heavy
                .get_or_insert_with(|| HeavySummaries::new(*k, n));
            demands_heavy(pool, *k, *epsilon, summaries, out);
        }
    }
}

/// Sound anytime bounds on the query's converged answer value, from the
/// pool's *current* bounds (the budget-exhausted degradation path).
///
/// * SUM/AVE — the current weighted interval `[Σ wL, Σ wH]`.
/// * MAX/MIN — the footnote-9 envelope `[max L, max H]` / `[min L, min H]`.
/// * TOP-K — the k-th order statistic of the L's and of the H's (at most
///   k−1 true values can exceed the k-th largest H).
/// * SELECT/COUNT — the result *cardinality* interval
///   `[proven, proven + unresolved]`.
///
/// Every case brackets the value a budget-free run converges to, because
/// per-object bounds are sound and shrink monotonically.
///
/// # Errors
///
/// [`ServerError::EmptyRelation`] for the extreme-family queries
/// (MAX/MIN/TOP-K) over an empty pool: there is no value to bound. The
/// set/aggregate shapes answer `[0, 0]` over ∅ instead.
pub fn partial_bounds(query: &Query, pool: &SharedPool) -> Result<Bounds, ServerError> {
    match query {
        Query::Selection { op, constant } | Query::Count { op, constant, .. } => {
            let (count_lo, unresolved) = classify(pool, *op, *constant);
            Ok(Bounds::new(
                count_lo as f64,
                (count_lo + unresolved.len()) as f64,
            ))
        }
        Query::Sum { weights, .. } => Ok(weighted_interval(pool, |i| weights[i])),
        Query::Ave { .. } => {
            let w = ave_weight(pool.len());
            Ok(weighted_interval(pool, |_| w))
        }
        Query::Max { .. } => max_envelope(pool.objects()).map_err(|_| ServerError::EmptyRelation),
        Query::Min { .. } => min_envelope(pool.objects()).map_err(|_| ServerError::EmptyRelation),
        Query::TopK { k, .. } => rank_bounds(pool, *k),
        Query::Median { .. } => rank_bounds(pool, pool.len().div_ceil(2)),
        Query::Percentile { phi, .. } => rank_bounds(pool, rank_from_top(*phi, pool.len())),
        Query::HeavyHitters { k, epsilon } => {
            // The k-th resolved count can only grow; `u` still-unresolved
            // objects can raise it by at most `u`.
            let (counts, unresolved) = cell_counts(pool, *epsilon);
            let mut ranked: Vec<u64> = counts.into_values().collect();
            ranked.sort_unstable_by(|a, b| b.cmp(a));
            let kth = k
                .checked_sub(1)
                .and_then(|i| ranked.get(i).copied())
                .unwrap_or(0);
            Ok(Bounds::new(kth as f64, (kth + unresolved) as f64))
        }
    }
}

/// The rank-`k` order-statistic bracket `[k-th largest L, k-th largest H]`
/// shared by TOP-K, MEDIAN and PERCENTILE partial answers: at most `k − 1`
/// true values can exceed the `k`-th largest `H`, and at least `k` reach
/// the `k`-th largest `L`.
fn rank_bounds(pool: &SharedPool, k: usize) -> Result<Bounds, ServerError> {
    if pool.is_empty() {
        return Err(ServerError::EmptyRelation);
    }
    let (lo, hi) = rank_bracket(pool, k, &mut Vec::new());
    Ok(Bounds::new(lo, hi))
}

/// Builds the session's answer for the tick: `Final` — [`Query::output`]
/// over the pool, the function the dedicated engine answers with — when
/// the query reached its stopping condition ([`demands`] is empty), the
/// anytime `Partial` otherwise.
///
/// # Errors
///
/// [`ServerError::EmptyRelation`] when an extreme-family query
/// (MAX/MIN/TOP-K) is answered over an empty pool — a typed error where
/// the pre-batched server panicked.
pub fn answer(
    query: &Query,
    pool: &SharedPool,
    relation: &BondRelation,
    done: bool,
) -> Result<Answer, ServerError> {
    if pool.is_empty()
        && matches!(
            query,
            Query::Max { .. }
                | Query::Min { .. }
                | Query::TopK { .. }
                | Query::Median { .. }
                | Query::Percentile { .. }
        )
    {
        return Err(ServerError::EmptyRelation);
    }
    if done {
        Ok(Answer::Final(query.output(pool, relation)))
    } else {
        Ok(Answer::Partial {
            bounds: partial_bounds(query, pool)?,
        })
    }
}

/// SUM's interval over a freshly invoked pool, or the typed error when the
/// weights carry it past `f64` (`weights` already sized to the pool). The
/// tick's floor validation asks once: per-object bounds only shrink within a
/// tick, so an interval that starts finite stays finite, and every later
/// [`weighted_interval`] of the tick may build its `Bounds` unchecked.
pub(crate) fn checked_sum_interval(pool: &SharedPool, weights: &[f64]) -> Result<Bounds, VaoError> {
    let (lo, hi) = weighted_endpoints(pool, |i| weights[i]);
    Bounds::try_new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vao::ops::selection::CmpOp;
    use vao::testkit::ScriptedObject;

    /// The paper's Table 2 objects (see `vao::ops::minmax` tests), boxed
    /// into a pool.
    fn table2_pool() -> SharedPool {
        let objs: Vec<Box<dyn vao::interface::ResultObject + Send>> = vec![
            Box::new(ScriptedObject::converging(
                &[(97.0, 101.0), (98.0, 99.0), (98.4, 98.405)],
                4,
                0.01,
            )),
            Box::new(ScriptedObject::converging(
                &[(95.0, 103.0), (96.0, 101.0), (98.0, 98.005)],
                4,
                0.01,
            )),
            Box::new(ScriptedObject::converging(
                &[(100.0, 106.0), (102.0, 104.0), (103.0, 103.005)],
                4,
                0.01,
            )),
        ];
        SharedPool::from_objects(objs, 0.05)
    }

    #[test]
    fn max_demand_mirrors_table2_scores() {
        let pool = table2_pool();
        let mut out = Vec::new();
        demands(&Query::Max { epsilon: 0.5 }, &pool, &mut out);
        // §5.1's worked example: o1 benefit 1, o2 benefit 2, o3 (the guess)
        // benefit 3 — here with the scripted est bounds.
        let find = |i: usize| out.iter().find(|d| d.object == i).map(|d| d.benefit);
        assert_eq!(find(2), Some(2.0 + 3.0 - 2.0)); // min(1,2)+min(3,2) = 3
        assert!(find(0).is_some() && find(1).is_some());
    }

    #[test]
    fn min_demand_flips_the_view() {
        let pool = table2_pool();
        let mut out = Vec::new();
        demands(&Query::Min { epsilon: 0.5 }, &pool, &mut out);
        // The MIN guess is the object with the lowest lower bound: o2 at 95.
        assert!(
            out.iter().any(|d| d.object == 1),
            "min contends around the lowest-lo object"
        );
    }

    #[test]
    fn sum_demand_is_weighted() {
        let pool = table2_pool();
        let mut out = Vec::new();
        let q = Query::Sum {
            weights: vec![0.0, 2.0, 1.0],
            epsilon: 0.1,
        };
        demands(&q, &pool, &mut out);
        assert!(
            !out.iter().any(|d| d.object == 0),
            "zero-weight objects are never demanded"
        );
        let b1 = out.iter().find(|d| d.object == 1).unwrap().benefit;
        // o2: est shrink (96-95)+(103-101) = 3, weight 2 -> 6.
        assert!((b1 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_demands_mean_final_answers() {
        let pool = table2_pool();
        let mut out = Vec::new();
        // ε = 8 is wider than every initial width: sum is immediately done.
        let q = Query::Sum {
            weights: vec![0.0, 0.0, 1.0],
            epsilon: 8.0,
        };
        demands(&q, &pool, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn selection_demand_carries_decision_bonus() {
        let pool = table2_pool();
        let mut out = Vec::new();
        let q = Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        };
        demands(&q, &pool, &mut out);
        // o3 ([100,106], est [102,104]) straddles 100 but its estimate
        // decides; o1/o2 straddle too.
        let d3 = out.iter().find(|d| d.object == 2).unwrap();
        // width shrink (102-100)+(106-104)=4, bonus width 6 -> 10.
        assert!((d3.benefit - 10.0).abs() < 1e-12);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn partial_bounds_bracket_every_query_shape() {
        let pool = table2_pool();
        let rel_check = |b: Bounds, lo: f64, hi: f64| {
            assert!(
                (b.lo() - lo).abs() < 1e-9 && (b.hi() - hi).abs() < 1e-9,
                "{b}"
            );
        };
        rel_check(
            partial_bounds(&Query::Max { epsilon: 0.01 }, &pool).unwrap(),
            100.0,
            106.0,
        );
        rel_check(
            partial_bounds(&Query::Min { epsilon: 0.01 }, &pool).unwrap(),
            95.0,
            101.0,
        );
        // Top-2: 2nd largest lo = 97, 2nd largest hi = 103.
        rel_check(
            partial_bounds(
                &Query::TopK {
                    k: 2,
                    epsilon: 0.01,
                },
                &pool,
            )
            .unwrap(),
            97.0,
            103.0,
        );
        // Selection > 100: none proven, all three unresolved.
        rel_check(
            partial_bounds(
                &Query::Selection {
                    op: CmpOp::Gt,
                    constant: 100.0,
                },
                &pool,
            )
            .unwrap(),
            0.0,
            3.0,
        );
        rel_check(
            partial_bounds(
                &Query::Sum {
                    weights: vec![1.0; 3],
                    epsilon: 0.1,
                },
                &pool,
            )
            .unwrap(),
            97.0 + 95.0 + 100.0,
            101.0 + 103.0 + 106.0,
        );
    }

    #[test]
    fn empty_pool_yields_typed_errors_not_panics() {
        let pool = SharedPool::from_objects(Vec::new(), 0.05);
        let rel = va_stream::BondRelation::from_universe(&bondlab::BondUniverse::generate(0, 1));
        for q in [
            Query::Max { epsilon: 0.1 },
            Query::Min { epsilon: 0.1 },
            Query::TopK { k: 1, epsilon: 0.1 },
        ] {
            assert_eq!(
                partial_bounds(&q, &pool).unwrap_err(),
                ServerError::EmptyRelation,
                "{q:?}"
            );
            assert_eq!(
                answer(&q, &pool, &rel, true).unwrap_err(),
                ServerError::EmptyRelation,
                "{q:?}"
            );
            let mut out = vec![Demand {
                object: 0,
                benefit: 1.0,
            }];
            demands(&q, &pool, &mut out);
            assert!(out.is_empty(), "empty pool demands nothing");
        }
        // Set/aggregate shapes legitimately answer over ∅.
        let sel = Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        };
        assert_eq!(partial_bounds(&sel, &pool).unwrap(), Bounds::new(0.0, 0.0));
        assert!(answer(&sel, &pool, &rel, true).unwrap().is_final());
    }

    #[test]
    fn median_demand_walks_the_outer_separation_first() {
        let pool = table2_pool();
        let mut out = Vec::new();
        demands(&Query::Median { epsilon: 0.5 }, &pool, &mut out);
        // n = 3 ⇒ members are the top-2 by hi: o3 (106) and o1 (101);
        // θ's holder is o1 (lo 97) and o2 (hi 103 ≥ 97) straddles. The
        // median demand must target exactly that separation pair.
        let objs: Vec<usize> = out.iter().map(|d| d.object).collect();
        assert!(objs.contains(&0), "θ's holder is demanded");
        assert!(objs.contains(&1), "the straddler is demanded");
        assert!(!objs.contains(&2), "o3 is clear of the boundary");
    }

    #[test]
    fn percentile_demand_prunes_objects_outside_the_sketch_band() {
        let objs: Vec<Box<dyn vao::interface::ResultObject + Send>> =
            [10.0, 20.0, 30.0, 40.0, 50.0]
                .iter()
                .map(|&v| {
                    Box::new(ScriptedObject::converging(
                        &[(v - 1.0, v + 1.0), (v - 0.005, v + 0.005)],
                        4,
                        0.01,
                    )) as Box<dyn vao::interface::ResultObject + Send>
                })
                .collect();
        let pool = SharedPool::from_objects(objs, 0.05);
        let mut out = Vec::new();
        let q = Query::Percentile {
            phi: 0.5,
            epsilon: 0.5,
        };
        demands(&q, &pool, &mut out);
        // Rank 3-from-top sits at ~30; the rank band is [29, 31] plus at
        // most one sketch bucket each side — far from every other object.
        assert_eq!(out.len(), 1, "only the band straddler is demanded: {out:?}");
        assert_eq!(out[0].object, 2);
        // And the answer path brackets the median-of-values.
        let b = partial_bounds(&q, &pool).unwrap();
        assert!(b.lo() <= 30.0 && 30.0 <= b.hi(), "{b}");
    }

    #[test]
    fn heavy_demand_prunes_uncontended_objects_to_an_exact_final() {
        let mut objs: Vec<Box<dyn vao::interface::ResultObject + Send>> = (0..4)
            .map(|_| {
                Box::new(ScriptedObject::converging(&[(100.1, 100.2)], 4, 0.01))
                    as Box<dyn vao::interface::ResultObject + Send>
            })
            .collect();
        // A wide straggler far from the heavy cell: its possible cells can
        // never reach the guaranteed top-1 count of 4.
        objs.push(Box::new(ScriptedObject::converging(
            &[(200.0, 203.0), (201.0, 201.005)],
            4,
            0.01,
        )));
        let pool = SharedPool::from_objects(objs, 0.05);
        let q = Query::HeavyHitters { k: 1, epsilon: 1.0 };
        let mut out = Vec::new();
        demands(&q, &pool, &mut out);
        assert!(
            out.is_empty(),
            "the straggler cannot contend with the resolved cell: {out:?}"
        );
        let rel = va_stream::BondRelation::from_universe(&bondlab::BondUniverse::generate(5, 1));
        match q.output(&pool, &rel) {
            va_stream::QueryOutput::Heavy { cells, ties } => {
                assert_eq!(cells.len(), 1);
                assert_eq!(cells[0].cell, 100);
                assert_eq!(cells[0].count, 4);
                assert!(ties.is_empty());
            }
            other => panic!("expected Heavy, got {other:?}"),
        }
        // Partial bounds on the k-th cell count: 4 resolved now, at most
        // one more from the straggler.
        let b = partial_bounds(&q, &pool).unwrap();
        assert_eq!((b.lo(), b.hi()), (4.0, 5.0));
    }

    mod nan_safe_orderings {
        use proptest::prelude::*;
        use vao::ops::score::{cmp_asc, cmp_desc};

        /// Any-bits floats: includes NaNs (every payload), ±∞, subnormals
        /// and negative zero — the values a buggy pricer could smuggle
        /// into an ordering.
        fn any_f64() -> impl Strategy<Value = f64> {
            any::<u64>().prop_map(f64::from_bits)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn comparators_are_total_even_on_non_finite(a in any_f64(), b in any_f64()) {
                // Totality: never panics, and the two orders are exact
                // mirrors, so min_by/sort_by see a consistent ordering.
                prop_assert_eq!(cmp_asc(a, b), cmp_desc(b, a));
                prop_assert_eq!(cmp_asc(a, b), cmp_asc(b, a).reverse());
                prop_assert_eq!(cmp_asc(a, a), std::cmp::Ordering::Equal);
            }

            #[test]
            fn sorting_non_finite_keys_never_aborts(mut vals in prop::collection::vec(any_f64(), 0..32)) {
                // The exact property the old partial_cmp().expect() lacked:
                // a sort over arbitrary bit patterns completes and is
                // totally ordered under the same comparator.
                vals.sort_by(|x, y| cmp_desc(*x, *y));
                for w in vals.windows(2) {
                    prop_assert!(cmp_desc(w[0], w[1]) != std::cmp::Ordering::Greater);
                }
            }
        }
    }
}
