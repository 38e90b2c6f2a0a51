//! Continuous-query definitions and outputs.
//!
//! The paper's example queries (§1.2):
//!
//! * **Q1** "Find all bonds priced above \$100" — [`Query::Selection`].
//! * **Q2** "Find the value of my bond portfolio, which is a weighted sum
//!   of bond prices" — [`Query::Sum`].
//! * **Q3** "Find the best performing (i.e. highest valued) bond" —
//!   [`Query::Max`].
//!
//! §5 defines each operator's *output* as a function of its result
//! objects' bounds. [`Query::output`] is that function, for every query
//! kind, over a [`View`]: the engine's adaptive mode calls it with the
//! objects its operator refined, the black-box baseline with its calibrated
//! values read as converged points, and `va-server` with its shared pool.

use vao::ops::count::classify;
use vao::ops::heavy::{cell_counts, rank_cells, HeavyCell};
use vao::ops::percentile::{rank_bracket, rank_from_top};
use vao::ops::score::{contest_top, straddlers, Flipped, View};
use vao::ops::selection::{decided, CmpOp};
use vao::ops::sum::{ave_weight, weighted_interval};
use vao::Bounds;

use crate::engine::EngineError;
use crate::relation::BondRelation;

/// A continuous query over `model(IR.rate, BD)` results.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Q1-style: bonds whose price satisfies `price ⟨op⟩ constant`.
    Selection {
        /// Comparison operator.
        op: CmpOp,
        /// The selection constant (e.g. \$100).
        constant: f64,
    },
    /// Q2-style: the weighted sum of all prices, to precision `epsilon`.
    Sum {
        /// Per-bond weights (shares held), aligned with the relation.
        weights: Vec<f64>,
        /// Output precision constraint ε.
        epsilon: f64,
    },
    /// Average price, to precision `epsilon`.
    Ave {
        /// Output precision constraint ε.
        epsilon: f64,
    },
    /// Q3-style: the highest-valued bond, its price bounded to `epsilon`.
    Max {
        /// Output precision constraint ε.
        epsilon: f64,
    },
    /// The lowest-valued bond, its price bounded to `epsilon`.
    Min {
        /// Output precision constraint ε.
        epsilon: f64,
    },
    /// Extension: the `k` highest-valued bonds, each bounded to `epsilon`.
    TopK {
        /// How many bonds to return.
        k: usize,
        /// Output precision constraint ε per member.
        epsilon: f64,
    },
    /// Extension: how many bonds satisfy `price ⟨op⟩ constant`, with up to
    /// `slack` bonds allowed to remain unclassified.
    Count {
        /// Comparison operator.
        op: CmpOp,
        /// The selection constant.
        constant: f64,
        /// Maximum number of unresolved bonds tolerated.
        slack: usize,
    },
    /// Extension: the median bond (rank `⌈N/2⌉` from the top) by exact
    /// two-phase separation, its price bounded to `epsilon`.
    Median {
        /// Output precision constraint ε.
        epsilon: f64,
    },
    /// Extension: bounds on the φ-quantile *value*, sketch-guided
    /// (`phi = 0.5` cross-checks [`Query::Median`]).
    Percentile {
        /// Quantile fraction in `[0, 1]` (`0.99` is the p99 price).
        phi: f64,
        /// Output precision constraint ε.
        epsilon: f64,
    },
    /// Extension: the `k` most-populated price cells of width `epsilon`,
    /// pruned by SpaceSaving/count-min summaries.
    HeavyHitters {
        /// How many cells to return.
        k: usize,
        /// Price cell width ε.
        epsilon: f64,
    },
}

impl Query {
    /// Stable lowercase name of the operator this query runs, used as the
    /// per-tick operator tag in [`crate::stats::TickStats`] and in trace
    /// output. Matches [`vao::trace::OperatorKind::name`] for the operators
    /// the core crate traces.
    #[must_use]
    pub fn operator_name(&self) -> &'static str {
        match self {
            Query::Selection { .. } => "selection",
            Query::Sum { .. } => "sum",
            Query::Ave { .. } => "ave",
            Query::Max { .. } => "max",
            Query::Min { .. } => "min",
            Query::TopK { .. } => "topk",
            Query::Count { .. } => "count",
            Query::Median { .. } => "median",
            Query::Percentile { .. } => "percentile",
            Query::HeavyHitters { .. } => "heavyhitters",
        }
    }

    /// The answer the view's current bounds imply: each operator's §5
    /// output, ids read off `relation` (aligned with the view).
    ///
    /// Meaningful once the query's stopping condition holds over `v` —
    /// whoever refined the objects decides that; nothing here iterates.
    /// The rank families need a non-empty view (and `1 ≤ k ≤ N` for
    /// TOP-K); SUM needs one weight per object. Callers reject the rest
    /// before they refine anything.
    #[must_use]
    pub fn output<V: View + ?Sized>(&self, v: &V, relation: &BondRelation) -> QueryOutput {
        let id = |i: usize| relation.bonds()[i].id;
        // MAX's (over the view) or MIN's (over the flipped view) contest at
        // `k = 1`: the guess and whatever still reaches it.
        let extreme =
            |(_, guess, unresolved): (Vec<usize>, usize, Vec<usize>)| QueryOutput::Extreme {
                bond_id: id(guess),
                bounds: v.bounds(guess),
                ties: unresolved.into_iter().map(id).collect(),
            };
        match self {
            Query::Selection { op, constant } => {
                // A plain loop on purpose: as `filter().map().collect()` this
                // arm measured twice as slow on the benchmark's answer layer
                // (`wire_fanout`, 48 SELECTs over 500 bonds per tick).
                let mut ids = Vec::new();
                for i in 0..v.len() {
                    if decided(v, i, *op, *constant).is_some_and(|d| d.satisfied) {
                        ids.push(id(i));
                    }
                }
                QueryOutput::Selected(ids)
            }
            Query::Count { op, constant, .. } => {
                let (lo, unresolved) = classify(v, *op, *constant);
                QueryOutput::Count {
                    lo,
                    hi: lo + unresolved.len(),
                }
            }
            Query::Sum { weights, .. } => QueryOutput::Aggregate {
                bounds: weighted_interval(v, |i| weights[i]),
            },
            Query::Ave { .. } => {
                let w = ave_weight(v.len());
                QueryOutput::Aggregate {
                    bounds: weighted_interval(v, |_| w),
                }
            }
            Query::Percentile { phi, .. } => {
                let (lo, hi) = rank_bracket(v, rank_from_top(*phi, v.len()), &mut Vec::new());
                QueryOutput::Aggregate {
                    bounds: Bounds::new(lo, hi),
                }
            }
            Query::Max { .. } => extreme(contest_top(v, 1)),
            Query::Min { .. } => extreme(contest_top(&Flipped(v), 1)),
            Query::Median { .. } => {
                // The quantile operator's two separations: the winner is the
                // boundary member; ties are the converged outer straddlers
                // plus the members still overlapping the winner.
                let (members, winner, outer) = contest_top(v, v.len().div_ceil(2));
                let mut ties: Vec<u32> = outer.into_iter().map(id).collect();
                ties.extend(straddlers(&Flipped(v), members, &[winner], winner).map(id));
                ties.sort_unstable();
                ties.dedup();
                QueryOutput::Extreme {
                    bond_id: id(winner),
                    bounds: v.bounds(winner),
                    ties,
                }
            }
            Query::TopK { k, .. } => {
                // The member guess is in rank order: descending upper bound.
                let (members, _, ties) = contest_top(v, *k);
                QueryOutput::Ranked {
                    members: members.iter().map(|&i| (id(i), v.bounds(i))).collect(),
                    ties: ties.into_iter().map(id).collect(),
                }
            }
            Query::HeavyHitters { k, epsilon } => {
                let (cells, ties) = rank_cells(cell_counts(v, *epsilon).0, *k);
                QueryOutput::Heavy { cells, ties }
            }
        }
    }
}

/// Borrowed view of a [`QueryOutput::Ranked`] answer: the `(bond id,
/// bounds)` members in rank order and the tie set.
pub type RankedView<'a> = (&'a [(u32, Bounds)], &'a [u32]);

/// The answer a query produces at one rate tick.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutput {
    /// Bond ids satisfying a selection predicate.
    Selected(Vec<u32>),
    /// The extreme bond and bounds on its price.
    Extreme {
        /// Winning bond id.
        bond_id: u32,
        /// Price bounds (width ≤ ε).
        bounds: Bounds,
        /// Bonds indistinguishable from the winner at full model accuracy.
        ties: Vec<u32>,
    },
    /// Bounds on an aggregate (sum/average).
    Aggregate {
        /// Aggregate bounds (width ≤ ε unless every model hit `minWidth`).
        bounds: Bounds,
    },
    /// The `k` best bonds with their price bounds, best first.
    Ranked {
        /// `(bond id, price bounds)` pairs in descending order.
        members: Vec<(u32, Bounds)>,
        /// Bonds indistinguishable from the weakest member.
        ties: Vec<u32>,
    },
    /// An integer-interval count.
    Count {
        /// Bonds proven to satisfy the predicate.
        lo: usize,
        /// `lo` plus the unresolved bonds.
        hi: usize,
    },
    /// The heaviest price cells and their populations.
    Heavy {
        /// The top cells by resolved-object count, heaviest first.
        cells: Vec<HeavyCell>,
        /// Non-member cells indistinguishable from the weakest member.
        ties: Vec<i64>,
    },
}

impl QueryOutput {
    /// Stable lowercase name of this output's shape, used in
    /// [`EngineError::OutputShape`] diagnostics.
    #[must_use]
    pub fn shape_name(&self) -> &'static str {
        match self {
            QueryOutput::Selected(_) => "selected",
            QueryOutput::Extreme { .. } => "extreme",
            QueryOutput::Aggregate { .. } => "aggregate",
            QueryOutput::Ranked { .. } => "ranked",
            QueryOutput::Count { .. } => "count",
            QueryOutput::Heavy { .. } => "heavy",
        }
    }

    /// The winning bond, its bounds and the tie set — or a typed
    /// [`EngineError::OutputShape`] when this is not an extreme output.
    pub fn as_extreme(&self) -> Result<(u32, Bounds, &[u32]), EngineError> {
        match self {
            QueryOutput::Extreme {
                bond_id,
                bounds,
                ties,
            } => Ok((*bond_id, *bounds, ties)),
            other => Err(EngineError::OutputShape {
                expected: "extreme",
                got: other.shape_name(),
            }),
        }
    }

    /// The ranked members and tie set — or [`EngineError::OutputShape`].
    pub fn as_ranked(&self) -> Result<RankedView<'_>, EngineError> {
        match self {
            QueryOutput::Ranked { members, ties } => Ok((members, ties)),
            other => Err(EngineError::OutputShape {
                expected: "ranked",
                got: other.shape_name(),
            }),
        }
    }

    /// The `[lo, hi]` count interval — or [`EngineError::OutputShape`].
    pub fn as_count(&self) -> Result<(usize, usize), EngineError> {
        match self {
            QueryOutput::Count { lo, hi } => Ok((*lo, *hi)),
            other => Err(EngineError::OutputShape {
                expected: "count",
                got: other.shape_name(),
            }),
        }
    }

    /// The aggregate bounds — or [`EngineError::OutputShape`].
    pub fn as_aggregate(&self) -> Result<Bounds, EngineError> {
        match self {
            QueryOutput::Aggregate { bounds } => Ok(*bounds),
            other => Err(EngineError::OutputShape {
                expected: "aggregate",
                got: other.shape_name(),
            }),
        }
    }

    /// The heavy cells and tie set — or [`EngineError::OutputShape`].
    pub fn as_heavy(&self) -> Result<(&[HeavyCell], &[i64]), EngineError> {
        match self {
            QueryOutput::Heavy { cells, ties } => Ok((cells, ties)),
            other => Err(EngineError::OutputShape {
                expected: "heavy",
                got: other.shape_name(),
            }),
        }
    }

    /// The selected ids — or [`EngineError::OutputShape`].
    pub fn as_selected(&self) -> Result<&[u32], EngineError> {
        match self {
            QueryOutput::Selected(ids) => Ok(ids),
            other => Err(EngineError::OutputShape {
                expected: "selected",
                got: other.shape_name(),
            }),
        }
    }

    /// Convenience: the selected ids, when this is a selection output.
    #[must_use]
    pub fn selected(&self) -> Option<&[u32]> {
        match self {
            QueryOutput::Selected(ids) => Some(ids),
            _ => None,
        }
    }

    /// Convenience: the aggregate/extreme bounds, when present.
    #[must_use]
    pub fn bounds(&self) -> Option<Bounds> {
        match self {
            QueryOutput::Extreme { bounds, .. } | QueryOutput::Aggregate { bounds } => {
                Some(*bounds)
            }
            QueryOutput::Selected(_)
            | QueryOutput::Ranked { .. }
            | QueryOutput::Count { .. }
            | QueryOutput::Heavy { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_accessors() {
        let sel = QueryOutput::Selected(vec![1, 2]);
        assert_eq!(sel.selected(), Some(&[1u32, 2][..]));
        assert_eq!(sel.bounds(), None);

        let agg = QueryOutput::Aggregate {
            bounds: Bounds::new(1.0, 2.0),
        };
        assert_eq!(agg.bounds(), Some(Bounds::new(1.0, 2.0)));
        assert_eq!(agg.selected(), None);

        let ext = QueryOutput::Extreme {
            bond_id: 3,
            bounds: Bounds::new(5.0, 5.01),
            ties: vec![],
        };
        assert_eq!(ext.bounds(), Some(Bounds::new(5.0, 5.01)));
    }

    #[test]
    fn queries_are_comparable() {
        let a = Query::Max { epsilon: 0.01 };
        let b = Query::Max { epsilon: 0.01 };
        assert_eq!(a, b);
        assert_ne!(a, Query::Min { epsilon: 0.01 });
    }
}
