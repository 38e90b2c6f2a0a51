//! Per-query refinement demand over the shared pool.
//!
//! Each registered query contributes a stateless *demand function*: given
//! the pool's current bounds, which objects does it still want refined and
//! what output-bound-width reduction does it expect from each. The benefit
//! formulas, contests and stopping tests are the §5 per-operator ones, and
//! not as a copy: [`SharedPool`] is a [`vao::ops::score::View`], so this
//! module calls the functions the `vao::ops` loops call — a MAX query
//! scores overlap reduction against its educated guess, a SUM query scores
//! weighted width reduction, COUNT/SELECT score expected classification
//! progress. Demands are re-derived every scheduler round, as the
//! per-operator loops re-derive their guess/unresolved sets after every
//! iteration, so the shared scheduler inherits their guess-revision
//! behavior for free. The answer is shared the same way: a `Final` is
//! [`Query::output`] over the pool, SUM's stopping interval is
//! `vao::ops::sum`'s. What stays here is what only a shared pool has: one
//! list per query instead of one pick, and the incremental caches of
//! [`RoundView`].
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
//! scheduler does not call them per round any more — it keeps a
//! [`RoundView`] that repairs the same state for the objects a round
//! iterated — but they remain the public API and the oracle the maintained
//! lists are tested against, and both paths emit through the *same*
//! per-object and per-phase functions in this file, which in turn score
//! through `vao::ops`: a benefit expression exists exactly once in the
//! workspace.

mod round;

pub use round::RoundView;
pub use va_persist::record::PassFail;

use std::collections::BTreeMap;

use va_sketch::IntervalQuantileSketch;
use va_stream::{BondRelation, Query};
use vao::error::VaoError;
use vao::ops::count::classify;
use vao::ops::heavy::{
    cell_counts, cell_span, contended, resolve_benefit, CellSpan, HeavySummaries,
};
use vao::ops::minmax::{max_envelope, min_envelope};
use vao::ops::percentile::{
    band_scan, fill_sketch, rank_band, rank_bracket, rank_from_top, SKETCH_ALPHA, SKETCH_BUDGET,
};
use vao::ops::score::{
    contest_top, est_shrink, score_separation, separated, straddlers, Flipped, View,
};
use vao::ops::selection::{decided, probe_benefit, CmpOp};
use vao::ops::sum::{ave_weight, weighted_endpoints, weighted_interval};
use vao::Bounds;

use crate::answer::Answer;
use crate::error::ServerError;
use crate::pool::SharedPool;

/// One query's appetite for refining one pool object.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    /// Pool object index.
    pub object: usize,
    /// Expected output-bound-width reduction, in the query's output units
    /// (§5's benefit estimate). May be zero when the object's own estimate
    /// predicts no progress; the scheduler's widest-first fallback still
    /// guarantees progress then.
    pub benefit: f64,
}

/// The sink the shared scoring functions emit `(object, benefit)` into.
fn push(out: &mut Vec<Demand>) -> impl FnMut(usize, f64) + '_ {
    |object, benefit| out.push(Demand { object, benefit })
}

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
    if pool.is_empty() {
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
        Query::Sum { weights, epsilon } => {
            demands_sum(pool, Weights::Per(weights), *epsilon, out);
        }
        Query::Ave { epsilon } => {
            demands_sum(pool, uniform(pool.len()), *epsilon, out);
        }
        Query::Max { epsilon } => demands_rank(pool, 1, *epsilon, out),
        Query::Min { epsilon } => demands_rank(&Flipped(pool), 1, *epsilon, out),
        Query::TopK { k, epsilon } => demands_rank(pool, *k, *epsilon, out),
        Query::Median { epsilon } => demands_median(pool, *epsilon, out),
        Query::Percentile { phi, epsilon } => {
            demands_percentile(pool, *phi, *epsilon, state, out);
        }
        Query::HeavyHitters { k, epsilon } => demands_heavy(pool, *k, *epsilon, state, out),
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
        Query::Sum { weights, .. } => Ok(Weights::Per(weights).interval(pool)),
        Query::Ave { .. } => Ok(uniform(pool.len()).interval(pool)),
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

// ---------------------------------------------------------------- weights

/// Weight source for SUM-family demands, without materializing a vector
/// per scheduler round.
#[derive(Clone, Copy)]
enum Weights<'a> {
    Uniform(f64),
    Per(&'a [f64]),
}

impl Weights<'_> {
    fn get(&self, i: usize) -> f64 {
        match self {
            Weights::Uniform(w) => *w,
            Weights::Per(ws) => ws[i],
        }
    }

    /// SUM/AVE's interval over the pool: the operators' index-order re-add,
    /// whose exact bits decide when the query stops.
    fn interval(self, pool: &SharedPool) -> Bounds {
        weighted_interval(pool, |i| self.get(i))
    }
}

fn uniform(n: usize) -> Weights<'static> {
    Weights::Uniform(ave_weight(n))
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

/// SUM/AVE stopping condition.
fn sum_done(pool: &SharedPool, w: Weights<'_>, epsilon: f64) -> bool {
    w.interval(pool).width() <= epsilon
}

/// Object `i`'s SUM/AVE demand — a function of its own columns only.
fn sum_entry(pool: &SharedPool, w: Weights<'_>, i: usize) -> Option<Demand> {
    let wi = w.get(i);
    if wi == 0.0 || pool.converged(i) {
        return None;
    }
    Some(Demand {
        object: i,
        benefit: wi * est_shrink(pool.bounds(i), pool.est_bounds(i)),
    })
}

/// Every object's SUM/AVE entry, in index order.
fn sum_entries(pool: &SharedPool, w: Weights<'_>, out: &mut Vec<Demand>) {
    out.extend((0..pool.len()).filter_map(|i| sum_entry(pool, w, i)));
}

fn demands_sum(pool: &SharedPool, w: Weights<'_>, epsilon: f64, out: &mut Vec<Demand>) {
    if !sum_done(pool, w, epsilon) {
        sum_entries(pool, w, out);
    }
}

// ---------------------------------------------------- selection and count

/// Object `i`'s SELECT/COUNT demand — a function of its own columns only:
/// demanded while undecided, with the decision bonus when the estimate
/// would settle the predicate.
fn classify_entry(pool: &SharedPool, op: CmpOp, constant: f64, i: usize) -> Option<Demand> {
    decided(pool, i, op, constant).is_none().then(|| Demand {
        object: i,
        benefit: probe_benefit(pool, i, op, constant),
    })
}

/// Every object's SELECT/COUNT entry, in index order.
fn classify_entries(pool: &SharedPool, op: CmpOp, constant: f64, out: &mut Vec<Demand>) {
    out.extend((0..pool.len()).filter_map(|i| classify_entry(pool, op, constant, i)));
}

fn demands_classify(
    pool: &SharedPool,
    op: CmpOp,
    constant: f64,
    slack: usize,
    out: &mut Vec<Demand>,
) {
    classify_entries(pool, op, constant, out);
    if out.len() <= slack {
        out.clear();
    }
}

// ------------------------------------------------------------ max and min

/// ε-refinement of an identified member (phase 2 of the extreme VAOs):
/// demand while wider than ε, scored by the estimated two-sided shrink
/// (widths and shrinks read the same through a flipped view).
fn refine_to_epsilon<V: View + ?Sized>(v: &V, i: usize, epsilon: f64, out: &mut Vec<Demand>) {
    let b = v.bounds(i);
    if b.width() > epsilon && !v.converged(i) {
        out.push(Demand {
            object: i,
            benefit: est_shrink(b, v.est_bounds(i)),
        });
    }
}

/// The unified extreme-family demand function: MAX (`k=1`), MIN (`k=1`,
/// over the flipped pool) and TOP-K are one separation + refinement
/// pipeline over the same contest.
fn demands_rank<V: View + ?Sized>(v: &V, k: usize, epsilon: f64, out: &mut Vec<Demand>) {
    if k == 0 {
        return; // rejected at subscribe; guarded for direct callers
    }
    let (members, theta_holder, unresolved) = contest_top(v, k);
    rank_phases(v, &members, theta_holder, &unresolved, epsilon, out);
}

/// The extreme family's two phases over an already-derived member guess,
/// θ holder and straddler set: separate, then refine every member to ε.
fn rank_phases<V: View + ?Sized>(
    v: &V,
    members: &[usize],
    theta_holder: usize,
    unresolved: &[usize],
    epsilon: f64,
    out: &mut Vec<Demand>,
) {
    if separated(v, theta_holder, unresolved) {
        for &m in members {
            refine_to_epsilon(v, m, epsilon, out);
        }
        return;
    }
    score_separation(v, theta_holder, unresolved, push(out));
}

// ----------------------------------------------------------------- median

/// MEDIAN's three phases, the quantile operator's: separate the top ⌈N/2⌉,
/// then find their minimum (the median holder) through the flipped pool,
/// then refine it to ε.
fn demands_median(pool: &SharedPool, epsilon: f64, out: &mut Vec<Demand>) {
    let (members, theta_holder, outer) = contest_top(pool, pool.len().div_ceil(2));
    median_phases(
        pool,
        &members,
        theta_holder,
        &outer,
        epsilon,
        &mut Vec::new(),
        out,
    );
}

/// MEDIAN's phases over an already-derived member guess (in member-guess
/// order — the inner θ benefit sums over it), θ holder and outer straddler
/// set. `inner` is scratch for the inner contenders.
fn median_phases(
    pool: &SharedPool,
    members: &[usize],
    theta_holder: usize,
    outer: &[usize],
    epsilon: f64,
    inner: &mut Vec<usize>,
    out: &mut Vec<Demand>,
) {
    if !separated(pool, theta_holder, outer) {
        score_separation(pool, theta_holder, outer, push(out));
        return;
    }
    // Inner MIN among the members. The min-lo member is exactly the flipped
    // pool's educated guess, i.e. θ's holder from the outer phase.
    let vmin = Flipped(pool);
    let winner = theta_holder;
    inner.clear();
    inner.extend(straddlers(
        &vmin,
        members.iter().copied(),
        &[winner],
        winner,
    ));
    if !separated(&vmin, winner, inner) {
        score_separation(&vmin, winner, inner, push(out));
        return;
    }
    refine_to_epsilon(pool, winner, epsilon, out);
}

// ------------------------------------------------- percentile (sketch-led)

/// PERCENTILE's sketch-guided demand: the output bounds are the rank-k
/// order statistics of the pool's lower and upper bounds; only objects
/// straddling the sketch's rank-k band can move them, so everything else
/// is pruned from the demand set without touching its bounds.
fn demands_percentile(
    pool: &SharedPool,
    phi: f64,
    epsilon: f64,
    state: &mut SketchState,
    out: &mut Vec<Demand>,
) {
    let k = rank_from_top(phi, pool.len());
    let (out_lo, out_hi) = rank_bracket(pool, k, &mut Vec::new());
    if out_hi - out_lo <= epsilon {
        return;
    }
    let sketch = state
        .quantile
        .get_or_insert_with(|| IntervalQuantileSketch::new(SKETCH_ALPHA, SKETCH_BUDGET));
    fill_sketch(sketch, pool);
    band_scan(pool, rank_band(sketch, k), push(out));
}

// ---------------------------------------------- heavy hitters (sketch-led)

/// HEAVYHITTERS' sketch-guided demand. Resolved objects feed a SpaceSaving
/// summary (for the admission threshold) and a count-min of settled cells;
/// unresolved objects charge every cell they might land in into a second
/// count-min. An object is *contended* — and demanded — only if some cell
/// it overlaps could still reach the k-th heaviest count. Both sketches
/// only ever overestimate, so pruning errs toward keeping objects.
fn demands_heavy(
    pool: &SharedPool,
    k: usize,
    width: f64,
    state: &mut SketchState,
    out: &mut Vec<Demand>,
) {
    let s = state
        .heavy
        .get_or_insert_with(|| HeavySummaries::new(k, pool.len()));
    let spans: Vec<CellSpan> = (0..pool.len()).map(|i| cell_span(pool, i, width)).collect();
    s.rebuild(&spans);
    heavy_scan(pool, &spans, s, k, width, out);
}

/// Demands the unresolved objects that are still [`contended`] under the
/// summaries `s` (which must hold exactly `spans`), each at the operator's
/// [`resolve_benefit`].
fn heavy_scan(
    pool: &SharedPool,
    spans: &[CellSpan],
    s: &HeavySummaries,
    k: usize,
    width: f64,
    out: &mut Vec<Demand>,
) {
    out.extend(contended(spans, s, k).map(|i| Demand {
        object: i,
        benefit: resolve_benefit(pool, i, width),
    }));
}

// ------------------------------------------- predicate outcome learning

/// Decided predicate outcomes required before the learned frequencies are
/// trusted to reorder probe demands. Below this the boost is inert, so a
/// couple of early coin-flip outcomes cannot skew the schedule.
pub const PRED_MIN_OUTCOMES: u64 = 16;

/// Per-predicate pass/fail frequencies accumulated across ticks, keyed by
/// the exact `(op, constant)` pair — the constant by bit pattern, so two
/// predicates that merely compare equal never share a counter.
///
/// This is the selection-VAO half of the tenant's calibration state (the
/// cost half is [`vao::cost::Calibrator`]): each tick the scheduler tallies
/// how every registered SELECT/COUNT predicate decided over the pool, and
/// on later ticks [`PredicateStats::boost`] multiplies the probe demand of
/// an unresolved object whose *estimated* bounds agree with the learned
/// majority direction — ordering probes by learned selectivity correlation
/// rather than treating every undecided object alike (after Joglekar et
/// al.'s correlated-predicate ordering). The counters are journaled with
/// the cost model, so a recovered server resumes with the same ordering.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PredicateStats {
    counters: BTreeMap<(u8, u64), PassFail>,
}

/// Stable per-op code used only as a map key / persistence tag.
fn op_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Gt => 0,
        CmpOp::Ge => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
    }
}

impl PredicateStats {
    /// Empty (untrained) state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no outcome has ever been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Tallies the query's predicate outcomes over the pool's current
    /// bounds (SELECT/COUNT only; every other shape is a no-op). Each tick
    /// re-counts the decided objects — the counters are frequencies, not a
    /// census, and only their *ratio* steers the boost.
    pub fn record_query(&mut self, query: &Query, pool: &SharedPool) {
        let (op, constant) = match query {
            Query::Selection { op, constant } | Query::Count { op, constant, .. } => {
                (*op, *constant)
            }
            _ => return,
        };
        let entry = self
            .counters
            .entry((op_code(op), constant.to_bits()))
            .or_default();
        for i in 0..pool.len() {
            match decided(pool, i, op, constant) {
                Some(d) if d.satisfied => entry.pass += 1,
                Some(_) => entry.fail += 1,
                None => {}
            }
        }
    }

    /// The learned counters for one predicate, if any.
    #[must_use]
    pub fn counter(&self, op: CmpOp, constant: f64) -> Option<PassFail> {
        self.counters
            .get(&(op_code(op), constant.to_bits()))
            .copied()
    }

    /// Restores one counter verbatim (recovery path). Later recoveries of
    /// the same predicate overwrite — journal replay is last-wins.
    pub fn restore_counter(&mut self, op: CmpOp, constant: f64, pf: PassFail) {
        self.counters.insert((op_code(op), constant.to_bits()), pf);
    }

    /// Iterates `(op, constant, counters)` in deterministic key order —
    /// the persistence layer serializes exactly this sequence.
    pub fn entries(&self) -> impl Iterator<Item = (CmpOp, f64, PassFail)> + '_ {
        self.counters.iter().map(|(&(code, bits), &pf)| {
            let op = match code {
                0 => CmpOp::Gt,
                1 => CmpOp::Ge,
                2 => CmpOp::Lt,
                _ => CmpOp::Le,
            };
            (op, f64::from_bits(bits), pf)
        })
    }

    /// `(majority outcome, correlation strength in ppm)` for a predicate,
    /// or `None` while under [`PRED_MIN_OUTCOMES`] or perfectly balanced.
    /// Strength is `|pass − fail| / (pass + fail)` scaled to 1e6 —
    /// all-integer, so recovered state replays to identical boosts.
    #[must_use]
    pub fn majority(&self, op: CmpOp, constant: f64) -> Option<(bool, u64)> {
        let pf = self.counter(op, constant)?;
        let total = pf.pass + pf.fail;
        if total < PRED_MIN_OUTCOMES || pf.pass == pf.fail {
            return None;
        }
        let diff = pf.pass.abs_diff(pf.fail);
        let ppm = (u128::from(diff) * 1_000_000 / u128::from(total)) as u64;
        Some((pf.pass > pf.fail, ppm))
    }

    /// Reorders a SELECT/COUNT demand list by learned correlation: an
    /// unresolved object whose *estimated* bounds would decide in the
    /// majority direction gets its benefit scaled by `1 + strength`, so
    /// the greedy scheduler probes the objects most likely to resolve the
    /// way the data historically leans first. Non-predicate queries and
    /// untrained predicates pass through untouched.
    pub fn boost(&self, query: &Query, pool: &SharedPool, out: &mut [Demand]) {
        let (op, constant) = match query {
            Query::Selection { op, constant } | Query::Count { op, constant, .. } => {
                (*op, *constant)
            }
            _ => return,
        };
        let Some((majority, ppm)) = self.majority(op, constant) else {
            return;
        };
        let factor = 1.0 + ppm as f64 / 1e6;
        for d in out {
            if op.decide(&pool.est_bounds(d.object), constant) == Some(majority) {
                d.benefit *= factor;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
