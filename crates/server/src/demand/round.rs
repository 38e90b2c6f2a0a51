//! The scheduler's round view: per-session demand lists kept current by
//! repairing what a round changed instead of recomputing everything.
//!
//! A scheduling round iterates a handful of objects (one, on the serial
//! schedule). [`RoundView::repair`] takes exactly that set and brings every
//! session's demand list to what [`super::demands`] would recompute from the
//! pool — same objects, same order, same benefit bits:
//!
//! * **Shared per round** — the two member-guess orders every rank-family
//!   session (MAX/MIN/TOPK/MEDIAN/PERCENTILE) reads are kept once per tick
//!   and repaired by re-inserting the iterated objects; members are a
//!   prefix, straddlers the run behind it, the PERCENTILE output bracket two
//!   positions. PERCENTILE's rank band is read from the same orders and
//!   each object's endpoint bucket keys, re-keyed for the iterated objects
//!   ([`BucketKeys`]); past [`SKETCH_BUDGET`] objects, where a sketch may
//!   collapse, the interval sketch is refilled at most once per round for
//!   all PERCENTILE sessions.
//! * **Patched per session** — SELECT/COUNT/SUM/AVE entries are functions of
//!   one object's own columns, so only the iterated objects' entries change;
//!   a HEAVYHITTERS session keeps each object's cell span and moves its
//!   count-min charges by exact ±1 deltas, and keeps its demand list while
//!   no span moves, recomputing only the iterated objects' benefits.
//! * **Recomputed per round** — the list-level stopping conditions, and
//!   every float *sum* (the SUM/AVE interval in index order, a θ holder's
//!   benefit over its straddlers in index order): those bits decide picks
//!   and stopping, so they are re-added in the recompute's order, never
//!   patched by subtract/add.
//!
//! State that cannot be proven equal to its rebuild falls back to the
//! rebuild, selected by the condition that breaks the proof: a SpaceSaving
//! summary that has replaced a counter is order-dependent, a resolved cell
//! that moves cannot be retracted from it, and a sketch over more objects
//! than its budget may collapse.
//!
//! From the lists, the round loop *selects* its picks
//! (`ChoicePolicy::top_k`) rather than sorting every candidate.

use va_sketch::IntervalQuantileSketch;
use va_stream::Query;
use vao::ops::count::classify_entry;
use vao::ops::drive::push;
use vao::ops::heavy::{cell_span, heavy_scan, resolve_benefit, CellSpan, HeavySummaries};
use vao::ops::percentile::{
    band_scan, fill_sketch, rank_band, rank_from_top, BucketKeys, SKETCH_ALPHA, SKETCH_BUDGET,
};
use vao::ops::quantile::quantile_phases;
use vao::ops::score::{
    boundary_holder, by_hi_then_lo, rank_phases, ranked, reaches, Flipped, View,
};
use vao::ops::sum::{ave_weight, sum_done, sum_entry};

use super::Demand;
use crate::pool::SharedPool;

/// Every session's outstanding demands over one tick's pool, maintained
/// across the tick's scheduling rounds. See the module docs for what is
/// shared, patched and recomputed.
#[derive(Debug)]
pub struct RoundView {
    sessions: Vec<SessionDemand>,
    /// Built iff some session is rank-family.
    orders: Option<RankOrders>,
    /// Built iff some session is PERCENTILE.
    band: Option<BandSource>,
    straddlers: Vec<usize>,
    inner: Vec<usize>,
}

#[derive(Debug)]
struct SessionDemand {
    cache: Cache,
    /// This round's demand list — what [`super::demands`] would return.
    list: Vec<Demand>,
}

/// What a session keeps between rounds.
#[derive(Debug)]
enum Cache {
    /// Rank-family sessions read the shared orders.
    None,
    /// SELECT/COUNT/SUM/AVE: the per-object entries in index order, before
    /// the list-level stopping condition is applied.
    Entries(Vec<Demand>),
    Heavy(HeavyCache),
}

#[derive(Debug)]
struct HeavyCache {
    spans: Vec<CellSpan>,
    summaries: HeavySummaries,
    /// The summaries no longer provably equal a rebuild from `spans`.
    stale: bool,
    /// The session's list holds the contended set of `spans` under
    /// `summaries`: no span moved since it was scanned.
    listed: bool,
}

/// Where the PERCENTILE sessions read their rank band from.
#[derive(Debug)]
enum BandSource {
    /// Pools of at most [`SKETCH_BUDGET`] objects: each object's endpoint
    /// buckets, re-keyed for the iterated objects only.
    Keys(BucketKeys),
    /// Larger pools, where the sketch may collapse: the sketch itself,
    /// refilled at most once per round (`fresh` once it holds this round's
    /// bounds).
    Sketch {
        sketch: IntervalQuantileSketch,
        fresh: bool,
    },
}

impl BandSource {
    fn build(pool: &SharedPool) -> Self {
        BucketKeys::new(pool).map_or_else(
            || BandSource::Sketch {
                sketch: IntervalQuantileSketch::new(SKETCH_ALPHA, SKETCH_BUDGET),
                fresh: false,
            },
            BandSource::Keys,
        )
    }

    /// The rank-`k` band [`rank_band`] reads from a sketch of the pool.
    fn rank_band(&mut self, pool: &SharedPool, orders: &RankOrders, k: usize) -> (f64, f64) {
        match self {
            BandSource::Keys(keys) => keys.rank_band(pool, &orders.asc, &orders.desc, k),
            BandSource::Sketch { sketch, fresh } => {
                if !*fresh {
                    fill_sketch(sketch, pool);
                    *fresh = true;
                }
                rank_band(sketch, k)
            }
        }
    }
}

/// The member-guess orders: `desc` is the plain view's `(hi desc, lo desc,
/// idx)`, `asc` the flipped view's — `(lo asc, hi asc, idx)`.
#[derive(Debug)]
struct RankOrders {
    desc: Vec<usize>,
    asc: Vec<usize>,
}

impl RankOrders {
    fn build(pool: &SharedPool) -> Self {
        Self {
            desc: ranked(pool),
            asc: ranked(&Flipped(pool)),
        }
    }

    fn repair(&mut self, pool: &SharedPool, changed: &[usize]) {
        reinsert(&mut self.desc, pool, changed);
        reinsert(&mut self.asc, &Flipped(pool), changed);
    }
}

/// Takes the (distinct) `changed` objects out of `order` and re-inserts each
/// at its new place. Everything else kept its keys, so it is still sorted,
/// and the order — `by_hi_then_lo`, then the index, which is how the stable
/// sort over an index-ordered pool leaves exact ties — is strict: the result
/// is the sequence a full sort gives.
fn reinsert<V: View + ?Sized>(order: &mut Vec<usize>, v: &V, changed: &[usize]) {
    order.retain(|i| !changed.contains(i));
    for &i in changed {
        let before = |&j: &usize| {
            by_hi_then_lo(v.bounds(j), v.bounds(i))
                .then(j.cmp(&i))
                .is_lt()
        };
        order.insert(order.partition_point(before), i);
    }
}

/// The rank-family parameters of a query: `(k, epsilon, flip)` for the
/// one-separation shapes.
fn rank_params(query: &Query) -> Option<(usize, f64, bool)> {
    match *query {
        Query::Max { epsilon } => Some((1, epsilon, false)),
        Query::Min { epsilon } => Some((1, epsilon, true)),
        Query::TopK { k, epsilon } => Some((k, epsilon, false)),
        _ => None,
    }
}

fn reads_orders(query: &Query) -> bool {
    rank_params(query).is_some() || matches!(query, Query::Median { .. } | Query::Percentile { .. })
}

/// Every object's entry for an entry-cached query shape, in index order,
/// dispatching on the query once rather than per object: a tick of SELECTs
/// over a whole relation is mostly this.
fn all_entries(query: &Query, pool: &SharedPool) -> Vec<Demand> {
    let objects = 0..pool.len();
    match query {
        Query::Selection { op, constant } | Query::Count { op, constant, .. } => objects
            .filter_map(|i| classify_entry(pool, *op, *constant, i))
            .collect(),
        Query::Sum { weights, .. } => objects
            .filter_map(|i| sum_entry(pool, weights[i], i))
            .collect(),
        Query::Ave { .. } => {
            let w = ave_weight(pool.len());
            objects.filter_map(|i| sum_entry(pool, w, i)).collect()
        }
        _ => Vec::new(),
    }
}

/// Object `i`'s entry for an entry-cached query shape: a function of its
/// own columns only.
fn entry_of(query: &Query, pool: &SharedPool, i: usize) -> Option<Demand> {
    match query {
        Query::Selection { op, constant } | Query::Count { op, constant, .. } => {
            classify_entry(pool, *op, *constant, i)
        }
        Query::Sum { weights, .. } => sum_entry(pool, weights[i], i),
        Query::Ave { .. } => sum_entry(pool, ave_weight(pool.len()), i),
        _ => None,
    }
}

/// The list-level condition of an entry-cached query shape: whether the
/// query still demands its entries. Re-evaluated every round — the SUM/AVE
/// interval is re-added over the whole pool, in index order.
fn entries_demanded(query: &Query, pool: &SharedPool, entries: &[Demand]) -> bool {
    match query {
        Query::Count { slack, .. } => entries.len() > *slack,
        Query::Sum { weights, epsilon } => !sum_done(pool, |i| weights[i], *epsilon),
        Query::Ave { epsilon } => {
            let w = ave_weight(pool.len());
            !sum_done(pool, |_| w, *epsilon)
        }
        _ => true,
    }
}

/// Replaces, inserts or removes object `i`'s entry in an index-ordered list.
fn patch(entries: &mut Vec<Demand>, i: usize, entry: Option<Demand>) {
    let at = entries.partition_point(|d| d.object < i);
    let present = entries.get(at).is_some_and(|d| d.object == i);
    match (entry, present) {
        (Some(d), true) => entries[at] = d,
        (Some(d), false) => entries.insert(at, d),
        (None, true) => {
            entries.remove(at);
        }
        (None, false) => {}
    }
}

impl HeavyCache {
    fn build(pool: &SharedPool, k: usize, width: f64) -> Self {
        let spans: Vec<CellSpan> = (0..pool.len()).map(|i| cell_span(pool, i, width)).collect();
        let mut summaries = HeavySummaries::new(k, pool.len());
        summaries.rebuild(&spans);
        Self {
            spans,
            summaries,
            stale: false,
            listed: false,
        }
    }

    /// Brings the cache and the session's `list` up to date after the
    /// objects `changed` were iterated. The contended set is a function of
    /// the spans and the summaries, and the summaries of the spans: while
    /// no span moves the list keeps its objects, and only the iterated
    /// ones' benefits change.
    fn repair(&mut self, pool: &SharedPool, changed: &[usize], width: f64, list: &mut [Demand]) {
        for &i in changed {
            self.move_span(pool, i, width);
        }
        if self.listed {
            for &i in changed {
                if let Ok(at) = list.binary_search_by_key(&i, |d| d.object) {
                    list[at].benefit = resolve_benefit(pool, i, width);
                }
            }
        }
    }

    /// Moves object `i`'s charges from its old span to its new one. The
    /// count-min grids are sums of per-object charges, so ±1 is exact. The
    /// SpaceSaving summary only takes offers: exact (and order-free) until
    /// it replaces a counter, and a resolved cell cannot be taken back.
    fn move_span(&mut self, pool: &SharedPool, i: usize, width: f64) {
        let new = cell_span(pool, i, width);
        let old = std::mem::replace(&mut self.spans[i], new);
        if old == new {
            return;
        }
        self.listed = false;
        if self.stale {
            return;
        }
        match old {
            CellSpan::Pending { lo, hi } => self.summaries.remove_pending(lo, hi),
            CellSpan::Resolved(_) => {
                self.stale = true;
                return;
            }
        }
        self.summaries.add(new);
        self.stale = !self.summaries.is_exact();
    }

    /// Rescans the contended set into `out` unless it is still listed
    /// there.
    fn emit(&mut self, pool: &SharedPool, k: usize, width: f64, out: &mut Vec<Demand>) {
        if self.listed {
            return;
        }
        if self.stale {
            self.summaries.rebuild(&self.spans);
            self.stale = false;
        }
        out.clear();
        heavy_scan(pool, &self.spans, &self.summaries, k, width, out);
        self.listed = true;
    }
}

impl RoundView {
    /// Derives every session's demand list from the pool's current state —
    /// the one full computation of a tick.
    #[must_use]
    pub fn build<'q>(
        queries: impl IntoIterator<Item = &'q Query> + Clone,
        pool: &SharedPool,
    ) -> Self {
        let sessions = queries
            .clone()
            .into_iter()
            .map(|query| SessionDemand {
                cache: match query {
                    Query::Selection { .. }
                    | Query::Count { .. }
                    | Query::Sum { .. }
                    | Query::Ave { .. } => Cache::Entries(all_entries(query, pool)),
                    Query::HeavyHitters { k, epsilon } => {
                        Cache::Heavy(HeavyCache::build(pool, *k, *epsilon))
                    }
                    _ => Cache::None,
                },
                list: Vec::new(),
            })
            .collect();
        let mut view = Self {
            sessions,
            orders: queries
                .clone()
                .into_iter()
                .any(reads_orders)
                .then(|| RankOrders::build(pool)),
            band: queries
                .clone()
                .into_iter()
                .any(|q| matches!(q, Query::Percentile { .. }))
                .then(|| BandSource::build(pool)),
            straddlers: Vec::new(),
            inner: Vec::new(),
        };
        view.emit(queries, pool);
        view
    }

    /// Brings every list up to date after the (distinct) objects `changed`
    /// were iterated. `queries` must be the sessions the view was built
    /// over, in the same order.
    pub fn repair<'q>(
        &mut self,
        queries: impl IntoIterator<Item = &'q Query> + Clone,
        pool: &SharedPool,
        changed: &[usize],
    ) {
        if let Some(orders) = &mut self.orders {
            orders.repair(pool, changed);
        }
        match &mut self.band {
            Some(BandSource::Keys(keys)) => keys.repair(pool, changed),
            Some(BandSource::Sketch { fresh, .. }) => *fresh = false,
            None => {}
        }
        for (sess, query) in self.sessions.iter_mut().zip(queries.clone()) {
            match (&mut sess.cache, query) {
                (Cache::Entries(entries), _) => {
                    for &i in changed {
                        patch(entries, i, entry_of(query, pool, i));
                    }
                }
                (Cache::Heavy(heavy), Query::HeavyHitters { epsilon, .. }) => {
                    heavy.repair(pool, changed, *epsilon, &mut sess.list);
                }
                _ => {}
            }
        }
        self.emit(queries, pool);
    }

    /// Session `s`'s outstanding demands this round. Empty ⇔ the session
    /// can answer `Final` from the pool's current bounds.
    #[must_use]
    pub fn demands(&self, s: usize) -> &[Demand] {
        &self.sessions[s].list
    }

    /// Sessions whose demand list is non-empty.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.sessions.iter().filter(|s| !s.list.is_empty()).count()
    }

    /// Applies the list-level conditions and the rank-family phases to the
    /// (already repaired) caches, filling every session's list.
    fn emit<'q>(&mut self, queries: impl IntoIterator<Item = &'q Query>, pool: &SharedPool) {
        let Self {
            sessions,
            orders,
            band,
            straddlers,
            inner,
        } = self;
        let n = pool.len();
        for (sess, query) in sessions.iter_mut().zip(queries) {
            let out = &mut sess.list;
            if let (Query::HeavyHitters { k, epsilon }, Cache::Heavy(heavy)) =
                (query, &mut sess.cache)
            {
                heavy.emit(pool, *k, *epsilon, out);
                continue;
            }
            out.clear();
            if n == 0 {
                continue;
            }
            match (query, &mut sess.cache) {
                (_, Cache::Entries(entries)) => {
                    if entries_demanded(query, pool, entries) {
                        out.extend_from_slice(entries);
                    }
                }
                (Query::Median { epsilon }, _) => {
                    let Some(orders) = orders else { continue };
                    let members = &orders.desc[..n.div_ceil(2)];
                    let theta_holder = boundary_holder(pool, members);
                    run_behind(pool, &orders.desc, members.len(), theta_holder, straddlers);
                    quantile_phases(
                        pool,
                        members,
                        theta_holder,
                        straddlers,
                        *epsilon,
                        inner,
                        out,
                    );
                }
                (Query::Percentile { phi, epsilon }, _) => {
                    let (Some(orders), Some(band)) = (&*orders, &mut *band) else {
                        continue;
                    };
                    // The k-th largest hi and lo are positions in the two
                    // orders (ties carry equal values, so any tie order
                    // reads the same bits).
                    let k = rank_from_top(*phi, n);
                    let at = k.clamp(1, n);
                    let out_hi = pool.bounds(orders.desc[at - 1]).hi();
                    let out_lo = pool.bounds(orders.asc[n - at]).lo();
                    if out_hi - out_lo <= *epsilon {
                        continue;
                    }
                    band_scan(pool, band.rank_band(pool, orders, k), push(out));
                }
                _ => {
                    let (Some((k, epsilon, flip)), Some(orders)) = (rank_params(query), &orders)
                    else {
                        continue;
                    };
                    if flip {
                        rank_round(&Flipped(pool), &orders.asc, k, epsilon, straddlers, out);
                    } else {
                        rank_round(pool, &orders.desc, k, epsilon, straddlers, out);
                    }
                }
            }
        }
    }
}

/// One rank-family session's round over the maintained `order` of view
/// `v`: the members are its `k`-prefix, the straddlers the run behind it.
fn rank_round<V: View + ?Sized>(
    v: &V,
    order: &[usize],
    k: usize,
    epsilon: f64,
    straddlers: &mut Vec<usize>,
    out: &mut Vec<Demand>,
) {
    let members = &order[..k.min(order.len())];
    if members.is_empty() {
        return; // k == 0 (rejected at subscribe)
    }
    let theta_holder = boundary_holder(v, members);
    run_behind(v, order, members.len(), theta_holder, straddlers);
    rank_phases(v, members, theta_holder, straddlers, epsilon, out);
}

/// The straddlers of a member prefix: the order is by `hi` descending, so
/// the non-members reaching θ are the run right behind the `k` members.
/// Returned in index order — the θ holder's benefit sums over them in that
/// order.
fn run_behind<V: View + ?Sized>(
    v: &V,
    order: &[usize],
    k: usize,
    theta_holder: usize,
    out: &mut Vec<usize>,
) {
    let theta = v.bounds(theta_holder).lo();
    out.clear();
    out.extend(
        order[k..]
            .iter()
            .copied()
            .take_while(|&i| reaches(v, i, theta)),
    );
    out.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::demands;
    use vao::cost::WorkMeter;
    use vao::interface::ResultObject;
    use vao::ops::selection::CmpOp;
    use vao::testkit::ScriptedObject;

    fn pool_of(scripts: &[Vec<(f64, f64)>]) -> SharedPool {
        let objects = scripts
            .iter()
            .map(|s| {
                Box::new(ScriptedObject::converging(s, 3, 0.01)) as Box<dyn ResultObject + Send>
            })
            .collect();
        SharedPool::from_objects(objects, 0.05)
    }

    fn assert_matches_recompute(view: &RoundView, queries: &[Query], pool: &SharedPool) {
        let mut oracle = Vec::new();
        for (s, query) in queries.iter().enumerate() {
            demands(query, pool, &mut oracle);
            let bits = |l: &[Demand]| -> Vec<(usize, u64)> {
                l.iter().map(|d| (d.object, d.benefit.to_bits())).collect()
            };
            assert_eq!(
                bits(view.demands(s)),
                bits(&oracle),
                "session {s} {query:?}"
            );
        }
    }

    /// Iterates the objects in `schedule` (one batch per entry), repairing
    /// and comparing against the recompute after every batch.
    fn drive(pool: &mut SharedPool, queries: &[Query], schedule: &[Vec<usize>]) -> RoundView {
        let mut view = RoundView::build(queries, pool);
        assert_matches_recompute(&view, queries, pool);
        for batch in schedule {
            for &i in batch {
                pool.iterate(i, &mut WorkMeter::new());
            }
            view.repair(queries, pool, batch);
            assert_matches_recompute(&view, queries, pool);
        }
        view
    }

    fn heavy_cache(view: &RoundView, s: usize) -> &HeavyCache {
        match &view.sessions[s].cache {
            Cache::Heavy(h) => h,
            other => panic!("session {s} keeps {other:?}"),
        }
    }

    #[test]
    fn heavy_summaries_past_capacity_fall_back_to_the_rebuild() {
        // 80 objects, each straddling a cell boundary of its own and then
        // resolving into its own cell: more distinct resolved cells than
        // the SpaceSaving capacity (64 for k ≤ 16), so from the 65th on the
        // summary replaces counters and depends on offer order. Objects
        // resolve back to front — the opposite of the rebuild's index order.
        let scripts: Vec<Vec<(f64, f64)>> = (0..80)
            .map(|i| {
                let c = 10.0 + 3.0 * i as f64;
                vec![(c - 0.2, c + 0.2), (c + 0.05, c + 0.15)]
            })
            .collect();
        let mut pool = pool_of(&scripts);
        let queries = [
            Query::HeavyHitters { k: 2, epsilon: 1.0 },
            Query::HeavyHitters { k: 1, epsilon: 0.5 },
        ];
        let schedule: Vec<Vec<usize>> = (0..80).rev().map(|i| vec![i]).collect();
        let view = drive(&mut pool, &queries, &schedule);
        assert!(
            !heavy_cache(&view, 0).summaries.is_exact(),
            "the run must have pushed the summary past capacity"
        );
    }

    #[test]
    fn a_resolved_cell_that_moves_is_rebuilt_not_patched() {
        // Object 0 sits wholly inside cell 10, then (a non-nested script, as
        // a warm-started adapter could produce) wholly inside cell 11: its
        // offer to the SpaceSaving summary cannot be taken back.
        let scripts = vec![
            vec![(10.1, 10.2), (11.1, 11.2)],
            vec![(10.3, 10.4)],
            vec![(9.5, 11.5), (10.6, 11.4), (11.2, 11.3)],
            vec![(10.9, 11.6), (11.3, 11.4)],
        ];
        let mut pool = pool_of(&scripts);
        let queries = [Query::HeavyHitters { k: 1, epsilon: 1.0 }];
        drive(&mut pool, &queries, &[vec![2], vec![0], vec![3], vec![2]]);
    }

    #[test]
    fn ties_and_batches_keep_the_orders_equal_to_a_sort() {
        // Identical bounds (ties down to the index), equal endpoints across
        // objects, and batches that move several tied objects at once.
        let twin = vec![(95.0, 105.0), (98.0, 102.0), (99.5, 100.5), (99.9, 100.0)];
        let mut scripts = vec![twin.clone(); 5];
        scripts.push(vec![(98.0, 105.0), (100.0, 102.0), (100.0, 100.5)]);
        scripts.push(vec![(95.0, 102.0), (98.0, 100.5), (99.9, 100.0)]);
        scripts.push(vec![(100.0, 100.0)]);
        scripts.push(vec![(90.0, 99.0), (95.0, 98.0)]);
        let mut pool = pool_of(&scripts);
        let n = scripts.len();
        let queries = [
            Query::Max { epsilon: 0.2 },
            Query::Min { epsilon: 0.2 },
            Query::TopK { k: 3, epsilon: 0.2 },
            Query::TopK { k: n, epsilon: 0.2 },
            Query::Median { epsilon: 0.2 },
            Query::Percentile {
                phi: 0.25,
                epsilon: 0.2,
            },
            Query::Percentile {
                phi: 1.0,
                epsilon: 0.2,
            },
            Query::Selection {
                op: CmpOp::Ge,
                constant: 100.0,
            },
            Query::Count {
                op: CmpOp::Lt,
                constant: 100.0,
                slack: 2,
            },
            Query::Sum {
                weights: vec![1.0, 0.0, 2.0, 1.0, 0.5, 1.0, 0.0, 1.0, 3.0],
                epsilon: 4.0,
            },
            Query::Ave { epsilon: 0.3 },
            Query::HeavyHitters { k: 2, epsilon: 1.0 },
        ];
        let schedule = vec![
            vec![0, 1, 2],
            vec![4],
            vec![3, 5, 6, 8],
            vec![0, 1],
            vec![2, 3, 4, 5, 6],
            vec![0],
            vec![1, 2, 3, 4],
            vec![7], // already converged: iterating it changes nothing
        ];
        drive(&mut pool, &queries, &schedule);
    }

    /// The one HEAVYHITTERS entry `object`'s benefit bits in session 0.
    fn heavy_benefit(view: &RoundView, object: usize) -> Option<u64> {
        let list = view.demands(0);
        let entry = list.iter().find(|d| d.object == object);
        entry.map(|d| d.benefit.to_bits())
    }

    #[test]
    fn a_heavy_benefit_that_moves_inside_its_span_is_patched() {
        // Object 0 narrows without leaving cells 9..=11: its span, and so
        // the summaries and the contended set, stay; its benefit (the
        // estimated shrink, 0.2 then 0.6) moves. The two resolved
        // singletons keep it contended.
        let scripts = vec![
            vec![(9.5, 11.5), (9.6, 11.4), (9.9, 11.1), (10.2, 10.3)],
            vec![(10.3, 10.4)],
            vec![(11.1, 11.2)],
        ];
        let mut pool = pool_of(&scripts);
        let queries = [Query::HeavyHitters { k: 1, epsilon: 1.0 }];
        let mut view = RoundView::build(&queries, &pool);
        let (span, before) = (cell_span(&pool, 0, 1.0), heavy_benefit(&view, 0));
        assert!(before.is_some(), "object 0 starts contended");
        pool.iterate(0, &mut WorkMeter::new());
        view.repair(&queries, &pool, &[0]);
        assert_eq!(cell_span(&pool, 0, 1.0), span, "the span did not move");
        assert!(heavy_cache(&view, 0).listed, "the list was kept");
        assert_ne!(heavy_benefit(&view, 0), before, "the benefit moved");
        assert_matches_recompute(&view, &queries, &pool);
    }

    #[test]
    fn a_heavy_span_that_moves_rescans_the_list() {
        // Object 0 resolves into cell 10 and leaves the contended set.
        // Object 3, straddling 11..=12, stays: landing in cell 11 would
        // tie cell 10's count of 2.
        let scripts = vec![
            vec![(9.5, 11.5), (10.2, 10.8)],
            vec![(10.3, 10.4)],
            vec![(11.1, 11.2)],
            vec![(11.5, 12.5), (11.6, 12.4)],
        ];
        let mut pool = pool_of(&scripts);
        let queries = [Query::HeavyHitters { k: 1, epsilon: 1.0 }];
        let mut view = RoundView::build(&queries, &pool);
        let listed =
            |v: &RoundView| -> Vec<usize> { v.demands(0).iter().map(|d| d.object).collect() };
        assert_eq!(listed(&view), vec![0, 3]);
        pool.iterate(0, &mut WorkMeter::new());
        view.repair(&queries, &pool, &[0]);
        assert_eq!(cell_span(&pool, 0, 1.0), CellSpan::Resolved(10));
        assert_eq!(listed(&view), vec![3]);
        assert_matches_recompute(&view, &queries, &pool);
    }

    /// `n` objects around 100, a few cents apart, each narrowing twice.
    fn percentile_pool(n: usize) -> SharedPool {
        let scripts: Vec<Vec<(f64, f64)>> = (0..n)
            .map(|i| {
                let c = 100.0 + 0.03 * i as f64;
                vec![
                    (c - 2.0, c + 2.0),
                    (c - 0.4, c + 0.3),
                    (c - 0.002, c + 0.002),
                ]
            })
            .collect();
        pool_of(&scripts)
    }

    #[test]
    fn percentile_bands_come_from_kept_keys_up_to_the_sketch_budget() {
        // At the budget the keys serve the band; one object more and a
        // sketch could collapse, so it is filled instead. Either way every
        // round equals the recompute, which always fills.
        let queries = [
            Query::Percentile {
                phi: 0.5,
                epsilon: 0.01,
            },
            Query::Percentile {
                phi: 0.9,
                epsilon: 0.01,
            },
        ];
        for (n, keyed) in [(SKETCH_BUDGET, true), (SKETCH_BUDGET + 1, false)] {
            let mut pool = percentile_pool(n);
            let schedule: Vec<Vec<usize>> = [n / 2, n / 10, n / 2 + 1, n / 2, 3, n - 1]
                .into_iter()
                .map(|i| vec![i])
                .collect();
            let view = drive(&mut pool, &queries, &schedule);
            assert_eq!(
                matches!(view.band, Some(BandSource::Keys(_))),
                keyed,
                "{n} objects"
            );
        }
    }

    #[test]
    fn an_empty_pool_demands_nothing() {
        let pool = SharedPool::from_objects(Vec::new(), 0.05);
        let queries = [
            Query::Max { epsilon: 0.1 },
            Query::Median { epsilon: 0.1 },
            Query::Ave { epsilon: 0.1 },
            Query::HeavyHitters { k: 1, epsilon: 1.0 },
        ];
        let mut view = RoundView::build(&queries, &pool);
        assert_eq!(view.outstanding(), 0);
        view.repair(&queries, &pool, &[]);
        assert_matches_recompute(&view, &queries, &pool);
    }
}
