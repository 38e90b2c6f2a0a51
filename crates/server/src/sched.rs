//! The server's half of §5's round loop, and budget arbitration.
//!
//! §5's operators make a *per-operator* greedy choice: iterate the result
//! object with the highest estimated benefit per `estCPU`. A tick lifts
//! that choice *across queries* by running the operators' own loop,
//! [`vao::ops::drive::run_rounds`], over two server-side pieces: the
//! sessions' priority-weighted demand lists over the shared pool
//! ([`Sessions`], kept current by a [`RoundView`](crate::demand::RoundView)
//! that repairs what a round changed), and [`TickPool`], the pool as the
//! loop sees it. An iteration that one query pays for tightens the same
//! bounds every other query reads — work sharing falls out of the pooling
//! rather than needing any cross-query bookkeeping.
//!
//! **Batched rounds.** The loop picks the top-`batch` candidates on
//! *distinct* objects and admits the longest prefix whose summed `estCPU`
//! fits the remaining budget; [`TickPool`] runs the admitted `iterate()`
//! calls — inline for one object, otherwise same-shape refinements as
//! lanes of one SoA solve and the rest scalar, on scoped worker threads
//! when `workers > 1` (a refinement that solves nothing always
//! runs inline). With `batch = 1` a one-session tick is the
//! dedicated operator's schedule, and for a fixed batch the results are
//! bit-identical regardless of worker count or route: workers only change
//! *who* executes an already-chosen batch, never what is chosen, and work
//! counters are additive.
//!
//! **Kept columns.** A §4.1 refinement of a bond's PDE object solves a
//! `t = 0` column that does not depend on the rate (the rate is only the
//! point the column is interpolated at). A relation's [`ColumnStore`]
//! keeps the columns its lane solves produced, keyed by bond position and
//! mesh, and a later tick commits an admitted refinement whose column is
//! held straight from it — inline, without solving. The commit is the
//! lane's own (`interpolate`, `store`, `accept`), so answers, charges and
//! hence the schedule are exactly the solve's: the store only saves wall
//! time. The tick's pool invocation reads the same store for the §4.1
//! construction trio ([`ColumnStore::lend`]), whose three coarse meshes
//! every bond solves on every tick. It is read-only during a tick; what a
//! tick solves travels out in [`TickColumns`] and is merged when the tick
//! commits.
//!
//! The per-tick **work budget** bounds the tick in deterministic work
//! units. The loop stops *before* any round whose `estCPU` would overrun
//! it; sessions still demanding refinement then degrade to anytime
//! [`Answer::Partial`] bounds instead of blocking the tick (§7's graceful
//! degradation, applied to scheduling).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use va_numerics::pde::{step_batch_keeping, KeepColumn, TrioColumns};
use va_persist::record::SessionTickRecord;
use va_stream::{BondRelation, Query};
use vao::batch::{BatchLane, GridShape};
use vao::cost::{Work, WorkMeter};
use vao::interface::ResultObject;
use vao::ops::drive::{run_rounds, Demand, DemandSource, Pool, Schedule, Step};
use vao::ops::DEFAULT_ITERATION_LIMIT;
use vao::strategy::ChoicePolicy;
use vao::trace::{ExecObserver, OperatorEndRecord, OperatorKind};
use vao::Bounds;

use crate::answer::Answer;
use crate::demand::{self, RoundView};
use crate::error::ServerError;
use crate::pool::SharedPool;
use crate::session::{SessionId, SessionRegistry};

/// What one scheduled tick produced. The tick itself changes nothing but
/// the pool: what it means for the sessions' counters travels here, for
/// the caller to apply once the tick is journaled.
#[derive(Clone, Debug)]
pub(crate) struct TickOutcome {
    /// Per-session answers, in registration order.
    pub answers: Vec<(SessionId, Answer)>,
    /// Per-session outcome deltas (final or partial, iterations driven),
    /// in registration order: the journal record's `sessions` array and
    /// the argument of [`SessionRegistry::apply_tick`].
    pub sessions: Vec<SessionTickRecord>,
    /// Whether the work budget ran out with demand still outstanding.
    pub budget_exhausted: bool,
    /// What the tick read from and solved for the relation's column store.
    pub columns: TickColumns,
}

/// Bytes of kept `t = 0` columns one relation's column store holds at
/// most (see [`crate::Server::column_stats_in`]).
pub const COLUMN_STORE_BYTES: usize = 1 << 20;

/// A relation's kept `t = 0` columns, by bond position and mesh: the
/// construction trio's and the refinements'.
///
/// Derived state: filled from the relation's own lane solves, never
/// journaled or snapshotted, empty after a restart. Serving from it
/// changes no answer, charge or schedule, so what it holds — and whether
/// it holds anything — is invisible outside wall time. Looked up by
/// position: a slot read, then a scan of that bond's few meshes. Each
/// bond's columns share one buffer, so taking in a bond's trio is one
/// allocation, not three. Bounded: a merge that leaves more than its byte
/// limit of columns evicts the columns with the fewest cells first (ties
/// by position, then mesh), new or held, so it keeps the meshes that are
/// dearest to solve again.
#[derive(Debug, Default)]
pub(crate) struct ColumnStore {
    /// Per bond position, the columns held.
    by_position: Vec<BondColumns>,
    /// Every held column's key, smallest first: the eviction order.
    order: BinaryHeap<Reverse<ColumnKey>>,
    stats: ColumnStats,
}

/// A held column's place in the eviction order: `(cells, position, nt,
/// nx)`.
type ColumnKey = (Work, usize, u32, u32);

/// One bond's held columns, back to back in `data` in the order of
/// `meshes` (each `shape.rows()` entries).
#[derive(Debug, Default)]
struct BondColumns {
    meshes: Vec<GridShape>,
    data: Vec<f64>,
}

impl BondColumns {
    /// The column on `shape`, if held: its index in `meshes` and where it
    /// starts in `data`.
    fn find(&self, shape: GridShape) -> Option<(usize, usize)> {
        let mut start = 0;
        for (at, &held) in self.meshes.iter().enumerate() {
            if held == shape {
                return Some((at, start));
            }
            start += held.rows();
        }
        None
    }
}

/// A relation's column store: its size and lifetime counters, read
/// through [`crate::Server::column_stats_in`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Columns held.
    pub columns: usize,
    /// Bytes of the columns held (8 per mesh row).
    pub bytes: usize,
    /// Solves committed from a held column instead: the pool invocation's
    /// trio meshes (three per bond) and admitted refinements alike.
    pub hits: u64,
    /// Solves a held column could have served but none was held: trio
    /// meshes and refinements of a problem whose columns are reusable.
    pub misses: u64,
    /// Columns dropped to stay within the byte limit, a new column that a
    /// merge took in and dropped at once included.
    pub evictions: u64,
}

/// What one tick did with its relation's [`ColumnStore`]: the columns its
/// lane solves produced (the invocation's trio and the refinements'), and
/// its hits and misses.
#[derive(Clone, Debug, Default)]
pub(crate) struct TickColumns {
    /// Each kept column's bond position and mesh, in the order their
    /// `shape.rows()` entries follow one another in `data`.
    kept: Vec<(usize, GridShape)>,
    data: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl TickColumns {
    /// Copies in the column the bond at `position` solved to on `shape`.
    fn keep(&mut self, position: usize, shape: GridShape, column: &[f64]) {
        debug_assert_eq!(column.len(), shape.rows());
        self.kept.push((position, shape));
        self.data.extend_from_slice(column);
    }

    /// Moves `other`'s columns after this tick's.
    fn append(&mut self, other: &mut Self) {
        self.kept.append(&mut other.kept);
        self.data.append(&mut other.data);
    }
}

/// A tick's lending view of its relation's store, for the pool
/// invocation: reads the store, records into the tick.
pub(crate) struct Lend<'a> {
    store: &'a ColumnStore,
    tick: &'a mut TickColumns,
}

impl TrioColumns for Lend<'_> {
    fn held(&mut self, index: usize, shape: GridShape) -> Option<&[f64]> {
        let column = self.store.get(index, shape);
        if column.is_some() {
            self.tick.hits += 1;
        } else {
            self.tick.misses += 1;
        }
        column
    }

    fn keep(&mut self, index: usize, shape: GridShape, column: &[f64]) {
        self.tick.keep(index, shape, column);
    }
}

fn column_bytes(shape: GridShape) -> usize {
    std::mem::size_of::<f64>() * shape.rows()
}

impl ColumnStore {
    /// An empty store.
    pub(crate) const fn new() -> Self {
        Self {
            by_position: Vec::new(),
            order: BinaryHeap::new(),
            stats: ColumnStats {
                columns: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            },
        }
    }

    fn key(position: usize, shape: GridShape) -> ColumnKey {
        (shape.cells(), position, shape.nt, shape.nx)
    }

    /// The column of the bond at `position` on `shape`, if held.
    fn get(&self, position: usize, shape: GridShape) -> Option<&[f64]> {
        let held = self.by_position.get(position)?;
        let (_, start) = held.find(shape)?;
        Some(&held.data[start..start + shape.rows()])
    }

    /// The store as a pool invocation reads it, recording into `tick`.
    pub(crate) fn lend<'a>(&'a self, tick: &'a mut TickColumns) -> Lend<'a> {
        Lend { store: self, tick }
    }

    /// Size and counters.
    pub(crate) fn stats(&self) -> ColumnStats {
        self.stats
    }

    /// Drops the held column at `key`, already taken out of `order`.
    fn remove(&mut self, (_, position, nt, nx): ColumnKey) {
        let shape = GridShape { nt, nx };
        let held = &mut self.by_position[position];
        let (at, start) = held.find(shape).expect("every ordered key is held");
        held.meshes.remove(at);
        held.data.drain(start..start + shape.rows());
        // A bond's buffer never holds more than twice its columns.
        if held.data.len() * 2 <= held.data.capacity() {
            held.data.shrink_to_fit();
        }
        self.stats.bytes -= column_bytes(shape);
    }

    /// Folds one committed tick in: counts its hits and misses, takes in
    /// every column it solved, then evicts in key order down to `limit`
    /// bytes. What it holds afterwards depends only on the set of columns,
    /// not on the order the tick's workers produced them in.
    ///
    /// A tick solves a column only where the store held none when the tick
    /// began, and each `(position, mesh)` at most once: a held column is
    /// served, and a refinement never returns to a mesh.
    pub(crate) fn merge(&mut self, tick: TickColumns, limit: usize) {
        self.stats.hits += tick.hits;
        self.stats.misses += tick.misses;
        // A column over the bound is never taken in, so never evicted.
        let fits = |shape: GridShape| column_bytes(shape) <= limit;
        // One allocation per bond: size each bond's buffer for what the
        // tick adds to it before copying in.
        let end = tick.kept.iter().map(|&(position, _)| position + 1).max();
        if self.by_position.len() < end.unwrap_or(0) {
            self.by_position
                .resize_with(end.unwrap_or(0), BondColumns::default);
        }
        let mut rows = vec![0; self.by_position.len()];
        for &(position, shape) in tick.kept.iter().filter(|&&(_, shape)| fits(shape)) {
            rows[position] += shape.rows();
        }
        for (held, rows) in self.by_position.iter_mut().zip(rows) {
            held.data.reserve(rows);
        }
        let mut data = &tick.data[..];
        for &(position, shape) in &tick.kept {
            let column;
            (column, data) = data.split_at(shape.rows());
            if !fits(shape) {
                continue;
            }
            let held = &mut self.by_position[position];
            debug_assert!(held.find(shape).is_none(), "a tick solves what is not held");
            held.meshes.push(shape);
            held.data.extend_from_slice(column);
            self.stats.bytes += column_bytes(shape);
            self.order.push(Reverse(Self::key(position, shape)));
        }
        while self.stats.bytes > limit {
            let Reverse(key) = self.order.pop().expect("bytes held, columns held");
            self.remove(key);
            self.stats.evictions += 1;
        }
        self.stats.columns = self.order.len();
    }

    /// Every held column's key, in eviction order.
    #[cfg(test)]
    pub(crate) fn keys(&self) -> Vec<ColumnKey> {
        let mut keys: Vec<ColumnKey> = self.order.iter().map(|&Reverse(key)| key).collect();
        keys.sort_unstable();
        keys
    }
}

/// Splits one per-tick work budget across relations, proportionally to
/// their demand weights (the §5 priority sums of their live sessions),
/// with largest-remainder rounding so the slices always sum to exactly the
/// total. Ties and the all-zero-weight case degrade deterministically:
/// remainder ties go to the lower-indexed relation, and when no relation
/// carries any weight the budget splits evenly.
///
/// The slices are the cross-tenant arbitration contract: a shared server
/// ticking relation `i` with slice `out[i]` computes bit-identically to an
/// isolated single-relation server configured with budget `out[i]`,
/// because the slice is the *only* channel through which co-hosted
/// relations influence each other. `None` (unbudgeted) passes through as
/// `None` for everyone.
#[must_use]
pub fn arbitrate_budget(total: Option<Work>, weights: &[u64]) -> Vec<Option<Work>> {
    let Some(total) = total else {
        return vec![None; weights.len()];
    };
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let (weights, sum): (Vec<u128>, u128) = if sum == 0 {
        (vec![1; weights.len()], weights.len() as u128)
    } else {
        (weights.iter().map(|&w| u128::from(w)).collect(), sum)
    };
    let total_wide = u128::from(total);
    // u128 intermediates: budget × weight cannot overflow even at u64::MAX
    // each, so the proportional shares are exact.
    let shares: Vec<(u128, u128)> = weights
        .iter()
        .map(|&w| {
            let scaled = total_wide * w;
            (scaled / sum, scaled % sum)
        })
        .collect();
    let assigned: u128 = shares.iter().map(|&(base, _)| base).sum();
    let leftover = usize::try_from(total_wide - assigned).expect("leftover < relation count");
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[b].1.cmp(&shares[a].1).then(a.cmp(&b)));
    let mut out: Vec<u64> = shares
        .iter()
        .map(|&(base, _)| u64::try_from(base).expect("share <= total"))
        .collect();
    for &i in order.iter().take(leftover) {
        out[i] += 1;
    }
    out.into_iter().map(Some).collect()
}

/// A probe called with the pool and the round view at the top of every
/// scheduling round, right after the view was built or repaired — the seam
/// the differential tests check the maintained demand state through. The
/// server passes `None`.
pub type RoundAudit<'a> = &'a mut dyn FnMut(&SharedPool, &RoundView);

/// The sessions' queries, in registration order.
fn queries(registry: &SessionRegistry) -> impl Iterator<Item = &Query> + Clone {
    registry.sessions().iter().map(|s| &s.query)
}

/// Runs the round loop over an invoked pool until every session reaches
/// its stopping condition or the budget runs out, then answers every
/// session.
///
/// `meter` must be the tick's meter (already charged with the pool
/// invocation); the budget applies to its running total, so model
/// invocation and refinement draw from the same per-tick allowance.
///
/// `batch` is the number of distinct objects selected per round and is
/// what determines the schedule; `workers` is the number of threads used
/// to execute an admitted batch and never affects results. Both are
/// clamped to at least 1. `batch_solver` routes admitted objects whose
/// next refinements share a grid shape through one lane-parallel SoA
/// solve ([`run_batch_lanes`]); per-lane arithmetic is bit-identical to
/// the scalar path, so this too never affects results. The defensive
/// `iterate()` cap is [`DEFAULT_ITERATION_LIMIT`].
///
/// `columns` is the relation's [`ColumnStore`] and what the pool
/// invocation already did with it ([`ColumnStore::lend`]). An admitted
/// lane refinement whose column the store holds commits from it; every
/// other reusable lane solve's column comes back in
/// [`TickOutcome::columns`], after the invocation's. Neither changes any
/// result, so an empty store ticks exactly like a full one.
#[allow(clippy::too_many_arguments)] // one call site; the knobs are the API
pub(crate) fn run_tick<O: ExecObserver>(
    registry: &SessionRegistry,
    pool: &mut SharedPool,
    relation: &BondRelation,
    budget: Option<Work>,
    workers: usize,
    batch: usize,
    batch_solver: bool,
    (store, invoked): (&ColumnStore, TickColumns),
    meter: &mut WorkMeter,
    observer: &mut O,
    audit: Option<RoundAudit<'_>>,
) -> Result<TickOutcome, ServerError> {
    observer.on_operator_start(OperatorKind::SharedPool, pool.len());
    let entry = meter.snapshot();
    let mut sessions = Sessions {
        registry,
        view: RoundView::build(queries(registry), pool),
        audit,
    };
    sessions.settle(pool);
    let schedule = Schedule {
        policy: &mut ChoicePolicy::greedy(),
        batch,
        budget,
        limit: DEFAULT_ITERATION_LIMIT,
    };
    let mut tick_pool = TickPool {
        pool,
        workers: workers.max(1),
        batch_solver,
        store,
        columns: invoked,
    };
    let rounds = run_rounds(&mut tick_pool, &mut sessions, schedule, meter, observer)?;
    let columns = tick_pool.columns;
    let view = sessions.view;

    let mut answers = Vec::with_capacity(registry.len());
    let mut records = Vec::with_capacity(registry.len());
    for (s, sess) in registry.sessions().iter().enumerate() {
        let done = view.demands(s).is_empty();
        answers.push((sess.id, demand::answer(&sess.query, pool, relation, done)?));
        records.push(SessionTickRecord {
            session: sess.id.0,
            is_final: done,
            driven: rounds.driven[s],
        });
    }

    observer.on_operator_end(&OperatorEndRecord {
        kind: OperatorKind::SharedPool,
        iterations: rounds.iterations,
        work: meter.since(&entry),
    });

    Ok(TickOutcome {
        answers,
        sessions: records,
        budget_exhausted: rounds.budget_exhausted,
        columns,
    })
}

/// [`run_tick`] over a caller-built registry and pool with a [`RoundAudit`]
/// attached: the scheduler exactly as the server runs it (unbudgeted, the
/// default iteration cap), observable round by round. Exists for the
/// differential tests; returns the tick's answers (the per-session counter
/// deltas are a commit's to apply, and nothing here commits).
///
/// # Errors
///
/// Whatever the tick fails with.
#[doc(hidden)]
pub fn audited_tick(
    registry: &SessionRegistry,
    pool: &mut SharedPool,
    relation: &BondRelation,
    workers: usize,
    batch: usize,
    batch_solver: bool,
    audit: RoundAudit<'_>,
) -> Result<Vec<(SessionId, Answer)>, ServerError> {
    let outcome = run_tick(
        registry,
        pool,
        relation,
        None,
        workers,
        batch,
        batch_solver,
        (&ColumnStore::default(), TickColumns::default()),
        &mut WorkMeter::new(),
        &mut vao::trace::NoopObserver,
        Some(audit),
    )?;
    Ok(outcome.answers)
}

/// The sessions as the round loop's demand source: one list per session,
/// weighted by its priority, kept current by a [`RoundView`]. After the
/// view is built or repaired the audit (if any) sees it.
struct Sessions<'a, 'b> {
    registry: &'a SessionRegistry,
    view: RoundView,
    audit: Option<RoundAudit<'b>>,
}

impl Sessions<'_, '_> {
    /// Runs after the view was built or repaired.
    fn settle(&mut self, pool: &SharedPool) {
        if let Some(audit) = self.audit.as_deref_mut() {
            audit(pool, &self.view);
        }
    }
}

impl DemandSource<SharedPool> for Sessions<'_, '_> {
    fn lists(&self) -> usize {
        self.registry.len()
    }

    fn list(&self, s: usize) -> (f64, &[Demand]) {
        let priority = self.registry.sessions()[s].priority;
        (f64::from(priority), self.view.demands(s))
    }

    fn outstanding(&self) -> usize {
        self.view.outstanding()
    }

    fn repair(&mut self, pool: &SharedPool, changed: &[usize]) {
        self.view.repair(queries(self.registry), pool, changed);
        self.settle(pool);
    }
}

/// The pool as the round loop sees it during a tick: an admitted round run
/// by [`run_batch_lanes`].
struct TickPool<'a> {
    pool: &'a mut SharedPool,
    workers: usize,
    batch_solver: bool,
    store: &'a ColumnStore,
    columns: TickColumns,
}

impl Pool for TickPool<'_> {
    type View = SharedPool;
    type Error = ServerError;

    fn view(&self) -> &SharedPool {
        self.pool
    }

    fn execute<O: ExecObserver>(
        &mut self,
        objs: &[usize],
        meter: &mut WorkMeter,
        _observer: &mut O,
    ) -> Result<Vec<Step>, ServerError> {
        run_batch_lanes(
            self.pool,
            objs,
            self.workers,
            self.batch_solver,
            (self.store, &mut self.columns),
            meter,
        )
    }
}

/// `estCPU` at or below which a shapeless refinement runs inline on the
/// coordinating thread instead of becoming a unit: nothing left to do, or
/// one `getState` of the object's own mesh cache. It solves nothing, and a
/// scoped thread costs more than it does: once the column store serves a
/// tick's solves, spawning threads for these alone took ~40 % of a
/// 0.35 ms `solver_deep` tick on a 2-vCPU host and set most of its
/// run-to-run spread.
const INLINE_EST_CPU: Work = 1;

/// One schedulable piece of an admitted round: either a group of
/// same-shape objects advanced as lanes of one SoA sweep, or a single
/// object stepped through plain `iterate()`.
///
/// `slots` / `slot` index back into the round's pick order; `positions`
/// are the lanes' pool positions, and `keep` asks for their finished
/// columns.
enum ExecUnit<'p> {
    Lanes {
        shape: GridShape,
        slots: Vec<usize>,
        positions: Vec<usize>,
        objs: Vec<&'p mut (dyn ResultObject + Send)>,
        keep: bool,
    },
    Scalar {
        slot: usize,
        obj: &'p mut (dyn ResultObject + Send),
    },
}

/// Steps one object through plain `iterate()`, charging `scratch`.
fn iterate_scalar(obj: &mut (dyn ResultObject + Send), scratch: &mut WorkMeter) -> Step {
    let before = obj.bounds();
    let snap = scratch.snapshot();
    let after = obj.iterate(scratch);
    Step {
        before,
        after,
        work: scratch.since(&snap),
    }
}

/// What the store can do for one admitted refinement.
enum Served {
    /// Committed from a held column.
    Hit(Step),
    /// Reusable, but not held: the solve's column is worth keeping.
    Miss,
    /// Not a lane whose columns may be reused.
    No,
}

/// Commits `obj`'s refinement at `shape` from the store's column for
/// `position`, if its lane's columns are reusable and one is held: the
/// lane's own commit of a one-lane state, so bounds and charges are
/// what its solve would have produced.
fn serve_column(
    obj: &mut (dyn ResultObject + Send),
    position: usize,
    shape: GridShape,
    store: &ColumnStore,
    meter: &mut WorkMeter,
) -> Served {
    let before = obj.bounds();
    let Some(lane) = obj.as_batch_lane().filter(|lane| lane.column_reusable()) else {
        return Served::No;
    };
    let Some(column) = store.get(position, shape) else {
        return Served::Miss;
    };
    let snap = meter.snapshot();
    lane.lane_commit(shape, column, 1, 0, None, meter);
    Served::Hit(Step {
        before,
        after: obj.bounds(),
        work: meter.since(&snap),
    })
}

/// Executes one unit, charging `scratch`, and returns per-object results
/// tagged with their pick-order slots. A lane group with `keep` copies
/// its reusable lanes' finished columns into `kept`.
///
/// For a lane group, each lane commits on its own fresh meter (so the
/// per-object `Step::work` is exactly what the scalar path would have
/// charged) and the lane meters are then absorbed into `scratch`. The
/// post-iteration bounds are re-read through the pool object — not taken
/// from the lane commit — because adapters (negation, shifts) transform
/// bounds *outside* the lane protocol's inner frame.
///
/// A group with a member that reports a `batch_shape()` but hands out no
/// lane has broken the protocol's promise; the group is stepped scalar,
/// which computes the same thing.
fn exec_unit(
    unit: ExecUnit<'_>,
    scratch: &mut WorkMeter,
    kept: &mut TickColumns,
) -> Vec<(usize, Step)> {
    match unit {
        ExecUnit::Scalar { slot, obj } => vec![(slot, iterate_scalar(obj, scratch))],
        ExecUnit::Lanes {
            shape,
            slots,
            positions,
            mut objs,
            keep,
        } => {
            let befores: Vec<Bounds> = objs.iter().map(|o| o.bounds()).collect();
            let mut meters: Vec<WorkMeter> = objs.iter().map(|_| WorkMeter::new()).collect();
            let lanes: Option<Vec<&mut dyn BatchLane>> =
                objs.iter_mut().map(|o| o.as_batch_lane()).collect();
            let Some(mut lanes) = lanes else {
                return slots
                    .into_iter()
                    .zip(objs)
                    .map(|(slot, obj)| (slot, iterate_scalar(obj, scratch)))
                    .collect();
            };
            let mut keep_into = |lane: usize, column: &[f64]| {
                kept.keep(positions[lane], shape, column);
            };
            let keep_into: Option<&mut KeepColumn<'_>> =
                if keep { Some(&mut keep_into) } else { None };
            step_batch_keeping(shape, &mut lanes, &mut meters, keep_into);
            drop(lanes);
            slots
                .into_iter()
                .zip(&objs)
                .zip(befores)
                .zip(meters)
                .map(|(((slot, obj), before), m)| {
                    scratch.absorb(&m);
                    (
                        slot,
                        Step {
                            before,
                            after: obj.bounds(),
                            work: m.breakdown(),
                        },
                    )
                })
                .collect()
        }
    }
}

/// Executes an admitted round of distinct objects. With `batch_solver`,
/// objects whose next refinements share a [`GridShape`] advance in lockstep
/// as lanes of one lane-parallel Thomas sweep per time step; everything else
/// (shapeless objects, singleton groups, and every object when the batched
/// solver is off) steps through scalar `iterate()`. Units run on up to
/// `workers` scoped threads.
///
/// A lane refinement whose column the [`ColumnStore`] holds commits from
/// it first, inline on this thread, and only the rest are solved; a
/// reusable singleton solves as a one-lane group so its column can be
/// kept. A shapeless object that solves nothing (`estCPU` at most
/// [`INLINE_EST_CPU`]) also steps inline, so a round of hits and cache
/// reads spawns no thread. The tick's hits, misses and new columns accumulate in the
/// [`TickColumns`].
///
/// Returns per-object results in pick order. Determinism: each object's
/// refinement is a pure function of that object's own state, per-lane
/// arithmetic, meter charges and failure handling are bit-identical to K
/// independent iterations, a column commit is the commit of the lane solve
/// that produced the column, the per-object work charges are exact
/// integers merged by addition, and results are re-sorted into pick order
/// before use — so callers cannot observe which route or thread ran beyond
/// wall-clock time. A lane that goes singular is committed failed (capped)
/// without touching its siblings — the same degradation the scalar solver
/// produces — and its column is not kept.
fn run_batch_lanes(
    pool: &mut SharedPool,
    objs: &[usize],
    workers: usize,
    batch_solver: bool,
    columns: (&ColumnStore, &mut TickColumns),
    meter: &mut WorkMeter,
) -> Result<Vec<Step>, ServerError> {
    // Probe shapes through the shared-borrow API *before* splitting the
    // pool into disjoint `&mut` borrows (with_disjoint_mut wants strictly
    // ascending indices; remember pick-order slots to map results back).
    let mut order: Vec<usize> = (0..objs.len()).collect();
    order.sort_by_key(|&slot| objs[slot]);
    let sorted_objs: Vec<usize> = order.iter().map(|&slot| objs[slot]).collect();
    let shapes: Vec<Option<GridShape>> = if batch_solver {
        sorted_objs.iter().map(|&i| pool.batch_shape(i)).collect()
    } else {
        vec![None; objs.len()]
    };
    pool.with_disjoint_mut(&sorted_objs, |parts| {
        exec_lane_groups(
            parts,
            &order,
            &sorted_objs,
            &shapes,
            workers,
            columns,
            meter,
        )
    })
}

/// The body of [`run_batch_lanes`] over the already-split borrows: `parts`,
/// `order` (each part's pick-order slot), `positions` (its pool position)
/// and `shapes` are aligned.
fn exec_lane_groups(
    parts: Vec<&mut (dyn ResultObject + Send)>,
    order: &[usize],
    positions: &[usize],
    shapes: &[Option<GridShape>],
    workers: usize,
    (store, tick): (&ColumnStore, &mut TickColumns),
    meter: &mut WorkMeter,
) -> Result<Vec<Step>, ServerError> {
    let mut done: Vec<Option<Step>> = (0..order.len()).map(|_| None).collect();
    // Serve what the store holds; group the other same-shape objects;
    // shapeless ones go scalar immediately.
    let mut groups: Vec<ExecUnit<'_>> = Vec::new();
    let mut scalars: Vec<(usize, &mut (dyn ResultObject + Send))> = Vec::new();
    for (((&slot, &position), obj), shape) in order.iter().zip(positions).zip(parts).zip(shapes) {
        let Some(shape) = *shape else {
            if obj.est_cpu() <= INLINE_EST_CPU {
                done[slot] = Some(iterate_scalar(obj, meter));
            } else {
                scalars.push((slot, obj));
            }
            continue;
        };
        let keep = match serve_column(obj, position, shape, store, meter) {
            Served::Hit(step) => {
                tick.hits += 1;
                done[slot] = Some(step);
                continue;
            }
            Served::Miss => {
                tick.misses += 1;
                true
            }
            Served::No => false,
        };
        let same_shape =
            |g: &&mut ExecUnit<'_>| matches!(g, ExecUnit::Lanes { shape: s, .. } if *s == shape);
        match groups.iter_mut().find(same_shape) {
            Some(ExecUnit::Lanes {
                slots,
                positions,
                objs,
                keep: group_keep,
                ..
            }) => {
                slots.push(slot);
                positions.push(position);
                objs.push(obj);
                *group_keep |= keep;
            }
            _ => groups.push(ExecUnit::Lanes {
                shape,
                slots: vec![slot],
                positions: vec![position],
                objs: vec![obj],
                keep,
            }),
        }
    }
    // A singleton group gains nothing from the SoA layout — demote it,
    // unless it solves a column worth keeping.
    let mut units: Vec<ExecUnit<'_>> = Vec::new();
    for group in groups {
        match group {
            ExecUnit::Lanes {
                slots,
                objs,
                keep: false,
                ..
            } if slots.len() < 2 => scalars.extend(slots.into_iter().zip(objs)),
            group => units.push(group),
        }
    }
    units.extend(
        scalars
            .into_iter()
            .map(|(slot, obj)| ExecUnit::Scalar { slot, obj }),
    );

    if workers <= 1 || units.len() <= 1 {
        for unit in units {
            for (slot, d) in exec_unit(unit, meter, tick) {
                done[slot] = Some(d);
            }
        }
    } else {
        // Fan the units out over the workers: scratch meters merge by
        // addition, results re-sort by slot, so the outcome is
        // bit-identical to inline execution.
        let stepped = fan_out(
            units,
            workers,
            "worker thread panicked during a scheduling round",
            |unit| {
                let (mut scratch, mut kept) = (WorkMeter::new(), TickColumns::default());
                (exec_unit(unit, &mut scratch, &mut kept), scratch, kept)
            },
        )?;
        for (out, scratch, mut theirs) in stepped {
            meter.absorb(&scratch);
            tick.append(&mut theirs);
            for (slot, d) in out {
                done[slot] = Some(d);
            }
        }
    }
    done.into_iter()
        .map(|d| {
            d.ok_or(ServerError::Internal {
                detail: "scheduling round lost an object result",
            })
        })
        .collect()
}

/// Runs `work` on every item on scoped worker threads and returns the
/// results in item order: the items split into at most `threads`
/// contiguous chunks of `len.div_ceil(threads)`, one thread a chunk, joined
/// in spawn order. The one thread fan-out of a tick, for a round's units
/// and a multi-relation tick's relations alike. Every thread is joined, and
/// a panic on one fails the call with [`ServerError::Internal`] carrying
/// `detail` instead of unwinding into the caller.
pub(crate) fn fan_out<T: Send, R: Send>(
    mut items: Vec<T>,
    threads: usize,
    detail: &'static str,
    work: impl Fn(T) -> R + Sync,
) -> Result<Vec<R>, ServerError> {
    let chunk = items.len().div_ceil(threads.min(items.len()).max(1));
    let work = &work;
    let joined: Vec<_> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        while !items.is_empty() {
            let mine: Vec<T> = items.drain(..chunk.min(items.len())).collect();
            handles.push(scope.spawn(move || mine.into_iter().map(work).collect::<Vec<R>>()));
        }
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut out = Vec::new();
    for shard in joined {
        out.extend(shard.map_err(|_| ServerError::Internal { detail })?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{
        arbitrate_budget, exec_unit, serve_column, ColumnStats, ColumnStore, ExecUnit, Served,
        TickColumns,
    };
    use bondlab::{BondPricer, BondUniverse};
    use va_numerics::pde::problem::DecayProblem;
    use va_numerics::pde::{PdeResultObject, PdeVaoConfig};
    use vao::batch::GridShape;
    use vao::cost::{Work, WorkMeter};
    use vao::interface::ResultObject;
    use vao::testkit::ScriptedObject;
    use vao::Bounds;

    fn tick(columns: &[(usize, GridShape)], hits: u64, misses: u64) -> TickColumns {
        let mut tick = TickColumns {
            hits,
            misses,
            ..TickColumns::default()
        };
        for &(position, shape) in columns {
            tick.keep(position, shape, &vec![0.5; shape.rows()]);
        }
        tick
    }

    #[test]
    fn a_merge_evicts_the_fewest_cells_first_then_by_position_then_mesh() {
        // 36 cells each: 18 rows (144 bytes) and 9 rows (72 bytes); then
        // 136 cells in 17 rows (136 bytes).
        let (wide, small, big) = (
            GridShape { nt: 2, nx: 17 },
            GridShape { nt: 4, nx: 8 },
            GridShape { nt: 8, nx: 16 },
        );
        let mut store = ColumnStore::default();
        let columns = [(1, small), (0, big), (0, small), (0, wide)];
        store.merge(tick(&columns, 3, 4), 250);
        // 424 bytes: wide at 0 goes (36 cells, position 0, nt 2), then
        // small at 0 (36 cells, position 0, nt 4); small at 1 stays.
        assert_eq!(
            store.stats(),
            ColumnStats {
                columns: 2,
                bytes: 72 + 136,
                hits: 3,
                misses: 4,
                evictions: 2,
            }
        );
        assert!(store.get(1, small).is_some() && store.get(0, big).is_some());
        assert!(store.get(0, small).is_none() && store.get(0, wide).is_none());

        // A column over the bound is never taken in, so never evicted.
        let mut tight = ColumnStore::default();
        tight.merge(tick(&[(0, big), (1, small)], 0, 2), 100);
        assert_eq!((tight.stats().columns, tight.stats().evictions), (1, 0));
        assert!(tight.get(0, big).is_none());
    }

    #[test]
    fn a_merge_holds_what_inserting_everything_then_evicting_would() {
        // The reference: insert every new column, then evict in key order.
        let shapes = [
            GridShape { nt: 4, nx: 8 },
            GridShape { nt: 8, nx: 8 },
            GridShape { nt: 4, nx: 16 },
            GridShape { nt: 16, nx: 8 },
            GridShape { nt: 8, nx: 16 },
        ];
        let mut reference: std::collections::BTreeMap<(Work, usize, u32, u32), usize> =
            std::collections::BTreeMap::new();
        let (mut evictions, mut store) = (0, ColumnStore::default());
        let mut seed = 7_u64;
        let mut next = |n: u64| {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            usize::try_from((seed >> 33) % n).unwrap()
        };
        for round in 0..200 {
            let limit = [0, 100, 700, 1500, 4000][next(5)];
            let mut columns = Vec::new();
            // A tick solves only what is not held, each mesh once.
            for _ in 0..next(8) {
                let (position, shape) = (next(6), shapes[next(5)]);
                if !columns.contains(&(position, shape)) && store.get(position, shape).is_none() {
                    columns.push((position, shape));
                }
            }
            for &(position, shape) in &columns {
                let bytes = 8 * shape.rows();
                if bytes <= limit {
                    reference.insert(ColumnStore::key(position, shape), bytes);
                }
            }
            while reference.values().sum::<usize>() > limit {
                reference.pop_first();
                evictions += 1;
            }
            store.merge(tick(&columns, 0, 0), limit);
            let keys: Vec<_> = reference.keys().copied().collect();
            assert_eq!(store.keys(), keys, "round {round}");
            let stats = store.stats();
            assert_eq!(stats.bytes, reference.values().sum::<usize>());
            assert_eq!((stats.columns, stats.evictions), (keys.len(), evictions));
            for &(_, position, nt, nx) in &keys {
                assert!(store.get(position, GridShape { nt, nx }).is_some());
            }
        }
    }

    #[test]
    fn a_held_column_commits_like_its_solve_and_only_for_a_reusable_lane() {
        let pricer = BondPricer::default();
        let bond = BondUniverse::generate(4, 1994).bonds()[1];
        let mut m = WorkMeter::new();
        let (mut solved, mut served) = (
            pricer.price(bond, 0.05, &mut m),
            pricer.price(bond, 0.05, &mut m),
        );
        while solved.batch_shape().is_none() {
            solved.iterate(&mut m);
            served.iterate(&mut m);
        }
        let shape = solved.batch_shape().expect("a fresh solve is next");
        let (mut solve_meter, mut kept) = (WorkMeter::new(), TickColumns::default());
        let unit = ExecUnit::Lanes {
            shape,
            slots: vec![0],
            positions: vec![3],
            objs: vec![&mut solved],
            keep: true,
        };
        let solve = exec_unit(unit, &mut solve_meter, &mut kept).remove(0).1;
        assert_eq!(kept.kept.len(), 1);
        let mut store = ColumnStore::default();
        store.merge(kept, 1 << 20);

        let mut meter = WorkMeter::new();
        assert!(matches!(
            serve_column(&mut served, 2, shape, &store, &mut meter),
            Served::Miss
        ));
        let Served::Hit(hit) = serve_column(&mut served, 3, shape, &store, &mut meter) else {
            panic!("the column is held");
        };
        assert_eq!(hit.work, solve.work);
        assert_eq!(meter.breakdown(), solve_meter.breakdown());
        assert_eq!(meter.iterations(), solve_meter.iterations());
        for (a, b) in [(hit.before, solve.before), (hit.after, solve.after)] {
            assert_eq!(
                (a.lo().to_bits(), a.hi().to_bits()),
                (b.lo().to_bits(), b.hi().to_bits())
            );
        }
        assert_eq!(served.est_cpu(), solved.est_cpu());

        // Same shape, a column held at its position: an unmarked problem
        // is still solved.
        let decay = DecayProblem {
            rate: 0.03,
            coupon: 4.0,
            terminal_value: 100.0,
            horizon: 5.0,
        };
        let mut unmarked = PdeResultObject::new(decay, PdeVaoConfig::default(), &mut m).unwrap();
        while unmarked.batch_shape().is_none() {
            unmarked.iterate(&mut m);
        }
        let shape = unmarked.batch_shape().expect("a fresh solve is next");
        let mut store = ColumnStore::default();
        store.merge(tick(&[(0, shape)], 0, 0), 1 << 20);
        let before = unmarked.bounds();
        let mut meter = WorkMeter::new();
        assert!(matches!(
            serve_column(&mut unmarked, 0, shape, &store, &mut meter),
            Served::No
        ));
        assert_eq!((unmarked.bounds(), meter.total()), (before, 0));
    }

    /// Reports a batch shape but, like every object that does not
    /// override `as_batch_lane`, hands out no lane.
    struct ShapeWithoutLane(ScriptedObject);

    impl ResultObject for ShapeWithoutLane {
        fn bounds(&self) -> Bounds {
            self.0.bounds()
        }
        fn min_width(&self) -> f64 {
            self.0.min_width()
        }
        fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
            self.0.iterate(meter)
        }
        fn est_cpu(&self) -> Work {
            self.0.est_cpu()
        }
        fn est_bounds(&self) -> Bounds {
            self.0.est_bounds()
        }
        fn standalone_cost(&self) -> Work {
            self.0.standalone_cost()
        }
        fn cumulative_cost(&self) -> Work {
            self.0.cumulative_cost()
        }
        fn batch_shape(&self) -> Option<GridShape> {
            Some(GridShape { nt: 4, nx: 8 })
        }
    }

    #[test]
    fn lane_group_without_lanes_is_stepped_scalar() {
        let script =
            |lo: f64| ScriptedObject::converging(&[(lo, lo + 4.0), (lo + 1.0, lo + 2.0)], 7, 0.01);
        let mut a = ShapeWithoutLane(script(0.0));
        let mut b = ShapeWithoutLane(script(10.0));
        let unit = ExecUnit::Lanes {
            shape: GridShape { nt: 4, nx: 8 },
            slots: vec![1, 0],
            positions: vec![0, 1],
            objs: vec![&mut a, &mut b],
            keep: true,
        };
        let mut scratch = WorkMeter::new();
        let mut kept = TickColumns::default();
        let done = exec_unit(unit, &mut scratch, &mut kept);
        assert!(kept.kept.is_empty());

        let slots: Vec<usize> = done.iter().map(|(slot, _)| *slot).collect();
        assert_eq!(slots, vec![1, 0]);
        for ((_, d), lo) in done.iter().zip([0.0, 10.0]) {
            assert_eq!(d.before, Bounds::new(lo, lo + 4.0));
            assert_eq!(d.after, Bounds::new(lo + 1.0, lo + 2.0));
            assert_eq!(d.work.exec_iter, 7);
        }
        assert_eq!(scratch.breakdown().exec_iter, 14);
        assert_eq!(scratch.iterations(), 2);
    }

    #[test]
    fn slices_are_proportional_and_sum_exactly() {
        let out = arbitrate_budget(Some(100), &[1, 1, 2]);
        assert_eq!(out, vec![Some(25), Some(25), Some(50)]);
        let out = arbitrate_budget(Some(10), &[1, 1, 1]);
        assert_eq!(out.iter().map(|b| b.unwrap()).sum::<u64>(), 10);
        // Largest remainder first; the tie between equal remainders goes
        // to the lower-indexed relation.
        assert_eq!(out, vec![Some(4), Some(3), Some(3)]);
        // A lone relation takes the whole budget whatever its weight: a
        // single-relation tick runs on the configured budget.
        for weight in [0, 1, 7, u64::MAX] {
            for total in [0, 1, 9_000, u64::MAX] {
                assert_eq!(arbitrate_budget(Some(total), &[weight]), vec![Some(total)]);
            }
        }
    }

    #[test]
    fn zero_weight_relations_get_nothing_while_others_carry_weight() {
        let out = arbitrate_budget(Some(90), &[0, 2, 1]);
        assert_eq!(out, vec![Some(0), Some(60), Some(30)]);
    }

    #[test]
    fn all_zero_weights_split_evenly() {
        let out = arbitrate_budget(Some(7), &[0, 0, 0]);
        assert_eq!(out, vec![Some(3), Some(2), Some(2)]);
    }

    #[test]
    fn unbudgeted_passes_none_through() {
        assert_eq!(arbitrate_budget(None, &[3, 4]), vec![None, None]);
        assert!(arbitrate_budget(Some(5), &[]).is_empty());
    }

    #[test]
    fn extreme_weights_do_not_overflow() {
        let out = arbitrate_budget(Some(u64::MAX), &[u64::MAX, u64::MAX, 1]);
        let total: u64 = out.iter().map(|b| b.unwrap()).sum();
        assert_eq!(total, u64::MAX);
        assert!(out[0] >= out[2]);
    }
}
