//! The in-process server: relation catalog, per-tenant session registries
//! and the budgeted scheduler behind one API. The TCP front-end in
//! [`crate::net`] is a thin line-protocol shell over this type, so
//! everything here is testable without sockets.
//!
//! A server hosts one or more relations ([`crate::catalog::Catalog`]).
//! [`Server::new`] and a bootstrapping [`Server::open_durable`] create one
//! named [`DEFAULT_RELATION`], and the relation-unqualified methods
//! ([`Server::subscribe`], [`Server::tick`], …) resolve it.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bondlab::{Bond, BondPricer};
use va_persist::record::{
    JournalEvent, RelationRecord, SnapshotRecord, TickRecord, WarmObjectRecord,
};
use va_persist::{Meta, MetaRelation, PersistError, Recovery, Store, META_FILE};
use va_stream::{BondRelation, Query, RunSummary, TickStats};
use vao::adapters::WarmStart;
use vao::cost::{Work, WorkMeter};
use vao::error::VaoError;
use vao::ops::sum::ave_weight;
use vao::trace::{CompactionRecord, ExecObserver, NoopObserver, RecoveryRecord};
use vao::PrecisionConstraint;

use crate::answer::Answer;
use crate::catalog::{def_record, Catalog, RelationId, Tenant, DEFAULT_RELATION};
use crate::demand::checked_sum_interval;
use crate::error::ServerError;
use crate::pool::SharedPool;
use crate::sched::{self, ColumnStats, ColumnStore, COLUMN_STORE_BYTES};
use crate::session::{Session, SessionId, SessionRegistry};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Per-tick work budget in deterministic work units (model invocation
    /// and refinement draw from the same allowance). `None` runs every tick
    /// to full convergence. On a multi-relation tick the budget is
    /// arbitrated across the ticked relations by
    /// [`crate::sched::arbitrate_budget`].
    pub budget: Option<Work>,
    /// Worker threads used to execute an admitted batch (and, on a
    /// multi-relation tick, to shard independent relations). Workers never
    /// change *what* the scheduler computes — only how an already-chosen
    /// batch is executed — so any worker count produces bit-identical
    /// answers for a fixed [`ServerConfig::batch`].  Clamped to ≥ 1.
    pub workers: usize,
    /// Objects selected per scheduling round (`None` → 1 when `workers`
    /// is 1, else `2 × workers`: a queue deeper than the worker pool keeps
    /// workers fed and amortizes the per-round demand recomputation
    /// further). This *does* shape the schedule: a batch of B recomputes
    /// demand once per B iterations. `Some(1)` reproduces the historical
    /// serial schedule exactly.
    pub batch: Option<usize>,
    /// Whether an admitted round routes same-grid-shape refinements
    /// through one lane-parallel struct-of-arrays solve instead of
    /// per-object scalar solves (default `true`). Per-lane arithmetic is
    /// bit-identical to the scalar path — same answers, same meter
    /// charges, same traces — so this is purely a throughput knob;
    /// `false` retains the scalar executor as a benchmark baseline.
    pub batch_solver: bool,
    /// Journal events between periodic snapshots on a durable server
    /// (clamped to ≥ 1; ignored without a data dir). This is also the
    /// recovery/disk bound: the journal tail replayed at open and the
    /// segments kept on disk are both O(`snapshot_every`), so lowering it
    /// trades more frequent snapshot writes for faster restarts and a
    /// smaller data dir.
    pub snapshot_every: u64,
}

/// Default for [`ServerConfig::snapshot_every`]: small enough that
/// recovery replay stays trivial, large enough that snapshot writes stay
/// rare.
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 64;

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            budget: None,
            workers: 1,
            batch: None,
            batch_solver: true,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }
}

impl ServerConfig {
    /// Config with a per-tick work budget.
    #[must_use]
    pub fn budgeted(budget: Work) -> Self {
        Self {
            budget: Some(budget),
            ..Self::default()
        }
    }

    /// Returns `self` with `workers` worker threads (batch still defaults
    /// to the worker count unless [`ServerConfig::batch`] is set).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The effective per-round batch size: explicit `batch`, else 1 for a
    /// single worker (the serial schedule) and `2 × workers` otherwise,
    /// clamped to ≥ 1.
    #[must_use]
    pub fn effective_batch(&self) -> usize {
        self.batch
            .unwrap_or(if self.workers <= 1 {
                1
            } else {
                self.workers * 2
            })
            .max(1)
    }
}

/// Everything one processed tick produced.
#[derive(Clone, Debug)]
pub struct TickResult {
    /// The relation this tick priced.
    pub relation: RelationId,
    /// 1-based tick sequence number, *per relation*.
    pub tick: u64,
    /// The rate the pool was priced at.
    pub rate: f64,
    /// Per-session answers, in registration order.
    pub answers: Vec<(SessionId, Answer)>,
    /// Work/iteration accounting for the tick.
    pub stats: TickStats,
    /// Whether the budget ran out and some answers degraded to `Partial`.
    pub budget_exhausted: bool,
}

/// A multi-query, multi-relation continuous-query server.
///
/// Register queries with [`Server::subscribe_to`], feed rate ticks with
/// [`Server::tick_relation`] or [`Server::tick_multi`], and every
/// registered session gets an answer per tick — exact when the scheduler
/// converged it within budget, anytime bounds otherwise.
#[derive(Debug)]
pub struct Server {
    pricer: BondPricer,
    config: ServerConfig,
    catalog: Catalog,
    durability: Option<Durability>,
    recovery: Option<RecoveryRecord>,
    recovery_emitted: bool,
    /// Compactions that happened since the last observed tick. Snapshot
    /// writes (and thus compactions) happen between ticks, outside any
    /// observer scope, so they are queued here and emitted into the next
    /// tick's trace stream.
    pending_compactions: Vec<CompactionRecord>,
    /// Each relation's kept `t = 0` columns ([`ColumnStore`]). Beside the
    /// catalog, not in a [`Tenant`]: derived state that no journal event
    /// moves, read-only while a tick executes and merged when it commits,
    /// never snapshotted, and empty after every open.
    columns: BTreeMap<RelationId, ColumnStore>,
    /// Bytes each relation's store holds at most ([`COLUMN_STORE_BYTES`]).
    column_limit: usize,
}

/// The durable half of a server opened with
/// [`Server::open_durable_catalog`]: the on-disk store plus snapshot
/// cadence bookkeeping. (Per-rate warm caches live in each
/// [`Tenant`], not here — warm state is relation-scoped.)
#[derive(Debug)]
struct Durability {
    store: Store,
    snapshot_every: u64,
    events_at_last_snapshot: u64,
}

/// FNV-1a accumulator for the fingerprint functions.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn eat_f64(&mut self, v: f64) {
        self.eat_u64(v.to_bits());
    }
}

fn eat_pricer(h: &mut Fnv, pricer: &BondPricer) {
    let m = &pricer.model;
    h.eat_f64(m.sigma);
    h.eat_f64(m.kappa);
    h.eat_f64(m.mu);
    h.eat_f64(m.q);
    h.eat_f64(m.x_min);
    h.eat_f64(m.x_max);
    let v = &pricer.vao;
    h.eat_u64(u64::from(v.initial_nx));
    h.eat_u64(u64::from(v.initial_nt));
    h.eat_f64(v.min_width);
    h.eat_f64(v.safety);
    h.eat_u64(v.solver.max_cells);
}

/// A stable fingerprint of everything that determines what journaled warm
/// bounds *mean* for one relation: the bond universe (cardinality and
/// every bond's fields) and the pricer configuration (short-rate model and
/// result-object construction parameters). Persisted per relation in the
/// data dir metadata; recovery refuses a binding whose fingerprint
/// disagrees, because converged bounds from a different universe that
/// happen to overlap this one's would otherwise be served as final
/// answers.
#[must_use]
pub fn durability_fingerprint(pricer: &BondPricer, relation: &BondRelation) -> u64 {
    let mut h = Fnv::new();
    h.eat_u64(relation.bonds().len() as u64);
    for b in relation.bonds() {
        h.eat_u64(u64::from(b.id));
        h.eat_f64(b.coupon);
        h.eat_f64(b.years_to_maturity);
        h.eat_f64(b.face);
    }
    eat_pricer(&mut h, pricer);
    h.0
}

/// The pricer-only fingerprint stored in catalog metadata: the same FNV
/// tail [`durability_fingerprint`] feeds after the relation.
#[must_use]
pub fn pricer_fingerprint(pricer: &BondPricer) -> u64 {
    let mut h = Fnv::new();
    eat_pricer(&mut h, pricer);
    h.0
}

/// The catalog metadata this server would persist right now: the pricer
/// fingerprint plus one cached binding per relation.
fn catalog_meta(pricer: &BondPricer, catalog: &Catalog) -> Meta {
    Meta {
        pricer: pricer_fingerprint(pricer),
        relations: catalog
            .tenants()
            .iter()
            .map(|t| MetaRelation {
                relation: t.id().0,
                fingerprint: durability_fingerprint(pricer, t.relation()),
            })
            .collect(),
    }
}

fn mismatch(dir: &Path, expected: u64, found: u64) -> ServerError {
    PersistError::Mismatch {
        path: dir.join(META_FILE).display().to_string(),
        expected,
        found,
    }
    .into()
}

/// Rebuilds a catalog from recovered state: the newest snapshot's sections,
/// then the journal tail through [`Catalog::apply`] — the function a live
/// server commits through, so the recovered catalog is the uninterrupted
/// one. It can fail only on catalog structure (see `apply`): the *content*
/// of a record was checked when it parsed.
fn fold_into_catalog(recovered: Recovery) -> Result<Catalog, ServerError> {
    let mut catalog = Catalog::new();
    if let Some(snap) = recovered.snapshot {
        catalog.restore_snapshot(snap.relations, snap.next_relation_id)?;
    }
    for event in recovered.tail {
        catalog.apply(event)?;
    }
    Ok(catalog)
}

impl Server {
    /// An in-memory server hosting `relation` as the single
    /// [`DEFAULT_RELATION`], pricing with `pricer`.
    #[must_use]
    pub fn new(pricer: BondPricer, relation: BondRelation, config: ServerConfig) -> Self {
        let mut srv = Self {
            pricer,
            config,
            catalog: Catalog::new(),
            durability: None,
            recovery: None,
            recovery_emitted: false,
            pending_compactions: Vec::new(),
            columns: BTreeMap::new(),
            column_limit: COLUMN_STORE_BYTES,
        };
        srv.create_relation(DEFAULT_RELATION, relation, None)
            .expect("an empty in-memory catalog refuses no relation");
        srv
    }

    /// A durable server over the data dir at `dir`, asserting that its
    /// [`DEFAULT_RELATION`] is `relation`: [`Server::open_durable_catalog`],
    /// then one rule. A dir that came back fresh and empty gets `relation`
    /// created as `"default"` — the same journal bytes as a
    /// `CREATE_RELATION` over the wire. Anything else must already hold a
    /// `"default"` whose fingerprint matches `relation`
    /// ([`PersistError::Mismatch`] otherwise, [`PersistError::Layout`] when
    /// the catalog has no `"default"` at all).
    ///
    /// A bootstrap interrupted after the metadata write reopens fresh and
    /// bootstraps again; one interrupted after the journal append reopens
    /// with `"default"` recovered and its stale metadata healed.
    pub fn open_durable(
        pricer: BondPricer,
        relation: BondRelation,
        config: ServerConfig,
        dir: &Path,
    ) -> Result<Self, ServerError> {
        let mut srv = Self::open_durable_catalog(pricer, config, dir)?;
        let expected = durability_fingerprint(&srv.pricer, &relation);
        if srv.create_default_if_fresh(relation)? {
            return Ok(srv);
        }
        let Some(default) = srv.catalog.by_name(DEFAULT_RELATION) else {
            return Err(PersistError::Layout {
                path: dir.display().to_string(),
                detail: "catalog data dir has no \"default\" relation; open it with \
                         open_durable_catalog instead of a bootstrap relation"
                    .to_string(),
            }
            .into());
        };
        let found = durability_fingerprint(&srv.pricer, default.relation());
        if found != expected {
            return Err(mismatch(dir, expected, found));
        }
        Ok(srv)
    }

    /// A durable server over the data dir at `dir`, recovering whatever a
    /// previous incarnation journaled there. The dir is self-describing:
    /// every relation definition comes from the journal, none from flags,
    /// and a fresh dir opens with an empty catalog (create relations over
    /// the protocol, or see [`Server::open_durable`]).
    ///
    /// Recovery loads the newest valid snapshot and replays the journal
    /// tail on top through [`Catalog::apply`], the function this server
    /// will commit its own events through (pure bookkeeping — journal
    /// events carry executed *outcomes*, so replay never re-prices
    /// anything). That includes each relation's per-rate warm cache, so
    /// the next tick at a recovered rate re-admits objects at their
    /// achieved accuracy. A torn final journal record is
    /// truncated and reported (see [`Server::last_recovery`]); anything
    /// worse is a hard [`ServerError::Persist`]: a dir written under
    /// another pricer configuration is a [`PersistError::Mismatch`], one in
    /// a layout this build does not read a [`PersistError::Layout`].
    ///
    /// This is the one place a store is opened, its pricer fingerprint
    /// checked, its history folded and its cached metadata healed.
    pub fn open_durable_catalog(
        pricer: BondPricer,
        config: ServerConfig,
        dir: &Path,
    ) -> Result<Self, ServerError> {
        let (store, recovered, meta) = Store::open(dir)?;
        let ours = pricer_fingerprint(&pricer);
        match &meta {
            Some(meta) if meta.pricer != ours => return Err(mismatch(dir, ours, meta.pricer)),
            None if !recovered.is_fresh() => {
                return Err(PersistError::Corrupt {
                    path: dir.join(META_FILE).display().to_string(),
                    detail: "metadata file missing from a non-empty data dir".to_string(),
                }
                .into());
            }
            _ => {}
        }
        let report = RecoveryRecord {
            snapshot_seq: recovered.snapshot_seq(),
            replayed_events: recovered.replayed_events(),
            truncated_bytes: recovered.truncated_bytes,
            skipped_snapshots: recovered.skipped_snapshot_count(),
            swept_tmp_files: recovered.swept_tmp_files,
        };
        let events_at_last_snapshot = recovered.snapshot.as_ref().map_or(0, |s| s.journal_events);
        let catalog = fold_into_catalog(recovered)?;
        // The journal is authoritative and the metadata a cache of it: a
        // fresh dir has none yet, and a crash between a catalog journal
        // append and the metadata rewrite leaves it stale.
        let want = catalog_meta(&pricer, &catalog);
        if meta.as_ref() != Some(&want) {
            store.write_meta(&want)?;
        }
        Ok(Self {
            pricer,
            config,
            catalog,
            durability: Some(Durability {
                store,
                snapshot_every: config.snapshot_every.max(1),
                events_at_last_snapshot,
            }),
            recovery: Some(report),
            recovery_emitted: false,
            pending_compactions: Vec::new(),
            columns: BTreeMap::new(),
            column_limit: COLUMN_STORE_BYTES,
        })
    }

    /// The relation catalog this server hosts.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Size and counters of the named relation's column store: how many
    /// refinements were committed from a kept column (hits), how many could
    /// have been but were solved (misses), and what it holds.
    pub fn column_stats_in(&self, name: &str) -> Result<ColumnStats, ServerError> {
        let id = self.tenant(name)?.id();
        Ok(self.columns_of(id).stats())
    }

    /// The relation's column store; an empty one before its first
    /// committed tick.
    fn columns_of(&self, relation: RelationId) -> &ColumnStore {
        static EMPTY: ColumnStore = ColumnStore::new();
        self.columns.get(&relation).unwrap_or(&EMPTY)
    }

    /// Folds a committed tick's columns into its relation's store.
    fn merge_columns(&mut self, relation: RelationId, columns: sched::TickColumns) {
        let limit = self.column_limit;
        self.columns
            .entry(relation)
            .or_default()
            .merge(columns, limit);
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The recovery report from a durable open, if this server was opened
    /// durably: which snapshot seeded it, how many journal events replayed
    /// on top, and whether a torn final record was truncated. `None` for
    /// in-memory servers.
    #[must_use]
    pub fn last_recovery(&self) -> Option<RecoveryRecord> {
        self.recovery
    }

    fn tenant(&self, name: &str) -> Result<&Tenant, ServerError> {
        self.catalog
            .by_name(name)
            .ok_or_else(|| ServerError::UnknownRelation(name.to_string()))
    }

    fn tenant_index(&self, name: &str) -> Result<usize, ServerError> {
        self.catalog
            .index_of_name(name)
            .ok_or_else(|| ServerError::UnknownRelation(name.to_string()))
    }

    /// Persists the current catalog metadata; no-op on in-memory servers.
    fn rewrite_meta(&self) -> Result<(), ServerError> {
        if let Some(d) = &self.durability {
            d.store
                .write_meta(&catalog_meta(&self.pricer, &self.catalog))?;
        }
        Ok(())
    }

    /// The one write path, in-memory and durable alike. Every method that
    /// changes tenant state validates its request, builds the
    /// [`JournalEvent`]s that record the outcome, and hands them here: the
    /// events are journaled as one group (one write, one `fdatasync`) when
    /// the server is durable, then applied in order by [`Catalog::apply`] —
    /// the function recovery replays the journal through — and a
    /// definition event rewrites the metadata cache. Write-ahead order: a
    /// failed append rolls the whole group back and leaves the catalog
    /// exactly as the journal describes it, and a crash between the append
    /// and the metadata rewrite leaves a stale cache that the next open
    /// heals.
    ///
    /// Stops short of the snapshot check ([`Server::commit`] adds it): a
    /// bootstrap writes its one journal line whatever `snapshot_every`, and
    /// a multi-relation tick checks once, after its group.
    fn journal_and_apply(&mut self, events: Vec<JournalEvent>) -> Result<(), ServerError> {
        let defines = events.iter().any(|event| {
            matches!(
                event,
                JournalEvent::CreateRelation(_)
                    | JournalEvent::DropRelation { .. }
                    | JournalEvent::AddBond { .. }
            )
        });
        if let Some(d) = &mut self.durability {
            d.store.append_all(&events)?;
        }
        for event in events {
            self.catalog.apply(event)?;
        }
        if defines {
            self.rewrite_meta()?;
        }
        Ok(())
    }

    /// [`Server::journal_and_apply`] of one event, then a snapshot if one
    /// is due.
    fn commit(&mut self, event: JournalEvent) -> Result<(), ServerError> {
        self.journal_and_apply(vec![event])?;
        self.maybe_snapshot()
    }

    /// Creates a new relation under the next catalog id.
    pub fn create_relation(
        &mut self,
        name: &str,
        relation: BondRelation,
        seed: Option<u64>,
    ) -> Result<RelationId, ServerError> {
        let (id, event) = self.create_event(name, seed, &relation)?;
        self.commit(event)?;
        Ok(id)
    }

    /// Creates `relation` as [`DEFAULT_RELATION`] when this server has just
    /// opened a fresh data dir (nothing recovered, nothing hosted), and
    /// says whether it did. The bootstrap of [`Server::open_durable`] and
    /// of `va-server --bonds/--seed`: any other dir describes itself.
    pub fn create_default_if_fresh(&mut self, relation: BondRelation) -> Result<bool, ServerError> {
        let fresh = self
            .recovery
            .is_some_and(|r| r.snapshot_seq.is_none() && r.replayed_events == 0);
        if !(fresh && self.catalog.is_empty()) {
            return Ok(false);
        }
        let (_, event) = self.create_event(DEFAULT_RELATION, None, &relation)?;
        self.journal_and_apply(vec![event])?;
        Ok(true)
    }

    /// The validated `CreateRelation` event for `relation` under `name`,
    /// and the id it assigns. Names are the protocol's addressing scheme,
    /// so a duplicate — which would shadow a live tenant's sessions — is
    /// refused.
    fn create_event(
        &self,
        name: &str,
        seed: Option<u64>,
        relation: &BondRelation,
    ) -> Result<(RelationId, JournalEvent), ServerError> {
        if self.catalog.by_name(name).is_some() {
            return Err(ServerError::RelationExists(name.to_string()));
        }
        let id = self.catalog.next_id();
        let record = RelationRecord {
            relation: id.0,
            def: def_record(name, seed, relation),
        };
        Ok((id, JournalEvent::CreateRelation(Box::new(record))))
    }

    /// Drops a relation and everything namespaced under it (sessions,
    /// warm state, run totals). The relation id stays burned.
    pub fn drop_relation(&mut self, name: &str) -> Result<RelationId, ServerError> {
        let id = self.tenant(name)?.id();
        self.commit(JournalEvent::DropRelation { relation: id.0 })?;
        self.columns.remove(&id);
        Ok(id)
    }

    /// Appends one bond to a relation, assigning the next id in relation
    /// order. Existing warm state for the relation keys to the old
    /// cardinality and is discarded lazily by the alignment filter at the
    /// next tick; `SUM` subscriptions whose weight vectors were sized for
    /// the old cardinality will fail their per-tick validation until
    /// resubscribed.
    pub fn add_bond(
        &mut self,
        name: &str,
        coupon: f64,
        maturity: f64,
        face: f64,
    ) -> Result<u32, ServerError> {
        let tenant = self.tenant(name)?;
        let bond_id =
            u32::try_from(tenant.relation().len()).map_err(|_| ServerError::Internal {
                detail: "relation grew past u32 bond ids",
            })?;
        let bond =
            Bond::try_new(bond_id, coupon, maturity, face).map_err(ServerError::InvalidBond)?;
        let relation = tenant.id().0;
        self.commit(JournalEvent::AddBond { relation, bond })?;
        Ok(bond_id)
    }

    /// Registers a query against the named relation. Structural validation
    /// (ε positive and finite, weight count, k range, finite constants)
    /// happens here so a malformed subscription fails fast; the `minWidth`
    /// floor checks run per tick against the live pool. A crash can lose an
    /// unacknowledged subscription but never acknowledge one it lost.
    pub fn subscribe_to(
        &mut self,
        name: &str,
        query: Query,
        priority: u32,
    ) -> Result<SessionId, ServerError> {
        let tenant = self.tenant(name)?;
        let n = tenant.relation().len();
        if n == 0 {
            return Err(ServerError::EmptyRelation);
        }
        validate_query_structure(&query, n)?;
        let id = SessionId(tenant.sessions().next_id());
        let event = JournalEvent::Subscribe {
            relation: tenant.id().0,
            session: id.0,
            priority: priority.max(1),
            query,
        };
        self.commit(event)?;
        Ok(id)
    }

    /// Removes a session from the named relation.
    pub fn unsubscribe_in(&mut self, name: &str, id: SessionId) -> Result<(), ServerError> {
        let tenant = self.tenant(name)?;
        if tenant.sessions().get(id).is_none() {
            return Err(ServerError::UnknownSession(id.0));
        }
        let relation = tenant.id().0;
        self.commit(JournalEvent::Unsubscribe {
            relation,
            session: id.0,
        })
    }

    /// Looks up a session in the named relation for `RESUME`: the live
    /// session plus its most recent answer, if it has been answered at
    /// all.
    pub fn resume_in(
        &self,
        name: &str,
        id: SessionId,
    ) -> Result<(&Session, Option<&Answer>), ServerError> {
        let tenant = self.tenant(name)?;
        let sess = tenant
            .sessions()
            .get(id)
            .ok_or(ServerError::UnknownSession(id.0))?;
        let answer = tenant
            .last_answers
            .iter()
            .find(|(aid, _)| *aid == id)
            .map(|(_, a)| a);
        Ok((sess, answer))
    }

    /// Run-level accounting for one relation: the fold of every processed
    /// tick's stats.
    pub fn summary_in(&self, name: &str) -> Result<RunSummary, ServerError> {
        Ok(self.tenant(name)?.summary())
    }

    /// Queues a tick for the named relation, coalescing: when a tick is
    /// already waiting, the stale rate is shed (only the newest matters —
    /// the paper's continuous queries answer against the *current* market)
    /// and the shed counter grows.
    pub fn offer_tick_in(&mut self, name: &str, rate: f64) -> Result<(), ServerError> {
        let idx = self.tenant_index(name)?;
        let tenant = &mut self.catalog.tenants_mut()[idx];
        if tenant.queued.replace(rate).is_some() {
            tenant.shed += 1;
        }
        Ok(())
    }

    /// Runs the named relation's queued tick, if any.
    pub fn run_queued_in(&mut self, name: &str) -> Option<Result<TickResult, ServerError>> {
        let idx = self.tenant_index(name).ok()?;
        let rate = self.catalog.tenants_mut()[idx].queued.take()?;
        Some(self.tick_relation(name, rate))
    }

    /// Processes one rate tick for every session of the named relation,
    /// with the full configured budget (a lone tick has no co-tenants to
    /// arbitrate against).
    pub fn tick_relation(&mut self, name: &str, rate: f64) -> Result<TickResult, ServerError> {
        self.tick_relation_with_observer(name, rate, &mut NoopObserver)
    }

    /// Like [`Server::tick_relation`], additionally streaming scheduler
    /// trace events (choices, iterations, budget exhaustion) to `observer`
    /// — this is how the bench harness lands server runs in the JSONL
    /// trace.
    pub fn tick_relation_with_observer<O: ExecObserver>(
        &mut self,
        name: &str,
        rate: f64,
        observer: &mut O,
    ) -> Result<TickResult, ServerError> {
        // Surface the recovery report (once) into the same trace stream the
        // tick lands in, so a JSONL trace of a recovered run shows *why*
        // its first tick starts warm.
        if !self.recovery_emitted {
            self.recovery_emitted = true;
            if let Some(rec) = self.recovery {
                if observer.is_enabled() {
                    observer.on_recovery(&rec);
                }
            }
        }
        // Compactions queued by between-tick snapshot writes land in the
        // next tick's trace; drained unconditionally so an untraced run
        // does not accumulate them forever.
        for c in self.pending_compactions.drain(..) {
            if observer.is_enabled() {
                observer.on_compaction(&c);
            }
        }
        let idx = self.tenant_index(name)?;
        let tenant = &self.catalog.tenants()[idx];
        let exec = execute_tenant_tick(
            &self.pricer,
            &self.config,
            tenant,
            self.columns_of(tenant.id),
            rate,
            self.config.budget,
            self.config.workers,
            self.durability.is_some(),
            observer,
        )?;
        let (result, event, columns) = self.tick_record(idx, exec);
        self.journal_and_apply(vec![event])?;
        self.merge_columns(result.relation, columns);
        self.maybe_snapshot()?;
        Ok(result)
    }

    /// The tick record of one executed tick, built from the tenant's
    /// counters and the execution's outcome, and the result it answers
    /// with. Nothing of the tenant — session counters, warm state,
    /// run totals — moves until the record goes down the one write
    /// path ([`Server::journal_and_apply`]) and is journaled first. The
    /// tick's columns come back beside them, for the caller to merge once
    /// the record is committed.
    fn tick_record(
        &self,
        idx: usize,
        exec: TickExec,
    ) -> (TickResult, JournalEvent, sched::TickColumns) {
        let TickExec {
            mut outcome,
            stats,
            warm,
        } = exec;
        let columns = std::mem::take(&mut outcome.columns);
        let tenant = &self.catalog.tenants()[idx];
        let result = TickResult {
            relation: tenant.id,
            tick: tenant.ticks() + 1,
            rate: stats.rate,
            answers: outcome.answers.clone(),
            stats,
            budget_exhausted: outcome.budget_exhausted,
        };
        let event = JournalEvent::Tick(Box::new(TickRecord {
            relation: tenant.id.0,
            tick: result.tick,
            rate: stats.rate,
            shed: tenant.shed,
            budget_exhausted: outcome.budget_exhausted,
            work: stats.work,
            iterations: stats.iterations,
            sessions: outcome.sessions,
            answers: outcome.answers,
            warm,
        }));
        (result, event, columns)
    }

    /// Processes one tick across several relations under **one** work
    /// budget: [`crate::sched::arbitrate_budget`] splits
    /// [`ServerConfig::budget`] across the listed relations in proportion
    /// to their §5 demand weight (the sum of their sessions' priorities),
    /// and each relation then runs an ordinary tick inside its slice.
    ///
    /// Independent relations are sharded across the scoped worker threads
    /// when `workers > 1`; each shard executes with an inner worker count
    /// of 1 while the batch size stays [`ServerConfig::effective_batch`],
    /// so sharding never changes any relation's schedule — per-relation
    /// results are bit-identical to the sequential path, and to N isolated
    /// single-relation servers given the same per-relation budgets.
    ///
    /// The relations' tick records are **group-committed** after
    /// execution: journaled in the caller's tick order with one write and
    /// one `fdatasync` for the whole group, then applied in that order, so
    /// the journal stays deterministic regardless of sharding and no reply
    /// precedes durability. The request is all or nothing: when a relation
    /// fails to execute, or the group's append fails (and is rolled back),
    /// no relation advances.
    pub fn tick_multi(&mut self, ticks: &[(&str, f64)]) -> Result<Vec<TickResult>, ServerError> {
        // This path has no observer to hand queued compactions to; they are
        // dropped here, as a single-relation tick drains them, so a server
        // driven by multi-relation ticks alone does not accumulate them.
        self.pending_compactions.clear();
        // Resolve everything up front: an unknown or duplicate relation or
        // an unpriceable rate fails the whole request before any relation
        // executes or anything is journaled.
        let mut indices = Vec::with_capacity(ticks.len());
        for &(name, rate) in ticks {
            check_rate(&self.pricer, rate)?;
            let idx = self.tenant_index(name)?;
            if indices.contains(&idx) {
                return Err(ServerError::Internal {
                    detail: "duplicate relation in a multi-relation tick",
                });
            }
            if self.catalog.tenants()[idx].relation().is_empty() {
                return Err(ServerError::EmptyRelation);
            }
            indices.push(idx);
        }
        let weights: Vec<u64> = indices
            .iter()
            .map(|&i| {
                self.catalog.tenants()[i]
                    .sessions()
                    .sessions()
                    .iter()
                    .map(|s| u64::from(s.priority))
                    .sum()
            })
            .collect();
        let budgets = sched::arbitrate_budget(self.config.budget, &weights);
        let durable = self.durability.is_some();
        let workers = self.config.workers.max(1);

        // Execution only reads its tenant, so independent relations shard
        // across the scoped worker pool by shared reference. Each shard
        // executes with workers = 1, which cannot change results: the
        // schedule is fixed by the (unchanged) batch size, and workers only
        // decide who runs an admitted batch.
        let tenants = self.catalog.tenants();
        let run = |slot: usize, inner_workers: usize| {
            let tenant = &tenants[indices[slot]];
            execute_tenant_tick(
                &self.pricer,
                &self.config,
                tenant,
                self.columns_of(tenant.id),
                ticks[slot].1,
                budgets[slot],
                inner_workers,
                durable,
                &mut NoopObserver,
            )
        };
        let execs: Vec<Result<TickExec, ServerError>> = if workers <= 1 || indices.len() == 1 {
            (0..indices.len()).map(|slot| run(slot, workers)).collect()
        } else {
            let slots: Vec<usize> = (0..indices.len()).collect();
            let chunk = slots.len().div_ceil(workers.min(slots.len()));
            let run = &run;
            let joined: Result<Vec<Vec<_>>, _> = std::thread::scope(|scope| {
                let handles: Vec<_> = slots
                    .chunks(chunk)
                    .map(|mine| {
                        scope.spawn(move || {
                            mine.iter().map(|&slot| run(slot, 1)).collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            let shards = joined.map_err(|_| ServerError::Internal {
                detail: "worker thread panicked during a multi-relation tick",
            })?;
            // Contiguous slot ranges, joined in spawn order: slot order.
            shards.into_iter().flatten().collect()
        };

        // One group in the caller's tick order: every record is built
        // before any is journaled, and every tenant moves after all are.
        let execs = execs.into_iter().collect::<Result<Vec<TickExec>, _>>()?;
        let mut out = Vec::with_capacity(execs.len());
        let mut events = Vec::with_capacity(execs.len());
        let mut columns = Vec::with_capacity(execs.len());
        for (exec, &idx) in execs.into_iter().zip(&indices) {
            let (result, event, cols) = self.tick_record(idx, exec);
            columns.push((result.relation, cols));
            out.push(result);
            events.push(event);
        }
        self.journal_and_apply(events)?;
        // Merged one relation at a time, in tick order.
        for (relation, cols) in columns {
            self.merge_columns(relation, cols);
        }
        self.maybe_snapshot()?;
        Ok(out)
    }

    /// Flushes durable state for a clean shutdown: appends a snapshot
    /// marker and writes a final snapshot covering it, so the next durable
    /// open recovers with zero journal replay. A no-op for in-memory
    /// servers.
    ///
    /// This belongs to *listener* shutdown (SIGTERM/SIGINT, end of the
    /// serve loop) — a `QUIT` from one client is connection-scoped and
    /// does not reach here.
    pub fn shutdown(&mut self) -> Result<(), ServerError> {
        self.write_snapshot()
    }

    /// Writes a periodic snapshot once enough journal events have
    /// accumulated since the last one. No-op for in-memory servers.
    fn maybe_snapshot(&mut self) -> Result<(), ServerError> {
        let due = match &self.durability {
            Some(d) => d.store.journal_events() - d.events_at_last_snapshot >= d.snapshot_every,
            None => false,
        };
        if due {
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Appends a snapshot marker, then writes a snapshot covering it (so
    /// recovery from this snapshot replays nothing). The snapshot embeds
    /// every relation's definition, so a snapshot-seeded recovery is as
    /// self-describing as a journal fold.
    fn write_snapshot(&mut self) -> Result<(), ServerError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let seq = d.store.next_snapshot_seq();
        // Marker first: the snapshot's event count then covers the marker
        // itself, and recovery's replay tail is empty after a clean write.
        self.journal_and_apply(vec![JournalEvent::SnapshotMarker { seq }])?;
        let d = self.durability.as_mut().expect("checked durable above");
        let snap = SnapshotRecord {
            seq,
            journal_events: d.store.journal_events(),
            // Coverage ends exactly where the journal does right now
            // (the marker just appended is the last covered byte).
            coverage: d.store.journal_position(),
            next_relation_id: self.catalog.next_id().0,
            relations: self
                .catalog
                .tenants()
                .iter()
                .map(Tenant::snapshot)
                .collect(),
        };
        let report = d.store.write_snapshot(&snap)?;
        d.events_at_last_snapshot = snap.journal_events;
        if report.segments_deleted > 0 {
            self.pending_compactions.push(CompactionRecord {
                snapshot_seq: seq,
                segments_deleted: report.segments_deleted,
                bytes_reclaimed: report.bytes_reclaimed,
                live_segments: report.live_segments,
            });
        }
        Ok(())
    }

    // --- single-relation surface -----------------------------------------
    //
    // The three calls the frozen `benchmark/` package makes without naming
    // a relation; they resolve `"default"` and answer `UnknownRelation` on a
    // server that hosts none. Everything else goes through the `_in` /
    // `*_relation` forms and [`Server::catalog`].

    /// Registers a query against the default relation.
    pub fn subscribe(&mut self, query: Query, priority: u32) -> Result<SessionId, ServerError> {
        self.subscribe_to(DEFAULT_RELATION, query, priority)
    }

    /// Processes one rate tick for the default relation.
    pub fn tick(&mut self, rate: f64) -> Result<TickResult, ServerError> {
        self.tick_relation(DEFAULT_RELATION, rate)
    }

    /// Like [`Server::tick`], streaming scheduler trace events to
    /// `observer`.
    pub fn tick_with_observer<O: ExecObserver>(
        &mut self,
        rate: f64,
        observer: &mut O,
    ) -> Result<TickResult, ServerError> {
        self.tick_relation_with_observer(DEFAULT_RELATION, rate, observer)
    }
}

/// Everything [`execute_tenant_tick`] produced. Nothing of the tenant has
/// moved yet: [`Server::tick_record`] turns it into the record that moves
/// it, on both the single- and the multi-relation tick path.
struct TickExec {
    outcome: sched::TickOutcome,
    stats: TickStats,
    /// End-of-tick state of every pool object (durable servers; empty in
    /// memory, where nothing would ever read it back).
    warm: Vec<WarmObjectRecord>,
}

/// The rates the pricer's grid covers: anything else is refused here, as a
/// typed error, instead of reaching `BondPde::new`'s assertion.
fn check_rate(pricer: &BondPricer, rate: f64) -> Result<(), ServerError> {
    let (min, max) = (pricer.model.x_min, pricer.model.x_max);
    if rate >= min && rate <= max {
        Ok(())
    } else {
        Err(ServerError::RateOutOfRange { rate, min, max })
    }
}

/// Executes one relation's tick: pool invocation (warm-seeded when the
/// tenant has journaled this rate, its trio read from and lent to the
/// column store), floor validation, the budgeted scheduler, and stats
/// assembly. Only reads `tenant` and its relation's
/// column store (empty before its first committed tick) — the columns it
/// solves come back in the outcome — so independent tenants execute on
/// separate threads and a tick that fails to journal leaves no trace.
#[allow(clippy::too_many_arguments)] // two call sites; the knobs are the API
fn execute_tenant_tick<O: ExecObserver>(
    pricer: &BondPricer,
    config: &ServerConfig,
    tenant: &Tenant,
    columns: &ColumnStore,
    rate: f64,
    budget: Option<Work>,
    workers: usize,
    durable: bool,
    observer: &mut O,
) -> Result<TickExec, ServerError> {
    check_rate(pricer, rate)?;
    if tenant.relation.bonds().is_empty() {
        return Err(ServerError::EmptyRelation);
    }
    let start = Instant::now();
    let mut meter = WorkMeter::new();

    // A durable server that has journaled a tick at this exact rate
    // re-admits every object at its achieved accuracy. The warm cache
    // is a deterministic fold of the journal, so an uninterrupted
    // server and a crashed-and-recovered one seed identical pools —
    // which is what makes their subsequent ticks bit-identical.
    // A prior that is not aligned with the relation (a journal record
    // damaged in a way that still parses) is discarded wholesale by
    // `invoke_with`.
    let warm: Option<Vec<WarmStart>> = tenant
        .warm
        .get(&rate.to_bits())
        .map(|objs| warm_seeds(objs));
    // The trio's columns come from, and go to, the relation's store.
    let mut invoked = sched::TickColumns::default();
    let mut pool = SharedPool::invoke_with(
        pricer,
        &tenant.relation,
        rate,
        warm.as_deref(),
        Some(&mut columns.lend(&mut invoked)),
        &mut meter,
    );
    validate_floor(&tenant.registry, &pool)?;

    let outcome = sched::run_tick(
        &tenant.registry,
        &mut pool,
        &tenant.relation,
        budget,
        workers,
        config.effective_batch(),
        config.batch_solver,
        (columns, invoked),
        &mut meter,
        observer,
        None,
    )?;

    let stats = TickStats {
        rate,
        work: meter.breakdown(),
        wall: start.elapsed(),
        iterations: meter.iterations(),
    };

    // End-of-tick object state: what the next tick at this rate seeds from.
    let warm = if durable {
        (0..pool.len())
            .map(|i| WarmObjectRecord {
                bounds: pool.bounds(i),
                converged: pool.converged(i),
            })
            .collect()
    } else {
        Vec::new()
    };

    Ok(TickExec {
        outcome,
        stats,
        warm,
    })
}

/// Structural subscription validation against a relation of `n` bonds.
fn validate_query_structure(query: &Query, n: usize) -> Result<(), ServerError> {
    match query {
        Query::Selection { constant, .. } | Query::Count { constant, .. } => {
            if !constant.is_finite() {
                return Err(VaoError::NonFiniteConstant { value: *constant }.into());
            }
        }
        Query::Sum { weights, epsilon } => {
            PrecisionConstraint::new(*epsilon)?;
            if weights.len() != n {
                return Err(VaoError::WeightCountMismatch {
                    objects: n,
                    weights: weights.len(),
                }
                .into());
            }
            for (index, &weight) in weights.iter().enumerate() {
                if !(weight.is_finite() && weight >= 0.0) {
                    return Err(VaoError::InvalidWeight { index, weight }.into());
                }
            }
            // Finite weights can still add up past `f64`, and SUM's bounds
            // with them (`validate_floor` covers the products).
            if !weights.iter().sum::<f64>().is_finite() {
                return Err(ServerError::WeightSumOverflow);
            }
        }
        Query::Ave { epsilon } | Query::Max { epsilon } | Query::Min { epsilon } => {
            PrecisionConstraint::new(*epsilon)?;
        }
        // HEAVYHITTERS' ε is the cell width, but the same positivity and
        // finiteness rules apply; like a rank, its `k` cannot exceed the
        // relation (at most `n` cells are ever occupied).
        Query::TopK { k, epsilon } | Query::HeavyHitters { k, epsilon } => {
            PrecisionConstraint::new(*epsilon)?;
            if *k == 0 || *k > n {
                return Err(VaoError::EmptyInput.into());
            }
        }
        Query::Median { epsilon } => {
            PrecisionConstraint::new(*epsilon)?;
        }
        Query::Percentile { phi, epsilon } => {
            PrecisionConstraint::new(*epsilon)?;
            if !phi.is_finite() || !(0.0..=1.0).contains(phi) {
                return Err(VaoError::InvalidQuantile { phi: *phi }.into());
            }
        }
    }
    Ok(())
}

/// Per-tick checks of every session against the freshly invoked pool: ε
/// below the achievable `minWidth` floor is an error, not a hang (footnote
/// 10), and so is a SUM whose interval is not finite.
fn validate_floor(registry: &SessionRegistry, pool: &SharedPool) -> Result<(), ServerError> {
    for sess in registry.sessions() {
        match &sess.query {
            Query::Selection { .. } | Query::Count { .. } => {}
            Query::Sum { weights, epsilon } => {
                PrecisionConstraint::new(*epsilon)?.validate_weighted(pool.objects(), weights)?;
                // Weights that pass the subscribe-time sum check can still
                // overflow against the prices (or were journaled before the
                // check existed): a typed error on every tick until the
                // session is unsubscribed, not `Bounds::new`'s panic.
                checked_sum_interval(pool, weights)?;
            }
            Query::Ave { epsilon } => {
                let uniform = vec![ave_weight(pool.len()); pool.len()];
                PrecisionConstraint::new(*epsilon)?.validate_weighted(pool.objects(), &uniform)?;
            }
            Query::Max { epsilon }
            | Query::Min { epsilon }
            | Query::TopK { epsilon, .. }
            | Query::Median { epsilon }
            | Query::Percentile { epsilon, .. } => {
                PrecisionConstraint::new(*epsilon)?.validate_single_object(pool.objects())?;
            }
            // HEAVYHITTERS' ε is a cell width, not an output precision:
            // objects converge at the minWidth floor and resolve to
            // their midpoint cell, so no floor check applies.
            Query::HeavyHitters { .. } => {}
        }
    }
    Ok(())
}

/// Projects journaled per-object records onto [`WarmStart`] seeds. No
/// record carries a prior cost, so each seed's is 0.
fn warm_seeds(objs: &[WarmObjectRecord]) -> Vec<WarmStart> {
    objs.iter()
        .map(|w| WarmStart {
            bounds: w.bounds,
            converged: w.converged,
            prior_cost: 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bondlab::{BondUniverse, RateSeries};
    use va_persist::record::{RelationSnapshot, WarmRateRecord};
    use vao::Bounds;

    fn small_server(config: ServerConfig) -> Server {
        let universe = BondUniverse::generate(8, 42);
        let relation = BondRelation::from_universe(&universe);
        Server::new(BondPricer::default(), relation, config)
    }

    /// The tenant of the one relation the single-relation servers host.
    fn default_tenant(srv: &Server) -> &Tenant {
        srv.tenant(DEFAULT_RELATION).expect("the default relation")
    }

    fn small_relation() -> BondRelation {
        BondRelation::from_universe(&BondUniverse::generate(8, 42))
    }

    fn relation_of(count: usize, seed: u64) -> BondRelation {
        BondRelation::from_universe(&BondUniverse::generate(count, seed))
    }

    /// A unique scratch dir per call; removed by the caller where it
    /// matters, otherwise left to the OS temp cleaner.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "va-server-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// The test-only way to a server whose column stores hold at most
    /// `limit` bytes; servers otherwise hold [`COLUMN_STORE_BYTES`].
    fn with_column_limit(mut srv: Server, limit: usize) -> Server {
        srv.column_limit = limit;
        srv
    }

    /// The benchmark's `solver_deep` sessions over `bonds` bonds of the
    /// seed-1994 universe: a tight SUM, a tight MAX and a selection.
    fn solver_deep_sessions(srv: &mut Server, bonds: usize) {
        let sum = Query::Sum {
            weights: vec![1.0; bonds],
            epsilon: 0.03 * bonds as f64,
        };
        let selection = Query::Selection {
            op: vao::ops::selection::CmpOp::Gt,
            constant: 100.0,
        };
        for q in [sum, Query::Max { epsilon: 0.03 }, selection] {
            srv.subscribe(q, 1).unwrap();
        }
    }

    /// Everything a tick reports but its wall time.
    fn tick_key(res: &TickResult) -> String {
        let mut stats = res.stats;
        stats.wall = std::time::Duration::ZERO;
        format!(
            "{} {:?} {:?} {} {stats:?}",
            res.tick, res.rate, res.answers, res.budget_exhausted
        )
    }

    #[test]
    fn kept_columns_serve_most_refinements_from_the_second_tick_on() {
        let config = ServerConfig {
            batch: Some(16),
            ..ServerConfig::default().with_workers(2)
        };
        let mut srv = Server::new(BondPricer::default(), relation_of(36, 1994), config);
        solver_deep_sessions(&mut srv, 36);
        let rates: Vec<f64> = (0..12).map(|i| 0.056 + 0.0005 * f64::from(i)).collect();
        srv.tick(rates[0]).unwrap();
        let first = srv.column_stats_in(DEFAULT_RELATION).unwrap();
        assert_eq!(
            first.hits, 0,
            "nothing is held before the first tick commits"
        );
        assert!(first.columns > 0 && first.misses > 0);
        for &rate in &rates[1..] {
            srv.tick(rate).unwrap();
        }
        let last = srv.column_stats_in(DEFAULT_RELATION).unwrap();
        // Nothing was evicted, so every later invocation's trio (three
        // columns a bond) was served: count the refinements alone.
        assert_eq!(last.evictions, 0);
        let trio = 3 * 36 * (rates.len() as u64 - 1);
        let hits = last.hits - first.hits - trio;
        let misses = last.misses - first.misses;
        assert!(
            hits * 10 >= (hits + misses) * 9,
            "{hits} of {} refinements served after the first tick",
            hits + misses
        );
    }

    /// The benchmark's `wire_fanout` sessions: 24 threshold SELECTs that
    /// every bond resolves on its initial bounds, so the pool invocation's
    /// trio is a tick's only column-store traffic.
    fn trio_only_server(bonds: usize) -> Server {
        let mut srv = Server::new(
            BondPricer::default(),
            relation_of(bonds, 1994),
            ServerConfig::default(),
        );
        for i in 0..24 {
            let constant = 20.0 + f64::from(i);
            let op = vao::ops::selection::CmpOp::Gt;
            srv.subscribe(Query::Selection { op, constant }, 1).unwrap();
        }
        srv
    }

    /// Trio bytes per bond: three `t = 0` columns of 9, 9 and 17 rows.
    const TRIO_BYTES: usize = 8 * (9 + 9 + 17);

    #[test]
    fn the_second_ticks_invocation_is_served_from_the_store() {
        // More bonds than one trio lane group (64).
        let bonds = 70;
        let mut srv = trio_only_server(bonds);
        let first = srv.tick(0.0560).unwrap();
        assert_eq!(first.stats.iterations, 0, "the trio is all the tick solves");
        let trio = 3 * bonds as u64;
        assert_eq!(
            srv.column_stats_in(DEFAULT_RELATION).unwrap(),
            ColumnStats {
                columns: 3 * bonds,
                bytes: TRIO_BYTES * bonds,
                hits: 0,
                misses: trio,
                evictions: 0,
            }
        );
        let second = srv.tick(0.0575).unwrap();
        assert_eq!(second.stats.iterations, 0);
        let stats = srv.column_stats_in(DEFAULT_RELATION).unwrap();
        assert_eq!((stats.hits, stats.misses), (trio, trio), "{stats:?}");
        assert_eq!((stats.columns, stats.evictions), (3 * bonds, 0));
    }

    #[test]
    fn a_store_below_one_trio_holds_the_same_set_every_tick() {
        let bonds = 40;
        let limit = TRIO_BYTES * bonds / 2;
        let mut unlimited = trio_only_server(bonds);
        let mut bounded = with_column_limit(trio_only_server(bonds), limit);
        let mut held = Vec::new();
        for (i, rate) in [0.0560, 0.0575, 0.0590, 0.0605, 0.0620]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                tick_key(&bounded.tick(rate).unwrap()),
                tick_key(&unlimited.tick(rate).unwrap()),
                "tick {i}"
            );
            let stats = bounded.column_stats_in(DEFAULT_RELATION).unwrap();
            assert!(stats.bytes <= limit, "{stats:?}");
            held.push(
                bounded
                    .columns_of(bounded.tenant(DEFAULT_RELATION).unwrap().id())
                    .keys(),
            );
        }
        // The cut falls on a column boundary: 40 (8, 8) columns of 72 B and
        // the 20 highest positions' (4, 16) columns of 136 B fill it.
        let stats = bounded.column_stats_in(DEFAULT_RELATION).unwrap();
        assert_eq!((stats.bytes, stats.columns), (limit, bonds + bonds / 2));
        assert!(stats.hits > 0 && stats.evictions > 0, "{stats:?}");
        assert!(held[1].iter().filter(|k| k.0 == 72).count() == bonds);
        assert_eq!(held[1], held[4], "the kept set moved between ticks 2 and 5");
        assert_eq!(held[0], held[1]);
    }

    #[test]
    fn a_deep_wide_relation_never_holds_more_than_the_bound() {
        let config = ServerConfig {
            batch: Some(16),
            ..ServerConfig::default().with_workers(2)
        };
        let mut srv = Server::new(BondPricer::default(), relation_of(300, 7), config);
        srv.subscribe(
            Query::Sum {
                weights: vec![1.0; 300],
                epsilon: 0.02 * 300.0,
            },
            1,
        )
        .unwrap();
        for rate in [0.03, 0.09] {
            srv.tick(rate).unwrap();
            let stats = srv.column_stats_in(DEFAULT_RELATION).unwrap();
            assert!(stats.bytes <= COLUMN_STORE_BYTES, "{stats:?}");
        }
        let stats = srv.column_stats_in(DEFAULT_RELATION).unwrap();
        assert!(stats.evictions > 0, "the bound must bind: {stats:?}");
    }

    #[test]
    fn a_zero_byte_store_ticks_bit_identically() {
        let config = ServerConfig {
            batch: Some(16),
            ..ServerConfig::default().with_workers(2)
        };
        let server = || {
            let mut srv = Server::new(BondPricer::default(), relation_of(12, 1994), config);
            solver_deep_sessions(&mut srv, 12);
            srv
        };
        let mut kept = server();
        let mut none = with_column_limit(server(), 0);
        for rate in [0.056, 0.0565, 0.057, 0.056] {
            assert_eq!(
                tick_key(&kept.tick(rate).unwrap()),
                tick_key(&none.tick(rate).unwrap())
            );
        }
        let (kept, none) = (
            kept.column_stats_in(DEFAULT_RELATION).unwrap(),
            none.column_stats_in(DEFAULT_RELATION).unwrap(),
        );
        assert!(kept.hits > 0 && kept.columns > 0);
        assert_eq!((none.hits, none.columns, none.bytes), (0, 0, 0));
        // Every column is over a zero-byte bound, so none is even taken in.
        assert!(none.misses > 0);
        assert_eq!(none.evictions, 0);
    }

    #[test]
    fn column_stores_are_derived_and_die_with_their_relation_or_process() {
        let dir = scratch_dir("columns");
        let config = ServerConfig::default().with_workers(2);
        let mut srv =
            Server::open_durable(BondPricer::default(), small_relation(), config, &dir).unwrap();
        srv.subscribe(Query::Max { epsilon: 0.02 }, 1).unwrap();
        srv.tick(0.0583).unwrap();
        let held = srv.column_stats_in(DEFAULT_RELATION).unwrap();
        assert!(held.columns > 0 && held.bytes > 0);
        drop(srv);

        // Recovery folds the journal; nothing in it rebuilds a column.
        let mut srv =
            Server::open_durable(BondPricer::default(), small_relation(), config, &dir).unwrap();
        assert_eq!(
            srv.column_stats_in(DEFAULT_RELATION).unwrap(),
            ColumnStats::default()
        );
        srv.tick(0.0583).unwrap();
        assert!(srv.column_stats_in(DEFAULT_RELATION).unwrap().columns > 0);

        // A dropped relation takes its store along; a new one starts empty.
        let id = srv.drop_relation(DEFAULT_RELATION).unwrap();
        assert!(!srv.columns.contains_key(&id));
        srv.create_relation(DEFAULT_RELATION, small_relation(), None)
            .unwrap();
        assert_eq!(
            srv.column_stats_in(DEFAULT_RELATION).unwrap(),
            ColumnStats::default()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn subscribe_validates_structurally() {
        let mut srv = small_server(ServerConfig::default());
        assert!(srv.subscribe(Query::Max { epsilon: 0.5 }, 1).is_ok());
        assert!(matches!(
            srv.subscribe(Query::Max { epsilon: -1.0 }, 1),
            Err(ServerError::Vao(VaoError::InvalidPrecision { .. }))
        ));
        assert!(matches!(
            srv.subscribe(
                Query::Sum {
                    weights: vec![1.0; 3],
                    epsilon: 0.5
                },
                1
            ),
            Err(ServerError::Vao(VaoError::WeightCountMismatch { .. }))
        ));
        assert!(matches!(
            srv.subscribe(Query::TopK { k: 0, epsilon: 0.5 }, 1),
            Err(ServerError::Vao(VaoError::EmptyInput))
        ));
        assert!(matches!(
            srv.subscribe(
                Query::Selection {
                    op: vao::ops::selection::CmpOp::Gt,
                    constant: f64::NAN
                },
                1
            ),
            Err(ServerError::Vao(VaoError::NonFiniteConstant { .. }))
        ));
    }

    #[test]
    fn unbudgeted_tick_answers_every_session_final() {
        let mut srv = small_server(ServerConfig::default());
        let a = srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        let b = srv
            .subscribe(
                Query::Sum {
                    weights: vec![1.0; 8],
                    epsilon: 1.0,
                },
                2,
            )
            .unwrap();
        let rate = RateSeries::january_1994().opening_rate();
        let res = srv.tick(rate).unwrap();
        assert_eq!(res.tick, 1);
        assert_eq!(res.relation, RelationId(1));
        assert_eq!(res.answers.len(), 2);
        assert!(!res.budget_exhausted);
        for (id, ans) in &res.answers {
            assert!(ans.is_final(), "session {id} should be final");
        }
        assert_eq!(res.answers[0].0, a);
        assert_eq!(res.answers[1].0, b);
        let summary = srv.summary_in(DEFAULT_RELATION).unwrap();
        assert_eq!(summary.ticks, 1);
        let per_session = default_tenant(&srv).sessions().sessions();
        assert_eq!(per_session.len(), 2);
        assert!(per_session.iter().all(|r| r.finals == 1));
        // Someone must have driven the refinement work.
        assert!(per_session.iter().map(|r| r.driven_iterations).sum::<u64>() > 0);
    }

    #[test]
    fn tight_budget_degrades_to_partial_answers() {
        let mut srv = small_server(ServerConfig::default());
        srv.subscribe(Query::Max { epsilon: 0.05 }, 1).unwrap();
        let rate = RateSeries::january_1994().opening_rate();
        let full = srv.tick(rate).unwrap();
        let full_work = full.stats.total_work();

        // Re-run with a budget well below the converged cost: the answer
        // must degrade, not error, and its bounds must bracket the final.
        let mut tight = small_server(ServerConfig::budgeted(full_work / 3));
        tight.subscribe(Query::Max { epsilon: 0.05 }, 1).unwrap();
        let partial = tight.tick(rate).unwrap();
        assert!(partial.budget_exhausted);
        let bounds = partial.answers[0].1.partial_bounds().expect("partial");
        let final_bounds = match full.answers[0].1.final_output().unwrap() {
            va_stream::QueryOutput::Extreme { bounds, .. } => *bounds,
            other => panic!("unexpected shape {other:?}"),
        };
        let mid = 0.5 * (final_bounds.lo() + final_bounds.hi());
        assert!(
            bounds.lo() <= mid && mid <= bounds.hi(),
            "partial {bounds} must bracket converged mid {mid}"
        );
        assert!(partial.stats.total_work() <= full_work);
        assert_eq!(default_tenant(&tight).sessions().sessions()[0].partials, 1);
    }

    #[test]
    fn tick_coalescing_sheds_stale_rates() {
        let mut srv = small_server(ServerConfig::default());
        srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        assert!(srv.run_queued_in(DEFAULT_RELATION).is_none());
        for rate in [0.0583, 0.0584, 0.0585] {
            srv.offer_tick_in(DEFAULT_RELATION, rate).unwrap();
        }
        assert_eq!(default_tenant(&srv).shed(), 2);
        let res = srv.run_queued_in(DEFAULT_RELATION).unwrap().unwrap();
        assert_eq!(res.rate, 0.0585, "only the newest rate is priced");
        assert!(
            srv.run_queued_in(DEFAULT_RELATION).is_none(),
            "queue drained"
        );
        assert_eq!(default_tenant(&srv).ticks(), 1);
    }

    #[test]
    fn unknown_relation_is_a_typed_error() {
        let mut srv = small_server(ServerConfig::default());
        assert!(matches!(
            srv.subscribe_to("energy", Query::Max { epsilon: 0.5 }, 1),
            Err(ServerError::UnknownRelation(name)) if name == "energy"
        ));
        assert!(matches!(
            srv.tick_relation("energy", 0.0583),
            Err(ServerError::UnknownRelation(_))
        ));
        assert!(matches!(
            srv.tick_multi(&[("default", 0.0583), ("energy", 0.0583)]),
            Err(ServerError::UnknownRelation(_))
        ));
        assert!(matches!(
            srv.resume_in("energy", SessionId(1)),
            Err(ServerError::UnknownRelation(_))
        ));
        assert!(matches!(
            srv.drop_relation("energy"),
            Err(ServerError::UnknownRelation(_))
        ));
        // A dropped relation is indistinguishable from one never created.
        srv.create_relation("energy", relation_of(4, 7), None)
            .unwrap();
        srv.subscribe_to("energy", Query::Max { epsilon: 0.5 }, 1)
            .unwrap();
        srv.drop_relation("energy").unwrap();
        assert!(matches!(
            srv.subscribe_to("energy", Query::Max { epsilon: 0.5 }, 1),
            Err(ServerError::UnknownRelation(_))
        ));
        // Its id stays burned: re-creating the name issues a fresh id.
        let fresh = srv
            .create_relation("energy", relation_of(4, 7), None)
            .unwrap();
        assert_eq!(fresh, RelationId(3));
        // Duplicate names are refused, and malformed bonds never panic.
        assert!(matches!(
            srv.create_relation("energy", relation_of(4, 7), None),
            Err(ServerError::RelationExists(_))
        ));
        assert!(matches!(
            srv.add_bond("energy", 1.5, 10.0, 100.0),
            Err(ServerError::InvalidBond(_))
        ));
    }

    #[test]
    fn co_hosted_relations_match_isolated_servers() {
        // One host serving two relations under a single arbitrated budget
        // must produce, per relation, exactly the bytes an isolated
        // single-relation server produces when given that relation's slice.
        let rate = RateSeries::january_1994().opening_rate();
        let total: Work = 60_000;
        let specs = [
            (DEFAULT_RELATION, 8_usize, 42_u64, 3_u32),
            ("energy", 6, 7, 1),
        ];

        let mut host = Server::new(
            BondPricer::default(),
            relation_of(specs[0].1, specs[0].2),
            ServerConfig::budgeted(total),
        );
        host.create_relation("energy", relation_of(specs[1].1, specs[1].2), None)
            .unwrap();
        for (name, count, _, prio) in &specs {
            host.subscribe_to(name, Query::Max { epsilon: 0.1 }, *prio)
                .unwrap();
            host.subscribe_to(
                name,
                Query::Sum {
                    weights: vec![1.0; *count],
                    epsilon: 0.1,
                },
                *prio,
            )
            .unwrap();
        }
        let results = host
            .tick_multi(&[(specs[0].0, rate), (specs[1].0, rate)])
            .unwrap();

        let weights: Vec<u64> = specs.iter().map(|s| u64::from(s.3) * 2).collect();
        let slices = sched::arbitrate_budget(Some(total), &weights);
        for (i, (name, count, seed, prio)) in specs.iter().enumerate() {
            let mut iso = Server::new(
                BondPricer::default(),
                relation_of(*count, *seed),
                ServerConfig::budgeted(slices[i].unwrap()),
            );
            iso.subscribe(Query::Max { epsilon: 0.1 }, *prio).unwrap();
            iso.subscribe(
                Query::Sum {
                    weights: vec![1.0; *count],
                    epsilon: 0.1,
                },
                *prio,
            )
            .unwrap();
            let alone = iso.tick(rate).unwrap();
            assert_eq!(
                results[i].answers, alone.answers,
                "co-hosted answers for {name} diverged from an isolated server"
            );
            assert_eq!(results[i].stats.work, alone.stats.work);
            assert_eq!(results[i].stats.iterations, alone.stats.iterations);
            assert_eq!(results[i].budget_exhausted, alone.budget_exhausted);
        }
    }

    #[test]
    fn sharded_multi_tick_is_bit_identical_to_sequential() {
        // Worker threads shard relations but must never change results:
        // the batch size (which *does* shape the schedule) is pinned, so
        // the sequential (workers = 1) and sharded (workers = 4) hosts
        // must agree bit for bit.
        let rate = RateSeries::january_1994().opening_rate();
        let build = |workers: usize| {
            let config = ServerConfig {
                budget: Some(40_000),
                batch: Some(2),
                workers,
                ..ServerConfig::default()
            };
            let mut srv = Server::new(BondPricer::default(), relation_of(8, 42), config);
            for (name, count, seed) in [("energy", 6_usize, 7_u64), ("fx", 5, 9)] {
                srv.create_relation(name, relation_of(count, seed), None)
                    .unwrap();
            }
            for (name, count) in [(DEFAULT_RELATION, 8_usize), ("energy", 6), ("fx", 5)] {
                srv.subscribe_to(name, Query::Max { epsilon: 0.1 }, 2)
                    .unwrap();
                srv.subscribe_to(
                    name,
                    Query::Sum {
                        weights: vec![1.0; count],
                        epsilon: 0.1,
                    },
                    1,
                )
                .unwrap();
            }
            srv
        };
        let ticks = [(DEFAULT_RELATION, rate), ("energy", rate), ("fx", rate)];
        let mut seq = build(1);
        let mut shard = build(4);
        for _ in 0..3 {
            let a = seq.tick_multi(&ticks).unwrap();
            let b = shard.tick_multi(&ticks).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.relation, y.relation);
                assert_eq!(x.answers, y.answers, "sharding changed answers");
                assert_eq!(x.stats.work, y.stats.work, "sharding changed work");
                assert_eq!(x.stats.iterations, y.stats.iterations);
            }
        }
    }

    #[test]
    fn thirty_two_relations_match_isolated_servers() {
        // Acceptance floor: ≥ 32 co-hosted relations, each bit-identical
        // to its own isolated server. Unbudgeted (every relation runs to
        // convergence) with a pinned batch so worker sharding is exercised
        // without perturbing any schedule.
        let rate = RateSeries::january_1994().opening_rate();
        let host_config = ServerConfig {
            batch: Some(1),
            workers: 4,
            ..ServerConfig::default()
        };
        let mut host = Server::new(BondPricer::default(), relation_of(4, 1), host_config);
        let mut names: Vec<String> = vec![DEFAULT_RELATION.to_string()];
        for i in 2..=32_u64 {
            let name = format!("rel{i}");
            host.create_relation(&name, relation_of(4, i), None)
                .unwrap();
            names.push(name);
        }
        for (i, name) in names.iter().enumerate() {
            host.subscribe_to(name, Query::Max { epsilon: 0.05 }, 1 + (i as u32 % 3))
                .unwrap();
        }
        let ticks: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), rate)).collect();
        let results = host.tick_multi(&ticks).unwrap();
        assert_eq!(host.catalog().len(), 32);
        for (i, name) in names.iter().enumerate() {
            let iso_config = ServerConfig {
                batch: Some(1),
                ..ServerConfig::default()
            };
            let mut iso = Server::new(
                BondPricer::default(),
                relation_of(4, (i as u64) + 1),
                iso_config,
            );
            iso.subscribe(Query::Max { epsilon: 0.05 }, 1 + (i as u32 % 3))
                .unwrap();
            let alone = iso.tick(rate).unwrap();
            assert_eq!(
                results[i].answers, alone.answers,
                "relation {name} diverged from its isolated server"
            );
            assert_eq!(results[i].stats.work, alone.stats.work);
        }
    }

    #[test]
    fn durable_server_round_trips_through_clean_shutdown() {
        let dir = scratch_dir("clean");
        let rate = RateSeries::january_1994().opening_rate();
        let (id, first) = {
            let mut srv = Server::open_durable(
                BondPricer::default(),
                small_relation(),
                ServerConfig::default(),
                &dir,
            )
            .unwrap();
            let rec = srv.last_recovery().unwrap();
            assert_eq!(rec.snapshot_seq, None, "fresh dir recovers nothing");
            assert_eq!(rec.replayed_events, 0);
            let id = srv.subscribe(Query::Max { epsilon: 0.5 }, 2).unwrap();
            let res = srv.tick(rate).unwrap();
            srv.shutdown().unwrap();
            (id, res)
        };

        let mut srv = Server::open_durable(
            BondPricer::default(),
            small_relation(),
            ServerConfig::default(),
            &dir,
        )
        .unwrap();
        let rec = srv.last_recovery().unwrap();
        assert!(rec.snapshot_seq.is_some(), "clean shutdown snapshotted");
        assert_eq!(rec.replayed_events, 0, "clean shutdown replays nothing");
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(default_tenant(&srv).ticks(), 1);
        let (sess, answer) = srv.resume_in(DEFAULT_RELATION, id).unwrap();
        assert_eq!(sess.priority, 2);
        assert_eq!(sess.finals, 1);
        assert_eq!(answer.unwrap(), &first.answers[0].1);
        // The recovered high-water mark never re-issues the id.
        let fresh = srv.subscribe(Query::Min { epsilon: 0.5 }, 1).unwrap();
        assert!(fresh.0 > id.0);
        // A repeat tick at the recovered rate starts from the warm cache:
        // everything already converged, so zero refinement iterations.
        let warm = srv.tick(rate).unwrap();
        assert_eq!(
            warm.answers[0].1, first.answers[0].1,
            "warm re-admission reproduces the answer"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_catalog_round_trips_through_a_crash() {
        // A catalog dir is fully self-describing: relations created over
        // the control plane come back after an unclean stop (no shutdown,
        // no snapshot) with their definitions, sessions, per-relation tick
        // counters, and last answers intact — and with no bootstrap
        // relation or flags supplied at reopen.
        let dir = scratch_dir("catalog");
        let rate = RateSeries::january_1994().opening_rate();
        let pricer = BondPricer::default();
        let (id_a, id_b, first) = {
            let mut srv =
                Server::open_durable_catalog(pricer, ServerConfig::default(), &dir).unwrap();
            assert!(srv.catalog().is_empty(), "fresh catalog dir starts empty");
            srv.create_relation("rates", relation_of(8, 42), None)
                .unwrap();
            srv.create_relation("energy", relation_of(6, 7), None)
                .unwrap();
            srv.create_relation("doomed", relation_of(4, 9), None)
                .unwrap();
            let id_a = srv
                .subscribe_to("rates", Query::Max { epsilon: 0.5 }, 2)
                .unwrap();
            let id_b = srv
                .subscribe_to("energy", Query::Min { epsilon: 0.5 }, 1)
                .unwrap();
            // Session id spaces are per relation, exactly like isolated
            // servers: both tenants issue id 1.
            assert_eq!(id_a, id_b);
            srv.add_bond("energy", 0.05, 10.0, 100.0).unwrap();
            srv.drop_relation("doomed").unwrap();
            let first = srv
                .tick_multi(&[("rates", rate), ("energy", rate)])
                .unwrap();
            (id_a, id_b, first)
            // Dropped without shutdown(): recovery folds the journal.
        };

        let mut srv = Server::open_durable_catalog(pricer, ServerConfig::default(), &dir).unwrap();
        assert_eq!(srv.catalog().len(), 2);
        assert!(srv.catalog().by_name("doomed").is_none());
        let energy = srv.catalog().by_name("energy").unwrap();
        assert_eq!(energy.relation().len(), 7, "ADD BOND survived recovery");
        let (sess, ans) = srv.resume_in("rates", id_a).unwrap();
        assert_eq!(sess.priority, 2);
        assert_eq!(ans.unwrap(), &first[0].answers[0].1);
        let (_, ans_b) = srv.resume_in("energy", id_b).unwrap();
        assert_eq!(ans_b.unwrap(), &first[1].answers[0].1);
        // A repeat tick on the unmodified relation is warm and
        // bit-identical; the grown relation's warm state no longer aligns
        // and falls back to a cold tick without error.
        let again = srv
            .tick_multi(&[("rates", rate), ("energy", rate)])
            .unwrap();
        assert_eq!(again[0].answers[0].1, first[0].answers[0].1);
        assert_eq!(again[0].tick, 2);
        assert!(again[1].answers[0].1.is_final());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_relation_ticks_drain_the_compaction_queue() {
        // Only the single-relation tick used to drain `pending_compactions`;
        // a durable server driven by `tick_multi` alone pushed one record
        // per compacting snapshot for the life of the process.
        let dir = scratch_dir("multi-compaction");
        let config = ServerConfig {
            snapshot_every: 2,
            ..ServerConfig::default()
        };
        let mut srv = Server::open_durable_catalog(BondPricer::default(), config, &dir).unwrap();
        srv.create_relation("rates", relation_of(4, 42), None)
            .unwrap();
        srv.create_relation("energy", relation_of(4, 7), None)
            .unwrap();
        srv.subscribe_to("rates", Query::Max { epsilon: 1.0 }, 1)
            .unwrap();
        srv.subscribe_to("energy", Query::Min { epsilon: 1.0 }, 1)
            .unwrap();
        let mut compactions = 0;
        for i in 0..40 {
            let rate = 0.0583 + f64::from(i % 4) * 0.0005;
            srv.tick_multi(&[("rates", rate), ("energy", rate)])
                .unwrap();
            // At most the record of the snapshot this very call wrote.
            assert!(
                srv.pending_compactions.len() <= 1,
                "call {i} left {} queued compactions",
                srv.pending_compactions.len()
            );
            compactions += srv.pending_compactions.len();
        }
        assert!(compactions > 1, "the run must compact more than once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every file in `dir`, by name.
    fn dir_contents(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn interrupted_bootstraps_reopen_through_the_one_path() {
        let pricer = BondPricer::default();
        let open = |relation: BondRelation, dir: &Path| {
            Server::open_durable(pricer, relation, ServerConfig::default(), dir)
        };
        // The uninterrupted bootstrap every crash window must converge to:
        // metadata binding "default", one CreateRelation line, no snapshot
        // — also under snapshot_every = 1, where the create is already one
        // event past the cadence.
        let golden_dir = scratch_dir("bootstrap-golden");
        drop(open(small_relation(), &golden_dir).unwrap());
        let golden = dir_contents(&golden_dir);
        assert_eq!(
            golden.keys().collect::<Vec<_>>(),
            ["journal-1.jsonl", "meta.json"]
        );
        assert_eq!(
            golden["journal-1.jsonl"]
                .iter()
                .filter(|&&b| b == b'\n')
                .count(),
            1
        );
        let eager_dir = scratch_dir("bootstrap-eager");
        let eager = ServerConfig {
            snapshot_every: 1,
            ..ServerConfig::default()
        };
        drop(Server::open_durable(pricer, small_relation(), eager, &eager_dir).unwrap());
        assert_eq!(dir_contents(&eager_dir), golden);

        // (a) stopped after the empty metadata write.
        let meta_only = scratch_dir("bootstrap-meta-only");
        drop(Server::open_durable_catalog(pricer, ServerConfig::default(), &meta_only).unwrap());
        let empty_meta = dir_contents(&meta_only)["meta.json"].clone();
        assert_ne!(empty_meta, golden["meta.json"]);
        // (b) stopped after the CreateRelation append, metadata still empty.
        let journaled = scratch_dir("bootstrap-journaled");
        drop(open(small_relation(), &journaled).unwrap());
        std::fs::write(journaled.join(META_FILE), &empty_meta).unwrap();
        match open(relation_of(8, 43), &journaled) {
            Err(ServerError::Persist { detail }) => {
                assert!(detail.contains("fingerprint mismatch"), "{detail}");
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }

        for dir in [&meta_only, &journaled] {
            let mut srv = open(small_relation(), dir).unwrap();
            let default = srv.catalog().by_name(DEFAULT_RELATION).unwrap();
            assert_eq!(default.id(), RelationId(1));
            assert_eq!(default.relation().bonds(), small_relation().bonds());
            assert_eq!(srv.catalog().len(), 1);
            assert_eq!(dir_contents(dir), golden);
            let id = srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
            assert_eq!(id, SessionId(1));
        }

        // A catalog dir that never had a "default" is not a bootstrap dir.
        let no_default = scratch_dir("bootstrap-no-default");
        {
            let mut srv =
                Server::open_durable_catalog(pricer, ServerConfig::default(), &no_default).unwrap();
            srv.create_relation("energy", relation_of(4, 7), None)
                .unwrap();
        }
        match open(small_relation(), &no_default) {
            Err(ServerError::Persist { detail }) => {
                assert!(detail.contains("unsupported data dir layout"), "{detail}");
                assert!(detail.contains("no \"default\" relation"), "{detail}");
            }
            other => panic!("expected Layout refusal, got {other:?}"),
        }
        for dir in [golden_dir, eager_dir, meta_only, journaled, no_default] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn an_event_for_an_unseen_relation_is_corrupt_on_the_spot() {
        let dir = scratch_dir("unseen");
        drop(
            Server::open_durable(
                BondPricer::default(),
                small_relation(),
                ServerConfig::default(),
                &dir,
            )
            .unwrap(),
        );
        {
            let (mut store, _, _) = va_persist::Store::open(&dir).unwrap();
            store
                .append(&JournalEvent::Unsubscribe {
                    relation: 2,
                    session: 1,
                })
                .unwrap();
        }
        match Server::open_durable_catalog(BondPricer::default(), ServerConfig::default(), &dir) {
            Err(ServerError::Persist { detail }) => {
                assert!(detail.contains("corrupt journal"), "{detail}");
                assert!(detail.contains("relation 2"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_data_dir_means_no_journal_and_resume_still_works() {
        let mut srv = small_server(ServerConfig::default());
        assert!(srv.last_recovery().is_none());
        let id = srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        assert!(matches!(
            srv.resume_in(DEFAULT_RELATION, SessionId(99)),
            Err(ServerError::UnknownSession(99))
        ));
        let (_, none_yet) = srv.resume_in(DEFAULT_RELATION, id).unwrap();
        assert!(none_yet.is_none(), "no tick yet, no last answer");
        let res = srv.tick(0.0583).unwrap();
        let (_, ans) = srv.resume_in(DEFAULT_RELATION, id).unwrap();
        assert_eq!(ans.unwrap(), &res.answers[0].1);
        srv.shutdown().unwrap(); // no-op without a data dir
    }

    #[test]
    fn reopening_with_a_different_universe_is_refused() {
        let dir = scratch_dir("fingerprint");
        let rate = RateSeries::january_1994().opening_rate();
        {
            let mut srv = Server::open_durable(
                BondPricer::default(),
                small_relation(),
                ServerConfig::default(),
                &dir,
            )
            .unwrap();
            srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
            srv.tick(rate).unwrap();
        }
        // Same cardinality, different bonds: the recovered warm bounds
        // would overlap this universe's and be served as final answers.
        let same_size = BondRelation::from_universe(&BondUniverse::generate(8, 43));
        match Server::open_durable(
            BondPricer::default(),
            same_size,
            ServerConfig::default(),
            &dir,
        ) {
            Err(ServerError::Persist { detail }) => {
                assert!(detail.contains("fingerprint mismatch"), "{detail}");
            }
            other => panic!("expected Persist mismatch, got {other:?}"),
        }
        // A grown universe (same seed, more bonds) is refused at open
        // instead of panicking on the first tick at a journaled rate.
        let grown = BondRelation::from_universe(&BondUniverse::generate(12, 42));
        assert!(
            Server::open_durable(BondPricer::default(), grown, ServerConfig::default(), &dir)
                .is_err()
        );
        // A different pricer configuration is refused too.
        let pricer = BondPricer {
            model: bondlab::ShortRateModel {
                sigma: 0.03,
                ..bondlab::ShortRateModel::default()
            },
            ..BondPricer::default()
        };
        assert!(
            Server::open_durable(pricer, small_relation(), ServerConfig::default(), &dir).is_err()
        );
        // The original universe still recovers cleanly.
        let srv = Server::open_durable(
            BondPricer::default(),
            small_relation(),
            ServerConfig::default(),
            &dir,
        )
        .unwrap();
        assert_eq!(default_tenant(&srv).ticks(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tick record as a server would have journaled it, carrying only
    /// what the tests below look at: the warm state.
    fn forged_tick(
        relation: u64,
        tick: u64,
        rate: f64,
        warm: Vec<WarmObjectRecord>,
    ) -> JournalEvent {
        JournalEvent::Tick(Box::new(TickRecord {
            relation,
            tick,
            rate,
            shed: 0,
            budget_exhausted: false,
            work: vao::cost::WorkBreakdown::default(),
            iterations: 0,
            sessions: Vec::new(),
            answers: Vec::new(),
            warm,
        }))
    }

    fn warm_object(lo: f64, hi: f64, converged: bool) -> WarmObjectRecord {
        WarmObjectRecord {
            bounds: Bounds::new(lo, hi),
            converged,
        }
    }

    #[test]
    fn misaligned_warm_record_falls_back_to_a_cold_tick() {
        // A journal record can be damaged in a way that still parses —
        // e.g. a warm array shorter than the relation. The tick must
        // discard the prior, not index past its end.
        let dir = scratch_dir("shortwarm");
        let relation = small_relation();
        let pricer = BondPricer::default();
        let rate = RateSeries::january_1994().opening_rate();
        drop(
            Server::open_durable(pricer, relation.clone(), ServerConfig::default(), &dir).unwrap(),
        );
        {
            let (mut store, _, _) = va_persist::Store::open(&dir).unwrap();
            let short = vec![warm_object(0.0, 1.0, true)];
            store.append(&forged_tick(1, 1, rate, short)).unwrap();
        }
        let mut srv =
            Server::open_durable(pricer, relation, ServerConfig::default(), &dir).unwrap();
        assert_eq!(default_tenant(&srv).ticks(), 1, "the forged tick replayed");
        srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        let res = srv.tick(rate).unwrap();
        assert!(res.answers[0].1.is_final(), "cold fallback still answers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Moved from `va_persist` with the fold it checks: the per-relation
    /// warm maps are filled by `fold_into_catalog`'s one pass.
    #[test]
    fn warm_state_folds_snapshot_then_tail_per_relation() {
        let def = |name: &str| def_record(name, None, &relation_of(1, 7));
        let recovered = Recovery {
            snapshot: Some(SnapshotRecord {
                seq: 1,
                journal_events: 0,
                coverage: va_persist::record::SegmentPosition {
                    segment: 1,
                    bytes: 0,
                },
                next_relation_id: 2,
                relations: vec![RelationSnapshot {
                    relation: 1,
                    def: def("default"),
                    next_session_id: 1,
                    ticks: 0,
                    shed: 0,
                    sessions: Vec::new(),
                    work: vao::cost::WorkBreakdown::default(),
                    iterations: 0,
                    warm: vec![
                        WarmRateRecord {
                            rate: 0.05,
                            objects: vec![warm_object(1.0, 2.0, true)],
                        },
                        WarmRateRecord {
                            rate: 0.07,
                            objects: Vec::new(),
                        },
                    ],
                    answers: Vec::new(),
                }],
            }),
            tail: vec![
                forged_tick(1, 5, 0.05, vec![warm_object(99.0, 100.0, false)]),
                JournalEvent::CreateRelation(Box::new(RelationRecord {
                    relation: 2,
                    def: def("second"),
                })),
                forged_tick(2, 5, 0.05, vec![warm_object(7.0, 8.0, false)]),
            ],
            truncated_bytes: 0,
            skipped_snapshots: Vec::new(),
            swept_tmp_files: 0,
        };
        let catalog = fold_into_catalog(recovered).unwrap();
        assert_eq!(catalog.len(), 2, "relation 2 appears from its tail");
        let warm = &catalog.get(RelationId(1)).unwrap().warm;
        assert_eq!(warm.len(), 2);
        assert_eq!(warm[&0.05f64.to_bits()][0].bounds.lo(), 99.0, "tail wins");
        assert!(warm[&0.07f64.to_bits()].is_empty(), "snapshot entry kept");
        assert_eq!(
            catalog.get(RelationId(2)).unwrap().warm[&0.05f64.to_bits()][0]
                .bounds
                .lo(),
            7.0,
            "relations never share warm state"
        );
    }

    #[test]
    fn a_tick_moves_its_tenant_only_at_commit() {
        let rate = RateSeries::january_1994().opening_rate();
        let build = || {
            let mut srv = small_server(ServerConfig::budgeted(6_000));
            srv.subscribe(Query::Max { epsilon: 0.05 }, 2).unwrap();
            let predicate = Query::Selection {
                op: vao::ops::selection::CmpOp::Gt,
                constant: 100.0,
            };
            srv.subscribe(predicate, 1).unwrap();
            srv
        };
        let mut srv = build();
        let fresh = default_tenant(&srv).sessions().sessions().to_vec();
        let tenant = &srv.catalog.tenants()[0];
        let exec = execute_tenant_tick(
            &srv.pricer,
            &srv.config,
            tenant,
            srv.columns_of(tenant.id),
            rate,
            srv.config.budget,
            1,
            false,
            &mut NoopObserver,
        )
        .unwrap();
        // Executed, not committed: what a failed journal append leaves.
        assert_eq!(tenant.registry.sessions(), fresh);
        assert_eq!(tenant.summary, RunSummary::default());
        let (_, event, _) = srv.tick_record(0, exec);
        srv.journal_and_apply(vec![event]).unwrap();
        // Committed: the state an ordinary tick leaves.
        let mut twin = build();
        twin.tick(rate).unwrap();
        let (tenant, expected) = (&srv.catalog.tenants()[0], &twin.catalog.tenants()[0]);
        assert_eq!(tenant.registry.sessions(), expected.registry.sessions());
        assert_eq!(tenant.last_answers, expected.last_answers);
        let sessions = tenant.registry.sessions();
        assert!(sessions.iter().all(|s| s.finals + s.partials == 1));
        assert!(sessions.iter().any(|s| s.driven_iterations > 0));
    }

    #[test]
    fn a_rate_off_the_pricer_grid_is_refused_before_anything_executes() {
        let mut srv = small_server(ServerConfig::default());
        srv.create_relation("energy", relation_of(4, 7), None)
            .unwrap();
        srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        for rate in [7.0, -0.01, f64::NAN] {
            match srv.tick(rate) {
                Err(ServerError::RateOutOfRange { min, max, .. }) => {
                    assert_eq!((min, max), (0.0, 0.3));
                }
                other => panic!("rate {rate}: expected RateOutOfRange, got {other:?}"),
            }
        }
        srv.offer_tick_in(DEFAULT_RELATION, 7.0).unwrap();
        assert!(matches!(
            srv.run_queued_in(DEFAULT_RELATION),
            Some(Err(ServerError::RateOutOfRange { .. }))
        ));
        // One bad rate fails the whole multi-tick, the good relation included.
        assert!(matches!(
            srv.tick_multi(&[(DEFAULT_RELATION, 0.0583), ("energy", 7.0)]),
            Err(ServerError::RateOutOfRange { .. })
        ));
        assert_eq!(default_tenant(&srv).ticks(), 0);
        assert_eq!(
            srv.tick(0.3).unwrap().tick,
            1,
            "the grid's edge is priceable"
        );
    }

    #[test]
    fn a_journaled_heavyhitters_k_beyond_the_relation_opens_and_ticks() {
        // What a server without the subscribe-time bound could journal: a
        // `k` no relation can fill, which used to size the tick's summary.
        let dir = scratch_dir("huge-k");
        let open = || {
            Server::open_durable(
                BondPricer::default(),
                small_relation(),
                ServerConfig::default(),
                &dir,
            )
        };
        drop(open().unwrap());
        {
            let (mut store, _, _) = va_persist::Store::open(&dir).unwrap();
            let query = Query::HeavyHitters {
                k: usize::MAX,
                epsilon: 1.0,
            };
            store
                .append(&JournalEvent::Subscribe {
                    relation: 1,
                    session: 1,
                    priority: 1,
                    query,
                })
                .unwrap();
        }
        let mut srv = open().unwrap();
        let res = srv.tick(0.0583).unwrap();
        assert!(res.answers[0].1.is_final());
        assert!(matches!(
            srv.subscribe(Query::HeavyHitters { k: 9, epsilon: 1.0 }, 1),
            Err(ServerError::Vao(VaoError::EmptyInput))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_journaled_overflowing_sum_opens_and_ticks_to_a_typed_error() {
        // What a server without the subscribe-time sum check could journal:
        // finite weights whose weighted interval is `[inf, inf]`, which used
        // to panic in `Bounds::new` on every tick, restart after restart.
        let dir = scratch_dir("sum-overflow");
        let open = || {
            Server::open_durable(
                BondPricer::default(),
                small_relation(),
                ServerConfig::default(),
                &dir,
            )
        };
        let sum = |weight: f64| Query::Sum {
            weights: vec![weight; 8],
            epsilon: 1e307,
        };
        drop(open().unwrap());
        {
            let (mut store, _, _) = va_persist::Store::open(&dir).unwrap();
            store
                .append(&JournalEvent::Subscribe {
                    relation: 1,
                    session: 1,
                    priority: 1,
                    query: sum(1e308),
                })
                .unwrap();
        }
        let mut srv = open().unwrap();
        let non_finite = |res: Result<TickResult, ServerError>| {
            matches!(res, Err(ServerError::Vao(VaoError::NonFiniteBounds { .. })))
        };
        assert!(non_finite(srv.tick(0.0583)));
        assert!(matches!(
            srv.subscribe(sum(1e308), 1),
            Err(ServerError::WeightSumOverflow)
        ));
        // A finite sum can still overflow against the prices: admitted, and
        // the same typed error per tick.
        srv.unsubscribe_in(DEFAULT_RELATION, SessionId(1)).unwrap();
        let id = srv.subscribe(sum(1e306), 1).unwrap();
        assert!(non_finite(srv.tick(0.0583)));
        assert_eq!(
            default_tenant(&srv).ticks(),
            0,
            "a refused tick is not a tick"
        );
        srv.unsubscribe_in(DEFAULT_RELATION, id).unwrap();
        srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        assert!(srv.tick(0.0583).unwrap().answers[0].1.is_final());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The `"relations"` array of the one snapshot file in `dir`.
    fn snapshot_relations(dir: &Path) -> String {
        let mut snapshots = dir_contents(dir)
            .into_iter()
            .filter(|(name, _)| name.starts_with("snapshot-"));
        let (_, bytes) = snapshots.next().expect("a snapshot file");
        assert!(snapshots.next().is_none(), "one snapshot file");
        let text = String::from_utf8(bytes).unwrap();
        text[text.find("\"relations\":").expect("relations field")..].to_string()
    }

    /// Copies the data dir `from` into a new dir `to`, snapshots left out:
    /// what opens `to` recovers from the journal alone.
    fn copy_without_snapshots(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for (name, bytes) in dir_contents(from) {
            if !name.starts_with("snapshot-") {
                std::fs::write(to.join(name), bytes).unwrap();
            }
        }
    }

    #[test]
    fn replaying_the_journal_rebuilds_the_live_state_byte_for_byte() {
        // One script with every event kind, then the same catalog state by
        // two routes: the live server that executed it, and a fold of the
        // journal it wrote (no snapshot to start from). Both end in a
        // snapshot; every relation section must come out byte-equal.
        let live_dir = scratch_dir("live");
        let replay_dir = scratch_dir("replay");
        let pricer = BondPricer::default();
        let config = ServerConfig::budgeted(6_000);
        let predicate = Query::Selection {
            op: vao::ops::selection::CmpOp::Gt,
            constant: 100.0,
        };
        {
            let mut srv = Server::open_durable_catalog(pricer, config, &live_dir).unwrap();
            srv.create_relation("rates", relation_of(8, 42), Some(42))
                .unwrap();
            srv.create_relation("doomed", relation_of(4, 9), None)
                .unwrap();
            srv.subscribe_to("doomed", Query::Min { epsilon: 0.5 }, 1)
                .unwrap();
            srv.drop_relation("doomed").unwrap();
            srv.create_relation("energy", relation_of(6, 7), None)
                .unwrap();
            srv.add_bond("energy", 0.05, 10.0, 100.0).unwrap();
            srv.subscribe_to("rates", Query::Max { epsilon: 0.05 }, 0)
                .unwrap();
            srv.subscribe_to("rates", predicate, 3).unwrap();
            let gone = srv
                .subscribe_to("rates", Query::Min { epsilon: 0.5 }, 1)
                .unwrap();
            srv.subscribe_to("energy", Query::Ave { epsilon: 0.5 }, 1)
                .unwrap();
            srv.tick_relation("rates", 0.0583).unwrap();
            srv.unsubscribe_in("rates", gone).unwrap();
            srv.tick_multi(&[("rates", 0.0601), ("energy", 0.0583)])
                .unwrap();
            // A repeated rate: warm re-admission, accumulated counters.
            srv.tick_relation("rates", 0.0583).unwrap();
            srv.shutdown().unwrap();
        }
        copy_without_snapshots(&live_dir, &replay_dir);
        let mut replayed = Server::open_durable_catalog(pricer, config, &replay_dir).unwrap();
        let report = replayed.last_recovery().unwrap();
        assert_eq!(report.snapshot_seq, None);
        assert_eq!(
            report.replayed_events, 16,
            "the whole journal, marker included"
        );
        replayed.shutdown().unwrap();

        let live = snapshot_relations(&live_dir);
        assert_eq!(live, snapshot_relations(&replay_dir));
        // The script left something in every field a section has.
        for field in ["\"warm\":[{", "\"sessions\":[{"] {
            assert!(live.contains(field), "{field} missing from {live}");
        }
        assert!(
            live.matches(",\"warm\":").count() > live.matches("\"iterations\":0,\"warm\"").count(),
            "every section's run totals are empty: {live}"
        );
        for dir in [live_dir, replay_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn unsubscribe_stops_answering() {
        let mut srv = small_server(ServerConfig::default());
        let a = srv.subscribe(Query::Max { epsilon: 0.5 }, 1).unwrap();
        let b = srv.subscribe(Query::Min { epsilon: 0.5 }, 1).unwrap();
        srv.unsubscribe_in(DEFAULT_RELATION, a).unwrap();
        assert!(matches!(
            srv.unsubscribe_in(DEFAULT_RELATION, a),
            Err(ServerError::UnknownSession(1))
        ));
        let res = srv.tick(0.0583).unwrap();
        assert_eq!(res.answers.len(), 1);
        assert_eq!(res.answers[0].0, b);
    }
}
