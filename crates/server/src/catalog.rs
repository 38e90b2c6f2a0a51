//! The relation catalog: first-class multi-relation tenancy.
//!
//! A [`Catalog`] holds one [`Tenant`] per relation the server hosts. Every
//! piece of state that used to be implicitly global on the single-relation
//! server — the session registry, tick/shed counters, stats history, last
//! answers, and the per-rate warm-start cache — lives *inside* its tenant,
//! so two relations can never observe each other through shared state.
//! That containment is what makes the tenancy bit-identity guarantee hold:
//! a tenant ticked with budget `B` inside a shared server computes exactly
//! what an isolated single-relation server with budget `B` would.
//!
//! Relation *definitions* are control-plane events (`CREATE RELATION`,
//! `ADD BOND`, `DROP RELATION`) journaled by the server before the catalog
//! commits them, which is what makes a catalog data dir self-describing on
//! recovery: the journal fold rebuilds every tenant, definitions included,
//! with zero flag-based reconstruction. A definition always precedes its
//! first use — snapshots embed one per relation, and the journal tail
//! carries the `CREATE` of anything newer — so `Catalog::restore` is the
//! fold's only way to add a tenant.

use va_persist::record::RelationDefRecord;
use va_persist::WarmMap;
use va_stream::{BondRelation, RunSummary, TickStats};
use vao::cost::Calibrator;

use crate::answer::Answer;
use crate::demand::PredicateStats;
use crate::error::ServerError;
use crate::session::{SessionId, SessionRegistry};

/// The name every single-relation compatibility path resolves: servers
/// built with [`crate::Server::new`] or bootstrapped from `--bonds/--seed`
/// flags host exactly one relation with this name.
pub const DEFAULT_RELATION: &str = "default";

/// A catalog-assigned relation identifier. Ids are allocated monotonically
/// and never reused — a dropped relation's id stays burned, so journaled
/// events can never attach to a later relation that recycled the id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(pub u64);

impl std::fmt::Display for RelationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One hosted relation and all of its formerly-global server state.
///
/// Session ids are per-tenant: each registry issues from 1, exactly as an
/// isolated single-relation server would, so a tenant's journaled session
/// ids are bit-identical to the isolated run's. The wire protocol
/// disambiguates with the `(relation, session)` pair.
#[derive(Debug)]
pub struct Tenant {
    pub(crate) id: RelationId,
    pub(crate) name: String,
    pub(crate) relation: BondRelation,
    pub(crate) seed: Option<u64>,
    pub(crate) registry: SessionRegistry,
    pub(crate) history: Vec<TickStats>,
    pub(crate) ticks: u64,
    pub(crate) queued: Option<f64>,
    pub(crate) shed: u64,
    pub(crate) last_answers: Vec<(SessionId, Answer)>,
    /// Per-rate warm-start state journaled by this tenant's ticks. Keyed
    /// inside the tenant (not globally) so relations never warm-start from
    /// each other's bounds.
    pub(crate) warm: WarmMap,
    /// The online predicted-vs-actual iteration-cost model (PR 10). Per
    /// tenant — one relation's cost bias never leaks into another's
    /// admission. Mutated only when the server runs with calibration
    /// enabled; stays cold (identity) otherwise.
    pub(crate) calibrator: Calibrator,
    /// Learned SELECT/COUNT pass/fail frequencies — the predicate half of
    /// the calibration state, same enablement rules as `calibrator`.
    pub(crate) predicates: PredicateStats,
}

impl Tenant {
    fn new(id: RelationId, name: String, relation: BondRelation, seed: Option<u64>) -> Self {
        Self {
            id,
            name,
            relation,
            seed,
            registry: SessionRegistry::new(),
            history: Vec::new(),
            ticks: 0,
            queued: None,
            shed: 0,
            last_answers: Vec::new(),
            warm: WarmMap::new(),
            calibrator: Calibrator::new(),
            predicates: PredicateStats::new(),
        }
    }

    /// The catalog id.
    #[must_use]
    pub fn id(&self) -> RelationId {
        self.id
    }

    /// The relation's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bond relation this tenant prices.
    #[must_use]
    pub fn relation(&self) -> &BondRelation {
        &self.relation
    }

    /// The universe seed, when the relation was generated rather than
    /// defined bond-by-bond.
    #[must_use]
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Total `(claimed, measured)` cost pairs the tenant's calibrator has
    /// absorbed (0 on an uncalibrated or fresh tenant).
    #[must_use]
    pub fn calibration_observations(&self) -> u64 {
        self.calibrator.observations()
    }

    /// The calibrator's pooled measured/claimed cost ratio in parts per
    /// million (`1_000_000` = identity, i.e. cold or perfectly estimated).
    #[must_use]
    pub fn calibration_gain_ppm(&self) -> u64 {
        self.calibrator.gain_ppm()
    }

    /// The tenant's live session registry.
    #[must_use]
    pub fn sessions(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Ticks this tenant has processed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks shed by coalescing for this tenant.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// Run-level accounting: the fold of every processed tick's stats
    /// (the per-session counters are [`Tenant::sessions`]).
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        RunSummary::from_ticks(&self.history)
    }

    /// The persisted definition record for this tenant: name, seed, and
    /// every bond, in relation order. Journaled by `CREATE RELATION` and
    /// embedded in snapshots so the data dir stays self-describing.
    #[must_use]
    pub fn def_record(&self) -> RelationDefRecord {
        def_record(&self.name, self.seed, &self.relation)
    }
}

/// The definition record of a relation about to be (or already) hosted
/// under `name`.
pub(crate) fn def_record(
    name: &str,
    seed: Option<u64>,
    relation: &BondRelation,
) -> RelationDefRecord {
    RelationDefRecord {
        name: name.to_string(),
        seed,
        bonds: relation.bonds().to_vec(),
    }
}

/// The set of relations one server hosts, addressed by name (protocol) or
/// id (journal).
#[derive(Debug, Default)]
pub struct Catalog {
    /// Next relation id to allocate; monotone, never reused.
    next: u64,
    /// Live tenants in id order (ids are allocated monotonically, live and
    /// during the recovery fold, so a `Vec` stays ordered).
    tenants: Vec<Tenant>,
}

impl Catalog {
    /// An empty catalog.
    #[must_use]
    pub fn new() -> Self {
        Self {
            next: 1,
            tenants: Vec::new(),
        }
    }

    /// The id the next [`Catalog::create`] will assign.
    #[must_use]
    pub fn next_id(&self) -> RelationId {
        RelationId(self.next)
    }

    /// Raises the allocation high-water mark (recovery: snapshots persist
    /// `next_relation_id` so dropped relations stay burned).
    pub(crate) fn reserve_through(&mut self, next: u64) {
        self.next = self.next.max(next);
    }

    /// Creates a relation, refusing duplicate live names — names
    /// are the protocol's addressing scheme, so a duplicate would shadow
    /// an existing tenant's sessions.
    pub fn create(
        &mut self,
        name: &str,
        relation: BondRelation,
        seed: Option<u64>,
    ) -> Result<RelationId, ServerError> {
        if self.by_name(name).is_some() {
            return Err(ServerError::RelationExists(name.to_string()));
        }
        let id = RelationId(self.next);
        self.next += 1;
        self.tenants
            .push(Tenant::new(id, name.to_string(), relation, seed));
        Ok(id)
    }

    /// Re-creates a recovered relation under the id it was journaled with
    /// (a replayed `CREATE RELATION` or a snapshot's embedded `def`). Ids
    /// only grow, so one at or below the high-water mark means the history
    /// defines a relation twice or out of order. The definition's content
    /// was checked when it parsed (and `id + 1` cannot overflow: the parser
    /// refuses the one id that was never issued).
    pub(crate) fn restore(
        &mut self,
        id: u64,
        def: RelationDefRecord,
    ) -> Result<&mut Tenant, ServerError> {
        if id < self.next {
            return Err(ServerError::Persist {
                detail: format!(
                    "corrupt definition of relation \"{}\": id {id} is below the next free id {}",
                    def.name, self.next
                ),
            });
        }
        self.next = id + 1;
        self.tenants.push(Tenant::new(
            RelationId(id),
            def.name,
            BondRelation::from_bonds(def.bonds),
            def.seed,
        ));
        Ok(self.tenants.last_mut().expect("just pushed"))
    }

    /// Removes a tenant by id, returning it. The id stays burned.
    pub(crate) fn remove(&mut self, id: RelationId) -> Option<Tenant> {
        let at = self.tenants.iter().position(|t| t.id == id)?;
        Some(self.tenants.remove(at))
    }

    /// The tenant with catalog id `id`.
    #[must_use]
    pub fn get(&self, id: RelationId) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// Mutable access by id.
    pub(crate) fn get_mut(&mut self, id: RelationId) -> Option<&mut Tenant> {
        self.tenants.iter_mut().find(|t| t.id == id)
    }

    /// The tenant named `name`.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// The index of the tenant named `name` in [`Catalog::tenants`].
    pub(crate) fn index_of_name(&self, name: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == name)
    }

    /// The hosted tenants, in relation-id order.
    #[must_use]
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Mutable access to every tenant (the multi-relation tick path shards
    /// disjoint `&mut Tenant` borrows across worker threads from this).
    pub(crate) fn tenants_mut(&mut self) -> &mut [Tenant] {
        &mut self.tenants
    }

    /// Number of hosted relations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the catalog hosts no relations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bondlab::BondUniverse;

    fn rel(seed: u64) -> BondRelation {
        BondRelation::from_universe(&BondUniverse::generate(4, seed))
    }

    #[test]
    fn create_assigns_monotone_ids_and_refuses_duplicates() {
        let mut c = Catalog::new();
        let a = c.create("rates", rel(1), Some(1)).unwrap();
        let b = c.create("credit", rel(2), Some(2)).unwrap();
        assert_eq!(a, RelationId(1));
        assert_eq!(b, RelationId(2));
        assert!(matches!(
            c.create("rates", rel(3), None),
            Err(ServerError::RelationExists(n)) if n == "rates"
        ));
        assert_eq!(c.len(), 2);
        assert_eq!(c.by_name("rates").unwrap().id(), a);
        assert_eq!(c.get(b).unwrap().name(), "credit");
        assert!(c.by_name("missing").is_none());
    }

    #[test]
    fn dropped_ids_stay_burned() {
        let mut c = Catalog::new();
        let a = c.create("rates", rel(1), None).unwrap();
        c.remove(a).unwrap();
        assert!(c.by_name("rates").is_none());
        // Re-creating the name allocates a fresh id.
        let b = c.create("rates", rel(1), None).unwrap();
        assert_eq!(b, RelationId(2));
        assert!(c.get(a).is_none());
    }

    #[test]
    fn def_records_round_trip_through_restore() {
        let mut c = Catalog::new();
        c.create("doomed", rel(1), None).unwrap();
        let id = c.create("rates", rel(7), Some(7)).unwrap();
        let def = c.get(id).unwrap().def_record();
        assert_eq!(def.name, "rates");
        assert_eq!(def.seed, Some(7));
        assert_eq!(def.bonds.len(), 4);
        let mut other = Catalog::new();
        other.restore(id.0, def.clone()).unwrap().ticks = 7;
        let t = other.by_name("rates").unwrap();
        assert_eq!(t.id(), id);
        assert_eq!(t.seed(), Some(7));
        assert_eq!(t.ticks(), 7);
        assert_eq!(t.relation().bonds(), c.get(id).unwrap().relation().bonds());
        // The skipped id stays burned, and no id is ever restored twice.
        assert_eq!(other.next_id(), RelationId(3));
        assert!(matches!(
            other.restore(id.0, def),
            Err(ServerError::Persist { .. })
        ));
    }
}
