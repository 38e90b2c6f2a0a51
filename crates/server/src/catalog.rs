//! The relation catalog: first-class multi-relation tenancy.
//!
//! A [`Catalog`] holds one [`Tenant`] per relation the server hosts. Every
//! piece of state that used to be implicitly global on the single-relation
//! server — the session registry, tick/shed counters, run totals, last
//! answers, and the per-rate warm-start cache — lives *inside* its tenant,
//! so two relations can never observe each other through shared state.
//! That containment is what makes the tenancy bit-identity guarantee hold:
//! a tenant ticked with budget `B` inside a shared server computes exactly
//! what an isolated single-relation server with budget `B` would.
//!
//! Relation *definitions* are control-plane events (`CREATE RELATION`,
//! `ADD BOND`, `DROP RELATION`), and like every other state change they
//! reach a tenant one way: as a [`JournalEvent`] handed to
//! [`Catalog::apply`]. A live server builds the event, journals it when it
//! is durable, and applies it; recovery restores the newest snapshot's
//! sections ([`Catalog::restore_snapshot`]) and applies the journal tail.
//! Nothing outside this file assigns tenant state, so the recovered catalog
//! is the uninterrupted one by construction, and a data dir is
//! self-describing: a definition always precedes its first use — snapshots
//! embed one per relation, and the tail carries the `CREATE` of anything
//! newer.

use va_persist::record::{JournalEvent, RelationDefRecord, RelationSnapshot, WarmRateRecord};
use va_persist::WarmMap;
use va_stream::{BondRelation, RunSummary};

use crate::answer::Answer;
use crate::error::ServerError;
use crate::session::{Session, SessionId, SessionRegistry};

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
///
/// Every field but the tick queue (`queued`; the `shed` count it drives is
/// recorded by the next tick) is what [`Tenant::snapshot`] captures, and
/// moves only inside [`Catalog::apply`] and [`Catalog::restore_snapshot`].
#[derive(Debug)]
pub struct Tenant {
    pub(crate) id: RelationId,
    pub(crate) name: String,
    pub(crate) relation: BondRelation,
    pub(crate) seed: Option<u64>,
    pub(crate) registry: SessionRegistry,
    /// The tick counter and the running work and iteration totals.
    pub(crate) summary: RunSummary,
    pub(crate) queued: Option<f64>,
    pub(crate) shed: u64,
    pub(crate) last_answers: Vec<(SessionId, Answer)>,
    /// Per-rate warm-start state journaled by this tenant's ticks. Keyed
    /// inside the tenant (not globally) so relations never warm-start from
    /// each other's bounds.
    pub(crate) warm: WarmMap,
}

impl Tenant {
    fn new(id: RelationId, def: RelationDefRecord) -> Self {
        Self {
            id,
            name: def.name,
            relation: BondRelation::from_bonds(def.bonds),
            seed: def.seed,
            registry: SessionRegistry::new(),
            summary: RunSummary::default(),
            queued: None,
            shed: 0,
            last_answers: Vec::new(),
            warm: WarmMap::new(),
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

    /// The tenant's live session registry.
    #[must_use]
    pub fn sessions(&self) -> &SessionRegistry {
        &self.registry
    }

    /// Ticks this tenant has processed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.summary.ticks
    }

    /// Ticks shed by coalescing for this tenant.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The answer each session received on the most recent tick (or, after
    /// recovery, on the last journaled tick), in registration order.
    #[must_use]
    pub fn last_answers(&self) -> &[(SessionId, Answer)] {
        &self.last_answers
    }

    /// Run-level accounting: ticks processed and their summed work and
    /// iterations (the per-session counters are [`Tenant::sessions`]).
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        self.summary
    }

    /// The persisted definition record for this tenant: name, seed, and
    /// every bond, in relation order. Journaled by `CREATE RELATION` and
    /// embedded in snapshots so the data dir stays self-describing.
    #[must_use]
    pub fn def_record(&self) -> RelationDefRecord {
        def_record(&self.name, self.seed, &self.relation)
    }

    /// This tenant's snapshot section: every field
    /// [`Catalog::restore_snapshot`] reads back, written beside it so a new
    /// tenant field is added to both in one place.
    #[must_use]
    pub fn snapshot(&self) -> RelationSnapshot {
        RelationSnapshot {
            relation: self.id.0,
            def: self.def_record(),
            next_session_id: self.registry.next_id(),
            ticks: self.summary.ticks,
            shed: self.shed,
            sessions: self.registry.sessions().to_vec(),
            work: self.summary.work,
            iterations: self.summary.iterations,
            warm: self
                .warm
                .iter()
                .map(|(&bits, objects)| WarmRateRecord {
                    rate: f64::from_bits(bits),
                    objects: objects.clone(),
                })
                .collect(),
            answers: self.last_answers.clone(),
        }
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

    /// The id a `CreateRelation` event must carry to be applied next.
    #[must_use]
    pub fn next_id(&self) -> RelationId {
        RelationId(self.next)
    }

    /// The one transition function: every change of tenant state, on a
    /// live server (after the event is journaled, when durable) and on
    /// journal replay alike, is one event applied here. The event is taken
    /// by value and its contents move into the tenant.
    ///
    /// Events carry executed *outcomes* — assigned ids, clamped priorities,
    /// a tick's answers, counters and warm bounds — so applying one never
    /// validates a request or prices anything. The only refusals are
    /// structural, and on a live server unreachable (requests
    /// are validated before their event is built, let alone journaled): a
    /// definition at or below the id high-water mark, and an event for a
    /// relation no definition covers.
    pub fn apply(&mut self, event: JournalEvent) -> Result<(), ServerError> {
        match event {
            JournalEvent::CreateRelation(rec) => {
                self.define(rec.relation, rec.def)?;
            }
            JournalEvent::DropRelation { relation } => {
                // The id stays burned: `next` never moves back.
                self.tenant_mut(relation)?;
                self.tenants.retain(|t| t.id.0 != relation);
            }
            JournalEvent::AddBond { relation, bond } => {
                self.tenant_mut(relation)?.relation.push(bond);
            }
            JournalEvent::Subscribe {
                relation,
                session,
                priority,
                query,
            } => self.tenant_mut(relation)?.registry.restore(Session {
                id: SessionId(session),
                query,
                priority,
                finals: 0,
                partials: 0,
                driven_iterations: 0,
            }),
            JournalEvent::Unsubscribe { relation, session } => {
                // The session id stays burned: its `Subscribe` (or the
                // snapshot's high-water mark) already advanced `next`.
                self.tenant_mut(relation)?
                    .registry
                    .deregister(SessionId(session));
            }
            JournalEvent::Tick(t) => {
                let tenant = self.tenant_mut(t.relation)?;
                tenant.summary.ticks = t.tick;
                tenant.summary.work += t.work;
                tenant.summary.iterations += t.iterations;
                tenant.shed = t.shed;
                tenant.registry.apply_tick(&t.sessions);
                tenant.last_answers = t.answers;
                // An in-memory server's ticks carry an empty `warm`, which
                // the tick's alignment filter never takes for a prior.
                tenant.warm.insert(t.rate.to_bits(), t.warm);
            }
            JournalEvent::SnapshotMarker { .. } => {}
        }
        Ok(())
    }

    /// Seeds an empty catalog from a snapshot's per-relation sections — the
    /// inverse of [`Tenant::snapshot`] — and raises the id high-water mark
    /// to the snapshot's, so relations dropped before it stay burned.
    pub fn restore_snapshot(
        &mut self,
        relations: Vec<RelationSnapshot>,
        next_relation_id: u64,
    ) -> Result<(), ServerError> {
        for rel in relations {
            let tenant = self.define(rel.relation, rel.def)?;
            // Ids of sessions that unsubscribed before the snapshot stay
            // burned too.
            tenant
                .registry
                .reserve_through(SessionId(rel.next_session_id.saturating_sub(1)));
            for session in rel.sessions {
                tenant.registry.restore(session);
            }
            tenant.summary = RunSummary {
                ticks: rel.ticks,
                work: rel.work,
                iterations: rel.iterations,
            };
            tenant.shed = rel.shed;
            tenant.last_answers = rel.answers;
            tenant.warm = rel
                .warm
                .into_iter()
                .map(|w| (w.rate.to_bits(), w.objects))
                .collect();
        }
        self.next = self.next.max(next_relation_id);
        Ok(())
    }

    /// Adds a tenant under the id its definition was journaled with. Ids
    /// only grow, so one at or below the high-water mark means the history
    /// defines a relation twice or out of order. The definition's content
    /// was checked when it parsed (and `id + 1` cannot overflow: the parser
    /// refuses the one id that was never issued).
    fn define(&mut self, id: u64, def: RelationDefRecord) -> Result<&mut Tenant, ServerError> {
        if id < self.next {
            return Err(ServerError::Persist {
                detail: format!(
                    "corrupt definition of relation \"{}\": id {id} is below the next free id {}",
                    def.name, self.next
                ),
            });
        }
        self.next = id + 1;
        self.tenants.push(Tenant::new(RelationId(id), def));
        Ok(self.tenants.last_mut().expect("just pushed"))
    }

    /// The tenant an event refers to. Every relation's definition is
    /// applied before anything that names it, so a miss is corruption.
    fn tenant_mut(&mut self, relation: u64) -> Result<&mut Tenant, ServerError> {
        self.tenants
            .iter_mut()
            .find(|t| t.id.0 == relation)
            .ok_or_else(|| ServerError::Persist {
                detail: format!(
                    "corrupt journal: an event for relation {relation}, which no recovered \
                     definition covers"
                ),
            })
    }

    /// The tenant with catalog id `id`.
    #[must_use]
    pub fn get(&self, id: RelationId) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
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

    /// Mutable access to every tenant: the tick queue, which is not
    /// journaled state, and tests.
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
    use va_persist::record::RelationRecord;

    fn rel(seed: u64) -> BondRelation {
        BondRelation::from_universe(&BondUniverse::generate(4, seed))
    }

    /// Applies the `CreateRelation` a live server would build for `name`.
    fn create(
        c: &mut Catalog,
        name: &str,
        relation: BondRelation,
        seed: Option<u64>,
    ) -> RelationId {
        let id = c.next_id();
        c.apply(JournalEvent::CreateRelation(Box::new(RelationRecord {
            relation: id.0,
            def: def_record(name, seed, &relation),
        })))
        .unwrap();
        id
    }

    #[test]
    fn definitions_get_monotone_ids() {
        let mut c = Catalog::new();
        let a = create(&mut c, "rates", rel(1), Some(1));
        let b = create(&mut c, "credit", rel(2), Some(2));
        assert_eq!(a, RelationId(1));
        assert_eq!(b, RelationId(2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.by_name("rates").unwrap().id(), a);
        assert_eq!(c.get(b).unwrap().name(), "credit");
        assert!(c.by_name("missing").is_none());
    }

    #[test]
    fn dropped_ids_stay_burned() {
        let mut c = Catalog::new();
        let a = create(&mut c, "rates", rel(1), None);
        c.apply(JournalEvent::DropRelation { relation: a.0 })
            .unwrap();
        assert!(c.by_name("rates").is_none());
        // Re-creating the name allocates a fresh id.
        let b = create(&mut c, "rates", rel(1), None);
        assert_eq!(b, RelationId(2));
        assert!(c.get(a).is_none());
        // An event for the dropped id has nothing to apply to.
        assert!(matches!(
            c.apply(JournalEvent::DropRelation { relation: a.0 }),
            Err(ServerError::Persist { .. })
        ));
    }

    #[test]
    fn snapshot_sections_round_trip_through_restore() {
        let mut c = Catalog::new();
        create(&mut c, "doomed", rel(1), None);
        let id = create(&mut c, "rates", rel(7), Some(7));
        c.apply(JournalEvent::DropRelation { relation: 1 }).unwrap();
        c.apply(JournalEvent::Subscribe {
            relation: id.0,
            session: 4,
            priority: 2,
            query: va_stream::Query::Max { epsilon: 0.5 },
        })
        .unwrap();
        let section = c.get(id).unwrap().snapshot();
        assert_eq!(section.def.name, "rates");
        assert_eq!(section.def.seed, Some(7));
        assert_eq!(section.def.bonds.len(), 4);
        assert_eq!(section.next_session_id, 5);
        let mut other = Catalog::new();
        other
            .restore_snapshot(vec![section.clone()], c.next_id().0)
            .unwrap();
        let t = other.by_name("rates").unwrap();
        assert_eq!(t.id(), id);
        assert_eq!(t.seed(), Some(7));
        assert_eq!(t.relation().bonds(), c.get(id).unwrap().relation().bonds());
        assert_eq!(t.snapshot(), section, "restore is snapshot's inverse");
        // The skipped id stays burned, and no id is ever defined twice.
        assert_eq!(other.next_id(), RelationId(3));
        assert!(matches!(
            other.restore_snapshot(vec![section], 3),
            Err(ServerError::Persist { .. })
        ));
    }
}
