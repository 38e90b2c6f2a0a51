//! The session registry: which continuous queries are live, each with its
//! own precision constraint ε (carried inside the [`Query`]) and a
//! scheduling priority.

use va_persist::record::SessionTickRecord;
pub use va_persist::record::{Session, SessionId};
use va_stream::Query;

use crate::answer::Answer;

/// Registry of live sessions, in deterministic registration order.
#[derive(Clone, Debug)]
pub struct SessionRegistry {
    next: u64,
    sessions: Vec<Session>,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionRegistry {
    /// An empty registry; ids start at 1.
    #[must_use]
    pub fn new() -> Self {
        Self {
            next: 1,
            sessions: Vec::new(),
        }
    }

    /// Registers a query under the next free id, returning it. Priority is
    /// clamped to ≥ 1 (a zero priority would erase the query's benefits
    /// from the global score entirely). A server admits sessions through
    /// [`SessionRegistry::restore`] — the id and the clamped priority ride
    /// in its `Subscribe` event — so this is for registries built by hand.
    pub fn register(&mut self, query: Query, priority: u32) -> SessionId {
        let id = SessionId(self.next);
        self.restore(Session {
            id,
            query,
            priority: priority.max(1),
            finals: 0,
            partials: 0,
            driven_iterations: 0,
        });
        id
    }

    /// Installs a session under the id it carries: one admitted by a
    /// `Subscribe` event (counters at zero) or read back from a snapshot
    /// (counters as captured). The id high-water mark advances past it so
    /// the id is never issued again — even once the session itself has
    /// unsubscribed (see [`SessionRegistry::reserve_through`]). Ids are
    /// issued from 1 upward and the record parsers refuse `u64::MAX`, the
    /// one id `+ 1` would overflow on.
    pub fn restore(&mut self, session: Session) {
        self.next = self.next.max(session.id.0 + 1);
        self.sessions.push(session);
    }

    /// Advances the id high-water mark so no id `<= id` is ever issued
    /// again. A snapshot restore calls this with the captured high-water
    /// mark: a session that unsubscribed before the snapshot has no state
    /// to restore, but its id must stay burned.
    pub fn reserve_through(&mut self, id: SessionId) {
        self.next = self.next.max(id.0 + 1);
    }

    /// The next id this registry would issue (the persisted high-water
    /// mark).
    #[must_use]
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Removes a session. Returns `false` when the id was not registered.
    pub fn deregister(&mut self, id: SessionId) -> bool {
        let before = self.sessions.len();
        self.sessions.retain(|s| s.id != id);
        self.sessions.len() != before
    }

    /// Looks up a session by id.
    #[must_use]
    pub fn get(&self, id: SessionId) -> Option<&Session> {
        self.sessions.iter().find(|s| s.id == id)
    }

    /// Live sessions in registration order.
    #[must_use]
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Applies one executed tick's per-session outcome deltas (the `Tick`
    /// arm of [`crate::Catalog::apply`]). A delta for a session that has
    /// since unsubscribed has nothing to count against.
    pub fn apply_tick(&mut self, deltas: &[SessionTickRecord]) {
        for delta in deltas {
            if let Some(sess) = self.sessions.iter_mut().find(|s| s.id.0 == delta.session) {
                if delta.is_final {
                    sess.finals += 1;
                } else {
                    sess.partials += 1;
                }
                sess.driven_iterations += delta.driven;
            }
        }
    }

    /// Number of live sessions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no sessions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Groups a tick's answers for broadcast fan-out: sessions whose
    /// queries have the same shape share one group — and, because the
    /// shared pool executes deterministically, the same answer — so the
    /// front-end serializes each group's payload exactly once however
    /// many sessions (and connections) receive it. Groups and the
    /// sessions within them keep first-occurrence (registration) order.
    #[must_use]
    pub fn broadcast_groups<'a>(&self, answers: &'a [(SessionId, Answer)]) -> Vec<Broadcast<'a>> {
        let mut groups: Vec<(Option<&Query>, Broadcast<'a>)> = Vec::new();
        for (id, answer) in answers {
            let query = self.get(*id).map(|s| &s.query);
            let existing =
                query.and_then(|q| groups.iter_mut().find(|(gq, _)| gq.is_some_and(|g| g == q)));
            match existing {
                Some((_, group)) => {
                    debug_assert_eq!(
                        group.answer, answer,
                        "same query shape must share one deterministic answer"
                    );
                    group.sessions.push(*id);
                }
                // An answer for a session the registry no longer knows
                // (or a unique shape) gets its own group.
                None => groups.push((
                    query,
                    Broadcast {
                        sessions: vec![*id],
                        answer,
                    },
                )),
            }
        }
        groups.into_iter().map(|(_, g)| g).collect()
    }
}

/// One broadcast fan-out group from
/// [`SessionRegistry::broadcast_groups`]: every session that shares this
/// answer, so the serialized payload can be rendered once for all of
/// them.
#[derive(Debug)]
pub struct Broadcast<'a> {
    /// Sessions receiving this payload, in registration order.
    pub sessions: Vec<SessionId>,
    /// The answer they share.
    pub answer: &'a Answer,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotone_and_never_reused() {
        let mut reg = SessionRegistry::new();
        let a = reg.register(Query::Max { epsilon: 0.1 }, 1);
        let b = reg.register(Query::Min { epsilon: 0.1 }, 2);
        assert_eq!(a, SessionId(1));
        assert_eq!(b, SessionId(2));
        assert!(reg.deregister(a));
        assert!(!reg.deregister(a), "double deregister is a no-op");
        let c = reg.register(Query::Max { epsilon: 0.1 }, 1);
        assert_eq!(c, SessionId(3), "ids are never reused");
        assert_eq!(reg.len(), 2);
        assert!(reg.get(b).is_some());
        assert!(reg.get(a).is_none());
    }

    #[test]
    fn restore_advances_the_id_high_water_mark() {
        let mut reg = SessionRegistry::new();
        reg.restore(Session {
            id: SessionId(5),
            query: Query::Max { epsilon: 0.1 },
            priority: 2,
            finals: 3,
            partials: 1,
            driven_iterations: 40,
        });
        assert_eq!(reg.next_id(), 6);
        assert_eq!(reg.get(SessionId(5)).unwrap().finals, 3);
        let fresh = reg.register(Query::Min { epsilon: 0.1 }, 1);
        assert_eq!(fresh, SessionId(6), "restored ids are never re-issued");
        // A burned id with no surviving session also stays burned.
        reg.reserve_through(SessionId(9));
        assert_eq!(reg.register(Query::Max { epsilon: 0.1 }, 1), SessionId(10));
    }

    #[test]
    fn zero_priority_is_clamped() {
        let mut reg = SessionRegistry::new();
        let id = reg.register(Query::Max { epsilon: 0.1 }, 0);
        assert_eq!(reg.get(id).unwrap().priority, 1);
    }

    #[test]
    fn broadcast_groups_share_payloads_by_query_shape() {
        use vao::Bounds;

        let mut reg = SessionRegistry::new();
        let a = reg.register(Query::Max { epsilon: 0.1 }, 1);
        let b = reg.register(Query::Min { epsilon: 0.1 }, 1);
        let c = reg.register(Query::Max { epsilon: 0.1 }, 3);
        let shared = Answer::Partial {
            bounds: Bounds::new(1.0, 2.0),
        };
        let other = Answer::Partial {
            bounds: Bounds::new(0.0, 1.0),
        };
        let answers = vec![(a, shared.clone()), (b, other.clone()), (c, shared.clone())];
        let groups = reg.broadcast_groups(&answers);
        assert_eq!(groups.len(), 2, "two distinct shapes, two groups");
        assert_eq!(groups[0].sessions, vec![a, c], "same shape coalesces");
        assert_eq!(groups[0].answer, &shared);
        assert_eq!(groups[1].sessions, vec![b]);
        assert_eq!(groups[1].answer, &other);

        // An answer for a session the registry no longer tracks still gets
        // delivered — as its own group.
        reg.deregister(c);
        let groups = reg.broadcast_groups(&answers);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2].sessions, vec![c]);
    }
}
