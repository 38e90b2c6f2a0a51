//! The session registry: which continuous queries are live, each with its
//! own precision constraint ε (carried inside the [`Query`]) and a
//! scheduling priority.

use va_persist::record::SessionTickRecord;
pub use va_persist::record::{Session, SessionId};
use va_stream::Query;

use crate::answer::Answer;
use crate::bits::{self, BitIndex};

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
}

/// Groups a tick's answers for broadcast fan-out: sessions whose answers
/// are bit-equal — integers by value, every `f64` by its bits, so `-0.0`
/// and `0.0` (printed `-0` and `0`) stay apart — share one group, and the
/// front-end serializes each distinct answer's payload once however many
/// sessions (and connections) receive it. Groups and the sessions within
/// them keep first-occurrence order. Linear in the answers' total size:
/// answers are bucketed by a hash of their bits and compared only on a hit.
#[must_use]
pub fn broadcast_groups(answers: &[(SessionId, Answer)]) -> Vec<Broadcast<'_>> {
    let mut index = BitIndex::default();
    let mut groups: Vec<Broadcast<'_>> = Vec::new();
    for (id, answer) in answers {
        let g = index.slot(groups.len(), |w| bits::answer_words(answer, w));
        if g == groups.len() {
            groups.push(Broadcast {
                sessions: Vec::new(),
                answer,
            });
        }
        groups[g].sessions.push(*id);
    }
    groups
}

/// One broadcast fan-out group from [`broadcast_groups`]: every session
/// whose answer has these bits, so the serialized payload can be rendered
/// once for all of them.
#[derive(Debug)]
pub struct Broadcast<'a> {
    /// Sessions receiving this payload, in the order the answers came.
    pub sessions: Vec<SessionId>,
    /// The answer they share.
    pub answer: &'a Answer,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use va_stream::QueryOutput;
    use vao::Bounds;

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
    fn broadcast_groups_share_one_payload_per_distinct_answer() {
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
        let groups = broadcast_groups(&answers);
        assert_eq!(groups.len(), 2, "two distinct answers, two groups");
        assert_eq!(groups[0].sessions, vec![a, c], "equal answers coalesce");
        assert_eq!(groups[0].answer, &shared);
        assert_eq!(groups[1].sessions, vec![b]);
        assert_eq!(groups[1].answer, &other);

        // Grouping reads no registry: the answer of a session since
        // deregistered still joins the group of its equal.
        reg.deregister(c);
        let groups = broadcast_groups(&answers);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].sessions, vec![a, c]);
    }

    #[test]
    fn answers_apart_only_in_the_sign_of_zero_get_two_payloads() {
        let payload = |a: &Answer| crate::proto::result_payload("default", 1, 0.05, a);
        let partial = |lo: f64| Answer::Partial {
            bounds: Bounds::new(lo, 1.0),
        };
        let aggregate = |lo: f64| {
            Answer::Final(QueryOutput::Aggregate {
                bounds: Bounds::new(lo, 1.0),
            })
        };
        for answer in [partial, aggregate] {
            let (neg, pos) = (answer(-0.0), answer(0.0));
            assert_eq!(neg, pos, "PartialEq cannot tell them apart");
            assert_ne!(payload(&neg), payload(&pos), "their bytes differ");
            let answers = vec![(SessionId(1), neg), (SessionId(2), pos)];
            let groups = broadcast_groups(&answers);
            assert_eq!(groups.len(), 2);
            assert_eq!(groups[0].sessions, vec![SessionId(1)]);
            assert_eq!(groups[1].sessions, vec![SessionId(2)]);
        }

        // Different query shapes with equal answers share one payload: a
        // SELECT and a TOP-K cannot answer alike, but two SELECTs with
        // different constants that pick the same bonds, or a MAX and a MIN
        // over one bond, do.
        let all = Answer::Final(QueryOutput::Selected(vec![0, 1, 2]));
        let answers = vec![(SessionId(3), all.clone()), (SessionId(9), all)];
        let groups = broadcast_groups(&answers);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].sessions, vec![SessionId(3), SessionId(9)]);
    }

    /// A small alphabet of answers, so a drawn list repeats some: every
    /// output shape, and pairs apart only in the sign of a zero.
    fn alphabet() -> Vec<Answer> {
        let b = |lo: f64, hi: f64| Bounds::new(lo, hi);
        let fin = Answer::Final;
        vec![
            Answer::Partial {
                bounds: b(-0.0, 0.0),
            },
            Answer::Partial {
                bounds: b(0.0, 0.0),
            },
            Answer::Partial {
                bounds: b(1.0, 2.5),
            },
            fin(QueryOutput::Aggregate {
                bounds: b(-0.0, 1.0),
            }),
            fin(QueryOutput::Aggregate {
                bounds: b(0.0, 1.0),
            }),
            fin(QueryOutput::Selected(vec![])),
            fin(QueryOutput::Selected(vec![0, 1])),
            fin(QueryOutput::Selected(vec![1, 0])),
            fin(QueryOutput::Count { lo: 0, hi: 1 }),
            fin(QueryOutput::Count { lo: 1, hi: 1 }),
            fin(QueryOutput::Extreme {
                bond_id: 1,
                bounds: b(99.0, 99.5),
                ties: vec![0],
            }),
            fin(QueryOutput::Extreme {
                bond_id: 1,
                bounds: b(99.0, 99.5),
                ties: vec![],
            }),
            fin(QueryOutput::Ranked {
                members: vec![(1, b(99.0, 99.5)), (0, b(98.0, 98.5))],
                ties: vec![2],
            }),
            fin(QueryOutput::Heavy {
                cells: vec![vao::ops::heavy::HeavyCell { cell: -1, count: 3 }],
                ties: vec![0],
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn groups_follow_the_payload_bytes(picks in prop::collection::vec(0usize..14, 0..24)) {
            use crate::proto;
            let alphabet = alphabet();
            let answers: Vec<(SessionId, Answer)> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| (SessionId(i as u64 + 1), alphabet[p].clone()))
                .collect();
            let groups = broadcast_groups(&answers);

            // The groups partition the sessions, in first-occurrence order.
            let firsts: Vec<SessionId> = groups.iter().map(|g| g.sessions[0]).collect();
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&firsts, &sorted);
            let mut seen: Vec<SessionId> = groups.iter().flat_map(|g| g.sessions.clone()).collect();
            seen.sort_unstable();
            let ids: Vec<SessionId> = answers.iter().map(|(id, _)| *id).collect();
            prop_assert_eq!(&seen, &ids);
            for g in &groups {
                prop_assert!(g.sessions.windows(2).all(|w| w[0] < w[1]));
            }

            // One group per distinct payload string.
            let payload = |a: &Answer| proto::result_payload("default", 4, 0.0583, a);
            let mut distinct: Vec<String> = answers.iter().map(|(_, a)| payload(a)).collect();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(groups.len(), distinct.len());

            // Every session's line is the line of its own answer.
            for g in &groups {
                let shared = payload(g.answer);
                for &sid in &g.sessions {
                    let mut line = String::new();
                    proto::write_result_line(&mut line, sid, &shared).unwrap();
                    let own = &answers[sid.0 as usize - 1].1;
                    prop_assert_eq!(line, proto::result("default", 4, 0.0583, sid, own));
                }
            }
        }
    }
}
