//! `--check`: answers against an independent reference pass.
//!
//! The reference is an unbudgeted, serial `Server::new` per tenant — the
//! simplest configuration the server has. Its `Final` answers are what a
//! workload's answers must be compatible with: a different schedule may
//! stop at different (sound) bounds, so `Final`s are compared by what both
//! must contain, and a budgeted workload's `Partial`s must bracket it.

use std::collections::BTreeMap;

use bondlab::{BondPricer, BondUniverse};
use va_server::{Answer, Server, ServerConfig};
use va_stream::{BondRelation, Query, QueryOutput};
use vao::Bounds;

use crate::spec::{Spec, TenantSpec};

pub fn relation_of(tenant: &TenantSpec) -> BondRelation {
    BondRelation::from_universe(&BondUniverse::generate(tenant.bonds, tenant.universe_seed))
}

/// FNV-1a, for answer digests (equality across laps, not security).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Reference answers per tenant and rate, computed on first use.
pub struct Reference {
    servers: Vec<Server>,
    cache: BTreeMap<(usize, u64), Vec<Answer>>,
}

impl Reference {
    pub fn new(spec: &Spec) -> Self {
        let servers = spec
            .tenants
            .iter()
            .map(|t| {
                let mut server = Server::new(
                    BondPricer::default(),
                    relation_of(t),
                    ServerConfig::default(),
                );
                for (query, priority) in &t.sessions {
                    server
                        .subscribe(query.clone(), *priority)
                        .expect("reference subscribe");
                }
                server
            })
            .collect();
        Self {
            servers,
            cache: BTreeMap::new(),
        }
    }

    /// The reference answers of `tenant`'s queries at `rate`, in spec order.
    pub fn answers(&mut self, tenant: usize, rate: f64) -> &[Answer] {
        let server = &mut self.servers[tenant];
        self.cache
            .entry((tenant, rate.to_bits()))
            .or_insert_with(|| {
                let result = server.tick(rate).expect("reference tick");
                result.answers.into_iter().map(|(_, a)| a).collect()
            })
    }
}

fn ids_equal(a: &[u32], b: &[u32]) -> bool {
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

fn intersects(a: &Bounds, b: &Bounds) -> bool {
    a.intersect(b).is_some()
}

fn envelope(members: &[(u32, Bounds)]) -> Option<Bounds> {
    let lo = members
        .iter()
        .map(|(_, b)| b.lo())
        .fold(f64::INFINITY, f64::min);
    let hi = members
        .iter()
        .map(|(_, b)| b.hi())
        .fold(f64::NEG_INFINITY, f64::max);
    Bounds::try_new(lo, hi).ok()
}

/// Whether `got` is an answer the server may give when `reference` is the
/// converged `Final` of the same query at the same rate.
pub fn compatible(query: &Query, got: &Answer, reference: &Answer) -> Result<(), String> {
    let Answer::Final(want) = reference else {
        return Err("reference pass did not converge".to_string());
    };
    let fail = |what: &str| {
        Err(format!(
            "{}: {what}: got {got:?}, reference {want:?}",
            query.operator_name()
        ))
    };
    match (got, want) {
        (Answer::Final(QueryOutput::Selected(a)), QueryOutput::Selected(b)) => {
            if ids_equal(a, b) {
                Ok(())
            } else {
                fail("selected id sets differ")
            }
        }
        (
            Answer::Final(QueryOutput::Extreme { bounds: a, .. }),
            QueryOutput::Extreme { bounds: b, .. },
        )
        | (
            Answer::Final(QueryOutput::Aggregate { bounds: a }),
            QueryOutput::Aggregate { bounds: b },
        ) => {
            if intersects(a, b) {
                Ok(())
            } else {
                fail("final bounds are disjoint")
            }
        }
        (Answer::Final(QueryOutput::Count { lo, hi }), QueryOutput::Count { lo: rlo, hi: rhi }) => {
            if lo <= rhi && rlo <= hi {
                Ok(())
            } else {
                fail("count intervals are disjoint")
            }
        }
        (
            Answer::Final(QueryOutput::Ranked {
                members: a,
                ties: at,
            }),
            QueryOutput::Ranked {
                members: b,
                ties: bt,
            },
        ) => {
            // Ranked id sets equal, up to the ties either side declares.
            let within = |xs: &[(u32, Bounds)], ys: &[(u32, Bounds)], yt: &[u32]| {
                xs.iter()
                    .all(|(id, _)| ys.iter().any(|(y, _)| y == id) || yt.contains(id))
            };
            if a.len() == b.len() && within(a, b, bt) && within(b, a, at) {
                Ok(())
            } else {
                fail("ranked id sets differ beyond declared ties")
            }
        }
        (
            Answer::Final(QueryOutput::Heavy { cells: a, ties: at }),
            QueryOutput::Heavy { cells: b, ties: bt },
        ) => {
            let within = |xs: &[vao::ops::heavy::HeavyCell],
                          ys: &[vao::ops::heavy::HeavyCell],
                          yt: &[i64]| {
                xs.iter()
                    .all(|c| ys.iter().any(|y| y.cell == c.cell) || yt.contains(&c.cell))
            };
            if a.len() == b.len() && within(a, b, bt) && within(b, a, at) {
                Ok(())
            } else {
                fail("heavy cells differ beyond declared ties")
            }
        }
        (Answer::Final(_), _) => fail("answer shape differs"),
        (Answer::Partial { bounds }, want) => {
            let contains = |lo: f64, hi: f64| bounds.lo() <= hi && lo <= bounds.hi();
            let ok = match want {
                // SELECT/COUNT partials bracket the result cardinality.
                QueryOutput::Selected(ids) => contains(ids.len() as f64, ids.len() as f64),
                QueryOutput::Count { lo, hi } => contains(*lo as f64, *hi as f64),
                QueryOutput::Aggregate { bounds: b } | QueryOutput::Extreme { bounds: b, .. } => {
                    intersects(bounds, b)
                }
                QueryOutput::Ranked { members, .. } => {
                    envelope(members).is_some_and(|e| intersects(bounds, &e))
                }
                // The k-th resolved count can only grow towards the final.
                QueryOutput::Heavy { cells, .. } => {
                    cells.last().is_none_or(|c| bounds.lo() <= c.count as f64)
                }
            };
            if ok {
                Ok(())
            } else {
                fail("partial bounds do not contain the reference")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vao::ops::selection::CmpOp;

    fn agg(lo: f64, hi: f64) -> Answer {
        Answer::Final(QueryOutput::Aggregate {
            bounds: Bounds::new(lo, hi),
        })
    }

    #[test]
    fn finals_must_overlap_and_partials_must_contain() {
        let q = Query::Ave { epsilon: 0.1 };
        assert!(compatible(&q, &agg(1.0, 2.0), &agg(1.5, 2.5)).is_ok());
        assert!(compatible(&q, &agg(1.0, 2.0), &agg(2.1, 2.5)).is_err());
        let partial = Answer::Partial {
            bounds: Bounds::new(0.0, 10.0),
        };
        assert!(compatible(&q, &partial, &agg(1.5, 2.5)).is_ok());
        assert!(compatible(&q, &partial, &agg(11.0, 12.0)).is_err());
        assert!(compatible(&q, &agg(1.0, 2.0), &partial).is_err());
    }

    #[test]
    fn selections_compare_as_sets_and_partials_by_cardinality() {
        let q = Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        };
        let want = Answer::Final(QueryOutput::Selected(vec![3, 1, 2]));
        let same = Answer::Final(QueryOutput::Selected(vec![1, 2, 3]));
        let other = Answer::Final(QueryOutput::Selected(vec![1, 2]));
        assert!(compatible(&q, &same, &want).is_ok());
        assert!(compatible(&q, &other, &want).is_err());
        let card = |lo, hi| Answer::Partial {
            bounds: Bounds::new(lo, hi),
        };
        assert!(compatible(&q, &card(2.0, 5.0), &want).is_ok());
        assert!(compatible(&q, &card(4.0, 5.0), &want).is_err());
    }
}
