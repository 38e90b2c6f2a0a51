//! The newline-delimited JSON line protocol (see `docs/SERVER.md` for the
//! full schema).
//!
//! Every request and response is one JSON object per line. Requests carry a
//! `"type"` tag (`SUBSCRIBE`, `UNSUBSCRIBE`, `RESUME`, `TICK`, `TICKS`,
//! `TICK_MULTI`, `STATS`, `QUIT`, plus the catalog control plane:
//! `CREATE_RELATION`, `DROP_RELATION`, `ADD_BOND`, `USE`, `RELATIONS`);
//! the server answers with `SUBSCRIBED`, `UNSUBSCRIBED`, `RESUMED`, one
//! `RESULT` per session plus a `TICK_DONE` per processed tick, `STATS`,
//! `CREATED`, `DROPPED`, `BOND_ADDED`, `USING`, `RELATIONS`, `BYE`, or
//! `ERROR`. Parsing is strict about shapes (a malformed request yields
//! `ERROR` without killing the connection) and numbers ride as JSON
//! numbers, never strings.
//!
//! Data-plane requests carry an optional `"relation"` field naming the
//! relation they address; when omitted, the connection's `USE` selection
//! applies, falling back to `"default"`. Responses echo the resolved
//! relation so multiplexed clients can demux.

use std::fmt::{self, Write};

use va_persist::json::{render, write_array, Escaped, Json};
use va_persist::record::{
    self, finite, finite_field, parse_bond_terms, parse_cmp_op, write_bond, write_bounds,
    write_output,
};
use va_stream::Query;
use vao::ops::selection::CmpOp;

use crate::answer::Answer;
use crate::catalog::{Catalog, Tenant};
use crate::server::TickResult;
use crate::session::SessionId;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register a query at a priority.
    Subscribe {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
        /// The query, with SUM weights still optional.
        query: WireQuery,
        /// Scheduling priority (defaults to 1 on the wire).
        priority: u32,
    },
    /// Remove a session.
    Unsubscribe {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
        /// The session to remove.
        session: u64,
    },
    /// Re-attach to a session (typically after a reconnect or a server
    /// restart from a data dir) and get its registration plus its most
    /// recent answer back.
    Resume {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
        /// The session to re-attach to.
        session: u64,
    },
    /// Process one rate tick.
    Tick {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
        /// The new 10-year rate.
        rate: f64,
    },
    /// Offer a burst of ticks; the server coalesces to the newest.
    Ticks {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
        /// Rates in arrival order.
        rates: Vec<f64>,
    },
    /// Process one tick across several relations under one arbitrated
    /// budget.
    TickMulti {
        /// `(relation, rate)` pairs, one per relation (no duplicates).
        ticks: Vec<(String, f64)>,
    },
    /// Report run statistics for one relation.
    Stats {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
    },
    /// Create a relation in the catalog.
    CreateRelation {
        /// New relation's name.
        name: String,
        /// Where its bonds come from.
        spec: RelationSpec,
    },
    /// Drop a relation and everything namespaced under it.
    DropRelation {
        /// The relation to drop.
        name: String,
    },
    /// Append one bond to a relation.
    AddBond {
        /// Relation addressed (`None` → the connection's `USE` selection).
        relation: Option<String>,
        /// The bond to append (id is assigned by the server).
        bond: WireBond,
    },
    /// Select the connection's default relation for subsequent requests.
    Use {
        /// The relation to select.
        name: String,
    },
    /// List the catalog.
    Relations,
    /// Close the connection.
    Quit,
}

/// How `CREATE RELATION` sources its bonds.
#[derive(Clone, Debug, PartialEq)]
pub enum RelationSpec {
    /// Generate `count` bonds from the deterministic universe generator.
    Seeded {
        /// Generator seed.
        seed: u64,
        /// Number of bonds.
        count: u64,
    },
    /// Explicit bonds shipped on the wire (ids assigned in order).
    Bonds(Vec<WireBond>),
}

/// One bond as it rides the wire (the id is always server-assigned).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireBond {
    /// Annual coupon fraction.
    pub coupon: f64,
    /// Years to maturity.
    pub maturity: f64,
    /// Face value.
    pub face: f64,
}

/// A query as it appears on the wire: identical to [`Query`] except SUM
/// weights may be omitted (defaulting to all-ones once the relation size is
/// known).
#[derive(Clone, Debug, PartialEq)]
pub enum WireQuery {
    /// `{"kind":"selection","op":">","constant":c}`
    Selection {
        /// Comparison operator.
        op: CmpOp,
        /// Constant compared against.
        constant: f64,
    },
    /// `{"kind":"count","op":">","constant":c,"slack":s}`
    Count {
        /// Comparison operator.
        op: CmpOp,
        /// Constant compared against.
        constant: f64,
        /// Tolerated unresolved objects.
        slack: usize,
    },
    /// `{"kind":"sum","epsilon":e,"weights":[...]}` (weights optional)
    Sum {
        /// Optional per-bond weights.
        weights: Option<Vec<f64>>,
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"ave","epsilon":e}`
    Ave {
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"max","epsilon":e}`
    Max {
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"min","epsilon":e}`
    Min {
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"topk","k":k,"epsilon":e}`
    TopK {
        /// How many bonds to rank.
        k: usize,
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"median","epsilon":e}`
    Median {
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"percentile","phi":p,"epsilon":e}`
    Percentile {
        /// Quantile fraction in `[0, 1]`.
        phi: f64,
        /// Output precision.
        epsilon: f64,
    },
    /// `{"kind":"heavyhitters","k":k,"epsilon":e}`
    HeavyHitters {
        /// How many cells to report.
        k: usize,
        /// Price-cell width.
        epsilon: f64,
    },
}

impl WireQuery {
    /// Resolves to an engine [`Query`], defaulting omitted SUM weights to
    /// all-ones over a relation of `n` bonds.
    #[must_use]
    pub fn into_query(self, n: usize) -> Query {
        match self {
            WireQuery::Selection { op, constant } => Query::Selection { op, constant },
            WireQuery::Count {
                op,
                constant,
                slack,
            } => Query::Count {
                op,
                constant,
                slack,
            },
            WireQuery::Sum { weights, epsilon } => Query::Sum {
                weights: weights.unwrap_or_else(|| vec![1.0; n]),
                epsilon,
            },
            WireQuery::Ave { epsilon } => Query::Ave { epsilon },
            WireQuery::Max { epsilon } => Query::Max { epsilon },
            WireQuery::Min { epsilon } => Query::Min { epsilon },
            WireQuery::TopK { k, epsilon } => Query::TopK { k, epsilon },
            WireQuery::Median { epsilon } => Query::Median { epsilon },
            WireQuery::Percentile { phi, epsilon } => Query::Percentile { phi, epsilon },
            WireQuery::HeavyHitters { k, epsilon } => Query::HeavyHitters { k, epsilon },
        }
    }
}

impl From<Query> for WireQuery {
    /// A resolved query as the wire carries it (SUM weights present).
    fn from(query: Query) -> Self {
        match query {
            Query::Selection { op, constant } => WireQuery::Selection { op, constant },
            Query::Count {
                op,
                constant,
                slack,
            } => WireQuery::Count {
                op,
                constant,
                slack,
            },
            Query::Sum { weights, epsilon } => WireQuery::Sum {
                weights: Some(weights),
                epsilon,
            },
            Query::Ave { epsilon } => WireQuery::Ave { epsilon },
            Query::Max { epsilon } => WireQuery::Max { epsilon },
            Query::Min { epsilon } => WireQuery::Min { epsilon },
            Query::TopK { k, epsilon } => WireQuery::TopK { k, epsilon },
            Query::Median { epsilon } => WireQuery::Median { epsilon },
            Query::Percentile { phi, epsilon } => WireQuery::Percentile { phi, epsilon },
            Query::HeavyHitters { k, epsilon } => WireQuery::HeavyHitters { k, epsilon },
        }
    }
}

/// Parses one request line. Errors are human-readable strings the server
/// echoes back in an `ERROR` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line)?;
    let kind = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing \"type\"")?;
    let relation = || match doc.get("relation") {
        None => Ok(None),
        Some(r) => r
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| "\"relation\" must be a string".to_string()),
    };
    let name = || {
        doc.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| "missing \"name\"".to_string())
    };
    let session = || {
        doc.get("session")
            .and_then(Json::as_u64)
            .ok_or("missing \"session\"")
    };
    match kind {
        "SUBSCRIBE" => {
            let query = parse_wire_query(doc.get("query").ok_or("missing \"query\"")?)?;
            let priority = match doc.get("priority") {
                None => 1,
                Some(p) => u32::try_from(
                    p.as_u64()
                        .ok_or("\"priority\" must be a nonnegative integer")?,
                )
                .map_err(|_| "\"priority\" out of range".to_string())?,
            };
            Ok(Request::Subscribe {
                relation: relation()?,
                query,
                priority,
            })
        }
        "UNSUBSCRIBE" => Ok(Request::Unsubscribe {
            relation: relation()?,
            session: session()?,
        }),
        "RESUME" => Ok(Request::Resume {
            relation: relation()?,
            session: session()?,
        }),
        "TICK" => Ok(Request::Tick {
            relation: relation()?,
            rate: finite_field(&doc, "rate")?,
        }),
        "TICKS" => {
            let rates = doc
                .get("rates")
                .and_then(Json::as_array)
                .ok_or("missing \"rates\"")?
                .iter()
                .map(|r| finite(r.as_f64(), "rates"))
                .collect::<Result<Vec<f64>, String>>()?;
            // Validated at parse time, like the query params: an empty
            // burst is a malformed request, not a runtime condition.
            if rates.is_empty() {
                return Err("\"rates\" must not be empty".to_string());
            }
            Ok(Request::Ticks {
                relation: relation()?,
                rates,
            })
        }
        "TICK_MULTI" => {
            let ticks = doc
                .get("ticks")
                .and_then(Json::as_array)
                .ok_or("missing \"ticks\"")?
                .iter()
                .map(|t| {
                    let rel = t
                        .get("relation")
                        .and_then(Json::as_str)
                        .ok_or("each tick needs a \"relation\"")?;
                    let rate = finite_field(t, "rate")?;
                    Ok((rel.to_string(), rate))
                })
                .collect::<Result<Vec<(String, f64)>, String>>()?;
            if ticks.is_empty() {
                return Err("\"ticks\" must not be empty".to_string());
            }
            Ok(Request::TickMulti { ticks })
        }
        "STATS" => Ok(Request::Stats {
            relation: relation()?,
        }),
        "CREATE_RELATION" => {
            let name = name()?;
            let spec = match (doc.get("bonds"), doc.get("seed"), doc.get("count")) {
                (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
                    return Err("specify either \"bonds\" or \"seed\"/\"count\", not both".into())
                }
                (Some(bonds), None, None) => {
                    let bonds = bonds
                        .as_array()
                        .ok_or("\"bonds\" must be an array")?
                        .iter()
                        .map(parse_wire_bond)
                        .collect::<Result<Vec<WireBond>, String>>()?;
                    if bonds.is_empty() {
                        return Err("\"bonds\" must not be empty".to_string());
                    }
                    RelationSpec::Bonds(bonds)
                }
                (None, seed, count) => {
                    let seed = seed.and_then(Json::as_u64).ok_or("missing \"seed\"")?;
                    let count = count.and_then(Json::as_u64).ok_or("missing \"count\"")?;
                    if count == 0 {
                        return Err("\"count\" must be positive".to_string());
                    }
                    RelationSpec::Seeded { seed, count }
                }
            };
            Ok(Request::CreateRelation { name, spec })
        }
        "DROP_RELATION" => Ok(Request::DropRelation { name: name()? }),
        "ADD_BOND" => Ok(Request::AddBond {
            relation: relation()?,
            bond: parse_wire_bond(doc.get("bond").ok_or("missing \"bond\"")?)?,
        }),
        "USE" => Ok(Request::Use { name: name()? }),
        "RELATIONS" => Ok(Request::Relations),
        "QUIT" => Ok(Request::Quit),
        other => Err(format!("unknown request type \"{other}\"")),
    }
}

fn parse_wire_bond(doc: &Json) -> Result<WireBond, String> {
    let (coupon, maturity, face) = parse_bond_terms(doc)?;
    Ok(WireBond {
        coupon,
        maturity,
        face,
    })
}

/// The wire's query grammar is the stored one ([`record::parse_query`])
/// plus two omissions: a SUM may leave out `weights` (all-ones once the
/// relation size is known) and a COUNT its `slack` (0).
fn parse_wire_query(doc: &Json) -> Result<WireQuery, String> {
    match doc.get("kind").and_then(Json::as_str) {
        Some("sum") if doc.get("weights").is_none() => Ok(WireQuery::Sum {
            weights: None,
            epsilon: finite_field(doc, "epsilon")?,
        }),
        Some("count") if doc.get("slack").and_then(Json::as_u64).is_none() => {
            Ok(WireQuery::Count {
                op: parse_cmp_op(doc)?,
                constant: finite_field(doc, "constant")?,
                slack: 0,
            })
        }
        _ => record::parse_query(doc).map(WireQuery::from),
    }
}

// -------------------------------------------------------------- requests
//
// Every line has one writer, `write_*(out, ..)`, appending it to the
// caller's buffer in one pass through `fmt::Write` (the idiom of the shape
// writers in `va_persist::record`, which they nest). The front end writes
// straight into each connection's write buffer; `va_persist::json::render`
// renders a writer into a fresh `String`. The few lines the benchmark
// builds as strings (`render_request`, `result`, `result_payload`,
// `tick_done`) keep a `String` form.

/// Writes a [`WireQuery`] as the object shape [`parse_request`] accepts
/// (omitted SUM weights stay omitted).
fn write_wire_query(out: &mut String, q: &WireQuery) -> fmt::Result {
    match q {
        WireQuery::Sum {
            weights: None,
            epsilon,
        } => write!(out, "{{\"kind\":\"sum\",\"epsilon\":{epsilon}}}"),
        resolved => record::write_query(out, &resolved.clone().into_query(0)),
    }
}

/// The `,"relation":"..."` tail of a request that names its relation.
fn write_relation_field(out: &mut String, relation: Option<&String>) -> fmt::Result {
    match relation {
        None => Ok(()),
        Some(name) => write!(out, ",\"relation\":\"{}\"", Escaped(name)),
    }
}

fn write_wire_bond(out: &mut String, b: &WireBond) -> fmt::Result {
    write_bond(out, None, b.coupon, b.maturity, b.face)
}

/// Writes a [`Request`] as one protocol line that [`parse_request`]
/// parses back to an equal value — the round-trip contract the protocol
/// property tests pin down.
pub fn write_request(out: &mut String, req: &Request) -> fmt::Result {
    match req {
        Request::Subscribe {
            relation,
            query,
            priority,
        } => {
            out.write_str("{\"type\":\"SUBSCRIBE\",\"query\":")?;
            write_wire_query(out, query)?;
            write!(out, ",\"priority\":{priority}")?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::Unsubscribe { relation, session } => {
            write!(out, "{{\"type\":\"UNSUBSCRIBE\",\"session\":{session}")?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::Resume { relation, session } => {
            write!(out, "{{\"type\":\"RESUME\",\"session\":{session}")?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::Tick { relation, rate } => {
            write!(out, "{{\"type\":\"TICK\",\"rate\":{rate}")?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::Ticks { relation, rates } => {
            out.write_str("{\"type\":\"TICKS\",\"rates\":")?;
            write_array(out, rates, |out, r| write!(out, "{r}"))?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::TickMulti { ticks } => {
            out.write_str("{\"type\":\"TICK_MULTI\",\"ticks\":")?;
            write_array(out, ticks, |out, (name, rate)| {
                write!(
                    out,
                    "{{\"relation\":\"{}\",\"rate\":{rate}}}",
                    Escaped(name)
                )
            })?;
        }
        Request::Stats { relation } => {
            out.write_str("{\"type\":\"STATS\"")?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::CreateRelation { name, spec } => {
            write!(
                out,
                "{{\"type\":\"CREATE_RELATION\",\"name\":\"{}\"",
                Escaped(name)
            )?;
            match spec {
                RelationSpec::Seeded { seed, count } => {
                    write!(out, ",\"seed\":{seed},\"count\":{count}")?;
                }
                RelationSpec::Bonds(bonds) => {
                    out.write_str(",\"bonds\":")?;
                    write_array(out, bonds, write_wire_bond)?;
                }
            }
        }
        Request::DropRelation { name } => {
            write!(
                out,
                "{{\"type\":\"DROP_RELATION\",\"name\":\"{}\"",
                Escaped(name)
            )?;
        }
        Request::AddBond { relation, bond } => {
            out.write_str("{\"type\":\"ADD_BOND\",\"bond\":")?;
            write_wire_bond(out, bond)?;
            write_relation_field(out, relation.as_ref())?;
        }
        Request::Use { name } => {
            write!(out, "{{\"type\":\"USE\",\"name\":\"{}\"", Escaped(name))?;
        }
        Request::Relations => out.write_str("{\"type\":\"RELATIONS\"")?,
        Request::Quit => out.write_str("{\"type\":\"QUIT\"")?,
    }
    out.write_char('}')
}

/// [`write_request`] into a fresh `String`.
#[must_use]
pub fn render_request(req: &Request) -> String {
    render(|out| write_request(out, req))
}

// ------------------------------------------------------------- responses

/// Writes the `SUBSCRIBED` response line, echoing the resolved relation.
pub fn write_subscribed(out: &mut String, relation: &str, id: SessionId) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"SUBSCRIBED\",\"relation\":\"{}\",\"session\":{id}}}",
        Escaped(relation)
    )
}

/// Writes the `UNSUBSCRIBED` response line.
pub fn write_unsubscribed(out: &mut String, relation: &str, id: u64) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"UNSUBSCRIBED\",\"relation\":\"{}\",\"session\":{id}}}",
        Escaped(relation)
    )
}

/// Writes the `CREATED` response line after `CREATE_RELATION`.
pub fn write_created(out: &mut String, relation: &str, id: u64, bonds: usize) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"CREATED\",\"relation\":\"{}\",\"id\":{id},\"bonds\":{bonds}}}",
        Escaped(relation)
    )
}

/// Writes the `DROPPED` response line after `DROP_RELATION`.
pub fn write_dropped(out: &mut String, relation: &str, id: u64) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"DROPPED\",\"relation\":\"{}\",\"id\":{id}}}",
        Escaped(relation)
    )
}

/// Writes the `BOND_ADDED` response line after `ADD_BOND`.
pub fn write_bond_added(out: &mut String, relation: &str, bond: u32, bonds: usize) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"BOND_ADDED\",\"relation\":\"{}\",\"bond\":{bond},\"bonds\":{bonds}}}",
        Escaped(relation)
    )
}

/// Writes the `USING` response line after `USE`.
pub fn write_using(out: &mut String, relation: &str) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"USING\",\"relation\":\"{}\"}}",
        Escaped(relation)
    )
}

/// Writes the `RELATIONS` response line listing the catalog.
pub fn write_relations(out: &mut String, catalog: &Catalog) -> fmt::Result {
    out.write_str("{\"type\":\"RELATIONS\",\"relations\":")?;
    write_array(out, catalog.tenants(), |out, t| {
        write!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"bonds\":{},\"sessions\":{},\"ticks\":{}}}",
            Escaped(t.name()),
            t.id().0,
            t.relation().len(),
            t.sessions().sessions().len(),
            t.ticks()
        )
    })?;
    out.write_char('}')
}

/// Writes the `RESUMED` response line: the session's registration, its
/// lifetime counters, the relation's tick counter, and — when the session
/// has been answered at least once — its most recent answer.
pub fn write_resumed(
    out: &mut String,
    relation: &str,
    sess: &crate::session::Session,
    tick: u64,
    answer: Option<&Answer>,
) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"RESUMED\",\"relation\":\"{}\",\"session\":{},\"operator\":\"{}\",\"priority\":{},\"finals\":{},\"partials\":{},\"tick\":{}",
        Escaped(relation), sess.id, sess.query.operator_name(), sess.priority, sess.finals, sess.partials, tick
    )?;
    if let Some(a) = answer {
        out.write_str(",\"answer\":")?;
        record::write_answer(out, a)?;
    }
    out.write_char('}')
}

/// Writes the `ERROR` response line.
pub fn write_error(out: &mut String, message: &str) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"ERROR\",\"message\":\"{}\"}}",
        Escaped(message)
    )
}

/// Writes the `BYE` response line (connection closing).
pub fn write_bye(out: &mut String) -> fmt::Result {
    out.write_str("{\"type\":\"BYE\"}")
}

/// Writes the session-independent fragment of a `RESULT` line: everything
/// after the `"session"` field. The broadcast fan-out writes this once per
/// (relation, tick, query shape) group and wraps it per session with
/// [`write_result_line`], so N subscribers on one shape cost one
/// serialization, not N.
pub fn write_result_payload(
    out: &mut String,
    relation: &str,
    tick: u64,
    rate: f64,
    answer: &Answer,
) -> fmt::Result {
    write!(
        out,
        "\"relation\":\"{}\",\"tick\":{tick},\"rate\":{rate},",
        Escaped(relation)
    )?;
    match answer {
        Answer::Final(output) => {
            out.write_str("\"status\":\"final\",\"output\":")?;
            write_output(out, output)
        }
        Answer::Partial { bounds } => {
            out.write_str("\"status\":\"partial\",\"bounds\":{")?;
            write_bounds(out, bounds)?;
            out.write_char('}')
        }
    }
}

/// [`write_result_payload`] into a fresh `String`.
#[must_use]
pub fn result_payload(relation: &str, tick: u64, rate: f64, answer: &Answer) -> String {
    render(|out| write_result_payload(out, relation, tick, rate, answer))
}

/// Writes one session's `RESULT` line around a [`write_result_payload`]
/// fragment.
pub fn write_result_line(out: &mut String, session: SessionId, payload: &str) -> fmt::Result {
    write!(out, "{{\"type\":\"RESULT\",\"session\":{session},")?;
    out.write_str(payload)?;
    out.write_char('}')
}

/// One `RESULT` line for one session's answer on one tick — the
/// composition of [`write_result_payload`] and [`write_result_line`],
/// byte-identical to what the broadcast path emits.
#[must_use]
pub fn result(relation: &str, tick: u64, rate: f64, session: SessionId, answer: &Answer) -> String {
    render(|out| write_result_line(out, session, &result_payload(relation, tick, rate, answer)))
}

/// Writes the `TICK_DONE` trailer after a tick's `RESULT` lines.
pub fn write_tick_done(
    out: &mut String,
    relation: &str,
    res: &TickResult,
    shed: u64,
) -> fmt::Result {
    write!(
        out,
        "{{\"type\":\"TICK_DONE\",\"relation\":\"{}\",\"tick\":{},\"rate\":{},\"work_units\":{},\"iterations\":{},\"budget_exhausted\":{},\"shed\":{shed}}}",
        Escaped(relation),
        res.tick,
        res.rate,
        res.stats.total_work(),
        res.stats.iterations,
        res.budget_exhausted
    )
}

/// [`write_tick_done`] into a fresh `String`.
#[must_use]
pub fn tick_done(relation: &str, res: &TickResult, shed: u64) -> String {
    render(|out| write_tick_done(out, relation, res, shed))
}

/// Writes the `STATS` response line summarizing one relation's run so far.
pub fn write_stats(out: &mut String, tenant: &Tenant) -> fmt::Result {
    let summary = tenant.summary();
    write!(
        out,
        "{{\"type\":\"STATS\",\"relation\":\"{}\",\"ticks\":{},\"shed_ticks\":{},\"work_units\":{},\"iterations\":{},\"sessions\":",
        Escaped(tenant.name()),
        summary.ticks,
        tenant.shed(),
        summary.work.total(),
        summary.iterations,
    )?;
    write_array(out, tenant.sessions().sessions(), |out, s| {
        write!(
            out,
            "{{\"session\":{},\"operator\":\"{}\",\"priority\":{},\"finals\":{},\"partials\":{},\"driven_iterations\":{}}}",
            s.id, s.query.operator_name(), s.priority, s.finals, s.partials, s.driven_iterations
        )
    })?;
    out.write_char('}')
}

#[cfg(test)]
mod tests {
    use super::*;
    use va_stream::QueryOutput;
    use vao::Bounds;

    #[test]
    fn parses_every_request_type() {
        assert_eq!(
            parse_request(r#"{"type":"TICK","rate":0.0583}"#).unwrap(),
            Request::Tick {
                relation: None,
                rate: 0.0583
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"TICK","rate":0.0583,"relation":"energy"}"#).unwrap(),
            Request::Tick {
                relation: Some("energy".to_string()),
                rate: 0.0583
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"TICKS","rates":[0.05,0.06]}"#).unwrap(),
            Request::Ticks {
                relation: None,
                rates: vec![0.05, 0.06]
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"UNSUBSCRIBE","session":3}"#).unwrap(),
            Request::Unsubscribe {
                relation: None,
                session: 3
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"STATS"}"#).unwrap(),
            Request::Stats { relation: None }
        );
        assert_eq!(parse_request(r#"{"type":"QUIT"}"#).unwrap(), Request::Quit);
        assert_eq!(
            parse_request(r#"{"type":"RESUME","session":9}"#).unwrap(),
            Request::Resume {
                relation: None,
                session: 9
            }
        );
        let sub = parse_request(
            r#"{"type":"SUBSCRIBE","query":{"kind":"topk","k":3,"epsilon":0.1},"priority":4}"#,
        )
        .unwrap();
        assert_eq!(
            sub,
            Request::Subscribe {
                relation: None,
                query: WireQuery::TopK { k: 3, epsilon: 0.1 },
                priority: 4
            }
        );
    }

    #[test]
    fn parses_catalog_requests() {
        assert_eq!(
            parse_request(r#"{"type":"CREATE_RELATION","name":"energy","seed":7,"count":16}"#)
                .unwrap(),
            Request::CreateRelation {
                name: "energy".to_string(),
                spec: RelationSpec::Seeded { seed: 7, count: 16 }
            }
        );
        assert_eq!(
            parse_request(
                r#"{"type":"CREATE_RELATION","name":"fx","bonds":[{"coupon":0.05,"maturity":10,"face":100}]}"#
            )
            .unwrap(),
            Request::CreateRelation {
                name: "fx".to_string(),
                spec: RelationSpec::Bonds(vec![WireBond {
                    coupon: 0.05,
                    maturity: 10.0,
                    face: 100.0
                }])
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"DROP_RELATION","name":"fx"}"#).unwrap(),
            Request::DropRelation {
                name: "fx".to_string()
            }
        );
        assert_eq!(
            parse_request(
                r#"{"type":"ADD_BOND","relation":"fx","bond":{"coupon":0.06,"maturity":5,"face":100}}"#
            )
            .unwrap(),
            Request::AddBond {
                relation: Some("fx".to_string()),
                bond: WireBond {
                    coupon: 0.06,
                    maturity: 5.0,
                    face: 100.0
                }
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"USE","name":"fx"}"#).unwrap(),
            Request::Use {
                name: "fx".to_string()
            }
        );
        assert_eq!(
            parse_request(r#"{"type":"RELATIONS"}"#).unwrap(),
            Request::Relations
        );
        assert_eq!(
            parse_request(
                r#"{"type":"TICK_MULTI","ticks":[{"relation":"default","rate":0.05},{"relation":"fx","rate":0.06}]}"#
            )
            .unwrap(),
            Request::TickMulti {
                ticks: vec![
                    ("default".to_string(), 0.05),
                    ("fx".to_string(), 0.06)
                ]
            }
        );
        // Malformed catalog requests are parse errors, not panics.
        assert!(parse_request(r#"{"type":"CREATE_RELATION","name":"x"}"#).is_err());
        assert!(parse_request(
            r#"{"type":"CREATE_RELATION","name":"x","seed":1,"count":4,"bonds":[]}"#
        )
        .is_err());
        assert!(
            parse_request(r#"{"type":"CREATE_RELATION","name":"x","seed":1,"count":0}"#).is_err()
        );
        assert!(parse_request(r#"{"type":"CREATE_RELATION","name":"x","bonds":[]}"#).is_err());
        assert!(parse_request(r#"{"type":"ADD_BOND","bond":{"coupon":0.05}}"#).is_err());
        assert!(parse_request(r#"{"type":"USE"}"#).is_err());
        assert!(parse_request(r#"{"type":"TICK_MULTI","ticks":[]}"#).is_err());
        assert!(parse_request(r#"{"type":"TICK","rate":0.05,"relation":7}"#).is_err());
    }

    #[test]
    fn parses_every_query_kind() {
        let q = |s: &str| parse_wire_query(&Json::parse(s).unwrap()).unwrap();
        assert_eq!(
            q(r#"{"kind":"selection","op":">","constant":99.5}"#),
            WireQuery::Selection {
                op: CmpOp::Gt,
                constant: 99.5
            }
        );
        assert_eq!(
            q(r#"{"kind":"count","op":"<=","constant":99.5,"slack":2}"#),
            WireQuery::Count {
                op: CmpOp::Le,
                constant: 99.5,
                slack: 2
            }
        );
        assert_eq!(
            q(r#"{"kind":"sum","epsilon":1.5}"#),
            WireQuery::Sum {
                weights: None,
                epsilon: 1.5
            }
        );
        assert_eq!(
            q(r#"{"kind":"sum","epsilon":1.5,"weights":[1,0,2]}"#).into_query(3),
            Query::Sum {
                weights: vec![1.0, 0.0, 2.0],
                epsilon: 1.5
            }
        );
        assert_eq!(
            q(r#"{"kind":"ave","epsilon":0.2}"#),
            WireQuery::Ave { epsilon: 0.2 }
        );
        assert_eq!(
            q(r#"{"kind":"max","epsilon":0.2}"#),
            WireQuery::Max { epsilon: 0.2 }
        );
        assert_eq!(
            q(r#"{"kind":"min","epsilon":0.2}"#),
            WireQuery::Min { epsilon: 0.2 }
        );
        assert_eq!(
            q(r#"{"kind":"median","epsilon":0.2}"#),
            WireQuery::Median { epsilon: 0.2 }
        );
        assert_eq!(
            q(r#"{"kind":"percentile","phi":0.9,"epsilon":0.2}"#),
            WireQuery::Percentile {
                phi: 0.9,
                epsilon: 0.2
            }
        );
        assert_eq!(
            q(r#"{"kind":"heavyhitters","k":4,"epsilon":0.5}"#),
            WireQuery::HeavyHitters { k: 4, epsilon: 0.5 }
        );
    }

    #[test]
    fn default_sum_weights_are_all_ones() {
        let q = WireQuery::Sum {
            weights: None,
            epsilon: 1.0,
        };
        assert_eq!(
            q.into_query(4),
            Query::Sum {
                weights: vec![1.0; 4],
                epsilon: 1.0
            }
        );
    }

    #[test]
    fn malformed_requests_read_as_errors() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"type":"WARP"}"#).is_err());
        assert!(parse_request(r#"{"type":"TICK"}"#).is_err());
        assert!(parse_request(r#"{"type":"TICK","rate":"fast"}"#).is_err());
        assert_eq!(
            parse_request(r#"{"type":"TICKS","rates":[]}"#),
            Err("\"rates\" must not be empty".to_string()),
            "an empty burst is rejected at parse time"
        );
        assert!(parse_request(r#"{"type":"SUBSCRIBE","query":{"kind":"sum"}}"#).is_err());
        assert!(parse_request(
            r#"{"type":"SUBSCRIBE","query":{"kind":"selection","op":"=","constant":1}}"#
        )
        .is_err());
    }

    #[test]
    fn rendered_requests_parse_back() {
        let reqs = [
            Request::Subscribe {
                relation: None,
                query: WireQuery::Sum {
                    weights: None,
                    epsilon: 2.5,
                },
                priority: 3,
            },
            Request::Subscribe {
                relation: Some("energy".to_string()),
                query: WireQuery::Count {
                    op: CmpOp::Ge,
                    constant: 101.25,
                    slack: 4,
                },
                priority: 1,
            },
            Request::Subscribe {
                relation: None,
                query: WireQuery::Median { epsilon: 0.05 },
                priority: 1,
            },
            Request::Subscribe {
                relation: None,
                query: WireQuery::Percentile {
                    phi: 0.95,
                    epsilon: 0.25,
                },
                priority: 2,
            },
            Request::Subscribe {
                relation: None,
                query: WireQuery::HeavyHitters { k: 3, epsilon: 0.5 },
                priority: 1,
            },
            Request::Unsubscribe {
                relation: Some("fx".to_string()),
                session: 12,
            },
            Request::Resume {
                relation: None,
                session: 12,
            },
            Request::Tick {
                relation: Some("energy".to_string()),
                rate: 0.0583,
            },
            Request::Ticks {
                relation: None,
                rates: vec![0.05, 0.0625],
            },
            Request::TickMulti {
                ticks: vec![("default".to_string(), 0.05), ("fx".to_string(), 0.06)],
            },
            Request::Stats {
                relation: Some("fx".to_string()),
            },
            Request::CreateRelation {
                name: "energy".to_string(),
                spec: RelationSpec::Seeded { seed: 7, count: 16 },
            },
            Request::CreateRelation {
                name: "fx".to_string(),
                spec: RelationSpec::Bonds(vec![
                    WireBond {
                        coupon: 0.05,
                        maturity: 10.0,
                        face: 100.0,
                    },
                    WireBond {
                        coupon: 0.0625,
                        maturity: 30.0,
                        face: 1000.0,
                    },
                ]),
            },
            Request::DropRelation {
                name: "fx".to_string(),
            },
            Request::AddBond {
                relation: None,
                bond: WireBond {
                    coupon: 0.07,
                    maturity: 2.5,
                    face: 100.0,
                },
            },
            Request::Use {
                name: "energy".to_string(),
            },
            Request::Relations,
            Request::Stats { relation: None },
            Request::Quit,
        ];
        for req in &reqs {
            let line = render_request(req);
            assert_eq!(&parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn result_lines_compose_from_shared_payloads() {
        let partial = Answer::Partial {
            bounds: Bounds::new(1.0, 2.5),
        };
        let fin = Answer::Final(QueryOutput::Count { lo: 2, hi: 2 });
        for answer in [&partial, &fin] {
            let payload = result_payload("default", 7, 0.0584, answer);
            for session in [SessionId(1), SessionId(40)] {
                assert_eq!(
                    render(|out| write_result_line(out, session, &payload)),
                    result("default", 7, 0.0584, session, answer),
                    "broadcast wrap must stay byte-identical to the direct line"
                );
            }
        }
    }

    #[test]
    fn resumed_lines_carry_the_last_answer() {
        let sess = crate::session::Session {
            id: SessionId(4),
            query: Query::Max { epsilon: 0.5 },
            priority: 2,
            finals: 7,
            partials: 1,
            driven_iterations: 90,
        };
        let none = render(|o| write_resumed(o, "default", &sess, 8, None));
        assert!(Json::parse(&none).is_ok(), "{none}");
        assert!(!none.contains("\"answer\""));
        assert!(none.contains("\"operator\":\"max\""));
        assert!(none.contains("\"relation\":\"default\""));
        let partial = Answer::Partial {
            bounds: Bounds::new(1.0, 2.0),
        };
        let line = render(|o| write_resumed(o, "default", &sess, 8, Some(&partial)));
        assert!(Json::parse(&line).is_ok(), "{line}");
        assert!(line.contains("\"status\":\"partial\""));
        let fin = Answer::Final(QueryOutput::Count { lo: 3, hi: 3 });
        let line = render(|o| write_resumed(o, "default", &sess, 8, Some(&fin)));
        assert!(line.contains("\"status\":\"final\""));
        assert!(line.contains("\"shape\":\"count\""));
    }

    #[test]
    fn responses_are_single_line_json() {
        let output = |o: &QueryOutput| render(|out| write_output(out, o));
        let lines = [
            render(|o| write_subscribed(o, "default", SessionId(7))),
            render(|o| write_unsubscribed(o, "default", 7)),
            render(|o| write_created(o, "energy", 2, 16)),
            render(|o| write_dropped(o, "energy", 2)),
            render(|o| write_bond_added(o, "default", 8, 9)),
            render(|o| write_using(o, "energy")),
            render(|o| write_error(o, "bad \"thing\"\nhappened")),
            render(write_bye),
            result(
                "default",
                3,
                0.0583,
                SessionId(1),
                &Answer::Partial {
                    bounds: Bounds::new(1.0, 2.0),
                },
            ),
            output(&QueryOutput::Extreme {
                bond_id: 5,
                bounds: Bounds::new(99.0, 99.5),
                ties: vec![6, 7],
            }),
            output(&QueryOutput::Ranked {
                members: vec![(1, Bounds::new(2.0, 3.0))],
                ties: vec![],
            }),
            output(&QueryOutput::Selected(vec![1, 2])),
            output(&QueryOutput::Count { lo: 2, hi: 4 }),
            output(&QueryOutput::Heavy {
                cells: vec![vao::ops::heavy::HeavyCell { cell: -3, count: 7 }],
                ties: vec![-2, 5],
            }),
        ];
        for line in &lines {
            assert!(!line.contains('\n'), "{line}");
            let parsed = Json::parse(line);
            assert!(parsed.is_ok(), "{line}: {parsed:?}");
        }
        assert!(lines[8].contains("\"status\":\"partial\""));
    }
}
