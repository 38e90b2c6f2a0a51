//! On-disk record types and their JSON codecs.
//!
//! Every record serializes to a single-line JSON object and parses back
//! bit-identically: `f64` values are written with Rust's shortest
//! round-tripping `Display` and read with `str::parse::<f64>`, so a
//! recovered server sees exactly the floats the crashed server saw.
//! `docs/PERSISTENCE.md` documents every field.
//!
//! The journal is a **redo log of outcomes**, not intents: a
//! [`TickRecord`] carries the executed tick's work and iteration counts,
//! per-session outcomes, answers, and the end-of-tick warm-start state of
//! every pool object. Replay is therefore pure bookkeeping — no model is
//! re-invoked and no iteration re-run — which is what makes recovered
//! accounting bit-identical to the uninterrupted run.
//!
//! **One type per fact.** The records carry the domain types themselves —
//! [`Answer`], [`Session`], [`WorkBreakdown`], [`Bond`], [`Bounds`] — and the
//! ones both sides of the durability seam need but no lower crate defines
//! ([`Answer`], [`Session`], [`SessionId`]) are defined here and
//! re-exported by `va-server`. Every domain check (interval order, bond
//! economics, ids that were never issued) is made once, by the parsers below:
//! a record that parsed holds only valid values, and the recovery fold
//! trusts it.

use std::collections::BTreeMap;
use std::fmt::{self, Write};

use va_stream::{Bond, Query, QueryOutput};
use vao::cost::WorkBreakdown;
use vao::ops::heavy::HeavyCell;
use vao::ops::selection::CmpOp;
use vao::Bounds;

use crate::json::{render, write_array, Escaped, Json};

/// Identifies one registered query for its lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One registered continuous query plus its execution counters: what the
/// live registry holds and what a snapshot's `sessions` array persists.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Server-assigned id (monotone, never reused).
    pub id: SessionId,
    /// The registered query; its ε rides inside the variant.
    pub query: Query,
    /// Scheduling priority (≥ 1). A session's estimated benefits are
    /// multiplied by this in the global greedy score, so a priority-2 query
    /// wins contended iterations over an equal-benefit priority-1 query.
    pub priority: u32,
    /// Ticks this session answered exactly (converged to its ε).
    pub finals: u64,
    /// Ticks the work budget degraded to anytime `Partial` answers.
    pub partials: u64,
    /// Pool iterations this session's demand drove: it was the
    /// highest-weighted-benefit claimant when the scheduler iterated the
    /// object.
    pub driven_iterations: u64,
}

/// What a session receives for one tick.
///
/// When the scheduler converges a query to its ε within the tick's work
/// budget, the session gets the same [`QueryOutput`] a dedicated engine
/// would produce. When the budget runs out first, the session gets a sound
/// interval instead of blocking — the *anytime* answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// The query reached its stopping condition within budget.
    Final(QueryOutput),
    /// The work budget was exhausted first.
    Partial {
        /// Sound bounds on the converged answer *value*: the aggregate for
        /// SUM/AVE, the extreme value for MAX/MIN (the footnote-9
        /// envelope), the k-th price for TOP-K, and the result cardinality
        /// for the set-valued SELECT/COUNT queries. Guaranteed to contain
        /// the value a budget-free evaluation would converge to.
        bounds: Bounds,
    },
}

impl Answer {
    /// Whether the answer is exact.
    #[must_use]
    pub fn is_final(&self) -> bool {
        matches!(self, Answer::Final(_))
    }

    /// The final output, when the answer is exact.
    #[must_use]
    pub fn final_output(&self) -> Option<&QueryOutput> {
        match self {
            Answer::Final(out) => Some(out),
            Answer::Partial { .. } => None,
        }
    }

    /// The anytime bounds, when the answer is partial.
    #[must_use]
    pub fn partial_bounds(&self) -> Option<Bounds> {
        match self {
            Answer::Partial { bounds } => Some(*bounds),
            Answer::Final(_) => None,
        }
    }
}

/// One control-plane event in the write-ahead journal.
///
/// Every data-plane event is namespaced by a relation id.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A relation was created in the catalog: its full definition rides in
    /// the journal so a data dir is self-describing on recovery. Boxed —
    /// the definition carries every bond.
    CreateRelation(Box<RelationRecord>),
    /// A relation was dropped from the catalog (its id is never reused).
    DropRelation {
        /// The dropped relation's id.
        relation: u64,
    },
    /// A bond was appended to a relation's definition.
    AddBond {
        /// The relation the bond was appended to.
        relation: u64,
        /// The appended bond.
        bond: Bond,
    },
    /// A session was admitted (validated) with this id.
    Subscribe {
        /// The relation the session subscribes against.
        relation: u64,
        /// The id the registry assigned (per-relation id space).
        session: u64,
        /// Scheduling priority (already clamped ≥ 1).
        priority: u32,
        /// The resolved query (SUM weights concrete).
        query: Query,
    },
    /// A session was removed.
    Unsubscribe {
        /// The relation the session belonged to.
        relation: u64,
        /// The id that was deregistered.
        session: u64,
    },
    /// One tick executed to completion; carries its full outcome. Boxed:
    /// a tick record dwarfs the other variants (stats + per-object warm
    /// state), and events travel through `Vec<JournalEvent>` on recovery.
    Tick(Box<TickRecord>),
    /// A snapshot with this sequence number covers every event up to and
    /// including this marker.
    SnapshotMarker {
        /// Snapshot sequence number.
        seq: u64,
    },
}

/// A journaled relation definition plus its catalog id.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationRecord {
    /// The catalog id assigned (monotone, never reused).
    pub relation: u64,
    /// The full definition.
    pub def: RelationDefRecord,
}

/// A relation's complete self-describing definition: recovery rebuilds
/// the in-memory relation from this record alone, with zero flag-based
/// reconstruction.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationDefRecord {
    /// Catalog name (unique among live relations).
    pub name: String,
    /// The universe-generator seed the bonds came from, if any (kept for
    /// provenance / operator display; the `bonds` list is authoritative).
    pub seed: Option<u64>,
    /// Every bond, in relation order.
    pub bonds: Vec<Bond>,
}

/// The outcome of one executed tick.
#[derive(Clone, Debug, PartialEq)]
pub struct TickRecord {
    /// The relation the tick executed against.
    pub relation: u64,
    /// The relation's tick counter after this tick (1-based).
    pub tick: u64,
    /// The rate that was priced.
    pub rate: f64,
    /// Cumulative shed-tick counter after this tick.
    pub shed: u64,
    /// Whether the work budget ran out mid-tick.
    pub budget_exhausted: bool,
    /// The tick's logical work, by component.
    pub work: WorkBreakdown,
    /// The tick's `iterate()` calls.
    pub iterations: u64,
    /// Per-session outcome deltas, in registration order.
    pub sessions: Vec<SessionTickRecord>,
    /// Per-session answers, in registration order.
    pub answers: Vec<(SessionId, Answer)>,
    /// End-of-tick state of every pool object, aligned with the relation.
    pub warm: Vec<WarmObjectRecord>,
}

/// One session's outcome delta for one tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionTickRecord {
    /// Session id.
    pub session: u64,
    /// Whether the session converged to its ε (else the answer was
    /// partial).
    pub is_final: bool,
    /// Pool iterations this session's demand drove during the tick.
    pub driven: u64,
}

/// End-of-tick state of one pool object: everything a recovered server
/// needs to re-admit the object at its achieved accuracy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarmObjectRecord {
    /// Last bounds.
    pub bounds: Bounds,
    /// Whether the object had reached its stopping condition.
    pub converged: bool,
}

/// Where in the segmented journal a snapshot's coverage ends: the last
/// covered byte lives `bytes` into `journal-<segment>.jsonl`. Segments
/// strictly below `segment` are fully covered and eligible for compaction
/// once no retained snapshot needs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentPosition {
    /// Journal segment number the coverage ends in.
    pub segment: u64,
    /// Byte length of that segment's covered prefix.
    pub bytes: u64,
}

/// A point-in-time capture of the whole server control plane.
///
/// One section per catalog relation, each carrying its definition
/// (snapshots must be self-contained — compaction may delete the
/// `create_relation` journal events that originally defined a relation).
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotRecord {
    /// Snapshot sequence number (monotone per data dir).
    pub seq: u64,
    /// How many journal events this snapshot covers; recovery replays only
    /// the events after this count.
    pub journal_events: u64,
    /// Where the coverage ends in the segmented journal.
    pub coverage: SegmentPosition,
    /// The catalog's next relation id (high-water mark + 1). Never
    /// decreases, even when relations are dropped.
    pub next_relation_id: u64,
    /// Per-relation control-plane state, ascending by relation id.
    pub relations: Vec<RelationSnapshot>,
}

/// One relation's control-plane state as captured by a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct RelationSnapshot {
    /// Catalog relation id.
    pub relation: u64,
    /// The relation's definition.
    pub def: RelationDefRecord,
    /// The registry's next session id (high-water mark + 1). Never
    /// decreases, even when sessions unsubscribe.
    pub next_session_id: u64,
    /// Ticks processed so far.
    pub ticks: u64,
    /// Ticks shed by load coalescing so far.
    pub shed: u64,
    /// Live sessions, in registration order.
    pub sessions: Vec<Session>,
    /// Work summed over every tick processed so far.
    pub work: WorkBreakdown,
    /// `iterate()` calls summed over every tick processed so far.
    pub iterations: u64,
    /// Warm-start state per rate (rates in ascending bit order).
    pub warm: Vec<WarmRateRecord>,
    /// Last delivered answer per session, in registration order.
    pub answers: Vec<(SessionId, Answer)>,
}

/// The warm-start objects for one rate.
#[derive(Clone, Debug, PartialEq)]
pub struct WarmRateRecord {
    /// The rate (exact bits round-trip through the decimal encoding).
    pub rate: f64,
    /// Per-object state, aligned with the relation.
    pub objects: Vec<WarmObjectRecord>,
}

// ----------------------------------------------------------------- encode
//
// One writer per shape, `write_*(out, ..)`: it appends the shape's JSON to
// the caller's buffer through `fmt::Write`, in one pass, and renders no
// element or section into a `String` of its own. The writers below are the
// only emitters of those shapes in the workspace: the journal, the
// snapshot and the wire protocol (`va_server::proto`) all call them. Field
// names and their order are theirs, not the structs'.

/// A persisted float: Rust's shortest round-trip `Display` spelling.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_assert!(self.0.is_finite(), "persisted floats must be finite");
        self.0.fmt(f)
    }
}

/// The wire and journal spelling of a comparison operator.
#[must_use]
pub fn cmp_op_str(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
    }
}

/// Writes a [`Query`] as its `{"kind":...}` object (SUM weights always
/// concrete; the wire's weight-less SUM is a protocol envelope).
pub fn write_query(out: &mut String, q: &Query) -> fmt::Result {
    match q {
        Query::Selection { op, constant } => write!(
            out,
            "{{\"kind\":\"selection\",\"op\":\"{}\",\"constant\":{constant}}}",
            cmp_op_str(*op)
        ),
        Query::Count {
            op,
            constant,
            slack,
        } => write!(
            out,
            "{{\"kind\":\"count\",\"op\":\"{}\",\"constant\":{constant},\"slack\":{slack}}}",
            cmp_op_str(*op)
        ),
        Query::Sum { weights, epsilon } => {
            write!(out, "{{\"kind\":\"sum\",\"epsilon\":{epsilon},\"weights\":")?;
            write_array(out, weights, |out, w| write!(out, "{w}"))?;
            out.write_char('}')
        }
        Query::Ave { epsilon } => write!(out, "{{\"kind\":\"ave\",\"epsilon\":{epsilon}}}"),
        Query::Max { epsilon } => write!(out, "{{\"kind\":\"max\",\"epsilon\":{epsilon}}}"),
        Query::Min { epsilon } => write!(out, "{{\"kind\":\"min\",\"epsilon\":{epsilon}}}"),
        Query::TopK { k, epsilon } => {
            write!(out, "{{\"kind\":\"topk\",\"k\":{k},\"epsilon\":{epsilon}}}")
        }
        Query::Median { epsilon } => {
            write!(out, "{{\"kind\":\"median\",\"epsilon\":{epsilon}}}")
        }
        Query::Percentile { phi, epsilon } => write!(
            out,
            "{{\"kind\":\"percentile\",\"phi\":{phi},\"epsilon\":{epsilon}}}"
        ),
        Query::HeavyHitters { k, epsilon } => write!(
            out,
            "{{\"kind\":\"heavyhitters\",\"k\":{k},\"epsilon\":{epsilon}}}"
        ),
    }
}

/// Writes a bond id list.
pub fn write_ids(out: &mut String, ids: &[u32]) -> fmt::Result {
    write_array(out, ids, |out, id| write!(out, "{id}"))
}

/// Writes the `"lo":L,"hi":H` field pair of an interval (no braces — the
/// caller decides what else shares the object).
pub fn write_bounds(out: &mut String, b: &Bounds) -> fmt::Result {
    write!(out, "\"lo\":{},\"hi\":{}", b.lo(), b.hi())
}

/// Writes a [`QueryOutput`] as its `{"shape":...}` object.
pub fn write_output(out: &mut String, output: &QueryOutput) -> fmt::Result {
    match output {
        QueryOutput::Selected(ids) => {
            out.write_str("{\"shape\":\"selected\",\"ids\":")?;
            write_ids(out, ids)?;
        }
        QueryOutput::Extreme {
            bond_id,
            bounds,
            ties,
        } => {
            write!(out, "{{\"shape\":\"extreme\",\"bond\":{bond_id},")?;
            write_bounds(out, bounds)?;
            out.write_str(",\"ties\":")?;
            write_ids(out, ties)?;
        }
        QueryOutput::Aggregate { bounds } => {
            out.write_str("{\"shape\":\"aggregate\",")?;
            write_bounds(out, bounds)?;
        }
        QueryOutput::Ranked { members, ties } => {
            out.write_str("{\"shape\":\"ranked\",\"members\":")?;
            write_array(out, members, |out, (id, b)| {
                write!(out, "{{\"bond\":{id},")?;
                write_bounds(out, b)?;
                out.write_char('}')
            })?;
            out.write_str(",\"ties\":")?;
            write_ids(out, ties)?;
        }
        QueryOutput::Count { lo, hi } => {
            write!(out, "{{\"shape\":\"count\",\"lo\":{lo},\"hi\":{hi}")?;
        }
        QueryOutput::Heavy { cells, ties } => {
            out.write_str("{\"shape\":\"heavy\",\"cells\":")?;
            write_array(out, cells, |out, c| {
                write!(out, "{{\"cell\":{},\"count\":{}}}", c.cell, c.count)
            })?;
            out.write_str(",\"ties\":")?;
            write_array(out, ties, |out, t| write!(out, "{t}"))?;
        }
    }
    out.write_char('}')
}

/// Writes the answer object of journal records, snapshots and `RESUMED`
/// (a `RESULT` line nests a partial answer's bounds under `"bounds"`
/// instead).
pub fn write_answer(out: &mut String, a: &Answer) -> fmt::Result {
    match a {
        Answer::Final(output) => {
            out.write_str("{\"status\":\"final\",\"output\":")?;
            write_output(out, output)?;
        }
        Answer::Partial { bounds } => {
            out.write_str("{\"status\":\"partial\",")?;
            write_bounds(out, bounds)?;
        }
    }
    out.write_char('}')
}

fn write_answers(out: &mut String, answers: &[(SessionId, Answer)]) -> fmt::Result {
    write_array(out, answers, |out, (session, answer)| {
        write!(out, "{{\"session\":{session},\"answer\":")?;
        write_answer(out, answer)?;
        out.write_char('}')
    })
}

fn write_warm_objects(out: &mut String, objs: &[WarmObjectRecord]) -> fmt::Result {
    write_array(out, objs, |out, w| {
        out.write_char('{')?;
        write_bounds(out, &w.bounds)?;
        write!(out, ",\"converged\":{}}}", w.converged)
    })
}

/// Writes a bond's terms, led by its `"id"` when the bond has one (a bond
/// on the wire does not: the server assigns ids).
pub fn write_bond(
    out: &mut String,
    id: Option<u32>,
    coupon: f64,
    maturity: f64,
    face: f64,
) -> fmt::Result {
    out.write_char('{')?;
    if let Some(id) = id {
        write!(out, "\"id\":{id},")?;
    }
    write!(
        out,
        "\"coupon\":{coupon},\"maturity\":{maturity},\"face\":{face}}}"
    )
}

fn write_stored_bond(out: &mut String, b: &Bond) -> fmt::Result {
    write_bond(out, Some(b.id), b.coupon, b.years_to_maturity, b.face)
}

/// Writes a relation definition (without its catalog id).
pub fn write_relation_def(out: &mut String, def: &RelationDefRecord) -> fmt::Result {
    write!(out, "{{\"name\":\"{}\",", Escaped(&def.name))?;
    if let Some(seed) = def.seed {
        write!(out, "\"seed\":{seed},")?;
    }
    out.write_str("\"bonds\":")?;
    write_array(out, &def.bonds, write_stored_bond)?;
    out.write_char('}')
}

/// Writes the `"work":{...},"iterations":N` field pair of a tick record's
/// `stats` object and of a snapshot section (no braces).
fn write_work(out: &mut String, work: &WorkBreakdown, iterations: u64) -> fmt::Result {
    write!(
        out,
        "\"work\":{{\"exec\":{},\"get\":{},\"store\":{},\"choose\":{}}},\"iterations\":{iterations}",
        work.exec_iter, work.get_state, work.store_state, work.choose_iter,
    )
}

impl JournalEvent {
    /// Writes the event's single journal line (no newline).
    pub fn write_line(&self, out: &mut String) -> fmt::Result {
        match self {
            JournalEvent::CreateRelation(r) => {
                write!(
                    out,
                    "{{\"ev\":\"create_relation\",\"relation\":{},\"def\":",
                    r.relation
                )?;
                write_relation_def(out, &r.def)?;
            }
            JournalEvent::DropRelation { relation } => {
                write!(out, "{{\"ev\":\"drop_relation\",\"relation\":{relation}")?;
            }
            JournalEvent::AddBond { relation, bond } => {
                write!(
                    out,
                    "{{\"ev\":\"add_bond\",\"relation\":{relation},\"bond\":"
                )?;
                write_stored_bond(out, bond)?;
            }
            JournalEvent::Subscribe {
                relation,
                session,
                priority,
                query,
            } => {
                write!(
                    out,
                    "{{\"ev\":\"subscribe\",\"relation\":{relation},\"session\":{session},\"priority\":{priority},\"query\":"
                )?;
                write_query(out, query)?;
            }
            JournalEvent::Unsubscribe { relation, session } => {
                write!(
                    out,
                    "{{\"ev\":\"unsubscribe\",\"relation\":{relation},\"session\":{session}"
                )?;
            }
            JournalEvent::Tick(t) => {
                write!(
                    out,
                    "{{\"ev\":\"tick\",\"relation\":{},\"tick\":{},\"rate\":{},\"shed\":{},\"budget_exhausted\":{},\"stats\":",
                    t.relation,
                    t.tick,
                    Num(t.rate),
                    t.shed,
                    t.budget_exhausted,
                )?;
                out.write_char('{')?;
                write_work(out, &t.work, t.iterations)?;
                out.write_str("},\"sessions\":")?;
                write_array(out, &t.sessions, |out, s| {
                    write!(
                        out,
                        "{{\"session\":{},\"final\":{},\"driven\":{}}}",
                        s.session, s.is_final, s.driven
                    )
                })?;
                out.write_str(",\"answers\":")?;
                write_answers(out, &t.answers)?;
                out.write_str(",\"warm\":")?;
                write_warm_objects(out, &t.warm)?;
            }
            JournalEvent::SnapshotMarker { seq } => {
                write!(out, "{{\"ev\":\"snapshot\",\"seq\":{seq}")?;
            }
        }
        out.write_char('}')
    }

    /// The event's single journal line (no newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        render(|out| self.write_line(out))
    }
}

/// The warm sections of the last snapshot a writer encoded, by `(relation
/// id, rate bits)`: each section's records and the `"objects"` array bytes
/// written for them.
///
/// Derived state, never persisted. The snapshot writer copies a section's
/// bytes when its records are bit-identical to the memo's and encodes it
/// otherwise, so a memo changes no byte it writes: it only spares
/// re-encoding the sections that did not move since the last snapshot. An
/// empty memo ([`SnapshotRecord::write_json`]) encodes every section.
#[derive(Debug, Default)]
pub struct WarmMemo {
    sections: BTreeMap<(u64, u64), WarmSection>,
}

#[derive(Debug, Default)]
struct WarmSection {
    objects: Vec<WarmObjectRecord>,
    bytes: String,
}

impl WarmMemo {
    /// The `(relation id, rate bits)` key of every section held, ascending.
    pub fn keys(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sections.keys().copied()
    }
}

/// Whether `a` and `b` are written as the same bytes: equal bit patterns,
/// not `==`, which holds for `-0.0` and `0.0` although the two are spelled
/// `-0` and `0`.
fn same_bits(a: &[WarmObjectRecord], b: &[WarmObjectRecord]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.converged == y.converged
                && x.bounds.lo().to_bits() == y.bounds.lo().to_bits()
                && x.bounds.hi().to_bits() == y.bounds.hi().to_bits()
        })
}

/// Writes one relation's section, taking each warm section's bytes from
/// `last` when its records match and recording every section in `next`.
fn write_relation_snapshot(
    out: &mut String,
    r: &RelationSnapshot,
    last: &mut BTreeMap<(u64, u64), WarmSection>,
    next: &mut BTreeMap<(u64, u64), WarmSection>,
) -> fmt::Result {
    write!(out, "{{\"relation\":{},\"def\":", r.relation)?;
    write_relation_def(out, &r.def)?;
    write!(
        out,
        ",\"next_session_id\":{},\"ticks\":{},\"shed\":{},\"sessions\":",
        r.next_session_id, r.ticks, r.shed
    )?;
    write_array(out, &r.sessions, |out, s| {
        write!(
            out,
            "{{\"session\":{},\"priority\":{},\"finals\":{},\"partials\":{},\"driven\":{},\"query\":",
            s.id, s.priority, s.finals, s.partials, s.driven_iterations
        )?;
        write_query(out, &s.query)?;
        out.write_char('}')
    })?;
    out.write_char(',')?;
    write_work(out, &r.work, r.iterations)?;
    out.write_str(",\"warm\":")?;
    write_array(out, &r.warm, |out, w| {
        write!(out, "{{\"rate\":{},\"objects\":", Num(w.rate))?;
        let key = (r.relation, w.rate.to_bits());
        let section = match last.remove(&key) {
            Some(kept) if same_bits(&kept.objects, &w.objects) => kept,
            stale => {
                // Re-encode into the stale section's buffers.
                let mut section = stale.unwrap_or_default();
                section.objects.clear();
                section.objects.extend_from_slice(&w.objects);
                section.bytes.clear();
                write_warm_objects(&mut section.bytes, &w.objects)?;
                section
            }
        };
        out.push_str(&section.bytes);
        next.insert(key, section);
        out.write_char('}')
    })?;
    out.write_str(",\"answers\":")?;
    write_answers(out, &r.answers)?;
    out.write_char('}')
}

impl SnapshotRecord {
    /// Writes the snapshot as one JSON document (no newline): the writer a
    /// [`crate::Store`] runs through its [`WarmMemo`], with an empty memo.
    pub fn write_json(&self, out: &mut String) -> fmt::Result {
        self.write_json_memo(out, &mut WarmMemo::default())
    }

    /// Writes the snapshot as one JSON document (no newline), copying each
    /// warm section `memo` holds bit-identical records for, and leaves in
    /// `memo` exactly this snapshot's warm sections.
    pub(crate) fn write_json_memo(&self, out: &mut String, memo: &mut WarmMemo) -> fmt::Result {
        let mut last = std::mem::take(&mut memo.sections);
        write!(
            out,
            "{{\"seq\":{},\"journal_events\":{},\"segment\":{},\"segment_bytes\":{},\"next_relation_id\":{},\"relations\":",
            self.seq,
            self.journal_events,
            self.coverage.segment,
            self.coverage.bytes,
            self.next_relation_id,
        )?;
        write_array(out, &self.relations, |out, r| {
            write_relation_snapshot(out, r, &mut last, &mut memo.sections)
        })?;
        out.write_char('}')
    }

    /// The snapshot as one JSON document (no newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        render(|out| self.write_json(out))
    }
}

// ----------------------------------------------------------------- decode
//
// One parser per shape. `parse_cmp_op`, `parse_query` and
// `parse_bond_terms` are also the wire protocol's, so their error texts
// are the ones a client reads in an `ERROR` reply.

/// A float that must be present and finite: JSON has no NaN, but `1e999`
/// parses to infinity, and neither a client nor a journal may supply one.
pub fn finite(v: Option<f64>, field: &str) -> Result<f64, String> {
    match v {
        Some(x) if x.is_finite() => Ok(x),
        Some(_) => Err(format!("\"{field}\" must be finite")),
        None => Err(format!("missing \"{field}\"")),
    }
}

/// [`finite`] over the object field `key`.
pub fn finite_field(doc: &Json, key: &str) -> Result<f64, String> {
    finite(doc.get(key).and_then(Json::as_f64), key)
}

fn f64_field(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric \"{key}\""))
}

fn u64_field(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer \"{key}\""))
}

fn bool_field(doc: &Json, key: &str) -> Result<bool, String> {
    doc.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| format!("missing boolean \"{key}\""))
}

fn str_field<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string \"{key}\""))
}

fn u32_field(doc: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(u64_field(doc, key)?).map_err(|e| e.to_string())
}

/// A relation or session id. Ids are issued from 1 upward, so `u64::MAX`
/// was never issued; refusing it here is what lets every `id + 1` behind a
/// parsed record stay unchecked.
fn id_field(doc: &Json, key: &str) -> Result<u64, String> {
    match u64_field(doc, key)? {
        u64::MAX => Err(format!("\"{key}\" {} was never issued", u64::MAX)),
        id => Ok(id),
    }
}

/// Parses every element of the array field `key` with `each`.
fn list_field<T>(
    doc: &Json,
    key: &str,
    each: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array \"{key}\""))?
        .iter()
        .map(each)
        .collect()
}

/// Parses the `"lo"`/`"hi"` pair of an interval-carrying object.
pub fn parse_bounds(doc: &Json) -> Result<Bounds, String> {
    Bounds::try_new(f64_field(doc, "lo")?, f64_field(doc, "hi")?).map_err(|e| e.to_string())
}

/// Parses the `"op"` field of a predicate-carrying object.
pub fn parse_cmp_op(doc: &Json) -> Result<CmpOp, String> {
    match doc.get("op").and_then(Json::as_str) {
        Some(">") => Ok(CmpOp::Gt),
        Some(">=") => Ok(CmpOp::Ge),
        Some("<") => Ok(CmpOp::Lt),
        Some("<=") => Ok(CmpOp::Le),
        Some(other) => Err(format!("unknown op \"{other}\"")),
        None => Err("missing \"op\"".to_string()),
    }
}

/// Parses a [`Query`] from its `{"kind":...}` object shape, every field
/// the writer emits required (the wire protocol defaults two of them
/// before it gets here; a stored query is always resolved).
pub fn parse_query(doc: &Json) -> Result<Query, String> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing query \"kind\"")?;
    let epsilon = || finite_field(doc, "epsilon");
    let k = || -> Result<usize, String> {
        Ok(doc.get("k").and_then(Json::as_u64).ok_or("missing \"k\"")? as usize)
    };
    match kind {
        "selection" => Ok(Query::Selection {
            op: parse_cmp_op(doc)?,
            constant: finite_field(doc, "constant")?,
        }),
        "count" => Ok(Query::Count {
            op: parse_cmp_op(doc)?,
            constant: finite_field(doc, "constant")?,
            slack: doc
                .get("slack")
                .and_then(Json::as_u64)
                .ok_or("missing \"slack\"")? as usize,
        }),
        "sum" => Ok(Query::Sum {
            weights: doc
                .get("weights")
                .ok_or("missing \"weights\"")?
                .as_array()
                .ok_or("\"weights\" must be an array")?
                .iter()
                .map(|w| w.as_f64().ok_or_else(|| "non-numeric weight".to_string()))
                .collect::<Result<Vec<f64>, String>>()?,
            epsilon: epsilon()?,
        }),
        "ave" => Ok(Query::Ave {
            epsilon: epsilon()?,
        }),
        "max" => Ok(Query::Max {
            epsilon: epsilon()?,
        }),
        "min" => Ok(Query::Min {
            epsilon: epsilon()?,
        }),
        "topk" => Ok(Query::TopK {
            k: k()?,
            epsilon: epsilon()?,
        }),
        "median" => Ok(Query::Median {
            epsilon: epsilon()?,
        }),
        "percentile" => Ok(Query::Percentile {
            phi: finite_field(doc, "phi")?,
            epsilon: epsilon()?,
        }),
        "heavyhitters" => Ok(Query::HeavyHitters {
            k: k()?,
            epsilon: epsilon()?,
        }),
        other => Err(format!("unknown query kind \"{other}\"")),
    }
}

/// A signed integer token. `Int` is exact; negative integers arrive as
/// `Num` and are accepted while `f64` still represents them exactly
/// (|n| < 2^53 — far beyond any realistic price cell).
fn i64_of(v: &Json) -> Option<i64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    match v {
        Json::Int(n) => i64::try_from(*n).ok(),
        Json::Num(n) if n.fract() == 0.0 && n.abs() < EXACT => Some(*n as i64),
        _ => None,
    }
}

/// Parses a [`QueryOutput`] from its `{"shape":...}` object shape.
pub fn parse_output(doc: &Json) -> Result<QueryOutput, String> {
    let ids = |key: &str| {
        list_field(doc, key, |v| {
            v.as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("non-u32 entry in \"{key}\""))
        })
    };
    match str_field(doc, "shape")? {
        "selected" => Ok(QueryOutput::Selected(ids("ids")?)),
        "extreme" => Ok(QueryOutput::Extreme {
            bond_id: u32_field(doc, "bond")?,
            bounds: parse_bounds(doc)?,
            ties: ids("ties")?,
        }),
        "aggregate" => Ok(QueryOutput::Aggregate {
            bounds: parse_bounds(doc)?,
        }),
        "ranked" => Ok(QueryOutput::Ranked {
            members: list_field(doc, "members", |m| {
                Ok((u32_field(m, "bond")?, parse_bounds(m)?))
            })?,
            ties: ids("ties")?,
        }),
        "count" => Ok(QueryOutput::Count {
            lo: u64_field(doc, "lo")? as usize,
            hi: u64_field(doc, "hi")? as usize,
        }),
        "heavy" => Ok(QueryOutput::Heavy {
            cells: list_field(doc, "cells", |c| {
                Ok(HeavyCell {
                    cell: c.get("cell").and_then(i64_of).ok_or("non-i64 \"cell\"")?,
                    count: u64_field(c, "count")?,
                })
            })?,
            ties: list_field(doc, "ties", |t| {
                i64_of(t).ok_or_else(|| "non-i64 entry in \"ties\"".to_string())
            })?,
        }),
        other => Err(format!("unknown output shape \"{other}\"")),
    }
}

fn parse_answer(doc: &Json) -> Result<Answer, String> {
    match str_field(doc, "status")? {
        "final" => Ok(Answer::Final(parse_output(
            doc.get("output").ok_or("missing \"output\"")?,
        )?)),
        "partial" => Ok(Answer::Partial {
            bounds: parse_bounds(doc)?,
        }),
        other => Err(format!("unknown answer status \"{other}\"")),
    }
}

/// The `"answers"` array of a tick record or snapshot section.
fn parse_answers(doc: &Json) -> Result<Vec<(SessionId, Answer)>, String> {
    list_field(doc, "answers", |e| {
        Ok((
            SessionId(id_field(e, "session")?),
            parse_answer(e.get("answer").ok_or("missing \"answer\"")?)?,
        ))
    })
}

fn parse_warm_object(doc: &Json) -> Result<WarmObjectRecord, String> {
    Ok(WarmObjectRecord {
        bounds: parse_bounds(doc)?,
        converged: bool_field(doc, "converged")?,
    })
}

/// Parses a bond's `(coupon, maturity, face)` terms.
pub fn parse_bond_terms(doc: &Json) -> Result<(f64, f64, f64), String> {
    Ok((
        finite_field(doc, "coupon")?,
        finite_field(doc, "maturity")?,
        finite_field(doc, "face")?,
    ))
}

fn parse_bond(doc: &Json) -> Result<Bond, String> {
    let (coupon, maturity, face) = parse_bond_terms(doc)?;
    let id = u32_field(doc, "id")?;
    Bond::try_new(id, coupon, maturity, face)
        .map_err(|detail| format!("corrupt journaled bond {id}: {detail}"))
}

/// Parses a relation definition from its `{"name":...}` object shape.
pub fn parse_relation_def(doc: &Json) -> Result<RelationDefRecord, String> {
    let seed = match doc.get("seed") {
        None => None,
        Some(v) => Some(v.as_u64().ok_or("non-integer \"seed\"")?),
    };
    Ok(RelationDefRecord {
        name: str_field(doc, "name")?.to_string(),
        seed,
        bonds: list_field(doc, "bonds", parse_bond)?,
    })
}

/// Parses the `"work"` object of a tick record's `stats` or a snapshot
/// section.
fn parse_work(doc: &Json) -> Result<WorkBreakdown, String> {
    let work = doc.get("work").ok_or("missing \"work\"")?;
    Ok(WorkBreakdown {
        exec_iter: u64_field(work, "exec")?,
        get_state: u64_field(work, "get")?,
        store_state: u64_field(work, "store")?,
        choose_iter: u64_field(work, "choose")?,
    })
}

impl JournalEvent {
    /// Parses one journal line.
    pub fn parse(line: &str) -> Result<JournalEvent, String> {
        let doc = Json::parse(line)?;
        match str_field(&doc, "ev")? {
            "create_relation" => Ok(JournalEvent::CreateRelation(Box::new(RelationRecord {
                relation: id_field(&doc, "relation")?,
                def: parse_relation_def(doc.get("def").ok_or("missing \"def\"")?)?,
            }))),
            "drop_relation" => Ok(JournalEvent::DropRelation {
                relation: id_field(&doc, "relation")?,
            }),
            "add_bond" => Ok(JournalEvent::AddBond {
                relation: id_field(&doc, "relation")?,
                bond: parse_bond(doc.get("bond").ok_or("missing \"bond\"")?)?,
            }),
            "subscribe" => Ok(JournalEvent::Subscribe {
                relation: id_field(&doc, "relation")?,
                session: id_field(&doc, "session")?,
                priority: u32_field(&doc, "priority")?,
                query: parse_query(doc.get("query").ok_or("missing \"query\"")?)?,
            }),
            "unsubscribe" => Ok(JournalEvent::Unsubscribe {
                relation: id_field(&doc, "relation")?,
                session: id_field(&doc, "session")?,
            }),
            "tick" => {
                let stats = doc.get("stats").ok_or("missing \"stats\"")?;
                Ok(JournalEvent::Tick(Box::new(TickRecord {
                    relation: id_field(&doc, "relation")?,
                    tick: u64_field(&doc, "tick")?,
                    rate: f64_field(&doc, "rate")?,
                    shed: u64_field(&doc, "shed")?,
                    budget_exhausted: bool_field(&doc, "budget_exhausted")?,
                    work: parse_work(stats)?,
                    iterations: u64_field(stats, "iterations")?,
                    sessions: list_field(&doc, "sessions", |s| {
                        Ok(SessionTickRecord {
                            session: id_field(s, "session")?,
                            is_final: bool_field(s, "final")?,
                            driven: u64_field(s, "driven")?,
                        })
                    })?,
                    answers: parse_answers(&doc)?,
                    warm: list_field(&doc, "warm", parse_warm_object)?,
                })))
            }
            "snapshot" => Ok(JournalEvent::SnapshotMarker {
                seq: u64_field(&doc, "seq")?,
            }),
            other => Err(format!("unknown journal event \"{other}\"")),
        }
    }
}

fn parse_relation_snapshot(doc: &Json) -> Result<RelationSnapshot, String> {
    Ok(RelationSnapshot {
        relation: id_field(doc, "relation")?,
        def: parse_relation_def(doc.get("def").ok_or("missing \"def\"")?)?,
        next_session_id: u64_field(doc, "next_session_id")?,
        ticks: u64_field(doc, "ticks")?,
        shed: u64_field(doc, "shed")?,
        sessions: list_field(doc, "sessions", |s| {
            Ok(Session {
                id: SessionId(id_field(s, "session")?),
                query: parse_query(s.get("query").ok_or("missing \"query\"")?)?,
                priority: u32_field(s, "priority")?,
                finals: u64_field(s, "finals")?,
                partials: u64_field(s, "partials")?,
                driven_iterations: u64_field(s, "driven")?,
            })
        })?,
        work: parse_work(doc)?,
        iterations: u64_field(doc, "iterations")?,
        warm: list_field(doc, "warm", |w| {
            Ok(WarmRateRecord {
                rate: f64_field(w, "rate")?,
                objects: list_field(w, "objects", parse_warm_object)?,
            })
        })?,
        answers: parse_answers(doc)?,
    })
}

impl SnapshotRecord {
    /// Parses a snapshot document. Every field [`SnapshotRecord::to_json`]
    /// writes is required; a document from another generation fails naming
    /// the field it lacks. (One that only carries more fields is refused
    /// earlier, by the data dir's `meta.json` version.)
    pub fn parse(text: &str) -> Result<SnapshotRecord, String> {
        let doc = Json::parse(text)?;
        Ok(SnapshotRecord {
            seq: u64_field(&doc, "seq")?,
            journal_events: u64_field(&doc, "journal_events")?,
            coverage: SegmentPosition {
                segment: u64_field(&doc, "segment")?,
                bytes: u64_field(&doc, "segment_bytes")?,
            },
            next_relation_id: u64_field(&doc, "next_relation_id")?,
            relations: list_field(&doc, "relations", parse_relation_snapshot)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_work() -> WorkBreakdown {
        WorkBreakdown {
            exec_iter: 921_088,
            get_state: 48,
            store_state: 415,
            choose_iter: 13_937,
        }
    }

    fn sample_tick() -> TickRecord {
        TickRecord {
            relation: 1,
            tick: 7,
            rate: 0.0583,
            shed: 2,
            budget_exhausted: true,
            work: sample_work(),
            iterations: 319,
            sessions: vec![
                SessionTickRecord {
                    session: 1,
                    is_final: true,
                    driven: 100,
                },
                SessionTickRecord {
                    session: 3,
                    is_final: false,
                    driven: 0,
                },
            ],
            answers: vec![
                (
                    SessionId(1),
                    Answer::Final(QueryOutput::Extreme {
                        bond_id: 45,
                        bounds: Bounds::new(123.318_127_050_003_1, 123.566_607_748_983_66),
                        ties: vec![2, 9],
                    }),
                ),
                (
                    SessionId(3),
                    Answer::Partial {
                        bounds: Bounds::new(5132.5, 5174.8),
                    },
                ),
            ],
            warm: vec![
                WarmObjectRecord {
                    bounds: Bounds::new(88.80101456519986, 88.85679684433053),
                    converged: true,
                },
                WarmObjectRecord {
                    bounds: Bounds::new(90.0, 110.0),
                    converged: false,
                },
            ],
        }
    }

    fn sample_def() -> RelationDefRecord {
        RelationDefRecord {
            name: "energy".to_string(),
            seed: Some(1994),
            bonds: vec![
                Bond::new(0, 0.05, 7.5, 100.0),
                Bond::new(1, 0.0325, 30.0, 1_000.0),
            ],
        }
    }

    #[test]
    fn every_journal_event_round_trips() {
        let events = [
            JournalEvent::CreateRelation(Box::new(RelationRecord {
                relation: 2,
                def: sample_def(),
            })),
            JournalEvent::CreateRelation(Box::new(RelationRecord {
                relation: 3,
                def: RelationDefRecord {
                    name: "weird \"name\"\n".to_string(),
                    seed: None,
                    bonds: Vec::new(),
                },
            })),
            JournalEvent::DropRelation { relation: 2 },
            JournalEvent::AddBond {
                relation: 3,
                bond: Bond::new(7, 0.041, 12.0, 250.0),
            },
            JournalEvent::Subscribe {
                relation: 1,
                session: 4,
                priority: 2,
                query: Query::Sum {
                    weights: vec![1.0, 0.25, -3.5],
                    epsilon: 50.0,
                },
            },
            JournalEvent::Subscribe {
                relation: 2,
                session: 5,
                priority: 1,
                query: Query::Selection {
                    op: CmpOp::Ge,
                    constant: 100.0,
                },
            },
            JournalEvent::Subscribe {
                relation: 1,
                session: 6,
                priority: 3,
                query: Query::Count {
                    op: CmpOp::Lt,
                    constant: 99.5,
                    slack: 4,
                },
            },
            JournalEvent::Subscribe {
                relation: 1,
                session: 7,
                priority: 1,
                query: Query::TopK { k: 5, epsilon: 1.0 },
            },
            JournalEvent::Subscribe {
                relation: 1,
                session: 8,
                priority: 1,
                query: Query::Ave { epsilon: 0.5 },
            },
            JournalEvent::Subscribe {
                relation: 1,
                session: 9,
                priority: 1,
                query: Query::Min { epsilon: 0.25 },
            },
            JournalEvent::Unsubscribe {
                relation: 1,
                session: 4,
            },
            JournalEvent::Tick(Box::new(sample_tick())),
            JournalEvent::SnapshotMarker { seq: 12 },
        ];
        for ev in &events {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "{line}");
            let back = JournalEvent::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(&back, ev, "{line}");
        }
    }

    #[test]
    fn every_output_shape_round_trips() {
        let outputs = [
            QueryOutput::Selected(vec![1, 2, 37]),
            QueryOutput::Extreme {
                bond_id: 45,
                bounds: Bounds::new(123.318_127_050_003_1, 123.566_607_748_983_66),
                ties: vec![],
            },
            QueryOutput::Aggregate {
                bounds: Bounds::new(5_132.538_654_318_307, 5_174.847_830_908_930_5),
            },
            QueryOutput::Ranked {
                members: vec![
                    (45, Bounds::new(123.3, 123.6)),
                    (9, Bounds::new(88.8, 88.9)),
                ],
                ties: vec![3],
            },
            QueryOutput::Count { lo: 37, hi: 41 },
        ];
        for out in &outputs {
            let text = render(|o| write_output(o, out));
            let back = parse_output(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(&back, out, "{text}");
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = SnapshotRecord {
            seq: 3,
            journal_events: 41,
            coverage: SegmentPosition {
                segment: 4,
                bytes: 1_234,
            },
            next_relation_id: 3,
            relations: vec![
                RelationSnapshot {
                    relation: 1,
                    def: RelationDefRecord {
                        name: "default".to_string(),
                        seed: Some(42),
                        bonds: sample_def().bonds,
                    },
                    next_session_id: 9,
                    ticks: 12,
                    shed: 1,
                    sessions: vec![Session {
                        id: SessionId(2),
                        query: Query::Max { epsilon: 0.0101 },
                        priority: 4,
                        finals: 10,
                        partials: 2,
                        driven_iterations: 4_021,
                    }],
                    work: sample_work(),
                    iterations: 638,
                    warm: vec![WarmRateRecord {
                        rate: 0.0583,
                        objects: sample_tick().warm,
                    }],
                    answers: vec![(
                        SessionId(2),
                        Answer::Partial {
                            bounds: Bounds::new(1.0, 2.0),
                        },
                    )],
                },
                RelationSnapshot {
                    relation: 2,
                    def: sample_def(),
                    next_session_id: 1,
                    ticks: 0,
                    shed: 0,
                    sessions: Vec::new(),
                    work: WorkBreakdown::default(),
                    iterations: 0,
                    warm: Vec::new(),
                    answers: Vec::new(),
                },
            ],
        };
        let text = snap.to_json();
        let back = SnapshotRecord::parse(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let rate = 0.058_300_000_000_000_01_f64;
        let ev = JournalEvent::Tick(Box::new(TickRecord {
            rate,
            ..sample_tick()
        }));
        match JournalEvent::parse(&ev.to_line()).unwrap() {
            JournalEvent::Tick(t) => assert_eq!(t.rate.to_bits(), rate.to_bits()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(JournalEvent::parse("not json").is_err());
        assert!(JournalEvent::parse(r#"{"ev":"warp"}"#).is_err());
        assert!(JournalEvent::parse(r#"{"ev":"subscribe","session":1}"#).is_err());
        assert!(SnapshotRecord::parse(r#"{"seq":1}"#).is_err());
        // Inverted bounds are corrupt, not a panic.
        assert!(
            parse_warm_object(&Json::parse(r#"{"lo":2,"hi":1,"converged":false}"#).unwrap())
                .is_err()
        );
        // Likewise every other domain check: a record that parses holds
        // only values the fold can apply without looking at them again.
        let tick = JournalEvent::Tick(Box::new(sample_tick())).to_line();
        let inverted = tick.replace(r#""lo":5132.5,"hi":5174.8"#, r#""lo":5174.8,"hi":5132.5"#);
        assert_ne!(inverted, tick);
        assert!(JournalEvent::parse(&inverted).is_err());
        let create = r#"{"ev":"create_relation","relation":2,"def":{"name":"x","bonds":[{"id":0,"coupon":1.5,"maturity":7.5,"face":100}]}}"#;
        assert!(JournalEvent::parse(create).is_err());
        assert!(JournalEvent::parse(&create.replace("1.5", "0.5")).is_ok());
        let add = r#"{"ev":"add_bond","relation":3,"bond":{"id":7,"coupon":1.5,"maturity":7.5,"face":100}}"#;
        assert!(JournalEvent::parse(add).is_err());
        // Ids are issued from 1 upward: u64::MAX was never issued, and the
        // registry and catalog compute `id + 1` on what they restore.
        let max = u64::MAX;
        for line in [
            format!(
                r#"{{"ev":"subscribe","relation":1,"session":{max},"priority":1,"query":{{"kind":"max","epsilon":0.5}}}}"#
            ),
            format!(
                r#"{{"ev":"subscribe","relation":{max},"session":1,"priority":1,"query":{{"kind":"max","epsilon":0.5}}}}"#
            ),
            format!(
                r#"{{"ev":"create_relation","relation":{max},"def":{{"name":"x","bonds":[]}}}}"#
            ),
        ] {
            assert!(JournalEvent::parse(&line).is_err(), "{line}");
            assert!(JournalEvent::parse(&line.replace(&max.to_string(), "7")).is_ok());
        }
    }

    /// Moved from `va_server::catalog` with the check it pins: bond
    /// economics are refused where a record enters, not where it is folded.
    #[test]
    fn parse_refuses_corrupt_bond_economics() {
        let good = JournalEvent::CreateRelation(Box::new(RelationRecord {
            relation: 1,
            def: sample_def(),
        }))
        .to_line();
        let bad = good.replace(r#""coupon":0.05"#, r#""coupon":-0.05"#);
        assert_ne!(bad, good);
        let detail = JournalEvent::parse(&bad).unwrap_err();
        assert!(detail.contains("corrupt journaled bond 0"), "{detail}");
    }

    /// A bond outside the box the pricer is finite on is corrupt: such a
    /// record, once accepted, panicked every tick after every restart.
    #[test]
    fn parse_refuses_bonds_the_pricer_cannot_price() {
        for bond in [
            r#"{"id":7,"coupon":1e-300,"maturity":10,"face":100}"#,
            r#"{"id":7,"coupon":0.05,"maturity":1e-300,"face":100}"#,
            r#"{"id":7,"coupon":0.05,"maturity":10,"face":1e308}"#,
        ] {
            let add = format!(r#"{{"ev":"add_bond","relation":1,"bond":{bond}}}"#);
            let detail = JournalEvent::parse(&add).unwrap_err();
            assert!(detail.contains("corrupt journaled bond 7"), "{detail}");
        }
    }

    /// Moved from `va_server::answer` with the type.
    #[test]
    fn accessors_distinguish_variants() {
        let f = Answer::Final(QueryOutput::Aggregate {
            bounds: Bounds::new(1.0, 2.0),
        });
        assert!(f.is_final());
        assert!(f.final_output().is_some());
        assert_eq!(f.partial_bounds(), None);

        let p = Answer::Partial {
            bounds: Bounds::new(0.0, 4.0),
        };
        assert!(!p.is_final());
        assert_eq!(p.partial_bounds(), Some(Bounds::new(0.0, 4.0)));
        assert!(p.final_output().is_none());
    }
}
