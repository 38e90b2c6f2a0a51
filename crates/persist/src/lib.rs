//! `va-persist`: the durability layer for `va-server`.
//!
//! A va-server restart used to drop every subscription and rebuild every
//! result object from iteration zero — the single most wasteful failure
//! mode a system built on "iterations are expensive, bounds are reusable"
//! can have. This crate makes the server's control plane durable with two
//! std-only pieces:
//!
//! * an append-only newline-JSON **write-ahead journal**
//!   ([`journal::Journal`]) of control-plane events — `subscribe`,
//!   `unsubscribe`, `tick`, `snapshot` markers — fsync'd before the
//!   corresponding state change commits, and
//! * periodic atomic **snapshots** ([`snapshot`]) capturing the session
//!   registry (queries, priorities, the monotone `SessionId` high-water
//!   mark), run-level work and iteration totals, last answers, and
//!   per-rate **warm-start state**: each pool object's last bounds and
//!   whether it converged, so a recovered server re-admits objects at
//!   their achieved accuracy instead of re-iterating from scratch.
//!
//! The journal is a *redo log of outcomes*: tick events record what
//! execution already produced, so replay is pure bookkeeping — no model
//! invocation, no iteration — and recovered accounting is bit-identical
//! to the uninterrupted run. Recovery ([`Store::open`]) loads the newest
//! valid snapshot, replays the journal tail, and tolerates a torn final
//! record by truncating it (reported via
//! [`Recovery::truncated_bytes`] and surfaced as a `vao::trace` recovery
//! event by the server). See `docs/PERSISTENCE.md` for the formats and
//! semantics, field by field.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod journal;
pub mod json;
pub mod record;
pub mod snapshot;

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::path::{Path, PathBuf};

pub use journal::CompactionReport;
use journal::{Coverage, Journal};
use record::{JournalEvent, SegmentPosition, SnapshotRecord, WarmMemo, WarmObjectRecord};

/// Errors raised by the durability layer.
///
/// Payloads are plain strings so the error stays `Clone + PartialEq` and
/// embeds cleanly in `va_server::ServerError`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// An I/O operation failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The OS error.
        detail: String,
    },
    /// Persisted data failed validation somewhere a torn final record
    /// cannot explain.
    Corrupt {
        /// The file involved.
        path: String,
        /// What failed to parse or validate.
        detail: String,
    },
    /// The data dir was written by a server with a different relation or
    /// pricer configuration. Recovering would apply warm bounds journaled
    /// for *other* bonds as if they were this universe's — silent answer
    /// corruption — so the open is refused outright.
    Mismatch {
        /// The metadata file involved.
        path: String,
        /// The fingerprint this server computed.
        expected: u64,
        /// The fingerprint persisted in the data dir.
        found: u64,
    },
    /// The data dir was written in a layout this build does not read — a
    /// single-file `journal.jsonl`, a `meta.json` whose `"version"` is not
    /// [`META_VERSION`] — or lacks the `"default"` relation a bootstrap open
    /// asserts. [`Store::open`] refuses the first two before it creates,
    /// sweeps, truncates or renames anything, so a foreign dir is never
    /// read as fresh and never modified.
    Layout {
        /// The directory (or file) whose layout is refused.
        path: String,
        /// What was found there.
        detail: String,
    },
}

impl PersistError {
    pub(crate) fn io(path: &Path, e: &std::io::Error) -> Self {
        PersistError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }

    pub(crate) fn corrupt(path: &Path, detail: String) -> Self {
        PersistError::Corrupt {
            path: path.display().to_string(),
            detail,
        }
    }

    fn layout(path: &Path, detail: &str) -> Self {
        PersistError::Layout {
            path: path.display().to_string(),
            detail: detail.to_string(),
        }
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
            PersistError::Corrupt { path, detail } => {
                write!(f, "corrupt persistent state in {path}: {detail}")
            }
            PersistError::Mismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "fingerprint mismatch in {path}: data dir was written for \
                 fingerprint {found:#018x} but this server computes \
                 {expected:#018x} (different relation or pricer); refusing \
                 to recover foreign warm state"
            ),
            PersistError::Layout { path, detail } => {
                write!(f, "unsupported data dir layout in {path}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// One relation's warm-start state per rate, keyed by `f64::to_bits` of the
/// rate so the map is exact and deterministically ordered. The recovery
/// fold fills it: a snapshot section's per-rate entries, then each replayed
/// tick's end-of-tick state replacing the entry for its rate — the map an
/// uninterrupted server holds in memory.
pub type WarmMap = BTreeMap<u64, Vec<WarmObjectRecord>>;

/// What [`Store::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovery {
    /// The newest valid snapshot, if any exists.
    pub snapshot: Option<SnapshotRecord>,
    /// Journal events after the snapshot's coverage, in append order.
    pub tail: Vec<JournalEvent>,
    /// Bytes of torn final journal record truncated away (0 on a clean
    /// open).
    pub truncated_bytes: u64,
    /// Paths of snapshot files newer than the one recovery used that
    /// could not be read or parsed. Empty on a healthy dir; non-empty
    /// means the newest snapshot was lost to corruption and recovery fell
    /// back to an older one (a longer replay, not lost data). The files
    /// are removed at the next snapshot prune.
    pub skipped_snapshots: Vec<String>,
    /// Stale `*.tmp` files (crash leftovers from atomic writes) swept
    /// away before recovery started.
    pub swept_tmp_files: u64,
}

impl Recovery {
    /// Whether anything at all was recovered (fresh dirs recover nothing).
    #[must_use]
    pub fn is_fresh(&self) -> bool {
        self.snapshot.is_none() && self.tail.is_empty()
    }

    /// Number of journal events replayed on top of the snapshot.
    #[must_use]
    pub fn replayed_events(&self) -> u64 {
        self.tail.len() as u64
    }

    /// Sequence number of the snapshot recovery started from.
    #[must_use]
    pub fn snapshot_seq(&self) -> Option<u64> {
        self.snapshot.as_ref().map(|s| s.seq)
    }

    /// Number of corrupt newer snapshots recovery had to skip.
    #[must_use]
    pub fn skipped_snapshot_count(&self) -> u64 {
        self.skipped_snapshots.len() as u64
    }
}

/// Name of the fingerprint metadata file inside a data dir.
pub const META_FILE: &str = "meta.json";

/// The `"version"` [`META_FILE`] carries: the generation of the journal
/// and snapshot formats in the dir. Version 4 records a warm object as its
/// bounds and converged flag only (version 3 also carried its `iters` and
/// `cost`); a dir of any other version is refused.
pub const META_VERSION: u64 = 4;

/// Name of the single-file journal written before segmentation. Nothing
/// reads it any more; [`Store::open`] only looks for it to refuse the dir.
const LEGACY_JOURNAL_FILE: &str = "journal.jsonl";

/// One cached relation binding inside a [`Meta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetaRelation {
    /// The relation's catalog id.
    pub relation: u64,
    /// FNV-1a fingerprint over the pricer *and* this relation's bonds.
    pub fingerprint: u64,
}

/// The identity metadata persisted in [`META_FILE`]:
/// `{"version":4,"pricer":P,"relations":[{"relation":N,"fingerprint":F},..]}`.
///
/// The pricer fingerprint is strictly validated at open. The per-relation
/// entries are *cached* from the authoritative journal: a crash between a
/// catalog journal append and the meta rewrite leaves them stale, and the
/// opener heals them from the replayed journal rather than refusing the
/// dir.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Meta {
    /// FNV-1a fingerprint over the pricer configuration alone.
    pub pricer: u64,
    /// Cached per-relation fingerprint bindings, in relation-id order.
    pub relations: Vec<MetaRelation>,
}

impl Meta {
    /// Writes the on-disk JSON form (no trailing newline).
    pub fn write_json(&self, out: &mut String) -> fmt::Result {
        write!(
            out,
            "{{\"version\":{META_VERSION},\"pricer\":{},\"relations\":",
            self.pricer
        )?;
        json::write_array(out, &self.relations, |out, r| {
            write!(
                out,
                "{{\"relation\":{},\"fingerprint\":{}}}",
                r.relation, r.fingerprint
            )
        })?;
        out.write_char('}')
    }

    /// The on-disk JSON form (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::render(|out| self.write_json(out))
    }

    /// Parses the fields of a document already known to be [`META_VERSION`].
    fn from_doc(doc: &json::Json) -> Result<Meta, String> {
        let int = |doc: &json::Json, key: &str| {
            doc.get(key)
                .and_then(json::Json::as_u64)
                .ok_or_else(|| format!("missing integer \"{key}\""))
        };
        Ok(Meta {
            pricer: int(doc, "pricer")?,
            relations: doc
                .get("relations")
                .and_then(json::Json::as_array)
                .ok_or("missing array \"relations\"")?
                .iter()
                .map(|r| {
                    Ok(MetaRelation {
                        relation: int(r, "relation")?,
                        fingerprint: int(r, "fingerprint")?,
                    })
                })
                .collect::<Result<Vec<MetaRelation>, String>>()?,
        })
    }
}

/// Reads the persisted metadata, `None` when the file does not exist. A
/// readable document of any other version is a [`PersistError::Layout`];
/// an unreadable one is corrupt.
fn read_meta(path: &Path) -> Result<Option<Meta>, PersistError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PersistError::io(path, &e)),
    };
    let corrupt = |e: String| PersistError::corrupt(path, format!("metadata: {e}"));
    let doc = json::Json::parse(text.trim()).map_err(corrupt)?;
    if doc.get("version").and_then(json::Json::as_u64) != Some(META_VERSION) {
        return Err(PersistError::layout(
            path,
            &format!(
                "metadata is not \"version\":{META_VERSION}; this build reads no other generation"
            ),
        ));
    }
    Meta::from_doc(&doc).map(Some).map_err(corrupt)
}

/// Writes `dir/name` atomically — `name.tmp`, fsync, rename — so a crash
/// mid-write can never leave a half-written file under the real name, then
/// makes the rename itself durable where the platform allows opening
/// directories (failing that only risks losing the *newest* file to a
/// crash, which recovery already tolerates). `write` encodes the document
/// into one buffer of `capacity` bytes to start with, which goes to the
/// file with its newline in one write. Returns the path and the file's
/// length.
fn write_atomic(
    dir: &Path,
    name: &str,
    capacity: usize,
    write: impl FnOnce(&mut String) -> fmt::Result,
) -> Result<(PathBuf, usize), PersistError> {
    use std::io::Write;
    let path = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    let mut text = String::with_capacity(capacity);
    write(&mut text).expect("writing to a String cannot fail");
    text.push('\n');
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| PersistError::io(&tmp, &e))?;
        file.write_all(text.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| PersistError::io(&tmp, &e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| PersistError::io(&path, &e))?;
    journal::sync_dir(dir);
    Ok((path, text.len()))
}

/// Sweeps stale `*.tmp` files left behind by a crash between temp-create
/// and rename. Only the two names this crate itself writes are touched
/// (`meta.json.tmp`, `snapshot-*.json.tmp`); anything else in the dir is
/// not ours to delete.
fn sweep_tmp(dir: &Path) -> Result<u64, PersistError> {
    let mut swept = 0u64;
    let entries = std::fs::read_dir(dir).map_err(|e| PersistError::io(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io(dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale = name == "meta.json.tmp"
            || (name.starts_with("snapshot-") && name.ends_with(".json.tmp"));
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            swept += 1;
        }
    }
    Ok(swept)
}

/// An open data dir: the segmented journal plus the snapshot directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    journal: Journal,
    next_seq: u64,
    /// Unparseable snapshot files recorded at open; removed at the next
    /// prune instead of counting toward the two snapshots kept.
    bad_snapshots: Vec<PathBuf>,
    /// Coverage of the newest durable snapshot. After the *next* snapshot
    /// is written this becomes the oldest retained snapshot's coverage —
    /// the compaction floor: every journal segment it fully covers can go.
    newest_coverage: Option<SegmentPosition>,
    /// The next snapshot's starting buffer capacity: a quarter more than
    /// the last snapshot this store wrote, since a catalog's snapshot
    /// grows with its relations, sessions and warm rates. A snapshot is
    /// then encoded into one allocation, not a doubling series whose last
    /// step holds the old and the new buffer at once. Zero before the
    /// first snapshot.
    snapshot_capacity: usize,
    /// The last snapshot's encoded warm sections, which the next snapshot
    /// copies where its records have not moved. Empty at every open.
    warm_memo: WarmMemo,
}

impl Store {
    /// Opens (creating if needed) the data dir at `dir`, recovering
    /// whatever state it holds: newest valid snapshot, journal tail,
    /// torn-record report, and the [`Meta`] the dir carries (`None` on a
    /// fresh dir).
    ///
    /// Identity *policy* — which fingerprints must match — lives in the
    /// server layer, which knows the pricer and the catalog. This layer
    /// only reports what is on disk; callers that accept the dir should
    /// persist their verdict with [`Store::write_meta`].
    pub fn open(dir: &Path) -> Result<(Store, Recovery, Option<Meta>), PersistError> {
        // Foreign layouts first, before anything below creates, sweeps,
        // truncates or renames a file: a dir holding only `journal.jsonl`
        // lists zero segments and would otherwise open as fresh, with a
        // new `journal-1.jsonl` beside the history it never read.
        let legacy = dir.join(LEGACY_JOURNAL_FILE);
        if legacy.exists() {
            return Err(PersistError::layout(
                &legacy,
                "single-file journal from before segmentation; this build reads only \
                 journal-<n>.jsonl segments",
            ));
        }
        let meta = read_meta(&dir.join(META_FILE))?;
        std::fs::create_dir_all(dir).map_err(|e| PersistError::io(dir, &e))?;
        let swept_tmp_files = sweep_tmp(dir)?;
        let snapshots = snapshot::load(dir)?;
        let coverage = snapshots.newest.as_ref().map(|s| Coverage {
            position: s.coverage,
            events: s.journal_events,
        });
        let (journal, load) = Journal::open(dir, coverage.as_ref())?;
        // The next snapshot seq must clear every seq still on disk —
        // including an unparseable newest — or the write would collide
        // with the corpse.
        let next_seq = snapshots.max_seq.map_or(1, |seq| seq + 1);
        let newest_coverage = snapshots.newest.as_ref().map(|s| s.coverage);
        let skipped_snapshots = snapshots
            .skipped
            .iter()
            .map(|p| p.display().to_string())
            .collect();
        Ok((
            Store {
                dir: dir.to_path_buf(),
                journal,
                next_seq,
                bad_snapshots: snapshots.skipped,
                newest_coverage,
                snapshot_capacity: 0,
                warm_memo: WarmMemo::default(),
            },
            Recovery {
                snapshot: snapshots.newest,
                tail: load.events,
                truncated_bytes: load.truncated_bytes,
                skipped_snapshots,
                swept_tmp_files,
            },
            meta,
        ))
    }

    /// Persists `meta` atomically (temp file + fsync + rename + dir sync).
    pub fn write_meta(&self, meta: &Meta) -> Result<(), PersistError> {
        write_atomic(&self.dir, META_FILE, 0, |out| meta.write_json(out)).map(drop)
    }

    /// Appends one event durably (fsync'd before return).
    pub fn append(&mut self, event: &JournalEvent) -> Result<(), PersistError> {
        self.journal.append(event)
    }

    /// Appends `events` as one group: one write and one `fdatasync` for
    /// all of them, and on failure none of them (see
    /// [`Journal::append_all`]).
    pub fn append_all(&mut self, events: &[JournalEvent]) -> Result<(), PersistError> {
        self.journal.append_all(events)
    }

    /// Total intact events in the journal.
    #[must_use]
    pub fn journal_events(&self) -> u64 {
        self.journal.events()
    }

    /// The sequence number the next snapshot must carry.
    #[must_use]
    pub fn next_snapshot_seq(&self) -> u64 {
        self.next_seq
    }

    /// Where the journal currently ends (active segment + byte length).
    /// A snapshot built right now covers exactly this position; the caller
    /// stores it in [`SnapshotRecord::coverage`].
    #[must_use]
    pub fn journal_position(&self) -> SegmentPosition {
        self.journal.position()
    }

    /// Writes `snap` atomically, advances the snapshot sequence, prunes
    /// superseded/corrupt snapshot files, rotates the journal onto a fresh
    /// segment, and compacts segments no retained snapshot needs. A warm
    /// section whose records have not moved since the last snapshot is
    /// copied from [`Store::warm_memo`], not re-encoded; the file holds
    /// [`SnapshotRecord::to_json`]'s bytes either way.
    ///
    /// The caller appends a [`JournalEvent::SnapshotMarker`] *first* (so
    /// `snap.journal_events` covers the marker); a clean shutdown thereby
    /// recovers with zero journal replay.
    ///
    /// Ordering is the crash-safety argument: the snapshot is durable
    /// (rename + dir fsync) *before* anything is deleted, and the
    /// compaction floor is the **previous** snapshot's coverage — the
    /// oldest of the two snapshots kept — so even if this snapshot later
    /// turns out corrupt, the fallback snapshot plus the surviving
    /// segments still replay the full history. A crash anywhere in the
    /// middle leaves extra files, never missing ones.
    pub fn write_snapshot(
        &mut self,
        snap: &SnapshotRecord,
    ) -> Result<CompactionReport, PersistError> {
        if snap.seq != self.next_seq {
            return Err(PersistError::corrupt(
                &self.dir.join(format!("snapshot-{}.json", snap.seq)),
                format!(
                    "snapshot seq {} but the store expects {} (snapshot seqs are monotone)",
                    snap.seq, self.next_seq
                ),
            ));
        }
        let (_, len) =
            snapshot::write_sized(&self.dir, snap, self.snapshot_capacity, &mut self.warm_memo)?;
        self.snapshot_capacity = len + len / 4;
        self.next_seq = snap.seq + 1;
        snapshot::prune(&self.dir, &self.bad_snapshots);
        self.bad_snapshots.clear();
        self.journal.rotate()?;
        // Compact up to the *previous* snapshot's coverage. After the
        // first snapshot ever there is none, and nothing is deleted — the
        // whole journal stays until two snapshots exist.
        let report = match self.newest_coverage {
            Some(oldest_retained) => self.journal.compact(oldest_retained),
            None => CompactionReport {
                live_segments: self.journal.live_segments(),
                ..CompactionReport::default()
            },
        };
        self.newest_coverage = Some(snap.coverage);
        Ok(report)
    }

    /// The data dir this store operates in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The warm sections of the last snapshot this store wrote, which the
    /// next one copies where they have not moved (derived state: empty at
    /// every open).
    #[must_use]
    pub fn warm_memo(&self) -> &WarmMemo {
        &self.warm_memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("va-persist-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The fingerprint these tests stamp into metadata.
    const FP: u64 = 0xFEED_FACE_CAFE_BEEF;

    fn tick_event(tick: u64, rate: f64, lo: f64) -> JournalEvent {
        JournalEvent::Tick(Box::new(record::TickRecord {
            relation: 1,
            tick,
            rate,
            shed: 0,
            budget_exhausted: false,
            work: vao::cost::WorkBreakdown::default(),
            iterations: 0,
            sessions: Vec::new(),
            answers: Vec::new(),
            warm: vec![record::WarmObjectRecord {
                bounds: vao::Bounds::new(lo, lo + 1.0),
                converged: false,
            }],
        }))
    }

    /// A single-relation (id 1) snapshot section with the given counters.
    fn relation_section(ticks: u64, warm: Vec<record::WarmRateRecord>) -> record::RelationSnapshot {
        record::RelationSnapshot {
            relation: 1,
            def: record::RelationDefRecord {
                name: "default".to_string(),
                seed: None,
                bonds: Vec::new(),
            },
            next_session_id: 1,
            ticks,
            shed: 0,
            sessions: Vec::new(),
            work: vao::cost::WorkBreakdown::default(),
            iterations: 0,
            warm,
            answers: Vec::new(),
        }
    }

    #[test]
    fn fresh_dir_recovers_nothing() {
        let dir = tmp_dir("fresh");
        let (store, rec, meta) = Store::open(&dir).unwrap();
        assert!(rec.is_fresh());
        assert!(meta.is_none(), "fresh dirs carry no metadata yet");
        assert_eq!(rec.replayed_events(), 0);
        assert_eq!(rec.snapshot_seq(), None);
        assert_eq!(store.journal_events(), 0);
        assert_eq!(store.next_snapshot_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_skips_covered_events_on_recovery() {
        let dir = tmp_dir("skip");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store.append(&tick_event(1, 0.05, 10.0)).unwrap();
            store.append(&tick_event(2, 0.06, 20.0)).unwrap();
            store
                .append(&JournalEvent::SnapshotMarker { seq: 1 })
                .unwrap();
            store
                .write_snapshot(&SnapshotRecord {
                    seq: 1,
                    journal_events: store.journal_events(),
                    coverage: store.journal_position(),
                    next_relation_id: 2,
                    relations: vec![relation_section(
                        2,
                        vec![record::WarmRateRecord {
                            rate: 0.05,
                            objects: vec![record::WarmObjectRecord {
                                bounds: vao::Bounds::new(10.0, 11.0),
                                converged: false,
                            }],
                        }],
                    )],
                })
                .unwrap();
            store.append(&tick_event(3, 0.05, 30.0)).unwrap();
        }
        let (store, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(1));
        assert_eq!(rec.replayed_events(), 1, "only the post-snapshot tick");
        assert_eq!(store.next_snapshot_seq(), 2);
        // The replayed tick carries the warm state that replaces the
        // snapshot's for 0.05 when the server folds the two.
        assert_eq!(rec.snapshot.unwrap().relations[0].warm.len(), 1);
        match &rec.tail[0] {
            JournalEvent::Tick(t) => assert_eq!(t.warm[0].bounds.lo(), 30.0),
            other => panic!("{other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A minimal snapshot carrying the store's current coverage.
    fn plain_snapshot(store: &Store, ticks: u64) -> SnapshotRecord {
        SnapshotRecord {
            seq: store.next_snapshot_seq(),
            journal_events: store.journal_events(),
            coverage: store.journal_position(),
            next_relation_id: 2,
            relations: vec![relation_section(ticks, Vec::new())],
        }
    }

    #[test]
    fn snapshot_covering_missing_events_is_corrupt() {
        let dir = tmp_dir("missing");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store.append(&tick_event(1, 0.05, 1.0)).unwrap();
            store
                .append(&JournalEvent::SnapshotMarker { seq: 1 })
                .unwrap();
            let snap = plain_snapshot(&store, 1);
            store.write_snapshot(&snap).unwrap();
        }
        // Empty out the covered segment: its fsync'd history vanished.
        fs::write(dir.join(journal::segment_file(1)), b"").unwrap();
        assert!(matches!(
            Store::open(&dir),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_snapshot_seq_is_corrupt_in_release_builds_too() {
        let dir = tmp_dir("seq");
        let (mut store, _, _) = Store::open(&dir).unwrap();
        let mut snap = plain_snapshot(&store, 0);
        snap.seq = 7; // store expects 1
        match store.write_snapshot(&snap) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("monotone"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Nothing was written.
        assert!(!dir.join("snapshot-7.json").exists());
        assert_eq!(store.next_snapshot_seq(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_snapshot_sizes_the_next_snapshots_buffer() {
        let dir = tmp_dir("capacity");
        let (mut store, _, _) = Store::open(&dir).unwrap();
        assert_eq!(store.snapshot_capacity, 0);
        let snap = plain_snapshot(&store, 3);
        store.write_snapshot(&snap).unwrap();
        let len = fs::read(dir.join("snapshot-1.json")).unwrap().len();
        assert_eq!(
            len,
            snap.to_json().len() + 1,
            "the document and its newline"
        );
        assert_eq!(store.snapshot_capacity, len + len / 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_swept_at_open() {
        let dir = tmp_dir("sweep");
        {
            let _ = Store::open(&dir).unwrap();
        }
        fs::write(dir.join("meta.json.tmp"), b"{half").unwrap();
        fs::write(dir.join("snapshot-3.json.tmp"), b"{half").unwrap();
        // A foreign file is not ours to delete.
        fs::write(dir.join("notes.tmp"), b"keep me").unwrap();
        let (_, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.swept_tmp_files, 2);
        assert!(!dir.join("meta.json.tmp").exists());
        assert!(!dir.join("snapshot-3.json.tmp").exists());
        assert!(dir.join("notes.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_snapshot_is_surfaced_and_never_collides() {
        let dir = tmp_dir("skipped");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store.append(&tick_event(1, 0.05, 1.0)).unwrap();
            store
                .append(&JournalEvent::SnapshotMarker { seq: 1 })
                .unwrap();
            let snap = plain_snapshot(&store, 1);
            store.write_snapshot(&snap).unwrap();
            store.append(&tick_event(2, 0.06, 2.0)).unwrap();
        }
        // A corrupt snapshot newer than the good one.
        fs::write(dir.join("snapshot-2.json"), b"{garbage").unwrap();
        let (mut store, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(1), "fell back to the older one");
        assert_eq!(rec.skipped_snapshot_count(), 1);
        assert!(
            rec.skipped_snapshots[0].contains("snapshot-2.json"),
            "{:?}",
            rec.skipped_snapshots
        );
        // next_seq cleared the corpse's seq: the next write must not
        // collide with the still-on-disk corrupt file.
        assert_eq!(store.next_snapshot_seq(), 3);
        store
            .append(&JournalEvent::SnapshotMarker { seq: 3 })
            .unwrap();
        let snap = plain_snapshot(&store, 2);
        store.write_snapshot(&snap).unwrap();
        // The prune removed the corpse rather than counting it toward the
        // two kept.
        assert!(!dir.join("snapshot-2.json").exists());
        assert!(dir.join("snapshot-1.json").exists());
        assert!(dir.join("snapshot-3.json").exists());
        let (_, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(3));
        assert_eq!(rec.skipped_snapshot_count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Well-formed JSON that fails a domain check (bond economics): refused
    /// by the parsers like any other malformed record.
    const BAD_BOND: &str = r#"{"id":0,"coupon":1.5,"maturity":7.5,"face":100}"#;

    #[test]
    fn a_domain_invalid_line_is_torn_at_the_tail_and_corrupt_mid_segment() {
        use std::io::Write;
        let dir = tmp_dir("domain-line");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store.append(&tick_event(1, 0.05, 1.0)).unwrap();
        }
        let segment = dir.join(journal::segment_file(1));
        let good_len = fs::metadata(&segment).unwrap().len();
        let bad = format!("{{\"ev\":\"add_bond\",\"relation\":1,\"bond\":{BAD_BOND}}}\n");
        let append = |text: &str| {
            let mut file = fs::OpenOptions::new().append(true).open(&segment).unwrap();
            file.write_all(text.as_bytes()).unwrap();
        };
        // (i) The last line of the active segment: the torn-record rule.
        append(&bad);
        let (_, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.truncated_bytes, bad.len() as u64);
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.replayed_events(), 1, "the events before it recovered");
        assert_eq!(fs::metadata(&segment).unwrap().len(), good_len);
        // (ii) The same line with a record after it: fsync'd history lied.
        append(&bad);
        append(&format!("{}\n", tick_event(2, 0.06, 2.0).to_line()));
        match Store::open(&dir) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains(&format!("at byte {good_len}")), "{detail}");
                assert!(detail.contains("coupon must be a rate"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_domain_invalid_newest_snapshot_is_skipped_and_reported() {
        let dir = tmp_dir("domain-snapshot");
        {
            let (mut store, _, _) = Store::open(&dir).unwrap();
            store.append(&tick_event(1, 0.05, 1.0)).unwrap();
            store
                .append(&JournalEvent::SnapshotMarker { seq: 1 })
                .unwrap();
            let snap = plain_snapshot(&store, 1);
            store.write_snapshot(&snap).unwrap();
            store.append(&tick_event(2, 0.06, 2.0)).unwrap();
            let newer = plain_snapshot(&store, 2).to_json();
            let bad = newer.replace("\"bonds\":[]", &format!("\"bonds\":[{BAD_BOND}]"));
            assert_ne!(bad, newer);
            assert!(SnapshotRecord::parse(&newer).is_ok());
            fs::write(dir.join("snapshot-2.json"), bad).unwrap();
        }
        let (_, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(1), "fell back to the older one");
        assert_eq!(
            rec.replayed_events(),
            1,
            "and replays what it does not cover"
        );
        assert_eq!(rec.skipped_snapshot_count(), 1);
        assert!(rec.skipped_snapshots[0].contains("snapshot-2.json"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_bounds_the_journal_to_recent_segments() {
        let dir = tmp_dir("bounded");
        let (mut store, _, _) = Store::open(&dir).unwrap();
        let mut reclaimed = 0u64;
        for round in 1..=6u64 {
            for i in 0..4u64 {
                store
                    .append(&tick_event(round * 10 + i, 0.05, i as f64))
                    .unwrap();
            }
            store
                .append(&JournalEvent::SnapshotMarker { seq: round })
                .unwrap();
            let snap = plain_snapshot(&store, round * 4);
            let report = store.write_snapshot(&snap).unwrap();
            reclaimed += report.bytes_reclaimed;
            // Two retained snapshots -> at most their two replay windows
            // plus the fresh active segment survive on disk.
            assert!(
                report.live_segments <= 3,
                "round {round}: {} live segments",
                report.live_segments
            );
        }
        assert!(reclaimed > 0, "compaction reclaimed nothing");
        // Recovery replays only the tail, not all 30 events.
        let (_, rec, _) = Store::open(&dir).unwrap();
        assert_eq!(rec.snapshot_seq(), Some(6));
        assert_eq!(rec.replayed_events(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_round_trips_through_the_data_dir() {
        let dir = tmp_dir("meta-rewrite");
        let (store, _, meta) = Store::open(&dir).unwrap();
        assert!(meta.is_none());
        let empty = Meta {
            pricer: 5,
            relations: Vec::new(),
        };
        store.write_meta(&empty).unwrap();
        assert_eq!(Store::open(&dir).unwrap().2, Some(empty));
        let bound = Meta {
            pricer: 5,
            relations: vec![
                MetaRelation {
                    relation: 1,
                    fingerprint: FP,
                },
                MetaRelation {
                    relation: 3,
                    fingerprint: FP + 9,
                },
            ],
        };
        store.write_meta(&bound).unwrap();
        assert_eq!(Store::open(&dir).unwrap().2, Some(bound));
        assert!(!dir.join("meta.json.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_version_4_meta_is_corrupt() {
        let dir = tmp_dir("meta-corrupt");
        fs::create_dir_all(&dir).unwrap();
        for text in [
            "not json",
            r#"{"version":4,"relations":[]}"#,
            r#"{"version":4,"pricer":1,"relations":[{"relation":1}]}"#,
        ] {
            fs::write(dir.join(META_FILE), text).unwrap();
            assert!(
                matches!(Store::open(&dir), Err(PersistError::Corrupt { .. })),
                "{text}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn error_displays_name_the_path() {
        let e = PersistError::Io {
            path: "/tmp/x".to_string(),
            detail: "denied".to_string(),
        };
        assert!(e.to_string().contains("/tmp/x"));
        let e = PersistError::Corrupt {
            path: "j".to_string(),
            detail: "bad".to_string(),
        };
        assert!(e.to_string().contains("corrupt"));
        let e = PersistError::Mismatch {
            path: "m".to_string(),
            expected: 1,
            found: 2,
        };
        let text = e.to_string();
        assert!(text.contains("fingerprint mismatch"), "{text}");
        assert!(text.contains("0x0000000000000002"), "{text}");
        let e = PersistError::Layout {
            path: "d".to_string(),
            detail: "journal.jsonl".to_string(),
        };
        let text = e.to_string();
        assert!(text.contains("unsupported data dir layout"), "{text}");
        assert!(text.contains("journal.jsonl"), "{text}");
    }
}
