//! The append-only, **segmented** write-ahead journal.
//!
//! One [`JournalEvent`] per line, appended, flushed and `fdatasync`'d
//! before the corresponding in-memory state change is considered
//! committed. The journal is split into numbered segments
//! (`journal-<n>.jsonl`, `n ≥ 1`): appends always go to the
//! highest-numbered (*active*) segment, and the segment is rotated every
//! time a snapshot becomes durable, so each snapshot's coverage ends at a
//! segment boundary in the common case. Segments a retained snapshot no
//! longer needs are deleted by [`Journal::compact`], which is what keeps
//! recovery I/O and disk bounded by O(events-since-snapshot) instead of
//! O(all-history).
//!
//! On open, only the *uncovered* part of the journal is read: the newest
//! snapshot's [`SegmentPosition`] says where replay starts, and every
//! segment strictly below it is never even opened. A **torn final
//! record** in the active segment — a trailing chunk with no newline, or
//! an unparseable *last* line (the classic power-cut shapes) — is
//! truncated away and reported, while corruption anywhere earlier is a
//! hard [`PersistError::Corrupt`]: the storage lied about previously
//! fsync'd data, and silently skipping records would change replayed
//! history.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::record::{JournalEvent, SegmentPosition};
use crate::PersistError;

/// File name of journal segment `n`.
#[must_use]
pub fn segment_file(n: u64) -> String {
    format!("journal-{n}.jsonl")
}

/// Parses a segment number out of a `journal-<n>.jsonl` file name.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("journal-")?
        .strip_suffix(".jsonl")?
        .parse()
        .ok()
}

/// Lists `segment -> path` for every journal segment in `dir`.
fn list_segments(dir: &Path) -> Result<BTreeMap<u64, PathBuf>, PersistError> {
    let mut found = BTreeMap::new();
    let entries = fs::read_dir(dir).map_err(|e| PersistError::io(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io(dir, &e))?;
        let name = entry.file_name();
        let Some(n) = name.to_str().and_then(parse_segment_name) else {
            continue;
        };
        found.insert(n, entry.path());
    }
    Ok(found)
}

/// Best-effort directory fsync, making renames/creates durable where the
/// platform allows opening directories.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Where recovery starts reading the journal, taken from the newest
/// usable snapshot: replay starts `position.bytes` into
/// `position.segment`, and segments below it are never opened.
#[derive(Clone, Copy, Debug)]
pub struct Coverage {
    /// End of the covered prefix.
    pub position: SegmentPosition,
    /// Total events covered since genesis.
    pub events: u64,
}

/// The most encode-buffer capacity a journal keeps between appends.
const RETAINED_BUF_BYTES: usize = 1 << 20;

/// An open journal, positioned for appending to the active segment.
pub struct Journal {
    dir: PathBuf,
    file: File,
    path: PathBuf,
    segment: u64,
    segment_bytes: u64,
    events: u64,
    /// The encode buffer every append reuses: a group of records is
    /// encoded here, then written with one `write` and one `fdatasync`.
    buf: String,
    /// Set when a failed append could not be rolled back: the durable file
    /// may hold bytes past `segment_bytes`, so further appends would land
    /// mid-garbage and turn a transient I/O error into permanent
    /// corruption. A poisoned journal refuses all appends; reopening
    /// re-derives clean accounting from disk.
    poisoned: bool,
    #[cfg(test)]
    fail_sync_after_write: u32,
    #[cfg(test)]
    fail_rollback: bool,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("segment", &self.segment)
            .field("segment_bytes", &self.segment_bytes)
            .field("events", &self.events)
            .finish()
    }
}

/// What [`Journal::open`] read back from disk.
#[derive(Debug)]
pub struct JournalLoad {
    /// Every intact event **after the coverage point**, in append order.
    pub events: Vec<JournalEvent>,
    /// Bytes of torn final record that were truncated away (0 on a clean
    /// file).
    pub truncated_bytes: u64,
}

/// What [`Journal::compact`] reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Fully-covered segments deleted.
    pub segments_deleted: u64,
    /// Bytes those segments held.
    pub bytes_reclaimed: u64,
    /// Segments remaining on disk afterwards.
    pub live_segments: u64,
}

impl Journal {
    /// Opens (creating if absent) the segmented journal in `dir`, reading
    /// back every intact event past `coverage` and truncating a torn final
    /// record in the active segment.
    ///
    /// Validation: the covered segment must exist and be at least
    /// `coverage.bytes` long, segments from the coverage point to the
    /// newest must be contiguous, and — when no positional coverage
    /// exists — the journal must still start at segment 1 (anything else
    /// means compacted history is gone with no snapshot to stand in for
    /// it). A torn record anywhere but the active segment is a hard error:
    /// rotation only happens after the previous segment ended on a clean
    /// fsync'd line.
    pub fn open(
        dir: &Path,
        coverage: Option<&Coverage>,
    ) -> Result<(Journal, JournalLoad), PersistError> {
        let mut segments = list_segments(dir)?;

        if segments.is_empty() {
            if let Some(c) = coverage.filter(|c| c.events > 0) {
                return Err(PersistError::corrupt(
                    &dir.join(segment_file(1)),
                    format!(
                        "snapshot covers {} journal events but no journal segments exist",
                        c.events
                    ),
                ));
            }
            // A fresh dir: start segment 1 and open it like any other.
            let path = dir.join(segment_file(1));
            File::create(&path).map_err(|e| PersistError::io(&path, &e))?;
            sync_dir(dir);
            segments.insert(1, path);
        }

        let first = *segments.keys().next().expect("non-empty");
        let last = *segments.keys().next_back().expect("non-empty");

        let (read_from, skip_bytes, base_events) = match coverage {
            Some(Coverage { position, events }) => {
                if !segments.contains_key(&position.segment) {
                    return Err(PersistError::corrupt(
                        &dir.join(segment_file(position.segment)),
                        format!(
                            "snapshot coverage ends in segment {} but that segment is missing",
                            position.segment
                        ),
                    ));
                }
                (position.segment, position.bytes, *events)
            }
            None => {
                if first > 1 {
                    return Err(PersistError::corrupt(
                        &dir.join(segment_file(first)),
                        format!(
                            "journal history before segment {first} was compacted away \
                             but no snapshot with segment coverage exists to replace it"
                        ),
                    ));
                }
                (first, 0, 0)
            }
        };

        for n in read_from..=last {
            if !segments.contains_key(&n) {
                return Err(PersistError::corrupt(
                    &dir.join(segment_file(n)),
                    format!("journal segment {n} is missing (segments {read_from}..={last} must be contiguous)"),
                ));
            }
        }

        let mut events = Vec::new();
        let mut truncated_bytes = 0u64;
        for n in read_from..=last {
            let path = &segments[&n];
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .map_err(|e| PersistError::io(path, &e))?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)
                .map_err(|e| PersistError::io(path, &e))?;
            let skip = if n == read_from { skip_bytes } else { 0 };
            if skip > bytes.len() as u64 {
                return Err(PersistError::corrupt(
                    path,
                    format!(
                        "snapshot covers {skip} bytes of segment {n} but only {} exist",
                        bytes.len()
                    ),
                ));
            }
            let (parsed, good_len) = scan(&bytes[skip as usize..], path, skip)?;
            let torn = bytes.len() as u64 - skip - good_len;
            if torn > 0 {
                if n != last {
                    return Err(PersistError::corrupt(
                        path,
                        format!(
                            "torn record in non-final segment {n}: rotation only follows \
                             a clean fsync'd line"
                        ),
                    ));
                }
                file.set_len(skip + good_len)
                    .and_then(|()| file.sync_data())
                    .map_err(|e| PersistError::io(path, &e))?;
                truncated_bytes = torn;
            }
            events.extend(parsed);
        }

        let total_events = base_events + events.len() as u64;

        let path = segments[&last].clone();
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, &e))?;
        let segment_bytes = fs::metadata(&path)
            .map_err(|e| PersistError::io(&path, &e))?
            .len();
        let journal = Journal {
            dir: dir.to_path_buf(),
            file,
            path,
            segment: last,
            segment_bytes,
            events: total_events,
            buf: String::new(),
            poisoned: false,
            #[cfg(test)]
            fail_sync_after_write: 0,
            #[cfg(test)]
            fail_rollback: false,
        };
        Ok((
            journal,
            JournalLoad {
                events,
                truncated_bytes,
            },
        ))
    }

    /// Appends one event and makes it durable (`write` + `fdatasync`)
    /// before returning: [`Journal::append_all`] of one event.
    pub fn append(&mut self, event: &JournalEvent) -> Result<(), PersistError> {
        self.append_all(std::slice::from_ref(event))
    }

    /// Appends `events` as one **group**: every record is encoded into the
    /// journal's reused buffer, one line each, and the buffer is made
    /// durable with one `write` and one `fdatasync`. The bytes are the ones
    /// appending the events one by one would write, and recovery reads
    /// them back one record at a time; a crash mid-group leaves the whole
    /// records before the tear.
    ///
    /// On failure the whole group is rolled back: the file is truncated
    /// to the last committed byte and the in-memory event/byte accounting
    /// is left untouched, so [`Journal::position`] keeps matching the
    /// durable bytes and a later snapshot cannot record coverage that ends
    /// inside a half-written record. If the rollback itself fails, the
    /// journal is **poisoned** — every further append fails fast — because
    /// appending after an unremoved partial write would interleave a new
    /// record into the middle of garbage and upgrade a transient I/O error
    /// into hard corruption on the next recovery. Reopening the journal
    /// recovers: `open` truncates the torn tail and rebuilds accounting
    /// from disk.
    pub fn append_all(&mut self, events: &[JournalEvent]) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::io(
                &self.path,
                &std::io::Error::other(
                    "journal is poisoned by an earlier failed append whose rollback \
                     also failed; reopen the journal to recover",
                ),
            ));
        }
        if events.is_empty() {
            return Ok(());
        }
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        for event in events {
            event
                .write_line(&mut buf)
                .expect("writing to a String cannot fail");
            buf.push('\n');
        }
        let written = self.write_durable(buf.as_bytes());
        let len = buf.len() as u64;
        // Keep the buffer for the next append unless one outsized record
        // (a relation definition carrying every bond) grew it.
        if buf.capacity() <= RETAINED_BUF_BYTES {
            self.buf = buf;
        }
        match written {
            Ok(()) => {
                self.segment_bytes += len;
                self.events += events.len() as u64;
                Ok(())
            }
            Err(e) => {
                #[allow(unused_mut)]
                let mut rolled = self
                    .file
                    .set_len(self.segment_bytes)
                    .and_then(|()| self.file.sync_data());
                #[cfg(test)]
                if self.fail_rollback {
                    rolled = Err(std::io::Error::other("injected rollback failure"));
                }
                if rolled.is_err() {
                    self.poisoned = true;
                }
                Err(PersistError::io(&self.path, &e))
            }
        }
    }

    /// Whether a failed append rollback has poisoned the journal (see
    /// [`Journal::append_all`]).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// One durable write: all bytes, then `fdatasync`. The `#[cfg(test)]`
    /// hook fails *after* the bytes hit the file but before the sync —
    /// the exact shape of a mid-append I/O error the rollback must undo.
    fn write_durable(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)?;
        #[cfg(test)]
        if self.fail_sync_after_write > 0 {
            self.fail_sync_after_write -= 1;
            return Err(std::io::Error::other("injected sync failure"));
        }
        self.file.sync_data()
    }

    /// Starts a fresh segment; subsequent appends go there. Called after a
    /// snapshot becomes durable so that coverage ends exactly at the old
    /// segment's end and the old segment becomes eligible for compaction.
    pub fn rotate(&mut self) -> Result<(), PersistError> {
        let next = self.segment + 1;
        let path = self.dir.join(segment_file(next));
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| PersistError::io(&path, &e))?;
        sync_dir(&self.dir);
        self.file = file;
        self.path = path;
        self.segment = next;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Deletes every segment fully covered by `oldest_needed` — the
    /// coverage position of the **oldest retained** snapshot, so the
    /// fallback snapshot's replay window always survives on disk. The
    /// active segment is never deleted. Deletion is best-effort and
    /// proceeds in ascending segment order, so a crash mid-compaction
    /// leaves a contiguous suffix (an already-valid journal, just with
    /// some garbage still awaiting the next pass).
    pub fn compact(&mut self, oldest_needed: SegmentPosition) -> CompactionReport {
        let mut report = CompactionReport::default();
        if let Ok(segments) = list_segments(&self.dir) {
            for (n, path) in &segments {
                if *n == self.segment {
                    continue;
                }
                let len = fs::metadata(path).map_or(0, |m| m.len());
                let fully_covered = *n < oldest_needed.segment
                    || (*n == oldest_needed.segment && len <= oldest_needed.bytes);
                if fully_covered && fs::remove_file(path).is_ok() {
                    report.segments_deleted += 1;
                    report.bytes_reclaimed += len;
                }
            }
        }
        sync_dir(&self.dir);
        report.live_segments = list_segments(&self.dir).map_or(1, |s| s.len() as u64);
        report
    }

    /// Total intact events since genesis (covered + loaded + appended).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Where the journal currently ends: the active segment and its byte
    /// length. A snapshot taken now covers exactly this position.
    #[must_use]
    pub fn position(&self) -> SegmentPosition {
        SegmentPosition {
            segment: self.segment,
            bytes: self.segment_bytes,
        }
    }

    /// Number of journal segments currently on disk.
    #[must_use]
    pub fn live_segments(&self) -> u64 {
        list_segments(&self.dir).map_or(1, |s| s.len() as u64)
    }

    /// The active segment's file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Scans journal bytes into events, returning the byte length of the
/// intact prefix. Only the *final* record may be torn; anything earlier
/// that fails to parse is corruption. `base` is the byte offset the slice
/// starts at within its file, used only for error messages.
fn scan(bytes: &[u8], path: &Path, base: u64) -> Result<(Vec<JournalEvent>, u64), PersistError> {
    let mut events = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // Trailing bytes with no newline: the append was cut mid-line.
            return Ok((events, offset as u64));
        };
        let line_bytes = &rest[..nl];
        let end = offset + nl + 1;
        let parsed = std::str::from_utf8(line_bytes)
            .map_err(|e| e.to_string())
            .and_then(JournalEvent::parse);
        match parsed {
            Ok(ev) => events.push(ev),
            Err(detail) if end == bytes.len() => {
                // Unparseable final line (e.g. the tail of the file was
                // zero-filled by the filesystem after a crash): torn.
                let _ = detail;
                return Ok((events, offset as u64));
            }
            Err(detail) => {
                return Err(PersistError::corrupt(
                    path,
                    format!(
                        "journal event {} at byte {}: {detail}",
                        events.len(),
                        base + offset as u64
                    ),
                ));
            }
        }
        offset = end;
    }
    Ok((events, offset as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JournalEvent;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("va-persist-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(session: u64) -> JournalEvent {
        JournalEvent::Unsubscribe {
            relation: 1,
            session,
        }
    }

    fn open_fresh(dir: &Path) -> (Journal, JournalLoad) {
        Journal::open(dir, None).unwrap()
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let dir = tmp_dir("replay");
        {
            let (mut j, load) = open_fresh(&dir);
            assert!(load.events.is_empty());
            assert_eq!(load.truncated_bytes, 0);
            for s in 1..=5 {
                j.append(&ev(s)).unwrap();
            }
            assert_eq!(j.events(), 5);
        }
        let (j, load) = open_fresh(&dir);
        assert_eq!(load.events, (1..=5).map(ev).collect::<Vec<_>>());
        assert_eq!(load.truncated_bytes, 0);
        assert_eq!(j.events(), 5);
        assert_eq!(j.position().segment, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_truncated_and_reported() {
        let dir = tmp_dir("torn");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.append(&ev(2)).unwrap();
        }
        let path = dir.join(segment_file(1));
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"ev\":\"unsub"); // no newline
        fs::write(&path, &bytes).unwrap();

        let (mut j, load) = open_fresh(&dir);
        assert_eq!(load.events.len(), 2);
        assert_eq!(load.truncated_bytes, 12);
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len, "truncated");
        // The journal is appendable again after truncation.
        j.append(&ev(3)).unwrap();
        drop(j);
        let (_, load) = open_fresh(&dir);
        assert_eq!(load.events.len(), 3);
        assert_eq!(load.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unparseable_final_complete_line_counts_as_torn() {
        let dir = tmp_dir("torn-complete");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
        }
        let path = dir.join(segment_file(1));
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"\0\0\0\0\n"); // zero-filled tail + newline
        fs::write(&path, &bytes).unwrap();
        let (_, load) = open_fresh(&dir);
        assert_eq!(load.events.len(), 1);
        assert_eq!(load.truncated_bytes, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = tmp_dir("corrupt");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.append(&ev(2)).unwrap();
        }
        let path = dir.join(segment_file(1));
        let text = fs::read_to_string(&path).unwrap();
        let broken = text.replacen("unsubscribe", "uNsUbScRiBe", 1);
        fs::write(&path, broken).unwrap();
        match Journal::open(&dir, None) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("event 0"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_moves_appends_to_the_next_segment() {
        let dir = tmp_dir("rotate");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            let end_of_seg1 = j.position();
            j.rotate().unwrap();
            assert_eq!(
                j.position(),
                SegmentPosition {
                    segment: 2,
                    bytes: 0
                }
            );
            j.append(&ev(2)).unwrap();
            assert_eq!(j.events(), 2);
            // The old segment is untouched by the rotation.
            assert_eq!(
                fs::metadata(dir.join(segment_file(1))).unwrap().len(),
                end_of_seg1.bytes
            );
        }
        // Reopen with no coverage: both segments are read in order.
        let (j, load) = open_fresh(&dir);
        assert_eq!(load.events, vec![ev(1), ev(2)]);
        assert_eq!(j.position().segment, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn positional_coverage_skips_covered_segments_entirely() {
        let dir = tmp_dir("coverage");
        let cover;
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.rotate().unwrap();
            j.append(&ev(2)).unwrap();
            cover = j.position();
            j.rotate().unwrap();
            j.append(&ev(3)).unwrap();
        }
        // Corrupt a segment strictly below the coverage point: recovery
        // must never even open it.
        fs::write(dir.join(segment_file(1)), b"\0garbage\0").unwrap();
        let coverage = Coverage {
            position: cover,
            events: 2,
        };
        let (j, load) = Journal::open(&dir, Some(&coverage)).unwrap();
        assert_eq!(load.events, vec![ev(3)]);
        assert_eq!(j.events(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_coverage_of_a_segment_reads_only_the_tail_bytes() {
        let dir = tmp_dir("partial");
        let cover;
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            cover = j.position();
            // No rotation: the snapshot's segment keeps growing (the
            // crash-before-rotation shape).
            j.append(&ev(2)).unwrap();
        }
        let coverage = Coverage {
            position: cover,
            events: 1,
        };
        let (j, load) = Journal::open(&dir, Some(&coverage)).unwrap();
        assert_eq!(load.events, vec![ev(2)]);
        assert_eq!(j.events(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_deletes_fully_covered_segments_only() {
        let dir = tmp_dir("compact");
        let (mut j, _) = open_fresh(&dir);
        j.append(&ev(1)).unwrap();
        j.rotate().unwrap();
        j.append(&ev(2)).unwrap();
        let cover = j.position(); // end of segment 2
        j.rotate().unwrap();
        j.append(&ev(3)).unwrap();
        let report = j.compact(cover);
        assert_eq!(report.segments_deleted, 2);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(report.live_segments, 1);
        assert!(!dir.join(segment_file(1)).exists());
        assert!(!dir.join(segment_file(2)).exists());
        assert!(dir.join(segment_file(3)).exists());
        // A second pass has nothing left to do.
        assert_eq!(j.compact(cover).segments_deleted, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_never_deletes_the_active_segment() {
        let dir = tmp_dir("compact-active");
        let (mut j, _) = open_fresh(&dir);
        j.append(&ev(1)).unwrap();
        let cover = j.position(); // covers all of segment 1 = active
        let report = j.compact(cover);
        assert_eq!(report.segments_deleted, 0);
        assert!(dir.join(segment_file(1)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_middle_segment_is_corrupt() {
        let dir = tmp_dir("gap");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.rotate().unwrap();
            j.append(&ev(2)).unwrap();
            j.rotate().unwrap();
            j.append(&ev(3)).unwrap();
        }
        fs::remove_file(dir.join(segment_file(2))).unwrap();
        match Journal::open(&dir, None) {
            Err(PersistError::Corrupt { detail, .. }) => {
                assert!(detail.contains("contiguous"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compacted_history_without_positional_coverage_is_corrupt() {
        let dir = tmp_dir("orphan");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.rotate().unwrap();
            j.append(&ev(2)).unwrap();
        }
        fs::remove_file(dir.join(segment_file(1))).unwrap();
        // Without a snapshot that says where segment 2 starts, the
        // missing prefix is unexplained history.
        assert!(matches!(
            Journal::open(&dir, None),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_rolls_back_bytes_and_accounting() {
        let dir = tmp_dir("append-fail");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            let committed = j.position();
            let committed_events = j.events();

            // Inject: the next append writes its bytes, then the sync fails.
            j.fail_sync_after_write = 1;
            assert!(j.append(&ev(2)).is_err());

            // Accounting did not advance, and the durable file was rolled
            // back to exactly the committed length — no half-record remains
            // for a later append to land behind.
            assert_eq!(j.position(), committed);
            assert_eq!(j.events(), committed_events);
            assert_eq!(
                fs::metadata(dir.join(segment_file(1))).unwrap().len(),
                committed.bytes
            );
            assert!(!j.is_poisoned());

            // The journal keeps working; the retried append lands cleanly.
            j.append(&ev(3)).unwrap();
            assert_eq!(j.events(), 2);
            assert_eq!(
                fs::metadata(dir.join(segment_file(1))).unwrap().len(),
                j.position().bytes
            );
        }
        // Reopen: only the committed events exist, nothing torn.
        let (_, load) = open_fresh(&dir);
        assert_eq!(load.events, vec![ev(1), ev(3)]);
        assert_eq!(load.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rollback_poisons_the_journal() {
        let dir = tmp_dir("append-poison");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.fail_sync_after_write = 1;
            j.fail_rollback = true;
            assert!(j.append(&ev(2)).is_err());
            assert!(j.is_poisoned());
            // Accounting still did not advance past the committed state...
            assert_eq!(j.events(), 1);
            // ...and every further append fails fast, even with injections
            // cleared: the file may hold bytes past the accounting.
            j.fail_rollback = false;
            let err = j.append(&ev(3)).unwrap_err();
            assert!(format!("{err}").contains("poisoned"), "{err}");
            assert_eq!(j.events(), 1);
        }
        // Reopen recovers: accounting is re-derived from disk (truncating
        // any torn tail), and the journal is appendable again.
        let (mut j, _) = open_fresh(&dir);
        assert!(!j.is_poisoned());
        j.append(&ev(4)).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_group_is_one_write_of_the_bytes_single_appends_write() {
        let dir = tmp_dir("group");
        let single = dir.join("single");
        let grouped = dir.join("grouped");
        fs::create_dir_all(&single).unwrap();
        fs::create_dir_all(&grouped).unwrap();
        {
            let (mut j, _) = open_fresh(&single);
            for s in 1..=4 {
                j.append(&ev(s)).unwrap();
            }
            let (mut g, _) = open_fresh(&grouped);
            g.append(&ev(1)).unwrap();
            g.append_all(&[ev(2), ev(3), ev(4)]).unwrap();
            g.append_all(&[]).unwrap();
            assert_eq!(g.events(), 4);
            assert_eq!(g.position(), j.position());
        }
        assert_eq!(
            fs::read(single.join(segment_file(1))).unwrap(),
            fs::read(grouped.join(segment_file(1))).unwrap()
        );
        let (_, load) = open_fresh(&grouped);
        assert_eq!(load.events, (1..=4).map(ev).collect::<Vec<_>>());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_group_sync_leaves_no_byte_of_the_group() {
        let dir = tmp_dir("group-fail");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            let committed = j.position();
            let committed_events = j.events();
            let committed_bytes = fs::read(dir.join(segment_file(1))).unwrap();

            // All three records reach the file, then the one sync fails.
            j.fail_sync_after_write = 1;
            assert!(j.append_all(&[ev(2), ev(3), ev(4)]).is_err());

            assert_eq!(j.position(), committed);
            assert_eq!(j.events(), committed_events);
            assert_eq!(
                fs::read(dir.join(segment_file(1))).unwrap(),
                committed_bytes,
                "no byte of the failed group may remain"
            );
            assert!(!j.is_poisoned());

            // The next group appends cleanly behind the committed bytes.
            j.append_all(&[ev(5), ev(6)]).unwrap();
            assert_eq!(j.events(), committed_events + 2);
            assert_eq!(
                fs::metadata(dir.join(segment_file(1))).unwrap().len(),
                j.position().bytes
            );
        }
        let (_, load) = open_fresh(&dir);
        assert_eq!(load.events, vec![ev(1), ev(5), ev(6)]);
        assert_eq!(load.truncated_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_group_rollback_poisons_the_journal() {
        let dir = tmp_dir("group-poison");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.fail_sync_after_write = 1;
            j.fail_rollback = true;
            assert!(j.append_all(&[ev(2), ev(3), ev(4)]).is_err());
            assert!(j.is_poisoned());
            assert_eq!(j.events(), 1);
            // The next group is refused, injections cleared or not.
            j.fail_rollback = false;
            let err = j.append_all(&[ev(5), ev(6)]).unwrap_err();
            assert!(format!("{err}").contains("poisoned"), "{err}");
            assert_eq!(j.events(), 1);
        }
        // Reopening re-derives accounting from disk and appends again.
        let (mut j, _) = open_fresh(&dir);
        assert!(!j.is_poisoned());
        j.append_all(&[ev(7), ev(8)]).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_record_in_a_non_final_segment_is_corrupt() {
        let dir = tmp_dir("torn-mid");
        {
            let (mut j, _) = open_fresh(&dir);
            j.append(&ev(1)).unwrap();
            j.rotate().unwrap();
            j.append(&ev(2)).unwrap();
        }
        let seg1 = dir.join(segment_file(1));
        let mut bytes = fs::read(&seg1).unwrap();
        bytes.extend_from_slice(b"{\"ev\":"); // no newline, but not the last segment
        fs::write(&seg1, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&dir, None),
            Err(PersistError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
