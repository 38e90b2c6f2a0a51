//! Atomic snapshot files.
//!
//! Each snapshot is one JSON document in `snapshot-<seq>.json`, written
//! via temp-file + `fsync` + `rename` so a crash mid-write can never leave
//! a half-written snapshot under the real name. [`load`] picks the newest
//! parseable snapshot and **reports** every newer file it had to skip —
//! a skipped snapshot is evidence of corruption the operator should see,
//! and its on-disk seq must keep counting toward the next seq or a later
//! snapshot would collide with the corpse. [`prune`] keeps the two most
//! recent usable snapshots (the previous survives until its successor is
//! durable) and removes unparseable files outright instead of letting
//! them count toward the two kept.

use std::fs;
use std::path::{Path, PathBuf};

use crate::record::{SnapshotRecord, WarmMemo};
use crate::PersistError;

/// Lists `(seq, path)` for every snapshot file in `dir`, ascending by seq.
fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut found = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| PersistError::io(dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| PersistError::io(dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    found.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(found)
}

/// Writes `snap` atomically into `dir`. Returns the final path. Pruning is
/// a separate step ([`prune`]) so the caller controls the ordering of
/// durability, pruning, and journal compaction.
pub fn write(dir: &Path, snap: &SnapshotRecord) -> Result<PathBuf, PersistError> {
    write_sized(dir, snap, 0, &mut WarmMemo::default()).map(|(path, _)| path)
}

/// [`write`], encoding into a buffer of `capacity` bytes to start with and
/// copying the warm sections `memo` holds unchanged. Also returns the
/// file's length.
pub(crate) fn write_sized(
    dir: &Path,
    snap: &SnapshotRecord,
    capacity: usize,
    memo: &mut WarmMemo,
) -> Result<(PathBuf, usize), PersistError> {
    crate::write_atomic(
        dir,
        &format!("snapshot-{}.json", snap.seq),
        capacity,
        |out| snap.write_json_memo(out, memo),
    )
}

/// What [`load`] found in a data dir.
#[derive(Debug)]
pub struct SnapshotLoad {
    /// The newest parseable snapshot, if any.
    pub newest: Option<SnapshotRecord>,
    /// Files newer than `newest` that could not be read or parsed; they
    /// are surfaced in the recovery report and removed by the next
    /// [`prune`].
    pub skipped: Vec<PathBuf>,
    /// The highest seq present **on disk** (parseable or not). The next
    /// snapshot seq must clear this, or a fresh write could collide with a
    /// corrupt corpse of the same name.
    pub max_seq: Option<u64>,
}

/// Loads the newest parseable snapshot in `dir`, recording every newer
/// file it had to skip. An unparseable newer file is skipped in favor of
/// an older one (the journal still holds that span of history, so an
/// older snapshot only means a longer replay).
pub fn load(dir: &Path) -> Result<SnapshotLoad, PersistError> {
    let mut found = list(dir)?;
    let max_seq = found.last().map(|&(seq, _)| seq);
    found.reverse();
    let mut skipped = Vec::new();
    let mut newest = None;
    for (_, path) in found {
        let parsed = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| SnapshotRecord::parse(text.trim_end()));
        match parsed {
            Ok(snap) => {
                newest = Some(snap);
                break;
            }
            Err(_) => skipped.push(path),
        }
    }
    Ok(SnapshotLoad {
        newest,
        skipped,
        max_seq,
    })
}

/// Removes `known_bad` files (unparseable snapshots recorded at open) and
/// then keeps only the two newest remaining snapshots. Best-effort: a
/// deletion failure leaves a stale file behind, which the next prune will
/// retry.
pub fn prune(dir: &Path, known_bad: &[PathBuf]) {
    for path in known_bad {
        let _ = fs::remove_file(path);
    }
    if let Ok(existing) = list(dir) {
        if existing.len() > 2 {
            for (_, path) in &existing[..existing.len() - 2] {
                let _ = fs::remove_file(path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("va-persist-snapshot-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn snap(seq: u64) -> SnapshotRecord {
        SnapshotRecord {
            seq,
            journal_events: seq * 10,
            coverage: crate::record::SegmentPosition {
                segment: seq,
                bytes: seq * 100,
            },
            next_relation_id: 2,
            relations: vec![crate::record::RelationSnapshot {
                relation: 1,
                def: crate::record::RelationDefRecord {
                    name: "default".to_string(),
                    seed: None,
                    bonds: Vec::new(),
                },
                next_session_id: 3,
                ticks: seq,
                shed: 0,
                sessions: Vec::new(),
                work: vao::cost::WorkBreakdown::default(),
                iterations: 0,
                warm: Vec::new(),
                answers: Vec::new(),
            }],
        }
    }

    #[test]
    fn write_then_load_newest() {
        let dir = tmp_dir("roundtrip");
        let load0 = load(&dir).unwrap();
        assert_eq!(load0.newest, None);
        assert_eq!(load0.max_seq, None);
        write(&dir, &snap(1)).unwrap();
        write(&dir, &snap(2)).unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.newest, Some(snap(2)));
        assert!(loaded.skipped.is_empty());
        assert_eq!(loaded.max_seq, Some(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_only_two_newest_snapshots() {
        let dir = tmp_dir("prune");
        for seq in 1..=5 {
            write(&dir, &snap(seq)).unwrap();
            prune(&dir, &[]);
        }
        let names = list(&dir).unwrap();
        assert_eq!(
            names.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![4, 5]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unparseable_newest_is_skipped_and_reported() {
        let dir = tmp_dir("fallback");
        write(&dir, &snap(1)).unwrap();
        write(&dir, &snap(2)).unwrap();
        let corpse = dir.join("snapshot-3.json");
        fs::write(&corpse, b"{garbage").unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.newest, Some(snap(2)));
        assert_eq!(loaded.skipped, vec![corpse.clone()]);
        // The corpse's seq still counts: a new snapshot must not collide
        // with the file still on disk.
        assert_eq!(loaded.max_seq, Some(3));
        // Pruning removes the corpse instead of counting it toward the
        // two kept.
        prune(&dir, &loaded.skipped);
        let names = list(&dir).unwrap();
        assert_eq!(
            names.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![1, 2]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = tmp_dir("tmpfiles");
        write(&dir, &snap(7)).unwrap();
        fs::write(dir.join("snapshot-8.json.tmp"), b"half").unwrap();
        let loaded = load(&dir).unwrap();
        assert_eq!(loaded.newest, Some(snap(7)));
        assert!(loaded.skipped.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
