//! What the store does with bytes the writer at HEAD cannot have written.
//!
//! Two refusals are file-level and happen in [`Store::open`] before it
//! creates, sweeps, truncates or renames anything — a dir holding a
//! single-file `journal.jsonl`, or a `meta.json` that is not
//! `"version":4` — and surface as [`PersistError::Layout`] with the dir
//! left byte-for-byte as it was. The rest are record-level: the parsers
//! return an error naming the field a foreign record lacks, which the
//! journal scan turns into `Corrupt` (or a torn tail) and the snapshot
//! loader into a skipped-and-reported file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use va_persist::record::{JournalEvent, SnapshotRecord};
use va_persist::{PersistError, Store};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("va-persist-foreign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("list dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(entry.path()).expect("read file"))
        })
        .collect()
}

const UNSUBSCRIBE: &str = "{\"ev\":\"unsubscribe\",\"relation\":1,\"session\":4}\n";

#[test]
fn foreign_files_are_refused_before_the_dir_is_touched() {
    // (tag, files, what the Layout error must name). The stale tmp file
    // and the torn journal tail are what an accepted open would sweep and
    // truncate: they must survive the refusal.
    let torn = format!("{UNSUBSCRIBE}{{\"ev\":\"unsub");
    let cases = [
        (
            "journal-only",
            vec![("journal.jsonl", UNSUBSCRIBE)],
            "journal.jsonl",
        ),
        (
            "journal-beside-segments",
            vec![
                ("journal.jsonl", UNSUBSCRIBE),
                ("journal-1.jsonl", &torn),
                (
                    "meta.json",
                    "{\"version\":4,\"pricer\":5,\"relations\":[]}\n",
                ),
                ("snapshot-3.json.tmp", "{half"),
            ],
            "journal.jsonl",
        ),
        (
            "meta-v1",
            vec![
                ("meta.json", "{\"fingerprint\":18369614221190020847}\n"),
                ("journal-1.jsonl", &torn),
                ("meta.json.tmp", "{half"),
            ],
            "meta.json",
        ),
        (
            "meta-v3",
            vec![(
                "meta.json",
                "{\"version\":3,\"pricer\":5,\"relations\":[]}\n",
            )],
            "meta.json",
        ),
        (
            "meta-v5",
            vec![(
                "meta.json",
                "{\"version\":5,\"pricer\":5,\"relations\":[]}\n",
            )],
            "meta.json",
        ),
    ];
    for (tag, files, named) in cases {
        let dir = scratch(tag);
        for (name, bytes) in &files {
            std::fs::write(dir.join(name), bytes).expect("write fixture");
        }
        let before = contents(&dir);
        match Store::open(&dir) {
            Err(PersistError::Layout { path, .. }) => {
                assert!(path.ends_with(named), "{tag}: {path}")
            }
            other => panic!("{tag}: expected Layout, got {other:?}"),
        }
        assert_eq!(
            contents(&dir),
            before,
            "{tag}: the refused open changed the dir"
        );
        std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}

#[test]
fn foreign_records_fail_naming_the_missing_field() {
    let section = r#""next_session_id":1,"ticks":0,"shed":0,"sessions":[],"work":{"exec":0,"get":0,"store":0,"choose":0},"iterations":0,"warm":[],"answers":[]"#;
    let def = r#""def":{"name":"default","bonds":[]}"#;
    let snapshots = [
        (
            "no relations (a flat pre-catalog document)",
            format!(r#"{{"seq":1,"journal_events":7,"segment":1,"segment_bytes":0,{section}}}"#),
            "next_relation_id",
        ),
        (
            "no coverage",
            format!(
                r#"{{"seq":1,"journal_events":7,"next_relation_id":2,"relations":[{{"relation":1,{def},{section}}}]}}"#
            ),
            "\"segment\"",
        ),
        (
            "half a coverage",
            format!(
                r#"{{"seq":1,"journal_events":7,"segment":2,"next_relation_id":2,"relations":[{{"relation":1,{def},{section}}}]}}"#
            ),
            "segment_bytes",
        ),
        (
            "a relation section without its definition",
            format!(
                r#"{{"seq":1,"journal_events":7,"segment":1,"segment_bytes":0,"next_relation_id":2,"relations":[{{"relation":1,{section}}}]}}"#
            ),
            "\"def\"",
        ),
    ];
    for (what, text, field) in &snapshots {
        let err = SnapshotRecord::parse(text).expect_err(what);
        assert!(err.contains(field), "{what}: {err}");
    }

    let stats = r#"{"work":{"exec":0,"get":0,"store":0,"choose":0},"iterations":0}"#;
    let events = [
        r#"{"ev":"subscribe","session":4,"priority":2,"query":{"kind":"max","epsilon":0.5}}"#
            .to_string(),
        r#"{"ev":"unsubscribe","session":4}"#.to_string(),
        format!(
            r#"{{"ev":"tick","tick":1,"rate":0.05,"shed":0,"budget_exhausted":false,"stats":{stats},"sessions":[],"answers":[],"warm":[]}}"#
        ),
    ];
    for line in &events {
        let err = JournalEvent::parse(line).expect_err(line);
        assert!(err.contains("\"relation\""), "{line}: {err}");
    }
    // The same events with the field present are what the writer emits.
    for line in &events {
        let modern = line.replacen("{\"ev\"", "{\"relation\":1,\"ev\"", 1);
        assert!(JournalEvent::parse(&modern).is_ok(), "{modern}");
    }
}

#[test]
fn a_foreign_record_is_corrupt_mid_journal_and_skipped_as_a_snapshot() {
    let dir = scratch("records");
    let foreign = "{\"ev\":\"unsubscribe\",\"session\":4}\n";
    std::fs::write(
        dir.join("journal-1.jsonl"),
        format!("{UNSUBSCRIBE}{foreign}{UNSUBSCRIBE}"),
    )
    .expect("write journal");
    match Store::open(&dir) {
        Err(PersistError::Corrupt { detail, .. }) => {
            assert!(
                detail.contains("event 1") && detail.contains("\"relation\""),
                "{detail}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // As the final line it is indistinguishable from a torn append.
    std::fs::write(
        dir.join("journal-1.jsonl"),
        format!("{UNSUBSCRIBE}{foreign}"),
    )
    .expect("write journal");
    let (_, recovery, _) = Store::open(&dir).expect("torn tail opens");
    assert_eq!(recovery.replayed_events(), 1);
    assert_eq!(recovery.truncated_bytes, foreign.len() as u64);
    // A pre-catalog snapshot is skipped and reported, never half-read.
    std::fs::write(
        dir.join("snapshot-1.json"),
        r#"{"seq":1,"journal_events":1,"next_session_id":3,"ticks":2,"shed":0,"sessions":[],"history":[],"warm":[],"answers":[]}"#,
    )
    .expect("write snapshot");
    let (_, recovery, _) = Store::open(&dir).expect("open past the foreign snapshot");
    assert_eq!(recovery.snapshot_seq(), None);
    assert_eq!(recovery.skipped_snapshot_count(), 1);
    assert_eq!(
        recovery.replayed_events(),
        1,
        "the journal still carries the history"
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
