//! Property test for the segmented journal: across any random
//! `(snapshot_every, event-count)` schedule of appends, snapshots and the
//! compactions they trigger, a crash (plain drop) followed by a reopen
//! never loses a journaled event — snapshot coverage plus the replayed
//! tail always reconstructs the full appended history, byte-exact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use va_persist::record::{JournalEvent, SnapshotRecord};
use va_persist::Store;

/// A fresh scratch directory, unique per proptest case.
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-persist-proptest-{}-{n}", std::process::id()))
}

/// A minimal valid snapshot covering the store's current journal state —
/// the same seq/coverage bookkeeping the server performs.
fn snapshot_now(store: &Store) -> SnapshotRecord {
    SnapshotRecord {
        seq: store.next_snapshot_seq(),
        journal_events: store.journal_events(),
        coverage: store.journal_position(),
        next_relation_id: 2,
        relations: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn no_schedule_of_snapshots_and_compactions_loses_a_journaled_event(
        snapshot_every in 1u64..10,
        events in 0u64..60,
    ) {
        let dir = scratch();
        let _ = std::fs::remove_dir_all(&dir);

        let mut appended = Vec::new();
        {
            let (mut store, recovery, _) = Store::open(&dir).expect("fresh open");
            prop_assert!(recovery.is_fresh());
            let mut since_snapshot = 0u64;
            for session in 1..=events {
                let ev = JournalEvent::Unsubscribe { relation: 1, session };
                store.append(&ev).expect("append");
                appended.push(ev);
                since_snapshot += 1;
                if since_snapshot >= snapshot_every {
                    let marker = JournalEvent::SnapshotMarker {
                        seq: store.next_snapshot_seq(),
                    };
                    store.append(&marker).expect("append marker");
                    appended.push(marker);
                    store
                        .write_snapshot(&snapshot_now(&store))
                        .expect("snapshot");
                    since_snapshot = 0;
                }
            }
        } // crash: plain drop, no shutdown snapshot

        let (_store, recovery, _) = Store::open(&dir).expect("reopen");
        prop_assert_eq!(recovery.truncated_bytes, 0);
        let covered = recovery.snapshot.as_ref().map_or(0, |s| s.journal_events);
        prop_assert_eq!(
            covered + recovery.replayed_events(),
            appended.len() as u64,
            "coverage {} + tail {} must account for all {} appended events",
            covered,
            recovery.replayed_events(),
            appended.len()
        );
        // The tail is exactly the post-coverage suffix of the appended
        // history: nothing lost, nothing duplicated, order preserved.
        prop_assert_eq!(&recovery.tail[..], &appended[covered as usize..]);

        std::fs::remove_dir_all(&dir).ok();
    }
}
