//! Property test for the store's warm-section memo: across any random
//! sequence of snapshots over one to three relations, in which warm
//! sections are kept, moved by one ulp, flip `converged`, turn `0.0` into
//! `-0.0` (equal under `==`, spelled differently), grow by a record, go
//! away, or go with their dropped relation, every snapshot file the store
//! writes is `to_json()` and a newline, byte for byte, and the memo holds
//! exactly the sections of the snapshot just written.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use va_persist::record::{
    JournalEvent, RelationDefRecord, RelationSnapshot, SnapshotRecord, WarmObjectRecord,
    WarmRateRecord,
};
use va_persist::Store;
use vao::cost::WorkBreakdown;
use vao::Bounds;

/// A fresh scratch directory, unique per proptest case.
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("va-persist-memo-{}-{n}", std::process::id()))
}

/// The rates a section can sit at: `0.0` and `-0.0` are two keys.
const RATES: [f64; 4] = [0.0, -0.0, 0.05, 0.0583];

/// One relation's warm sections, by rate bits.
type Sections = BTreeMap<u64, Vec<WarmObjectRecord>>;

/// A record drawn from `seed`: half of them with a lower bound of `0.0`,
/// so the sign case has zeros to turn.
fn object(seed: u64) -> WarmObjectRecord {
    let lo = if seed & 1 == 0 {
        0.0
    } else {
        (seed % 997) as f64 / 7.0
    };
    WarmObjectRecord {
        bounds: Bounds::new(lo, lo + (seed % 13) as f64 + 0.5),
        converged: seed & 2 == 0,
    }
}

fn sections(seed: u64) -> Sections {
    (0..1 + seed % 3)
        .map(|i| {
            let rate = RATES[((seed >> (2 * i)) % 4) as usize];
            let objects = (0..1 + (seed >> 8) % 4)
                .map(|j| object(seed.rotate_left(j as u32 * 7) ^ j))
                .collect();
            (rate.to_bits(), objects)
        })
        .collect()
}

/// One record of one section of `warm`, chosen by `seed`.
fn pick(warm: &mut Sections, seed: u64) -> Option<&mut WarmObjectRecord> {
    let rates: Vec<u64> = warm.keys().copied().collect();
    let rate = rates.get((seed >> 8) as usize % rates.len().max(1))?;
    let objects = warm.get_mut(rate)?;
    let i = (seed >> 16) as usize % objects.len();
    Some(&mut objects[i])
}

/// Applies step `op` of the script, choosing what it touches by `seed`.
fn apply(relations: &mut BTreeMap<u64, Sections>, next_id: &mut u64, op: u8, seed: u64) {
    let ids: Vec<u64> = relations.keys().copied().collect();
    let id = ids[seed as usize % ids.len()];
    let warm = relations.get_mut(&id).expect("a live relation");
    match op {
        // Keep every section as it is.
        0 => {}
        // One ulp up on one upper bound.
        1 => {
            if let Some(r) = pick(warm, seed) {
                let hi = f64::from_bits(r.bounds.hi().to_bits() + 1);
                r.bounds = Bounds::new(r.bounds.lo(), hi);
            }
        }
        2 => {
            if let Some(r) = pick(warm, seed) {
                r.converged = !r.converged;
            }
        }
        // `0.0` to `-0.0` and back; a nonzero lower bound goes to `0.0`.
        3 => {
            if let Some(r) = pick(warm, seed) {
                let lo = if r.bounds.lo().to_bits() == 0.0f64.to_bits() {
                    -0.0
                } else {
                    0.0
                };
                r.bounds = Bounds::new(lo, r.bounds.hi());
            }
        }
        // An added bond: one section grows by a record.
        4 => {
            let rates: Vec<u64> = warm.keys().copied().collect();
            if let Some(rate) = rates.get((seed >> 8) as usize % rates.len().max(1)) {
                warm.get_mut(rate)
                    .expect("a listed rate")
                    .push(object(seed));
            }
        }
        // A section goes away, or a new one arrives.
        5 => {
            let rate = RATES[(seed >> 8) as usize % RATES.len()].to_bits();
            if warm.remove(&rate).is_none() {
                warm.insert(rate, vec![object(seed), object(seed >> 1)]);
            }
        }
        // A relation is dropped with its sections, or one is created.
        _ => {
            if relations.len() > 1 {
                relations.remove(&id);
            } else {
                relations.insert(*next_id, sections(seed));
                *next_id += 1;
            }
        }
    }
}

fn snapshot_of(store: &Store, relations: &BTreeMap<u64, Sections>, next_id: u64) -> SnapshotRecord {
    SnapshotRecord {
        seq: store.next_snapshot_seq(),
        journal_events: store.journal_events(),
        coverage: store.journal_position(),
        next_relation_id: next_id,
        relations: relations
            .iter()
            .map(|(&relation, warm)| RelationSnapshot {
                relation,
                def: RelationDefRecord {
                    name: format!("r{relation}"),
                    seed: None,
                    bonds: Vec::new(),
                },
                next_session_id: 1,
                ticks: 0,
                shed: 0,
                sessions: Vec::new(),
                work: WorkBreakdown::default(),
                iterations: 0,
                warm: warm
                    .iter()
                    .map(|(&bits, objects)| WarmRateRecord {
                        rate: f64::from_bits(bits),
                        objects: objects.clone(),
                    })
                    .collect(),
                answers: Vec::new(),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_snapshot_is_to_json_and_the_memo_holds_only_its_sections(
        (count, first) in (1u64..4, any::<u64>()),
        steps in prop::collection::vec((0u8..7, any::<u64>()), 1..16),
    ) {
        let dir = scratch();
        let _ = std::fs::remove_dir_all(&dir);
        let (mut store, _, _) = Store::open(&dir).expect("fresh open");
        prop_assert_eq!(store.warm_memo().keys().count(), 0);
        let mut relations: BTreeMap<u64, Sections> = (1..=count)
            .map(|id| (id, sections(first.rotate_left(id as u32 * 11))))
            .collect();
        let mut next_id = count + 1;
        for (step, &(op, seed)) in steps.iter().enumerate() {
            if step > 0 {
                apply(&mut relations, &mut next_id, op, seed);
            }
            let marker = JournalEvent::SnapshotMarker { seq: store.next_snapshot_seq() };
            store.append(&marker).expect("append marker");
            let snap = snapshot_of(&store, &relations, next_id);
            store.write_snapshot(&snap).expect("snapshot");
            let written = std::fs::read_to_string(dir.join(format!("snapshot-{}.json", snap.seq)))
                .expect("read snapshot");
            prop_assert_eq!(written, format!("{}\n", snap.to_json()), "step {} (op {})", step, op);
            let keys: Vec<(u64, u64)> = relations
                .iter()
                .flat_map(|(&id, warm)| warm.keys().map(move |&bits| (id, bits)))
                .collect();
            prop_assert_eq!(store.warm_memo().keys().collect::<Vec<_>>(), keys);
        }
        drop(store);
        let (store, _, _) = Store::open(&dir).expect("reopen");
        prop_assert_eq!(store.warm_memo().keys().count(), 0, "the memo is never persisted");
        std::fs::remove_dir_all(&dir).ok();
    }
}
