//! Absolute bit pins for the stream engine.
//!
//! `tests/ops_bits.rs` pins what the §5 operators return; this file pins
//! what [`ContinuousQueryEngine`] makes of it. For every [`Query`] kind
//! (plus a weighted SUM), in [`ExecutionMode::Vao`] and
//! [`ExecutionMode::Traditional`], on 8 bonds (seed 42) and 12 bonds
//! (seed 7) at one rate, one row of literal `u64`s holding
//!
//! * an FNV-1a hash of the [`QueryOutput`]'s bits (a shape tag, then ids,
//!   bound bits and tie lists in the order returned),
//! * `iterations`, and
//! * the four `WorkBreakdown` components.
//!
//! The engine may be rebuilt freely; these literals may not change.

use vao_repro::bondlab::{BondPricer, BondUniverse};
use vao_repro::stream::relation::BondRelation;
use vao_repro::stream::{ContinuousQueryEngine, ExecutionMode, Query, QueryOutput};
use vao_repro::vao::ops::selection::CmpOp;
use vao_repro::vao::Bounds;

const RATE: f64 = 0.0583;

fn fnv(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A list in the order the engine returned it: length, then the items.
fn list<T: Copy>(words: &mut Vec<u64>, items: &[T], word: impl Fn(T) -> u64) {
    words.push(items.len() as u64);
    words.extend(items.iter().map(|&i| word(i)));
}

fn bounds(words: &mut Vec<u64>, b: Bounds) {
    words.extend([b.lo().to_bits(), b.hi().to_bits()]);
}

fn output_words(out: &QueryOutput) -> Vec<u64> {
    let mut w = Vec::new();
    match out {
        QueryOutput::Selected(ids) => {
            w.push(0);
            list(&mut w, ids, u64::from);
        }
        QueryOutput::Extreme {
            bond_id,
            bounds: b,
            ties,
        } => {
            w.extend([1, u64::from(*bond_id)]);
            bounds(&mut w, *b);
            list(&mut w, ties, u64::from);
        }
        QueryOutput::Aggregate { bounds: b } => {
            w.push(2);
            bounds(&mut w, *b);
        }
        QueryOutput::Ranked { members, ties } => {
            w.extend([3, members.len() as u64]);
            for (id, b) in members {
                w.push(u64::from(*id));
                bounds(&mut w, *b);
            }
            list(&mut w, ties, u64::from);
        }
        QueryOutput::Count { lo, hi } => w.extend([4, *lo as u64, *hi as u64]),
        QueryOutput::Heavy { cells, ties } => {
            w.extend([5, cells.len() as u64]);
            for c in cells {
                w.extend([c.cell as u64, c.count]);
            }
            list(&mut w, ties, |c| c as u64);
        }
    }
    w
}

/// Every query kind, SUM at unit weights and at a skewed profile.
fn queries(n: usize) -> Vec<(&'static str, Query)> {
    let eps = 0.05;
    vec![
        (
            "selection",
            Query::Selection {
                op: CmpOp::Gt,
                constant: 100.0,
            },
        ),
        (
            "sum",
            Query::Sum {
                weights: vec![1.0; n],
                epsilon: n as f64 * eps,
            },
        ),
        (
            "weighted sum",
            Query::Sum {
                weights: (0..n).map(|i| 1.0 + (i % 5) as f64 * 2.5).collect(),
                epsilon: n as f64 * 0.5,
            },
        ),
        ("ave", Query::Ave { epsilon: eps }),
        ("max", Query::Max { epsilon: eps }),
        ("min", Query::Min { epsilon: eps }),
        ("topk 3", Query::TopK { k: 3, epsilon: eps }),
        (
            "count",
            Query::Count {
                op: CmpOp::Gt,
                constant: 100.0,
                slack: 1,
            },
        ),
        ("median", Query::Median { epsilon: eps }),
        (
            "percentile 0.25",
            Query::Percentile {
                phi: 0.25,
                epsilon: eps,
            },
        ),
        ("heavyhitters 2", Query::HeavyHitters { k: 2, epsilon: 1.0 }),
    ]
}

/// Runs every query in both modes over one universe; `expected` is indexed
/// query-major, Vao before Traditional. Every drifted row is listed in the
/// form the literals are written in.
fn pin_engine(n: usize, seed: u64, expected: &[&[u64]]) {
    let relation = BondRelation::from_universe(&BondUniverse::generate(n, seed));
    let mut expected = expected.iter();
    let mut drift = Vec::new();
    for (name, query) in queries(n) {
        for mode in [ExecutionMode::Vao, ExecutionMode::Traditional] {
            let engine = ContinuousQueryEngine::new(
                BondPricer::default(),
                relation.clone(),
                query.clone(),
                mode,
            );
            let (out, stats) = engine.process_rate(RATE).expect("engine tick");
            let w = stats.work;
            let row = [
                fnv(&output_words(&out)),
                stats.iterations,
                w.exec_iter,
                w.get_state,
                w.store_state,
                w.choose_iter,
            ];
            if row != *expected.next().copied().unwrap_or(&[]) {
                let listing: Vec<String> = row.iter().map(|v| format!("0x{v:x}")).collect();
                drift.push(format!(
                    "    // {name}, {mode:?}\n    &[{}],",
                    listing.join(", ")
                ));
            }
        }
    }
    assert!(
        drift.is_empty(),
        "engine executions drifted; actual rows:\n{}",
        drift.join("\n")
    );
    assert!(expected.next().is_none(), "more pinned rows than cases");
}

#[test]
fn eight_bonds_keep_their_bits() {
    pin_engine(8, 42, EIGHT);
}

#[test]
fn twelve_bonds_keep_their_bits() {
    pin_engine(12, 7, TWELVE);
}

#[rustfmt::skip]
const EIGHT: &[&[u64]] = &[
    // selection, Vao
    &[0x5c17d66f91d52a64, 0x3, 0x610, 0x2, 0x19, 0x0],
    // selection, Traditional
    &[0x5c17d66f91d52a64, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // sum, Vao
    &[0xe12c245d4dd06d92, 0x5e, 0x1cf500, 0x8, 0x6e, 0x2f0],
    // sum, Traditional
    &[0x9041fa599a558067, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // weighted sum, Vao
    &[0xf0ecbf250ac3ae4f, 0x51, 0xa6500, 0x8, 0x61, 0x288],
    // weighted sum, Traditional
    &[0x754e7c559ab65c7b, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // ave, Vao
    &[0x2317de5743187e92, 0x5e, 0x1cf500, 0x8, 0x6e, 0x2f0],
    // ave, Traditional
    &[0x90b9696a9bb36087, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // max, Vao
    &[0xd8be92cc0ed06448, 0x18, 0x43980, 0x6, 0x2a, 0x55],
    // max, Traditional
    &[0xcc6977041a715735, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // min, Vao
    &[0x9be24648e0a3b2cb, 0xe, 0x42800, 0x2, 0x24, 0x13],
    // min, Traditional
    &[0xe6f60e69b9468ef4, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // topk 3, Vao
    &[0xc78e9df30f39a812, 0x2d, 0xc74e0, 0x6, 0x3f, 0x93],
    // topk 3, Traditional
    &[0xfaee20c2cc22802f, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // count, Vao
    &[0xe84cac5930880420, 0x1, 0x580, 0x1, 0x18, 0x2],
    // count, Traditional
    &[0x74773623b774e41, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // median, Vao
    &[0xca52e52d63873125, 0x1a, 0x433d0, 0x6, 0x2c, 0x40],
    // median, Traditional
    &[0xc1c41740ad50050, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // percentile 0.25, Vao
    &[0xa6467651adb52464, 0x1f, 0x63ba0, 0x7, 0x30, 0x75],
    // percentile 0.25, Traditional
    &[0x9282e0b67bc4d1e3, 0x0, 0x1830000, 0x0, 0x0, 0x0],
    // heavyhitters 2, Vao
    &[0xe452f9e6fc442d4a, 0x48, 0x247f00, 0x8, 0x58, 0x1bc],
    // heavyhitters 2, Traditional
    &[0xe452f9e6fc442d4a, 0x0, 0x1830000, 0x0, 0x0, 0x0],
];

#[rustfmt::skip]
const TWELVE: &[&[u64]] = &[
    // selection, Vao
    &[0x1195c166c9924000, 0x7, 0x960, 0x5, 0x26, 0x0],
    // selection, Traditional
    &[0x1195c166c9924000, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // sum, Vao
    &[0xabc9336cf1fd85ac, 0x8c, 0x295f80, 0xc, 0xa4, 0x690],
    // sum, Traditional
    &[0x63cfe79f9c6c0ab7, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // weighted sum, Vao
    &[0xbf466024bac8d632, 0x79, 0xf1380, 0xc, 0x91, 0x5ac],
    // weighted sum, Traditional
    &[0xc649e9cf24fa586b, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // ave, Vao
    &[0xfcd91b1ffbe96d56, 0x8c, 0x295f80, 0xc, 0xa4, 0x690],
    // ave, Traditional
    &[0xc82dbf24b8aa7f5f, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // max, Vao
    &[0x9c97fb9e9962fd34, 0x29, 0xd66a0, 0x8, 0x45, 0xa2],
    // max, Traditional
    &[0x53c95d737a59c91, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // min, Vao
    &[0x57c2146bba952dff, 0x18, 0x4b0b0, 0x4, 0x38, 0x42],
    // min, Traditional
    &[0x774306f605994296, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // topk 3, Vao
    &[0xc36f73b240f1ae0a, 0x2a, 0xc6ea0, 0x8, 0x46, 0x90],
    // topk 3, Traditional
    &[0xef0c76743677e913, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // count, Vao
    &[0x485349d740d3a060, 0x6, 0x8d0, 0x5, 0x25, 0x12],
    // count, Traditional
    &[0x674e10e04bc2ea81, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // median, Vao
    &[0x4b9ab4aa38884fd9, 0x1d, 0x472a0, 0x7, 0x3a, 0x57],
    // median, Traditional
    &[0x39de056e6137c7e0, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // percentile 0.25, Vao
    &[0x9a04a5df5d648c77, 0x18, 0x433c0, 0x7, 0x35, 0x5b],
    // percentile 0.25, Traditional
    &[0x4e9cf70a4edb1a13, 0x0, 0x2040000, 0x0, 0x0, 0x0],
    // heavyhitters 2, Vao
    &[0xa1ee9eda570861c1, 0x6e, 0x26dd80, 0xc, 0x86, 0x432],
    // heavyhitters 2, Traditional
    &[0xa1ee9eda570861c1, 0x0, 0x2040000, 0x0, 0x0, 0x0],
];
