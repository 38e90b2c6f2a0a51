//! Bit-exact identity of answers and queries: two values are the same here
//! exactly when every integer is equal and every `f64` has the same bit
//! pattern. `PartialEq` is the wrong test for anything whose bytes get
//! written out: it holds for `-0.0` and `0.0`, which print as `-0` and `0`.
//!
//! A value is flattened into a word stream — a tag per variant, a length
//! before every list, `to_bits()` for every float — so equal streams mean
//! bit-equal values. A [`BitIndex`] buckets streams by a hash and compares
//! words only on a hash hit, so indexing n values costs time linear in
//! their total size.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

use va_stream::{Query, QueryOutput};
use vao::Bounds;

use crate::answer::Answer;

/// First occurrences by bits: which earlier value, if any, had the same
/// word stream.
#[derive(Debug)]
pub(crate) struct BitIndex {
    /// Random per index, so a client cannot pick queries (SUM weights) whose
    /// streams collide and cost a compare against every earlier one.
    key: u64,
    /// `(words, slot)` of every distinct stream seen, by hash.
    buckets: HashMap<u64, Vec<(Vec<u64>, usize)>>,
    scratch: Vec<u64>,
}

impl Default for BitIndex {
    fn default() -> Self {
        Self {
            key: RandomState::new().hash_one(0u64),
            buckets: HashMap::new(),
            scratch: Vec::new(),
        }
    }
}

impl BitIndex {
    /// The slot recorded for the first value whose stream equals the one
    /// `write` appends, or `next` — then recorded for it — when none did.
    pub(crate) fn slot(&mut self, next: usize, write: impl FnOnce(&mut Vec<u64>)) -> usize {
        self.scratch.clear();
        write(&mut self.scratch);
        let bucket = self
            .buckets
            .entry(hash(self.key, &self.scratch))
            .or_default();
        if let Some(&(_, slot)) = bucket.iter().find(|(words, _)| *words == self.scratch) {
            return slot;
        }
        bucket.push((std::mem::take(&mut self.scratch), next));
        next
    }
}

/// A multiply-xor hash over four interleaved lanes, so a long stream (a
/// 500-id SELECT answer) is not one serial chain of multiplies. It only
/// has to spread streams over buckets: every hit is confirmed word by word.
fn hash(key: u64, words: &[u64]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(31);
    let mut lanes = [key, key ^ 1, key ^ 2, key ^ 3];
    let mut blocks = words.chunks_exact(4);
    for block in &mut blocks {
        for (lane, &w) in lanes.iter_mut().zip(block) {
            *lane = mix(*lane, w);
        }
    }
    for (lane, &w) in lanes.iter_mut().zip(blocks.remainder()) {
        *lane = mix(*lane, w);
    }
    lanes.into_iter().fold(words.len() as u64, mix)
}

fn bounds_words(b: Bounds, w: &mut Vec<u64>) {
    w.extend([b.lo().to_bits(), b.hi().to_bits()]);
}

fn ids_words(ids: &[u32], w: &mut Vec<u64>) {
    w.push(ids.len() as u64);
    w.extend(ids.iter().map(|&id| u64::from(id)));
}

/// Appends `answer`'s word stream.
pub(crate) fn answer_words(answer: &Answer, w: &mut Vec<u64>) {
    match answer {
        Answer::Final(out) => {
            w.push(0);
            output_words(out, w);
        }
        Answer::Partial { bounds } => {
            w.push(1);
            bounds_words(*bounds, w);
        }
    }
}

fn output_words(out: &QueryOutput, w: &mut Vec<u64>) {
    match out {
        QueryOutput::Selected(ids) => {
            w.push(0);
            ids_words(ids, w);
        }
        QueryOutput::Extreme {
            bond_id,
            bounds,
            ties,
        } => {
            w.extend([1, u64::from(*bond_id)]);
            bounds_words(*bounds, w);
            ids_words(ties, w);
        }
        QueryOutput::Aggregate { bounds } => {
            w.push(2);
            bounds_words(*bounds, w);
        }
        QueryOutput::Ranked { members, ties } => {
            w.extend([3, members.len() as u64]);
            for (id, bounds) in members {
                w.push(u64::from(*id));
                bounds_words(*bounds, w);
            }
            ids_words(ties, w);
        }
        QueryOutput::Count { lo, hi } => w.extend([4, *lo as u64, *hi as u64]),
        QueryOutput::Heavy { cells, ties } => {
            w.extend([5, cells.len() as u64]);
            for c in cells {
                w.extend([c.cell as u64, c.count]);
            }
            w.push(ties.len() as u64);
            w.extend(ties.iter().map(|&t| t as u64));
        }
    }
}

/// Appends `query`'s word stream.
pub(crate) fn query_words(query: &Query, w: &mut Vec<u64>) {
    let f = f64::to_bits;
    match query {
        Query::Selection { op, constant } => w.extend([0, *op as u64, f(*constant)]),
        Query::Sum { weights, epsilon } => {
            w.extend([1, f(*epsilon), weights.len() as u64]);
            w.extend(weights.iter().map(|&x| f(x)));
        }
        Query::Ave { epsilon } => w.extend([2, f(*epsilon)]),
        Query::Max { epsilon } => w.extend([3, f(*epsilon)]),
        Query::Min { epsilon } => w.extend([4, f(*epsilon)]),
        Query::TopK { k, epsilon } => w.extend([5, *k as u64, f(*epsilon)]),
        Query::Count {
            op,
            constant,
            slack,
        } => w.extend([6, *op as u64, f(*constant), *slack as u64]),
        Query::Median { epsilon } => w.extend([7, f(*epsilon)]),
        Query::Percentile { phi, epsilon } => w.extend([8, f(*phi), f(*epsilon)]),
        Query::HeavyHitters { k, epsilon } => w.extend([9, *k as u64, f(*epsilon)]),
    }
}
