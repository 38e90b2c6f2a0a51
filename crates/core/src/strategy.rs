//! Iteration-choice policies for aggregate VAOs.
//!
//! A VAO over a *set* of result objects must repeatedly decide which object
//! to iterate next (§3.2's *iteration strategy*). The paper's operators use
//! a **greedy** strategy — pick the iteration with the highest estimated
//! benefit per CPU cycle — justified by the convergence of iterative
//! solvers: later iterations of one object usually help less than earlier
//! iterations of another. This module also ships deliberately weaker
//! policies (round-robin, random, widest-first) used by the ablation
//! benchmarks to quantify how much the greedy choice matters.

use crate::cost::Work;
use crate::trace::{ChoiceRecord, ExecObserver};

/// A scored iteration choice offered to a policy.
///
/// `benefit` is operator-specific: estimated overlap reduction for MAX
/// (§5.1), weighted error reduction for SUM/AVE (§5.2). `est_cpu` is the
/// object's `estCPU`. `width` is the object's current bounds width, used by
/// fallback and by the widest-first ablation policy.
#[derive(Clone, Copy, Debug)]
pub struct Candidate {
    /// Index of the result object in the operator's input set.
    pub index: usize,
    /// Estimated benefit of iterating this object once.
    pub benefit: f64,
    /// Estimated CPU cost of that iteration.
    pub est_cpu: Work,
    /// Current bounds width of the object.
    pub width: f64,
}

impl Candidate {
    /// Benefit per unit of estimated CPU, the greedy score of §5.
    ///
    /// A zero cost estimate is clamped to one work unit so that essentially
    /// free iterations rank (very) high rather than dividing by zero.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.benefit / (self.est_cpu.max(1) as f64)
    }
}

/// How an aggregate VAO chooses its next iteration.
#[derive(Clone, Debug)]
pub enum ChoicePolicy {
    /// The paper's strategy: maximize estimated benefit per CPU cycle,
    /// falling back to the widest candidate when every estimate is zero
    /// (pessimistic estimates must not stall the operator).
    Greedy,
    /// Ablation: cycle through candidates regardless of scores.
    RoundRobin {
        /// Rotating cursor; advanced on every pick.
        cursor: usize,
    },
    /// Ablation: pick uniformly at random (xorshift; deterministic per seed).
    Random {
        /// Current RNG state.
        state: u64,
    },
    /// Ablation: always iterate the candidate with the widest bounds,
    /// ignoring cost and operator-specific benefit.
    WidestFirst,
}

impl ChoicePolicy {
    /// The paper's greedy policy.
    #[must_use]
    pub fn greedy() -> Self {
        ChoicePolicy::Greedy
    }

    /// Round-robin ablation policy.
    #[must_use]
    pub fn round_robin() -> Self {
        ChoicePolicy::RoundRobin { cursor: 0 }
    }

    /// Seeded random ablation policy.
    #[must_use]
    pub fn random(seed: u64) -> Self {
        ChoicePolicy::Random {
            state: seed.max(1), // xorshift must not start at zero
        }
    }

    /// Widest-first ablation policy.
    #[must_use]
    pub fn widest_first() -> Self {
        ChoicePolicy::WidestFirst
    }

    /// Picks one of `candidates`, returning its position in the slice.
    ///
    /// Returns `None` when the slice is empty. Deterministic for every
    /// policy (Random is seeded).
    pub fn pick(&mut self, candidates: &[Candidate]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            ChoicePolicy::Greedy => {
                let best = max_by_key(candidates, Candidate::score);
                // All-zero scores give no signal; fall back to widest bounds
                // so the operator is guaranteed to make progress.
                if candidates[best].score() <= 0.0 {
                    Some(max_by_key(candidates, |c| c.width))
                } else {
                    Some(best)
                }
            }
            ChoicePolicy::RoundRobin { cursor } => {
                let pick = *cursor % candidates.len();
                *cursor = cursor.wrapping_add(1);
                Some(pick)
            }
            ChoicePolicy::Random { state } => {
                // xorshift64*
                let mut x = *state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                *state = x;
                let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
                Some((r % candidates.len() as u64) as usize)
            }
            ChoicePolicy::WidestFirst => Some(max_by_key(candidates, |c| c.width)),
        }
    }

    /// Picks up to `k` **distinct** candidates, returning their positions
    /// in the slice in selection order (best first).
    ///
    /// This is the batched generalization of [`ChoicePolicy::pick`] used by
    /// schedulers that run several iterations per round: `top_k(c, 1)`
    /// selects exactly the candidate `pick(c)` would, so a batch size of
    /// one reproduces the serial schedule bit-identically.
    ///
    /// Per policy:
    /// * `Greedy` — candidates with positive greedy score, best score
    ///   first (ties to the earlier index); remaining slots filled
    ///   widest-first from the zero-score candidates (the same fallback
    ///   that keeps the serial greedy loop progressing on pessimistic
    ///   estimates).
    /// * `RoundRobin` — the next `k` positions in rotation.
    /// * `Random` — `k` distinct positions drawn from the seeded xorshift
    ///   stream (deterministic per seed).
    /// * `WidestFirst` — the `k` widest candidates.
    pub fn top_k(&mut self, candidates: &[Candidate], k: usize) -> Vec<usize> {
        let k = k.min(candidates.len());
        if k == 0 {
            return Vec::new();
        }
        match self {
            ChoicePolicy::Greedy => {
                // Positive scores first (descending), then zero-score
                // candidates widest-first; index breaks every tie, so the
                // order is strict and total: selecting the `k` best gives
                // the first `k` of a full sort, and `top_k(c, 1) == pick(c)`.
                // Each score is computed once, not once per comparison.
                let keys = candidates.iter().enumerate().map(GreedyKey::of);
                if k == 1 {
                    let best = keys.min_by(GreedyKey::rank);
                    return best.map(|key| key.at).into_iter().collect();
                }
                let mut keyed: Vec<GreedyKey> = keys.collect();
                if k < keyed.len() {
                    keyed.select_nth_unstable_by(k - 1, GreedyKey::rank);
                    keyed.truncate(k);
                }
                keyed.sort_unstable_by(GreedyKey::rank);
                keyed.into_iter().map(|key| key.at).collect()
            }
            ChoicePolicy::RoundRobin { .. }
            | ChoicePolicy::Random { .. }
            | ChoicePolicy::WidestFirst => {
                let mut picks = Vec::with_capacity(k);
                let mut taken = vec![false; candidates.len()];
                while picks.len() < k {
                    let remaining: Vec<Candidate> = candidates
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !taken[*i])
                        .map(|(_, c)| *c)
                        .collect();
                    let positions: Vec<usize> =
                        (0..candidates.len()).filter(|&i| !taken[i]).collect();
                    let p = self
                        .pick(&remaining)
                        .expect("picks.len() < k <= candidates.len() leaves candidates");
                    taken[positions[p]] = true;
                    picks.push(positions[p]);
                }
                picks
            }
        }
    }

    /// Like [`ChoicePolicy::top_k`], reporting one [`ChoiceRecord`] per
    /// selected candidate to `observer`, in selection order.
    pub fn top_k_traced<O: ExecObserver>(
        &mut self,
        candidates: &[Candidate],
        k: usize,
        observer: &mut O,
    ) -> Vec<usize> {
        let picks = self.top_k(candidates, k);
        if observer.is_enabled() {
            for &p in &picks {
                let c = &candidates[p];
                observer.on_choice(&ChoiceRecord {
                    object: c.index,
                    benefit: c.benefit,
                    est_cpu: c.est_cpu,
                    score: c.score(),
                    candidates: candidates.len(),
                });
            }
        }
        picks
    }
}

/// A candidate's place in the greedy order, computed once: its position in
/// the slice, whether its score is positive, and what it ranks by (the
/// score, or the width when the score gives no signal).
#[derive(Clone, Copy)]
struct GreedyKey {
    at: usize,
    positive: bool,
    value: f64,
}

impl GreedyKey {
    fn of((at, c): (usize, &Candidate)) -> Self {
        let score = c.score();
        let positive = score > 0.0;
        Self {
            at,
            positive,
            value: if positive { score } else { c.width },
        }
    }

    /// The greedy order (`Less` ranks first): positive scores before the
    /// rest, larger values first, the earlier position on a tie.
    fn rank(a: &Self, b: &Self) -> std::cmp::Ordering {
        b.positive
            .cmp(&a.positive)
            .then(b.value.total_cmp(&a.value))
            .then(a.at.cmp(&b.at))
    }
}

/// First index maximizing `key` (ties break toward the earliest candidate,
/// keeping every policy deterministic).
fn max_by_key(candidates: &[Candidate], key: impl Fn(&Candidate) -> f64) -> usize {
    let mut best = 0;
    let mut best_key = key(&candidates[0]);
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let k = key(c);
        if k > best_key {
            best = i;
            best_key = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(index: usize, benefit: f64, est_cpu: Work, width: f64) -> Candidate {
        Candidate {
            index,
            benefit,
            est_cpu,
            width,
        }
    }

    #[test]
    fn greedy_prefers_best_benefit_per_cycle() {
        // Table 2 scenario: equal estCPU (4), overlap reductions 1, 2, 3.
        let cands = [
            cand(0, 1.0, 4, 4.0),
            cand(1, 2.0, 4, 8.0),
            cand(2, 3.0, 4, 6.0),
        ];
        let mut p = ChoicePolicy::greedy();
        assert_eq!(p.pick(&cands), Some(2));
    }

    #[test]
    fn greedy_divides_by_cost() {
        // Lower benefit but far cheaper iteration wins.
        let cands = [cand(0, 3.0, 100, 1.0), cand(1, 1.0, 10, 1.0)];
        let mut p = ChoicePolicy::greedy();
        assert_eq!(p.pick(&cands), Some(1));
    }

    #[test]
    fn greedy_zero_cost_is_clamped_not_infinite() {
        let c = cand(0, 2.0, 0, 1.0);
        assert_eq!(c.score(), 2.0);
    }

    #[test]
    fn greedy_falls_back_to_widest_on_zero_benefit() {
        let cands = [
            cand(0, 0.0, 4, 1.0),
            cand(1, 0.0, 4, 9.0),
            cand(2, 0.0, 4, 3.0),
        ];
        let mut p = ChoicePolicy::greedy();
        assert_eq!(p.pick(&cands), Some(1));
    }

    #[test]
    fn greedy_ties_break_to_first() {
        let cands = [cand(0, 2.0, 4, 1.0), cand(1, 2.0, 4, 1.0)];
        let mut p = ChoicePolicy::greedy();
        assert_eq!(p.pick(&cands), Some(0));
    }

    #[test]
    fn empty_candidates_yield_none() {
        for mut p in [
            ChoicePolicy::greedy(),
            ChoicePolicy::round_robin(),
            ChoicePolicy::random(42),
            ChoicePolicy::widest_first(),
        ] {
            assert_eq!(p.pick(&[]), None);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let cands = [
            cand(0, 1.0, 1, 1.0),
            cand(1, 1.0, 1, 1.0),
            cand(2, 1.0, 1, 1.0),
        ];
        let mut p = ChoicePolicy::round_robin();
        let picks: Vec<_> = (0..6).map(|_| p.pick(&cands).unwrap()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let cands = [
            cand(0, 1.0, 1, 1.0),
            cand(1, 1.0, 1, 1.0),
            cand(2, 1.0, 1, 1.0),
        ];
        let mut a = ChoicePolicy::random(7);
        let mut b = ChoicePolicy::random(7);
        for _ in 0..32 {
            let pa = a.pick(&cands).unwrap();
            assert_eq!(Some(pa), b.pick(&cands));
            assert!(pa < cands.len());
        }
    }

    #[test]
    fn random_seed_zero_is_usable() {
        let cands = [cand(0, 1.0, 1, 1.0), cand(1, 1.0, 1, 1.0)];
        let mut p = ChoicePolicy::random(0);
        assert!(p.pick(&cands).is_some());
    }

    #[test]
    fn widest_first_ignores_scores() {
        let cands = [cand(0, 100.0, 1, 1.0), cand(1, 0.0, 1000, 50.0)];
        let mut p = ChoicePolicy::widest_first();
        assert_eq!(p.pick(&cands), Some(1));
    }

    /// The batched scheduler's serial-equivalence hinge: for every policy,
    /// `top_k(c, 1)` is exactly `[pick(c)]` — including greedy's
    /// widest-first fallback when no score is positive.
    #[test]
    fn top_k_of_one_is_pick() {
        let mixes = [
            vec![
                cand(0, 1.0, 4, 4.0),
                cand(1, 2.0, 4, 8.0),
                cand(2, 3.0, 4, 6.0),
            ],
            vec![
                cand(0, 0.0, 4, 1.0),
                cand(1, 0.0, 4, 9.0),
                cand(2, 0.0, 4, 3.0),
            ],
            vec![cand(0, 3.0, 100, 1.0), cand(1, 1.0, 10, 1.0)],
        ];
        for cands in &mixes {
            for make in [
                ChoicePolicy::greedy,
                ChoicePolicy::round_robin,
                ChoicePolicy::widest_first,
                || ChoicePolicy::random(7),
            ] {
                let (mut a, mut b) = (make(), make());
                for _ in 0..4 {
                    // Repeated calls so stateful policies stay in lockstep.
                    assert_eq!(a.top_k(cands, 1), vec![b.pick(cands).unwrap()]);
                }
            }
        }
    }

    #[test]
    fn top_k_is_distinct_ordered_and_clamped() {
        let cands = [
            cand(0, 1.0, 4, 4.0),
            cand(1, 2.0, 4, 8.0),
            cand(2, 3.0, 4, 6.0),
            cand(3, 0.5, 4, 2.0),
        ];
        let mut p = ChoicePolicy::greedy();
        // Best-first order by score; distinct positions.
        assert_eq!(p.top_k(&cands, 3), vec![2, 1, 0]);
        // k past the candidate count clamps; k == 0 selects nothing.
        assert_eq!(p.top_k(&cands, 10), vec![2, 1, 0, 3]);
        assert!(p.top_k(&cands, 0).is_empty());
        assert!(p.top_k(&[], 4).is_empty());
    }

    #[test]
    fn top_k_greedy_ranks_positive_scores_before_fallback_widths() {
        // One positive-score candidate and two zero-benefit ones: the
        // scoring pick leads, then the widest-first fallback order.
        let cands = [
            cand(0, 0.0, 4, 9.0),
            cand(1, 2.0, 4, 1.0),
            cand(2, 0.0, 4, 3.0),
        ];
        let mut p = ChoicePolicy::greedy();
        assert_eq!(p.top_k(&cands, 3), vec![1, 0, 2]);
    }

    #[test]
    fn top_k_round_robin_is_repeated_pick_over_remaining() {
        let cands = [
            cand(0, 1.0, 1, 1.0),
            cand(1, 1.0, 1, 1.0),
            cand(2, 1.0, 1, 1.0),
        ];
        let mut p = ChoicePolicy::round_robin();
        // First pick lands on 0 (cursor 0), the second applies cursor 1 to
        // the remaining pair [1, 2] — selections stay distinct and the
        // cursor keeps advancing across calls.
        assert_eq!(p.top_k(&cands, 2), vec![0, 2]);
        assert_eq!(p.top_k(&cands, 2), vec![2, 1]);
    }
}
