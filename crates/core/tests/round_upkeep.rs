//! The per-round shortcuts of the choice and of PERCENTILE's rank band,
//! each against the computation it replaced, kept here as the oracle:
//!
//! * greedy `top_k` selects; the oracle sorts every candidate with the
//!   score computed inside the comparator;
//! * [`BucketKeys`] reads the band from kept bucket keys; the oracle fills
//!   the sketch from every object and asks it.

use proptest::prelude::*;

use va_sketch::IntervalQuantileSketch;
use vao::bounds::Bounds;
use vao::cost::Work;
use vao::ops::percentile::{fill_sketch, rank_band, BucketKeys, SKETCH_ALPHA, SKETCH_BUDGET};
use vao::ops::score::{ranked, Flipped, View};
use vao::strategy::{Candidate, ChoicePolicy};

/// The greedy order as a full sort, the score recomputed per comparison.
fn sorted_top_k(candidates: &[Candidate], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by(|&a, &b| {
        let (ca, cb) = (&candidates[a], &candidates[b]);
        let (sa, sb) = (ca.score(), cb.score());
        match (sa > 0.0, sb > 0.0) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (true, true) => sb.total_cmp(&sa).then(a.cmp(&b)),
            (false, false) => cb.width.total_cmp(&ca.width).then(a.cmp(&b)),
        }
    });
    order.truncate(k);
    order
}

/// Few distinct values, so that scores and widths tie often: negative,
/// both zeros, and positive benefits; `estCPU` 0 and 1 score alike.
const BENEFITS: [f64; 8] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0];
const EST_CPUS: [Work; 5] = [0, 1, 2, 4, 8];
const WIDTHS: [f64; 4] = [0.0, 1.0, 2.0, 2.0];

fn candidates() -> impl Strategy<Value = Vec<Candidate>> {
    prop::collection::vec(
        (0usize..8, 0usize..5, 0usize..4, 0.0f64..1.0, 0usize..4),
        0..=24,
    )
    .prop_map(|picks| {
        picks
            .into_iter()
            .enumerate()
            .map(|(index, (b, e, w, free, which))| Candidate {
                index,
                // One draw in four leaves the small sets for an untied value.
                benefit: if which == 0 { free * 4.0 } else { BENEFITS[b] },
                est_cpu: EST_CPUS[e],
                width: if which == 1 { free * 2.0 } else { WIDTHS[w] },
            })
            .collect()
    })
}

/// Bounds the tests set freely, standing in for a pool.
struct Boxes(Vec<Bounds>);

impl View for Boxes {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn bounds(&self, i: usize) -> Bounds {
        self.0[i]
    }

    fn est_bounds(&self, i: usize) -> Bounds {
        self.0[i]
    }

    fn converged(&self, _: usize) -> bool {
        false
    }

    fn est_cpu(&self, _: usize) -> Work {
        1
    }
}

/// An endpoint drawn to land on and beside the sketch's bucket boundaries:
/// `±γ^j` and one ulp either side, both zeros, or a free value.
fn endpoint((kind, j, neg, free): (usize, i32, bool, f64)) -> f64 {
    let gamma = (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA);
    let edge = gamma.powi(j);
    let v = match kind {
        0 => edge,
        1 => edge.next_up(),
        2 => edge.next_down(),
        3 => 0.0,
        4 => -0.0,
        _ => free,
    };
    if neg {
        -v
    } else {
        v
    }
}

fn endpoints() -> impl Strategy<Value = (usize, i32, bool, f64)> {
    (0usize..7, 219i32..240, 0u8..2, 80.0f64..120.0)
        .prop_map(|(kind, j, neg, free)| (kind, j, neg == 1, free))
}

fn boxes(n: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Bounds>> {
    prop::collection::vec(
        (endpoints(), endpoints()).prop_map(|(a, b)| {
            Bounds::ordered(endpoint(a), endpoint(b)).expect("finite endpoints")
        }),
        n,
    )
}

/// Every rank's band from the kept keys equals the filled sketch's, bits
/// included.
fn assert_bands_match(v: &Boxes, keys: &BucketKeys) -> Result<(), TestCaseError> {
    let mut sketch = IntervalQuantileSketch::new(SKETCH_ALPHA, SKETCH_BUDGET);
    fill_sketch(&mut sketch, v);
    let (desc, asc) = (ranked(v), ranked(&Flipped(v)));
    for k in 1..=v.len() {
        let (lo, hi) = keys.rank_band(v, &asc, &desc, k);
        let (want_lo, want_hi) = rank_band(&sketch, k);
        prop_assert_eq!(
            (lo.to_bits(), hi.to_bits()),
            (want_lo.to_bits(), want_hi.to_bits()),
            "rank {} of {}: kept [{}, {}], filled [{}, {}]",
            k,
            v.len(),
            lo,
            hi,
            want_lo,
            want_hi
        );
    }
    Ok(())
}

/// Builds the keys over `start`, checks every band, then moves the objects
/// `moved` to the bounds in `next`, repairs only those, and checks again.
fn check_band(start: Vec<Bounds>, next: &[Bounds], moved: &[usize]) -> Result<(), TestCaseError> {
    let mut v = Boxes(start);
    let mut keys = BucketKeys::new(&v).expect("at most the budget");
    assert_bands_match(&v, &keys)?;
    let mut changed: Vec<usize> = moved.iter().map(|&m| m % v.len()).collect();
    changed.sort_unstable();
    changed.dedup();
    for (&i, &b) in changed.iter().zip(next.iter().cycle()) {
        v.0[i] = b;
    }
    keys.repair(&v, &changed);
    assert_bands_match(&v, &keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn greedy_top_k_is_the_full_sort_cut_to_k(cands in candidates()) {
        let mut greedy = ChoicePolicy::greedy();
        for k in 1..=cands.len() + 1 {
            prop_assert_eq!(greedy.top_k(&cands, k), sorted_top_k(&cands, k), "k = {}", k);
        }
        if !cands.is_empty() {
            prop_assert_eq!(greedy.top_k(&cands, 1), vec![greedy.pick(&cands).unwrap()]);
        }
    }

    #[test]
    fn kept_bucket_bands_equal_the_filled_sketch(
        start in boxes(1..=SKETCH_BUDGET),
        next in boxes(1..=8),
        moved in prop::collection::vec(0usize..SKETCH_BUDGET, 1..=8),
    ) {
        check_band(start, &next, &moved)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kept_bucket_bands_hold_at_exactly_the_budget(
        start in boxes(SKETCH_BUDGET..=SKETCH_BUDGET),
        next in boxes(1..=8),
        moved in prop::collection::vec(0usize..SKETCH_BUDGET, 1..=8),
    ) {
        check_band(start, &next, &moved)?;
    }
}

#[test]
fn a_view_past_the_budget_keeps_no_keys() {
    let v = Boxes(
        (0..=SKETCH_BUDGET)
            .map(|i| Bounds::new(i as f64, i as f64 + 1.0))
            .collect(),
    );
    assert!(BucketKeys::new(&v).is_none());
    let v = Boxes(v.0[..SKETCH_BUDGET].to_vec());
    assert!(BucketKeys::new(&v).is_some());
}
