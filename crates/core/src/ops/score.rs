//! §5's scoring, written once: what an operator reads, and the pure
//! functions that turn it into benefits, contests and stopping tests.
//!
//! Scoring never mutates and reads five facts per object — how many there
//! are, their bounds, their estimated next bounds, whether they converged,
//! and what their next iteration is estimated to cost.
//! [`View`] is that read-only surface. A slice of result objects is a view
//! (the operators score over `&[R]`), and so is any columnar store
//! that keeps the same facts flat (`va-server`'s shared pool), so both
//! score through the functions here and in the operator modules
//! ([`selection`](super::selection), [`count`](super::count),
//! [`percentile`](super::percentile), [`heavy`](super::heavy)) instead of
//! each writing the formulas down. [`Flipped`] reflects a view about zero:
//! MIN and the order statistics' inner phase are MAX over it.
//!
//! The one float sum that decides when a query stops — SUM's interval — is
//! also a function over the view,
//! [`sum::weighted_endpoints`](super::sum::weighted_endpoints): summation
//! order is part of an answer's bits, so the operators and a store that
//! schedules SUM add it the same way, in index order.

use std::cmp::Ordering;

use crate::bounds::Bounds;
use crate::cost::Work;
use crate::interface::ResultObject;
use crate::ops::drive::{push, Demand};

/// The facts scoring reads, per object index in `0..len()`.
pub trait View {
    /// Number of objects.
    fn len(&self) -> usize;

    /// Whether there are no objects.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current bounds of object `i`.
    fn bounds(&self, i: usize) -> Bounds;

    /// Estimated bounds of object `i` after its next iteration.
    fn est_bounds(&self, i: usize) -> Bounds;

    /// Whether object `i` has reached its stopping condition.
    fn converged(&self, i: usize) -> bool;

    /// Estimated cost of object `i`'s next iteration (`estCPU`), which the
    /// round loop ranks and admits by.
    fn est_cpu(&self, i: usize) -> Work;
}

impl<R: ResultObject> View for [R] {
    fn len(&self) -> usize {
        <[R]>::len(self)
    }

    fn bounds(&self, i: usize) -> Bounds {
        self[i].bounds()
    }

    fn est_bounds(&self, i: usize) -> Bounds {
        self[i].est_bounds()
    }

    fn converged(&self, i: usize) -> bool {
        self[i].converged()
    }

    fn est_cpu(&self, i: usize) -> Work {
        self[i].est_cpu()
    }
}

/// A view reflected about zero: `[L, H]` reads as `[−H, −L]`, exactly as
/// [`Negated`](crate::adapters::Negated) presents one object. The rank
/// family over a flipped view is MIN over the plain one, tie-breaks
/// included.
#[derive(Debug)]
pub struct Flipped<'a, V: ?Sized>(pub &'a V);

impl<V: View + ?Sized> View for Flipped<'_, V> {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn bounds(&self, i: usize) -> Bounds {
        self.0.bounds(i).negate()
    }

    fn est_bounds(&self, i: usize) -> Bounds {
        self.0.est_bounds(i).negate()
    }

    fn converged(&self, i: usize) -> bool {
        self.0.converged(i)
    }

    fn est_cpu(&self, i: usize) -> Work {
        self.0.est_cpu(i)
    }
}

/// The estimated two-sided shrink of bounds `b` from one more iteration
/// predicted to leave `eb`, `(estL − L) + (H − estH)` — the paper's
/// error-reduction term and the factor every per-object benefit is built
/// on. Each side is clamped so a wayward estimate cannot produce negative
/// benefit. (Reflecting both intervals about zero swaps the two terms, so
/// the shrink reads the same through a [`Flipped`] view.)
#[must_use]
pub fn est_shrink(b: Bounds, eb: Bounds) -> f64 {
    (eb.lo() - b.lo()).max(0.0) + (b.hi() - eb.hi()).max(0.0)
}

/// Descending total order on `f64` keys.
///
/// [`Bounds`] rejects non-finite endpoints at construction, so bound
/// comparisons only ever see finite values — but ordering through
/// `f64::total_cmp` instead of `partial_cmp(..).expect(..)` means that even
/// a future pricer bug that smuggles a NaN through produces a deterministic
/// (if arbitrary) order instead of aborting a server mid-tick. Every order
/// on bound endpoints in scoring goes through this or [`cmp_asc`].
#[must_use]
pub fn cmp_desc(a: f64, b: f64) -> Ordering {
    b.total_cmp(&a)
}

/// Ascending total order on `f64` keys (see [`cmp_desc`]).
#[must_use]
pub fn cmp_asc(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

/// The rank order of the member guess of MAX, Top-K and the order
/// statistics' outer phase (§5.1): highest upper bound first, ties to the
/// higher lower bound. `Less` ranks first.
#[must_use]
pub fn by_hi_then_lo(a: Bounds, b: Bounds) -> Ordering {
    cmp_desc(a.hi(), b.hi()).then(cmp_desc(a.lo(), b.lo()))
}

/// Every object in [`by_hi_then_lo`] order, exact ties by index (a stable
/// sort). Each object's bounds are read once, not once per comparison:
/// behind an adapter (`WarmStarted`, `Negated`) a read is a computation.
#[must_use]
pub fn ranked<V: View + ?Sized>(v: &V) -> Vec<usize> {
    let mut keyed: Vec<(usize, Bounds)> = (0..v.len()).map(|i| (i, v.bounds(i))).collect();
    keyed.sort_by(|a, b| by_hi_then_lo(a.1, b.1));
    keyed.into_iter().map(|(i, _)| i).collect()
}

/// The **boundary holder** of a member set: the member with the lowest
/// lower bound θ, the first such in the order given.
///
/// # Panics
///
/// Panics if `members` is empty (`k ≥ 1` is the callers' precondition).
#[must_use]
pub fn boundary_holder<V: View + ?Sized>(v: &V, members: &[usize]) -> usize {
    *members
        .iter()
        .min_by(|&&a, &&b| cmp_asc(v.bounds(a).lo(), v.bounds(b).lo()))
        .expect("k >= 1")
}

/// Whether object `i`'s upper bound still reaches the boundary `theta` —
/// it could yet displace a member.
#[must_use]
pub fn reaches<V: View + ?Sized>(v: &V, i: usize, theta: f64) -> bool {
    v.bounds(i).hi() >= theta
}

/// The objects of `pool` outside `members` that still reach `holder`'s
/// lower bound, in `pool`'s order.
pub fn straddlers<'a, V: View + ?Sized>(
    v: &'a V,
    pool: impl IntoIterator<Item = usize> + 'a,
    members: &'a [usize],
    holder: usize,
) -> impl Iterator<Item = usize> + 'a {
    let theta = v.bounds(holder).lo();
    pool.into_iter()
        .filter(move |i| !members.contains(i) && reaches(v, *i, theta))
}

/// The presumed member set and what still contests it: the `k` first
/// objects in [`ranked`] order — MAX's guess `o'_max` at `k = 1`, Top-K's
/// member set, the order statistics' outer phase — their
/// [`boundary_holder`], and the outsiders still reaching its θ, in index
/// order. `k` must be in `1..=v.len()`.
#[must_use]
pub fn contest_top<V: View + ?Sized>(v: &V, k: usize) -> (Vec<usize>, usize, Vec<usize>) {
    let mut members = ranked(v);
    members.truncate(k);
    let holder = boundary_holder(v, &members);
    let unresolved = straddlers(v, 0..v.len(), &members, holder).collect();
    (members, holder, unresolved)
}

/// Whether a separation is over. Stopping case 1: nobody reaches θ. Case 2:
/// those who do, and the holder, are as accurate as they get (ties).
#[must_use]
pub fn separated<V: View + ?Sized>(v: &V, holder: usize, unresolved: &[usize]) -> bool {
    unresolved.is_empty() || (v.converged(holder) && unresolved.iter().all(|&i| v.converged(i)))
}

/// Scores one candidate iteration per non-converged object in contention,
/// the holder first and then `unresolved` in order, as `emit(object,
/// benefit)`.
///
/// For an outsider `o_i`, only lowering `o_i.H` toward `estH` reduces its
/// overlap with the boundary, and the reduction is capped by the current
/// overlap `o_i.H − θ` (§5.1's worked example). For the boundary holder,
/// raising `L` toward `estL` reduces its overlap with *every* unresolved
/// outsider simultaneously; that benefit sums over `unresolved` in the
/// order given.
pub fn score_separation<V: View + ?Sized>(
    v: &V,
    holder: usize,
    unresolved: &[usize],
    mut emit: impl FnMut(usize, f64),
) {
    let theta = v.bounds(holder).lo();
    if !v.converged(holder) {
        let est_raise = (v.est_bounds(holder).lo() - theta).max(0.0);
        let benefit: f64 = unresolved
            .iter()
            .map(|&j| (v.bounds(j).hi() - theta).max(0.0).min(est_raise))
            .sum();
        emit(holder, benefit);
    }
    for &i in unresolved {
        if v.converged(i) {
            continue;
        }
        let hi = v.bounds(i).hi();
        let overlap = (hi - theta).max(0.0);
        let est_drop = (hi - v.est_bounds(i).hi()).max(0.0);
        emit(i, overlap.min(est_drop));
    }
}

/// ε-refinement of an identified object: demanded while wider than ε and
/// not converged, at its estimated two-sided shrink (widths and shrinks
/// read the same through a [`Flipped`] view).
pub fn refine_to_epsilon<V: View + ?Sized>(v: &V, i: usize, epsilon: f64, out: &mut Vec<Demand>) {
    let b = v.bounds(i);
    if b.width() > epsilon && !v.converged(i) {
        out.push(Demand {
            object: i,
            benefit: est_shrink(b, v.est_bounds(i)),
        });
    }
}

/// The rank family's demand: MAX (`k = 1`), MIN (`k = 1` over a
/// [`Flipped`] view) and TOP-K are one separation and refinement over
/// [`contest_top`].
pub fn demands_rank<V: View + ?Sized>(v: &V, k: usize, epsilon: f64, out: &mut Vec<Demand>) {
    if k == 0 {
        return; // rejected up front; guarded for direct callers
    }
    let (members, holder, unresolved) = contest_top(v, k);
    rank_phases(v, &members, holder, &unresolved, epsilon, out);
}

/// The rank family's two phases over an already-derived member guess, θ
/// holder and straddler set: separate, then refine every member to ε.
pub fn rank_phases<V: View + ?Sized>(
    v: &V,
    members: &[usize],
    holder: usize,
    unresolved: &[usize],
    epsilon: f64,
    out: &mut Vec<Demand>,
) {
    if separated(v, holder, unresolved) {
        for &m in members {
            refine_to_epsilon(v, m, epsilon, out);
        }
    } else {
        score_separation(v, holder, unresolved, push(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    #[test]
    fn exact_ties_on_the_upper_bound_go_to_the_higher_lower_bound_then_the_index() {
        let objs = [
            ScriptedObject::converging(&[(90.0, 120.0)], 1, 0.01),
            ScriptedObject::converging(&[(92.0, 120.0)], 1, 0.01),
            ScriptedObject::converging(&[(92.0, 120.0)], 1, 0.01),
        ];
        assert_eq!(ranked(&objs[..]), vec![1, 2, 0]);
        let (members, holder, unresolved) = contest_top(&objs[..], 2);
        assert_eq!((members, holder, unresolved), (vec![1, 2], 1, vec![0]));
    }

    #[test]
    fn a_flipped_view_reads_what_negated_objects_report() {
        use crate::adapters::Negated;
        let make = || {
            vec![
                ScriptedObject::converging(&[(90.0, 120.0), (95.0, 101.0)], 1, 0.01),
                ScriptedObject::converging(&[(-3.0, 0.0), (-2.0, -1.0)], 1, 0.01),
            ]
        };
        let (objs, mut twins) = (make(), make());
        let negated: Vec<Negated<&mut ScriptedObject>> = twins.iter_mut().map(Negated).collect();
        let flipped = Flipped(&objs[..]);
        for i in 0..objs.len() {
            assert_eq!(flipped.bounds(i), negated[..].bounds(i));
            assert_eq!(flipped.est_bounds(i), negated[..].est_bounds(i));
        }
    }
}
