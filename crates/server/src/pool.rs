//! The shared result-object pool.
//!
//! The paper's motivating scenario (§1.2) has many traders' queries priced
//! off the *same* bond relation at the *same* tick — yet a per-query engine
//! re-invokes the pricing model once per query per bond. The pool keys one
//! [`ResultObject`] per bond per tick: the model is invoked exactly once,
//! every registered query reads the same monotonically shrinking bounds,
//! and each object ends up iterated only as far as the *tightest* demand
//! any live query places on it.

use bondlab::BondPricer;
use va_numerics::pde::TrioColumns;
use va_stream::BondRelation;
use vao::adapters::{WarmStart, WarmStarted};
use vao::batch::GridShape;
use vao::cost::{Work, WorkMeter};
use vao::interface::ResultObject;
use vao::ops::score::View;
use vao::Bounds;

/// One tick's worth of shared result objects, aligned with the relation.
///
/// Objects are `Send` (the interface guarantees it) so the batched
/// scheduler can hand disjoint objects to worker threads via
/// [`SharedPool::with_disjoint_mut`].
///
/// **Flat view.** Everything the demand functions and the scheduler read
/// per object per round — `bounds`, `est_bounds`, `converged`, `est_cpu` —
/// is mirrored into plain columns: filled when the pool is built and
/// refreshed only for objects that were iterated. The accessors read the
/// columns, so a scheduling round never makes a virtual call (or re-derives
/// a Richardson prediction) for an object that did not change. The two
/// mutation paths, [`SharedPool::iterate`] and
/// [`SharedPool::with_disjoint_mut`], refresh on the way out; no other
/// method hands out `&mut` access to an object, so the view cannot go stale.
pub struct SharedPool {
    objects: Vec<Box<dyn ResultObject + Send>>,
    rate: f64,
    bounds: Vec<Bounds>,
    est_bounds: Vec<Bounds>,
    converged: Vec<bool>,
    est_cpu: Vec<Work>,
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool")
            .field("rate", &self.rate)
            .field("objects", &self.objects.len())
            .finish()
    }
}

impl SharedPool {
    /// Invokes the pricer once per bond at `rate`, charging the shared
    /// meter. This is the work a per-query engine would repeat K times.
    /// The whole relation is priced in one [`BondPricer::price_many`], so
    /// the coarse trios run as lanes. [`SharedPool::invoke_with`] with
    /// neither seeds nor held columns.
    #[must_use]
    pub fn invoke(
        pricer: &BondPricer,
        relation: &BondRelation,
        rate: f64,
        meter: &mut WorkMeter,
    ) -> Self {
        Self::invoke_with(pricer, relation, rate, None, None, meter)
    }

    /// Like [`SharedPool::invoke`], but wraps every freshly invoked object
    /// in a [`WarmStarted`] adapter seeded from `warm` — the recovered
    /// per-object state a durable server journaled the last time it priced
    /// this rate. Invocation charges the meter exactly as a cold invoke
    /// does; the savings come later, when the scheduler skips objects whose
    /// seed already satisfies the stopping condition.
    ///
    /// `warm` must be aligned with the relation (one entry per bond);
    /// mismatched lengths fall back to a cold invoke, since a stale seed
    /// set (e.g. after the universe changed) must never corrupt answers.
    /// [`SharedPool::invoke_with`] with no held columns.
    #[must_use]
    pub fn invoke_warm(
        pricer: &BondPricer,
        relation: &BondRelation,
        rate: f64,
        warm: &[WarmStart],
        meter: &mut WorkMeter,
    ) -> Self {
        Self::invoke_with(pricer, relation, rate, Some(warm), None, meter)
    }

    /// The one invocation path: [`SharedPool::invoke_warm`] when `warm` is
    /// given (and aligned), else [`SharedPool::invoke`], pricing through
    /// `columns` ([`BondPricer::price_many_with`], by bond position). A
    /// server tick passes its relation's column store: the trio columns it
    /// holds are committed instead of solved, and the ones solved are lent
    /// back. The pool and every meter charge are the same bits with or
    /// without columns.
    #[must_use]
    pub fn invoke_with(
        pricer: &BondPricer,
        relation: &BondRelation,
        rate: f64,
        warm: Option<&[WarmStart]>,
        columns: Option<&mut dyn TrioColumns>,
        meter: &mut WorkMeter,
    ) -> Self {
        let objects = pricer
            .price_many_with(relation.bonds(), rate, columns, meter)
            .into_iter();
        let objects = match warm.filter(|w| w.len() == relation.bonds().len()) {
            Some(warm) => objects
                .zip(warm)
                .map(|(obj, &seed)| {
                    Box::new(WarmStarted::new(obj, seed)) as Box<dyn ResultObject + Send>
                })
                .collect(),
            None => objects
                .map(|obj| Box::new(obj) as Box<dyn ResultObject + Send>)
                .collect(),
        };
        Self::from_objects(objects, rate)
    }

    /// Builds a pool from pre-made result objects (testing and tooling; the
    /// server always goes through [`SharedPool::invoke`]).
    #[must_use]
    pub fn from_objects(objects: Vec<Box<dyn ResultObject + Send>>, rate: f64) -> Self {
        Self {
            bounds: objects.iter().map(|o| o.bounds()).collect(),
            est_bounds: objects.iter().map(|o| o.est_bounds()).collect(),
            converged: objects.iter().map(|o| o.converged()).collect(),
            est_cpu: objects.iter().map(|o| o.est_cpu()).collect(),
            objects,
            rate,
        }
    }

    /// Re-reads object `i`'s columns after it was mutated.
    fn refresh(&mut self, i: usize) {
        let obj = &self.objects[i];
        self.bounds[i] = obj.bounds();
        self.est_bounds[i] = obj.est_bounds();
        self.converged[i] = obj.converged();
        self.est_cpu[i] = obj.est_cpu();
    }

    /// The rate this pool was invoked at.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Number of pooled objects (== relation size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The pooled objects (for envelope computations and ε validation).
    #[must_use]
    pub fn objects(&self) -> &[Box<dyn ResultObject + Send>] {
        &self.objects
    }

    /// Splits the pool into simultaneous `&mut` borrows of the objects at
    /// `indices`, in that order, lends them to `f`, and refreshes those
    /// objects' columns when `f` returns — the aliasing story that lets a
    /// batched scheduler iterate disjoint objects on separate worker threads
    /// while the borrow checker still guarantees no object is handed out
    /// twice, and the only way to reach the split borrows is one that cannot
    /// forget the refresh.
    ///
    /// `indices` must be strictly ascending and in range; the scheduler
    /// sorts its batch (batches are distinct by construction) before
    /// calling. Built on `split_at_mut`, so no `unsafe` is involved.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not strictly ascending or indexes out of
    /// range — both are caller bugs, not data conditions.
    pub fn with_disjoint_mut<R>(
        &mut self,
        indices: &[usize],
        f: impl for<'a> FnOnce(Vec<&'a mut (dyn ResultObject + Send + 'a)>) -> R,
    ) -> R {
        let mut parts: Vec<&mut (dyn ResultObject + Send)> = Vec::with_capacity(indices.len());
        let mut rest: &mut [Box<dyn ResultObject + Send>] = &mut self.objects;
        let mut consumed = 0usize; // objects already split off the front
        for &i in indices {
            assert!(
                i >= consumed,
                "with_disjoint_mut indices must be strictly ascending"
            );
            let (head, tail) = rest.split_at_mut(i - consumed + 1);
            parts.push(head[i - consumed].as_mut());
            consumed = i + 1;
            rest = tail;
        }
        let result = f(parts);
        for &i in indices {
            self.refresh(i);
        }
        result
    }

    /// Current bounds of object `i`.
    #[must_use]
    pub fn bounds(&self, i: usize) -> Bounds {
        self.bounds[i]
    }

    /// Estimated post-iteration bounds of object `i`.
    #[must_use]
    pub fn est_bounds(&self, i: usize) -> Bounds {
        self.est_bounds[i]
    }

    /// Estimated cost of the next iteration of object `i`.
    #[must_use]
    pub fn est_cpu(&self, i: usize) -> Work {
        self.est_cpu[i]
    }

    /// The grid shape of object `i`'s next refinement, when that
    /// refinement can run as one lane of a batched solve (`None` for
    /// converged, capped, or cache-served steps — and for object families
    /// that never batch). The scheduler probes this before splitting
    /// borrows so it can group same-shape objects into one SoA sweep.
    #[must_use]
    pub fn batch_shape(&self, i: usize) -> Option<GridShape> {
        self.objects[i].batch_shape()
    }

    /// Whether object `i` has reached its stopping condition.
    #[must_use]
    pub fn converged(&self, i: usize) -> bool {
        self.converged[i]
    }

    /// Lifetime work charged by object `i`, including any prior-run cost a
    /// [`WarmStarted`] seed carried across a restart.
    #[must_use]
    pub fn cumulative_cost(&self, i: usize) -> Work {
        self.objects[i].cumulative_cost()
    }

    /// Refines object `i` one step on the shared meter.
    pub fn iterate(&mut self, i: usize, meter: &mut WorkMeter) -> Bounds {
        let after = self.objects[i].iterate(meter);
        self.refresh(i);
        after
    }
}

/// The pool as §5's scoring reads it: the flat columns, never the boxed
/// objects, so the shared scoring functions monomorphise over plain loads.
impl View for SharedPool {
    fn len(&self) -> usize {
        self.objects.len()
    }

    fn bounds(&self, i: usize) -> Bounds {
        self.bounds[i]
    }

    fn est_bounds(&self, i: usize) -> Bounds {
        self.est_bounds[i]
    }

    fn converged(&self, i: usize) -> bool {
        self.converged[i]
    }

    fn est_cpu(&self, i: usize) -> Work {
        self.est_cpu[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bondlab::BondUniverse;

    #[test]
    fn pool_invokes_once_per_bond() {
        let universe = BondUniverse::generate(4, 7);
        let relation = BondRelation::from_universe(&universe);
        let pricer = BondPricer::default();
        let mut meter = WorkMeter::new();
        let pool = SharedPool::invoke(&pricer, &relation, 0.0583, &mut meter);
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
        assert_eq!(pool.rate(), 0.0583);
        assert!(meter.total() > 0, "model invocation charges the meter");
        for i in 0..pool.len() {
            let b = pool.bounds(i);
            assert!(b.lo() <= b.hi());
        }
    }

    #[test]
    fn disjoint_borrows_iterate_distinct_objects_and_refresh_the_view() {
        let universe = BondUniverse::generate(5, 7);
        let relation = BondRelation::from_universe(&universe);
        let pricer = BondPricer::default();
        let mut meter = WorkMeter::new();
        let mut pool = SharedPool::invoke(&pricer, &relation, 0.0583, &mut meter);
        let before: Vec<_> = (0..pool.len()).map(|i| pool.bounds(i)).collect();
        let iterated = pool.with_disjoint_mut(&[0, 2, 4], |mut parts| {
            assert_eq!(parts.len(), 3);
            let mut scratch = WorkMeter::new();
            for obj in &mut parts {
                obj.iterate(&mut scratch);
            }
            scratch.iterations()
        });
        assert_eq!(iterated, 3);
        for (i, was) in before.iter().enumerate() {
            let obj = &pool.objects()[i];
            assert_eq!(pool.bounds(i), obj.bounds(), "bounds column {i}");
            assert_eq!(pool.est_bounds(i), obj.est_bounds(), "est column {i}");
            assert_eq!(pool.converged(i), obj.converged(), "converged column {i}");
            assert_eq!(pool.est_cpu(i), obj.est_cpu(), "est_cpu column {i}");
            if [0, 2, 4].contains(&i) {
                assert!(
                    pool.bounds(i).width() < was.width(),
                    "object {i} refined through the disjoint borrow"
                );
            } else {
                assert_eq!(pool.bounds(i), *was, "object {i} untouched");
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn disjoint_borrows_reject_unsorted_indices() {
        let universe = BondUniverse::generate(3, 7);
        let relation = BondRelation::from_universe(&universe);
        let pricer = BondPricer::default();
        let mut meter = WorkMeter::new();
        let mut pool = SharedPool::invoke(&pricer, &relation, 0.0583, &mut meter);
        pool.with_disjoint_mut(&[2, 0], |_| ());
    }

    #[test]
    fn warm_invoke_seeds_converged_objects_for_free() {
        let universe = BondUniverse::generate(3, 7);
        let relation = BondRelation::from_universe(&universe);
        let pricer = BondPricer::default();

        // Converge one object cold to learn its final bounds and cost.
        let mut meter = WorkMeter::new();
        let mut cold = SharedPool::invoke(&pricer, &relation, 0.0583, &mut meter);
        while !cold.converged(0) {
            cold.iterate(0, &mut meter);
        }
        let final_bounds = cold.bounds(0);
        let cold_cost = cold.cumulative_cost(0);

        // Warm-invoke with that object seeded converged; others cold-ish.
        let warm = vec![
            WarmStart {
                bounds: final_bounds,
                converged: true,
                prior_cost: cold_cost,
            },
            WarmStart {
                bounds: cold.bounds(1),
                converged: false,
                prior_cost: 0,
            },
            WarmStart {
                bounds: cold.bounds(2),
                converged: false,
                prior_cost: 0,
            },
        ];
        let mut meter2 = WorkMeter::new();
        let mut pool = SharedPool::invoke_warm(&pricer, &relation, 0.0583, &warm, &mut meter2);
        assert!(pool.converged(0), "converged seed finishes the object");
        assert_eq!(pool.bounds(0), final_bounds);
        assert_eq!(pool.est_cpu(0), 0);
        assert!(
            pool.cumulative_cost(0) >= cold_cost,
            "prior-run cost survives the restart"
        );
        let spent = meter2.total();
        let b = pool.iterate(0, &mut meter2);
        assert_eq!(b, final_bounds, "iterating a finished object is a no-op");
        assert_eq!(meter2.total(), spent, "and charges nothing");

        // A mismatched seed set must fall back to a cold invoke.
        let mut meter3 = WorkMeter::new();
        let fallback = SharedPool::invoke_warm(&pricer, &relation, 0.0583, &warm[..1], &mut meter3);
        assert!(!fallback.converged(0), "stale seeds are ignored wholesale");
    }

    #[test]
    fn iterate_shrinks_on_the_shared_meter() {
        let universe = BondUniverse::generate(2, 7);
        let relation = BondRelation::from_universe(&universe);
        let pricer = BondPricer::default();
        let mut meter = WorkMeter::new();
        let mut pool = SharedPool::invoke(&pricer, &relation, 0.0583, &mut meter);
        let before = pool.bounds(0);
        let spent = meter.total();
        let after = pool.iterate(0, &mut meter);
        assert!(after.width() <= before.width(), "monotone shrinkage");
        assert!(meter.total() > spent, "iteration charges the shared meter");
        assert_eq!(meter.iterations(), 1);
    }
}
