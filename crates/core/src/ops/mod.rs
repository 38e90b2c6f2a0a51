//! The Variable-Accuracy Operators of §5, their baselines, and extensions.
//!
//! §5 describes one iteration strategy — score the candidate iterations by
//! benefit / `estCPU`, iterate the best, stop on the operator's condition —
//! and that loop exists once, in [`drive`]: the round loop `va-server`'s
//! scheduler runs too. An operator module holds what is its own: input
//! validation, its **demand function** (which objects it still wants
//! refined, and the benefit it expects from each; empty is its stopping
//! rule), one call to the loop, and the result read off the final bounds.
//! The demand functions are pure functions over [`score::View`] — the four
//! facts scoring reads per object — so a columnar store of those facts
//! (`va-server`'s pool) demands through the same code the operators do.
//! Every VAO but the heap-indexed SUM has a default entry point (`*_vao`:
//! greedy policy, no observer) and a `*_traced` one taking the
//! [`minmax::AggregateConfig`] and an
//! [`ExecObserver`](crate::trace::ExecObserver).
//!
//! * [`drive`] — the round loop, its pool and demand-source traits.
//! * [`score`] — the view, the two-sided estimated shrink, and the rank
//!   family's order, contest, stopping test, benefits and demand.
//! * [`selection`] — predicate evaluation against a constant (§3.2's running
//!   example; evaluated per result object).
//! * [`minmax`] — the MIN/MAX aggregate VAOs with the guess-and-reduce
//!   greedy strategy of §5.1 (the rank separation at `k = 1`).
//! * [`sum`] — the weighted SUM/AVE aggregate VAO of §5.2.
//! * [`traditional`] — the "black box" baseline operators of §3.1/§6, plus
//!   the calibration procedure the paper uses to build them.
//! * [`oracle`] — the theoretically optimal MAX iteration strategy of §6.2.
//! * [`hybrid`] — the hybrid SUM operator sketched as future work in §6.3.
//! * [`topk`] — extension: Top-K, the rank separation at `k` followed by
//!   refining every member.
//! * [`count`] — extension: predicate COUNT with a bounded-slack early
//!   stop.
//! * [`sum_heap`] — §5.2's heap-indexed iteration choice (`O(log N)` per
//!   pick instead of the baseline scan's `O(N)`).
//! * [`quantile`] — extension: MEDIAN/rank-k by two separations, top-`k`
//!   then the minimum of the members (k = 1 ≡ MAX, k = N ≡ MIN).
//! * [`percentile`] — extension: φ-quantile *value* bounds with
//!   sketch-guided demand pruning (va-sketch rank bands).
//! * [`heavy`] — extension: top-k ε-cell heavy hitters with
//!   SpaceSaving/count-min demand pruning.

pub mod count;
pub mod drive;
pub mod heavy;
pub mod hybrid;
pub mod minmax;
pub mod oracle;
pub mod percentile;
pub mod quantile;
pub mod score;
pub mod selection;
pub mod sum;
pub mod sum_heap;
pub mod topk;
pub mod traditional;

/// Default cap on the total number of `iterate()` calls a single operator
/// evaluation may issue. This exists purely as a defense against result
/// objects that stop making progress (contract violation); the paper's
/// workloads stay orders of magnitude below it.
pub const DEFAULT_ITERATION_LIMIT: u64 = 10_000_000;
