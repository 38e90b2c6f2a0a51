//! The cross-query budgeted greedy scheduler — the server's core.
//!
//! §5's operators make a *per-operator* greedy choice: iterate the result
//! object with the highest estimated benefit per `estCPU`. This module
//! lifts that choice *across queries*: every round, every registered
//! session's outstanding demands over the shared pool are brought up to
//! date (a [`RoundView`], repaired for the objects the previous round
//! iterated — bit-identical to recomputing them), the demands on the same
//! object are accumulated (priority-weighted), and the globally best
//! iterations run on the shared meter. An iteration that one query
//! pays for tightens the same bounds every other query reads — work sharing
//! falls out of the pooling rather than needing any cross-query
//! bookkeeping.
//!
//! **Batched rounds.** Instead of picking one object per round, the
//! scheduler picks the top-`batch` candidates on *distinct* objects
//! (via [`ChoicePolicy::top_k`]), admits the longest prefix whose summed
//! `estCPU` fits the remaining budget, and runs the admitted `iterate()`
//! calls — on `std::thread::scope` worker threads when `workers > 1`,
//! inline otherwise. Demand and choice run once per *round* rather than
//! once per *iteration*. With `batch = 1` the loop degenerates to exactly the
//! historical serial schedule (same picks, same meter charges, same
//! trace), and for a fixed batch the results are bit-identical regardless
//! of worker count: workers only change *who* executes an already-chosen
//! batch, never what is chosen, and work counters are additive.
//!
//! The per-tick **work budget** bounds the tick in deterministic work
//! units. The scheduler stops *before* any `iterate()` whose `estCPU`
//! would overrun the budget; sessions still demanding refinement then
//! degrade to anytime [`Answer::Partial`] bounds instead of blocking the
//! tick (§7's graceful degradation, applied to scheduling).

use va_numerics::pde::step_batch;
use va_persist::record::SessionTickRecord;
use va_stream::{BondRelation, Query};
use vao::batch::{BatchLane, GridShape};
use vao::cost::{Calibrator, Work, WorkBreakdown, WorkMeter};
use vao::interface::ResultObject;
use vao::ops::DEFAULT_ITERATION_LIMIT;
use vao::strategy::{Candidate, ChoicePolicy};
use vao::trace::{
    BudgetExhaustedRecord, CalibrationRecord, ExecObserver, IterationRecord, OperatorEndRecord,
    OperatorKind, RoundRecord,
};
use vao::Bounds;

use crate::answer::Answer;
use crate::demand::{self, PredicateStats, RoundView};
use crate::error::ServerError;
use crate::pool::SharedPool;
use crate::session::{SessionId, SessionRegistry};

/// What one scheduled tick produced. The tick itself changes nothing but
/// the pool: what it means for the sessions' counters travels here, for
/// the caller to apply once the tick is journaled.
#[derive(Clone, Debug)]
pub(crate) struct TickOutcome {
    /// Per-session answers, in registration order.
    pub answers: Vec<(SessionId, Answer)>,
    /// Per-session outcome deltas (final or partial, iterations driven),
    /// in registration order: the journal record's `sessions` array and
    /// the argument of [`SessionRegistry::apply_tick`].
    pub sessions: Vec<SessionTickRecord>,
    /// Iterations issued per pool object this tick, aligned with the pool.
    /// The durability layer folds these into its per-rate warm-start
    /// records; sums to the `iterate()` calls the tick's meter counted.
    pub per_object_iterations: Vec<u64>,
    /// Whether the work budget ran out with demand still outstanding.
    pub budget_exhausted: bool,
}

/// Splits one per-tick work budget across relations, proportionally to
/// their demand weights (the §5 priority sums of their live sessions),
/// with largest-remainder rounding so the slices always sum to exactly the
/// total. Ties and the all-zero-weight case degrade deterministically:
/// remainder ties go to the lower-indexed relation, and when no relation
/// carries any weight the budget splits evenly.
///
/// The slices are the cross-tenant arbitration contract: a shared server
/// ticking relation `i` with slice `out[i]` computes bit-identically to an
/// isolated single-relation server configured with budget `out[i]`,
/// because the slice is the *only* channel through which co-hosted
/// relations influence each other. `None` (unbudgeted) passes through as
/// `None` for everyone.
#[must_use]
pub fn arbitrate_budget(total: Option<Work>, weights: &[u64]) -> Vec<Option<Work>> {
    let Some(total) = total else {
        return vec![None; weights.len()];
    };
    if weights.is_empty() {
        return Vec::new();
    }
    let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let (weights, sum): (Vec<u128>, u128) = if sum == 0 {
        (vec![1; weights.len()], weights.len() as u128)
    } else {
        (weights.iter().map(|&w| u128::from(w)).collect(), sum)
    };
    let total_wide = u128::from(total);
    // u128 intermediates: budget × weight cannot overflow even at u64::MAX
    // each, so the proportional shares are exact.
    let shares: Vec<(u128, u128)> = weights
        .iter()
        .map(|&w| {
            let scaled = total_wide * w;
            (scaled / sum, scaled % sum)
        })
        .collect();
    let assigned: u128 = shares.iter().map(|&(base, _)| base).sum();
    let leftover = usize::try_from(total_wide - assigned).expect("leftover < relation count");
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[b].1.cmp(&shares[a].1).then(a.cmp(&b)));
    let mut out: Vec<u64> = shares
        .iter()
        .map(|&(base, _)| u64::try_from(base).expect("share <= total"))
        .collect();
    for &i in order.iter().take(leftover) {
        out[i] += 1;
    }
    out.into_iter().map(Some).collect()
}

/// The calibration state a tick trains, threaded through when the server
/// runs with calibration enabled (`None` reproduces the uncalibrated
/// schedule bit-identically — no corrected estimates, no observations, no
/// demand reordering). The server passes tick-local copies of the tenant's
/// state and installs them once the tick is journaled.
///
/// `model` corrects `estCPU` before admission and budget accounting and is
/// fed every `(raw estimate, measured cost)` pair the tick executes;
/// `predicates` accumulates SELECT/COUNT pass/fail outcomes and reorders
/// probe demands by the learned correlation.
pub(crate) struct Calibration<'a> {
    pub model: &'a mut Calibrator,
    pub predicates: &'a mut PredicateStats,
}

/// A probe called with the pool and the round view at the top of every
/// scheduling round, right after the view was built or repaired (and before
/// any per-round boost) — the seam the differential tests check the
/// maintained demand state through. The server passes `None`.
pub type RoundAudit<'a> = &'a mut dyn FnMut(&SharedPool, &RoundView);

/// The sessions' queries, in registration order.
fn queries(registry: &SessionRegistry) -> impl Iterator<Item = &Query> + Clone {
    registry.sessions().iter().map(|s| &s.query)
}

/// One executed iteration, resolved back into pick order.
struct IterDone {
    before: Bounds,
    after: Bounds,
    work: WorkBreakdown,
}

/// Runs the global greedy loop over an invoked pool until every session
/// reaches its stopping condition or the budget runs out.
///
/// `meter` must be the tick's meter (already charged with the pool
/// invocation); the budget applies to its running total, so model
/// invocation and refinement draw from the same per-tick allowance.
///
/// `batch` is the number of distinct objects selected per round and is
/// what determines the schedule; `workers` is the number of threads used
/// to execute an admitted batch and never affects results. Both are
/// clamped to at least 1. `batch_solver` routes admitted objects whose
/// next refinements share a grid shape through one lane-parallel SoA
/// solve ([`run_batch_lanes`]); per-lane arithmetic is bit-identical to
/// the scalar path, so this too never affects results. The defensive
/// `iterate()` cap is [`DEFAULT_ITERATION_LIMIT`].
#[allow(clippy::too_many_arguments)] // one call site; the knobs are the API
pub(crate) fn run_tick<O: ExecObserver>(
    registry: &SessionRegistry,
    pool: &mut SharedPool,
    relation: &BondRelation,
    budget: Option<Work>,
    workers: usize,
    batch: usize,
    batch_solver: bool,
    calibration: Option<Calibration<'_>>,
    meter: &mut WorkMeter,
    observer: &mut O,
    mut audit: Option<RoundAudit<'_>>,
) -> Result<TickOutcome, ServerError> {
    observer.on_operator_start(OperatorKind::SharedPool, pool.len());
    let entry = meter.snapshot();
    let workers = workers.max(1);
    let batch = batch.max(1);
    let (mut cal_model, cal_preds) = match calibration {
        Some(c) => (Some(c.model), Some(c.predicates)),
        None => (None, None),
    };
    let mut policy = ChoicePolicy::greedy();
    // Every session's demand against the pool's current bounds — the
    // analogue of the per-operator loops re-deriving their guess/unresolved
    // sets after each iteration. Derived in full once, here; after each
    // round the view repairs only what the round's iterations changed (see
    // `demand::RoundView`). In a batched round that runs once per *batch*,
    // not once per iteration.
    let mut view = RoundView::build(queries(registry), pool);
    let n = pool.len();
    let mut weighted = vec![0.0f64; n];
    let mut demanded = vec![false; n];
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut raw_ests: Vec<Work> = Vec::new();
    let mut iterations = 0u64;
    let mut driven = vec![0u64; registry.len()];
    let mut per_object_iterations = vec![0u64; n];
    let mut seq = 0u64;
    let mut round = 0u64;
    let mut budget_exhausted = false;

    loop {
        if let Some(audit) = audit.as_deref_mut() {
            audit(pool, &view);
        }
        let outstanding = view.outstanding();
        if outstanding == 0 {
            break; // every session can answer Final
        }
        if iterations >= DEFAULT_ITERATION_LIMIT {
            return Err(ServerError::Stalled {
                limit: DEFAULT_ITERATION_LIMIT,
            });
        }
        // Learned-correlation reordering (calibrated servers only): boost
        // the probe demands whose estimated bounds lean the way the
        // predicate historically decides. The boost edits this round's
        // lists; the next repair re-derives them, so it never compounds.
        if let Some(preds) = cal_preds.as_deref() {
            for (s_idx, sess) in registry.sessions().iter().enumerate() {
                preds.boost(&sess.query, pool, view.demands_mut(s_idx));
            }
        }
        let round_snap = meter.snapshot();

        // Accumulate priority-weighted benefits per object: the global
        // benefit of iterating an object is the sum of what every demanding
        // query expects from it.
        weighted.fill(0.0);
        demanded.fill(false);
        for (s_idx, sess) in registry.sessions().iter().enumerate() {
            let w = f64::from(sess.priority);
            for d in view.demands(s_idx) {
                weighted[d.object] += w * d.benefit;
                demanded[d.object] = true;
            }
        }
        // Candidates carry the *calibrated* cost when a model is threaded
        // in: admission, budget accounting and the greedy benefit/cost
        // ranking all see `corrected = model(estCPU)`. The raw estimates
        // stay alongside (by candidate position) because the model must be
        // trained on what the object *claimed*, not on its own correction.
        candidates.clear();
        raw_ests.clear();
        for i in (0..n).filter(|&i| demanded[i]) {
            let raw = pool.est_cpu(i);
            raw_ests.push(raw);
            candidates.push(Candidate {
                index: i,
                benefit: weighted[i],
                est_cpu: match cal_model.as_deref() {
                    Some(m) => m.correct(raw),
                    None => raw,
                },
                width: pool.bounds(i).width(),
            });
        }
        meter.charge_choose(candidates.len() as Work);
        if candidates.is_empty() {
            // Outstanding demand names objects, so candidates cannot be
            // empty; if the invariant breaks anyway, fail this tick with a
            // typed error instead of killing the process.
            return Err(ServerError::Internal {
                detail: "outstanding demand produced no candidates",
            });
        }

        // Select up to `batch` distinct objects, best first (never past the
        // defensive iteration cap).
        let room = (DEFAULT_ITERATION_LIMIT - iterations).min(batch as u64) as usize;
        let selected = policy.top_k_traced(&candidates, room, observer);

        // Budget admission, up front for the whole batch: admit the
        // longest prefix (in pick order) whose cumulative estCPU fits.
        // Graceful degradation: if not even the best pick fits, stop the
        // tick; the view stays current for Partial answers.
        let spent = meter.total();
        let mut admitted: Vec<usize> = Vec::with_capacity(selected.len());
        let mut admitted_est: Work = 0;
        for &p in &selected {
            let est = candidates[p].est_cpu;
            if let Some(b) = budget {
                if spent + admitted_est + est > b {
                    break;
                }
            }
            admitted_est += est;
            admitted.push(p);
        }
        if admitted.is_empty() {
            if observer.is_enabled() {
                observer.on_budget_exhausted(&BudgetExhaustedRecord {
                    budget: budget.unwrap_or(0),
                    spent,
                    deferred: outstanding,
                });
            }
            budget_exhausted = true;
            break;
        }
        let objs: Vec<usize> = admitted.iter().map(|&p| candidates[p].index).collect();

        // Credit each admitted iteration to the session that wanted it
        // most (highest priority-weighted benefit on that object;
        // registration order breaks ties, and a zero-benefit fallback pick
        // goes to its first demander).
        for &chosen in &objs {
            let mut claimant: Option<usize> = None;
            let mut claim_w = -1.0f64;
            for (s_idx, sess) in registry.sessions().iter().enumerate() {
                if let Some(d) = view.demands(s_idx).iter().find(|d| d.object == chosen) {
                    let w = f64::from(sess.priority) * d.benefit;
                    if claimant.is_none() || w > claim_w {
                        claimant = Some(s_idx);
                        claim_w = w;
                    }
                }
            }
            if let Some(s_idx) = claimant {
                driven[s_idx] += 1;
            }
        }

        // Execute the batch. One admitted object (every round of the
        // default config) iterates inline; anything wider goes through the
        // round executor, which groups same-shape refinements into SoA
        // lanes when the batched solver is on and fans the units out over
        // scoped worker threads when there are workers to fan out to.
        let done: Vec<IterDone> = if let [chosen] = objs[..] {
            let before = pool.bounds(chosen);
            let snap = meter.snapshot();
            let after = pool.iterate(chosen, meter);
            vec![IterDone {
                before,
                after,
                work: meter.since(&snap),
            }]
        } else {
            run_batch_lanes(pool, &objs, workers, batch_solver, meter)?
        };

        // Emit records and check the progress contract in pick order, so
        // the trace is independent of which thread ran which object.
        for (slot, &chosen) in objs.iter().enumerate() {
            let d = &done[slot];
            iterations += 1;
            per_object_iterations[chosen] += 1;
            seq += 1;
            if observer.is_enabled() {
                observer.on_iteration(&IterationRecord {
                    object: chosen,
                    seq,
                    before: d.before,
                    after: d.after,
                    est_cpu: candidates[admitted[slot]].est_cpu,
                    actual_cpu: d.work.total(),
                });
            }
            // An iterate() that moves nothing on a non-converged object
            // would loop forever: the object broke its progress contract.
            if d.after == d.before && !pool.converged(chosen) {
                return Err(ServerError::Stalled {
                    limit: DEFAULT_ITERATION_LIMIT,
                });
            }
        }
        // Train the model on this round's (claimed, measured) pairs in
        // pick order — deterministic, and already effective for the next
        // round of the same tick — surfacing each observation to the trace.
        if let Some(m) = cal_model.as_deref_mut() {
            for (slot, &p) in admitted.iter().enumerate() {
                let raw = raw_ests[p];
                let actual = done[slot].work.total();
                m.observe(raw, actual);
                if observer.is_enabled() {
                    observer.on_calibration(&CalibrationRecord {
                        observations: m.observations(),
                        gain_ppm: m.gain_ppm(),
                        raw_est: raw,
                        corrected_est: candidates[p].est_cpu,
                        actual,
                    });
                }
            }
        }
        round += 1;
        if observer.is_enabled() {
            observer.on_round(&RoundRecord {
                round,
                candidates: candidates.len(),
                selected: selected.len(),
                admitted: objs.len(),
                est_cpu: admitted_est,
                work: meter.since(&round_snap).total(),
            });
        }
        view.repair(queries(registry), pool, &objs);
    }

    // Tally every SELECT/COUNT predicate's decided outcomes against the
    // tick's final bounds — the pass/fail frequencies that order probe
    // demands on later ticks.
    if let Some(preds) = cal_preds {
        for sess in registry.sessions() {
            preds.record_query(&sess.query, pool);
        }
    }

    let mut answers = Vec::with_capacity(registry.len());
    let mut sessions = Vec::with_capacity(registry.len());
    for (s_idx, sess) in registry.sessions().iter().enumerate() {
        let done = view.demands(s_idx).is_empty();
        answers.push((sess.id, demand::answer(&sess.query, pool, relation, done)?));
        sessions.push(SessionTickRecord {
            session: sess.id.0,
            is_final: done,
            driven: driven[s_idx],
        });
    }

    observer.on_operator_end(&OperatorEndRecord {
        kind: OperatorKind::SharedPool,
        iterations,
        work: meter.since(&entry),
    });

    Ok(TickOutcome {
        answers,
        sessions,
        per_object_iterations,
        budget_exhausted,
    })
}

/// [`run_tick`] over a caller-built registry and pool with a [`RoundAudit`]
/// attached: the scheduler exactly as the server runs it (unbudgeted, the
/// default iteration cap, `calibration` as `(cost model, predicate stats)`),
/// observable round by round. Exists for the differential tests; returns
/// the tick's answers (the per-session counter deltas are a commit's to
/// apply, and nothing here commits).
///
/// # Errors
///
/// Whatever the tick fails with.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // mirrors run_tick's knobs
pub fn audited_tick(
    registry: &SessionRegistry,
    pool: &mut SharedPool,
    relation: &BondRelation,
    workers: usize,
    batch: usize,
    batch_solver: bool,
    calibration: Option<(&mut Calibrator, &mut PredicateStats)>,
    audit: RoundAudit<'_>,
) -> Result<Vec<(SessionId, Answer)>, ServerError> {
    let outcome = run_tick(
        registry,
        pool,
        relation,
        None,
        workers,
        batch,
        batch_solver,
        calibration.map(|(model, predicates)| Calibration { model, predicates }),
        &mut WorkMeter::new(),
        &mut vao::trace::NoopObserver,
        Some(audit),
    )?;
    Ok(outcome.answers)
}

/// One schedulable piece of an admitted round: either a group of
/// same-shape objects advanced as lanes of one SoA sweep, or a single
/// object stepped through plain `iterate()`.
///
/// `slots` / `slot` index back into the round's pick order.
enum ExecUnit<'p> {
    Lanes {
        shape: GridShape,
        slots: Vec<usize>,
        objs: Vec<&'p mut (dyn ResultObject + Send)>,
    },
    Scalar {
        slot: usize,
        obj: &'p mut (dyn ResultObject + Send),
    },
}

/// Steps one object through plain `iterate()`, charging `scratch`.
fn iterate_scalar(obj: &mut (dyn ResultObject + Send), scratch: &mut WorkMeter) -> IterDone {
    let before = obj.bounds();
    let snap = scratch.snapshot();
    let after = obj.iterate(scratch);
    IterDone {
        before,
        after,
        work: scratch.since(&snap),
    }
}

/// Executes one unit, charging `scratch`, and returns per-object results
/// tagged with their pick-order slots.
///
/// For a lane group, each lane commits on its own fresh meter (so the
/// per-object `IterDone::work` is exactly what the scalar path would have
/// charged) and the lane meters are then absorbed into `scratch`. The
/// post-iteration bounds are re-read through the pool object — not taken
/// from the lane commit — because adapters (negation, shifts) transform
/// bounds *outside* the lane protocol's inner frame.
///
/// A group with a member that reports a `batch_shape()` but hands out no
/// lane has broken the protocol's promise; the group is stepped scalar,
/// which computes the same thing.
fn exec_unit(unit: ExecUnit<'_>, scratch: &mut WorkMeter) -> Vec<(usize, IterDone)> {
    match unit {
        ExecUnit::Scalar { slot, obj } => vec![(slot, iterate_scalar(obj, scratch))],
        ExecUnit::Lanes {
            shape,
            slots,
            mut objs,
        } => {
            let befores: Vec<Bounds> = objs.iter().map(|o| o.bounds()).collect();
            let mut meters: Vec<WorkMeter> = objs.iter().map(|_| WorkMeter::new()).collect();
            let lanes: Option<Vec<&mut dyn BatchLane>> =
                objs.iter_mut().map(|o| o.as_batch_lane()).collect();
            let Some(mut lanes) = lanes else {
                return slots
                    .into_iter()
                    .zip(objs)
                    .map(|(slot, obj)| (slot, iterate_scalar(obj, scratch)))
                    .collect();
            };
            step_batch(shape, &mut lanes, &mut meters);
            drop(lanes);
            slots
                .into_iter()
                .zip(&objs)
                .zip(befores)
                .zip(meters)
                .map(|(((slot, obj), before), m)| {
                    scratch.absorb(&m);
                    (
                        slot,
                        IterDone {
                            before,
                            after: obj.bounds(),
                            work: m.breakdown(),
                        },
                    )
                })
                .collect()
        }
    }
}

/// Executes an admitted round of distinct objects. With `batch_solver`,
/// objects whose next refinements share a [`GridShape`] advance in lockstep
/// as lanes of one lane-parallel Thomas sweep per time step; everything else
/// (shapeless objects, singleton groups, and every object when the batched
/// solver is off) steps through scalar `iterate()`. Units run on up to
/// `workers` scoped threads.
///
/// Returns per-object results in pick order. Determinism: each object's
/// refinement is a pure function of that object's own state, per-lane
/// arithmetic, meter charges and failure handling are bit-identical to K
/// independent iterations, the per-object work charges are exact integers
/// merged by addition, and results are re-sorted into pick order before
/// use — so callers cannot observe which route or thread ran beyond
/// wall-clock time. A lane that goes singular is committed failed (capped)
/// without touching its siblings — the same degradation the scalar solver
/// produces.
fn run_batch_lanes(
    pool: &mut SharedPool,
    objs: &[usize],
    workers: usize,
    batch_solver: bool,
    meter: &mut WorkMeter,
) -> Result<Vec<IterDone>, ServerError> {
    // Probe shapes through the shared-borrow API *before* splitting the
    // pool into disjoint `&mut` borrows (with_disjoint_mut wants strictly
    // ascending indices; remember pick-order slots to map results back).
    let mut order: Vec<usize> = (0..objs.len()).collect();
    order.sort_by_key(|&slot| objs[slot]);
    let sorted_objs: Vec<usize> = order.iter().map(|&slot| objs[slot]).collect();
    let shapes: Vec<Option<GridShape>> = if batch_solver {
        sorted_objs.iter().map(|&i| pool.batch_shape(i)).collect()
    } else {
        vec![None; objs.len()]
    };
    pool.with_disjoint_mut(&sorted_objs, |parts| {
        exec_lane_groups(parts, &order, &shapes, workers, meter)
    })
}

/// The body of [`run_batch_lanes`] over the already-split borrows: `parts`,
/// `order` (each part's pick-order slot) and `shapes` are aligned.
fn exec_lane_groups(
    parts: Vec<&mut (dyn ResultObject + Send)>,
    order: &[usize],
    shapes: &[Option<GridShape>],
    workers: usize,
    meter: &mut WorkMeter,
) -> Result<Vec<IterDone>, ServerError> {
    // Group same-shape objects; shapeless ones go scalar immediately.
    let mut groups: Vec<(GridShape, Vec<usize>, Vec<&mut (dyn ResultObject + Send)>)> = Vec::new();
    let mut scalars: Vec<(usize, &mut (dyn ResultObject + Send))> = Vec::new();
    for ((slot, obj), shape) in order.iter().copied().zip(parts).zip(shapes) {
        match shape {
            Some(s) => match groups.iter_mut().find(|(g, _, _)| g == s) {
                Some((_, slots, members)) => {
                    slots.push(slot);
                    members.push(obj);
                }
                None => groups.push((*s, vec![slot], vec![obj])),
            },
            None => scalars.push((slot, obj)),
        }
    }
    // A singleton group gains nothing from the SoA layout — demote it.
    let mut units: Vec<ExecUnit<'_>> = Vec::new();
    for (shape, slots, members) in groups {
        if slots.len() >= 2 {
            units.push(ExecUnit::Lanes {
                shape,
                slots,
                objs: members,
            });
        } else {
            for (slot, obj) in slots.into_iter().zip(members) {
                scalars.push((slot, obj));
            }
        }
    }
    units.extend(
        scalars
            .into_iter()
            .map(|(slot, obj)| ExecUnit::Scalar { slot, obj }),
    );

    let mut done: Vec<Option<IterDone>> = (0..order.len()).map(|_| None).collect();
    if workers <= 1 || units.len() == 1 {
        for unit in units {
            for (slot, d) in exec_unit(unit, meter) {
                done[slot] = Some(d);
            }
        }
    } else {
        // Fan the units out over scoped threads: scratch meters merge by
        // addition, results re-sort by slot, so the outcome is
        // bit-identical to inline execution.
        let threads = workers.min(units.len());
        let chunk = units.len().div_ceil(threads);
        let mut units = units;
        let joined: Vec<_> = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(threads);
            while !units.is_empty() {
                let take = chunk.min(units.len());
                let mine: Vec<_> = units.drain(..take).collect();
                handles.push(s.spawn(move || {
                    let mut scratch = WorkMeter::new();
                    let mut out = Vec::new();
                    for unit in mine {
                        out.extend(exec_unit(unit, &mut scratch));
                    }
                    (out, scratch)
                }));
            }
            handles.into_iter().map(|h| h.join()).collect()
        });
        for j in joined {
            let (out, scratch) = j.map_err(|_| ServerError::Internal {
                detail: "worker thread panicked during a scheduling round",
            })?;
            meter.absorb(&scratch);
            for (slot, d) in out {
                done[slot] = Some(d);
            }
        }
    }
    done.into_iter()
        .map(|d| {
            d.ok_or(ServerError::Internal {
                detail: "scheduling round lost an object result",
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{arbitrate_budget, exec_unit, ExecUnit};
    use vao::batch::GridShape;
    use vao::cost::{Work, WorkMeter};
    use vao::interface::ResultObject;
    use vao::testkit::ScriptedObject;
    use vao::Bounds;

    /// Reports a batch shape but, like every object that does not
    /// override `as_batch_lane`, hands out no lane.
    struct ShapeWithoutLane(ScriptedObject);

    impl ResultObject for ShapeWithoutLane {
        fn bounds(&self) -> Bounds {
            self.0.bounds()
        }
        fn min_width(&self) -> f64 {
            self.0.min_width()
        }
        fn iterate(&mut self, meter: &mut WorkMeter) -> Bounds {
            self.0.iterate(meter)
        }
        fn est_cpu(&self) -> Work {
            self.0.est_cpu()
        }
        fn est_bounds(&self) -> Bounds {
            self.0.est_bounds()
        }
        fn standalone_cost(&self) -> Work {
            self.0.standalone_cost()
        }
        fn cumulative_cost(&self) -> Work {
            self.0.cumulative_cost()
        }
        fn batch_shape(&self) -> Option<GridShape> {
            Some(GridShape { nt: 4, nx: 8 })
        }
    }

    #[test]
    fn lane_group_without_lanes_is_stepped_scalar() {
        let script =
            |lo: f64| ScriptedObject::converging(&[(lo, lo + 4.0), (lo + 1.0, lo + 2.0)], 7, 0.01);
        let mut a = ShapeWithoutLane(script(0.0));
        let mut b = ShapeWithoutLane(script(10.0));
        let unit = ExecUnit::Lanes {
            shape: GridShape { nt: 4, nx: 8 },
            slots: vec![1, 0],
            objs: vec![&mut a, &mut b],
        };
        let mut scratch = WorkMeter::new();
        let done = exec_unit(unit, &mut scratch);

        let slots: Vec<usize> = done.iter().map(|(slot, _)| *slot).collect();
        assert_eq!(slots, vec![1, 0]);
        for ((_, d), lo) in done.iter().zip([0.0, 10.0]) {
            assert_eq!(d.before, Bounds::new(lo, lo + 4.0));
            assert_eq!(d.after, Bounds::new(lo + 1.0, lo + 2.0));
            assert_eq!(d.work.exec_iter, 7);
        }
        assert_eq!(scratch.breakdown().exec_iter, 14);
        assert_eq!(scratch.iterations(), 2);
    }

    #[test]
    fn slices_are_proportional_and_sum_exactly() {
        let out = arbitrate_budget(Some(100), &[1, 1, 2]);
        assert_eq!(out, vec![Some(25), Some(25), Some(50)]);
        let out = arbitrate_budget(Some(10), &[1, 1, 1]);
        assert_eq!(out.iter().map(|b| b.unwrap()).sum::<u64>(), 10);
        // Largest remainder first; the tie between equal remainders goes
        // to the lower-indexed relation.
        assert_eq!(out, vec![Some(4), Some(3), Some(3)]);
    }

    #[test]
    fn zero_weight_relations_get_nothing_while_others_carry_weight() {
        let out = arbitrate_budget(Some(90), &[0, 2, 1]);
        assert_eq!(out, vec![Some(0), Some(60), Some(30)]);
    }

    #[test]
    fn all_zero_weights_split_evenly() {
        let out = arbitrate_budget(Some(7), &[0, 0, 0]);
        assert_eq!(out, vec![Some(3), Some(2), Some(2)]);
    }

    #[test]
    fn unbudgeted_passes_none_through() {
        assert_eq!(arbitrate_budget(None, &[3, 4]), vec![None, None]);
        assert!(arbitrate_budget(Some(5), &[]).is_empty());
    }

    #[test]
    fn extreme_weights_do_not_overflow() {
        let out = arbitrate_budget(Some(u64::MAX), &[u64::MAX, u64::MAX, 1]);
        let total: u64 = out.iter().map(|b| b.unwrap()).sum();
        assert_eq!(total, u64::MAX);
        assert!(out[0] >= out[2]);
    }
}
