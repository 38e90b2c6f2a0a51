//! The continuous executor.
//!
//! For every incoming rate tick the engine re-evaluates its query over the
//! whole bond relation — the paper's processing model, where "traders need
//! to run a model for each bond issue each time an input changes" (§1.2).
//! Two execution modes implement the paper's comparison:
//!
//! * [`ExecutionMode::Vao`] — result objects + the §5 operators.
//! * [`ExecutionMode::Traditional`] — every model run as a full-accuracy
//!   black box, then a conventional operator over the values. As in §6,
//!   the black-box cost is established by an off-the-clock calibration
//!   pass, which *underestimates* a production system's cost ("the model
//!   knows a priori the step sizes needed").

use std::time::Instant;

use bondlab::market::RateTick;
use bondlab::BondPricer;
use vao::cost::WorkMeter;
use vao::error::VaoError;
use vao::interface::{ResultObject, VariableAccuracyFn};
use vao::ops::count::count_vao_traced;
use vao::ops::heavy::{cell_of, heavy_hitters_vao_traced, HeavyCell};
use vao::ops::hybrid::{hybrid_weighted_sum_traced, HybridConfig};
use vao::ops::minmax::{max_vao_traced, min_vao_traced, AggregateConfig};
use vao::ops::percentile::{percentile_vao_traced, rank_from_top};
use vao::ops::quantile::quantile_vao_traced;
use vao::ops::selection::SelectionVao;
use vao::ops::sum::weighted_sum_vao_traced;
use vao::ops::topk::topk_vao_traced;
use vao::ops::traditional::{
    calibrate, traditional_max, traditional_min, traditional_select, traditional_weighted_sum,
    BlackBoxSpec,
};
use vao::precision::PrecisionConstraint;
use vao::Bounds;

use crate::query::{Query, QueryOutput};
use crate::relation::BondRelation;
use crate::stats::{TickObserver, TickStats};

/// How the engine executes model calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Variable-accuracy operators (the paper's contribution).
    Vao,
    /// Black-box functions + conventional operators (the baseline).
    Traditional,
    /// §6.3's future-work hybrid: SUM queries pick VAO or traditional per
    /// weight profile; every other query runs as [`ExecutionMode::Vao`].
    Hybrid,
}

/// Errors from query evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// An operator failed (precision too tight, empty relation, …).
    Operator(VaoError),
    /// A [`QueryOutput`] had a different shape than the caller required
    /// (e.g. asking a selection output for extreme bounds).
    OutputShape {
        /// The shape the caller asked for (`"extreme"`, `"ranked"`, …).
        expected: &'static str,
        /// The shape the output actually had.
        got: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Operator(e) => write!(f, "operator error: {e}"),
            EngineError::OutputShape { expected, got } => {
                write!(f, "wrong output shape: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<VaoError> for EngineError {
    fn from(e: VaoError) -> Self {
        EngineError::Operator(e)
    }
}

/// A continuous query bound to a pricer, a relation and an execution mode.
#[derive(Clone, Debug)]
pub struct ContinuousQueryEngine {
    pricer: BondPricer,
    relation: BondRelation,
    query: Query,
    mode: ExecutionMode,
}

impl ContinuousQueryEngine {
    /// Assembles an engine.
    #[must_use]
    pub fn new(
        pricer: BondPricer,
        relation: BondRelation,
        query: Query,
        mode: ExecutionMode,
    ) -> Self {
        Self {
            pricer,
            relation,
            query,
            mode,
        }
    }

    /// The bound query.
    #[must_use]
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The execution mode.
    #[must_use]
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// Evaluates the query at one rate, returning the answer and what it
    /// cost.
    ///
    /// Adaptive modes run through the traced operator entry points with a
    /// [`TickObserver`], so the returned [`TickStats`] carry the
    /// iterations-per-object histogram and CPU-estimation error alongside
    /// the work totals. The traditional path never calls `iterate()` on
    /// the clock, so its histogram is empty.
    pub fn process_rate(&self, rate: f64) -> Result<(QueryOutput, TickStats), EngineError> {
        let start = Instant::now();
        let mut meter = WorkMeter::new();
        let mut obs = TickObserver::new();
        let output = match self.mode {
            ExecutionMode::Vao => self.eval_vao(rate, &mut meter, &mut obs)?,
            ExecutionMode::Traditional => self.eval_traditional(rate, &mut meter)?,
            ExecutionMode::Hybrid => self.eval_hybrid(rate, &mut meter, &mut obs)?,
        };
        let stats = TickStats {
            rate,
            work: meter.breakdown(),
            wall: start.elapsed(),
            iterations: meter.iterations(),
            operator: self.query.operator_name(),
            objects: obs.objects(),
            iter_histogram: obs.histogram(),
            cpu_est: obs.cpu_estimation(),
        };
        Ok((output, stats))
    }

    /// Processes a stream of ticks in arrival order.
    pub fn run(&self, ticks: &[RateTick]) -> Result<Vec<(QueryOutput, TickStats)>, EngineError> {
        ticks.iter().map(|t| self.process_rate(t.rate)).collect()
    }

    fn objects(&self, rate: f64, meter: &mut WorkMeter) -> Vec<Box<dyn ResultObject + Send>> {
        self.relation
            .bonds()
            .iter()
            .map(|&bond| self.pricer.invoke(&(rate, bond), meter))
            .collect()
    }

    fn bond_id(&self, index: usize) -> u32 {
        self.relation.bonds()[index].id
    }

    fn eval_vao(
        &self,
        rate: f64,
        meter: &mut WorkMeter,
        obs: &mut TickObserver,
    ) -> Result<QueryOutput, EngineError> {
        let config = &mut AggregateConfig::default();
        match &self.query {
            Query::Selection { op, constant } => {
                let vao = SelectionVao::new(*op, *constant)?;
                let mut selected = Vec::new();
                for (i, bond) in self.relation.bonds().iter().enumerate() {
                    let mut obj = self.pricer.invoke(&(rate, *bond), meter);
                    let satisfied = vao.evaluate_traced(&mut obj, meter, obs)?.satisfied;
                    if satisfied {
                        selected.push(self.bond_id(i));
                    }
                }
                Ok(QueryOutput::Selected(selected))
            }
            Query::Max { epsilon } | Query::Min { epsilon } | Query::Median { epsilon } => {
                let mut objs = self.objects(rate, meter);
                let eps = PrecisionConstraint::new(*epsilon)?;
                let res = match &self.query {
                    Query::Max { .. } => max_vao_traced(&mut objs, eps, config, meter, obs),
                    Query::Min { .. } => min_vao_traced(&mut objs, eps, config, meter, obs),
                    _ => {
                        let k = objs.len().div_ceil(2);
                        quantile_vao_traced(&mut objs, k, eps, config, meter, obs)
                    }
                }?;
                Ok(QueryOutput::Extreme {
                    bond_id: self.bond_id(res.argext),
                    bounds: res.bounds,
                    ties: res.ties.iter().map(|&i| self.bond_id(i)).collect(),
                })
            }
            Query::Sum { epsilon, .. } | Query::Ave { epsilon } => {
                let mut objs = self.objects(rate, meter);
                // AVE is the weighted sum with weights 1/n (`ave_vao`).
                let uniform = vec![1.0 / objs.len().max(1) as f64; objs.len()];
                let weights = match &self.query {
                    Query::Sum { weights, .. } => weights,
                    _ => &uniform,
                };
                let eps = PrecisionConstraint::new(*epsilon)?;
                let res = weighted_sum_vao_traced(&mut objs, weights, eps, config, meter, obs)?;
                Ok(QueryOutput::Aggregate { bounds: res.bounds })
            }
            Query::TopK { k, epsilon } => {
                let mut objs = self.objects(rate, meter);
                let eps = PrecisionConstraint::new(*epsilon)?;
                let res = topk_vao_traced(&mut objs, *k, eps, config, meter, obs)?;
                Ok(QueryOutput::Ranked {
                    members: res
                        .members
                        .iter()
                        .zip(&res.bounds)
                        .map(|(&i, &b)| (self.bond_id(i), b))
                        .collect(),
                    ties: res.ties.iter().map(|&i| self.bond_id(i)).collect(),
                })
            }
            Query::Count {
                op,
                constant,
                slack,
            } => {
                let mut objs = self.objects(rate, meter);
                let res = count_vao_traced(&mut objs, *op, *constant, *slack, config, meter, obs)?;
                Ok(QueryOutput::Count {
                    lo: res.count_lo,
                    hi: res.count_hi,
                })
            }
            Query::Percentile { phi, epsilon } => {
                let mut objs = self.objects(rate, meter);
                let eps = PrecisionConstraint::new(*epsilon)?;
                let res = percentile_vao_traced(&mut objs, *phi, eps, config, meter, obs)?;
                Ok(QueryOutput::Aggregate { bounds: res.bounds })
            }
            Query::HeavyHitters { k, epsilon } => {
                let mut objs = self.objects(rate, meter);
                let eps = PrecisionConstraint::new(*epsilon)?;
                let res = heavy_hitters_vao_traced(&mut objs, *k, eps, config, meter, obs)?;
                Ok(QueryOutput::Heavy {
                    cells: res.cells,
                    ties: res.ties,
                })
            }
        }
    }

    /// Hybrid mode: SUM dispatches on the §6.3 decision rule; everything
    /// else runs adaptively.
    fn eval_hybrid(
        &self,
        rate: f64,
        meter: &mut WorkMeter,
        obs: &mut TickObserver,
    ) -> Result<QueryOutput, EngineError> {
        match &self.query {
            Query::Sum { weights, epsilon } => {
                let mut off_clock = WorkMeter::new();
                let specs: Vec<BlackBoxSpec> = self
                    .relation
                    .bonds()
                    .iter()
                    .map(|&bond| {
                        let mut obj = self.pricer.invoke(&(rate, bond), &mut off_clock);
                        calibrate(&mut obj, &mut off_clock)
                    })
                    .collect::<Result<_, _>>()?;
                let mut objs = self.objects(rate, meter);
                let (res, _decision) = hybrid_weighted_sum_traced(
                    &mut objs,
                    weights,
                    &specs,
                    PrecisionConstraint::new(*epsilon)?,
                    &HybridConfig::default(),
                    &mut AggregateConfig::default(),
                    meter,
                    obs,
                )?;
                Ok(QueryOutput::Aggregate { bounds: res.bounds })
            }
            _ => self.eval_vao(rate, meter, obs),
        }
    }

    /// Calibrates every bond at this rate off the clock (the paper's
    /// favorable black-box setup) and evaluates with traditional operators.
    fn eval_traditional(
        &self,
        rate: f64,
        meter: &mut WorkMeter,
    ) -> Result<QueryOutput, EngineError> {
        let mut off_clock = WorkMeter::new();
        let specs: Vec<BlackBoxSpec> = self
            .relation
            .bonds()
            .iter()
            .map(|&bond| {
                let mut obj = self.pricer.invoke(&(rate, bond), &mut off_clock);
                calibrate(&mut obj, &mut off_clock)
            })
            .collect::<Result<_, _>>()?;

        match &self.query {
            Query::Selection { op, constant } => {
                let hits = traditional_select(&specs, *op, *constant, meter);
                Ok(QueryOutput::Selected(
                    hits.into_iter().map(|i| self.bond_id(i)).collect(),
                ))
            }
            Query::Max { .. } => {
                let (i, v) = traditional_max(&specs, meter)?;
                Ok(QueryOutput::Extreme {
                    bond_id: self.bond_id(i),
                    bounds: Bounds::point(v),
                    ties: Vec::new(),
                })
            }
            Query::Min { .. } => {
                let (i, v) = traditional_min(&specs, meter)?;
                Ok(QueryOutput::Extreme {
                    bond_id: self.bond_id(i),
                    bounds: Bounds::point(v),
                    ties: Vec::new(),
                })
            }
            Query::Sum { weights, .. } => {
                let v = traditional_weighted_sum(&specs, weights, meter)?;
                Ok(QueryOutput::Aggregate {
                    bounds: Bounds::point(v),
                })
            }
            Query::Ave { .. } => {
                let weights = vec![1.0 / specs.len().max(1) as f64; specs.len()];
                let v = traditional_weighted_sum(&specs, &weights, meter)?;
                Ok(QueryOutput::Aggregate {
                    bounds: Bounds::point(v),
                })
            }
            Query::TopK { k, .. } => {
                if specs.is_empty() || *k == 0 || *k > specs.len() {
                    return Err(EngineError::Operator(VaoError::EmptyInput));
                }
                let mut idx: Vec<usize> = (0..specs.len()).collect();
                idx.sort_by(|&a, &b| {
                    specs[b]
                        .value
                        .partial_cmp(&specs[a].value)
                        .expect("finite prices")
                });
                // Charge the black-box work for every model, as always
                // (the other arms charge it inside the traditional
                // operators; here the specs are read directly).
                for s in &specs {
                    meter.charge_exec(s.work);
                }
                Ok(QueryOutput::Ranked {
                    members: idx
                        .iter()
                        .take(*k)
                        .map(|&i| (self.bond_id(i), Bounds::point(specs[i].value)))
                        .collect(),
                    ties: Vec::new(),
                })
            }
            Query::Count { op, constant, .. } => {
                let hits = traditional_select(&specs, *op, *constant, meter);
                Ok(QueryOutput::Count {
                    lo: hits.len(),
                    hi: hits.len(),
                })
            }
            Query::Median { .. } | Query::Percentile { .. } => {
                if specs.is_empty() {
                    return Err(EngineError::Operator(VaoError::EmptyInput));
                }
                let k = match &self.query {
                    Query::Percentile { phi, .. } => rank_from_top(*phi, specs.len()),
                    _ => specs.len().div_ceil(2),
                };
                let mut idx: Vec<usize> = (0..specs.len()).collect();
                idx.sort_by(|&a, &b| specs[b].value.total_cmp(&specs[a].value));
                for s in &specs {
                    meter.charge_exec(s.work);
                }
                let winner = idx[k - 1];
                let point = Bounds::point(specs[winner].value);
                match &self.query {
                    Query::Percentile { .. } => Ok(QueryOutput::Aggregate { bounds: point }),
                    _ => Ok(QueryOutput::Extreme {
                        bond_id: self.bond_id(winner),
                        bounds: point,
                        ties: Vec::new(),
                    }),
                }
            }
            Query::HeavyHitters { k, epsilon } => {
                if specs.is_empty() || *k == 0 {
                    return Err(EngineError::Operator(VaoError::EmptyInput));
                }
                for s in &specs {
                    meter.charge_exec(s.work);
                }
                let mut counts: std::collections::BTreeMap<i64, u64> =
                    std::collections::BTreeMap::new();
                for s in &specs {
                    *counts.entry(cell_of(s.value, *epsilon)).or_default() += 1;
                }
                let mut ranked: Vec<HeavyCell> = counts
                    .into_iter()
                    .map(|(cell, count)| HeavyCell { cell, count })
                    .collect();
                ranked.sort_by(|a, b| b.count.cmp(&a.count).then(a.cell.cmp(&b.cell)));
                let take = (*k).min(ranked.len());
                let boundary = ranked[take - 1].count;
                let ties: Vec<i64> = ranked[take..]
                    .iter()
                    .take_while(|c| c.count == boundary)
                    .map(|c| c.cell)
                    .collect();
                ranked.truncate(take);
                Ok(QueryOutput::Heavy {
                    cells: ranked,
                    ties,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bondlab::BondUniverse;
    use vao::ops::selection::CmpOp;

    fn small_engine(query: Query, mode: ExecutionMode) -> ContinuousQueryEngine {
        let universe = BondUniverse::generate(8, 42);
        ContinuousQueryEngine::new(
            BondPricer::default(),
            BondRelation::from_universe(&universe),
            query,
            mode,
        )
    }

    #[test]
    fn selection_modes_agree_on_answers() {
        let q = Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        };
        let (vao_out, vao_stats) = small_engine(q.clone(), ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (trad_out, trad_stats) = small_engine(q, ExecutionMode::Traditional)
            .process_rate(0.0583)
            .unwrap();
        assert_eq!(vao_out, trad_out);
        assert!(
            vao_stats.total_work() < trad_stats.total_work(),
            "VAO {} vs traditional {}",
            vao_stats.total_work(),
            trad_stats.total_work()
        );
    }

    #[test]
    fn max_modes_agree_on_the_winner() {
        let q = Query::Max { epsilon: 0.01 };
        let (vao_out, _) = small_engine(q.clone(), ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (trad_out, _) = small_engine(q, ExecutionMode::Traditional)
            .process_rate(0.0583)
            .unwrap();
        let (a, vb, _) = vao_out.as_extreme().expect("vao max output shape");
        let (b, tb, _) = trad_out.as_extreme().expect("traditional max output shape");
        assert_eq!(a, b);
        // The traditional point value must lie within (or within a cent of)
        // the VAO's bounds.
        assert!(vb.lo() - 0.01 <= tb.mid() && tb.mid() <= vb.hi() + 0.01);
    }

    #[test]
    fn sum_bounds_cover_traditional_value() {
        let n = 8;
        let q = Query::Sum {
            weights: vec![1.0; n],
            epsilon: n as f64 * 0.01,
        };
        let (vao_out, _) = small_engine(q.clone(), ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (trad_out, _) = small_engine(q, ExecutionMode::Traditional)
            .process_rate(0.0583)
            .unwrap();
        let v = trad_out.bounds().unwrap().mid();
        let b = vao_out.bounds().unwrap();
        assert!(
            b.lo() - 0.1 <= v && v <= b.hi() + 0.1,
            "sum bounds {b} vs traditional {v}"
        );
        assert!(b.width() <= 8.0 * 0.01 + 1e-9);
    }

    #[test]
    fn min_is_not_max() {
        let (min_out, _) = small_engine(Query::Min { epsilon: 0.01 }, ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (max_out, _) = small_engine(Query::Max { epsilon: 0.01 }, ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (_, bmin, _) = min_out.as_extreme().expect("min output shape");
        let (_, bmax, _) = max_out.as_extreme().expect("max output shape");
        assert!(bmin.hi() < bmax.lo(), "min {bmin} vs max {bmax}");
    }

    #[test]
    fn run_processes_every_tick() {
        let engine = small_engine(
            Query::Selection {
                op: CmpOp::Gt,
                constant: 100.0,
            },
            ExecutionMode::Vao,
        );
        let ticks = vec![
            RateTick {
                minutes: 0.0,
                rate: 0.0583,
            },
            RateTick {
                minutes: 2.0,
                rate: 0.0590,
            },
        ];
        let results = engine.run(&ticks).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1.rate, 0.0583);
        assert_eq!(results[1].1.rate, 0.0590);
    }

    #[test]
    fn topk_modes_agree_on_the_ranking() {
        // eps loose enough that VAO can stop refining once the top three
        // separate; at 0.01 the whole universe converges and the work
        // comparison below degenerates to a coin flip over the seed.
        let q = Query::TopK {
            k: 3,
            epsilon: 0.05,
        };
        let (vao_out, vao_stats) = small_engine(q.clone(), ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (trad_out, trad_stats) = small_engine(q, ExecutionMode::Traditional)
            .process_rate(0.0583)
            .unwrap();
        let (vm, _) = vao_out.as_ranked().expect("vao topk output shape");
        let (tm, _) = trad_out.as_ranked().expect("traditional topk output shape");
        let vao_ids: Vec<u32> = vm.iter().map(|(id, _)| *id).collect();
        let trad_ids: Vec<u32> = tm.iter().map(|(id, _)| *id).collect();
        assert_eq!(vao_ids, trad_ids);
        assert!(vao_stats.total_work() < trad_stats.total_work());
    }

    #[test]
    fn count_modes_agree_when_exact() {
        let q = Query::Count {
            op: CmpOp::Gt,
            constant: 100.0,
            slack: 0,
        };
        let (vao_out, _) = small_engine(q.clone(), ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let (trad_out, _) = small_engine(q, ExecutionMode::Traditional)
            .process_rate(0.0583)
            .unwrap();
        let (vl, vh) = vao_out.as_count().expect("vao count output shape");
        let (tl, _) = trad_out.as_count().expect("traditional count output shape");
        assert_eq!(vl, vh, "slack 0 gives an exact count");
        assert_eq!(vl, tl);
    }

    #[test]
    fn output_shape_mismatch_is_a_typed_error() {
        // The exact path the old `panic!("wrong output shapes")` sites
        // guarded: a max query answered with an Extreme output, interrogated
        // for the wrong shape.
        let (out, _) = small_engine(Query::Max { epsilon: 0.01 }, ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let err = out.as_ranked().unwrap_err();
        assert_eq!(
            err,
            EngineError::OutputShape {
                expected: "ranked",
                got: "extreme",
            }
        );
        assert_eq!(
            err.to_string(),
            "wrong output shape: expected ranked, got extreme"
        );
        // The matching accessor still succeeds.
        assert!(out.as_extreme().is_ok());
    }

    #[test]
    fn hybrid_mode_answers_sum_like_the_others() {
        let n = 8;
        let q = Query::Sum {
            weights: vec![1.0; n],
            epsilon: n as f64 * 0.01 * (1.0 + 1e-9),
        };
        let (hybrid_out, _) = small_engine(q.clone(), ExecutionMode::Hybrid)
            .process_rate(0.0583)
            .unwrap();
        let (vao_out, _) = small_engine(q, ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let hb = hybrid_out.bounds().unwrap();
        let vb = vao_out.bounds().unwrap();
        // Both bound the same true sum: the intervals must overlap.
        assert!(hb.overlaps(&vb), "{hb} vs {vb}");
    }

    #[test]
    fn every_query_kind_is_traced_in_vao_mode() {
        let n = 8;
        let eps = 0.05;
        let queries = [
            Query::Selection {
                op: CmpOp::Gt,
                constant: 100.0,
            },
            Query::Sum {
                weights: vec![1.0; n],
                epsilon: n as f64 * eps,
            },
            Query::Ave { epsilon: eps },
            Query::Max { epsilon: eps },
            Query::Min { epsilon: eps },
            Query::TopK { k: 3, epsilon: eps },
            Query::Count {
                op: CmpOp::Gt,
                constant: 100.0,
                slack: 0,
            },
            Query::Median { epsilon: eps },
            Query::Percentile {
                phi: 0.5,
                epsilon: eps,
            },
            Query::HeavyHitters { k: 2, epsilon: 1.0 },
        ];
        for q in queries {
            let (_, stats) = small_engine(q.clone(), ExecutionMode::Vao)
                .process_rate(0.0583)
                .unwrap();
            let op = stats.operator;
            assert_eq!(op, q.operator_name());
            assert!(stats.iterations > 0, "{op} must have refined something");
            // Every object of every operator evaluation is accounted for
            // (selection: n evaluations of one object each) ...
            assert_eq!(stats.objects, n as u64, "{op} objects");
            assert_eq!(stats.iter_histogram.total_objects(), stats.objects, "{op}");
            // ... and so is every iterate() call the meter counted.
            assert_eq!(
                stats.cpu_est.iterations, stats.iterations,
                "{op} iterations"
            );
        }
    }

    #[test]
    fn ave_query_produces_tight_bounds() {
        let (out, _) = small_engine(Query::Ave { epsilon: 0.02 }, ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let b = out.bounds().unwrap();
        assert!(b.width() <= 0.02 + 1e-12);
        assert!((80.0..130.0).contains(&b.mid()), "average {b}");
    }
}
