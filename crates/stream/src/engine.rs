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
use vao::ops::heavy::heavy_hitters_vao_traced;
use vao::ops::minmax::{max_vao_traced, min_vao_traced, AggregateConfig};
use vao::ops::percentile::percentile_vao_traced;
use vao::ops::quantile::quantile_vao_traced;
use vao::ops::selection::SelectionVao;
use vao::ops::sum::{ave_weight, validate_weights, weighted_sum_vao_traced};
use vao::ops::topk::topk_vao_traced;
use vao::ops::traditional::{black_box_call, calibrate, BlackBoxSpec};
use vao::precision::PrecisionConstraint;
use vao::trace::NoopObserver;

use crate::query::{Query, QueryOutput};
use crate::relation::BondRelation;
use crate::stats::TickStats;

/// How the engine executes model calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Variable-accuracy operators (the paper's contribution).
    Vao,
    /// Black-box functions + conventional operators (the baseline).
    Traditional,
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
    pub fn process_rate(&self, rate: f64) -> Result<(QueryOutput, TickStats), EngineError> {
        let start = Instant::now();
        let mut meter = WorkMeter::new();
        let output = match self.mode {
            ExecutionMode::Vao => self.eval_vao(rate, &mut meter)?,
            ExecutionMode::Traditional => self.eval_traditional(rate, &mut meter)?,
        };
        let stats = TickStats {
            rate,
            work: meter.breakdown(),
            wall: start.elapsed(),
            iterations: meter.iterations(),
        };
        Ok((output, stats))
    }

    /// Processes a stream of ticks in arrival order.
    pub fn run(&self, ticks: &[RateTick]) -> Result<Vec<(QueryOutput, TickStats)>, EngineError> {
        ticks.iter().map(|t| self.process_rate(t.rate)).collect()
    }

    /// The relation's result objects at `rate`, priced in one relation-wide
    /// [`BondPricer::price_many`].
    fn objects(&self, rate: f64, meter: &mut WorkMeter) -> Vec<Box<dyn ResultObject + Send>> {
        self.pricer
            .price_many(self.relation.bonds(), rate, meter)
            .into_iter()
            .map(|obj| Box::new(obj) as Box<dyn ResultObject + Send>)
            .collect()
    }

    /// Adaptive mode: the query's operator refines the objects until its
    /// stopping condition holds; the answer is [`Query::output`] over them.
    fn eval_vao(&self, rate: f64, meter: &mut WorkMeter) -> Result<QueryOutput, EngineError> {
        let config = &mut AggregateConfig::default();
        let obs = &mut NoopObserver;
        let eps = PrecisionConstraint::new;
        let mut objs;
        match &self.query {
            // The paper's pipelined selection: one object at a time, each
            // dropped once decided, so there is no set to read an answer off.
            Query::Selection { op, constant } => {
                let vao = SelectionVao::new(*op, *constant)?;
                let mut selected = Vec::new();
                for bond in self.relation.bonds() {
                    let mut obj = self.pricer.invoke(&(rate, *bond), meter);
                    if vao.evaluate_traced(&mut obj, meter, obs)?.satisfied {
                        selected.push(bond.id);
                    }
                }
                return Ok(QueryOutput::Selected(selected));
            }
            Query::Max { epsilon } => {
                objs = self.objects(rate, meter);
                max_vao_traced(&mut objs, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::Min { epsilon } => {
                objs = self.objects(rate, meter);
                min_vao_traced(&mut objs, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::Median { epsilon } => {
                objs = self.objects(rate, meter);
                let k = objs.len().div_ceil(2);
                quantile_vao_traced(&mut objs, k, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::Sum { weights, epsilon } => {
                objs = self.objects(rate, meter);
                weighted_sum_vao_traced(&mut objs, weights, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::Ave { epsilon } => {
                objs = self.objects(rate, meter);
                let weights = vec![ave_weight(objs.len()); objs.len()];
                weighted_sum_vao_traced(&mut objs, &weights, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::TopK { k, epsilon } => {
                objs = self.objects(rate, meter);
                topk_vao_traced(&mut objs, *k, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::Count {
                op,
                constant,
                slack,
            } => {
                objs = self.objects(rate, meter);
                count_vao_traced(&mut objs, *op, *constant, *slack, config, meter, obs)?;
            }
            Query::Percentile { phi, epsilon } => {
                objs = self.objects(rate, meter);
                percentile_vao_traced(&mut objs, *phi, eps(*epsilon)?, config, meter, obs)?;
            }
            Query::HeavyHitters { k, epsilon } => {
                objs = self.objects(rate, meter);
                heavy_hitters_vao_traced(&mut objs, *k, eps(*epsilon)?, config, meter, obs)?;
            }
        }
        Ok(self.query.output(&objs[..], &self.relation))
    }

    /// Calibrates every bond at this rate off the clock (the paper's
    /// favorable black-box setup), charges one black-box call per bond, and
    /// answers with the conventional operator: [`Query::output`] over the
    /// values, each a result object already at its final accuracy.
    fn eval_traditional(
        &self,
        rate: f64,
        meter: &mut WorkMeter,
    ) -> Result<QueryOutput, EngineError> {
        let mut off_clock = WorkMeter::new();
        let specs: Vec<BlackBoxSpec> = self
            .pricer
            .price_many(self.relation.bonds(), rate, &mut off_clock)
            .into_iter()
            .map(|mut obj| calibrate(&mut obj, &mut off_clock))
            .collect::<Result<_, _>>()?;
        let n = specs.len();
        if let Query::Sum { weights, .. } = &self.query {
            validate_weights(n, weights)?;
        }
        let answerable = match &self.query {
            Query::Selection { .. } | Query::Count { .. } => true,
            Query::TopK { k, .. } => (1..=n).contains(k),
            Query::HeavyHitters { k, .. } => n > 0 && *k > 0,
            _ => n > 0,
        };
        if !answerable {
            return Err(VaoError::EmptyInput.into());
        }
        for spec in &specs {
            black_box_call(spec, meter);
        }
        Ok(self.query.output(&specs[..], &self.relation))
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
    fn ave_query_produces_tight_bounds() {
        let (out, _) = small_engine(Query::Ave { epsilon: 0.02 }, ExecutionMode::Vao)
            .process_rate(0.0583)
            .unwrap();
        let b = out.bounds().unwrap();
        assert!(b.width() <= 0.02 + 1e-12);
        assert!((80.0..130.0).contains(&b.mid()), "average {b}");
    }
}
