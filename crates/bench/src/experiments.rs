//! Drivers regenerating every table and figure of §6.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bondlab::{BondUniverse, RateSeries};
use va_server::net::FrontEnd;
use va_server::{arbitrate_budget, proto, Server, ServerConfig, TickResult, DEFAULT_RELATION};
use va_stream::casper::CachedSelectionEngine;
use va_stream::{BondRelation, ContinuousQueryEngine, ExecutionMode, Query, QueryOutput};
use vao::cost::WorkMeter;
use vao::ops::hybrid::{hybrid_weighted_sum, HybridChoice, HybridConfig};
use vao::ops::minmax::{max_vao, max_vao_traced, max_vao_with, AggregateConfig};
use vao::ops::oracle::oracle_max;
use vao::ops::percentile::rank_from_top;
use vao::ops::selection::{CmpOp, SelectionVao};
use vao::ops::sum::{weighted_sum_vao, weighted_sum_vao_with};
use vao::ops::sum_heap::weighted_sum_vao_heap;
use vao::ops::traditional::{traditional_max, traditional_weighted_sum};
use vao::precision::PrecisionConstraint;
use vao::strategy::ChoicePolicy;
use vao::trace::{CpuEstimation, Recorder};

use crate::report::{fmt_speedup, Table, TraceWriter};

use va_workloads::{
    constant_for_selectivity, HotColdWeights, SyntheticMapping, TargetDistribution,
};

use crate::setup::Lab;

/// The default selectivity sweep of Figures 8–9.
pub const SELECTIVITIES: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// The default σ sweep (dollars) of Figures 10–11, including the σ = 0
/// pathological point.
pub const STD_DEVS: [f64; 7] = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

/// The hot-weight shares of Figure 12.
pub const HOT_SHARES: [f64; 6] = [0.10, 0.30, 0.50, 0.70, 0.90, 0.99];

/// One point of a selectivity sweep (Figures 8–9).
#[derive(Clone, Copy, Debug)]
pub struct SelectivityRow {
    /// Target selectivity.
    pub selectivity: f64,
    /// The derived selection constant.
    pub constant: f64,
    /// Tuples that satisfied the predicate.
    pub selected: usize,
    /// VAO work units.
    pub vao_work: u64,
    /// Traditional work units (query-independent).
    pub trad_work: u64,
    /// VAO wall time.
    pub vao_wall: Duration,
    /// Result objects (bonds) the VAO evaluated.
    pub objects: usize,
    /// `estCPU` estimation error over this point's `iterate()` calls.
    pub cpu_est: CpuEstimation,
}

impl SelectivityRow {
    /// Traditional-over-VAO work ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.trad_work as f64 / self.vao_work.max(1) as f64
    }

    /// Total `iterate()` calls at this sweep point.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.cpu_est.iterations
    }

    /// Mean `iterate()` calls per result object.
    #[must_use]
    pub fn mean_iterations_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.cpu_est.iterations as f64 / self.objects as f64
        }
    }
}

/// `fig8_selection_gt.csv` / `fig9_selection_lt.csv`.
#[must_use]
pub fn selection_table(rows: &[SelectivityRow]) -> Table {
    Table::of(
        "selectivity,constant,selected,vao_work,trad_work,speedup,vao_wall_ms,iterations,\
         iters_per_obj,cpu_mae,cpu_mape_pct",
        rows,
        |r| {
            vec![
                format!("{:.2}", r.selectivity),
                format!("{:.2}", r.constant),
                r.selected.to_string(),
                r.vao_work.to_string(),
                r.trad_work.to_string(),
                fmt_speedup(r.speedup()),
                format!("{:.1}", r.vao_wall.as_secs_f64() * 1e3),
                r.iterations().to_string(),
                format!("{:.2}", r.mean_iterations_per_object()),
                format!("{:.1}", r.cpu_est.mean_abs_error),
                format!("{:.2}", r.cpu_est.mean_abs_pct_error * 100.0),
            ]
        },
    )
}

/// Runs one selection query over fresh VAO objects, returning
/// (selected count, work, wall).
pub fn run_selection_vao(lab: &Lab, op: CmpOp, constant: f64) -> (usize, u64, Duration) {
    let mut rec = Recorder::new();
    run_selection_vao_recorded(lab, op, constant, &mut rec)
}

/// [`run_selection_vao`] capturing the execution trace into `rec` (one
/// selection operator start/end pair per bond, each bond as object 0).
pub fn run_selection_vao_recorded(
    lab: &Lab,
    op: CmpOp,
    constant: f64,
    rec: &mut Recorder,
) -> (usize, u64, Duration) {
    let start = Instant::now();
    let mut meter = WorkMeter::new();
    let vao = SelectionVao::new(op, constant).expect("finite constant");
    let mut selected = 0;
    for &bond in lab.universe.bonds() {
        let mut obj = lab.pricer.price(bond, lab.rate, &mut meter);
        let out = vao
            .evaluate_traced(&mut obj, &mut meter, rec)
            .expect("selection converges");
        if out.satisfied {
            selected += 1;
        }
    }
    (selected, meter.total(), start.elapsed())
}

/// Figure 8 (`>` predicate) or Figure 9 (`<` predicate): runtimes across a
/// selectivity sweep, VAO vs traditional.
pub fn selection_sweep(lab: &Lab, op: CmpOp, selectivities: &[f64]) -> Vec<SelectivityRow> {
    selection_sweep_traced(lab, op, selectivities, None)
}

/// [`selection_sweep`] optionally dumping each sweep point's full event
/// stream to a JSONL trace (run label `selection_<op>:s=<selectivity>`).
pub fn selection_sweep_traced(
    lab: &Lab,
    op: CmpOp,
    selectivities: &[f64],
    mut trace: Option<&mut TraceWriter>,
) -> Vec<SelectivityRow> {
    let trad_work = lab.traditional_work();
    let op_tag = match op {
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
    };
    selectivities
        .iter()
        .map(|&s| {
            let constant = constant_for_selectivity(&lab.converged, op, s);
            let mut rec = Recorder::new();
            let (selected, vao_work, vao_wall) =
                run_selection_vao_recorded(lab, op, constant, &mut rec);
            if let Some(w) = trace.as_deref_mut() {
                w.run(&format!("selection_{op_tag}:s={s:.2}"), rec.events())
                    .expect("write trace");
            }
            SelectivityRow {
                selectivity: s,
                constant,
                selected,
                vao_work,
                trad_work,
                vao_wall,
                objects: lab.len(),
                cpu_est: rec.cpu_estimation(),
            }
        })
        .collect()
}

/// One point of a synthetic stress sweep (Figures 10–11).
#[derive(Clone, Copy, Debug)]
pub struct StressRow {
    /// Distribution standard deviation (dollars).
    pub std_dev: f64,
    /// VAO work units.
    pub vao_work: u64,
    /// Traditional work units.
    pub trad_work: u64,
    /// VAO wall time.
    pub vao_wall: Duration,
}

impl StressRow {
    /// Traditional-over-VAO work ratio (< 1 means the VAO lost).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.trad_work as f64 / self.vao_work.max(1) as f64
    }
}

/// `fig10_selection_stress.csv` / `fig11_max_stress.csv`.
#[must_use]
pub fn stress_table(rows: &[StressRow]) -> Table {
    Table::of(
        "std_dev,vao_work,trad_work,speedup,vao_wall_ms",
        rows,
        |r| {
            vec![
                format!("{:.2}", r.std_dev),
                r.vao_work.to_string(),
                r.trad_work.to_string(),
                fmt_speedup(r.speedup()),
                format!("{:.1}", r.vao_wall.as_secs_f64() * 1e3),
            ]
        },
    )
}

/// Figure 10: selection stress. Gaussian result distributions centered on
/// the selection constant, σ sweeping from the pathological 0 upward.
pub fn fig10_selection_stress(lab: &Lab, std_devs: &[f64], seed: u64) -> Vec<StressRow> {
    let constant = 100.0;
    std_devs
        .iter()
        .map(|&std_dev| {
            let mapping = SyntheticMapping::generate(
                &lab.converged,
                TargetDistribution::Gaussian {
                    mean: constant,
                    std_dev,
                },
                seed,
            );
            let trad_work: u64 = lab.synthetic_specs(&mapping).iter().map(|s| s.work).sum();
            let start = Instant::now();
            let mut meter = WorkMeter::new();
            let vao = SelectionVao::new(CmpOp::Gt, constant).expect("finite constant");
            for (i, &bond) in lab.universe.bonds().iter().enumerate() {
                let mut obj = mapping.wrap(i, lab.pricer.price(bond, lab.rate, &mut meter));
                vao.evaluate(&mut obj, &mut meter)
                    .expect("selection converges");
            }
            StressRow {
                std_dev,
                vao_work: meter.total(),
                trad_work,
                vao_wall: start.elapsed(),
            }
        })
        .collect()
}

/// One row of the §6.2 MAX runtime table.
#[derive(Clone, Copy, Debug)]
pub struct MaxTableRow {
    /// Operator name: "Optimal", "VAO" or "Traditional".
    pub operator: &'static str,
    /// Work units.
    pub work: u64,
    /// Wall time.
    pub wall: Duration,
    /// `iterate()` calls (0 for Traditional).
    pub iterations: u64,
    /// Result objects evaluated.
    pub objects: usize,
    /// `estCPU` estimation error (only the traced VAO row is non-zero;
    /// Optimal and Traditional run untraced).
    pub cpu_est: CpuEstimation,
}

impl MaxTableRow {
    /// Mean `iterate()` calls per result object.
    #[must_use]
    pub fn mean_iterations_per_object(&self) -> f64 {
        if self.objects == 0 {
            0.0
        } else {
            self.iterations as f64 / self.objects as f64
        }
    }
}

/// `max_table.csv`.
#[must_use]
pub fn max_rows_table(rows: &[MaxTableRow]) -> Table {
    Table::of(
        "operator,work,wall_ms,iterations,iters_per_obj,cpu_mae,cpu_mape_pct",
        rows,
        |r| {
            vec![
                r.operator.to_string(),
                r.work.to_string(),
                format!("{:.1}", r.wall.as_secs_f64() * 1e3),
                r.iterations.to_string(),
                format!("{:.2}", r.mean_iterations_per_object()),
                format!("{:.1}", r.cpu_est.mean_abs_error),
                format!("{:.2}", r.cpu_est.mean_abs_pct_error * 100.0),
            ]
        },
    )
}

/// The §6.2 table: Optimal vs VAO vs Traditional on the real-data MAX
/// query, all returning bounds within ε = \$0.01.
pub fn max_table(lab: &Lab) -> Vec<MaxTableRow> {
    max_table_traced(lab, None)
}

/// [`max_table`] optionally dumping the VAO row's full event stream to a
/// JSONL trace (run label `max_table:vao`).
pub fn max_table_traced(lab: &Lab, trace: Option<&mut TraceWriter>) -> Vec<MaxTableRow> {
    let eps = PrecisionConstraint::new(0.01).expect("valid epsilon");

    // Optimal: knows the argmax a priori.
    let true_argmax = lab
        .converged
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite prices"))
        .map(|(i, _)| i)
        .expect("non-empty lab");
    let start = Instant::now();
    let mut meter = WorkMeter::new();
    let mut objs = lab.objects(&mut meter);
    let opt_res = oracle_max(&mut objs, true_argmax, eps, &mut meter).expect("oracle converges");
    let optimal = MaxTableRow {
        operator: "Optimal",
        work: meter.total(),
        wall: start.elapsed(),
        iterations: opt_res.iterations,
        objects: lab.len(),
        cpu_est: CpuEstimation::default(),
    };

    // VAO (traced: the recorder captures the full scheduling trace).
    let start = Instant::now();
    let mut meter = WorkMeter::new();
    let mut objs = lab.objects(&mut meter);
    let mut rec = Recorder::new();
    let vao_res = max_vao_traced(
        &mut objs,
        eps,
        &mut AggregateConfig::default(),
        &mut meter,
        &mut rec,
    )
    .expect("max vao converges");
    // With many bonds, the top two can sit within minWidth of each other;
    // any tie-winner within a cent of the true maximum is a correct answer.
    assert!(
        (lab.converged[vao_res.argext] - lab.converged[true_argmax]).abs() <= 0.02,
        "VAO winner {} (${}) vs oracle winner {} (${})",
        vao_res.argext,
        lab.converged[vao_res.argext],
        true_argmax,
        lab.converged[true_argmax]
    );
    let vao = MaxTableRow {
        operator: "VAO",
        work: meter.total(),
        wall: start.elapsed(),
        iterations: vao_res.iterations,
        objects: lab.len(),
        cpu_est: rec.cpu_estimation(),
    };
    if let Some(w) = trace {
        w.run("max_table:vao", rec.events()).expect("write trace");
    }

    // Traditional.
    let start = Instant::now();
    let mut meter = WorkMeter::new();
    let (trad_argmax, _) = traditional_max(&lab.specs, &mut meter).expect("non-empty");
    assert_eq!(
        trad_argmax, true_argmax,
        "specs and converged agree on argmax"
    );
    let traditional = MaxTableRow {
        operator: "Traditional",
        work: meter.total(),
        wall: start.elapsed(),
        iterations: 0,
        objects: lab.len(),
        cpu_est: CpuEstimation::default(),
    };

    vec![optimal, vao, traditional]
}

/// Figure 11: MAX stress. Results drawn from the lower half of a Gaussian
/// (clustered under the maximum), σ sweeping from the pathological 0.
pub fn fig11_max_stress(lab: &Lab, std_devs: &[f64], seed: u64) -> Vec<StressRow> {
    let eps = PrecisionConstraint::new(0.01).expect("valid epsilon");
    std_devs
        .iter()
        .map(|&std_dev| {
            let mapping = SyntheticMapping::generate(
                &lab.converged,
                TargetDistribution::LowerHalfGaussian {
                    max: 100.0,
                    std_dev,
                },
                seed,
            );
            let trad_work: u64 = lab.synthetic_specs(&mapping).iter().map(|s| s.work).sum();
            let start = Instant::now();
            let mut meter = WorkMeter::new();
            let mut objs = lab.synthetic_objects(&mapping, &mut meter);
            max_vao(&mut objs, eps, &mut meter).expect("max vao converges");
            StressRow {
                std_dev,
                vao_work: meter.total(),
                trad_work,
                vao_wall: start.elapsed(),
            }
        })
        .collect()
}

/// One point of the Figure-12 hot–cold sweep.
#[derive(Clone, Copy, Debug)]
pub struct HotColdRow {
    /// Fraction of total weight on the hot set.
    pub hot_share: f64,
    /// SUM VAO work units.
    pub vao_work: u64,
    /// Traditional work units.
    pub trad_work: u64,
    /// Hybrid operator work units (extension).
    pub hybrid_work: u64,
    /// Which path the hybrid chose.
    pub hybrid_choice: HybridChoice,
    /// VAO wall time.
    pub vao_wall: Duration,
}

impl HotColdRow {
    /// Traditional-over-VAO work ratio (< 1 means traditional won).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.trad_work as f64 / self.vao_work.max(1) as f64
    }
}

/// `fig12_sum_hotcold.csv`.
#[must_use]
pub fn hot_cold_table(rows: &[HotColdRow]) -> Table {
    Table::of(
        "hot_share,vao_work,trad_work,speedup,hybrid_work,hybrid_choice,vao_wall_ms",
        rows,
        |r| {
            vec![
                format!("{:.0}%", r.hot_share * 100.0),
                r.vao_work.to_string(),
                r.trad_work.to_string(),
                fmt_speedup(r.speedup()),
                r.hybrid_work.to_string(),
                match r.hybrid_choice {
                    HybridChoice::Vao => "vao".to_string(),
                    HybridChoice::Traditional => "traditional".to_string(),
                },
                format!("{:.1}", r.vao_wall.as_secs_f64() * 1e3),
            ]
        },
    )
}

/// Figure 12: SUM with hot–cold weights. Total weight = n, hot set = 10 %
/// of bonds, ε = n·\$0.01 (the paper's 500·\$.01 = \$5), sweeping the hot
/// set's weight share. Also runs the §6.3 hybrid extension.
pub fn fig12_sum_hotcold(lab: &Lab, hot_shares: &[f64], seed: u64) -> Vec<HotColdRow> {
    let n = lab.len();
    let eps = PrecisionConstraint::new(n as f64 * 0.01 * (1.0 + 1e-9)).expect("valid epsilon");
    hot_shares
        .iter()
        .map(|&hot_share| {
            let weights = HotColdWeights::paper_scheme(n, hot_share, seed);

            // Traditional runs every model regardless of weights.
            let mut trad_meter = WorkMeter::new();
            traditional_weighted_sum(&lab.specs, weights.weights(), &mut trad_meter)
                .expect("weights valid");

            // SUM VAO.
            let start = Instant::now();
            let mut meter = WorkMeter::new();
            let mut objs = lab.objects(&mut meter);
            weighted_sum_vao(&mut objs, weights.weights(), eps, &mut meter)
                .expect("sum vao converges");
            let vao_wall = start.elapsed();

            // Hybrid extension.
            let mut hybrid_meter = WorkMeter::new();
            let mut objs = lab.objects(&mut hybrid_meter);
            let (_, decision) = hybrid_weighted_sum(
                &mut objs,
                weights.weights(),
                &lab.specs,
                eps,
                &HybridConfig::default(),
                &mut AggregateConfig::default(),
                &mut hybrid_meter,
            )
            .expect("hybrid converges");

            HotColdRow {
                hot_share,
                vao_work: meter.total(),
                trad_work: trad_meter.total(),
                hybrid_work: hybrid_meter.total(),
                hybrid_choice: decision.choice,
                vao_wall,
            }
        })
        .collect()
}

/// One row of the iteration-strategy ablation.
#[derive(Clone, Debug)]
pub struct StrategyRow {
    /// Policy name.
    pub policy: &'static str,
    /// MAX query work units.
    pub max_work: u64,
    /// SUM query work units (uniform weights, ε = n·\$0.01).
    pub sum_work: u64,
}

/// `ablation_strategies.csv`.
#[must_use]
pub fn strategy_table(rows: &[StrategyRow]) -> Table {
    Table::of("policy,max_work,sum_work", rows, |r| {
        vec![
            r.policy.to_string(),
            r.max_work.to_string(),
            r.sum_work.to_string(),
        ]
    })
}

/// Ablation: the paper's greedy strategy vs round-robin, random and
/// widest-first, on the real-data MAX and SUM queries.
pub fn ablation_strategies(lab: &Lab, seed: u64) -> Vec<StrategyRow> {
    let n = lab.len();
    let eps_max = PrecisionConstraint::new(0.01).expect("valid epsilon");
    let eps_sum = PrecisionConstraint::new(n as f64 * 0.01 * (1.0 + 1e-9)).expect("valid epsilon");
    let weights = vec![1.0; n];
    let policies: [(&'static str, ChoicePolicy); 4] = [
        ("greedy", ChoicePolicy::greedy()),
        ("round-robin", ChoicePolicy::round_robin()),
        ("random", ChoicePolicy::random(seed)),
        ("widest-first", ChoicePolicy::widest_first()),
    ];
    policies
        .into_iter()
        .map(|(name, policy)| {
            let mut config = AggregateConfig {
                policy: policy.clone(),
                ..AggregateConfig::default()
            };
            let mut meter = WorkMeter::new();
            let mut objs = lab.objects(&mut meter);
            max_vao_with(&mut objs, eps_max, &mut config, &mut meter).expect("max converges");
            let max_work = meter.total();

            let mut config = AggregateConfig {
                policy,
                ..AggregateConfig::default()
            };
            let mut meter = WorkMeter::new();
            let mut objs = lab.objects(&mut meter);
            weighted_sum_vao_with(&mut objs, &weights, eps_sum, &mut config, &mut meter)
                .expect("sum converges");
            let sum_work = meter.total();

            StrategyRow {
                policy: name,
                max_work,
                sum_work,
            }
        })
        .collect()
}

/// One row of the choose-iteration cost ablation.
#[derive(Clone, Copy, Debug)]
pub struct ChooseCostRow {
    /// Universe size.
    pub n: usize,
    /// Total work of the MAX VAO evaluation.
    pub total_work: u64,
    /// The `chooseIter` component alone.
    pub choose_work: u64,
}

impl ChooseCostRow {
    /// `chooseIter` share of total work — §5 claims this is negligible.
    #[must_use]
    pub fn choose_fraction(&self) -> f64 {
        self.choose_work as f64 / self.total_work.max(1) as f64
    }
}

/// Ablation: the cost of choosing iterations (§5's `chooseIter`) as the
/// object-set size grows.
pub fn ablation_choose_cost(sizes: &[usize], seed: u64) -> Vec<ChooseCostRow> {
    sizes
        .iter()
        .map(|&n| {
            let lab = Lab::new(n, seed);
            let mut meter = WorkMeter::new();
            let mut objs = lab.objects(&mut meter);
            max_vao(
                &mut objs,
                PrecisionConstraint::new(0.01).expect("valid epsilon"),
                &mut meter,
            )
            .expect("max converges");
            let b = meter.breakdown();
            ChooseCostRow {
                n,
                total_work: b.total(),
                choose_work: b.choose_iter,
            }
        })
        .collect()
}

/// `ablation_choose_cost.csv`: plain integers, so every row parses into as
/// many fields as the header.
#[must_use]
pub fn choose_cost_table(rows: &[ChooseCostRow]) -> Table {
    Table::of("n,total_work,choose_work,choose_share", rows, |r| {
        vec![
            r.n.to_string(),
            r.total_work.to_string(),
            r.choose_work.to_string(),
            format!("{:.5}%", r.choose_fraction() * 100.0),
        ]
    })
}

/// One row of the choose-index ablation (scan vs heap, §5.2).
#[derive(Clone, Copy, Debug)]
pub struct ChooseIndexRow {
    /// Universe size.
    pub n: usize,
    /// `chooseIter` work of the O(N)-scan SUM.
    pub scan_choose: u64,
    /// `chooseIter` work of the heap-indexed SUM.
    pub heap_choose: u64,
    /// Solver work of the scan version (should match the heap version).
    pub scan_exec: u64,
    /// Solver work of the heap version.
    pub heap_exec: u64,
}

/// Ablation: §5.2's heap-queue iteration index vs the baseline scan, on a
/// uniform-weight SUM run to the floor.
pub fn ablation_choose_index(sizes: &[usize], seed: u64) -> Vec<ChooseIndexRow> {
    sizes
        .iter()
        .map(|&n| {
            let lab = Lab::new(n, seed);
            let weights = vec![1.0; n];
            let eps =
                PrecisionConstraint::new(n as f64 * 0.01 * (1.0 + 1e-9)).expect("valid epsilon");

            let mut scan_meter = WorkMeter::new();
            let mut objs = lab.objects(&mut scan_meter);
            weighted_sum_vao(&mut objs, &weights, eps, &mut scan_meter).expect("sum converges");

            let mut heap_meter = WorkMeter::new();
            let mut objs = lab.objects(&mut heap_meter);
            weighted_sum_vao_heap(&mut objs, &weights, eps, &mut heap_meter)
                .expect("sum converges");

            ChooseIndexRow {
                n,
                scan_choose: scan_meter.breakdown().choose_iter,
                heap_choose: heap_meter.breakdown().choose_iter,
                scan_exec: scan_meter.breakdown().exec_iter,
                heap_exec: heap_meter.breakdown().exec_iter,
            }
        })
        .collect()
}

/// `ablation_choose_index.csv`, plain integers like [`choose_cost_table`].
#[must_use]
pub fn choose_index_table(rows: &[ChooseIndexRow]) -> Table {
    Table::of("n,scan_choose,heap_choose,scan_exec,heap_exec", rows, |r| {
        vec![
            r.n.to_string(),
            r.scan_choose.to_string(),
            r.heap_choose.to_string(),
            r.scan_exec.to_string(),
            r.heap_exec.to_string(),
        ]
    })
}

/// One tick of the continuous-query amortization experiment.
#[derive(Clone, Copy, Debug)]
pub struct TickRow {
    /// Tick index.
    pub tick: usize,
    /// The rate processed.
    pub rate: f64,
    /// Plain VAO work (no cross-tick caching).
    pub vao_work: u64,
    /// Work with the CASPER-style predicate-range cache.
    pub cached_work: u64,
    /// Cache hits on this tick.
    pub cache_hits: usize,
}

/// `ext_tick_amortization.csv`.
#[must_use]
pub fn tick_table(rows: &[TickRow]) -> Table {
    Table::of("tick,rate,vao_work,cached_work,cache_hits", rows, |r| {
        vec![
            r.tick.to_string(),
            format!("{:.5}", r.rate),
            r.vao_work.to_string(),
            r.cached_work.to_string(),
            r.cache_hits.to_string(),
        ]
    })
}

/// Extension experiment: a continuous selection over a stream of rate
/// ticks, with and without predicate result-range caching (the §2 CASPER
/// integration). The uncached VAO pays per tick; the cache amortizes
/// revisited rate bands toward zero.
pub fn tick_amortization(lab: &Lab, ticks: usize, seed: u64) -> Vec<TickRow> {
    let relation = BondRelation::from_universe(&lab.universe);
    let mut cached =
        CachedSelectionEngine::new(lab.pricer, relation, CmpOp::Gt, 100.0).expect("valid query");
    let series = RateSeries::january_1994();
    let stream = series.intraday_ticks(ticks, seed);

    stream
        .iter()
        .enumerate()
        .map(|(i, t)| {
            // Uncached: fresh objects, full selection, every tick.
            let mut meter = WorkMeter::new();
            let vao = SelectionVao::new(CmpOp::Gt, 100.0).expect("finite constant");
            for &bond in lab.universe.bonds() {
                let mut obj = lab.pricer.price(bond, t.rate, &mut meter);
                vao.evaluate(&mut obj, &mut meter)
                    .expect("selection converges");
            }
            let vao_work = meter.total();

            let (_, stats) = cached.process_rate(t.rate).expect("cached selection");
            TickRow {
                tick: i,
                rate: t.rate,
                vao_work,
                cached_work: stats.work,
                cache_hits: stats.hits,
            }
        })
        .collect()
}

/// The query-count sweep of the `server-scaling` experiment.
pub const QUERY_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// One point of the server work-sharing sweep: a query count under one
/// execution mode.
#[derive(Clone, Copy, Debug)]
pub struct ServerScalingRow {
    /// `"independent"`, `"shared"`, or `"shared_budgeted"`.
    pub mode: &'static str,
    /// Concurrent queries registered for the tick.
    pub queries: usize,
    /// Total deterministic work units the tick cost.
    pub work_units: u64,
    /// Answers that degraded to anytime `Partial` bounds.
    pub partial_answers: u64,
}

impl ServerScalingRow {
    /// Work amortized over the registered queries.
    #[must_use]
    pub fn work_per_query(&self) -> u64 {
        self.work_units / self.queries.max(1) as u64
    }
}

/// The multi-trader workload template, cycled to the requested count: MAX
/// watchers at two precisions, portfolio SUMs at two tolerances, a
/// selection/count pair on one predicate, MIN and a top-5 — the overlap
/// profile of §1.2's many-users-one-relation scenario.
fn server_workload(n: usize, count: usize) -> Vec<Query> {
    let k = 5.min(n).max(1);
    let templates = [
        Query::Max { epsilon: 1.0 },
        Query::Sum {
            weights: vec![1.0; n],
            epsilon: 50.0,
        },
        Query::Selection {
            op: CmpOp::Gt,
            constant: 100.0,
        },
        Query::Min { epsilon: 1.0 },
        Query::TopK { k, epsilon: 1.0 },
        Query::Count {
            op: CmpOp::Gt,
            constant: 100.0,
            slack: 25,
        },
        Query::Max { epsilon: 0.5 },
        Query::Sum {
            weights: vec![1.0; n],
            epsilon: 60.0,
        },
    ];
    (0..count)
        .map(|i| templates[i % templates.len()].clone())
        .collect()
}

/// Subscribes every query of `queries`, in order, at priority 1.
fn subscribe_all(server: &mut Server, queries: &[Query]) {
    for q in queries {
        server.subscribe(q.clone(), 1).expect("subscribe");
    }
}

/// An in-memory server over `relation` with `queries` subscribed.
fn subscribed(
    lab: &Lab,
    relation: &BondRelation,
    config: ServerConfig,
    queries: &[Query],
) -> Server {
    let mut server = Server::new(lab.pricer, relation.clone(), config);
    subscribe_all(&mut server, queries);
    server
}

/// Everything observable about a tick except wall time (measured, not
/// derived): the bit-identity key of the tenancy sweep.
fn tick_key(res: &TickResult) -> String {
    let s = &res.stats;
    format!(
        "tick={} rate={:?} answers={:?} exhausted={} stats=({:?} {:?} {})",
        res.tick, res.rate, res.answers, res.budget_exhausted, s.rate, s.work, s.iterations,
    )
}

/// Answers of `res` that degraded to anytime `Partial` bounds.
fn partials(res: &TickResult) -> u64 {
    res.answers.iter().filter(|(_, a)| !a.is_final()).count() as u64
}

/// `server_scaling.csv`.
#[must_use]
pub fn server_scaling_table(rows: &[ServerScalingRow]) -> Table {
    Table::of(
        "mode,queries,work_units,work_per_query,partial_answers",
        rows,
        |r| {
            vec![
                r.mode.to_string(),
                r.queries.to_string(),
                r.work_units.to_string(),
                r.work_per_query().to_string(),
                r.partial_answers.to_string(),
            ]
        },
    )
}

/// Compares shared-pool execution against independent per-query engines
/// across a query-count sweep. Three modes per count: `independent` sums
/// one [`ContinuousQueryEngine`] tick per
/// query, `shared` answers the same queries off one `va-server` pool, and
/// `shared_budgeted` caps the shared tick at half its converged cost so
/// some answers degrade to anytime bounds. With `trace`, each shared tick's
/// scheduler events land in the JSONL stream under `server_scaling/qN`.
pub fn server_scaling(
    lab: &Lab,
    counts: &[usize],
    mut trace: Option<&mut TraceWriter>,
) -> Vec<ServerScalingRow> {
    let relation = BondRelation::from_universe(&lab.universe);
    let n = relation.len();

    let mut rows = Vec::new();
    for &count in counts {
        let queries = server_workload(n, count);

        let independent: u64 = queries
            .iter()
            .map(|q| {
                let engine = ContinuousQueryEngine::new(
                    lab.pricer,
                    relation.clone(),
                    q.clone(),
                    ExecutionMode::Vao,
                );
                let (_, stats) = engine.process_rate(lab.rate).expect("engine tick");
                stats.total_work()
            })
            .sum();
        rows.push(ServerScalingRow {
            mode: "independent",
            queries: count,
            work_units: independent,
            partial_answers: 0,
        });

        let mut shared = subscribed(lab, &relation, ServerConfig::default(), &queries);
        let mut rec = Recorder::new();
        let full = shared
            .tick_with_observer(lab.rate, &mut rec)
            .expect("shared tick");
        if let Some(t) = trace.as_deref_mut() {
            t.run(&format!("server_scaling/q{count}"), rec.events())
                .expect("write trace");
        }
        let shared_work = full.stats.total_work();
        rows.push(ServerScalingRow {
            mode: "shared",
            queries: count,
            work_units: shared_work,
            partial_answers: partials(&full),
        });

        let budget = ServerConfig::budgeted(shared_work / 2);
        let mut capped = subscribed(lab, &relation, budget, &queries);
        let mut rec = Recorder::new();
        let res = capped
            .tick_with_observer(lab.rate, &mut rec)
            .expect("budgeted tick");
        if let Some(t) = trace.as_deref_mut() {
            // The budgeted tick's stream ends in a budget_exhausted event.
            t.run(&format!("server_scaling/q{count}_budgeted"), rec.events())
                .expect("write trace");
        }
        rows.push(ServerScalingRow {
            mode: "shared_budgeted",
            queries: count,
            work_units: res.stats.total_work(),
            partial_answers: partials(&res),
        });
    }
    rows
}

/// Worker counts swept by [`parallel_scaling`].
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One point of the batched-scheduler scaling sweep.
#[derive(Clone, Copy, Debug)]
pub struct ParallelScalingRow {
    /// Worker threads (and per-round batch size) for the tick.
    pub workers: usize,
    /// Wall-clock time of the full tick.
    pub wall: Duration,
    /// Total deterministic work units the tick cost.
    pub work_units: u64,
    /// Scheduler `iterate()` calls issued.
    pub iterations: u64,
    /// Batched scheduling rounds the tick took.
    pub rounds: u64,
    /// Whether this run's answers and iteration count are identical to the
    /// serial (`workers = 1`, batch 1) schedule. True by construction for
    /// the first row; larger batches may legally converge along a
    /// different (equally sound) path.
    pub matches_serial: bool,
}

impl ParallelScalingRow {
    /// Wall-clock speedup relative to `baseline`.
    #[must_use]
    pub fn speedup_over(&self, baseline: &ParallelScalingRow) -> f64 {
        baseline.wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }
}

/// `parallel_scaling.csv`; speedups are relative to the first row.
#[must_use]
pub fn parallel_scaling_table(rows: &[ParallelScalingRow]) -> Table {
    Table::of(
        "workers,wall_ms,speedup,work_units,iterations,rounds,matches_serial",
        rows,
        |r| {
            vec![
                r.workers.to_string(),
                format!("{:.1}", r.wall.as_secs_f64() * 1e3),
                format!("{:.2}", r.speedup_over(&rows[0])),
                r.work_units.to_string(),
                r.iterations.to_string(),
                r.rounds.to_string(),
                r.matches_serial.to_string(),
            ]
        },
    )
}

/// Sweeps the batched scheduler's worker count over the 8-query workload
/// on the lab relation: one tick per worker count, `batch = workers`.
///
/// The speedup at `workers > 1` comes from *batching*: a round of B
/// iterations recomputes every session's demand once instead of B times
/// (the recomputation is O(queries × objects) per round and unmetered),
/// on top of whatever `iterate()` parallelism the host's cores provide.
/// The `workers = 1` row is asserted against a dedicated serial run so
/// the sweep doubles as a regression check that batching is opt-in.
pub fn parallel_scaling(lab: &Lab, worker_counts: &[usize]) -> Vec<ParallelScalingRow> {
    let relation = BondRelation::from_universe(&lab.universe);
    let queries = server_workload(relation.len(), 8);

    let run = |config: ServerConfig| {
        let mut srv = subscribed(lab, &relation, config, &queries);
        let mut rec = Recorder::new();
        let res = srv
            .tick_with_observer(lab.rate, &mut rec)
            .expect("scaling tick");
        (res, rec.rounds().len() as u64)
    };

    // The historical serial schedule: one pick per round.
    let (serial, _) = run(ServerConfig {
        workers: 1,
        batch: Some(1),
        ..ServerConfig::default()
    });

    worker_counts
        .iter()
        .map(|&workers| {
            let (res, rounds) = run(ServerConfig {
                workers,
                batch: None, // batch = workers
                ..ServerConfig::default()
            });
            ParallelScalingRow {
                workers,
                wall: res.stats.wall,
                work_units: res.stats.total_work(),
                iterations: res.stats.iterations,
                rounds,
                matches_serial: res.answers == serial.answers
                    && res.stats.iterations == serial.stats.iterations,
            }
        })
        .collect()
}

/// Round-batch sizes swept by [`batch_scaling`].
pub const ROUND_BATCHES: [usize; 3] = [16, 64, 256];

/// One point of the SoA-solver throughput sweep: the same tick executed
/// with and without the lane-parallel batched Thomas solver, at a fixed
/// round batch and a single worker.
#[derive(Clone, Copy, Debug)]
pub struct BatchScalingRow {
    /// Objects admitted per scheduling round (`ServerConfig::batch`); both
    /// executions use the same value, so they run the *same schedule* and
    /// differ only in how each round's solves execute.
    pub round_batch: usize,
    /// Wall-clock time of the scalar-executor tick.
    pub scalar_wall: Duration,
    /// Wall-clock time of the batched-solver tick.
    pub batched_wall: Duration,
    /// Deterministic work units of the tick (identical across executors by
    /// construction; asserted via `identical`).
    pub work_units: u64,
    /// Scheduler `iterate()` calls issued (likewise identical).
    pub iterations: u64,
    /// Whether the two executions produced bit-identical answers, work
    /// breakdowns, and iteration counts. Unlike `parallel_scaling`'s
    /// `matches_serial`, this must *always* be true: the batched solver
    /// replays the scalar arithmetic per lane exactly.
    pub identical: bool,
}

impl BatchScalingRow {
    /// Work-unit throughput (units per wall-second) of the scalar run.
    #[must_use]
    pub fn scalar_throughput(&self) -> f64 {
        self.work_units as f64 / self.scalar_wall.as_secs_f64().max(1e-9)
    }

    /// Work-unit throughput (units per wall-second) of the batched run.
    #[must_use]
    pub fn batched_throughput(&self) -> f64 {
        self.work_units as f64 / self.batched_wall.as_secs_f64().max(1e-9)
    }

    /// Throughput gain of the batched solver over the scalar executor.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.batched_throughput() / self.scalar_throughput().max(1e-9)
    }
}

/// `batch_scaling.csv`.
#[must_use]
pub fn batch_scaling_table(rows: &[BatchScalingRow]) -> Table {
    Table::of(
        "round_batch,scalar_wall_ms,batched_wall_ms,work_units,iterations,scalar_tput,\
         batched_tput,speedup,identical",
        rows,
        |r| {
            vec![
                r.round_batch.to_string(),
                format!("{:.1}", r.scalar_wall.as_secs_f64() * 1e3),
                format!("{:.1}", r.batched_wall.as_secs_f64() * 1e3),
                r.work_units.to_string(),
                r.iterations.to_string(),
                format!("{:.0}", r.scalar_throughput()),
                format!("{:.0}", r.batched_throughput()),
                format!("{:.2}", r.speedup()),
                r.identical.to_string(),
            ]
        },
    )
}

/// Measures what the struct-of-arrays solver is worth on the 8-query
/// workload: for each round batch B, one tick runs every admitted round as
/// per-object scalar solves (`batch_solver: false`) and one groups
/// same-shape refinements into lane-parallel sweeps (`batch_solver:
/// true`). Both use a single worker, so the comparison isolates the
/// kernel: same schedule, same work units, same answers — only the
/// arithmetic layout (and hence the wall clock) differs.
pub fn batch_scaling(lab: &Lab, round_batches: &[usize]) -> Vec<BatchScalingRow> {
    let relation = BondRelation::from_universe(&lab.universe);
    let queries = server_workload(relation.len(), 8);

    let run = |round_batch: usize, batch_solver: bool| {
        let config = ServerConfig {
            workers: 1,
            batch: Some(round_batch),
            batch_solver,
            ..ServerConfig::default()
        };
        subscribed(lab, &relation, config, &queries)
            .tick(lab.rate)
            .expect("batch-scaling tick")
    };

    round_batches
        .iter()
        .map(|&round_batch| {
            let scalar = run(round_batch, false);
            let batched = run(round_batch, true);
            BatchScalingRow {
                round_batch,
                scalar_wall: scalar.stats.wall,
                batched_wall: batched.stats.wall,
                work_units: batched.stats.total_work(),
                iterations: batched.stats.iterations,
                identical: scalar.answers == batched.answers
                    && scalar.stats.work == batched.stats.work
                    && scalar.stats.iterations == batched.stats.iterations,
            }
        })
        .collect()
}

/// One side of the kill-and-recover comparison: the same post-crash tick
/// executed either `cold` (a fresh server recomputing from scratch) or
/// `warm` (a server recovered from the journal, with the pool re-admitted
/// at its achieved accuracy).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryRow {
    /// `"cold"` or `"warm"`.
    pub mode: &'static str,
    /// Scheduler `iterate()` calls the tick issued.
    pub iterations: u64,
    /// Total deterministic work units the tick cost.
    pub work_units: u64,
    /// This mode's work as a fraction of the cold restart's work
    /// (1.0 for the cold row itself).
    pub ratio: f64,
}

/// `recovery.csv`.
#[must_use]
pub fn recovery_table(rows: &[RecoveryRow]) -> Table {
    Table::of("mode,iterations,work_units,ratio", rows, |r| {
        vec![
            r.mode.to_string(),
            r.iterations.to_string(),
            r.work_units.to_string(),
            format!("{:.4}", r.ratio),
        ]
    })
}

/// Simulates a crash-and-restart against `dir` and measures what recovery
/// saves. One durable server subscribes the 8-query workload plus a
/// tight-ε MAX (ε just above the model's minimum refinable width, so at
/// least one object converges fully), ticks once at the lab rate, and is
/// dropped *without* a clean shutdown — only the fsync'd journal survives,
/// exactly as after a SIGKILL. A second server recovers from the journal
/// and repeats the tick warm; a third starts cold in a fresh state and
/// pays the full price. Returns the cold and warm rows, cold first.
pub fn recovery_comparison(lab: &Lab, dir: &Path) -> Vec<RecoveryRow> {
    let relation = BondRelation::from_universe(&lab.universe);
    let mut queries = server_workload(relation.len(), 8);
    queries.push(Query::Max { epsilon: 0.0101 });

    let data_dir = dir.join("journal");
    let mut doomed = Server::open_durable(
        lab.pricer,
        relation.clone(),
        ServerConfig::default(),
        &data_dir,
    )
    .expect("open durable server");
    subscribe_all(&mut doomed, &queries);
    doomed.tick(lab.rate).expect("pre-crash tick");
    drop(doomed); // the "SIGKILL": no shutdown, no final snapshot

    let mut recovered = Server::open_durable(
        lab.pricer,
        relation.clone(),
        ServerConfig::default(),
        &data_dir,
    )
    .expect("recover server");
    let warm = recovered.tick(lab.rate).expect("warm tick");

    let cold = subscribed(lab, &relation, ServerConfig::default(), &queries)
        .tick(lab.rate)
        .expect("cold tick");

    let cold_work = cold.stats.total_work().max(1);
    vec![
        RecoveryRow {
            mode: "cold",
            iterations: cold.stats.iterations,
            work_units: cold.stats.total_work(),
            ratio: 1.0,
        },
        RecoveryRow {
            mode: "warm",
            iterations: warm.stats.iterations,
            work_units: warm.stats.total_work(),
            ratio: warm.stats.total_work() as f64 / cold_work as f64,
        },
    ]
}

/// One point of the journal-compaction growth comparison: one tick count
/// under one snapshot cadence, measured after a simulated crash.
#[derive(Clone, Copy, Debug)]
pub struct CompactionRow {
    /// `"compacted"` (frequent snapshots, bounded journal) or
    /// `"unbounded"` (snapshots effectively disabled, journal grows
    /// forever — the pre-compaction behaviour).
    pub mode: &'static str,
    /// The `snapshot_every` cadence this run used.
    pub snapshot_every: u64,
    /// Ticks executed before the crash.
    pub ticks: u64,
    /// Bytes across all `journal-*.jsonl` segments left on disk.
    pub journal_bytes: u64,
    /// Journal segments left on disk.
    pub segments: u64,
    /// Snapshot files left on disk.
    pub snapshots: u64,
    /// Journal events replayed by the post-crash recovery.
    pub replayed_events: u64,
    /// Wall-clock microseconds the post-crash `open_durable` took.
    pub recover_wall_us: u64,
}

/// `compaction.csv`.
#[must_use]
pub fn compaction_table(rows: &[CompactionRow]) -> Table {
    Table::of(
        "mode,snapshot_every,ticks,journal_bytes,segments,snapshots,replayed_events,\
         recover_wall_us",
        rows,
        |r| {
            vec![
                r.mode.to_string(),
                r.snapshot_every.to_string(),
                r.ticks.to_string(),
                r.journal_bytes.to_string(),
                r.segments.to_string(),
                r.snapshots.to_string(),
                r.replayed_events.to_string(),
                r.recover_wall_us.to_string(),
            ]
        },
    )
}

/// Sizes the on-disk journal state under `dir`: total segment bytes,
/// segment count, snapshot count.
fn journal_disk_stats(dir: &Path) -> (u64, u64, u64) {
    let (mut bytes, mut segments, mut snapshots) = (0, 0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0, 0);
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("journal-") && name.ends_with(".jsonl") {
            segments += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        } else if name.starts_with("snapshot-") && name.ends_with(".json") {
            snapshots += 1;
        }
    }
    (bytes, segments, snapshots)
}

/// Measures journal growth and recovery cost with and without segment
/// compaction. For each tick count, a durable server runs the 8-query
/// workload over a cycling rate stream and is dropped without shutdown (a
/// simulated SIGKILL); the on-disk journal is then sized and a recovery
/// timed. The `compacted` mode snapshots every 4 journal events, so
/// compaction keeps only the post-snapshot tail; `unbounded` never
/// snapshots mid-run, so its single segment grows linearly with the tick
/// count — the PR-4-era behaviour this experiment exists to retire.
pub fn compaction_growth(lab: &Lab, dir: &Path) -> Vec<CompactionRow> {
    const TICK_COUNTS: [u64; 4] = [10, 20, 40, 80];
    const RATES: [f64; 3] = [0.0583, 0.0601, 0.0592];

    let relation = BondRelation::from_universe(&lab.universe);
    let queries = server_workload(relation.len(), 8);
    let mut rows = Vec::new();
    for (mode, snapshot_every) in [("compacted", 4), ("unbounded", u64::MAX)] {
        for ticks in TICK_COUNTS {
            let data_dir = dir.join(format!("{mode}-{ticks}"));
            let config = ServerConfig {
                snapshot_every,
                ..ServerConfig::default()
            };
            let mut doomed = Server::open_durable(lab.pricer, relation.clone(), config, &data_dir)
                .expect("open durable server");
            subscribe_all(&mut doomed, &queries);
            for i in 0..ticks {
                doomed
                    .tick(RATES[(i % RATES.len() as u64) as usize])
                    .expect("tick");
            }
            drop(doomed); // the "SIGKILL": no shutdown, no final snapshot

            let (journal_bytes, segments, snapshots) = journal_disk_stats(&data_dir);
            let t0 = Instant::now();
            let recovered = Server::open_durable(lab.pricer, relation.clone(), config, &data_dir)
                .expect("recover server");
            let recover_wall_us = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
            let replayed_events = recovered.last_recovery().map_or(0, |r| r.replayed_events);
            rows.push(CompactionRow {
                mode,
                snapshot_every,
                ticks,
                journal_bytes,
                segments,
                snapshots,
                replayed_events,
                recover_wall_us,
            });
        }
    }
    rows
}

/// The φ targets of the sketch-scaling workload: 8 concurrent PERCENTILE
/// subscriptions spanning the rank range, including the median.
pub const SKETCH_PHIS: [f64; 8] = [0.05, 0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90];

/// One PERCENTILE subscription of the sketch-scaling comparison.
#[derive(Clone, Copy, Debug)]
pub struct SketchScalingRow {
    /// The subscription's quantile target.
    pub phi: f64,
    /// The subscription's precision constraint.
    pub epsilon: f64,
    /// Reported lower bound of the converged answer interval.
    pub lo: f64,
    /// Reported upper bound of the converged answer interval.
    pub hi: f64,
    /// The exact rank-`⌈φN⌉` value, from the lab's calibrated prices.
    pub exact: f64,
    /// Whether `[lo, hi]` contains `exact` (up to the calibration width
    /// the reference values themselves carry).
    pub contained: bool,
    /// Total work units of the one shared sketch-guided tick that served
    /// all [`SKETCH_PHIS`] subscriptions — identical on every row.
    pub sketch_work: u64,
    /// Work units of one full-relation exact pass (converge every object,
    /// then sort) — the query-independent baseline a traditional quantile
    /// operator pays, identical on every row.
    pub exact_work: u64,
}

impl SketchScalingRow {
    /// How many times cheaper the shared sketch-guided tick is than a
    /// single full-relation exact pass.
    #[must_use]
    pub fn work_ratio(&self) -> f64 {
        self.exact_work as f64 / self.sketch_work.max(1) as f64
    }
}

/// `sketch_scaling.csv`.
#[must_use]
pub fn sketch_scaling_table(rows: &[SketchScalingRow]) -> Table {
    Table::of(
        "phi,epsilon,lo,hi,exact,contained,sketch_work,exact_work",
        rows,
        |r| {
            vec![
                format!("{:.2}", r.phi),
                format!("{:.2}", r.epsilon),
                format!("{:.4}", r.lo),
                format!("{:.4}", r.hi),
                format!("{:.4}", r.exact),
                r.contained.to_string(),
                r.sketch_work.to_string(),
                r.exact_work.to_string(),
            ]
        },
    )
}

/// Compares sketch-guided PERCENTILE execution against the full-relation
/// exact quantile baseline. One shared server subscribes all
/// [`SKETCH_PHIS`] at `epsilon` and ticks once: the per-round
/// [`IntervalQuantileSketch`](va_sketch::IntervalQuantileSketch) band
/// restricts demand to rank-boundary straddlers, so off-band objects are
/// never refined to ε. The baseline is the traditional operator's
/// query-independent cost — converge all N objects, then sort — which any
/// exact quantile over opaque variable-accuracy functions must pay at
/// least once regardless of how many queries share it. Containment is
/// checked against the lab's calibrated prices, slackened by the widest
/// calibration interval (the reference values are only known that well).
pub fn sketch_scaling(lab: &Lab, epsilon: f64) -> Vec<SketchScalingRow> {
    let relation = BondRelation::from_universe(&lab.universe);
    let queries = SKETCH_PHIS.map(|phi| Query::Percentile { phi, epsilon });
    let res = subscribed(lab, &relation, ServerConfig::default(), &queries)
        .tick(lab.rate)
        .expect("shared sketch tick");
    let sketch_work = res.stats.total_work();
    let exact_work = lab.traditional_work();

    let mut sorted = lab.converged.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let slack = lab
        .specs
        .iter()
        .map(|s| s.final_width)
        .fold(0.0f64, f64::max);

    // Answers come back in registration order: one per φ.
    SKETCH_PHIS
        .iter()
        .zip(&res.answers)
        .map(|(&phi, (_, answer))| {
            let out = answer.final_output().expect("unbudgeted tick converges");
            let QueryOutput::Aggregate { bounds } = out else {
                panic!("percentile answers Aggregate, got {out:?}");
            };
            let exact = sorted[rank_from_top(phi, sorted.len()) - 1];
            SketchScalingRow {
                phi,
                epsilon,
                lo: bounds.lo(),
                hi: bounds.hi(),
                exact,
                contained: bounds.lo() - slack <= exact && exact <= bounds.hi() + slack,
                sketch_work,
                exact_work,
            }
        })
        .collect()
}

/// The connection-count sweep of the `frontend-scaling` experiment. The
/// top counts prove the acceptance bar: ≥ 50 concurrent subscribers on
/// one query shape, bit-identical to the serial golden run.
pub const CONNECTION_COUNTS: [usize; 6] = [1, 4, 8, 16, 32, 64];

/// One point of the front-end connection sweep.
#[derive(Clone, Copy, Debug)]
pub struct FrontendScalingRow {
    /// Concurrent loopback subscribers, all on the same query shape.
    pub connections: usize,
    /// Rate ticks driven through the stream.
    pub ticks: usize,
    /// `RESULT` lines the front-end delivered across all connections.
    pub results: u64,
    /// Result payloads it serialized — one per (tick, shape) group, so
    /// `results / payloads` is the fan-out amortization factor.
    pub payloads: u64,
    /// Median tick-to-RESULT latency across (connection, tick) samples.
    pub p50: Duration,
    /// 99th-percentile tick-to-RESULT latency.
    pub p99: Duration,
    /// Worst tick-to-RESULT latency.
    pub max: Duration,
    /// Every delivered line matched the serial golden run byte-for-byte.
    pub identical: bool,
}

/// `frontend_scaling.csv`.
#[must_use]
pub fn frontend_scaling_table(rows: &[FrontendScalingRow]) -> Table {
    Table::of(
        "connections,ticks,results,payloads,p50_us,p99_us,max_us,identical",
        rows,
        |r| {
            vec![
                r.connections.to_string(),
                r.ticks.to_string(),
                r.results.to_string(),
                r.payloads.to_string(),
                r.p50.as_micros().to_string(),
                r.p99.as_micros().to_string(),
                r.max.as_micros().to_string(),
                r.identical.to_string(),
            ]
        },
    )
}

/// Sends one request line as a single `write`: a separate `"\n"` segment
/// would park behind Nagle until the server's delayed ACK (~40 ms).
fn send_line(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send request line");
}

/// Drives N concurrent loopback clients through the nonblocking
/// front-end and measures tick-to-`RESULT` delivery latency per client
/// per tick, comparing every line byte-for-byte against a serial
/// in-process golden run.
///
/// The sweep runs on a dedicated 32-bond universe rather than the lab's:
/// pricing cost is orthogonal to connection scaling (the same single
/// shared tick serves every subscriber), and small unbudgeted ticks keep
/// the latency samples dominated by the front-end, which is what this
/// experiment measures.
pub fn frontend_scaling(lab: &Lab, counts: &[usize]) -> Vec<FrontendScalingRow> {
    let universe = BondUniverse::generate(32, 1994);
    let relation = BondRelation::from_universe(&universe);
    let rates: Vec<f64> = RateSeries::january_1994().daily_opens()[..12].to_vec();
    let subscribe = r#"{"type":"SUBSCRIBE","query":{"kind":"max","epsilon":0.05}}"#;

    let mut rows = Vec::new();
    for &count in counts {
        // Serial golden run: same universe, same registrations, same
        // rates, rendered with the same protocol serializers.
        let queries = vec![Query::Max { epsilon: 0.05 }; count];
        let mut golden = subscribed(lab, &relation, ServerConfig::default(), &queries);
        let mut expected: Vec<(Vec<String>, String)> = Vec::new();
        for &rate in &rates {
            let res = golden.tick(rate).expect("golden tick");
            let lines = res
                .answers
                .iter()
                .map(|(id, a)| proto::result(DEFAULT_RELATION, res.tick, res.rate, *id, a))
                .collect();
            let shed = golden
                .catalog()
                .by_name(DEFAULT_RELATION)
                .expect("`subscribed` builds a single-relation server")
                .shed();
            expected.push((lines, proto::tick_done(DEFAULT_RELATION, &res, shed)));
        }

        // Wire run: the front-end on its own thread, N blocking clients
        // here. Connect/subscribe sequentially so session ids (and thus
        // the golden mapping) are deterministic.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let rel = relation.clone();
        let pricer = lab.pricer;
        let handle = std::thread::spawn(move || {
            let mut server = Server::new(pricer, rel, ServerConfig::default());
            let mut front = FrontEnd::default();
            front
                .run(&listener, &mut server, &flag)
                .expect("readiness loop");
            front.stats()
        });

        let mut writers: Vec<TcpStream> = Vec::new();
        let mut readers: Vec<BufReader<TcpStream>> = Vec::new();
        for _ in 0..count {
            let stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .expect("read timeout");
            writers.push(stream.try_clone().expect("clone"));
            let mut reader = BufReader::new(stream);
            send_line(writers.last_mut().expect("writer"), subscribe);
            let mut ack = String::new();
            reader.read_line(&mut ack).expect("subscribed ack");
            assert!(ack.contains("\"type\":\"SUBSCRIBED\""), "{ack}");
            readers.push(reader);
        }

        let mut samples: Vec<Duration> = Vec::new();
        let mut identical = true;
        for (ti, &rate) in rates.iter().enumerate() {
            let sent = Instant::now();
            send_line(
                &mut writers[0],
                &format!("{{\"type\":\"TICK\",\"rate\":{rate}}}"),
            );
            for (ci, reader) in readers.iter_mut().enumerate() {
                let mut line = String::new();
                reader.read_line(&mut line).expect("result line");
                samples.push(sent.elapsed());
                identical &= line.trim_end() == expected[ti].0[ci];
            }
            let mut done = String::new();
            readers[0].read_line(&mut done).expect("tick_done line");
            identical &= done.trim_end() == expected[ti].1;
        }

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().expect("front-end thread");

        samples.sort();
        let at = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        rows.push(FrontendScalingRow {
            connections: count,
            ticks: rates.len(),
            results: stats.results_delivered,
            payloads: stats.payloads_serialized,
            p50: at(0.50),
            p99: at(0.99),
            max: *samples.last().expect("nonempty samples"),
            identical,
        });
    }
    rows
}

/// Relation counts swept by [`tenant_scaling`].
pub const TENANT_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Subscriptions registered per relation in the tenant sweep.
pub const TENANT_SUBSCRIPTIONS: usize = 4;

/// One point of the multi-relation tenancy sweep: `relations` tenants
/// co-hosted on one server versus the same tenants on isolated
/// single-relation servers, each isolated server given exactly the budget
/// slice the shared host's arbitration would grant it.
#[derive(Clone, Copy, Debug)]
pub struct TenantScalingRow {
    /// Co-hosted relations in this round.
    pub relations: usize,
    /// Total subscriptions across all relations.
    pub subscriptions: usize,
    /// Wall-clock of the shared host's one `tick_multi` (4 shard workers).
    pub shared_wall: Duration,
    /// Wall-clock of ticking every isolated server sequentially.
    pub isolated_wall: Duration,
    /// Total work units the shared multi-tick cost.
    pub shared_work: u64,
    /// Total work units across the isolated servers.
    pub isolated_work: u64,
    /// Relations whose budget slice was exhausted (anytime answers).
    pub budget_exhausted: u64,
    /// Whether every relation's answers and stats were bit-identical
    /// between the shared host and its isolated twin.
    pub identical: bool,
}

impl TenantScalingRow {
    /// Shared-host wall-clock speedup from sharding relations across
    /// workers, relative to the sequential isolated baseline.
    #[must_use]
    pub fn shard_speedup(&self) -> f64 {
        self.isolated_wall.as_secs_f64() / self.shared_wall.as_secs_f64().max(1e-9)
    }
}

/// `tenant_scaling.csv`.
#[must_use]
pub fn tenant_scaling_table(rows: &[TenantScalingRow]) -> Table {
    Table::of(
        "relations,subscriptions,shared_wall_ms,isolated_wall_ms,shard_speedup,\
         shared_work,isolated_work,budget_exhausted,identical",
        rows,
        |r| {
            vec![
                r.relations.to_string(),
                r.subscriptions.to_string(),
                format!("{:.1}", r.shared_wall.as_secs_f64() * 1e3),
                format!("{:.1}", r.isolated_wall.as_secs_f64() * 1e3),
                format!("{:.2}", r.shard_speedup()),
                r.shared_work.to_string(),
                r.isolated_work.to_string(),
                r.budget_exhausted.to_string(),
                r.identical.to_string(),
            ]
        },
    )
}

/// Sweeps co-hosted relation counts: each round builds one shared server
/// with `count` relations (16 bonds each, distinct universes), registers
/// [`TENANT_SUBSCRIPTIONS`] queries per relation at a per-tenant priority,
/// and runs one budgeted `tick_multi` with 4 shard workers. The baseline
/// runs the same tenants as isolated single-relation servers, each
/// configured with the exact budget slice
/// [`va_server::arbitrate_budget`] grants its weight — so the sweep is
/// also the system-level proof of the tenancy invariant: co-hosting
/// changes wall-clock, never answers.
pub fn tenant_scaling(lab: &Lab, counts: &[usize], seed: u64) -> Vec<TenantScalingRow> {
    const BONDS_PER_RELATION: usize = 16;
    const BUDGET_PER_RELATION: u64 = 30_000;

    let relation = |i: usize| {
        BondRelation::from_universe(&BondUniverse::generate(
            BONDS_PER_RELATION,
            seed + 7 * i as u64 + 1,
        ))
    };
    let priority = |i: usize| (i % 3 + 1) as u32;
    let rate = |i: usize| lab.rate + i as f64 * 1e-4;
    let workload = server_workload(BONDS_PER_RELATION, TENANT_SUBSCRIPTIONS);

    let mut rows = Vec::new();
    for &count in counts {
        let total_budget = BUDGET_PER_RELATION * count as u64;
        // The shared host: relation 0 is the bootstrap "default", the rest
        // are created through the catalog. `batch` is pinned so the worker
        // count stays a pure wall-clock knob (the schedule is fixed by the
        // batch size, and sharding runs every relation with inner
        // workers = 1 anyway).
        let shared_config = ServerConfig {
            budget: Some(total_budget),
            workers: 4,
            batch: Some(1),
            ..ServerConfig::default()
        };
        let mut shared = Server::new(lab.pricer, relation(0), shared_config);
        let mut names = vec!["default".to_string()];
        for i in 1..count {
            let name = format!("t{i}");
            shared
                .create_relation(&name, relation(i), None)
                .expect("create relation");
            names.push(name);
        }
        for (i, name) in names.iter().enumerate() {
            for q in &workload {
                shared
                    .subscribe_to(name, q.clone(), priority(i))
                    .expect("subscribe");
            }
        }
        let ticks: Vec<(&str, f64)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), rate(i)))
            .collect();
        let t0 = Instant::now();
        let shared_results = shared.tick_multi(&ticks).expect("shared multi-tick");
        let shared_wall = t0.elapsed();

        // The isolated baseline: the same per-relation budget slices the
        // shared host's arbitration produced, recomputed here from the
        // same priority weights.
        let weights: Vec<u64> = (0..count)
            .map(|i| u64::from(priority(i)) * TENANT_SUBSCRIPTIONS as u64)
            .collect();
        let slices = arbitrate_budget(Some(total_budget), &weights);
        let mut identical = true;
        let mut isolated_work = 0u64;
        let mut isolated_wall = Duration::ZERO;
        for i in 0..count {
            let config = ServerConfig {
                budget: slices[i],
                workers: 1,
                batch: Some(1),
                ..ServerConfig::default()
            };
            let mut isolated = Server::new(lab.pricer, relation(i), config);
            for q in &workload {
                isolated
                    .subscribe(q.clone(), priority(i))
                    .expect("subscribe");
            }
            let t0 = Instant::now();
            let res = isolated.tick(rate(i)).expect("isolated tick");
            isolated_wall += t0.elapsed();
            isolated_work += res.stats.total_work();
            identical &= tick_key(&res) == tick_key(&shared_results[i]);
        }

        rows.push(TenantScalingRow {
            relations: count,
            subscriptions: count * TENANT_SUBSCRIPTIONS,
            shared_wall,
            isolated_wall,
            shared_work: shared_results.iter().map(|r| r.stats.total_work()).sum(),
            isolated_work,
            budget_exhausted: shared_results.iter().filter(|r| r.budget_exhausted).count() as u64,
            identical,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use vao::ops::traditional::traditional_select;

    fn lab() -> Lab {
        Lab::new(24, 7)
    }

    #[test]
    fn selection_sweep_beats_traditional_everywhere() {
        let lab = lab();
        let rows = selection_sweep(&lab, CmpOp::Gt, &[0.1, 0.5, 0.9]);
        for r in &rows {
            assert!(
                r.speedup() > 5.0,
                "selectivity {}: speedup only {:.1}",
                r.selectivity,
                r.speedup()
            );
            let expected = (r.selectivity * lab.len() as f64).round() as usize;
            assert_eq!(r.selected, expected, "selectivity {}", r.selectivity);
        }
    }

    #[test]
    fn gt_and_lt_runtimes_mirror() {
        // §6.1: runtime for selectivity s with `>` equals runtime for 1-s
        // with `<` because the constants coincide.
        let lab = lab();
        let gt = selection_sweep(&lab, CmpOp::Gt, &[0.25]);
        let lt = selection_sweep(&lab, CmpOp::Lt, &[0.75]);
        assert!((gt[0].constant - lt[0].constant).abs() < 1e-9);
        assert_eq!(gt[0].vao_work, lt[0].vao_work);
    }

    #[test]
    fn fig10_pathological_sigma_zero_is_worse_than_traditional() {
        let lab = lab();
        let rows = fig10_selection_stress(&lab, &[0.0, 1.0], 3);
        assert!(
            rows[0].speedup() < 1.0,
            "σ=0 must lose to traditional, got speedup {:.2}",
            rows[0].speedup()
        );
        assert!(
            rows[1].speedup() > 1.0,
            "σ=$1 must beat traditional, got {:.2}",
            rows[1].speedup()
        );
        assert!(rows[1].vao_work < rows[0].vao_work);
    }

    #[test]
    fn max_table_ordering_matches_paper() {
        let lab = lab();
        let rows = max_table(&lab);
        let (opt, vao, trad) = (&rows[0], &rows[1], &rows[2]);
        assert_eq!(opt.operator, "Optimal");
        assert!(
            opt.work <= vao.work,
            "optimal {} vs vao {}",
            opt.work,
            vao.work
        );
        assert!(
            vao.work < trad.work / 2,
            "vao {} must clearly beat traditional {}",
            vao.work,
            trad.work
        );
    }

    #[test]
    fn fig11_sigma_zero_forces_full_convergence() {
        let lab = lab();
        let rows = fig11_max_stress(&lab, &[0.0, 1.0], 3);
        assert!(rows[0].speedup() < 1.0, "σ=0: {:.2}", rows[0].speedup());
        assert!(rows[1].speedup() > 1.0, "σ=$1: {:.2}", rows[1].speedup());
    }

    #[test]
    fn fig12_crossover_with_hot_share() {
        let lab = lab();
        let rows = fig12_sum_hotcold(&lab, &[0.10, 0.99], 5);
        // Uniform weights (hot share = hot fraction): VAO pays overhead.
        assert!(rows[0].speedup() < 1.0, "uniform: {:.2}", rows[0].speedup());
        // Concentrated weights: VAO wins.
        assert!(rows[1].speedup() > 1.0, "hot: {:.2}", rows[1].speedup());
        // Hybrid picks the right side at both extremes and is never much
        // worse than the best of the two.
        assert_eq!(rows[0].hybrid_choice, HybridChoice::Traditional);
        assert_eq!(rows[1].hybrid_choice, HybridChoice::Vao);
        for r in &rows {
            let best = r.vao_work.min(r.trad_work);
            assert!(
                r.hybrid_work <= best + best / 5,
                "hybrid {} vs best {}",
                r.hybrid_work,
                best
            );
        }
    }

    #[test]
    fn greedy_strategy_is_no_worse_than_ablations() {
        let lab = lab();
        let rows = ablation_strategies(&lab, 11);
        let greedy = &rows[0];
        assert_eq!(greedy.policy, "greedy");
        for r in &rows[1..] {
            assert!(
                greedy.max_work <= r.max_work + r.max_work / 10,
                "greedy MAX {} vs {} {}",
                greedy.max_work,
                r.policy,
                r.max_work
            );
        }
    }

    #[test]
    fn choose_cost_is_negligible() {
        let rows = ablation_choose_cost(&[8, 16], 7);
        let index = choose_index_table(&ablation_choose_index(&[8], 7)).csv();
        for (csv, fields) in [(choose_cost_table(&rows).csv(), 4), (index, 5)] {
            assert!(csv.lines().all(|l| l.split(',').count() == fields), "{csv}");
        }
        for r in &rows {
            assert!(
                r.choose_fraction() < 0.01,
                "n={}: chooseIter is {:.4} of total",
                r.n,
                r.choose_fraction()
            );
        }
    }

    #[test]
    fn tick_amortization_cache_pays_off() {
        let lab = lab();
        let rows = tick_amortization(&lab, 8, 42);
        assert_eq!(rows.len(), 8);
        // First tick: cold cache costs as much as the plain VAO.
        assert_eq!(rows[0].cache_hits, 0);
        // Across the stream, the cached engine does strictly less work.
        let plain: u64 = rows.iter().map(|r| r.vao_work).sum();
        let cached: u64 = rows.iter().map(|r| r.cached_work).sum();
        assert!(cached < plain, "cached {cached} vs plain {plain}");
        // And hits appear once the band is revisited.
        assert!(rows.iter().skip(1).any(|r| r.cache_hits > 0));
    }

    #[test]
    fn sweep_and_max_table_carry_trace_metrics() {
        let lab = lab();
        let dir = std::env::temp_dir().join("va_bench_experiments_trace_test");
        let path = dir.join("trace.jsonl");
        let mut w = TraceWriter::create(&path).unwrap();

        let rows = selection_sweep_traced(&lab, CmpOp::Gt, &[0.5], Some(&mut w));
        assert_eq!(rows[0].objects, lab.len());
        assert!(rows[0].iterations() > 0, "sweep saw no iterations");
        assert!(rows[0].mean_iterations_per_object() > 0.0);

        let max_rows = max_table_traced(&lab, Some(&mut w));
        let vao = &max_rows[1];
        assert_eq!(vao.operator, "VAO");
        // The recorder and the meter agree on the iteration count.
        assert_eq!(vao.cpu_est.iterations, vao.iterations);
        assert!(vao.mean_iterations_per_object() > 0.0);
        // Untraced rows carry zeroed estimation stats.
        assert_eq!(max_rows[0].cpu_est, CpuEstimation::default());
        assert_eq!(max_rows[2].cpu_est, CpuEstimation::default());

        let lines = w.lines();
        assert!(lines > 0, "trace file stayed empty");
        w.finish().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count() as u64, lines);
        assert!(content.lines().all(|l| l.starts_with("{\"run\":\"")));
        assert!(content.contains("\"run\":\"max_table:vao\""));
        assert!(content.contains("\"run\":\"selection_gt:s=0.50\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn server_scaling_shares_work_and_degrades_under_budget() {
        let lab = lab();
        let rows = server_scaling(&lab, &[1, 4], None);
        assert_eq!(rows.len(), 6);
        for chunk in rows.chunks(3) {
            let (ind, shared, capped) = (&chunk[0], &chunk[1], &chunk[2]);
            assert_eq!(ind.mode, "independent");
            assert_eq!(shared.mode, "shared");
            assert_eq!(capped.mode, "shared_budgeted");
            // The shared pool never does more work than the independent
            // engines, and the half-budget tick never exceeds the shared
            // converged cost.
            assert!(
                shared.work_units <= ind.work_units,
                "q={}: shared {} vs independent {}",
                ind.queries,
                shared.work_units,
                ind.work_units
            );
            assert_eq!(shared.partial_answers, 0);
            assert!(capped.work_units <= shared.work_units);
            assert!(
                capped.partial_answers > 0,
                "q={}: half the work must leave partial answers",
                capped.queries
            );
        }
        // Multiple queries amortize: per-query shared work at 4 queries is
        // below the single-query cost.
        assert!(rows[4].work_per_query() < rows[1].work_units);
    }

    #[test]
    fn recovery_comparison_warm_restart_is_strictly_cheaper() {
        let lab = lab();
        let dir =
            std::env::temp_dir().join(format!("va_bench_recovery_test_{}", std::process::id()));
        let rows = recovery_comparison(&lab, &dir);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(rows.len(), 2);
        let (cold, warm) = (&rows[0], &rows[1]);
        assert_eq!((cold.mode, warm.mode), ("cold", "warm"));
        assert_eq!(cold.ratio, 1.0);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {} iterations",
            warm.iterations,
            cold.iterations
        );
        assert!(warm.work_units < cold.work_units);
        assert!(warm.ratio < 1.0);
    }

    #[test]
    fn compaction_bounds_the_journal_where_unbounded_growth_does_not() {
        let lab = lab();
        let dir =
            std::env::temp_dir().join(format!("va_bench_compaction_test_{}", std::process::id()));
        let rows = compaction_growth(&lab, &dir);
        std::fs::remove_dir_all(&dir).ok();
        let compacted: Vec<_> = rows.iter().filter(|r| r.mode == "compacted").collect();
        let unbounded: Vec<_> = rows.iter().filter(|r| r.mode == "unbounded").collect();
        assert_eq!(compacted.len(), 4);
        assert_eq!(unbounded.len(), 4);
        let (c_last, u_last) = (compacted.last().unwrap(), unbounded.last().unwrap());

        // Unbounded mode is the degenerate baseline: one ever-growing
        // segment, every event replayed at recovery.
        assert!(unbounded.iter().all(|r| r.segments == 1));
        assert!(u_last.replayed_events > u_last.ticks, "replays everything");
        assert!(
            u_last.journal_bytes > unbounded[0].journal_bytes * 4,
            "the unbounded journal grows with the tick count"
        );

        // Compaction keeps disk and replay O(snapshot_every) regardless of
        // history length: at most two retained snapshot intervals plus the
        // active segment, and a replay bounded by the snapshot cadence.
        assert!(c_last.segments <= 3, "{} live segments", c_last.segments);
        assert!(c_last.snapshots <= 2, "{} snapshots kept", c_last.snapshots);
        assert!(
            c_last.replayed_events < c_last.snapshot_every * 2,
            "replay must be bounded by the snapshot cadence, got {}",
            c_last.replayed_events
        );
        assert!(
            c_last.journal_bytes < u_last.journal_bytes / 4,
            "compacted {} bytes vs unbounded {} bytes after {} ticks",
            c_last.journal_bytes,
            u_last.journal_bytes,
            c_last.ticks
        );
        // Flat, not merely slower growth: 8x the ticks must not cost more
        // than a small constant factor in retained bytes.
        assert!(
            c_last.journal_bytes <= compacted[0].journal_bytes.max(1) * 4,
            "compacted journal must stay flat: {} bytes at {} ticks vs {} at {}",
            c_last.journal_bytes,
            c_last.ticks,
            compacted[0].journal_bytes,
            compacted[0].ticks
        );
    }

    #[test]
    fn parallel_scaling_serial_row_matches_and_batches_cut_rounds() {
        let lab = lab();
        let rows = parallel_scaling(&lab, &[1, 4]);
        assert_eq!(rows.len(), 2);
        let (serial, batched) = (&rows[0], &rows[1]);
        assert_eq!(serial.workers, 1);
        assert!(
            serial.matches_serial,
            "workers=1 must reproduce the serial schedule"
        );
        assert_eq!(serial.iterations, serial.rounds, "serial: one pick/round");
        // A batch of 4 runs strictly fewer scheduling rounds, and every
        // answer still converged (no budget in this sweep).
        assert!(batched.rounds < serial.rounds);
        assert!(batched.iterations >= serial.iterations);
    }

    #[test]
    fn sketch_scaling_prunes_work_and_keeps_containment() {
        let lab = lab();
        let rows = sketch_scaling(&lab, 0.5);
        assert_eq!(rows.len(), SKETCH_PHIS.len());
        for r in &rows {
            assert!(
                r.contained,
                "φ={}: [{}, {}] must contain the exact value {}",
                r.phi, r.lo, r.hi, r.exact
            );
            assert!(r.hi - r.lo <= r.epsilon + 1e-9, "φ={}: width over ε", r.phi);
            assert!(
                r.work_ratio() >= 1.5,
                "φ={}: sketch tick {} vs exact pass {} is only {:.2}x",
                r.phi,
                r.sketch_work,
                r.exact_work,
                r.work_ratio()
            );
        }
        // One shared tick serves all eight subscriptions: every row reports
        // the same sketch cost.
        assert!(rows
            .windows(2)
            .all(|w| w[0].sketch_work == w[1].sketch_work));
    }

    #[test]
    fn traditional_answers_match_vao_selection() {
        let lab = lab();
        let constant = constant_for_selectivity(&lab.converged, CmpOp::Gt, 0.4);
        let trad = traditional_select(&lab.specs, CmpOp::Gt, constant, &mut WorkMeter::new());
        let (count, _, _) = run_selection_vao(&lab, CmpOp::Gt, constant);
        assert_eq!(trad.len(), count);
        assert_eq!(lab.specs.len(), lab.len());
    }
}
