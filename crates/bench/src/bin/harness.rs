//! Experiment harness: regenerates every table and figure of §6 and every
//! extension sweep under `results/`.
//!
//! `harness --help` prints the flags and the target names, both generated
//! from [`TARGETS`]. Each target prints its tables and writes one CSV per
//! table into the output directory (default `results/`). With `--trace
//! PATH`, the targets that record execution events additionally dump them
//! as JSON Lines to `PATH` — schema in `docs/OBSERVABILITY.md`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use va_bench::experiments::{
    ablation_choose_cost, ablation_choose_index, ablation_strategies, batch_scaling,
    batch_scaling_table, choose_cost_table, choose_index_table, compaction_growth,
    compaction_table, fig10_selection_stress, fig11_max_stress, fig12_sum_hotcold,
    frontend_scaling, frontend_scaling_table, hot_cold_table, max_rows_table, max_table_traced,
    parallel_scaling, parallel_scaling_table, recovery_comparison, recovery_table,
    selection_sweep_traced, selection_table, server_scaling, server_scaling_table, sketch_scaling,
    sketch_scaling_table, strategy_table, stress_table, tenant_scaling, tenant_scaling_table,
    tick_amortization, tick_table, CONNECTION_COUNTS, HOT_SHARES, QUERY_COUNTS, ROUND_BATCHES,
    SELECTIVITIES, STD_DEVS, TENANT_COUNTS, WORKER_COUNTS,
};
use va_bench::report::{fmt_speedup, Table, TraceWriter};
use va_bench::Lab;
use vao::ops::selection::CmpOp;

/// What every target runs against.
struct Ctx {
    lab: Lab,
    seed: u64,
    tracer: Option<TraceWriter>,
}

/// One table a target produced: what to print around it, and what must
/// hold before its CSV is written.
struct Artifact {
    title: &'static str,
    table: Table,
    /// Footer lines printed under the table.
    notes: Vec<String>,
    /// Violated invariants; any entry fails the run after the table has
    /// been printed and before the CSV is written.
    failures: Vec<String>,
}

impl Artifact {
    fn new(title: &'static str, table: Table) -> Self {
        Self {
            title,
            table,
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }
}

/// One harness target: its name on the command line, the CSVs it writes
/// (one per table, in order) and the driver returning those tables.
struct Target {
    name: &'static str,
    csvs: &'static [&'static str],
    run: fn(&mut Ctx) -> Vec<Artifact>,
}

const fn target(
    name: &'static str,
    csvs: &'static [&'static str],
    run: fn(&mut Ctx) -> Vec<Artifact>,
) -> Target {
    Target { name, csvs, run }
}

const TARGETS: &[Target] = &[
    target("fig8", &["fig8_selection_gt.csv"], fig8),
    target("fig9", &["fig9_selection_lt.csv"], fig9),
    target("fig10", &["fig10_selection_stress.csv"], fig10),
    target("max-table", &["max_table.csv"], max_table),
    target("fig11", &["fig11_max_stress.csv"], fig11),
    target("fig12", &["fig12_sum_hotcold.csv"], fig12),
    target(
        "ablations",
        &[
            "ablation_strategies.csv",
            "ablation_choose_cost.csv",
            "ablation_choose_index.csv",
        ],
        ablations,
    ),
    target("ticks", &["ext_tick_amortization.csv"], ticks),
    target("server-scaling", &["server_scaling.csv"], server),
    target("frontend-scaling", &["frontend_scaling.csv"], frontend),
    target("parallel-scaling", &["parallel_scaling.csv"], parallel),
    target("batch-scaling", &["batch_scaling.csv"], batch),
    target("sketch-scaling", &["sketch_scaling.csv"], sketch),
    target("tenant-scaling", &["tenant_scaling.csv"], tenants),
    target("recovery", &["recovery.csv"], recovery),
    target("compaction", &["compaction.csv"], compaction),
];

/// The targets `names` asks for, in table order; no names, or `all`
/// among them, selects every target.
fn select(names: &[String]) -> Result<Vec<&'static Target>, String> {
    if let Some(unknown) = names
        .iter()
        .find(|n| *n != "all" && TARGETS.iter().all(|t| t.name != *n))
    {
        return Err(format!(
            "unknown target `{unknown}`; valid targets: {}|all",
            target_names()
        ));
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    Ok(TARGETS
        .iter()
        .filter(|t| all || names.iter().any(|n| n == t.name))
        .collect())
}

fn target_names() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
    names.join("|")
}

fn usage() -> String {
    format!(
        "usage: harness [--bonds N] [--seed S] [--out DIR] [--trace PATH] [{}|all]...",
        target_names()
    )
}

struct Args {
    bonds: usize,
    seed: u64,
    out: PathBuf,
    trace: Option<PathBuf>,
    targets: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        bonds: 500,
        seed: 1994,
        out: PathBuf::from("results"),
        trace: None,
        targets: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bonds" => {
                args.bonds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--bonds needs a number");
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed needs a number");
            }
            "--out" => {
                args.out = PathBuf::from(it.next().expect("--out needs a path"));
            }
            "--trace" => {
                args.trace = Some(PathBuf::from(it.next().expect("--trace needs a path")));
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            other => args.targets.push(other.to_string()),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // Resolve the targets before the (expensive) lab calibration, so a
    // mistyped name fails at once instead of exiting 0 having run nothing.
    let selected = select(&args.targets).unwrap_or_else(|e| {
        eprintln!("harness: {e}");
        std::process::exit(2);
    });
    println!(
        "== VAO experiment harness: {} bonds, seed {} ==",
        args.bonds, args.seed
    );
    let tracer = args.trace.as_deref().map(|p| {
        println!("tracing execution events to {}", p.display());
        TraceWriter::create(p).expect("create trace file")
    });
    let t0 = Instant::now();
    let lab = Lab::new(args.bonds, args.seed);
    println!(
        "calibrated {} bonds in {:.1}s (traditional per-tick work: {})\n",
        lab.len(),
        t0.elapsed().as_secs_f64(),
        lab.traditional_work(),
    );
    let mut ctx = Ctx {
        lab,
        seed: args.seed,
        tracer,
    };

    for target in selected {
        let artifacts = (target.run)(&mut ctx);
        assert_eq!(
            artifacts.len(),
            target.csvs.len(),
            "{} returned a different number of tables than it declares",
            target.name
        );
        for (csv, artifact) in target.csvs.iter().zip(artifacts) {
            println!("-- {} --", artifact.title);
            print!("{}", artifact.table.render());
            for note in &artifact.notes {
                println!("{note}");
            }
            assert!(
                artifact.failures.is_empty(),
                "{csv}: {}",
                artifact.failures.join("; ")
            );
            artifact
                .table
                .write_csv(&args.out.join(csv))
                .expect("write csv");
            println!();
        }
    }

    if let Some(t) = ctx.tracer {
        let lines = t.lines();
        t.finish().expect("flush trace");
        println!(
            "wrote {} trace events to {}",
            lines,
            args.trace.as_deref().expect("trace path").display()
        );
    }
    println!(
        "done in {:.1}s; CSVs in {}",
        t0.elapsed().as_secs_f64(),
        args.out.display()
    );
}

fn fig8(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = selection_sweep_traced(&ctx.lab, CmpOp::Gt, &SELECTIVITIES, ctx.tracer.as_mut());
    // §6.1's feasibility argument: rates arrive every 1-4 minutes; the
    // paper's traditional operator needs >100 processors to keep up where
    // the VAO needs a few. Report the implied processor ratio from honest
    // wall-clock (traditional actually re-solves).
    let (_, _, trad_wall) = ctx.lab.traditional_execute();
    let mean_vao_wall =
        rows.iter().map(|r| r.vao_wall.as_secs_f64()).sum::<f64>() / rows.len() as f64;
    let mut artifact = Artifact::new(
        "Figure 8: selection with `>` predicate, selectivity sweep",
        selection_table(&rows),
    );
    artifact.notes.push(format!(
        "traditional wall/tick: {:.1} ms; mean VAO wall/tick: {:.1} ms; implied processor ratio {:.0}x",
        trad_wall.as_secs_f64() * 1e3,
        mean_vao_wall * 1e3,
        trad_wall.as_secs_f64() / mean_vao_wall
    ));
    vec![artifact]
}

fn fig9(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = selection_sweep_traced(&ctx.lab, CmpOp::Lt, &SELECTIVITIES, ctx.tracer.as_mut());
    vec![Artifact::new(
        "Figure 9: selection with `<` predicate, selectivity sweep",
        selection_table(&rows),
    )]
}

fn fig10(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = fig10_selection_stress(&ctx.lab, &STD_DEVS, ctx.seed);
    vec![Artifact::new(
        "Figure 10: selection stress, Gaussian(mean=constant, σ)",
        stress_table(&rows),
    )]
}

fn max_table(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = max_table_traced(&ctx.lab, ctx.tracer.as_mut());
    let (optimal, vao, traditional) = (rows[0].work, rows[1].work, rows[2].work);
    let mut artifact = Artifact::new(
        "§6.2 table: MAX runtimes (Optimal / VAO / Traditional)",
        max_rows_table(&rows),
    );
    artifact.notes.push(format!(
        "VAO is {:.1}% over Optimal; Traditional/VAO = {}",
        (vao as f64 - optimal as f64) / optimal.max(1) as f64 * 100.0,
        fmt_speedup(traditional as f64 / vao.max(1) as f64)
    ));
    vec![artifact]
}

fn fig11(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = fig11_max_stress(&ctx.lab, &STD_DEVS, ctx.seed);
    vec![Artifact::new(
        "Figure 11: MAX stress, lower-half Gaussian(max, σ)",
        stress_table(&rows),
    )]
}

fn fig12(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = fig12_sum_hotcold(&ctx.lab, &HOT_SHARES, ctx.seed);
    vec![Artifact::new(
        "Figure 12: SUM with hot-cold weights (hot set = 10% of bonds)",
        hot_cold_table(&rows),
    )]
}

fn ablations(ctx: &mut Ctx) -> Vec<Artifact> {
    let sizes: Vec<usize> = [25usize, 50, 100, 200]
        .into_iter()
        .filter(|&s| s <= ctx.lab.len().max(25))
        .collect();
    vec![
        Artifact::new(
            "Ablation: iteration strategies on MAX and SUM",
            strategy_table(&ablation_strategies(&ctx.lab, ctx.seed)),
        ),
        Artifact::new(
            "Ablation: chooseIter cost share vs universe size",
            choose_cost_table(&ablation_choose_cost(&sizes, ctx.seed)),
        ),
        Artifact::new(
            "Ablation: scan vs heap iteration index on SUM (§5.2)",
            choose_index_table(&ablation_choose_index(&sizes, ctx.seed)),
        ),
    ]
}

fn ticks(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = tick_amortization(&ctx.lab, 12, ctx.seed);
    let plain: u64 = rows.iter().map(|r| r.vao_work).sum();
    let cached: u64 = rows.iter().map(|r| r.cached_work).sum();
    let mut artifact = Artifact::new(
        "Extension: continuous selection over rate ticks, ± CASPER cache",
        tick_table(&rows),
    );
    artifact.notes.push(format!(
        "stream total: plain {plain} vs cached {cached} ({})",
        fmt_speedup(plain as f64 / cached.max(1) as f64)
    ));
    vec![artifact]
}

fn server(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = server_scaling(&ctx.lab, &QUERY_COUNTS, ctx.tracer.as_mut());
    let mut artifact = Artifact::new(
        "Extension: va-server shared pool vs independent engines",
        server_scaling_table(&rows),
    );
    for chunk in rows.chunks(3) {
        let (independent, shared) = (&chunk[0], &chunk[1]);
        artifact.notes.push(format!(
            "  {} queries: shared does {} of the independent work",
            independent.queries,
            fmt_speedup(independent.work_units as f64 / shared.work_units.max(1) as f64)
        ));
    }
    vec![artifact]
}

fn frontend(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = frontend_scaling(&ctx.lab, &CONNECTION_COUNTS);
    let mut artifact = Artifact::new(
        "Extension: nonblocking front-end connection sweep",
        frontend_scaling_table(&rows),
    );
    for r in rows.iter().filter(|r| !r.identical) {
        artifact.failures.push(format!(
            "{} connections diverged from the serial golden run",
            r.connections
        ));
    }
    if let Some(last) = rows.last() {
        artifact.notes.push(format!(
            "  {} subscribers: {} RESULT lines from {} serialized payloads ({}x fan-out amortization)",
            last.connections,
            last.results,
            last.payloads,
            last.results / last.payloads.max(1)
        ));
    }
    vec![artifact]
}

fn parallel(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = parallel_scaling(&ctx.lab, &WORKER_COUNTS);
    let at_four = rows
        .iter()
        .find(|r| r.workers == 4)
        .map_or(1.0, |r| r.speedup_over(&rows[0]));
    let mut artifact = Artifact::new(
        "Extension: batched scheduler worker sweep (8 queries)",
        parallel_scaling_table(&rows),
    );
    artifact.notes.push(format!(
        "  4-worker scheduler loop: {} over serial",
        fmt_speedup(at_four)
    ));
    vec![artifact]
}

fn batch(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = batch_scaling(&ctx.lab, &ROUND_BATCHES);
    let best = rows
        .iter()
        .max_by(|a, b| a.speedup().total_cmp(&b.speedup()))
        .expect("at least one batch size");
    let mut artifact = Artifact::new(
        "Extension: SoA batched solver vs scalar executor (8 queries)",
        batch_scaling_table(&rows),
    );
    artifact.notes.push(format!(
        "  lane-parallel sweeps: {} work-unit throughput at batch {} (answers identical: {})",
        fmt_speedup(best.speedup()),
        best.round_batch,
        rows.iter().all(|r| r.identical)
    ));
    vec![artifact]
}

fn sketch(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = sketch_scaling(&ctx.lab, 0.5);
    let first = rows.first().expect("at least one phi");
    let mut artifact = Artifact::new(
        "Extension: sketch-guided PERCENTILE vs full-relation exact quantile",
        sketch_scaling_table(&rows),
    );
    artifact.notes.push(format!(
        "  one shared sketch tick served {} subscriptions at {} of a single exact pass (all bounds contain exact: {})",
        rows.len(),
        fmt_speedup(first.work_ratio()),
        rows.iter().all(|r| r.contained)
    ));
    vec![artifact]
}

fn tenants(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = tenant_scaling(&ctx.lab, &TENANT_COUNTS, ctx.seed);
    let mut artifact = Artifact::new(
        "Extension: multi-relation tenancy, shared host vs isolated servers",
        tenant_scaling_table(&rows),
    );
    for r in rows.iter().filter(|r| !r.identical) {
        artifact.failures.push(format!(
            "{} co-hosted relations diverged from their isolated twins",
            r.relations
        ));
    }
    if let Some(last) = rows.last() {
        artifact.notes.push(format!(
            "  {} relations on one host: bit-identical to {} isolated servers, {:.2}x wall-clock from sharding",
            last.relations,
            last.relations,
            last.shard_speedup()
        ));
    }
    vec![artifact]
}

/// Runs `f` over a scratch directory private to this process and removes
/// it afterwards.
fn with_scratch<R>(tag: &str, f: impl FnOnce(&Path) -> R) -> R {
    let dir = std::env::temp_dir().join(format!("va-bench-{tag}-{}", std::process::id()));
    let out = f(&dir);
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn recovery(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = with_scratch("recovery", |dir| recovery_comparison(&ctx.lab, dir));
    let (cold, warm) = (&rows[0], &rows[1]);
    let mut artifact = Artifact::new(
        "Extension: kill-and-recover, warm restart vs cold restart",
        recovery_table(&rows),
    );
    artifact.notes.push(format!(
        "  warm restart repeats the post-crash tick at {:.1}% of the cold cost ({} vs {} iterations)",
        warm.ratio * 100.0,
        warm.iterations,
        cold.iterations
    ));
    vec![artifact]
}

fn compaction(ctx: &mut Ctx) -> Vec<Artifact> {
    let rows = with_scratch("compaction", |dir| compaction_growth(&ctx.lab, dir));
    let mut artifact = Artifact::new(
        "Extension: segmented journal compaction, bounded vs unbounded growth",
        compaction_table(&rows),
    );
    let last = |mode: &str| rows.iter().rev().find(|r| r.mode == mode);
    if let (Some(c), Some(u)) = (last("compacted"), last("unbounded")) {
        artifact.notes.push(format!(
            "  after {} ticks: compacted journal {} bytes / {} events replayed vs unbounded {} bytes / {} events",
            c.ticks, c.journal_bytes, c.replayed_events, u.journal_bytes, u.replayed_events
        ));
    }
    vec![artifact]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn repo_file(rel: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(rel)
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn target_names_are_unique() {
        let unique: BTreeSet<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(unique.len(), TARGETS.len());
        assert!(
            !unique.contains("all"),
            "`all` is the select-everything word"
        );
    }

    #[test]
    fn declared_csvs_are_the_checked_in_results_and_each_is_documented() {
        let declared: Vec<&str> = TARGETS
            .iter()
            .flat_map(|t| t.csvs.iter().copied())
            .collect();
        let declared_set: BTreeSet<&str> = declared.iter().copied().collect();
        assert_eq!(
            declared_set.len(),
            declared.len(),
            "a CSV is declared twice"
        );

        let on_disk: BTreeSet<String> = std::fs::read_dir(repo_file("results"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            declared_set,
            on_disk.iter().map(String::as_str).collect::<BTreeSet<_>>(),
            "TARGETS and results/ disagree"
        );
        assert_eq!(declared.len(), 18);

        let doc = std::fs::read_to_string(repo_file("docs/RESULTS.md")).unwrap();
        for csv in declared {
            assert!(
                doc.lines().any(|l| l.starts_with("###") && l.contains(csv)),
                "{csv} has no `###` heading in docs/RESULTS.md"
            );
        }
    }

    #[test]
    fn unknown_target_is_an_error_listing_the_valid_ones() {
        let err = select(&names(&["fig8", "no-such-target"])).err().unwrap();
        assert!(err.contains("`no-such-target`"), "{err}");
        for t in TARGETS {
            assert!(err.contains(t.name), "{err} omits {}", t.name);
        }
    }

    #[test]
    fn all_and_no_names_select_every_target_and_names_select_in_table_order() {
        for list in [&[][..], &["all"], &["fig9", "all"]] {
            assert_eq!(select(&names(list)).unwrap().len(), TARGETS.len());
        }
        let picked: Vec<&str> = select(&names(&["recovery", "fig8", "fig8"]))
            .unwrap()
            .iter()
            .map(|t| t.name)
            .collect();
        assert_eq!(picked, ["fig8", "recovery"]);
    }
}
