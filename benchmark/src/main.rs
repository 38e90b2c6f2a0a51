//! The repository's benchmark: four workloads, end-to-end metrics as
//! per-position floors over replayed laps, per-layer metrics from spans
//! and replays recorded on this side of every layer boundary.
//!
//! ```text
//! va-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//!                  [--quick] [--no-check]
//! va-benchmark selftest [--sets N] [--seed S] [--seconds N]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as its last line, the JSON object `BENCHMARK.json`'s contract asks for
//! (end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`). `run` without a workload runs every workload, untraced
//! and traced, each in a child process of its own. See `README.md`.

mod calibrate;
mod check;
mod drive;
mod estimator;
mod layers;
mod procfs;
mod report;
mod run;
mod script;
mod spans;
mod spec;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::parse_result_line;
use run::Options;

/// The gated end-to-end metrics' regression bounds (shares of the
/// parent's median), read from the `BENCHMARK.json` the driver reads.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = va_persist::json::Json::parse(text.trim())?;
    doc.get("end_to_end")
        .and_then(|m| m.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(|n| n.as_str());
            let bound = m.get("bound").and_then(|b| b.as_f64());
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry without name or bound".to_string())
        })
        .collect()
}

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check: bool,
    sets: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command: run | selftest")?;
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: 24.0,
        trace: false,
        quick: false,
        check: true,
        sets: 5,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?,
            "--quick" => args.quick = true,
            "--check" => args.check = true,
            "--no-check" => args.check = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    std::env::current_dir()
        .expect("current directory")
        .join("benchmark")
        .join("out")
}

/// Runs one workload in a child process and returns its result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    if !args.check {
        cmd.arg("--no-check");
    }
    // The child's stderr passes through; its stdout ends in the result.
    let output = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    if !output.status.success() && line.is_empty() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    Ok(line)
}

/// `run` without `--workload`: every workload, end to end then traced.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for workload in spec::WORKLOADS {
        for trace in [false, true] {
            let line = child(args, workload, trace)?;
            let child = parse_result_line(&line)?;
            let kind = if trace { "per-layer" } else { "end-to-end" };
            println!(
                "== {workload} ({kind}) correct={} failed={}",
                child.correct, child.failed
            );
            for (name, value, unit) in &child.metrics {
                println!("  {workload}/{name:<40} {value:>18.6} {unit}");
            }
            ok &= child.correct;
        }
    }
    Ok(ok)
}

/// Runs the end-to-end benchmark `sets` times on this build and reports
/// each gated metric's (max − min) / median; fails when one exceeds half
/// its bound.
fn selftest(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for set in 0..args.sets {
        for workload in spec::WORKLOADS {
            let result = parse_result_line(&child(args, workload, false)?)?;
            ok &= result.correct;
            for (name, value, _) in result.metrics {
                let key = format!("{workload}/{name}");
                match table.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, values)) => values.push(value),
                    None => table.push((key, vec![value])),
                }
            }
            println!(
                "selftest: set {} of {}: {workload} done",
                set + 1,
                args.sets
            );
        }
    }
    let mut rows = Vec::new();
    println!(
        "{:<44} {:>14} {:>10} {:>8}",
        "metric", "median", "spread", "limit"
    );
    for (key, values) in &table {
        let name = key.split('/').nth(1).expect("workload/metric");
        let bound = bounds
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::INFINITY, |&(_, b)| b);
        let spread = estimator::spread(values);
        let within = spread <= bound / 2.0;
        ok &= within;
        println!(
            "{key:<44} {:>14.6} {:>9.2}% {:>7.2}%{}",
            estimator::percentile(values, 0.5),
            spread * 100.0,
            bound * 50.0,
            if within { "" } else { "  <-- too noisy" }
        );
        rows.push(format!(
            "  {{\"metric\": \"{key}\", \"median\": {}, \"spread\": {spread}, \"limit\": {}, \"values\": {values:?}}}",
            estimator::percentile(values, 0.5),
            bound / 2.0
        ));
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("noise.json");
    std::fs::write(&path, format!("[\n{}\n]\n", rows.join(",\n"))).map_err(|e| e.to_string())?;
    println!("selftest: wrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("va-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_str(), &args.workload) {
        ("run", Some(workload)) => {
            let opts = Options {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                quick: args.quick,
                check: args.check,
                out_dir: out_dir(),
            };
            run::run_workload(&opts).map(|outcome| {
                outcome.print_table(workload);
                // The contract's result: the last line of standard output.
                println!("{}", outcome.to_json_line());
                outcome.correct
            })
        }
        ("run", None) => run_all(&args),
        ("selftest", _) => selftest(&args),
        (other, _) => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!(
                "va-benchmark: failed (a check did not pass, or selftest found a metric too noisy)"
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("va-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
