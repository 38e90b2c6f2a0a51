//! `bench-report`: summarizes the raw runs `scripts/bench.sh` recorded
//! into the `BENCH_<pr>.json` document (see `va_bench::compare`).
//!
//! ```text
//! bench-report --pr N --parent REV --change REV --seconds S --host TEXT \
//!              --bounds BENCHMARK.json RAW_RUNS...
//! ```
//!
//! The document goes to standard output.

use std::process::ExitCode;

use va_bench::compare::{bounds, parse_runs, summarize, Header};

fn run() -> Result<String, String> {
    let mut header = Header {
        pr: 0,
        parent: String::new(),
        change: String::new(),
        seconds: 0.0,
        host: String::new(),
    };
    let mut bounds_path = None;
    let mut raw = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--pr" => header.pr = value()?.parse().map_err(|e| format!("--pr: {e}"))?,
            "--parent" => header.parent = value()?,
            "--change" => header.change = value()?,
            "--seconds" => {
                header.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--host" => header.host = value()?,
            "--bounds" => bounds_path = Some(value()?),
            path => raw.push(path.to_string()),
        }
    }
    let bounds_path = bounds_path.ok_or("--bounds BENCHMARK.json is required")?;
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = bounds(&read(&bounds_path)?)?;
    let mut runs = Vec::new();
    for path in &raw {
        runs.extend(parse_runs(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    if runs.is_empty() {
        return Err("no runs given".to_string());
    }
    Ok(summarize(&header, &bounds, &runs))
}

fn main() -> ExitCode {
    match run() {
        Ok(doc) => {
            print!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-report: {e}");
            ExitCode::from(2)
        }
    }
}
