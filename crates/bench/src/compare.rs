//! Parent-versus-change comparison of `va-benchmark` result lines: the
//! `BENCH_<pr>.json` summary `scripts/bench.sh` writes.
//!
//! The script runs every workload as alternating (parent, change) pairs
//! and records each run as one tab-separated line,
//! `side  workload  seed  pair  first  trace  <result line>`, where `side`
//! is `parent` or `change`, `first` is 1 when that side ran first in its
//! pair, and `trace` is 1 for the per-layer (`--trace 1`) runs.
//! [`summarize`] turns those lines into one JSON document: every raw
//! result line, each side's median and quartiles per end-to-end metric,
//! the pairs the change won, and a verdict per metric against the bounds
//! in `BENCHMARK.json`.
//!
//! The verdicts follow the measurement rule the benchmark is judged by:
//!
//! * `failed` — the change failed a larger share of its attempted
//!   operations than the parent, so no gain counts and no bound holds;
//! * `gain` — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   parent's inter-quartile range;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * `unresolved` — the parent's own inter-quartile range exceeds the
//!   bound, so "within bound" could not be told apart from noise (unless
//!   every change run beats every parent run);
//! * `equal` — every run of both sides reads the same value (the work
//!   counters);
//! * `within_bound` — otherwise.

use std::fmt::{self, Write};

use va_persist::json::{render, write_array, Escaped, Json};

/// One gated end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name, as the result line spells it.
    pub name: String,
    /// Unit, as `BENCHMARK.json` spells it.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// The share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json` document.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json.trim())?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("end_to_end entry without \"{key}\""))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without \"bound\"")?,
            })
        })
        .collect()
}

/// Which build a run measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The parent commit.
    Parent,
    /// The change.
    Change,
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Parent => "parent",
            Side::Change => "change",
        }
    }
}

/// One benchmark run, as `scripts/bench.sh` recorded it.
#[derive(Clone, Debug)]
pub struct Run {
    /// The build measured.
    pub side: Side,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Pair index within its (workload, seed) series.
    pub pair: u64,
    /// Whether this side ran first in its pair.
    pub first: bool,
    /// Whether this was a per-layer (`--trace 1`) run.
    pub trace: bool,
    /// The result line, verbatim.
    pub line: String,
    /// The result line, parsed.
    pub result: Json,
}

impl Run {
    /// The value of metric `name`, when the run reported it.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Parses the raw runs file, one tab-separated run per line.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(n, line)| {
            let fields: Vec<&str> = line.splitn(7, '\t').collect();
            let [side, workload, seed, pair, first, trace, result] = fields[..] else {
                return Err(format!("run {n}: expected 7 tab-separated fields"));
            };
            let int = |field: &str, what: &str| {
                field
                    .parse::<u64>()
                    .map_err(|e| format!("run {n}: {what}: {e}"))
            };
            Ok(Run {
                side: match side {
                    "parent" => Side::Parent,
                    "change" => Side::Change,
                    other => return Err(format!("run {n}: unknown side {other}")),
                },
                workload: workload.to_string(),
                seed: int(seed, "seed")?,
                pair: int(pair, "pair")?,
                first: int(first, "first")? == 1,
                trace: int(trace, "trace")? == 1,
                line: result.to_string(),
                result: Json::parse(result).map_err(|e| format!("run {n}: {e}"))?,
            })
        })
        .collect()
}

/// The 25th, 50th and 75th percentiles of `values`, interpolating
/// linearly between order statistics.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| {
        let at = q * (sorted.len() - 1) as f64;
        let (below, above) = (at.floor() as usize, at.ceil() as usize);
        sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
    })
}

/// How one metric compares across the pairs of one series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of both sides reads the same value.
    Equal,
    /// The change failed a larger share of its operations than the parent.
    Failed,
    /// The change is better by the measurement rule.
    Gain,
    /// The change's median is within the bound of the parent's.
    WithinBound,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Failed => "failed",
            Verdict::Gain => "gain",
            Verdict::WithinBound => "within_bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric over one series of pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Comparison {
    /// The parent's quartiles.
    pub parent: [f64; 3],
    /// The change's quartiles.
    pub change: [f64; 3],
    /// Pairs in which the change read strictly better.
    pub won: usize,
    /// Pairs in which the parent read strictly better.
    pub lost: usize,
    /// How far the change's median is from the parent's, as a share of
    /// the parent's (negative is lower).
    pub shift: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired values of one metric (`pairs[i]` = parent, change),
/// given the share of its attempted operations each side failed
/// (`failed_share` = `[parent, change]`) over the same runs.
#[must_use]
pub fn compare(pairs: &[(f64, f64)], bound: &Bound, failed_share: [f64; 2]) -> Comparison {
    let parent_values: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change_values: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let (parent, change) = (quartiles(&parent_values), quartiles(&change_values));
    let better = |a: f64, b: f64| {
        if bound.lower_is_better {
            a < b
        } else {
            a > b
        }
    };
    let won = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let lost = pairs.iter().filter(|&&(p, c)| better(p, c)).count();
    let shift = if parent[1] == 0.0 {
        0.0
    } else {
        (change[1] - parent[1]) / parent[1].abs()
    };
    let worse_by = if bound.lower_is_better { shift } else { -shift };
    let parent_iqr = parent[2] - parent[0];
    let all_better = change_values
        .iter()
        .all(|&c| parent_values.iter().all(|&p| better(c, p)));
    let first = parent_values[0];
    let verdict = if parent_values
        .iter()
        .chain(&change_values)
        .all(|&v| v == first)
    {
        Verdict::Equal
    } else if failed_share[1] > failed_share[0] {
        Verdict::Failed
    } else if won * 10 >= pairs.len() * 9
        && better(change[1], parent[1])
        && (change[1] - parent[1]).abs() > parent_iqr
    {
        Verdict::Gain
    } else if worse_by > bound.bound {
        Verdict::Regressed
    } else if parent_iqr > bound.bound * parent[1].abs() && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Comparison {
        parent,
        change,
        won,
        lost,
        shift,
        verdict,
    }
}

/// What identifies the two builds compared.
#[derive(Clone, Debug)]
pub struct Header {
    /// The PR number the file is named after.
    pub pr: u64,
    /// The parent commit.
    pub parent: String,
    /// The change commit.
    pub change: String,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// A description of the machine the runs shared.
    pub host: String,
}

fn write_quartiles(out: &mut String, q: &[f64; 3]) -> fmt::Result {
    write!(
        out,
        "{{\"q1\":{},\"median\":{},\"q3\":{}}}",
        q[0], q[1], q[2]
    )
}

/// The untraced runs of one (workload, seed) series, as (parent, change)
/// pairs.
fn series_pairs<'a>(runs: &'a [Run], workload: &str, seed: u64) -> Vec<(&'a Run, &'a Run)> {
    let of = |side: Side, pair: u64| {
        runs.iter().find(|r| {
            !r.trace && r.side == side && r.workload == workload && r.seed == seed && r.pair == pair
        })
    };
    let mut pairs: Vec<u64> = runs
        .iter()
        .filter(|r| !r.trace && r.workload == workload && r.seed == seed)
        .map(|r| r.pair)
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .filter_map(|pair| Some((of(Side::Parent, pair)?, of(Side::Change, pair)?)))
        .collect()
}

fn write_series(
    out: &mut String,
    workload: &str,
    seed: u64,
    pairs: &[(&Run, &Run)],
    bounds: &[Bound],
) -> fmt::Result {
    write!(
        out,
        "    {{\"workload\":\"{}\",\"seed\":{seed},\"pairs\":{},",
        Escaped(workload),
        pairs.len()
    )?;
    let mut failed_share = [0.0; 2];
    for (side, share) in [Side::Parent, Side::Change]
        .into_iter()
        .zip(&mut failed_share)
    {
        let runs: Vec<&Run> = pairs
            .iter()
            .map(|&(p, c)| if side == Side::Parent { p } else { c })
            .collect();
        let attempted: u64 = runs.iter().map(|r| r.count("attempted")).sum();
        let failed: u64 = runs.iter().map(|r| r.count("failed")).sum();
        if attempted > 0 {
            *share = failed as f64 / attempted as f64;
        }
        write!(
            out,
            "\"{}\":{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed}}},",
            side.name(),
            runs.iter().all(|r| r.correct()),
        )?;
    }
    out.write_str("\"metrics\":[\n")?;
    let mut first = true;
    for bound in bounds {
        let values: Option<Vec<(f64, f64)>> = pairs
            .iter()
            .map(|(p, c)| Some((p.metric(&bound.name)?, c.metric(&bound.name)?)))
            .collect();
        let Some(values) = values.filter(|v| !v.is_empty()) else {
            continue;
        };
        let cmp = compare(&values, bound, failed_share);
        if !first {
            out.write_str(",\n")?;
        }
        first = false;
        write!(
            out,
            "      {{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"parent\":",
            Escaped(&bound.name),
            Escaped(&bound.unit),
            if bound.lower_is_better {
                "lower"
            } else {
                "higher"
            },
            bound.bound
        )?;
        write_quartiles(out, &cmp.parent)?;
        out.write_str(",\"change\":")?;
        write_quartiles(out, &cmp.change)?;
        write!(
            out,
            ",\"shift\":{},\"pairs_won\":{},\"pairs_lost\":{},\"verdict\":\"{}\"}}",
            cmp.shift,
            cmp.won,
            cmp.lost,
            cmp.verdict.name()
        )?;
    }
    out.write_str("\n    ]}")
}

fn write_run(out: &mut String, run: &Run) -> fmt::Result {
    write!(
        out,
        "\n    {{\"side\":\"{}\",\"workload\":\"{}\",\"seed\":{},\"pair\":{},\"first\":{},\"trace\":{},\"result\":{}}}",
        run.side.name(),
        Escaped(&run.workload),
        run.seed,
        run.pair,
        run.first,
        run.trace,
        run.line
    )
}

/// The `BENCH_<pr>.json` document for `runs`, judged against `bounds`.
#[must_use]
pub fn summarize(header: &Header, bounds: &[Bound], runs: &[Run]) -> String {
    render(|out| {
        write!(
            out,
            "{{\"pr\":{},\"parent\":\"{}\",\"change\":\"{}\",\"seconds\":{},\"host\":\"{}\",\n  \"series\":[\n",
            header.pr,
            Escaped(&header.parent),
            Escaped(&header.change),
            header.seconds,
            Escaped(&header.host)
        )?;
        let mut series: Vec<(&str, u64)> = Vec::new();
        for run in runs.iter().filter(|r| !r.trace) {
            if !series.contains(&(run.workload.as_str(), run.seed)) {
                series.push((run.workload.as_str(), run.seed));
            }
        }
        for (i, &(workload, seed)) in series.iter().enumerate() {
            if i > 0 {
                out.write_str(",\n")?;
            }
            write_series(
                out,
                workload,
                seed,
                &series_pairs(runs, workload, seed),
                bounds,
            )?;
        }
        out.write_str("\n  ],\n  \"runs\":")?;
        write_array(out, runs, write_run)?;
        out.write_str("\n}\n")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_FAILURES: [f64; 2] = [0.0; 2];

    fn p50() -> Bound {
        Bound {
            name: "tick_p50_ms".to_string(),
            unit: "ms".to_string(),
            lower_is_better: true,
            bound: 0.15,
        }
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn nine_wins_in_ten_beyond_the_parent_spread_is_a_gain() {
        let mut pairs: Vec<(f64, f64)> =
            (0..10).map(|i| (1.0 + 0.01 * f64::from(i), 0.6)).collect();
        pairs[3].1 = 1.5; // one lost pair
        let cmp = compare(&pairs, &p50(), NO_FAILURES);
        assert_eq!((cmp.won, cmp.lost), (9, 1));
        assert_eq!(cmp.verdict, Verdict::Gain);
        assert!(cmp.shift < -0.35);
        // Two lost pairs are not a gain, though the median fell.
        pairs[4].1 = 1.5;
        assert_eq!(
            compare(&pairs, &p50(), NO_FAILURES).verdict,
            Verdict::WithinBound
        );
    }

    #[test]
    fn a_gain_does_not_count_when_the_change_fails_more() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|i| (1.0 + 0.01 * f64::from(i), 0.6)).collect();
        assert_eq!(
            compare(&pairs, &p50(), [0.0, 1e-4]).verdict,
            Verdict::Failed
        );
        // Failing fewer, or the same share, leaves the gain standing.
        assert_eq!(compare(&pairs, &p50(), [1e-3, 1e-4]).verdict, Verdict::Gain);
        assert_eq!(compare(&pairs, &p50(), [1e-3, 1e-3]).verdict, Verdict::Gain);
        // Equal counters stay equal: failures do not move a work count.
        let counters = [(89_500.0, 89_500.0); 10];
        assert_eq!(
            compare(&counters, &p50(), [0.0, 1e-4]).verdict,
            Verdict::Equal
        );
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let pairs: Vec<(f64, f64)> = (0..10).map(|_| (1.0, 1.2)).collect();
        let cmp = compare(&pairs, &p50(), NO_FAILURES);
        assert_eq!(cmp.verdict, Verdict::Regressed);
        let higher = Bound {
            lower_is_better: false,
            ..p50()
        };
        assert_eq!(compare(&pairs, &higher, NO_FAILURES).verdict, Verdict::Gain);
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (if i % 2 == 0 { 1.0 } else { 1.5 }, 1.2))
            .collect();
        assert_eq!(
            compare(&pairs, &p50(), NO_FAILURES).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn identical_counters_are_equal() {
        let pairs = [(89_500.0, 89_500.0); 10];
        assert_eq!(compare(&pairs, &p50(), NO_FAILURES).verdict, Verdict::Equal);
    }

    #[test]
    fn raw_runs_pair_up_and_summarize_to_json() {
        let line = |p50: f64, failed: u64| {
            format!(
                "{{\"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": {{\"tick_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}"
            )
        };
        let raw = |change_failed: u64| {
            format!(
                "parent\twire_fanout\t7\t0\t1\t0\t{}\nchange\twire_fanout\t7\t0\t0\t0\t{}\n\
             change\twire_fanout\t7\t1\t1\t0\t{}\nparent\twire_fanout\t7\t1\t0\t0\t{}\n\
             parent\twire_fanout\t7\t0\t1\t1\t{}\n",
                line(1.0, 0),
                line(0.6, 0),
                line(0.61, change_failed),
                line(1.1, 0),
                line(1.3, 0)
            )
        };
        let runs = parse_runs(&raw(0)).unwrap();
        assert_eq!(runs.len(), 5);
        assert!(runs[2].first && runs[4].trace);
        assert_eq!(series_pairs(&runs, "wire_fanout", 7).len(), 2);
        let header = Header {
            pr: 31,
            parent: "abc".to_string(),
            change: "def".to_string(),
            seconds: 24.0,
            host: "test".to_string(),
        };
        let doc = summarize(&header, &[p50()], &runs);
        let parsed = Json::parse(&doc).unwrap();
        let series = parsed.get("series").unwrap().as_array().unwrap();
        assert_eq!(series.len(), 1);
        let metric = &series[0].get("metrics").unwrap().as_array().unwrap()[0];
        assert_eq!(metric.get("pairs_won").unwrap().as_u64(), Some(2));
        assert_eq!(metric.get("verdict").unwrap().as_str(), Some("gain"));
        assert_eq!(
            parsed.get("runs").unwrap().as_array().unwrap().len(),
            5,
            "every raw line is kept"
        );
        assert!(parse_runs("parent\tw\t7\n").is_err());
        // One failed request of the change's turns the same gain into
        // `failed`.
        let doc = summarize(&header, &[p50()], &parse_runs(&raw(1)).unwrap());
        let parsed = Json::parse(&doc).unwrap();
        let series = &parsed.get("series").unwrap().as_array().unwrap()[0];
        assert_eq!(
            series
                .get("change")
                .unwrap()
                .get("failed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let metric = &series.get("metrics").unwrap().as_array().unwrap()[0];
        assert_eq!(metric.get("verdict").unwrap().as_str(), Some("failed"));
    }
}
