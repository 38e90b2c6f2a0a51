//! Table formatting, CSV output and the JSONL trace writer for the
//! experiment harness.

use std::io::{BufWriter, Write};
use std::path::Path;

use va_persist::json::escape;
use vao::trace::TraceEvent;

/// A simple column-aligned text table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column names.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// A table under `header` — the CSV header line, comma-separated — with
    /// one line per element of `rows`, rendered by `cells`.
    #[must_use]
    pub fn of<R>(header: &str, rows: &[R], cells: impl Fn(&R) -> Vec<String>) -> Self {
        let mut t = Self::new(&header.split(',').collect::<Vec<_>>());
        for r in rows {
            t.row(cells(r));
        }
        t
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as aligned text for the terminal, grouping the
    /// digits of integer cells by thousands.
    #[must_use]
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|cell| group_digits(cell)).collect())
            .collect();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// The table as CSV text: cells joined verbatim.
    ///
    /// # Panics
    /// When a cell contains a comma — it would shift every later column.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(&self.rows) {
            assert!(
                row.iter().all(|cell| !cell.contains(',')),
                "comma in a CSV cell: {row:?}"
            );
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.csv())
    }
}

/// Formats an `f64` as a JSON value: plain decimal when finite, `null`
/// otherwise (JSON has no Infinity/NaN).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes execution-trace events as JSON Lines: one event per line, tagged
/// with the run label that produced it. See `docs/OBSERVABILITY.md` for the
/// full schema.
#[derive(Debug)]
pub struct TraceWriter {
    out: BufWriter<std::fs::File>,
    lines: u64,
}

impl TraceWriter {
    /// Creates (truncating) the trace file, making parent directories.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        Ok(Self {
            out: BufWriter::new(std::fs::File::create(path)?),
            lines: 0,
        })
    }

    /// Lines written so far.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Writes one event as a JSONL record. `run` labels the experiment run
    /// (e.g. `fig8_gt:s=0.10`); `seq` is the event's 0-based position in
    /// that run's stream.
    pub fn event(&mut self, run: &str, seq: usize, e: &TraceEvent) -> std::io::Result<()> {
        let prefix = format!("{{\"run\":\"{}\",\"seq\":{seq},", escape(run));
        let body = match e {
            TraceEvent::OperatorStart { kind, objects } => {
                format!("\"event\":\"operator_start\",\"operator\":\"{kind}\",\"objects\":{objects}")
            }
            TraceEvent::Choice(c) => format!(
                "\"event\":\"choice\",\"object\":{},\"benefit\":{},\"est_cpu\":{},\"score\":{},\"candidates\":{}",
                c.object,
                json_f64(c.benefit),
                c.est_cpu,
                json_f64(c.score),
                c.candidates
            ),
            TraceEvent::Iteration(it) => format!(
                "\"event\":\"iteration\",\"object\":{},\"iter\":{},\"lo_before\":{},\"hi_before\":{},\"lo_after\":{},\"hi_after\":{},\"est_cpu\":{},\"actual_cpu\":{},\"cpu_error\":{}",
                it.object,
                it.seq,
                json_f64(it.before.lo()),
                json_f64(it.before.hi()),
                json_f64(it.after.lo()),
                json_f64(it.after.hi()),
                it.est_cpu,
                it.actual_cpu,
                it.cpu_error()
            ),
            TraceEvent::HybridDecision(d) => format!(
                "\"event\":\"hybrid_decision\",\"chose_vao\":{},\"slack\":{},\"concentration\":{}",
                d.chose_vao,
                json_f64(d.slack),
                json_f64(d.concentration)
            ),
            TraceEvent::BudgetExhausted(r) => format!(
                "\"event\":\"budget_exhausted\",\"budget\":{},\"spent\":{},\"deferred\":{}",
                r.budget, r.spent, r.deferred
            ),
            TraceEvent::Round(r) => format!(
                "\"event\":\"round\",\"round\":{},\"candidates\":{},\"selected\":{},\"admitted\":{},\"est_cpu\":{},\"work\":{}",
                r.round, r.candidates, r.selected, r.admitted, r.est_cpu, r.work
            ),
            TraceEvent::Recovery(r) => format!(
                "\"event\":\"recovery\",\"snapshot_seq\":{},\"replayed_events\":{},\"truncated_bytes\":{},\"skipped_snapshots\":{},\"swept_tmp_files\":{}",
                r.snapshot_seq
                    .map_or_else(|| "null".to_string(), |s| s.to_string()),
                r.replayed_events,
                r.truncated_bytes,
                r.skipped_snapshots,
                r.swept_tmp_files
            ),
            TraceEvent::Compaction(c) => format!(
                "\"event\":\"compaction\",\"snapshot_seq\":{},\"segments_deleted\":{},\"bytes_reclaimed\":{},\"live_segments\":{}",
                c.snapshot_seq, c.segments_deleted, c.bytes_reclaimed, c.live_segments
            ),
            TraceEvent::OperatorEnd(end) => format!(
                "\"event\":\"operator_end\",\"operator\":\"{}\",\"iterations\":{},\"exec_iter\":{},\"get_state\":{},\"store_state\":{},\"choose_iter\":{}",
                end.kind,
                end.iterations,
                end.work.exec_iter,
                end.work.get_state,
                end.work.store_state,
                end.work.choose_iter
            ),
        };
        writeln!(self.out, "{prefix}{body}}}")?;
        self.lines += 1;
        Ok(())
    }

    /// Writes a whole recorded event stream under one run label.
    pub fn run(&mut self, run: &str, events: &[TraceEvent]) -> std::io::Result<()> {
        for (seq, e) in events.iter().enumerate() {
            self.event(run, seq, e)?;
        }
        Ok(())
    }

    /// Flushes buffered lines to disk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// `s` with thousands separators when it is a plain integer, else `s`.
fn group_digits(s: &str) -> String {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a ratio as `12.3x`.
#[must_use]
pub fn fmt_speedup(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("1"));
        assert!(lines[3].contains("long-name"));
        assert!(lines[3].ends_with("12,345"), "the terminal groups digits");
        assert!(t.csv().ends_with("long-name,12345\n"), "the CSV does not");
        // All rows align to the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_mismatched_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(&["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let dir = std::env::temp_dir().join("va_bench_report_test");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "comma in a CSV cell")]
    fn csv_refuses_a_cell_that_would_shift_columns() {
        let mut t = Table::new(&["x", "y"]);
        t.row(vec!["1,000".into(), "2".into()]);
        let _ = t.csv();
    }

    #[test]
    fn every_checked_in_csv_row_has_the_headers_arity() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut checked = 0;
        for entry in std::fs::read_dir(&results).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "csv") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let arity = text.lines().next().unwrap().split(',').count();
            for line in text.lines() {
                assert_eq!(line.split(',').count(), arity, "{}: {line}", path.display());
            }
            checked += 1;
        }
        assert!(checked > 0, "no CSVs under {}", results.display());
    }

    #[test]
    fn formats() {
        assert_eq!(group_digits("0"), "0");
        assert_eq!(group_digits("999"), "999");
        assert_eq!(group_digits("1000"), "1,000");
        assert_eq!(group_digits("1234567"), "1,234,567");
        assert_eq!(group_digits("12.5"), "12.5");
        assert_eq!(fmt_speedup(12.345), "12.35x");
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn trace_writer_emits_one_json_object_per_event() {
        use vao::cost::WorkBreakdown;
        use vao::trace::{
            ChoiceRecord, HybridDecisionRecord, IterationRecord, OperatorEndRecord, OperatorKind,
        };
        use vao::Bounds;

        let dir = std::env::temp_dir().join("va_bench_trace_test");
        let path = dir.join("trace.jsonl");
        let mut w = TraceWriter::create(&path).unwrap();
        let events = vec![
            TraceEvent::OperatorStart {
                kind: OperatorKind::Max,
                objects: 2,
            },
            TraceEvent::Choice(ChoiceRecord {
                object: 1,
                benefit: 3.5,
                est_cpu: 10,
                score: 0.35,
                candidates: 2,
            }),
            TraceEvent::Iteration(IterationRecord {
                object: 1,
                seq: 1,
                before: Bounds::new(0.0, 10.0),
                after: Bounds::new(2.0, 8.0),
                est_cpu: 10,
                actual_cpu: 8,
            }),
            TraceEvent::HybridDecision(HybridDecisionRecord {
                chose_vao: true,
                slack: f64::INFINITY,
                concentration: 0.4,
            }),
            TraceEvent::OperatorEnd(OperatorEndRecord {
                kind: OperatorKind::Max,
                iterations: 1,
                work: WorkBreakdown {
                    exec_iter: 8,
                    get_state: 2,
                    store_state: 1,
                    choose_iter: 3,
                },
            }),
        ];
        w.run("test:run", &events).unwrap();
        assert_eq!(w.lines(), 5);
        w.finish().unwrap();

        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 5);
        for l in &lines {
            assert!(l.starts_with("{\"run\":\"test:run\","), "line: {l}");
            assert!(l.ends_with('}'), "line: {l}");
        }
        assert!(lines[0].contains("\"event\":\"operator_start\""));
        assert!(lines[0].contains("\"operator\":\"max\""));
        assert!(lines[1].contains("\"candidates\":2"));
        assert!(lines[2].contains("\"cpu_error\":2"));
        // Infinite slack becomes JSON null, not an invalid token.
        assert!(lines[3].contains("\"slack\":null"));
        assert!(lines[4].contains("\"choose_iter\":3"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
