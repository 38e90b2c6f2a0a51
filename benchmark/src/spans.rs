//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Nothing inside the program is instrumented: a span is a pair of clock
//! reads around a call into a layer's public function, or between two
//! events the scheduler already hands to any [`ExecObserver`]. Spans stay
//! in memory and are written to `benchmark/out/trace-<workload>.jsonl`
//! when the run ends. End-to-end laps never construct any of this.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use vao::trace::{
    BudgetExhaustedRecord, ChoiceRecord, ExecObserver, IterationRecord, OperatorEndRecord,
    OperatorKind, RoundRecord,
};

/// One closed interval on the trace clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one tick share this id.
    pub tick: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with its own clock origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace clock fits u64")
    }

    /// Opens a span now; [`Trace::close`] stamps its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, tick: u32) -> usize {
        let now = self.now_ns();
        self.record(name, now, now, parent, tick)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        tick: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            tick,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part its direct
    /// children cover (children of one parent never overlap: one thread
    /// records them).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(parent) = s.parent {
                covered[parent] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// One JSON object per span: name, start, end, self time, parent,
    /// tick id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_times = self.self_times_ns();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"tick\":{}}}",
                s.name, s.start_ns, s.end_ns, self_times[id], s.tick
            )?;
        }
        out.flush()
    }
}

/// What one observed tick's scheduler events add up to. The four phase
/// times tile the operator span exactly: their sum is `operator_ns`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickBreakdown {
    /// `on_operator_start` → `on_operator_end`.
    pub operator_ns: u64,
    /// Operator start / previous round's end → the round's last
    /// `on_choice`: demand recomputation, candidate build, top-B choice.
    pub demand_choose_ns: u64,
    /// Last `on_choice` → first `on_iteration`: admission and the
    /// `iterate()` / `step_batch` calls of the round.
    pub execute_ns: u64,
    /// First `on_iteration` → `on_round`: record emission, progress checks.
    pub emit_ns: u64,
    /// Last round's end → `on_operator_end`: the final all-done demand
    /// recomputation and answer assembly.
    pub finish_ns: u64,
    pub rounds: u64,
    pub iterations: u64,
    pub selected: u64,
    pub admitted: u64,
    /// Σ |estCPU − actual| / actual over iterations with actual > 0.
    pub ape_sum: f64,
    pub ape_count: u64,
    /// Iterated object indices in execution order (replay input).
    pub sequence: Vec<usize>,
}

impl TickBreakdown {
    /// Adds another tenant's tick to this one; the first tenant's
    /// iteration sequence stays (it is the replay input).
    pub fn absorb(&mut self, other: TickBreakdown) {
        self.operator_ns += other.operator_ns;
        self.demand_choose_ns += other.demand_choose_ns;
        self.execute_ns += other.execute_ns;
        self.emit_ns += other.emit_ns;
        self.finish_ns += other.finish_ns;
        self.rounds += other.rounds;
        self.iterations += other.iterations;
        self.selected += other.selected;
        self.admitted += other.admitted;
        self.ape_sum += other.ape_sum;
        self.ape_count += other.ape_count;
        if self.sequence.is_empty() {
            self.sequence = other.sequence;
        }
    }
}

/// An [`ExecObserver`] that timestamps scheduler events into phase times
/// and, when a [`Trace`] is attached, into spans under `parent`.
pub struct SpanObserver<'t> {
    trace: &'t mut Trace,
    keep_spans: bool,
    parent: Option<usize>,
    tick: u32,
    operator_span: Option<usize>,
    operator_start: u64,
    phase_start: u64,
    last_choice: u64,
    first_iteration: u64,
    choices_in_round: u32,
    iterations_in_round: u32,
    acc: TickBreakdown,
}

impl<'t> SpanObserver<'t> {
    /// `keep_spans` off still times the phases (on `trace`'s clock) but
    /// stores no spans.
    pub fn new(trace: &'t mut Trace, keep_spans: bool, parent: Option<usize>, tick: u32) -> Self {
        Self {
            trace,
            keep_spans,
            parent,
            tick,
            operator_span: None,
            operator_start: 0,
            phase_start: 0,
            last_choice: 0,
            first_iteration: 0,
            choices_in_round: 0,
            iterations_in_round: 0,
            acc: TickBreakdown::default(),
        }
    }

    pub fn finish(self) -> TickBreakdown {
        self.acc
    }

    /// Phase start → the round's last `on_choice` is demand + choose.
    fn close_selection(&mut self) {
        self.acc.demand_choose_ns += self.last_choice - self.phase_start;
        self.span("demand_choose", self.phase_start, self.last_choice);
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64) {
        if self.keep_spans {
            self.trace
                .record(name, start, end, self.operator_span, self.tick);
        }
    }
}

impl ExecObserver for SpanObserver<'_> {
    fn on_operator_start(&mut self, _kind: OperatorKind, _objects: usize) {
        let now = self.trace.now_ns();
        self.operator_start = now;
        self.phase_start = now;
        if self.keep_spans {
            self.operator_span =
                Some(
                    self.trace
                        .record("operator", now, now, self.parent, self.tick),
                );
        }
    }

    fn on_choice(&mut self, _choice: &ChoiceRecord) {
        self.choices_in_round += 1;
        self.last_choice = self.trace.now_ns();
    }

    fn on_iteration(&mut self, it: &IterationRecord) {
        if self.iterations_in_round == 0 {
            let now = self.trace.now_ns();
            self.close_selection();
            self.acc.execute_ns += now - self.last_choice;
            self.span("execute", self.last_choice, now);
            self.first_iteration = now;
        }
        self.iterations_in_round += 1;
        self.acc.iterations += 1;
        self.acc.sequence.push(it.object);
        if it.actual_cpu > 0 {
            self.acc.ape_sum += it.est_cpu.abs_diff(it.actual_cpu) as f64 / it.actual_cpu as f64;
            self.acc.ape_count += 1;
        }
    }

    fn on_round(&mut self, round: &RoundRecord) {
        let now = self.trace.now_ns();
        self.acc.emit_ns += now - self.first_iteration;
        self.span("emit", self.first_iteration, now);
        self.acc.rounds += 1;
        self.acc.selected += round.selected as u64;
        self.acc.admitted += round.admitted as u64;
        self.phase_start = now;
        self.choices_in_round = 0;
        self.iterations_in_round = 0;
    }

    fn on_budget_exhausted(&mut self, _record: &BudgetExhaustedRecord) {
        // The refused round chose but admitted nothing: its selection is
        // demand + choose; what follows is the finish.
        if self.choices_in_round > 0 {
            self.close_selection();
            self.phase_start = self.last_choice;
        }
    }

    fn on_operator_end(&mut self, _end: &OperatorEndRecord) {
        let now = self.trace.now_ns();
        self.acc.finish_ns += now - self.phase_start;
        self.span("finish", self.phase_start, now);
        self.acc.operator_ns = now - self.operator_start;
        if let Some(id) = self.operator_span {
            self.trace.spans[id].end_ns = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vao::cost::WorkBreakdown;
    use vao::Bounds;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Trace::new();
        let tick = t.record("tick", 100, 1_000, None, 7);
        let op = t.record("operator", 150, 900, Some(tick), 7);
        t.record("demand_choose", 150, 400, Some(op), 7);
        t.record("execute", 400, 850, Some(op), 7);
        let other = t.record("tick", 2_000, 2_500, None, 8);
        let own = t.self_times_ns();
        assert_eq!(own[tick], 900 - 750);
        assert_eq!(own[op], 750 - 250 - 450);
        assert_eq!(own[other], 500);
    }

    fn choice() -> ChoiceRecord {
        ChoiceRecord {
            object: 0,
            benefit: 1.0,
            est_cpu: 10,
            score: 0.1,
            candidates: 2,
        }
    }

    fn iteration(object: usize, est: u64, actual: u64) -> IterationRecord {
        IterationRecord {
            object,
            seq: 1,
            before: Bounds::new(0.0, 2.0),
            after: Bounds::new(0.5, 1.5),
            est_cpu: est,
            actual_cpu: actual,
        }
    }

    fn round(selected: usize, admitted: usize) -> RoundRecord {
        RoundRecord {
            round: 1,
            candidates: 2,
            selected,
            admitted,
            est_cpu: 20,
            work: 20,
        }
    }

    fn end() -> OperatorEndRecord {
        OperatorEndRecord {
            kind: OperatorKind::SharedPool,
            iterations: 3,
            work: WorkBreakdown::default(),
        }
    }

    #[test]
    fn phases_tile_the_operator_span_and_counts_add_up() {
        let mut trace = Trace::new();
        let tick = trace.open("tick", None, 3);
        let mut obs = SpanObserver::new(&mut trace, true, Some(tick), 3);
        obs.on_operator_start(OperatorKind::SharedPool, 2);
        // Round 1: two picks, two iterations.
        obs.on_choice(&choice());
        obs.on_choice(&choice());
        obs.on_iteration(&iteration(1, 10, 20));
        obs.on_iteration(&iteration(0, 30, 20));
        obs.on_round(&round(2, 2));
        // Round 2: one pick, one iteration.
        obs.on_choice(&choice());
        obs.on_iteration(&iteration(1, 20, 20));
        obs.on_round(&round(2, 1));
        obs.on_operator_end(&end());
        let b = obs.finish();
        trace.close(tick);

        assert_eq!(
            b.demand_choose_ns + b.execute_ns + b.emit_ns + b.finish_ns,
            b.operator_ns
        );
        assert_eq!((b.rounds, b.iterations), (2, 3));
        assert_eq!((b.selected, b.admitted), (4, 3));
        assert_eq!(b.sequence, vec![1, 0, 1]);
        // |10-20|/20 + |30-20|/20 + 0 = 1.0 over three iterations.
        assert!((b.ape_sum - 1.0).abs() < 1e-12);
        assert_eq!(b.ape_count, 3);

        // Stored spans: tick → operator → 2×(demand_choose, execute, emit) + finish,
        // and the operator's children leave it no self time.
        let operator = trace
            .spans()
            .iter()
            .position(|s| s.name == "operator")
            .expect("operator span");
        assert_eq!(trace.spans()[operator].parent, Some(tick));
        assert_eq!(trace.self_times_ns()[operator], 0);
        assert_eq!(trace.spans().len(), 2 + 7);
        assert!(trace.spans().iter().all(|s| s.tick == 3));
        assert_eq!(
            trace.self_times_ns()[tick],
            trace.spans()[tick].duration_ns() - b.operator_ns
        );
    }

    #[test]
    fn a_refused_round_charges_selection_once_and_the_rest_to_finish() {
        let mut trace = Trace::new();
        let mut obs = SpanObserver::new(&mut trace, false, None, 0);
        obs.on_operator_start(OperatorKind::SharedPool, 2);
        obs.on_choice(&choice());
        obs.on_budget_exhausted(&BudgetExhaustedRecord {
            budget: 5,
            spent: 5,
            deferred: 1,
        });
        obs.on_operator_end(&end());
        let b = obs.finish();
        assert_eq!(b.demand_choose_ns + b.finish_ns, b.operator_ns);
        assert_eq!((b.execute_ns, b.emit_ns, b.rounds), (0, 0, 0));
        assert!(trace.spans().is_empty(), "keep_spans off stores nothing");
    }
}
