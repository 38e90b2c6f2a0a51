//! Observability acceptance tests: the trace layer must see the exact
//! event stream the operators produce, and attaching an observer must not
//! change a single bit of any answer or any work total.

use vao_repro::bondlab::BondPde;
use vao_repro::numerics::pde::PdeResultObject;
use vao_repro::vao::cost::WorkMeter;
use vao_repro::vao::ops::count::{count_vao, count_vao_traced};
use vao_repro::vao::ops::heavy::{heavy_hitters_vao, heavy_hitters_vao_traced};
use vao_repro::vao::ops::minmax::{max_vao, max_vao_traced, AggregateConfig};
use vao_repro::vao::ops::percentile::{percentile_vao, percentile_vao_traced};
use vao_repro::vao::ops::quantile::{median_vao, quantile_vao_traced};
use vao_repro::vao::ops::selection::{select_traced, CmpOp, SelectionVao};
use vao_repro::vao::ops::sum::{weighted_sum_vao, weighted_sum_vao_traced};
use vao_repro::vao::ops::topk::{topk_vao, topk_vao_traced};
use vao_repro::vao::precision::PrecisionConstraint;
use vao_repro::vao::testkit::ScriptedObject;
use vao_repro::vao::trace::{OperatorKind, Recorder, TraceEvent};
use vao_repro::vao::{Bounds, VaoError};

use va_bench::Lab;

type BondObject = PdeResultObject<BondPde>;

/// A scripted selection produces the exact expected event sequence: one
/// operator start, one iteration (with the scripted bounds and perfectly
/// predictable CPU accounting), one operator end.
#[test]
fn scripted_selection_emits_exact_event_sequence() {
    // Initial bounds straddle the constant; the first refinement clears it.
    let mut obj =
        ScriptedObject::converging(&[(98.0, 110.0), (102.0, 107.0), (105.0, 105.005)], 10, 0.01);
    let mut meter = WorkMeter::new();
    let mut rec = Recorder::new();
    let out = select_traced(&mut obj, CmpOp::Gt, 100.0, &mut meter, &mut rec).unwrap();
    assert!(out.satisfied);

    let events = rec.events();
    assert_eq!(
        events.len(),
        3,
        "start + 1 iteration + end, got {events:#?}"
    );

    let TraceEvent::OperatorStart { kind, objects } = &events[0] else {
        panic!("expected OperatorStart, got {:?}", events[0]);
    };
    assert_eq!(*kind, OperatorKind::Selection);
    assert_eq!(*objects, 1);

    let TraceEvent::Iteration(it) = &events[1] else {
        panic!("expected Iteration, got {:?}", events[1]);
    };
    assert_eq!(it.object, 0);
    assert_eq!(it.seq, 1);
    assert_eq!(it.before, Bounds::new(98.0, 110.0));
    assert_eq!(it.after, Bounds::new(102.0, 107.0));
    // ScriptedObject estimates are its next step's exec cost; the actual
    // charge adds one get_state and one store_state unit on top.
    assert_eq!(it.est_cpu, 10);
    assert_eq!(it.actual_cpu, 12);
    assert_eq!(it.cpu_error(), -2);

    let TraceEvent::OperatorEnd(end) = &events[2] else {
        panic!("expected OperatorEnd, got {:?}", events[2]);
    };
    assert_eq!(end.kind, OperatorKind::Selection);
    assert_eq!(end.iterations, 1);
    assert_eq!(end.work.exec_iter, 10);
    assert_eq!(end.work.get_state, 1);
    assert_eq!(end.work.store_state, 1);
    assert_eq!(end.work, meter.breakdown());
}

/// A scripted MAX run: the trace brackets the evaluation with start/end,
/// every meter-counted iteration appears as an event, and the recorded
/// trajectory of the winner ends at its final bounds.
#[test]
fn scripted_max_trace_is_complete_and_ordered() {
    let mut objs = vec![
        ScriptedObject::converging(&[(90.0, 110.0), (100.0, 100.005)], 10, 0.01),
        ScriptedObject::converging(&[(40.0, 95.0), (50.0, 50.005)], 10, 0.01),
    ];
    let mut meter = WorkMeter::new();
    let mut rec = Recorder::new();
    let eps = PrecisionConstraint::new(0.01).unwrap();
    let res = max_vao_traced(
        &mut objs,
        eps,
        &mut AggregateConfig::default(),
        &mut meter,
        &mut rec,
    )
    .unwrap();
    assert_eq!(res.argext, 0);

    let events = rec.events();
    assert!(matches!(
        events.first(),
        Some(TraceEvent::OperatorStart {
            kind: OperatorKind::Max,
            objects: 2
        })
    ));
    assert!(matches!(events.last(), Some(TraceEvent::OperatorEnd(e))
        if e.kind == OperatorKind::Max && e.iterations == res.iterations));

    let iteration_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Iteration(_)))
        .count() as u64;
    assert_eq!(iteration_events, res.iterations);
    assert_eq!(iteration_events, meter.iterations());

    let traj = rec.trajectory(res.argext);
    assert_eq!(*traj.last().unwrap(), res.bounds);
}

/// Observer-on and observer-off runs over bit-identical inputs produce
/// bit-identical answers, iteration counts and per-component work — the
/// tracing layer charges nothing and changes nothing.
#[test]
fn observer_on_and_off_are_bit_identical() {
    let eps = PrecisionConstraint::new(0.01).unwrap();

    // MAX over the real bond workload.
    let lab = Lab::new(12, 5);
    let mut plain_meter = WorkMeter::new();
    let mut objs = lab.objects(&mut plain_meter);
    let plain = max_vao(&mut objs, eps, &mut plain_meter).unwrap();

    let mut traced_meter = WorkMeter::new();
    let mut objs = lab.objects(&mut traced_meter);
    let mut rec = Recorder::new();
    let traced = max_vao_traced(
        &mut objs,
        eps,
        &mut AggregateConfig::default(),
        &mut traced_meter,
        &mut rec,
    )
    .unwrap();

    assert_eq!(plain.argext, traced.argext);
    assert_eq!(plain.bounds, traced.bounds);
    assert_eq!(plain.iterations, traced.iterations);
    assert_eq!(plain_meter.breakdown(), traced_meter.breakdown());
    assert_eq!(plain_meter.iterations(), traced_meter.iterations());
    // And the recorder agrees with the meter about how much happened.
    assert_eq!(
        rec.iterations_per_object().iter().sum::<u64>(),
        traced_meter.iterations()
    );

    // SUM over the same workload.
    let n = lab.len();
    let weights = vec![1.0; n];
    let sum_eps = PrecisionConstraint::new(n as f64 * 0.01 * (1.0 + 1e-9)).unwrap();
    let mut plain_meter = WorkMeter::new();
    let mut objs = lab.objects(&mut plain_meter);
    let plain = weighted_sum_vao(&mut objs, &weights, sum_eps, &mut plain_meter).unwrap();

    let mut traced_meter = WorkMeter::new();
    let mut objs = lab.objects(&mut traced_meter);
    let mut rec = Recorder::new();
    let traced = weighted_sum_vao_traced(
        &mut objs,
        &weights,
        sum_eps,
        &mut AggregateConfig::default(),
        &mut traced_meter,
        &mut rec,
    )
    .unwrap();

    assert_eq!(plain.bounds, traced.bounds);
    assert_eq!(plain.iterations, traced.iterations);
    assert_eq!(plain_meter.breakdown(), traced_meter.breakdown());
    assert_eq!(rec.cpu_estimation().iterations, traced.iterations);

    // The extension operators, same workload: the whole result (answer and
    // `iterations`), every work component, and the recorder's iteration
    // total against the meter's.
    let wide = PrecisionConstraint::new(0.05).unwrap();
    on_vs_off(
        &lab,
        OperatorKind::TopK,
        |o, m| topk_vao(o, 3, eps, m),
        |o, c, m, r| topk_vao_traced(o, 3, eps, c, m, r),
    );
    on_vs_off(
        &lab,
        OperatorKind::Count,
        |o, m| count_vao(o, CmpOp::Gt, 100.0, 1, m),
        |o, c, m, r| count_vao_traced(o, CmpOp::Gt, 100.0, 1, c, m, r),
    );
    on_vs_off(
        &lab,
        OperatorKind::Median,
        |o, m| median_vao(o, eps, m),
        |o, c, m, r| quantile_vao_traced(o, n.div_ceil(2), eps, c, m, r),
    );
    on_vs_off(
        &lab,
        OperatorKind::Percentile,
        |o, m| percentile_vao(o, 0.9, wide, m),
        |o, c, m, r| percentile_vao_traced(o, 0.9, wide, c, m, r),
    );
    let cell = PrecisionConstraint::new(1.0).unwrap();
    on_vs_off(
        &lab,
        OperatorKind::HeavyHitters,
        |o, m| heavy_hitters_vao(o, 2, cell, m),
        |o, c, m, r| heavy_hitters_vao_traced(o, 2, cell, c, m, r),
    );
}

/// Runs one operator untraced and traced over fresh copies of the lab's
/// objects and requires bit-identical executions.
fn on_vs_off<T: PartialEq + std::fmt::Debug>(
    lab: &Lab,
    kind: OperatorKind,
    plain: impl Fn(&mut [BondObject], &mut WorkMeter) -> Result<T, VaoError>,
    traced: impl Fn(
        &mut [BondObject],
        &mut AggregateConfig,
        &mut WorkMeter,
        &mut Recorder,
    ) -> Result<T, VaoError>,
) {
    let mut plain_meter = WorkMeter::new();
    let mut objs = lab.objects(&mut plain_meter);
    let off = plain(&mut objs, &mut plain_meter).unwrap();

    let mut traced_meter = WorkMeter::new();
    let mut objs = lab.objects(&mut traced_meter);
    let mut rec = Recorder::new();
    let on = traced(
        &mut objs,
        &mut AggregateConfig::default(),
        &mut traced_meter,
        &mut rec,
    )
    .unwrap();

    assert_eq!(off, on, "{kind}");
    assert_eq!(plain_meter.breakdown(), traced_meter.breakdown(), "{kind}");
    assert!(traced_meter.iterations() > 0, "{kind} refined nothing");
    assert_eq!(
        rec.iterations_per_object().iter().sum::<u64>(),
        traced_meter.iterations(),
        "{kind}"
    );
    assert!(matches!(
        rec.events().first(),
        Some(TraceEvent::OperatorStart { kind: k, objects }) if *k == kind && *objects == lab.len()
    ));
    assert!(
        matches!(rec.events().last(), Some(TraceEvent::OperatorEnd(e))
        if e.kind == kind && e.iterations == traced_meter.iterations())
    );
}

/// Same property for the per-object selection path used by the stream
/// engine and the Figure-8 sweep.
#[test]
fn selection_observer_does_not_change_work() {
    let mut obj_a =
        ScriptedObject::converging(&[(98.0, 110.0), (99.0, 103.0), (100.5, 101.0)], 10, 0.01);
    let mut obj_b = obj_a.clone();
    let vao = SelectionVao::new(CmpOp::Gt, 100.0).unwrap();

    let mut plain_meter = WorkMeter::new();
    let plain = vao.evaluate(&mut obj_a, &mut plain_meter).unwrap();

    let mut traced_meter = WorkMeter::new();
    let mut rec = Recorder::new();
    let traced = vao
        .evaluate_traced(&mut obj_b, &mut traced_meter, &mut rec)
        .unwrap();

    assert_eq!(plain.satisfied, traced.satisfied);
    assert_eq!(plain_meter.breakdown(), traced_meter.breakdown());
    assert_eq!(plain_meter.iterations(), traced_meter.iterations());
    assert_eq!(rec.iterations_for(0), traced_meter.iterations());
}
