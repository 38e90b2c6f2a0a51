//! Property tests for the PR-10 calibration fields in persisted records:
//! random calibration state round-trips bit-exactly through the tick and
//! snapshot codecs, and legacy (PR 4–9) records — which never carried the
//! fields — always parse as cold/uncalibrated state instead of erroring.

use proptest::prelude::*;
use va_persist::json::Json;
use va_persist::record::{CalibrationState, JournalEvent, PassFail, SnapshotRecord, TickRecord};
use va_stream::{IterHistogram, TickStats};
use vao::cost::{CalCell, WorkBreakdown, CAL_CLASSES};
use vao::ops::selection::CmpOp;
use vao::trace::CpuEstimation;

fn stats(iterations: u64, pct_iterations: u64) -> TickStats {
    TickStats {
        rate: 0.05,
        work: WorkBreakdown::default(),
        wall: std::time::Duration::from_nanos(1),
        iterations,
        operator: "shared_pool",
        objects: 1,
        iter_histogram: IterHistogram::new(),
        cpu_est: CpuEstimation {
            iterations,
            pct_iterations,
            mean_abs_error: 1.5,
            mean_abs_pct_error: 0.25,
        },
    }
}

fn tick(calibration: Option<CalibrationState>) -> TickRecord {
    TickRecord {
        relation: 1,
        tick: 9,
        rate: 0.05,
        shed: 0,
        budget_exhausted: false,
        stats: stats(4, 4),
        sessions: Vec::new(),
        answers: Vec::new(),
        warm: Vec::new(),
        calibration,
    }
}

fn op_of(tag: u8) -> CmpOp {
    match tag % 4 {
        0 => CmpOp::Gt,
        1 => CmpOp::Ge,
        2 => CmpOp::Lt,
        _ => CmpOp::Le,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calibration_state_round_trips_through_tick_records(
        seeds in prop::collection::vec(any::<u64>(), CAL_CLASSES),
        pred_seeds in prop::collection::vec(any::<u64>(), 0..6),
    ) {
        let cells: [CalCell; CAL_CLASSES] = std::array::from_fn(|i| {
            let s = seeds[i];
            CalCell {
                observations: s % 1_000,
                est_sum: (s >> 10) % 1_000_000,
                actual_sum: (s >> 30) % 1_000_000,
            }
        });
        let predicates: Vec<(CmpOp, f64, PassFail)> = pred_seeds
            .iter()
            .map(|&s| {
                (
                    op_of(s as u8),
                    // Exercise awkward decimals: the codec must round-trip
                    // the exact bits through shortest-display formatting.
                    (s % 100_000) as f64 / 7.0,
                    PassFail {
                        pass: s % 977,
                        fail: (s >> 16) % 977,
                    },
                )
            })
            .collect();
        let state = CalibrationState { cells, predicates };

        // Journal tick record round-trip.
        let ev = JournalEvent::Tick(Box::new(tick(Some(state.clone()))));
        let back = JournalEvent::parse(&ev.to_line()).expect("parse tick");
        prop_assert_eq!(&back, &ev);
        match back {
            JournalEvent::Tick(t) => {
                let restored = t.calibration.expect("calibration present");
                for (a, b) in restored.predicates.iter().zip(&state.predicates) {
                    prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            other => prop_assert!(false, "unexpected event {:?}", other),
        }

        // Snapshot relation-section round-trip rides the same codec.
        let mut section_json = String::from(
            r#"{"relation":1,"def":{"name":"default","bonds":[]},"next_session_id":1,"ticks":0,"shed":0,"sessions":[],"history":[],"warm":[],"answers":[]"#,
        );
        let ev_line = ev.to_line();
        let cal_start = ev_line.find("\"calibration\":").expect("calibration field");
        section_json.push(',');
        // Drop only the tick object's final closing brace, keeping the
        // calibration object intact.
        section_json.push_str(&ev_line[cal_start..ev_line.len() - 1]);
        section_json.push('}');
        let doc = format!(
            r#"{{"seq":1,"journal_events":0,"segment":1,"segment_bytes":0,"next_relation_id":2,"relations":[{section_json}]}}"#
        );
        let snap = SnapshotRecord::parse(&doc).expect("parse snapshot");
        prop_assert_eq!(snap.relations[0].calibration.as_ref(), Some(&state));
    }

    #[test]
    fn legacy_records_without_calibration_fields_parse_as_cold(
        iterations in 0u64..10_000,
        ticks in 0u64..50,
    ) {
        // A tick line as a PR 4–9 server wrote it: no "calibration", and a
        // "cpu" object without "pct_iterations".
        let line = format!(
            r#"{{"ev":"tick","relation":1,"tick":{ticks},"rate":0.05,"shed":0,"budget_exhausted":false,"stats":{{"rate":0.05,"work":{{"exec":0,"get":0,"store":0,"choose":0}},"wall_nanos":1,"iterations":{iterations},"operator":"shared_pool","objects":1,"hist":[0,0,0,0,0,0,0,0,0],"cpu":{{"iterations":{iterations},"mae":1.5,"mape":0.25}}}},"sessions":[],"answers":[],"warm":[]}}"#
        );
        let parsed = JournalEvent::parse(&line).expect("legacy tick must stay parseable");
        match parsed {
            JournalEvent::Tick(t) => {
                prop_assert_eq!(t.calibration, None);
                prop_assert_eq!(t.stats.cpu_est.pct_iterations, iterations);
            }
            other => prop_assert!(false, "unexpected event {:?}", other),
        }

        // And a legacy snapshot section parses cold too.
        let doc = format!(
            r#"{{"seq":1,"journal_events":{ticks},"segment":1,"segment_bytes":0,"next_relation_id":2,"relations":[{{"relation":1,"def":{{"name":"default","bonds":[]}},"next_session_id":1,"ticks":{ticks},"shed":0,"sessions":[],"history":[],"warm":[],"answers":[]}}]}}"#
        );
        let snap = SnapshotRecord::parse(&doc).expect("legacy snapshot must stay parseable");
        prop_assert_eq!(snap.relations[0].calibration.as_ref(), None);
    }

    #[test]
    fn modern_records_without_calibration_still_round_trip(
        pct in 0u64..100,
    ) {
        // Calibration disabled: the field is simply absent, and the new
        // pct_iterations field round-trips on its own.
        let mut t = tick(None);
        t.stats = stats(100, pct);
        let ev = JournalEvent::Tick(Box::new(t));
        let line = ev.to_line();
        prop_assert!(!line.contains("calibration"));
        prop_assert!(Json::parse(&line).is_ok());
        let back = JournalEvent::parse(&line).expect("parse");
        prop_assert_eq!(back, ev);
    }
}
