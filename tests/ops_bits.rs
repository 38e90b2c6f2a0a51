//! Absolute bit pins for the §5 operators.
//!
//! The operator unit tests assert properties (the winner, a width, "fewer
//! iterations than"), and the cross-operator tests compare one operator
//! against another (`topk(1)` vs MAX, `quantile(N)` vs MIN). A rewrite that
//! moves a tie-break, a candidate order or a charge in every copy at once
//! passes them all, so this file pins the executions themselves: for every
//! operator, on a scripted object set with exact ties on `L` and on `H` at
//! each separation boundary and on 24 real-like bonds, one row of literal
//! `u64`s holding
//!
//! * the answer (indices, bound bits, tie lists in the order returned),
//! * `iterations`,
//! * the four `WorkBreakdown` components,
//! * an FNV-1a hash of every object's final `(lo, hi)` bit patterns, and
//! * where the operator was called through a traced entry point, an FNV-1a
//!   hash of `format!("{:?}", recorder.events())`.
//!
//! The operators may be rebuilt freely; these literals may not change.

use va_bench::Lab;
use vao_repro::vao::cost::WorkMeter;
use vao_repro::vao::interface::ResultObject;
use vao_repro::vao::ops::count::count_vao;
use vao_repro::vao::ops::heavy::heavy_hitters_vao;
use vao_repro::vao::ops::hybrid::{hybrid_weighted_sum_traced, HybridChoice, HybridConfig};
use vao_repro::vao::ops::minmax::{max_vao_traced, min_vao_traced, AggregateConfig, ExtremeResult};
use vao_repro::vao::ops::oracle::oracle_max;
use vao_repro::vao::ops::percentile::percentile_vao;
use vao_repro::vao::ops::quantile::quantile_vao;
use vao_repro::vao::ops::selection::{select_traced, CmpOp};
use vao_repro::vao::ops::sum::{weighted_sum_vao_traced, SumResult};
use vao_repro::vao::ops::topk::topk_vao;
use vao_repro::vao::ops::traditional::{calibrate, BlackBoxSpec};
use vao_repro::vao::precision::PrecisionConstraint;
use vao_repro::vao::testkit::ScriptedObject;
use vao_repro::vao::trace::Recorder;

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn eps(e: f64) -> PrecisionConstraint {
    PrecisionConstraint::new(e).unwrap()
}

/// A list in the order the operator returned it: length, then the items.
fn list(items: &[usize]) -> Vec<u64> {
    let mut words = vec![items.len() as u64];
    words.extend(items.iter().map(|&i| i as u64));
    words
}

fn extreme(r: &ExtremeResult) -> Vec<u64> {
    let mut words = vec![
        r.argext as u64,
        r.bounds.lo().to_bits(),
        r.bounds.hi().to_bits(),
    ];
    words.extend(list(&r.ties));
    words.push(r.iterations);
    words
}

fn sum(r: &SumResult) -> Vec<u64> {
    vec![
        r.bounds.lo().to_bits(),
        r.bounds.hi().to_bits(),
        u64::from(r.stopped_at_floor),
        r.iterations,
    ]
}

/// One operator call: returns the answer words ending in `iterations`.
type Run<'a, R> = &'a dyn Fn(&mut [R], &mut WorkMeter, &mut Recorder) -> Vec<u64>;

/// Collects every drifted row, so one run lists them all in the form the
/// literals are written in.
#[derive(Default)]
struct Pins {
    drift: Vec<String>,
}

impl Pins {
    /// Runs one operator over `objs` with a fresh meter and recorder and
    /// appends the work components, the final-bounds hash and (if anything
    /// was recorded) the trace hash to its answer words.
    fn case<R: ResultObject>(
        &mut self,
        name: &str,
        mut objs: Vec<R>,
        expected: &[u64],
        run: Run<R>,
    ) {
        let mut meter = WorkMeter::new();
        let mut rec = Recorder::new();
        let mut row = run(&mut objs, &mut meter, &mut rec);
        let w = meter.breakdown();
        row.extend([w.exec_iter, w.get_state, w.store_state, w.choose_iter]);
        row.push(fnv(objs.iter().flat_map(|o| {
            let b = o.bounds();
            let mut bytes = [0u8; 16];
            bytes[..8].copy_from_slice(&b.lo().to_bits().to_le_bytes());
            bytes[8..].copy_from_slice(&b.hi().to_bits().to_le_bytes());
            bytes
        })));
        if !rec.events().is_empty() {
            row.push(fnv(format!("{:?}", rec.events()).bytes()));
        }
        if row != expected {
            let listing: Vec<String> = row.iter().map(|v| format!("0x{v:x}")).collect();
            self.drift
                .push(format!("{name}: &[{}]", listing.join(", ")));
        }
    }

    fn finish(self) {
        assert!(
            self.drift.is_empty(),
            "operator executions drifted; actual rows:\n{}",
            self.drift.join("\n")
        );
    }
}

/// Runs every operator over fresh copies of one object set. `expected` is
/// indexed in the order of the `case` calls below.
fn pin_all_operators<R: ResultObject>(
    fresh: impl Fn() -> Vec<R>,
    specs: &[BlackBoxSpec],
    constant: f64,
    true_argmax: usize,
    expected: &[&[u64]],
) {
    let n = fresh().len();
    let mut pins = Pins::default();
    let mut expected = expected.iter();
    let mut case = |name: &str, run: Run<R>| {
        let row = expected.next().copied().unwrap_or(&[]);
        pins.case(name, fresh(), row, run);
    };

    for op in [CmpOp::Gt, CmpOp::Le] {
        case(
            &format!("selection {op} {constant}"),
            &|objs, meter, rec| {
                let (mut satisfied, mut at_min_width, mut iterations) = (0u64, 0u64, 0u64);
                for (i, obj) in objs.iter_mut().enumerate() {
                    let out = select_traced(obj, op, constant, meter, rec).unwrap();
                    satisfied |= u64::from(out.satisfied) << i;
                    at_min_width |= u64::from(out.decided_at_min_width) << i;
                    iterations += out.iterations;
                }
                vec![satisfied, at_min_width, iterations]
            },
        );
    }
    for slack in [0, 2] {
        case(
            &format!("count > {constant} slack {slack}"),
            &|objs, meter, _| {
                let r = count_vao(objs, CmpOp::Gt, constant, slack, meter).unwrap();
                let mut words = vec![r.count_lo as u64, r.count_hi as u64];
                words.extend(list(&r.unresolved));
                words.push(r.iterations);
                words
            },
        );
    }
    case("max", &|objs, meter, rec| {
        let mut config = AggregateConfig::default();
        extreme(&max_vao_traced(objs, eps(0.01), &mut config, meter, rec).unwrap())
    });
    case("min", &|objs, meter, rec| {
        let mut config = AggregateConfig::default();
        extreme(&min_vao_traced(objs, eps(0.01), &mut config, meter, rec).unwrap())
    });
    let sum_eps = eps(n as f64 * 0.05);
    case("sum", &|objs, meter, rec| {
        let mut config = AggregateConfig::default();
        let weights = vec![1.0; n];
        sum(&weighted_sum_vao_traced(objs, &weights, sum_eps, &mut config, meter, rec).unwrap())
    });
    case("ave", &|objs, meter, rec| {
        let mut config = AggregateConfig::default();
        let weights = vec![1.0 / n as f64; n];
        sum(&weighted_sum_vao_traced(objs, &weights, eps(0.02), &mut config, meter, rec).unwrap())
    });
    case("hybrid sum", &|objs, meter, rec| {
        let mut config = AggregateConfig::default();
        // One hot object: the rule must route this one to the VAO.
        let weights: Vec<f64> = (0..n).map(|i| if i == 0 { 40.0 } else { 1.0 }).collect();
        let (r, decision) = hybrid_weighted_sum_traced(
            objs,
            &weights,
            specs,
            eps(n as f64 * 0.1),
            &HybridConfig::default(),
            &mut config,
            meter,
            rec,
        )
        .unwrap();
        assert_eq!(decision.choice, HybridChoice::Vao);
        sum(&r)
    });
    for k in [1, 3] {
        case(&format!("topk {k}"), &|objs, meter, _| {
            let r = topk_vao(objs, k, eps(0.01), meter).unwrap();
            let mut words = list(&r.members);
            for b in &r.bounds {
                words.extend([b.lo().to_bits(), b.hi().to_bits()]);
            }
            words.extend(list(&r.ties));
            words.push(r.iterations);
            words
        });
    }
    for k in [1, n.div_ceil(2), n] {
        case(&format!("quantile {k}"), &|objs, meter, _| {
            extreme(&quantile_vao(objs, k, eps(0.01), meter).unwrap())
        });
    }
    for phi in [0.1, 0.5, 0.9] {
        case(&format!("percentile {phi}"), &|objs, meter, _| {
            let r = percentile_vao(objs, phi, eps(0.05), meter).unwrap();
            vec![
                r.bounds.lo().to_bits(),
                r.bounds.hi().to_bits(),
                r.rank as u64,
                r.refined as u64,
                r.iterations,
            ]
        });
    }
    case("heavyhitters 3", &|objs, meter, _| {
        let r = heavy_hitters_vao(objs, 3, eps(1.0), meter).unwrap();
        let mut words = vec![r.cells.len() as u64];
        for c in &r.cells {
            words.extend([c.cell as u64, c.count]);
        }
        words.push(r.ties.len() as u64);
        words.extend(r.ties.iter().map(|&c| c as u64));
        words.extend([r.refined as u64, r.iterations]);
        words
    });
    case("oracle max", &|objs, meter, _| {
        extreme(&oracle_max(objs, true_argmax, eps(0.01), meter).unwrap())
    });
    pins.finish();
    assert!(expected.next().is_none(), "more pinned rows than cases");
}

/// Eight objects whose scripts tie exactly where the separations decide:
///
/// * `o0`/`o1` share `H` at steps 0–2 with different `L` (the rank-1
///   boundary; the sort breaks it on `L`);
/// * `o2`/`o3` share both `L` and `H` at steps 0–1 (the rank-3 boundary;
///   only the index is left), and `o4` joins them on `H` with a lower `L`
///   (the rank-4 boundary);
/// * `o0`/`o2`/`o3` share `L` with different `H` at step 0, and `o6`/`o7`
///   share `L` with different `H` at steps 0–2: the lowest lower bound
///   among the members of rank 4 and of rank 8, which the inner phase of
///   `quantile_vao` and MIN's negated MAX break differently;
/// * `o3`/`o4` converge to identical bounds that start at the selection
///   constant (ties at `minWidth`, decided at equality).
fn scripted() -> Vec<ScriptedObject> {
    let script = |cost, steps: &[(f64, f64)]| ScriptedObject::converging(steps, cost, 0.01);
    vec![
        script(
            10,
            &[
                (90.0, 120.0),
                (98.0, 112.0),
                (103.0, 107.0),
                (104.9, 105.1),
                (105.0, 105.004),
            ],
        ),
        script(
            14,
            &[
                (92.0, 120.0),
                (99.0, 112.0),
                (102.0, 107.0),
                (104.2, 104.9),
                (104.5, 104.504),
            ],
        ),
        script(
            8,
            &[
                (90.0, 118.0),
                (96.0, 110.0),
                (100.0, 104.0),
                (101.6, 102.5),
                (102.0, 102.004),
            ],
        ),
        script(
            8,
            &[
                (90.0, 118.0),
                (96.0, 110.0),
                (99.0, 104.0),
                (100.5, 101.5),
                (101.0, 101.004),
            ],
        ),
        script(
            12,
            &[
                (85.0, 118.0),
                (94.0, 108.0),
                (98.0, 103.0),
                (100.5, 101.6),
                (101.0, 101.004),
            ],
        ),
        script(
            9,
            &[
                (85.0, 114.0),
                (94.0, 106.0),
                (98.0, 101.5),
                (99.4, 100.2),
                (99.998, 100.002),
            ],
        ),
        script(
            11,
            &[
                (80.0, 110.0),
                (88.0, 100.0),
                (92.0, 96.0),
                (93.5, 94.5),
                (94.0, 94.004),
            ],
        ),
        script(
            7,
            &[
                (80.0, 112.0),
                (88.0, 102.0),
                (92.0, 97.0),
                (93.0, 94.4),
                (93.5, 93.504),
            ],
        ),
    ]
}

#[test]
fn scripted_ties_keep_their_bits() {
    let specs: Vec<BlackBoxSpec> = scripted()
        .iter_mut()
        .map(|o| calibrate(o, &mut WorkMeter::new()).unwrap())
        .collect();
    pin_all_operators(scripted, &specs, 101.0, 0, SCRIPTED);
}

#[test]
fn real_like_bonds_keep_their_bits() {
    let lab = Lab::new(24, 1994);
    let true_argmax = (0..lab.len())
        .max_by(|&a, &b| lab.converged[a].total_cmp(&lab.converged[b]))
        .unwrap();
    pin_all_operators(
        || lab.objects(&mut WorkMeter::new()),
        &lab.specs,
        100.0,
        true_argmax,
        BONDS,
    );
}

#[rustfmt::skip]
const SCRIPTED: &[&[u64]] = &[
    // selection > 101
    &[0x7, 0x18, 0x15, 0xcc, 0x15, 0x15, 0x0, 0x34c7f382ea642e2c, 0xc10ad38115ded8e4],
    // selection <= 101
    &[0xf8, 0x18, 0x15, 0xcc, 0x15, 0x15, 0x0, 0x34c7f382ea642e2c, 0xc10ad38115ded8e4],
    // count > 101 slack 0
    &[0x3, 0x3, 0x0, 0x15, 0xcc, 0x15, 0x15, 0x62, 0x34c7f382ea642e2c],
    // count > 101 slack 2
    &[0x3, 0x5, 0x2, 0x3, 0x4, 0x11, 0xa4, 0x11, 0x11, 0x5b, 0xd307da7ff1998ca3],
    // max
    &[0x0, 0x405a400000000000, 0x405a404189374bc7, 0x0, 0x12, 0xbc, 0x12, 0x12, 0x80, 0x8ae3f8916dd55580, 0x7897a434dfe2bada],
    // min
    &[0x7, 0x4057600000000000, 0x4057604189374bc7, 0x0, 0xe, 0x85, 0xe, 0xe, 0x63, 0x2f7b939ec50b5438, 0x36b57b0f09eab45a],
    // sum
    &[0x4089072f1a9fbe77, 0x408909020c49ba5e, 0x0, 0x1f, 0x132, 0x1f, 0x1f, 0xe3, 0xe80b46cf4c43c39a, 0xb3d63382b3cb981c],
    // ave
    &[0x405907fbe76c8b44, 0x4059083d70a3d70a, 0x0, 0x20, 0x13c, 0x20, 0x20, 0xe4, 0xf69bc21f2b7103e0, 0xd8de99d697ae224e],
    // hybrid sum
    &[0x40b31fff7ced9168, 0x40b3202f9db22d0e, 0x0, 0x20, 0x13c, 0x20, 0x20, 0xda, 0xf69bc21f2b7103e0, 0xe5e2a98384da6efe],
    // topk 1
    &[0x1, 0x0, 0x405a400000000000, 0x405a404189374bc7, 0x0, 0x12, 0xbc, 0x12, 0x12, 0x80, 0x8ae3f8916dd55580],
    // topk 3
    &[0x3, 0x0, 0x1, 0x2, 0x405a400000000000, 0x405a404189374bc7, 0x405a200000000000, 0x405a204189374bc7, 0x4059800000000000, 0x4059804189374bc7, 0x0, 0x18, 0xf3, 0x18, 0x18, 0x77, 0xff1f811e0ea12f04],
    // quantile 1
    &[0x0, 0x405a400000000000, 0x405a404189374bc7, 0x0, 0x12, 0xbc, 0x12, 0x12, 0x80, 0x8ae3f8916dd55580],
    // quantile 4
    &[0x3, 0x4059400000000000, 0x4059404189374bc7, 0x1, 0x4, 0x15, 0xcc, 0x15, 0x15, 0x5f, 0x34c7f382ea642e2c],
    // quantile 8
    &[0x7, 0x4057600000000000, 0x4057604189374bc7, 0x0, 0xe, 0x85, 0xe, 0xe, 0x63, 0x2f7b939ec50b5438],
    // percentile 0.1
    &[0x4057600000000000, 0x4057604189374bc7, 0x8, 0x8, 0xd, 0x7a, 0xd, 0xd, 0x5b, 0x2ed228f0495639f3],
    // percentile 0.5
    &[0x4059400000000000, 0x4059404189374bc7, 0x4, 0x8, 0x16, 0xd4, 0x16, 0x16, 0x95, 0xe9ce8aeb18a8a6c7],
    // percentile 0.9
    &[0x405a400000000000, 0x405a404189374bc7, 0x1, 0x8, 0x12, 0xbc, 0x12, 0x12, 0x76, 0x8ae3f8916dd55580],
    // heavyhitters 3
    &[0x3, 0x65, 0x2, 0x5d, 0x1, 0x5e, 0x1, 0x4, 0x64, 0x66, 0x68, 0x69, 0x8, 0x1f, 0x12e, 0x1f, 0x1f, 0xd0, 0x3fb2b2357bd9adef],
    // oracle max
    &[0x0, 0x405a400000000000, 0x405a404189374bc7, 0x0, 0x11, 0xae, 0x11, 0x11, 0x0, 0x7c87cc6d713f567],
];

#[rustfmt::skip]
const BONDS: &[&[u64]] = &[
    // selection > 100
    &[0xfff9bf, 0x0, 0x2b, 0x44d0, 0xf, 0x1c, 0x0, 0xd162a3210f2a3caa, 0x1b871ca4370d86ac],
    // selection <= 100
    &[0x640, 0x0, 0x2b, 0x44d0, 0xf, 0x1c, 0x0, 0xd162a3210f2a3caa, 0x1b871ca4370d86ac],
    // count > 100 slack 0
    &[0x15, 0x15, 0x0, 0x2b, 0x44d0, 0xf, 0x1c, 0x125, 0xd162a3210f2a3caa],
    // count > 100 slack 2
    &[0x14, 0x16, 0x2, 0x6, 0x12, 0x27, 0x2ad0, 0xf, 0x18, 0x11f, 0x7f4180a948bfc223],
    // max
    &[0x1, 0x405eca71493f2767, 0x405ecae66a56aa1a, 0x0, 0x30, 0x8181f0, 0x10, 0x20, 0x191, 0x22916fc82fa31e5a, 0xda4ba69125e1f09b],
    // min
    &[0x9, 0x4056344252c37384, 0x405634c0f782c407, 0x0, 0x18, 0x40d280, 0x8, 0x10, 0x4b, 0x1bb0ef2d83b3d2cb, 0x6e34d3d598cb0644],
    // sum
    &[0x40a42b8455ce28ba, 0x40a42de1995010b3, 0x0, 0x119, 0x54be80, 0x18, 0x101, 0x1a58, 0x60f415d2da0806dc, 0xac41804b8bb9f289],
    // ave
    &[0x405ae54fd0f1d5c0, 0x405ae6918d08fed8, 0x0, 0x150, 0x187ae80, 0x18, 0x138, 0x1f80, 0xec08878d1b358496, 0xaa32aa88da2e4ef7],
    // hybrid sum
    &[0x40baf4d389b07356, 0x40baf72fbe1f39e1, 0x0, 0x10b, 0x3fee80, 0x18, 0xf3, 0x1908, 0x9f5647c02b840c31, 0xf5f135e2c08c2eeb],
    // topk 1
    &[0x1, 0x1, 0x405eca71493f2767, 0x405ecae66a56aa1a, 0x0, 0x30, 0x8181f0, 0x10, 0x20, 0x191, 0x22916fc82fa31e5a],
    // topk 3
    &[0x3, 0x1, 0x4, 0xe, 0x405eca71493f2767, 0x405ecae66a56aa1a, 0x405e8b8d859dd6b8, 0x405e8c01ac74f834, 0x405e5266e35c2c43, 0x405e52da34210a32, 0x0, 0x4c, 0x1841cd0, 0x10, 0x3c, 0x1bf, 0xf3930b981f4e617c],
    // quantile 1
    &[0x1, 0x405eca71493f2767, 0x405ecae66a56aa1a, 0x0, 0x30, 0x8181f0, 0x10, 0x20, 0x191, 0x22916fc82fa31e5a],
    // quantile 12
    &[0xb, 0x405a68d97a93ed38, 0x405a696fff5230a4, 0x0, 0x4d, 0x436700, 0x11, 0x3c, 0x26e, 0x884ff4cbf30ea6b8],
    // quantile 24
    &[0x9, 0x4056344252c37384, 0x405634c0f782c407, 0x0, 0x18, 0x40d280, 0x8, 0x10, 0x4b, 0x1bb0ef2d83b3d2cb],
    // percentile 0.1
    &[0x4058d48fa2ce17a3, 0x4058d71550548a02, 0x16, 0x12, 0x48, 0x57ab0, 0x12, 0x36, 0x357, 0x1a43d64723618c10],
    // percentile 0.5
    &[0x405a68300c0f7439, 0x405a6ade41cbf252, 0xc, 0x18, 0x6f, 0x12a9f0, 0x18, 0x57, 0x57f, 0x45a57689cff999c9],
    // percentile 0.9
    &[0x405e5191519335dd, 0x405e54a50a0b90fb, 0x3, 0x10, 0x3a, 0x6c310, 0x10, 0x2a, 0x1d4, 0xcc69b03a1ec9bb21],
    // heavyhitters 3
    &[0x3, 0x64, 0x3, 0x69, 0x3, 0x65, 0x2, 0x3, 0x68, 0x6e, 0x74, 0x18, 0xcc, 0x174880, 0x18, 0xb4, 0xf9a, 0x8083897549cf283e],
    // oracle max
    &[0x1, 0x405eca71493f2767, 0x405ecae66a56aa1a, 0x0, 0x25, 0x8161b0, 0x9, 0x1c, 0x0, 0x20d4f42386382825],
];
