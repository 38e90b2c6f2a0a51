//! The theoretically optimal MAX iteration strategy of §6.2.
//!
//! The "Optimal" operator is told the argmax a priori. It iterates that
//! object until its error meets the precision constraint, then iterates
//! every other object just until its bounds no longer overlap the winner's.
//! Running the maximum to higher accuracy than requested is useless, so no
//! strategy can do better — which makes this the yardstick the MAX VAO is
//! measured against (the paper reports the VAO within 3 % of it).

use crate::cost::WorkMeter;
use crate::error::VaoError;
use crate::interface::ResultObject;
use crate::ops::drive::Driver;
use crate::ops::minmax::ExtremeResult;
use crate::ops::DEFAULT_ITERATION_LIMIT;
use crate::precision::PrecisionConstraint;

/// Evaluates MAX given oracular knowledge of the winning index.
///
/// # Errors
///
/// Same failure modes as the MAX VAO, plus a panic-free rejection of an
/// out-of-range `true_argmax` via [`VaoError::EmptyInput`] semantics is NOT
/// provided — passing a wrong argmax is a logic error in the caller and the
/// resulting bounds may be incorrect; this function is an experiment
/// yardstick, not a production operator.
pub fn oracle_max<R: ResultObject>(
    objs: &mut [R],
    true_argmax: usize,
    epsilon: PrecisionConstraint,
    meter: &mut WorkMeter,
) -> Result<ExtremeResult, VaoError> {
    if objs.is_empty() {
        return Err(VaoError::EmptyInput);
    }
    assert!(
        true_argmax < objs.len(),
        "oracle argmax {true_argmax} out of range for {} objects",
        objs.len()
    );
    epsilon.validate_single_object(objs)?;

    let mut drive = Driver::unobserved(DEFAULT_ITERATION_LIMIT, meter);

    // 1. Run the known maximum to the requested precision.
    let winner = &mut objs[true_argmax];
    while winner.bounds().width() > epsilon.epsilon() && !winner.converged() {
        drive.step(winner, true_argmax)?;
    }
    let winner_lo = winner.bounds().lo();

    // 2. Iterate every other object until it no longer overlaps.
    let mut ties = Vec::new();
    for (i, obj) in objs.iter_mut().enumerate() {
        if i == true_argmax {
            continue;
        }
        while obj.bounds().hi() >= winner_lo && !obj.converged() {
            drive.step(obj, i)?;
        }
        if obj.bounds().hi() >= winner_lo {
            // Converged but still overlapping: genuinely indistinguishable.
            ties.push(i);
        }
    }

    Ok(ExtremeResult {
        argext: true_argmax,
        bounds: objs[true_argmax].bounds(),
        ties,
        iterations: drive.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::ScriptedObject;

    fn objs() -> Vec<ScriptedObject> {
        vec![
            ScriptedObject::converging(&[(90.0, 110.0), (94.0, 96.0), (95.0, 95.005)], 10, 0.01),
            ScriptedObject::converging(
                &[(95.0, 112.0), (104.0, 106.0), (105.0, 105.005)],
                10,
                0.01,
            ),
            ScriptedObject::converging(&[(60.0, 80.0), (69.0, 71.0), (70.0, 70.005)], 10, 0.01),
        ]
    }

    #[test]
    fn oracle_refines_winner_then_separates_others() {
        let mut o = objs();
        let mut meter = WorkMeter::new();
        let res = oracle_max(
            &mut o,
            1,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.argext, 1);
        assert!(res.ties.is_empty());
        assert!(res.bounds.width() <= 0.01);
        // Winner fully converged (2 iterations). Object 0 needed one
        // iteration to drop its H from 110 below 105. Object 2 never
        // overlapped: zero iterations.
        assert!(o[1].converged());
        assert_eq!(o[0].position(), 1);
        assert_eq!(o[2].position(), 0);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn oracle_never_exceeds_vao_work() {
        use crate::ops::minmax::max_vao;
        let eps = PrecisionConstraint::new(0.01).unwrap();

        let mut a = objs();
        let mut oracle_meter = WorkMeter::new();
        let r1 = oracle_max(&mut a, 1, eps, &mut oracle_meter).unwrap();

        let mut b = objs();
        let mut vao_meter = WorkMeter::new();
        let r2 = max_vao(&mut b, eps, &mut vao_meter).unwrap();

        assert_eq!(r1.argext, r2.argext);
        assert!(
            oracle_meter.breakdown().exec_iter <= vao_meter.breakdown().exec_iter,
            "the oracle is a lower bound on execution work"
        );
    }

    #[test]
    fn oracle_reports_indistinguishable_ties() {
        let mut o = vec![
            ScriptedObject::converging(&[(90.0, 110.0), (100.0, 100.005)], 10, 0.01),
            ScriptedObject::converging(&[(90.0, 110.0), (99.998, 100.003)], 10, 0.01),
        ];
        let mut meter = WorkMeter::new();
        let res = oracle_max(
            &mut o,
            0,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        )
        .unwrap();
        assert_eq!(res.ties, vec![1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oracle_rejects_bad_index() {
        let mut o = objs();
        let mut meter = WorkMeter::new();
        let _ = oracle_max(
            &mut o,
            99,
            PrecisionConstraint::new(0.01).unwrap(),
            &mut meter,
        );
    }

    #[test]
    fn oracle_empty_input() {
        let mut o: Vec<ScriptedObject> = vec![];
        let mut meter = WorkMeter::new();
        assert!(matches!(
            oracle_max(
                &mut o,
                0,
                PrecisionConstraint::new(0.01).unwrap(),
                &mut meter
            ),
            Err(VaoError::EmptyInput)
        ));
    }
}
