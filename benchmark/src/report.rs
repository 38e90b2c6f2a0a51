//! Named metrics and the one-line JSON result the driver reads.

use va_persist::json::{escape, Json};

/// One measured value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list; insertion order is print order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.0.iter().any(|m| m.name == name),
            "metric {name} reported twice"
        );
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one `run --workload W` measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every answer passed `--check` and every lap repeated lap 0 exactly.
    pub correct: bool,
    /// Ticks and control requests issued over all laps.
    pub attempted: u64,
    /// Those that errored, were refused, or failed the check.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, on one line. Values print with every digit
    /// `f64` carries (Rust's shortest round-trip form, never an exponent).
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    m.value,
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable table, one metric per line with its unit.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for m in &self.metrics.0 {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// A child's result line read back: `run` without a workload and
/// `selftest` run each workload in a child process.
pub struct ChildResult {
    pub correct: bool,
    pub failed: u64,
    /// (name, value, unit), in print order.
    pub metrics: Vec<(String, f64, String)>,
}

pub fn parse_result_line(line: &str) -> Result<ChildResult, String> {
    let doc = Json::parse(line)?;
    let correct = doc
        .get("correct")
        .and_then(Json::as_bool)
        .ok_or("missing \"correct\"")?;
    let failed = doc
        .get("failed")
        .and_then(Json::as_u64)
        .ok_or("missing \"failed\"")?;
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("missing \"metrics\"".to_string());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            match (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("metric {name} lacks a numeric value or a unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        correct,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut metrics = Metrics::default();
        metrics.put("tick_p50_ms", 41.250731, "ms");
        metrics.put("setup_s", 0.0625, "s");
        metrics.put("work_units_per_tick", 3_300_000.0, "count");
        Outcome {
            correct: true,
            attempted: 480,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let line = sample().to_json_line();
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(480));
        let unit = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("unit"))
            .and_then(Json::as_str);
        assert_eq!(unit, Some("s"));

        let child = parse_result_line(&line).expect("parses back");
        assert!(child.correct);
        assert_eq!(child.failed, 0);
        assert_eq!(
            child.metrics[0],
            ("tick_p50_ms".to_string(), 41.250731, "ms".to_string())
        );
        assert_eq!(child.metrics.len(), 3);
    }

    #[test]
    fn large_counts_print_without_an_exponent() {
        let line = sample().to_json_line();
        assert!(line.contains("\"value\": 3300000,"), "{line}");
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        Metrics::default().put("x", f64::NAN, "ms");
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_names_are_refused() {
        let mut m = Metrics::default();
        m.put("x", 1.0, "ms");
        m.put("x", 2.0, "ms");
    }
}
