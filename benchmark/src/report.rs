//! Metric records, the declared end-to-end metrics with their bounds, and
//! the two output forms: one readable line per metric, and the result
//! object the acceptance driver reads from the last line of stdout.

use ssa_bench::json::Value;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples (rounds, evaluations, repetitions…) stand behind
    /// the value.
    pub samples: u64,
    /// `(max − min) / median` over repetitions, where there are any.
    pub spread: Option<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            spread: None,
        }
    }

    pub fn with_spread(mut self, spread: f64) -> Self {
        self.spread = Some(spread);
        self
    }
}

/// What one pass (untraced or traced) of one workload produced.
pub struct Pass {
    pub metrics: Vec<Metric>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Readable lines for the report: round counts, exact counters, and
    /// anything that made the run incorrect.
    pub notes: Vec<String>,
}

/// A declared end-to-end metric: `(name, unit, better, bound)`. The same
/// table is in `BENCHMARK.json`; a unit test keeps the two equal.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("round_p50_ms", "ms", "lower", 0.25),
    ("round_p99_ms", "ms", "lower", 0.25),
    ("auctions_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("hot_bytes_per_advertiser", "B", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.20),
];

/// The regression bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(.., bound)| bound)
}

/// One line per metric: name, value, unit, sample count, and the
/// repetition spread; a metric whose spread exceeds its bound cannot
/// resolve a change of that size and is marked `unresolved`.
pub fn metric_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!(
            "{:<40} {:>16.6} {:<6} samples={}",
            m.name, m.value, m.unit, m.samples
        ));
        if let Some(spread) = m.spread {
            out.push_str(&format!(" {}.spread={spread:.4}", m.name));
            if bound_of(&m.name).is_some_and(|bound| spread > bound) {
                out.push_str(" unresolved");
            }
        }
        out.push('\n');
    }
    out
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Every value is written as measured, with all its digits; JSON has no
/// NaN or infinity, so those become 0.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let fields = vec![
                ("value".to_string(), Value::from(value)),
                ("unit".to_string(), Value::from(m.unit)),
            ];
            (m.name.clone(), Value::Object(fields))
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::from(correct)),
        ("attempted".into(), Value::from(attempted)),
        ("failed".into(), Value::from(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = [
            Metric::new("round_p50_ms", "ms", 1.2034, 3),
            Metric::new("setup_s", "s", f64::NAN, 3),
        ];
        let v = ssa_bench::json::parse(&result_line(true, 1000, 0, &metrics)).unwrap();
        let Value::Object(fields) = &v else {
            panic!("the result is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = v.get("metrics").unwrap().get("round_p50_ms").unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(1.2034));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.0));
    }
}
