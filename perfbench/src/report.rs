//! Metric names, quantiles, and the printed report.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (runs, operations or versions).
    pub samples: u64,
}

impl Metric {
    /// A metric with its sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Whether `name` is a legal metric name: non-empty, only letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Samples ranked strictly above the 99th percentile of `n` samples, as
/// `stats::percentile` places it (interpolating between ranks).
fn beyond_p99(n: usize) -> usize {
    let rank = (0.99 * n.saturating_sub(1) as f64).floor() as usize;
    n.saturating_sub(rank + 1)
}

/// The 99th percentile, emitted only when at least ten samples lie
/// beyond it (fewer would make it an extreme, not a percentile).
pub fn p99(samples: &[f64]) -> Option<f64> {
    if beyond_p99(samples.len()) < 10 {
        return None;
    }
    stats::percentile(samples, 99.0)
}

/// Median of a non-empty set of host-time samples.
pub fn median(samples: &[f64]) -> f64 {
    stats::percentile(samples, 50.0).expect("at least one sample")
}

/// Formats a number for JSON: every digit as measured; non-finite values
/// (which the benchmark never means to emit) become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// each metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A human-readable table line for one metric.
pub fn table_line(m: &Metric) -> String {
    format!(
        "  {:<28} {:>16.6} {:<6} (n={})",
        m.name, m.value, m.unit, m.samples
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_checked() {
        assert!(valid_name("proxy.self_s.ClientPutReq"));
        assert!(valid_name("put-p50_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("ä"));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let under: Vec<f64> = (0..901).map(f64::from).collect();
        assert_eq!(beyond_p99(901), 9);
        assert_eq!(p99(&under), None, "9 samples beyond the p99");
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond_p99(1000), 10);
        let v = p99(&enough).expect("10 samples beyond the p99");
        assert_eq!(enough.iter().filter(|&&x| x > v).count(), 10);
        assert!(p99(&[]).is_none());
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s", 5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
