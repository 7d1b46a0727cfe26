//! The result line and the process-memory readings.

use std::fmt::Write as _;

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_string(), value, unit });
    }

    /// Adds a count.
    pub fn count(&mut self, name: &str, value: f64) {
        self.put(name, value, "count");
    }
}

/// Formats a number for JSON: shortest round-trip digits, and non-finite
/// values (which no metric should produce) as `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Quotes a string for JSON.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A flat JSON object of already-encoded values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", quote(k))).collect();
    format!("{{{}}}", body.join(", "))
}

/// A `/proc/self/status` field in MB (`VmHWM`: peak resident set;
/// `VmRSS`: current). 0 where the field is unavailable.
pub fn memory_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.count("n", 3.0);
        assert_eq!(
            result_line(true, 4, 0, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn json_escapes_and_non_finite() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(0.1), "0.1");
        assert_eq!(object(&[("a", num(1.0))]), "{\"a\": 1}");
    }

    #[test]
    fn memory_is_read_from_proc() {
        assert!(memory_mb("VmHWM") > 0.0);
        assert!(memory_mb("VmRSS") > 0.0);
        assert_eq!(memory_mb("NoSuchField"), 0.0);
    }
}
