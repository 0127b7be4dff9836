//! Collects one run's metrics, metadata and check results, and prints them.
//!
//! Standard output carries a human-readable table of every metric, one
//! `# run {...}` JSON line of run metadata, and as its last line the result
//! object: `{"correct", "attempted", "failed", "metrics"}`.

use std::fmt::Write as _;

/// Name and unit of a reported metric.
pub type Spec = (&'static str, &'static str);

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(&'static str, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records a metadata string.
    pub fn meta_str(&mut self, key: &'static str, value: &str) {
        self.meta.push((key, json_string(value)));
    }

    /// Records a metadata number.
    pub fn meta_num(&mut self, key: &'static str, value: f64) {
        self.meta.push((key, json_number(value)));
    }

    /// Counts one attempted operation (a set-up, a job or a session) and,
    /// if it failed or a check on its result failed, one failure.
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.failed += 1;
            eprintln!("check failed: {error}");
        }
    }

    /// Failed share of the attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every operation succeeded and passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints the table, the metadata line and the result line. The
    /// reported metrics must be exactly `expected`, with the same units;
    /// a mismatch, or a value that is not finite, fails the run.
    pub fn print(mut self, expected: &[Spec]) -> bool {
        let mut ordered = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, value, got)) if got == unit && value.is_finite() => {
                    ordered.push((name, value, unit));
                }
                Some(&(_, value, got)) => {
                    self.attempt(Err(format!(
                        "metric {name} = {value} {got}, declared in {unit}"
                    )));
                    ordered.push((name, 0.0, unit));
                }
                None => {
                    self.attempt(Err(format!("metric {name} was not measured")));
                    ordered.push((name, 0.0, unit));
                }
            }
        }
        let undeclared: Vec<String> = self
            .metrics
            .iter()
            .filter(|(name, _, _)| !expected.iter().any(|&(n, _)| n == name))
            .map(|(name, _, _)| format!("undeclared metric {name}"))
            .collect();
        for error in undeclared {
            self.attempt(Err(error));
        }

        for &(name, value, unit) in &ordered {
            println!("{name:<42} {value:>18.6} {unit}");
        }
        let mut meta = String::from("# run {");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(meta, "{sep}{}: {value}", json_string(key));
        }
        meta.push('}');
        println!("{meta}");

        let correct = self.correct();
        let mut line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in ordered.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_number(*value),
                json_string(unit)
            );
        }
        line.push_str("}}");
        println!("{line}");
        correct
    }
}

/// A JSON number with every digit of the value (`0` for a non-finite one,
/// which [`Report::print`] has already failed).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

fn json_string(value: &str) -> String {
    let mut out = String::with_capacity(value.len() + 2);
    out.push('"');
    for c in value.chars() {
        match c {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn missing_or_mismatched_metrics_fail_the_run() {
        let mut report = Report::default();
        report.attempt(Ok(()));
        report.metric("a", 1.0, "s");
        assert!(report.print(&[("a", "s")]));

        let mut report = Report::default();
        report.attempt(Ok(()));
        report.metric("a", 1.0, "ms");
        assert!(!report.print(&[("a", "s"), ("b", "s")]));
    }
}
