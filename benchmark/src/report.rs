//! Metrics and the benchmark's output: a human-readable table, then
//! one JSON object as the last line of standard output.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`, starting with a letter or digit).
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Jobs (or requests) attempted.
    pub attempted: u64,
    /// Jobs that errored, panicked, were dropped or refused, or failed
    /// a correctness check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// One line per failed check, for the log.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts a failed job and remembers why (the first few reasons).
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(why());
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Share of attempted jobs that passed.
    pub fn pass_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed as f64 / self.attempted as f64
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Renders a float for JSON: finite values with all their digits,
/// anything else as `0`.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

/// The final JSON line.
pub fn json_line(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The end-to-end table: one row per workload, each metric as value,
/// unit and sample count.
pub fn end_to_end_table(rows: &[(&str, &Outcome)]) -> String {
    let mut out = String::new();
    let Some((_, first)) = rows.first() else {
        return out;
    };
    let _ = write!(out, "{:<10}", "workload");
    for m in &first.metrics {
        let _ = write!(out, " {:>28}", m.name);
    }
    out.push('\n');
    for (workload, outcome) in rows {
        let _ = write!(out, "{workload:<10}");
        for m in &outcome.metrics {
            let cell = format!("{:.4} {} n={}", m.value, m.unit, m.samples);
            let _ = write!(out, " {cell:>28}");
        }
        out.push('\n');
    }
    for (workload, outcome) in rows {
        let _ = writeln!(
            out,
            "# {workload}: attempted {}, failed {}",
            outcome.attempted, outcome.failed
        );
        for problem in &outcome.problems {
            let _ = writeln!(out, "# {workload} failed: {problem}");
        }
    }
    out
}

/// The per-layer table of a traced run: one row per metric.
pub fn layer_table(workload: &str, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<30} {:>16} {:<9} {:>9}",
        "workload", "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        let _ = writeln!(
            out,
            "{:<10} {:<30} {:>16.4} {:<9} {:>9}",
            workload, m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(
        out,
        "# {workload}: attempted {}, failed {}",
        outcome.attempted, outcome.failed
    );
    for problem in &outcome.problems {
        let _ = writeln!(out, "# {workload} failed: {problem}");
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process.
pub fn thread_count() -> f64 {
    proc_status_field("Threads:").unwrap_or(0.0)
}

fn proc_status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names() {
        for ok in [
            "setup_s",
            "latency_p99_ms",
            "flip.solve_ms",
            "a",
            "9x",
            "dse-cold",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn json_line_shape() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.push("latency_ms", 1.25, "ms", 3);
        assert_eq!(
            json_line(&outcome),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        outcome.fail(|| "boom".to_string());
        assert!(json_line(&outcome).starts_with("{\"correct\":false"));
        assert!((outcome.pass_share() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_numbers_stay_finite() {
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.1), "0.1");
    }
}
