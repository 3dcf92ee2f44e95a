//! Run results: sample statistics, process memory and the output lines.

use crate::metrics::{spec, Spec};
use std::fmt::Write as _;
use std::time::Duration;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `false` when any verdict contradicted its oracle.
    pub correct: bool,
    /// Jobs (property checks) attempted in the measured phase.
    pub attempted: u64,
    /// Jobs that failed: unknown, timed out, cancelled, outcome other than
    /// the expected one, or an error reply.
    pub failed: u64,
    /// The reported metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (sample counts,
    /// effort fingerprints, oracle findings).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }

    /// Reports 0 for every metric of `declared` not reported yet: the
    /// layers a workload does not reach.
    pub fn fill_zeros(&mut self, declared: &[Spec]) {
        for spec in declared {
            if !self.metrics.iter().any(|m| m.name == spec.name) {
                self.push(spec.name, 0.0);
            }
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The final output line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            let unit = spec(metric.name).map_or("", |s| s.unit);
            assert!(
                metric.value.is_finite(),
                "metric {} is not finite",
                metric.name
            );
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table: every metric by name, with its unit and
    /// its better direction.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for metric in &self.metrics {
            let (unit, better) = spec(metric.name).map_or(("", ""), |s| (s.unit, s.better));
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<6} ({better} is better)",
                metric.name, metric.value, unit
            );
        }
        out
    }
}

/// Nearest-rank quantile of `samples` (`q` in `0..=1`); 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `samples`; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly beyond the `q` quantile: the tail a percentile rests on.
pub fn tail_samples(count: usize, q: f64) -> usize {
    count - ((q * count as f64).ceil() as usize).min(count)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's resident-set high-water mark in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A sample-count note for a latency series.
pub fn sample_note(series: &str, count: usize, q: f64) -> String {
    format!(
        "samples {series}: n = {count}, {} beyond p{}",
        tail_samples(count, q),
        (q * 100.0).round()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(quantile(&samples, 0.9), 90.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(tail_samples(100, 0.9), 10);
        assert_eq!(median(&[]), 0.0);
    }
}
