//! Metric collection and the result line.
//!
//! Every timing is reported as a median and one tail percentile,
//! [`TAIL`], with its sample count. The tail is p90 because the
//! smallest timed sample of any workload (the open-loop steady phase)
//! holds a few hundred requests: p90 keeps at least ten samples beyond
//! it, p99 would not (it needs 1,000).

use std::fmt::Write as _;
use std::time::Duration;

/// The tail percentile every `_p90_` metric reports.
pub const TAIL: f64 = 0.90;

/// Fewest samples for which [`TAIL`] keeps ten samples beyond it.
pub const TAIL_MIN_SAMPLES: usize = 100;

/// A set of timings in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Dist(Vec<f64>);

impl Dist {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`; 0 when empty.
    fn pct(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn p50(&self) -> f64 {
        self.pct(0.5)
    }

    pub fn tail(&self) -> f64 {
        self.pct(TAIL)
    }
}

/// The median of `values`: the mean of the middle two for an even
/// count; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value, when it summarizes a distribution or
    /// a count over requests.
    samples: Option<usize>,
}

/// The metrics one run reports, in insertion order.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit, samples });
    }

    /// Adds `<prefix>_p50_ms` and `<prefix>_p90_ms` for `dist`.
    pub fn add_dist(&mut self, prefix: &str, dist: &Dist) {
        self.add(&format!("{prefix}_p50_ms"), dist.p50(), "ms", Some(dist.len()));
        self.add(&format!("{prefix}_p90_ms"), dist.tail(), "ms", Some(dist.len()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One human-readable line per metric, with its sample count.
    /// Tails over fewer than [`TAIL_MIN_SAMPLES`] samples are flagged.
    pub fn human(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = match m.samples {
                Some(0) => "  (n=0, not applicable)".to_owned(),
                Some(n) if m.name.contains("_p90") && n < TAIL_MIN_SAMPLES => {
                    format!("  (n={n}, too few samples for p90)")
                }
                Some(n) => format!("  (n={n})"),
                None => String::new(),
            };
            let _ = writeln!(out, "{workload} {} = {:.6} {}{samples}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Peak resident set size (`VmHWM`) in MiB, 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
