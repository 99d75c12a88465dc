//! Statistics and metric assembly: the end-to-end metrics of an
//! untraced run, the per-layer metrics of the traced replay, and the
//! result line.

use crate::replay::Counts;
use crate::trace::Tracer;
use std::collections::HashMap;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was taken over, for the report.
    pub samples: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples: samples.into(),
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value at the highest percentile with at least ten samples above
/// it, and that percentile. With ten samples or fewer, the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= 10 {
        return (sorted[n - 1], 100.0);
    }
    let k = n - 11;
    (sorted[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`); 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Count, total and self nanoseconds of the spans of one name (and
/// label, when the layer splits its metric).
#[derive(Default, Clone, Copy)]
pub struct Layer {
    pub calls: u64,
    pub ns: u64,
    pub self_ns: u64,
}

impl Layer {
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Span totals keyed by `name` and by `name/label`, over the jobs
/// `keep` accepts.
pub fn layers(tracer: &Tracer, keep: impl Fn(usize) -> bool) -> HashMap<String, Layer> {
    let own = tracer.self_ns();
    let mut layers: HashMap<String, Layer> = HashMap::new();
    for (span, self_ns) in tracer.spans().iter().zip(own) {
        if !keep(span.job as usize) {
            continue;
        }
        let mut add = |key: String| {
            let layer = layers.entry(key).or_default();
            layer.calls += 1;
            layer.ns += span.ns();
            layer.self_ns += self_ns;
        };
        add(span.name.to_string());
        if !span.label.is_empty() {
            add(format!("{}/{}", span.name, span.label));
            if let Some((family, backend)) = span.label.split_once('/') {
                add(format!("{}/{family}", span.name));
                add(format!("{}/{backend}", span.name));
            }
        }
    }
    layers
}

/// The deterministic counts as per-layer metrics, in report order.
pub fn count_metrics(counts: &Counts, jobs: usize) -> Vec<Metric> {
    let window = format!("first {jobs} stream jobs");
    let with_setup = format!("{window}, with any set-up job");
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let ticks = |family: &str| counts.ticks.get(family).copied().unwrap_or(0);
    let all_ticks: u64 = counts.ticks.values().sum();
    vec![
        Metric::new(
            "engine.ticks_executed.ref",
            ticks("ref") as f64,
            "count",
            with_setup.clone(),
        ),
        Metric::new(
            "engine.ticks_executed.dva",
            ticks("dva") as f64,
            "count",
            with_setup.clone(),
        ),
        Metric::new(
            "engine.ticks_executed.byp",
            ticks("byp") as f64,
            "count",
            with_setup.clone(),
        ),
        Metric::new(
            "engine.ticks_per_cycle",
            ratio(all_ticks, counts.cycles),
            "ratio",
            format!("{all_ticks} ticks / {} cycles", counts.cycles),
        ),
        Metric::new(
            "serve.simulations_per_job",
            ratio(counts.simulations, counts.jobs),
            "count",
            format!("{} simulations / {} jobs", counts.simulations, counts.jobs),
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            ratio(counts.hits, counts.lookups),
            "ratio",
            format!("{} hits / {} lookups", counts.hits, counts.lookups),
        ),
        Metric::new(
            "serve.cache_entries",
            counts.cache_entries as f64,
            "count",
            "entries loaded at open",
        ),
        Metric::new(
            "proto.bytes_per_point",
            ratio(counts.point_bytes, counts.point_lines),
            "count",
            format!(
                "{} bytes / {} point lines",
                counts.point_bytes, counts.point_lines
            ),
        ),
        Metric::new(
            "adaptive.rounds",
            counts.rounds as f64,
            "count",
            format!("{} adaptive jobs", counts.adaptive_jobs),
        ),
        Metric::new(
            "adaptive.sampled_fraction",
            ratio(counts.sampled, counts.dense),
            "ratio",
            format!("{} sampled / {} dense points", counts.sampled, counts.dense),
        ),
    ]
}

/// The counts as `name value` lines, for comparing runs of one seed.
pub fn count_lines(metrics: &[Metric]) -> String {
    let mut text = String::new();
    for metric in metrics {
        let _ = writeln!(text, "{} {:?}", metric.name, metric.value);
    }
    text
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its value and unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, percentile) = tail(&values);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
        assert_eq!(percentile, 90.0);
    }

    #[test]
    fn percentiles_and_medians() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(percentile(&values[..7], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
