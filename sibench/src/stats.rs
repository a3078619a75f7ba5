//! Order statistics and the metric records the harness prints.

use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
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

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); 0 for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile, at most the 99th and at least the median, that
/// still has ten samples beyond it in a sample of `n`.
#[must_use]
pub fn top_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Latency summary of one sample: median and top percentile, in ms.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub p50_ms: f64,
    pub top_ms: f64,
    pub top_q: f64,
    pub n: usize,
}

#[must_use]
pub fn latency(samples_ms: &[f64]) -> Latency {
    let q = top_quantile(samples_ms.len());
    Latency {
        p50_ms: median(samples_ms),
        top_ms: quantile(samples_ms, q),
        top_q: q,
        n: samples_ms.len(),
    }
}

#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
