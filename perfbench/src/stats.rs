//! Sample statistics and the named metrics a run reports.

use std::collections::BTreeMap;
use std::time::Instant;

pub fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of the samples (mean of the two middle ones for an even
/// count); 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in 0..=100; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
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
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(0.0)
}

/// Samples and totals keyed by metric name, end-to-end or per-layer. A
/// metric nothing fed reads 0.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
    totals: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// One timing (or other) sample; the layer reports their median.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Adds to a running total.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.totals.entry(name).or_default() += value;
    }

    /// Sets a value outright (counts taken from a report or stats struct).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.totals.insert(name, value);
    }

    /// Appends every sample of `other`.
    pub fn merge_samples(&mut self, other: &Layers) {
        for (name, v) in &other.samples {
            self.samples.entry(name).or_default().extend(v);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn total(&self, name: &str) -> f64 {
        self.totals.get(name).copied().unwrap_or(0.0)
    }

    /// The reported value: the median of the samples if there are any,
    /// else the total.
    pub fn value(&self, name: &str) -> f64 {
        match self.samples.get(name) {
            Some(v) if !v.is_empty() => median(v),
            _ => self.total(name),
        }
    }
}
