//! Named counters, gauges, and fixed-bucket microsecond histograms.
//!
//! The registry is a plain value, not a global: the parallel engine's
//! determinism contract (results identical at any thread width) is met
//! by giving each worker its own registry and folding them together in
//! chunk order with [`MetricsRegistry::merge`], exactly the seam
//! `logdep-par`'s sharded folds already provide. Counters add, gauges
//! are last-writer-wins (chunk order == serial order), and histogram
//! buckets add, so the merged result equals the serial registry.

use std::collections::BTreeMap;

/// Upper bounds (inclusive) of the histogram buckets, in microseconds.
///
/// A fixed ladder shared by every histogram keeps merges trivially
/// well-defined and the JSON rendering schema-free: observations above
/// the last bound land in one overflow bucket.
pub const BUCKET_BOUNDS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Number of buckets: one per bound plus the overflow bucket.
pub const N_BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1;

/// A fixed-bucket histogram of integer microsecond observations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum_us: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `us` microseconds.
    #[expect(
        clippy::indexing_slicing,
        reason = "idx ≤ BUCKET_BOUNDS_US.len() < N_BUCKETS by construction"
    )]
    pub fn observe(&mut self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKET_BOUNDS_US.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in microseconds (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Per-bucket observation counts (last entry is the overflow).
    pub fn buckets(&self) -> &[u64; N_BUCKETS] {
        &self.buckets
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are dotted paths (`cache.l1.hits`, `serve.request_us`); the
/// `BTreeMap` keys make every iteration order — and therefore every
/// rendering — deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of the named counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of the named gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records a microsecond observation into the named histogram.
    pub fn observe_us(&mut self, name: &str, us: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(us);
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one.
    ///
    /// Counters and histogram buckets add; gauges take the other
    /// registry's value (last writer wins). Folding per-worker
    /// registries in chunk order therefore reproduces the registry a
    /// serial run would have built.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += *v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.counter_add("x", 2);
        m.counter_add("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.gauge("g"), None);
        m.gauge_set("g", -7);
        assert_eq!(m.gauge("g"), Some(-7));
    }

    #[test]
    fn histogram_buckets_sum_to_count() {
        let mut h = Histogram::new();
        for us in [0, 100, 101, 999, 5_000, 2_000_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets().iter().sum::<u64>(), 6);
        // Overflow bucket caught the 2s observation.
        assert_eq!(h.buckets()[N_BUCKETS - 1], 1);
        assert_eq!(h.sum_us(), 2_006_200);
    }

    #[test]
    fn merge_matches_serial() {
        let mut serial = MetricsRegistry::new();
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for (i, part) in [(1u64, &mut a), (2, &mut b)] {
            part.counter_add("c", i);
            part.observe_us("h", i * 100);
            part.gauge_set("g", i as i64);
        }
        for i in 1u64..=2 {
            serial.counter_add("c", i);
            serial.observe_us("h", i * 100);
            serial.gauge_set("g", i as i64);
        }
        let mut merged = MetricsRegistry::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, serial);
    }
}
