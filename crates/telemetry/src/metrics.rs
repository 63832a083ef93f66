//! Typed counter/gauge/histogram registry.
//!
//! Counters are monotone `u64` totals (step executions, rule firings);
//! gauges are last-write-wins `f64` readings (feasible-style count,
//! Newton iterations of the final solve); histograms are log-bucketed
//! `u64` distributions (span durations, Newton iteration counts, batch
//! job latencies). Keys are dotted paths, e.g. `plan.rule_firings`.
//! `BTreeMap` keeps every export deterministic.
//!
//! Histogram bucketing is power-of-two: value `0` lands in bucket 0 and
//! value `v > 0` lands in bucket `64 - v.leading_zeros()`, i.e. bucket
//! `b ≥ 1` covers `[2^(b-1), 2^b)`. Bucket assignment is a pure integer
//! function of the value, so identical observations produce identical
//! bucket counts on every run — the determinism the test suite pins
//! under `ManualClock` at any worker count.

use std::collections::BTreeMap;

/// Number of histogram buckets: one for zero plus one per bit of `u64`.
const BUCKETS: usize = 65;

/// The power-of-two bucket index for `value`.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// A dense log-bucketed histogram accumulator (crate-internal; exports
/// go through the sparse [`HistogramSnapshot`]).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Hist {
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    pub(crate) buckets: [u64; BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Hist {
    pub(crate) fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_of(value)] += 1;
    }

    /// Back to the pristine (zero-observation) state, in place — the
    /// handle pool reuses histogram boxes across handles this way
    /// instead of freeing and re-allocating them.
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }

    pub(crate) fn merge(&mut self, other: &Hist) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(b, c)| (u8::try_from(b).unwrap_or(u8::MAX), *c))
                .collect(),
        }
    }
}

/// An exported histogram: exact count/sum/min/max plus the sparse list
/// of non-empty power-of-two buckets as `(bucket, count)` pairs.
/// Bucket 0 holds zeros; bucket `b ≥ 1` covers values in `[2^(b-1), 2^b)`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (0 when the histogram is empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observed value (0 when the histogram is empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Non-empty buckets as `(bucket index, count)`, ascending.
    #[must_use]
    pub fn buckets(&self) -> &[(u8, u64)] {
        &self.buckets
    }
}

/// A registry of named counters, gauges, and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Hist>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter, creating it at zero first.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(n);
        } else {
            self.counters.insert(name.to_owned(), n);
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Hist::default();
            h.observe(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    pub(crate) fn merge_hist(&mut self, name: &str, hist: &Hist) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.merge(hist);
        } else {
            self.histograms.insert(name.to_owned(), hist.clone());
        }
    }

    /// Reads a counter (0 if never touched).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Reads a histogram snapshot.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.histograms.get(name).map(Hist::snapshot)
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in key order, as snapshots.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, HistogramSnapshot)> + '_ {
        self.histograms
            .iter()
            .map(|(k, v)| (k.as_str(), v.snapshot()))
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges are
    /// last-write-wins (the absorbed reading replaces ours), histograms
    /// merge component-wise (bucket counts add, min-of-min, max-of-max).
    /// Used when a worker thread's recording is merged back into its
    /// parent.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, n) in other.counters() {
            self.add(name, n);
        }
        for (name, value) in other.gauges() {
            self.set_gauge(name, value);
        }
        for (name, hist) in &other.histograms {
            self.merge_hist(name, hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.add("x", 4);
        assert_eq!(m.counter("x"), 5);
        m.add("x", u64::MAX);
        assert_eq!(m.counter("x"), u64::MAX, "add saturates");
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);

        let mut m = MetricsRegistry::new();
        for v in [0, 1, 3, 3, 1024] {
            m.observe("lat", v);
        }
        let h = m.histogram("lat").expect("histogram recorded");
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1031);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.buckets(), &[(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn empty_histogram_reads_back_as_none() {
        let m = MetricsRegistry::new();
        assert!(m.histogram("missing").is_none());
        assert!(m.is_empty());
    }

    #[test]
    fn merge_adds_counters_and_overwrites_gauges() {
        let mut a = MetricsRegistry::new();
        a.add("steps", 3);
        a.set_gauge("g", 1.0);
        a.observe("lat", 2);
        let mut b = MetricsRegistry::new();
        b.add("steps", 2);
        b.add("rules", 1);
        b.set_gauge("g", 2.0);
        b.observe("lat", 100);
        b.observe("other", 0);
        a.merge(&b);
        assert_eq!(a.counter("steps"), 5);
        assert_eq!(a.counter("rules"), 1);
        assert_eq!(a.gauge("g"), Some(2.0));
        let lat = a.histogram("lat").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.min(), 2);
        assert_eq!(lat.max(), 100);
        assert_eq!(lat.buckets(), &[(2, 1), (7, 1)]);
        assert_eq!(a.histogram("other").unwrap().count(), 1);
    }

    #[test]
    fn iteration_is_sorted_by_key() {
        let mut m = MetricsRegistry::new();
        m.incr("b");
        m.incr("a");
        let keys: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
        m.observe("z", 1);
        m.observe("y", 1);
        let hkeys: Vec<&str> = m.histograms().map(|(k, _)| k).collect();
        assert_eq!(hkeys, vec!["y", "z"]);
        assert!(!m.is_empty());
    }
}
