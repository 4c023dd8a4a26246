//! The collecting registry: locked maps of counters and fixed-bucket
//! histograms.

use crate::snapshot::{BucketCount, CounterSnapshot, HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Number of latency buckets. Bucket `i` counts observations in
/// `[2^i, 2^(i+1))` nanoseconds; the last bucket absorbs everything above
/// (~ 9 minutes), so no observation is ever dropped.
pub const BUCKETS: usize = 40;

/// A fixed-bucket latency histogram with power-of-two nanosecond bounds.
///
/// # Example
///
/// ```
/// use botmeter_obs::Histogram;
/// let mut h = Histogram::default();
/// h.record(1_500); // falls in the [1024, 2048) ns bucket
/// assert_eq!(h.count(), 1);
/// assert_eq!(h.sum_ns(), 1_500);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// The bucket index an observation of `ns` nanoseconds falls into.
    #[inline]
    pub fn bucket_index(ns: u64) -> usize {
        // ilog2(ns) for ns >= 1; 0 ns shares the first bucket.
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        idx.min(BUCKETS - 1)
    }

    /// The exclusive upper bound of bucket `i`, in nanoseconds
    /// (`u64::MAX` for the overflow bucket).
    #[inline]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            1u64 << (i + 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest single observation, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean observation in nanoseconds (`0.0` when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    fn to_snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_owned(),
            count: self.count,
            sum_ns: self.sum_ns,
            max_ns: self.max_ns,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| BucketCount {
                    le_ns: Self::bucket_upper_bound(i),
                    count: c,
                })
                .collect(),
        }
    }
}

/// Where a collecting [`Obs`](crate::Obs) records: everything lands in two
/// locked name-ordered maps, snapshotted on demand.
///
/// Locking (rather than lock-free atomics) keeps the implementation simple
/// and dependency-free; pipeline stages record *batched deltas* at stage
/// boundaries, so contention is negligible, and the disabled path — the
/// default — never reaches this type at all.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Exports everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(name, &value)| CounterSnapshot {
                name: name.clone(),
                value,
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(name, h)| h.to_snapshot(name))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Drops every counter and histogram (e.g. between benchmark phases).
    pub fn reset(&self) {
        self.counters.lock().expect("counter map poisoned").clear();
        self.histograms
            .lock()
            .expect("histogram map poisoned")
            .clear();
    }

    pub(crate) fn counter_add(&self, name: &str, delta: u64) {
        let mut counters = self.counters.lock().expect("counter map poisoned");
        match counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                counters.insert(name.to_owned(), delta);
            }
        }
    }

    pub(crate) fn gauge_max(&self, name: &str, value: u64) {
        let mut counters = self.counters.lock().expect("counter map poisoned");
        match counters.get_mut(name) {
            Some(v) => *v = (*v).max(value),
            None => {
                counters.insert(name.to_owned(), value);
            }
        }
    }

    pub(crate) fn observe_ns(&self, name: &str, ns: u64) {
        let mut histograms = self.histograms.lock().expect("histogram map poisoned");
        match histograms.get_mut(name) {
            Some(h) => h.record(ns),
            None => {
                let mut h = Histogram::default();
                h.record(ns);
                histograms.insert(name.to_owned(), h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(1023), 9);
        assert_eq!(Histogram::bucket_index(1024), 10);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let mut h = Histogram::default();
        for ns in [10, 100, 1_000, 10_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 11_110);
        assert_eq!(h.max_ns(), 10_000);
        assert!((h.mean_ns() - 2777.5).abs() < 1e-9);
    }

    #[test]
    fn registry_counters_accumulate_and_gauge_takes_max() {
        let r = MetricsRegistry::default();
        r.counter_add("c", 1);
        r.counter_add("c", 2);
        r.gauge_max("g", 5);
        r.gauge_max("g", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c"), Some(3));
        assert_eq!(snap.counter("g"), Some(5));
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = MetricsRegistry::default();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        r.counter_add("mid", 1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn reset_clears_everything() {
        let r = MetricsRegistry::default();
        r.counter_add("c", 1);
        r.observe_ns("h", 10);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn histogram_snapshot_keeps_only_occupied_buckets() {
        let r = MetricsRegistry::default();
        r.observe_ns("h", 3); // bucket [2,4)
        r.observe_ns("h", 3);
        r.observe_ns("h", 100); // bucket [64,128)
        let snap = r.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.buckets.len(), 2);
        assert_eq!(h.buckets[0].le_ns, 4);
        assert_eq!(h.buckets[0].count, 2);
        assert_eq!(h.buckets[1].le_ns, 128);
    }
}
