//! The JSON-serialisable export of a [`MetricsRegistry`](crate::MetricsRegistry).

use crate::{ALLOC_PREFIX, SCHED_PREFIX};
use serde::{Deserialize, Serialize};

/// One named counter value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Dot-separated counter name (see the crate docs for conventions).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One occupied histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Exclusive upper bound of the bucket, in nanoseconds.
    pub le_ns: u64,
    /// Observations that fell into the bucket.
    pub count: u64,
}

/// One named latency histogram (occupied buckets only).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Largest single observation in nanoseconds.
    pub max_ns: u64,
    /// The occupied power-of-two buckets, in ascending bound order.
    pub buckets: Vec<BucketCount>,
}

/// Everything a [`MetricsRegistry`](crate::MetricsRegistry) collected, in
/// a stable, name-ordered, JSON-friendly shape.
///
/// # Example
///
/// ```
/// use botmeter_obs::Obs;
/// let (obs, registry) = Obs::collecting();
/// obs.counter_add("topology.admitted", 10);
/// obs.counter_add("sched.exec.tasks", 99);
/// let snap = registry.snapshot();
/// let json = serde_json::to_string(&snap).unwrap();
/// let back: botmeter_obs::MetricsSnapshot = serde_json::from_str(&json).unwrap();
/// assert_eq!(back.counter("topology.admitted"), Some(10));
/// // Scheduling counters are excluded from the determinism contract:
/// assert!(back
///     .deterministic_counters()
///     .iter()
///     .all(|c| c.name != "sched.exec.tasks"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters and high-water gauges, ordered by name.
    pub counters: Vec<CounterSnapshot>,
    /// All latency histograms, ordered by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The value of a counter, `None` if it was never touched.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A histogram by name, `None` if it was never observed into.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The counters covered by the determinism contract: everything except
    /// the [`sched.`](crate::SCHED_PREFIX) scheduling metrics (batch, task
    /// and steal counts — `sched.exec.steals` included), the
    /// [`alloc.`](crate::ALLOC_PREFIX) allocation accounting the perf
    /// harness reports (allocator traffic varies with worker count and
    /// scheduling), and any wall-clock key (a `_ns` suffix,
    /// the histogram naming convention — latency totals leaking into a
    /// counter would differ between runs by nature). Sequential and
    /// parallel runs of the same pipeline must agree on these bit-for-bit,
    /// faulted runs included.
    #[doc(hidden)]
    pub fn deterministic_counters(&self) -> Vec<CounterSnapshot> {
        self.counters
            .iter()
            .filter(|c| {
                !c.name.starts_with(SCHED_PREFIX)
                    && !c.name.starts_with(ALLOC_PREFIX)
                    && !c.name.ends_with("_ns")
            })
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSnapshot {
                    name: "cache.s1.misses".into(),
                    value: 4,
                },
                CounterSnapshot {
                    name: "sched.exec.steals".into(),
                    value: 9,
                },
                CounterSnapshot {
                    name: "sched.exec.tasks".into(),
                    value: 1,
                },
                CounterSnapshot {
                    name: "pipeline.total_ns".into(),
                    value: 123_456,
                },
                CounterSnapshot {
                    name: "alloc.count".into(),
                    value: 7,
                },
            ],
            histograms: vec![HistogramSnapshot {
                name: "chart.estimate_ns".into(),
                count: 2,
                sum_ns: 3_000,
                max_ns: 2_000,
                buckets: vec![BucketCount {
                    le_ns: 2_048,
                    count: 2,
                }],
            }],
        }
    }

    #[test]
    fn counter_lookup_and_prefix_filter() {
        let s = sample();
        assert_eq!(s.counter("cache.s1.misses"), Some(4));
        assert_eq!(s.counter("nope"), None);
    }

    #[test]
    fn deterministic_counters_exclude_sched_and_wall_clock_keys() {
        let det = sample().deterministic_counters();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].name, "cache.s1.misses");
    }

    #[test]
    fn json_round_trip() {
        let s = sample();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
