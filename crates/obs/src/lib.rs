//! Pipeline observability for BotMeter: counters and fixed-bucket latency
//! histograms, with a no-op default that stays off the hot path.
//!
//! BotMeter's charting accuracy depends on pipeline stages that are
//! otherwise invisible at runtime — cache-filter rates at local resolvers,
//! matcher hit behaviour, per-(server, epoch) estimator cost. This crate is
//! the substrate every layer reports through:
//!
//! * [`Obs`] — the cloneable handle pipeline stages hold: monotonic
//!   counters, high-water gauges and nanosecond latency observations. The
//!   default handle carries no registry at all, so every recording call
//!   is a single `Option` test that the optimiser folds away — disabled
//!   observability costs (almost) nothing;
//! * [`MetricsRegistry`] — where a collecting handle's records land,
//!   aggregated into atomic-free locked maps;
//! * [`MetricsSnapshot`] — the JSON-serialisable export `perf --record`
//!   writes next to `BENCH_pipeline.json`.
//!
//! # Counter name conventions
//!
//! Names are dot-separated, lowest-level component first:
//! `cache.s1.neg_hits`, `topology.admitted`, `matcher.probes`,
//! `sim.activations`, `chart.cells`, `chart.epoch0.estimate_ns`.
//!
//! Counters under the **`sched.`** prefix (worker-pool task counts, steal
//! counts, queue high-water marks) depend on thread scheduling and are the
//! only ones allowed to differ between [`ExecPolicy::Sequential`] and
//! parallel runs of the same pipeline; everything else must be
//! bit-identical, and the determinism tests enforce it via
//! [`MetricsSnapshot::deterministic_counters`].
//!
//! [`ExecPolicy::Sequential`]: https://docs.rs/botmeter-exec
//!
//! # Example
//!
//! ```
//! use botmeter_obs::Obs;
//!
//! let (obs, registry) = Obs::collecting();
//! obs.counter_add("matcher.probes", 128);
//! obs.counter_add("matcher.matches", 17);
//! let start = obs.clock();
//! // ... work ...
//! obs.observe_since("chart.estimate_ns", start);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("matcher.probes"), Some(128));
//! assert!(snapshot.histogram("chart.estimate_ns").is_some());
//! ```

// `unsafe` is forbidden except under the `bench` feature, whose counting
// global allocator must implement the inherently-unsafe `GlobalAlloc`
// contract (it only forwards to `std::alloc::System`).
#![cfg_attr(not(feature = "bench"), forbid(unsafe_code))]
#![warn(missing_docs)]

#[cfg(feature = "bench")]
mod alloc;
mod registry;
mod snapshot;

#[cfg(feature = "bench")]
pub use alloc::{AllocSnapshot, CountingAlloc};
pub use registry::{Histogram, MetricsRegistry};
pub use snapshot::{BucketCount, CounterSnapshot, HistogramSnapshot, MetricsSnapshot};

use std::sync::Arc;
use std::time::Instant;

/// Prefix of scheduling-dependent counters (see the crate docs): the only
/// counters exempt from the sequential-vs-parallel determinism contract.
pub const SCHED_PREFIX: &str = "sched.";

/// Prefix of allocation-accounting counters (`alloc.count`, `alloc.bytes`,
/// and per-stage variants) reported by the perf harness under the `bench`
/// feature. Allocator traffic depends on worker count and scheduling, so
/// these are exempt from the determinism contract exactly like
/// [`SCHED_PREFIX`].
pub const ALLOC_PREFIX: &str = "alloc.";

/// The cloneable observability handle pipeline stages hold.
///
/// `Obs::default()` (= [`Obs::noop`]) carries no registry: every recording
/// method is then a single branch on a `None`, and [`Obs::clock`] does not
/// even read the clock. [`Obs::collecting`] attaches a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<MetricsRegistry>>,
}

impl Obs {
    /// The disabled handle (the default): records nothing, costs nothing.
    pub fn noop() -> Self {
        Obs::default()
    }

    /// A fresh collecting handle plus the registry to snapshot later.
    pub fn collecting() -> (Self, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::default());
        let obs = Obs {
            inner: Some(registry.clone()),
        };
        (obs, registry)
    }

    /// Whether a registry is attached. Use this to skip *preparing*
    /// metrics (e.g. reading the clock) when recording would go nowhere.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `delta` to a monotonic counter (no-op when disabled).
    #[inline]
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.inner {
            r.counter_add(name, delta);
        }
    }

    /// Raises a high-water gauge (no-op when disabled).
    #[inline]
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(r) = &self.inner {
            r.gauge_max(name, value);
        }
    }

    /// Records one latency observation in nanoseconds (no-op when
    /// disabled).
    #[inline]
    pub fn observe_ns(&self, name: &str, ns: u64) {
        if let Some(r) = &self.inner {
            r.observe_ns(name, ns);
        }
    }

    /// Reads the clock only when enabled; pair with
    /// [`observe_since`](Self::observe_since).
    #[inline]
    pub fn clock(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Records the nanoseconds elapsed since a [`clock`](Self::clock)
    /// reading into `name` (no-op when the reading was `None`).
    #[inline]
    pub fn observe_since(&self, name: &str, start: Option<Instant>) {
        if let Some(start) = start {
            self.observe_ns(name, saturating_ns(start.elapsed()));
        }
    }
}

/// Converts a duration to nanoseconds, clamping at `u64::MAX`.
#[inline]
pub fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing_and_reports_disabled() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.counter_add("x", 1);
        obs.gauge_max("y", 9);
        obs.observe_ns("z", 100);
        assert!(obs.clock().is_none());
    }

    #[test]
    fn collecting_handle_aggregates() {
        let (obs, registry) = Obs::collecting();
        assert!(obs.enabled());
        obs.counter_add("a.b", 2);
        obs.counter_add("a.b", 3);
        obs.gauge_max("hw", 7);
        obs.gauge_max("hw", 4);
        obs.observe_ns("lat", 1_000);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a.b"), Some(5));
        assert_eq!(snap.counter("hw"), Some(7));
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
    }

    #[test]
    fn clones_share_the_registry() {
        let (obs, registry) = Obs::collecting();
        let other = obs.clone();
        obs.counter_add("shared", 1);
        other.counter_add("shared", 1);
        assert_eq!(registry.snapshot().counter("shared"), Some(2));
    }

    #[test]
    fn observe_since_uses_elapsed_clock() {
        let (obs, registry) = Obs::collecting();
        let start = obs.clock();
        assert!(start.is_some());
        obs.observe_since("elapsed", start);
        assert_eq!(registry.snapshot().histogram("elapsed").unwrap().count, 1);
    }
}
