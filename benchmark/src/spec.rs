//! The metric tables: every name the benchmark may print, with its unit.
//! `tests/contract.rs` holds them equal to BENCHMARK.json.

use serde::content::Content;
use serde::{Serialize, Serializer};

/// An end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before it is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    /// A pure function of the seed: two runs must agree exactly.
    pub exact: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "landscape_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_resident_records",
        unit: "records",
        better: "lower",
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "accuracy",
        unit: "ratio",
        better: "higher",
        bound: 0.15,
        exact: true,
    },
];

/// Per-layer metrics `(name, unit, better)`, grouped by layer. A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sim.pipeline_s", "s", "lower"),
    ("sim.replay_s", "s", "lower"),
    ("sim.raw_lookups", "count", "lower"),
    ("sim.observed_lookups", "count", "lower"),
    ("sim.shards", "count", "lower"),
    ("sim.peak_resident_records", "records", "lower"),
    ("dns.filter_s", "s", "lower"),
    ("dns.filter_in", "count", "lower"),
    ("dns.filter_out", "count", "lower"),
    ("dns.cache_hit_ratio", "ratio", "higher"),
    ("dns.trace_decode_s", "s", "lower"),
    ("dns.trace_bytes", "bytes", "lower"),
    ("dns.trace_records", "count", "lower"),
    ("exec.threads", "count", "lower"),
    ("exec.scaling_ratio", "ratio", "higher"),
    ("exec.backpressure_stalls", "count", "lower"),
    ("exec.queue_high_water", "count", "lower"),
    ("exec.pool_misses", "count", "lower"),
    ("exec.residual_s", "s", "lower"),
    ("exec.residual_share", "ratio", "lower"),
    ("faults.push_s", "s", "lower"),
    ("faults.records_in", "count", "lower"),
    ("faults.records_out", "count", "lower"),
    ("dga.pool_s", "s", "lower"),
    ("dga.pool_domains", "count", "lower"),
    ("matcher.build_s", "s", "lower"),
    ("matcher.scan_s", "s", "lower"),
    ("matcher.probes", "count", "lower"),
    ("matcher.matches", "count", "lower"),
    ("matcher.hit_ratio", "ratio", "higher"),
    ("sketch.ingest_s", "s", "lower"),
    ("sketch.peak_resident_bytes", "bytes", "lower"),
    ("core.chart_s", "s", "lower"),
    ("core.cells", "count", "lower"),
    ("core.invalid_cells", "count", "lower"),
    ("core.mean_are", "ratio", "lower"),
    ("core.segments_scheduled", "count", "lower"),
    ("core.kernel_memo_hits", "count", "higher"),
    ("core.kernel_memo_misses", "count", "lower"),
    ("core.kernel_hit_ratio", "ratio", "higher"),
    ("core.estimate_ms_p50", "ms", "lower"),
    ("core.estimate_ms_p90", "ms", "lower"),
    ("core.kernel_cold_s", "s", "lower"),
    ("core.kernel_warm_s", "s", "lower"),
    ("daemon.ingest_records_per_s", "1/s", "higher"),
    ("daemon.engine_ingest_s", "s", "lower"),
    ("daemon.publishes", "count", "lower"),
    ("daemon.publish_ms_p50", "ms", "lower"),
    ("daemon.publish_ms_p90", "ms", "lower"),
    ("daemon.cells_reestimated", "count", "lower"),
    ("daemon.dirty_cell_ratio", "ratio", "lower"),
    ("daemon.ingest_call_ms_p50", "ms", "lower"),
    ("daemon.ingest_call_ms_p99", "ms", "lower"),
    ("daemon.wal_encode_s", "s", "lower"),
    ("daemon.wal_append_s", "s", "lower"),
    ("daemon.wal_rotate_s", "s", "lower"),
    ("daemon.wal_appends", "count", "lower"),
    ("daemon.wal_bytes", "bytes", "lower"),
    ("daemon.wal_bytes_per_record", "bytes", "lower"),
    ("daemon.ckpt_encode_s", "s", "lower"),
    ("daemon.ckpt_save_s", "s", "lower"),
    ("daemon.ckpt_bytes", "bytes", "lower"),
    ("daemon.checkpoints", "count", "lower"),
    ("daemon.recovery_s", "s", "lower"),
    ("daemon.recovery_decode_s", "s", "lower"),
    ("daemon.recovery_replay_s", "s", "lower"),
    ("daemon.recovery_frames", "count", "lower"),
    ("daemon.recovery_records", "count", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("obs.allocs_per_raw_lookup", "ratio", "lower"),
    ("obs.allocs_per_record", "ratio", "lower"),
];

/// The metrics of one run: every name of one table, in table order.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    entries: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Metrics {
            entries: END_TO_END.iter().map(|m| (m.name, m.unit, 0.0)).collect(),
        }
    }

    pub fn per_layer() -> Self {
        Metrics {
            entries: PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, unit, 0.0))
                .collect(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut f64 {
        match self.entries.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, value)) => value,
            None => panic!("metric {name:?} is not in the benchmark's tables"),
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        *self.slot(name) = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.slot(name) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, _, value)| *value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.entries.iter().copied()
    }
}

impl Serialize for Metrics {
    /// `{"name": {"value": 1.2, "unit": "s"}, ...}`
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_content(Content::Map(
            self.entries
                .iter()
                .map(|&(name, unit, value)| {
                    let metric = Content::Map(vec![
                        ("value".to_owned(), Content::F64(value)),
                        ("unit".to_owned(), Content::Str(unit.to_owned())),
                    ]);
                    (name.to_owned(), metric)
                })
                .collect(),
        ))
    }
}
