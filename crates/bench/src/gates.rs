//! The gates `perf` holds a fresh [`Report`] to, as data: one row per
//! gated figure, its bound already computed from the committed report, and
//! the sentence that says what a failure means. Wall-clock floors are
//! relative to the committed figure; allocation ceilings are absolute,
//! because a count repeats exactly.

use crate::report::Report;
use std::fmt;

/// The share of a committed throughput a fresh measurement must reach; a
/// committed duration may stretch by its reciprocal.
pub const MIN_RATIO: f64 = 0.75;
/// The simulate stage may spend this many times its committed allocations
/// per raw lookup …
pub const ALLOC_BUDGET_FACTOR: f64 = 4.0;
/// … or this many, whichever is more: the per-run fixed allocations
/// (interner build, buffer-pool warm-up) do not scale with the trace.
pub const ALLOC_BUDGET_FLOOR: f64 = 0.5;
/// Allocations per journaled record: a streaming encoder spends a handful
/// per pass.
pub const JOURNAL_ALLOCS_PER_RECORD_CEILING: f64 = 0.05;
/// Allocations per decoded record: one, the name's own text.
pub const DECODE_ALLOCS_PER_RECORD_CEILING: f64 = 1.05;
/// Allocations per pooled name: a handful per epoch's batch.
pub const POOL_ALLOCS_PER_NAME_CEILING: f64 = 0.01;
/// The least N-thread ÷ 1-thread ratio any machine must show …
pub const SCALING_FLOOR: f64 = 0.5;
/// … and the most a machine is asked for per core, so a ratio committed on
/// eight cores cannot fail a two-core worker.
pub const SCALING_PER_CORE: f64 = 0.5;
/// Pool policy ÷ one thread on thin shards: with nothing but shard
/// production fanned out, the pool costs at most the hand-off.
pub const THIN_SHARD_CEILING: f64 = 1.25;
/// A later fixpoint density ÷ the first.
pub const FIXPOINT_CEILING: f64 = 0.25;

/// What a measured figure is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// `measured ≥ bound`.
    AtLeast(f64),
    /// `measured ≤ bound`.
    AtMost(f64),
    /// `measured = bound`: a count that repeats exactly.
    Exactly(f64),
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, bound) = match *self {
            Bound::AtLeast(bound) => ('≥', bound),
            Bound::AtMost(bound) => ('≤', bound),
            Bound::Exactly(bound) => ('=', bound),
        };
        write!(f, "{sign} {}", figure(bound))
    }
}

/// A figure at the precision its magnitude needs: rates whole, ratios and
/// per-item allocation counts to their leading digits.
pub fn figure(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 || (a >= 10.0 && a.fract() == 0.0) => format!("{v:.0}"),
        a if a >= 0.1 => format!("{v:.3}"),
        _ => format!("{v:.6}"),
    }
}

/// One gated figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// The figure's path in the report.
    pub name: &'static str,
    /// What the fresh report reads.
    pub measured: f64,
    /// What it is held to.
    pub bound: Bound,
    /// What a failure means.
    pub why: &'static str,
}

impl Gate {
    /// Whether the measured figure is inside its bound.
    pub fn holds(&self) -> bool {
        match self.bound {
            Bound::AtLeast(bound) => self.measured >= bound,
            Bound::AtMost(bound) => self.measured <= bound,
            Bound::Exactly(bound) => self.measured == bound,
        }
    }
}

/// Every gate, in report order, for a `measured` report on a machine with
/// `cores` logical cores against the `committed` one. Pure: evaluating one
/// row never hides another.
pub fn gates(measured: &Report, committed: &Report, cores: usize) -> Vec<Gate> {
    let (m, c) = (measured, committed);
    let floor = |committed: f64| Bound::AtLeast(MIN_RATIO * committed);
    let gate = |name, measured, bound, why| Gate {
        name,
        measured,
        bound,
        why,
    };
    vec![
        gate(
            "streaming.raw_lookups_per_sec",
            m.streaming.raw_lookups_per_sec,
            floor(c.streaming.raw_lookups_per_sec),
            "the simulate stage (bot replay, TTL filter, fault stream) got slower",
        ),
        gate(
            "streaming.chart_lookups_per_sec",
            m.streaming.chart_lookups_per_sec,
            floor(c.streaming.chart_lookups_per_sec),
            "charting the observed stream (match, then the estimator kernels) got slower",
        ),
        gate(
            "streaming.peak_resident_records",
            m.streaming.peak_resident_records as f64,
            // peak × 2 < raw lookups, in whole records.
            Bound::AtMost((m.raw_lookups.saturating_sub(1) / 2) as f64),
            "the pipeline lost its memory bound: half the raw trace or more was resident at \
             once, where a few shards should be",
        ),
        gate(
            "allocs_per_raw_lookup",
            m.allocs_per_raw_lookup,
            Bound::AtMost((ALLOC_BUDGET_FACTOR * c.allocs_per_raw_lookup).max(ALLOC_BUDGET_FLOOR)),
            "the simulate stage allocates on its hot path; one allocation per record reads ≈1",
        ),
        gate(
            "journal_encode.mb_per_sec",
            m.journal_encode.mb_per_sec,
            floor(c.journal_encode.mb_per_sec),
            "encoding shards as journal payloads got slower",
        ),
        gate(
            "journal_encode.allocs_per_record",
            m.journal_encode.allocs_per_record,
            Bound::AtMost(JOURNAL_ALLOCS_PER_RECORD_CEILING),
            "the encoder allocates per value: several per record means something behind \
             `Serialize` builds a tree again",
        ),
        gate(
            "trace_decode.mb_per_sec",
            m.trace_decode.mb_per_sec,
            floor(c.trace_decode.mb_per_sec),
            "reading a JSON Lines trace (`estimate`'s and `botmeterd`'s input path) got slower",
        ),
        gate(
            "trace_decode.allocs_per_record",
            m.trace_decode.allocs_per_record,
            Bound::AtMost(DECODE_ALLOCS_PER_RECORD_CEILING),
            "≈7 means something between the text and the record is built per line again",
        ),
        gate(
            "journal_decode.mb_per_sec",
            m.journal_decode.mb_per_sec,
            floor(c.journal_decode.mb_per_sec),
            "decoding journal payloads (recovery's replay) got slower",
        ),
        gate(
            "journal_decode.allocs_per_record",
            m.journal_decode.allocs_per_record,
            Bound::AtMost(DECODE_ALLOCS_PER_RECORD_CEILING),
            "≈7 means something between the payload and the record is built per value again",
        ),
        gate(
            "pool_build.names_per_sec",
            m.pool_build.names_per_sec,
            floor(c.pool_build.names_per_sec),
            "building and dropping a 20-epoch matcher got slower",
        ),
        gate(
            "pool_build.allocs_per_name",
            m.pool_build.allocs_per_name,
            Bound::AtMost(POOL_ALLOCS_PER_NAME_CEILING),
            "≈3 means generated names are heap objects again instead of spans of one buffer",
        ),
        gate(
            "chart_pools.pools_built",
            m.chart_pools.pools_built as f64,
            Bound::Exactly(c.chart_pools.epochs as f64),
            "twice the epochs means the estimators generate their own pools beside the \
             matcher's again; 0 means the `chart.pools_built` counter is gone",
        ),
        gate(
            "chart_pools.secs",
            m.chart_pools.secs,
            Bound::AtMost(c.chart_pools.secs / MIN_RATIO),
            "a 20-epoch chart, matcher to landscape, got slower",
        ),
        gate(
            "sketch.peak_resident_bytes",
            m.sketch.peak_resident_bytes as f64,
            Bound::AtMost(m.sketch.cells as f64 * m.sketch.cell_budget_bytes as f64),
            "the sketch frontend lost its memory bound: more than cells × cell budget resident",
        ),
        gate(
            "scaling.ratio",
            m.scaling.ratio,
            Bound::AtLeast(
                (MIN_RATIO * c.scaling.ratio)
                    .min(SCALING_PER_CORE * cores as f64)
                    .max(SCALING_FLOOR),
            ),
            "the sharded producer stopped scaling: N threads barely beat one",
        ),
        gate(
            "thin_shards.ratio",
            m.thin_shards.ratio,
            Bound::AtMost(THIN_SHARD_CEILING),
            "per-shard overhead on the consumer: on thin shards the pool policy is slower \
             than one thread",
        ),
        gate(
            "timing.lookups_per_sec",
            m.timing.lookups_per_sec,
            floor(c.timing.lookups_per_sec),
            "`MT` got slower; ≈2.4x below means a SipHash set per entry is back, ≈90x below \
             that it scans every entry ever opened per lookup",
        ),
        gate(
            "fixpoint.later_over_first",
            m.fixpoint.later_over_first,
            Bound::AtMost(FIXPOINT_CEILING),
            "≈1 means the kernel re-derives a shape's ρ-free rows at every fixpoint density \
             instead of re-weighting them",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Report {
        serde_json::from_str(include_str!("../../../BENCH_pipeline.json"))
            .expect("the committed file is a Report")
    }

    /// Each row's name with the way to set the figure it reads.
    type Setter = fn(&mut Report, f64);
    const ROWS: [(&str, Setter); 19] = [
        ("streaming.raw_lookups_per_sec", |r, v| {
            r.streaming.raw_lookups_per_sec = v
        }),
        ("streaming.chart_lookups_per_sec", |r, v| {
            r.streaming.chart_lookups_per_sec = v
        }),
        ("streaming.peak_resident_records", |r, v| {
            r.streaming.peak_resident_records = v.ceil() as u64
        }),
        ("allocs_per_raw_lookup", |r, v| r.allocs_per_raw_lookup = v),
        ("journal_encode.mb_per_sec", |r, v| {
            r.journal_encode.mb_per_sec = v
        }),
        ("journal_encode.allocs_per_record", |r, v| {
            r.journal_encode.allocs_per_record = v
        }),
        ("trace_decode.mb_per_sec", |r, v| {
            r.trace_decode.mb_per_sec = v
        }),
        ("trace_decode.allocs_per_record", |r, v| {
            r.trace_decode.allocs_per_record = v
        }),
        ("journal_decode.mb_per_sec", |r, v| {
            r.journal_decode.mb_per_sec = v
        }),
        ("journal_decode.allocs_per_record", |r, v| {
            r.journal_decode.allocs_per_record = v
        }),
        ("pool_build.names_per_sec", |r, v| {
            r.pool_build.names_per_sec = v
        }),
        ("pool_build.allocs_per_name", |r, v| {
            r.pool_build.allocs_per_name = v
        }),
        ("chart_pools.pools_built", |r, v| {
            r.chart_pools.pools_built = v as u64
        }),
        ("chart_pools.secs", |r, v| r.chart_pools.secs = v),
        ("sketch.peak_resident_bytes", |r, v| {
            r.sketch.peak_resident_bytes = v.ceil() as u64
        }),
        ("scaling.ratio", |r, v| r.scaling.ratio = v),
        ("thin_shards.ratio", |r, v| r.thin_shards.ratio = v),
        ("timing.lookups_per_sec", |r, v| {
            r.timing.lookups_per_sec = v
        }),
        ("fixpoint.later_over_first", |r, v| {
            r.fixpoint.later_over_first = v
        }),
    ];

    #[test]
    fn a_report_gated_against_itself_passes_every_row() {
        let report = committed();
        let rows = gates(&report, &report, report.available_cores);
        assert!(rows
            .iter()
            .map(|row| row.name)
            .eq(ROWS.map(|(name, _)| name)));
        for row in rows {
            assert!(row.holds(), "{row:?}");
        }
    }

    #[test]
    fn a_figure_just_past_its_bound_fails_that_row_and_no_other() {
        let committed = committed();
        let cores = committed.available_cores;
        let failing = |report: &Report| -> Vec<&str> {
            let rows = gates(report, &committed, cores);
            assert_eq!(rows.len(), ROWS.len(), "every row is evaluated");
            let failing = rows.iter().filter(|row| !row.holds());
            failing.map(|row| row.name).collect()
        };
        for (i, (name, set)) in ROWS.into_iter().enumerate() {
            let bound = gates(&committed, &committed, cores)[i].bound;
            let (at, past) = match bound {
                Bound::AtLeast(bound) => (bound, vec![bound * (1.0 - 1e-6)]),
                Bound::AtMost(bound) => (bound, vec![bound * (1.0 + 1e-6)]),
                Bound::Exactly(bound) => (bound, vec![bound - 1.0, bound + 1.0, 2.0 * bound, 0.0]),
            };
            let mut report = committed.clone();
            set(&mut report, at);
            assert_eq!(failing(&report), [""; 0], "{name} at its bound");
            for value in past {
                set(&mut report, value);
                assert_eq!(failing(&report), [name], "{name} at {value}, bound {bound}");
            }
        }
    }

    #[test]
    fn the_scaling_floor_follows_the_cores_of_the_machine_that_runs_the_gate() {
        let mut committed = committed();
        let floor = |committed: &Report, cores| {
            let rows = gates(committed, committed, cores);
            rows.into_iter()
                .find(|row| row.name == "scaling.ratio")
                .expect("row")
                .bound
        };
        committed.scaling.ratio = 2.0;
        assert_eq!(floor(&committed, 1), Bound::AtLeast(0.5));
        assert_eq!(floor(&committed, 2), Bound::AtLeast(1.0));
        assert_eq!(floor(&committed, 8), Bound::AtLeast(1.5));
        // A ratio committed on one core asks no more than the absolute floor.
        committed.scaling.ratio = 0.6;
        assert_eq!(floor(&committed, 8), Bound::AtLeast(0.5));
    }

    #[test]
    fn the_committed_allocation_budget_has_an_absolute_floor() {
        let mut committed = committed();
        let budget = |committed: &Report| gates(committed, committed, 2)[3].bound;
        committed.allocs_per_raw_lookup = 0.002;
        assert_eq!(budget(&committed), Bound::AtMost(0.5));
        committed.allocs_per_raw_lookup = 0.25;
        assert_eq!(budget(&committed), Bound::AtMost(1.0));
    }

    #[test]
    fn figures_print_at_the_precision_their_magnitude_needs() {
        assert_eq!(figure(18_485_909.22), "18485909");
        assert_eq!(figure(20.0), "20");
        assert_eq!(figure(1.9327), "1.933");
        assert_eq!(figure(0.25), "0.250");
        assert_eq!(figure(0.0000451), "0.000045");
        assert_eq!(Bound::AtMost(1.05).to_string(), "≤ 1.050");
        assert_eq!(Bound::Exactly(20.0).to_string(), "= 20");
    }
}
