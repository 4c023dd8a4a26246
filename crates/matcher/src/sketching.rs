//! The sketching telemetry frontend: match-and-fold without materializing.
//!
//! [`SketchStream`] is the constant-memory sibling of
//! [`match_stream`](crate::match_stream): it scans arrival-order chunks
//! against a [`DomainMatcher`] through the same [`scan_hits`] kernel, but
//! instead of accumulating every hit into a `MatchedTraffic` it folds
//! them straight into a bounded [`SketchedTraffic`] — a per-(server,
//! epoch) bottom-k distinct sample — and tracks stream
//! health through the bounded [`QualityCursor`](crate::QualityCursor).
//! Resident state is `O(servers × width)`, independent of traffic volume.
//!
//! Hits are folded on the calling thread in arrival order, so the
//! accumulated sketch is bit-identical for any chunking and any upstream
//! `ExecPolicy × PipelineMode × worker count` combination that delivers
//! shards in stream order (which the streaming simulator guarantees).
//! Per-shard sketches built by independent workers merge into the same
//! state via [`SketchStream::absorb_sketch`] — retention depends only on
//! domain hash ranks, never on arrival order.
//!
//! The sketch keeps a sighting count per retained domain and no
//! timestamps: charting reads it as a cell statistic (positions, distinct
//! count, volume), never as a stream of lookups.

use crate::stream::{scan_hits, QualityCursor};
use crate::{DomainMatcher, StreamQuality};
use botmeter_dns::ObservedLookup;
use botmeter_obs::Obs;
use botmeter_sketch::{SketchConfig, SketchedTraffic};

/// Incrementally matches a stream and accumulates the hits into a
/// [`SketchedTraffic`] without ever materializing them.
///
/// # Example
///
/// ```
/// use botmeter_dns::{ObservedLookup, ServerId, SimDuration, SimInstant};
/// use botmeter_matcher::{ExactMatcher, SketchStream};
/// use botmeter_obs::Obs;
/// use botmeter_sketch::SketchConfig;
///
/// let matcher = ExactMatcher::from_domains(["evil.example".parse()?]);
/// let config = SketchConfig::new(SimDuration::from_days(1))?;
/// let mut frontend = SketchStream::new(&matcher, config, Obs::noop());
/// let stream = vec![
///     ObservedLookup::new(SimInstant::ZERO, ServerId(1), "evil.example".parse()?),
///     ObservedLookup::new(SimInstant::ZERO, ServerId(1), "ok.example".parse()?),
/// ];
/// frontend.ingest(&stream);
/// let (sketch, quality) = frontend.finish();
/// assert_eq!(sketch.total(), 1);
/// assert_eq!(quality.scanned, 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SketchStream<'a, M> {
    matcher: &'a M,
    obs: Obs,
    sketch: SketchedTraffic,
    cursor: QualityCursor,
    evictions: u64,
    merges: u64,
}

impl<'a, M: DomainMatcher> SketchStream<'a, M> {
    /// Starts a sketching scan against `matcher`, folding hits into a
    /// fresh sketch under `config` and reporting `sketch.*` metrics
    /// through `obs` when it finishes.
    pub fn new(matcher: &'a M, config: SketchConfig, obs: Obs) -> Self {
        SketchStream {
            matcher,
            obs,
            sketch: SketchedTraffic::new(config),
            cursor: QualityCursor::new(),
            evictions: 0,
            merges: 0,
        }
    }

    /// Scans one arrival-order chunk through [`scan_hits`], folding every
    /// hit into the sketch and the quality cursor on the calling thread in
    /// arrival order, so the sketch is bit-identical for any chunking of
    /// the same stream.
    pub fn ingest(&mut self, chunk: &[ObservedLookup]) {
        self.cursor.note_scanned(chunk.len());
        scan_hits(chunk, self.matcher, |lookup| {
            self.cursor.note_matched(lookup);
            if self.sketch.push(lookup) {
                self.evictions += 1;
            }
        });
    }

    /// Merges a pre-accumulated sketch (e.g. built by an independent
    /// worker over its own shard) into this one.
    ///
    /// # Panics
    ///
    /// Panics when the configurations differ (see
    /// [`SketchedTraffic::absorb`]).
    pub fn absorb_sketch(&mut self, other: &SketchedTraffic) {
        let effect = self.sketch.absorb(other);
        self.evictions += effect.evictions;
        self.merges += 1;
    }

    /// The stream-health summary accumulated so far.
    pub fn quality(&self) -> StreamQuality {
        self.cursor.quality()
    }

    /// Emits the `sketch.*` metrics and returns the accumulated sketch
    /// and stream quality.
    ///
    /// Counters (all deterministic, included in
    /// `MetricsSnapshot::deterministic_counters()`): `sketch.ingest`
    /// (matched lookups folded), `sketch.hh_evictions` (retained entries
    /// pushed out of a bottom-k sample), `sketch.merges` (pre-accumulated
    /// sketches absorbed), `sketch.cells` (non-empty (server, epoch)
    /// cells) — plus the `sketch.peak_resident_bytes` gauge proving the
    /// volume-independent memory bound.
    pub fn finish(self) -> (SketchedTraffic, StreamQuality) {
        if self.obs.enabled() {
            self.obs.counter_add("sketch.ingest", self.sketch.total());
            self.obs.counter_add("sketch.hh_evictions", self.evictions);
            self.obs.counter_add("sketch.merges", self.merges);
            self.obs
                .counter_add("sketch.cells", self.sketch.cell_count() as u64);
            self.obs.gauge_max(
                "sketch.peak_resident_bytes",
                self.sketch.peak_resident_bytes(),
            );
        }
        (self.sketch, self.cursor.quality())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactMatcher;
    use botmeter_dns::{ServerId, SimDuration, SimInstant};

    fn stream() -> Vec<ObservedLookup> {
        (0..200u64)
            .map(|i| {
                let name = if i % 3 == 0 {
                    format!("evil{}.example", i % 10)
                } else {
                    format!("ok{i}.example")
                };
                ObservedLookup::new(
                    SimInstant::from_millis(i * 10),
                    ServerId(1 + (i % 2) as u32),
                    name.parse().unwrap(),
                )
            })
            .collect()
    }

    fn matcher() -> ExactMatcher {
        ExactMatcher::from_domains((0..10).map(|i| format!("evil{i}.example").parse().unwrap()))
    }

    fn config() -> SketchConfig {
        SketchConfig::new(SimDuration::from_days(1)).unwrap()
    }

    #[test]
    fn chunking_never_changes_the_sketch() {
        let stream = stream();
        let matcher = matcher();
        let mut single = SketchStream::new(&matcher, config(), Obs::noop());
        single.ingest(&stream);
        let (single, single_quality) = single.finish();
        for chunk_len in [1, 7, 64, 199] {
            let mut chunked = SketchStream::new(&matcher, config(), Obs::noop());
            for chunk in stream.chunks(chunk_len) {
                chunked.ingest(chunk);
            }
            let (chunked, chunked_quality) = chunked.finish();
            assert_eq!(chunked, single, "chunk_len {chunk_len}");
            assert_eq!(chunked_quality, single_quality);
        }
    }

    #[test]
    fn only_matched_lookups_enter_the_sketch() {
        let stream = stream();
        let matcher = matcher();
        let mut frontend = SketchStream::new(&matcher, config(), Obs::noop());
        frontend.ingest(&stream);
        let expected = stream
            .iter()
            .filter(|l| crate::DomainMatcher::matches(&matcher, &l.domain))
            .count() as u64;
        let (sketch, quality) = frontend.finish();
        assert_eq!(sketch.total(), expected);
        assert_eq!(quality.matched as u64, expected);
        assert_eq!(quality.scanned, stream.len());
    }

    #[test]
    fn worker_sketches_absorb_to_the_sequential_state() {
        let stream = stream();
        let matcher = matcher();
        let mut sequential = SketchStream::new(&matcher, config(), Obs::noop());
        sequential.ingest(&stream);
        let (sequential, _) = sequential.finish();

        let mut merged = SketchStream::new(&matcher, config(), Obs::noop());
        for shard in stream.chunks(31) {
            let mut worker = SketchStream::new(&matcher, config(), Obs::noop());
            worker.ingest(shard);
            let (piece, _) = worker.finish();
            merged.absorb_sketch(&piece);
        }
        let (merged, _) = merged.finish();
        assert_eq!(merged, sequential);
    }
}
