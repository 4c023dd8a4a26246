//! Stream matching: filtering the border-visible lookup stream down to the
//! matched sub-streams the estimators consume (Fig. 2, steps 3–4).
//!
//! Every consumer of the observed stream probes it through the one hit
//! scan, [`scan_hits`]: the batch scan folds the hits into a
//! [`MatchedTraffic`], [`SketchStream`](crate::SketchStream) into a sketch
//! and `botmeterd` into its cell ledger. [`match_stream_recorded`] holds the
//! crate's only worker fan-out, and the adjacency anomalies are tallied by
//! one function ([`StreamQuality`]) whether the predecessor lives in a
//! [`MatchedTraffic`] group or a [`QualityCursor`].

use crate::DomainMatcher;
use botmeter_dns::{ObservedLookup, ServerId};
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Below this stream length the parallel matcher falls back to the
/// sequential scan: thread start-up costs more than the matching itself.
const MIN_PARALLEL_MATCH: usize = 2048;

/// The result of matching an observed stream against a DGA matcher:
/// matched lookups grouped per forwarding server, each group kept in
/// arrival order.
///
/// Per-server grouping is the point of BotMeter — the landscape is a
/// *per-local-server* population chart (§II-C).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchedTraffic {
    by_server: BTreeMap<ServerId, Vec<ObservedLookup>>,
    /// Scan totals and adjacency anomalies, maintained on insert so
    /// `total_matched`/`match_rate` never re-walk the per-server map.
    quality: StreamQuality,
}

/// What the matching scan learned about the health of the input stream —
/// the summary `botmeter_core::BotMeter::chart_with` uses to flag degraded
/// landscape cells.
///
/// Anomaly counts are computed from *adjacent matched pairs per server*
/// (strict timestamp inversions, and exact adjacent repeats), so they are
/// identical under sequential and chunked-parallel scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamQuality {
    /// Observed lookups scanned (matched or not).
    pub scanned: usize,
    /// Lookups that matched the target DGA.
    pub matched: usize,
    /// Matched lookups older than their per-server predecessor.
    pub out_of_order: usize,
    /// Matched lookups exactly repeating their per-server predecessor.
    pub duplicates: usize,
}

impl StreamQuality {
    /// Whether the scan saw any ordering or duplication anomaly.
    pub fn is_degraded(&self) -> bool {
        self.out_of_order > 0 || self.duplicates > 0
    }

    /// Tallies how matched lookup `next` relates to its server's previous
    /// matched lookup `prev`: a strict timestamp inversion, an exact
    /// adjacent repeat (same timestamp, same domain), or neither. The one
    /// classification [`MatchedTraffic`] (on push and at every chunk
    /// boundary of a merge) and [`QualityCursor`] count anomalies with.
    fn note_adjacent(&mut self, prev: &ObservedLookup, next: &ObservedLookup) {
        if next.t < prev.t {
            self.out_of_order += 1;
        } else if next.t == prev.t && next.domain == prev.domain {
            self.duplicates += 1;
        }
    }
}

/// Bounded-state stream-health tracking across an unbounded matched
/// stream: the cross-epoch replacement for accumulating a whole
/// [`MatchedTraffic`] just to read its [`StreamQuality`].
///
/// A long-running engine (`botmeterd`) cannot hold every matched lookup,
/// but the anomaly counts are defined over *adjacent matched pairs per
/// server* — so one remembered lookup per server is all the state the
/// sequential scan ever consults. Feed every matched lookup in arrival
/// order through [`note_matched`](Self::note_matched) (and account scans
/// with [`note_scanned`](Self::note_scanned)): the resulting
/// [`quality`](Self::quality) is identical to
/// `match_stream(..).quality()` over the same stream, for any chunking,
/// while resident state stays one lookup per server.
#[derive(Debug, Clone, Default)]
pub struct QualityCursor {
    last: BTreeMap<ServerId, ObservedLookup>,
    quality: StreamQuality,
}

impl QualityCursor {
    /// An empty cursor: nothing scanned, nothing matched.
    pub fn new() -> Self {
        QualityCursor::default()
    }

    /// Accounts `n` scanned lookups (matched or not).
    pub fn note_scanned(&mut self, n: usize) {
        self.quality.scanned += n;
    }

    /// Folds one *matched* lookup in arrival order: classifies it against
    /// its server's previous matched lookup exactly like the batch scan
    /// does, then becomes that server's new predecessor.
    pub fn note_matched(&mut self, lookup: &ObservedLookup) {
        self.quality.matched += 1;
        if let Some(prev) = self.last.get(&lookup.server) {
            self.quality.note_adjacent(prev, lookup);
        }
        self.last.insert(lookup.server, lookup.clone());
    }

    /// The stream-health summary accumulated so far.
    pub fn quality(&self) -> StreamQuality {
        self.quality
    }

    /// How many servers the cursor currently remembers a predecessor for
    /// — the cursor's entire resident state.
    pub fn tracked_servers(&self) -> usize {
        self.last.len()
    }

    /// Serializable snapshot of the cursor's entire state — what a
    /// crash-safe daemon checkpoints so stream-health tracking resumes
    /// exactly where the killed process left it.
    pub fn to_state(&self) -> QualityCursorState {
        QualityCursorState {
            quality: self.quality,
            last: self
                .last
                .iter()
                .map(|(&server, lookup)| CursorEntry {
                    server,
                    lookup: lookup.clone(),
                })
                .collect(),
        }
    }

    /// Rebuilds a cursor from a checkpointed state. Feeding the same
    /// suffix of matched lookups into the rebuilt cursor yields the same
    /// [`StreamQuality`] an uninterrupted cursor would report.
    pub fn from_state(state: QualityCursorState) -> Self {
        QualityCursor {
            last: state
                .last
                .into_iter()
                .map(|e| (e.server, e.lookup))
                .collect(),
            quality: state.quality,
        }
    }
}

/// One tracked server's remembered predecessor inside a
/// [`QualityCursorState`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CursorEntry {
    /// The forwarding server.
    pub server: ServerId,
    /// That server's most recent matched lookup.
    pub lookup: ObservedLookup,
}

/// The serializable state of a [`QualityCursor`]: the accumulated
/// [`StreamQuality`] plus one remembered lookup per tracked server.
/// Round-trips through [`QualityCursor::to_state`] /
/// [`QualityCursor::from_state`] without affecting future classifications.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QualityCursorState {
    /// The stream-health summary accumulated so far.
    pub quality: StreamQuality,
    /// Per-server predecessors, in ascending server order.
    pub last: Vec<CursorEntry>,
}

impl MatchedTraffic {
    /// Servers that forwarded at least one matched lookup.
    pub fn servers(&self) -> impl Iterator<Item = ServerId> + '_ {
        self.by_server.keys().copied()
    }

    /// The matched lookups forwarded by `server` (empty if none).
    pub fn for_server(&self, server: ServerId) -> &[ObservedLookup] {
        self.by_server
            .get(&server)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total matched lookups across servers (O(1) — the count is cached).
    pub fn total_matched(&self) -> usize {
        self.quality.matched
    }

    /// How many observed lookups were scanned (matched or not).
    pub fn total_scanned(&self) -> usize {
        self.quality.scanned
    }

    /// Fraction of scanned lookups that matched (O(1)).
    pub fn match_rate(&self) -> f64 {
        if self.quality.scanned == 0 {
            0.0
        } else {
            self.quality.matched as f64 / self.quality.scanned as f64
        }
    }

    /// Iterates `(server, matched lookups)` pairs in server order.
    pub fn iter(&self) -> impl Iterator<Item = (ServerId, &[ObservedLookup])> {
        self.by_server.iter().map(|(s, v)| (*s, v.as_slice()))
    }

    /// The stream-health summary of this scan (see [`StreamQuality`]).
    pub fn quality(&self) -> StreamQuality {
        self.quality
    }

    fn push(&mut self, lookup: ObservedLookup) {
        let group = self.by_server.entry(lookup.server).or_default();
        if let Some(prev) = group.last() {
            self.quality.note_adjacent(prev, &lookup);
        }
        group.push(lookup);
        self.quality.matched += 1;
    }

    /// Appends another chunk's groups. `other` must cover a stream segment
    /// strictly *after* every lookup already held, so per-server arrival
    /// order is preserved by plain concatenation. The adjacent pair
    /// straddling the chunk boundary is re-examined here, which makes the
    /// anomaly counters identical to a single sequential scan.
    fn append(&mut self, other: MatchedTraffic) {
        for (server, lookups) in other.by_server {
            match self.by_server.entry(server) {
                Entry::Vacant(slot) => {
                    slot.insert(lookups);
                }
                Entry::Occupied(mut slot) => {
                    let group = slot.get_mut();
                    if let (Some(prev), Some(first)) = (group.last(), lookups.first()) {
                        self.quality.note_adjacent(prev, first);
                    }
                    group.extend(lookups);
                }
            }
        }
        self.quality.scanned += other.quality.scanned;
        self.quality.matched += other.quality.matched;
        self.quality.out_of_order += other.quality.out_of_order;
        self.quality.duplicates += other.quality.duplicates;
    }
}

/// Matches an observed stream against `matcher` under `policy`, grouping
/// hits per forwarding server. Sequential and parallel policies produce
/// identical results.
///
/// The parallel path splits the stream into contiguous chunks, matches each
/// on its own worker and stitches the per-chunk groups back in chunk order:
/// concatenating a server's hits chunk-by-chunk reproduces arrival order
/// exactly, so the result equals the sequential scan for any matcher.
/// Matching itself is pure (`matches(&domain)` takes `&self`), which is why
/// `M: Sync` suffices. Short streams (or single-worker policies) fall back
/// to the sequential scan.
///
/// # Example
///
/// ```
/// use botmeter_dns::{ObservedLookup, ServerId, SimInstant};
/// use botmeter_exec::ExecPolicy;
/// use botmeter_matcher::{match_stream, ExactMatcher};
///
/// let matcher = ExactMatcher::from_domains(["evil.example".parse()?]);
/// let stream = vec![
///     ObservedLookup::new(SimInstant::ZERO, ServerId(1), "evil.example".parse()?),
///     ObservedLookup::new(SimInstant::ZERO, ServerId(1), "ok.example".parse()?),
/// ];
/// let matched = match_stream(&stream, &matcher, ExecPolicy::Sequential);
/// assert_eq!(matched.total_matched(), 1);
/// assert_eq!(matched.for_server(ServerId(1)).len(), 1);
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
pub fn match_stream<M: DomainMatcher + Sync>(
    observed: &[ObservedLookup],
    matcher: &M,
    policy: ExecPolicy,
) -> MatchedTraffic {
    match_stream_recorded(observed, matcher, policy, &Obs::noop())
}

/// [`match_stream`] with metrics: records `matcher.probes` (lookups
/// scanned), `matcher.matches` (hits), and the stream-health anomaly
/// counts `matcher.out_of_order` / `matcher.duplicates` through `obs`, as
/// single batched deltas at the end of the scan.
///
/// A stream of at least `MIN_PARALLEL_MATCH` lookups under a multi-worker
/// policy is split into contiguous pieces, scanned one per worker and
/// appended in piece order — the only fan-out in this crate.
pub fn match_stream_recorded<M: DomainMatcher + Sync>(
    observed: &[ObservedLookup],
    matcher: &M,
    policy: ExecPolicy,
    obs: &Obs,
) -> MatchedTraffic {
    let matched = if policy.worker_threads() <= 1 || observed.len() < MIN_PARALLEL_MATCH {
        scan(observed, matcher)
    } else {
        let pieces = botmeter_exec::map_chunks_with(policy, obs, observed, |_, c| scan(c, matcher));
        let mut matched = MatchedTraffic::default();
        for piece in pieces {
            matched.append(piece);
        }
        matched
    };
    record_metrics(obs, &matched);
    matched
}

/// Emits the batched `matcher.*` counters for one finished scan. All are
/// pure functions of the stream content, never of the policy, keeping
/// them inside the deterministic-counter contract.
fn record_metrics(obs: &Obs, matched: &MatchedTraffic) {
    if obs.enabled() {
        obs.counter_add("matcher.probes", matched.total_scanned() as u64);
        obs.counter_add("matcher.matches", matched.total_matched() as u64);
        let quality = matched.quality();
        if quality.out_of_order > 0 {
            obs.counter_add("matcher.out_of_order", quality.out_of_order as u64);
        }
        if quality.duplicates > 0 {
            obs.counter_add("matcher.duplicates", quality.duplicates as u64);
        }
    }
}

/// The one hit scan: probes every lookup of `observed` in arrival order and
/// hands each hit to `on_hit`. Misses are never cloned or touched again;
/// what a hit becomes — a [`MatchedTraffic`] entry, a sketch fold, a daemon
/// cell — is the caller's closure, monomorphised into the loop.
pub fn scan_hits<'a, M: DomainMatcher + ?Sized>(
    observed: &'a [ObservedLookup],
    matcher: &M,
    mut on_hit: impl FnMut(&'a ObservedLookup),
) {
    for lookup in observed {
        if matcher.matches(&lookup.domain) {
            on_hit(lookup);
        }
    }
}

/// The sequential scan both policies bottom out in: [`scan_hits`] cloning
/// only the hits into a fresh [`MatchedTraffic`].
fn scan<M: DomainMatcher>(observed: &[ObservedLookup], matcher: &M) -> MatchedTraffic {
    let mut matched = MatchedTraffic::default();
    scan_hits(observed, matcher, |lookup| matched.push(lookup.clone()));
    matched.quality.scanned = observed.len();
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactMatcher;
    use botmeter_dns::{DomainName, SimInstant};

    fn obs(ms: u64, server: u32, name: &str) -> ObservedLookup {
        ObservedLookup::new(
            SimInstant::from_millis(ms),
            ServerId(server),
            name.parse::<DomainName>().unwrap(),
        )
    }

    fn matcher() -> ExactMatcher {
        ExactMatcher::from_domains([
            "a.evil.example".parse().unwrap(),
            "b.evil.example".parse().unwrap(),
        ])
    }

    #[test]
    fn groups_by_server_in_arrival_order() {
        let stream = vec![
            obs(0, 2, "a.evil.example"),
            obs(1, 1, "b.evil.example"),
            obs(2, 2, "b.evil.example"),
            obs(3, 1, "clean.example"),
        ];
        let m = match_stream(&stream, &matcher(), ExecPolicy::Sequential);
        assert_eq!(m.total_scanned(), 4);
        assert_eq!(m.total_matched(), 3);
        assert_eq!(
            m.servers().collect::<Vec<_>>(),
            vec![ServerId(1), ServerId(2)]
        );
        let s2 = m.for_server(ServerId(2));
        assert_eq!(s2.len(), 2);
        assert!(s2[0].t < s2[1].t, "arrival order preserved");
        assert!((m.match_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unseen_server_yields_empty_slice() {
        let m = match_stream(
            &[obs(0, 1, "a.evil.example")],
            &matcher(),
            ExecPolicy::Sequential,
        );
        assert!(m.for_server(ServerId(9)).is_empty());
    }

    #[test]
    fn empty_stream() {
        let m = match_stream(&[], &matcher(), ExecPolicy::Sequential);
        assert_eq!(m.total_matched(), 0);
        assert_eq!(m.match_rate(), 0.0);
        assert_eq!(m.servers().count(), 0);
    }

    #[test]
    fn iter_matches_for_server() {
        let stream = vec![obs(0, 3, "a.evil.example"), obs(1, 4, "b.evil.example")];
        let m = match_stream(&stream, &matcher(), ExecPolicy::Sequential);
        let collected: Vec<_> = m.iter().map(|(s, v)| (s, v.len())).collect();
        assert_eq!(collected, vec![(ServerId(3), 1), (ServerId(4), 1)]);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        // Long enough to clear the fallback threshold; mixes servers and
        // hit/miss domains so every merge path is exercised.
        let stream: Vec<_> = (0..6000u64)
            .map(|i| {
                let name = if i % 3 == 0 {
                    "a.evil.example"
                } else if i % 7 == 0 {
                    "b.evil.example"
                } else {
                    "clean.example"
                };
                obs(i, (i % 5) as u32, name)
            })
            .collect();
        let m = matcher();
        let sequential = match_stream(&stream, &m, ExecPolicy::Sequential);
        let parallel = match_stream(&stream, &m, ExecPolicy::with_threads(4));
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.total_matched(), sequential.total_matched());
        assert_eq!(parallel.total_scanned(), 6000);
    }

    #[test]
    fn parallel_short_stream_falls_back() {
        let stream = vec![obs(0, 1, "a.evil.example")];
        let m = match_stream(&stream, &matcher(), ExecPolicy::parallel());
        assert_eq!(m.total_matched(), 1);
    }

    #[test]
    fn recorded_scan_counts_probes_and_matches() {
        let stream = vec![
            obs(0, 1, "a.evil.example"),
            obs(1, 1, "clean.example"),
            obs(2, 2, "b.evil.example"),
        ];
        let (handle, registry) = Obs::collecting();
        let m = match_stream_recorded(&stream, &matcher(), ExecPolicy::Sequential, &handle);
        assert_eq!(m.total_matched(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("matcher.probes"), Some(3));
        assert_eq!(snap.counter("matcher.matches"), Some(2));
    }

    #[test]
    fn quality_flags_out_of_order_and_duplicates() {
        let stream = vec![
            obs(5, 1, "a.evil.example"),
            obs(5, 1, "a.evil.example"), // exact adjacent repeat
            obs(3, 1, "b.evil.example"), // timestamp inversion
            obs(9, 2, "a.evil.example"), // other server: clean
        ];
        let m = match_stream(&stream, &matcher(), ExecPolicy::Sequential);
        let q = m.quality();
        assert_eq!(q.scanned, 4);
        assert_eq!(q.matched, 4);
        assert_eq!(q.out_of_order, 1);
        assert_eq!(q.duplicates, 1);
        assert!(q.is_degraded());
    }

    #[test]
    fn clean_stream_quality_is_not_degraded() {
        let stream = vec![obs(0, 1, "a.evil.example"), obs(1, 1, "b.evil.example")];
        let m = match_stream(&stream, &matcher(), ExecPolicy::Sequential);
        assert!(!m.quality().is_degraded());
    }

    #[test]
    fn quality_identical_across_policies_on_anomalous_stream() {
        // Inversions and repeats sprinkled through a long stream, including
        // near chunk boundaries, so the append() boundary re-check is
        // exercised under every chunking.
        let stream: Vec<_> = (0..6000u64)
            .map(|i| {
                let t = if i % 97 == 0 { i.saturating_sub(10) } else { i };
                let name = if i % 2 == 0 {
                    "a.evil.example"
                } else {
                    "b.evil.example"
                };
                let mut l = obs(t, (i % 4) as u32, name);
                if i % 53 == 0 && i > 0 {
                    // Force an exact repeat of the previous same-server slot.
                    l = obs(
                        i - 4,
                        (i % 4) as u32,
                        if (i - 4) % 2 == 0 {
                            "a.evil.example"
                        } else {
                            "b.evil.example"
                        },
                    );
                }
                l
            })
            .collect();
        let m = matcher();
        let sequential = match_stream(&stream, &m, ExecPolicy::Sequential);
        let parallel = match_stream(&stream, &m, ExecPolicy::with_threads(4));
        assert_eq!(parallel, sequential);
        assert_eq!(parallel.quality(), sequential.quality());
        assert!(sequential.quality().out_of_order > 0);
    }

    #[test]
    fn recorded_scan_emits_quality_counters() {
        let stream = vec![
            obs(5, 1, "a.evil.example"),
            obs(5, 1, "a.evil.example"),
            obs(3, 1, "b.evil.example"),
        ];
        let (handle, registry) = Obs::collecting();
        match_stream_recorded(&stream, &matcher(), ExecPolicy::Sequential, &handle);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("matcher.out_of_order"), Some(1));
        assert_eq!(snap.counter("matcher.duplicates"), Some(1));
        // A clean stream must not touch the anomaly counters at all.
        let (clean_handle, clean_registry) = Obs::collecting();
        match_stream_recorded(
            &[obs(0, 1, "a.evil.example")],
            &matcher(),
            ExecPolicy::Sequential,
            &clean_handle,
        );
        let clean = clean_registry.snapshot();
        assert_eq!(clean.counter("matcher.out_of_order"), None);
        assert_eq!(clean.counter("matcher.duplicates"), None);
    }

    /// A long anomalous stream (inversions + adjacent repeats) for chunked
    /// equivalence checks.
    fn anomalous_stream(n: u64) -> Vec<ObservedLookup> {
        (0..n)
            .map(|i| {
                let t = if i % 97 == 0 { i.saturating_sub(10) } else { i };
                let name = if i % 3 == 0 {
                    "a.evil.example"
                } else if i % 7 == 0 {
                    "b.evil.example"
                } else {
                    "clean.example"
                };
                obs(t, (i % 4) as u32, name)
            })
            .collect()
    }

    /// Matches names starting with `hit` and records every name it probes.
    struct ProbeLog {
        probed: std::cell::RefCell<Vec<DomainName>>,
    }

    impl DomainMatcher for ProbeLog {
        fn matches(&self, domain: &DomainName) -> bool {
            self.probed.borrow_mut().push(domain.clone());
            domain.as_str().starts_with("hit")
        }
    }

    #[test]
    fn scan_hits_probes_once_and_visits_hits_in_arrival_order() {
        for n in [0usize, 1, 63, 64, 65, 4096] {
            let stream: Vec<_> = (0..n as u64)
                .map(|i| {
                    let name = if i % 3 == 0 { "hit" } else { "miss" };
                    obs(i, (i % 2) as u32, &format!("{name}{i}.example"))
                })
                .collect();
            let m = ProbeLog {
                probed: Default::default(),
            };
            let mut visited = Vec::new();
            scan_hits(&stream, &m, |lookup| visited.push(lookup.t));
            let probed = m.probed.into_inner();
            let arrival: Vec<_> = stream.iter().map(|l| l.domain.clone()).collect();
            assert_eq!(probed, arrival, "n = {n}");
            let expected: Vec<_> = stream.iter().step_by(3).map(|l| l.t).collect();
            assert_eq!(visited, expected, "n = {n}");
        }
    }

    #[test]
    fn quality_cursor_equals_batch_scan_quality() {
        let stream = anomalous_stream(6000);
        let m = matcher();
        let batch = match_stream(&stream, &m, ExecPolicy::Sequential);
        let mut cursor = QualityCursor::new();
        cursor.note_scanned(stream.len());
        for lookup in &stream {
            if m.matches(&lookup.domain) {
                cursor.note_matched(lookup);
            }
        }
        assert_eq!(cursor.quality(), batch.quality());
        assert!(cursor.quality().is_degraded());
        // The cursor's whole state is one lookup per server.
        assert_eq!(cursor.tracked_servers(), batch.servers().count());
    }

    #[test]
    fn quality_cursor_state_round_trips_mid_stream() {
        let stream = anomalous_stream(3000);
        let m = matcher();
        // Uninterrupted reference.
        let mut whole = QualityCursor::new();
        whole.note_scanned(stream.len());
        for l in stream.iter().filter(|l| m.matches(&l.domain)) {
            whole.note_matched(l);
        }
        // Checkpoint/restore at several cut points, including 0 and len.
        for cut in [0usize, 1, 500, 1499, 3000] {
            let mut first = QualityCursor::new();
            first.note_scanned(cut);
            for l in stream[..cut].iter().filter(|l| m.matches(&l.domain)) {
                first.note_matched(l);
            }
            let state = first.to_state();
            let json = serde_json::to_string(&state).expect("state serializes");
            let back: QualityCursorState = serde_json::from_str(&json).expect("state parses");
            assert_eq!(back, state, "serde round-trip at cut {cut}");
            let mut resumed = QualityCursor::from_state(back);
            resumed.note_scanned(stream.len() - cut);
            for l in stream[cut..].iter().filter(|l| m.matches(&l.domain)) {
                resumed.note_matched(l);
            }
            assert_eq!(resumed.quality(), whole.quality(), "cut {cut} diverged");
            assert_eq!(resumed.tracked_servers(), whole.tracked_servers());
        }
    }

    #[test]
    fn quality_cursor_is_chunking_independent() {
        let stream = anomalous_stream(3000);
        let m = matcher();
        let whole = {
            let mut c = QualityCursor::new();
            c.note_scanned(stream.len());
            for l in stream.iter().filter(|l| m.matches(&l.domain)) {
                c.note_matched(l);
            }
            c.quality()
        };
        for chunk_len in [1usize, 7, 64, 999] {
            let mut c = QualityCursor::new();
            for chunk in stream.chunks(chunk_len) {
                c.note_scanned(chunk.len());
                for l in chunk.iter().filter(|l| m.matches(&l.domain)) {
                    c.note_matched(l);
                }
            }
            assert_eq!(c.quality(), whole, "chunk_len {chunk_len} diverged");
        }
    }

    #[test]
    fn recorded_counters_identical_across_policies() {
        let stream: Vec<_> = (0..4000u64)
            .map(|i| {
                let name = if i % 4 == 0 {
                    "a.evil.example"
                } else {
                    "clean.example"
                };
                obs(i, (i % 3) as u32, name)
            })
            .collect();
        let m = matcher();
        let (h_seq, r_seq) = Obs::collecting();
        let (h_par, r_par) = Obs::collecting();
        match_stream_recorded(&stream, &m, ExecPolicy::Sequential, &h_seq);
        match_stream_recorded(&stream, &m, ExecPolicy::with_threads(4), &h_par);
        assert_eq!(
            r_seq.snapshot().deterministic_counters(),
            r_par.snapshot().deterministic_counters()
        );
    }
}
