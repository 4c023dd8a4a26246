//! The incremental charting engine behind `botmeterd`.
//!
//! A batch [`BotMeter::chart_with`] run rebuilds everything from scratch:
//! matcher, estimation context, every cell. The daemon engine instead keeps
//! the pipeline *resident* — one [`ChartMatcher`] for its configured epoch
//! window, one [`EstimationContext`] whose segment-kernel cache survives
//! across publishes, one bounded [`QualityCursor`] for stream health — and
//! on each publish re-estimates only the cells whose matched traffic
//! changed since the last one. Snapshots are bit-identical to a batch
//! chart over the same observed prefix; see [`BotMeterDaemon`] for the
//! exact contract and its one documented exception (stale arrivals).
//!
//! The engine owns only what is incremental — the cell ledger, freezing,
//! the snapshot store. What a chart *is* it calls, the same three pieces
//! the batch chart calls: [`BotMeter::validate`] for the request,
//! [`scan_hits`] for the probe loop over each shard, and
//! [`LandscapeEntry::from_raw`] for turning a raw estimate into a cell.

use crate::checkpoint::{CellCheckpoint, EngineCheckpoint, SnapshotCheckpoint};
use crate::store::LandscapeStore;
use botmeter_core::{
    BotMeter, CellStats, ChartMatcher, ChartRequest, EstimationContext, Estimator, Landscape,
    LandscapeEntry, LandscapeVersion,
};
use botmeter_dns::{ObservedLookup, ServerId, SimDuration, SimInstant};
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{scan_hits, QualityCursor};
use botmeter_obs::Obs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Range;

/// Configuration of a [`BotMeterDaemon`].
///
/// # Example
///
/// ```
/// use botmeter_daemon::DaemonOptions;
/// use botmeter_exec::ExecPolicy;
///
/// let opts = DaemonOptions::new(0..7)
///     .policy(ExecPolicy::Sequential)
///     .close_lag(2)
///     .retention(16)
///     .auto_publish(false);
/// assert_eq!(opts.epoch_range(), 0..7);
/// ```
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    epochs: Range<u64>,
    policy: ExecPolicy,
    close_lag: u64,
    retention: usize,
    auto_publish: bool,
    obs: Obs,
}

impl DaemonOptions {
    /// Options charting `epochs` with the default policy, a close lag of
    /// one epoch, eight retained snapshots, automatic publishing on epoch
    /// close and no observability.
    pub fn new(epochs: Range<u64>) -> Self {
        DaemonOptions {
            epochs,
            policy: ExecPolicy::default(),
            close_lag: 1,
            retention: 8,
            auto_publish: true,
            obs: Obs::noop(),
        }
    }

    /// Sets the execution policy estimation fans out under.
    #[must_use]
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how many epochs behind the stream head an epoch must fall
    /// before it is *frozen* — its per-cell lookups dropped, its final raw
    /// estimate kept. The lag absorbs benign timestamp jitter around epoch
    /// boundaries; records for an already-frozen epoch are counted and
    /// flagged stale instead of re-opening it.
    #[must_use]
    pub fn close_lag(mut self, close_lag: u64) -> Self {
        self.close_lag = close_lag;
        self
    }

    /// Sets how many published snapshots the store retains (clamped ≥ 1).
    #[must_use]
    pub fn retention(mut self, retention: usize) -> Self {
        self.retention = retention;
        self
    }

    /// Whether a publish is triggered automatically whenever ingest sees
    /// the stream head advance into a later epoch (default). The trailing
    /// partial epoch always needs an explicit
    /// [`BotMeterDaemon::publish_now`].
    #[must_use]
    pub fn auto_publish(mut self, auto_publish: bool) -> Self {
        self.auto_publish = auto_publish;
        self
    }

    /// Attaches an observability handle: the engine reports `daemon.*`
    /// counters, residency gauges and the per-publish `daemon.rechart_ns`
    /// latency histogram through it.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The configured epoch window.
    pub fn epoch_range(&self) -> Range<u64> {
        self.epochs.clone()
    }

    /// The attached observability handle (a noop handle by default).
    pub fn observability(&self) -> Obs {
        self.obs.clone()
    }
}

/// One (server, epoch) cell's resident state.
#[derive(Debug, Clone, Default)]
struct CellState {
    /// Matched lookups accumulated for this cell; emptied on freeze.
    lookups: Vec<ObservedLookup>,
    /// The last raw (pre-rescale) estimate computed for this cell.
    raw: f64,
    /// Whether traffic arrived since `raw` was computed.
    dirty: bool,
    /// Whether the cell's epoch closed: lookups dropped, `raw` final.
    frozen: bool,
    /// Whether records arrived after the freeze (and were discarded) —
    /// the cell's estimate no longer covers the full stream.
    stale: bool,
}

/// Counters a running daemon exposes directly (they are also mirrored as
/// `daemon.*` observability metrics when an [`Obs`] handle is attached).
/// A checkpoint stores them as they are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonStats {
    /// Observed lookups ingested (matched or not).
    pub ingested: u64,
    /// Lookups that matched the target DGA within the epoch window.
    pub matched: u64,
    /// Matched lookups discarded because their epoch was already frozen.
    pub stale_records: u64,
    /// Matched lookups currently held in open cells.
    pub resident_records: usize,
    /// High-water mark of `resident_records`.
    pub peak_resident_records: usize,
    /// Snapshots published so far.
    pub publishes: u64,
    /// Total cells re-estimated across all publishes — the incrementality
    /// measure: under localized traffic change this stays far below
    /// `publishes × total cells`.
    pub cells_reestimated: u64,
}

/// The `botmeterd` engine: a resident BotMeter pipeline that ingests an
/// unbounded observed-lookup stream and publishes versioned landscape
/// snapshots, re-estimating only changed cells.
///
/// # Equivalence contract
///
/// After ingesting any prefix of an observed stream (in stream order, under
/// any shard chunking) and publishing, [`latest`](Self::latest) is
/// bit-identical — entries, estimates, quality flags — to
/// [`BotMeter::chart_with`] over the same prefix, same epoch window and any
/// [`ExecPolicy`]. This holds because the matcher is built once for the
/// window (exactly what a batch chart builds), each cell's estimate is a
/// pure function of that cell's matched lookups, the shared segment-kernel
/// cache memoizes deterministically, and the [`QualityCursor`] reproduces
/// the batch scan's stream-health summary with bounded state.
///
/// The one exception is *stale* traffic: a record for an epoch already
/// frozen (see [`DaemonOptions::close_lag`]) is counted, the cell is
/// flagged [`CellQuality::Degraded`], and the record is dropped rather
/// than buffered — bounded memory is the point of freezing. A batch chart
/// over the full stream would have included it.
///
/// [`CellQuality::Degraded`]: botmeter_core::CellQuality::Degraded
///
/// # Example
///
/// ```
/// use botmeter_core::{BotMeter, BotMeterConfig};
/// use botmeter_daemon::{BotMeterDaemon, DaemonOptions};
/// use botmeter_dga::DgaFamily;
/// use botmeter_exec::ExecPolicy;
/// use botmeter_sim::ScenarioSpec;
///
/// let outcome = ScenarioSpec::builder(DgaFamily::murofet())
///     .population(32)
///     .seed(11)
///     .build()?
///     .run(ExecPolicy::default());
/// let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
/// let mut daemon = BotMeterDaemon::new(meter, DaemonOptions::new(0..1))?;
/// daemon.ingest(outcome.observed());
/// let version = daemon.publish_now();
/// assert_eq!(daemon.latest().map(|(v, _)| v), Some(version));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BotMeterDaemon {
    meter: BotMeter,
    matcher: ChartMatcher,
    estimator: Box<dyn Estimator>,
    ctx: EstimationContext,
    rate: f64,
    epoch_len: SimDuration,
    epochs: Range<u64>,
    policy: ExecPolicy,
    close_lag: u64,
    auto_publish: bool,
    obs: Obs,
    cells: BTreeMap<(ServerId, u64), CellState>,
    cursor: QualityCursor,
    /// Latest timestamp seen on any matched lookup.
    head: Option<SimInstant>,
    /// The head epoch as of the end of the previous ingest call — the
    /// auto-publish trigger compares against it.
    prev_head_epoch: Option<u64>,
    stats: DaemonStats,
    store: LandscapeStore,
}

impl BotMeterDaemon {
    /// Builds the engine around `meter`: resolves the model, builds the
    /// window matcher once, and opens the long-lived estimation context.
    ///
    /// # Errors
    ///
    /// Whatever [`BotMeter::validate`] rejects — the validation a batch
    /// chart over the same window performs.
    pub fn new(meter: BotMeter, options: DaemonOptions) -> Result<Self, botmeter_core::Error> {
        let epochs = options.epoch_range();
        let rate = meter.validate(&epochs, None)?;
        let matcher = meter.matcher_for(epochs.clone());
        let estimator = meter.resolve_model();
        let ctx = meter.estimation_context();
        let epoch_len = meter.config().family().epoch_len();
        Ok(BotMeterDaemon {
            meter,
            matcher,
            estimator,
            ctx,
            rate,
            epoch_len,
            epochs,
            policy: options.policy,
            close_lag: options.close_lag,
            auto_publish: options.auto_publish,
            obs: options.obs,
            cells: BTreeMap::new(),
            cursor: QualityCursor::new(),
            head: None,
            prev_head_epoch: None,
            stats: DaemonStats::default(),
            store: LandscapeStore::new(options.retention),
        })
    }

    /// Ingests one shard of observed lookups (in stream order): matches
    /// them against the window matcher, folds matched lookups into their
    /// (server, epoch) cells and the quality cursor, and — when automatic
    /// publishing is on and the stream head advanced into a later epoch —
    /// publishes a snapshot.
    ///
    /// Returns the version published by this call, if any.
    pub fn ingest(&mut self, shard: &[ObservedLookup]) -> Option<LandscapeVersion> {
        self.cursor.note_scanned(shard.len());
        self.stats.ingested += shard.len() as u64;
        let matched_before = self.stats.matched;
        // The closure borrows the ledger fields it folds into; the matcher
        // is borrowed beside them, not through `self`.
        scan_hits(shard, &self.matcher, |lookup| {
            self.cursor.note_matched(lookup);
            self.stats.matched += 1;
            self.head = Some(self.head.map_or(lookup.t, |h| h.max(lookup.t)));
            let epoch = lookup.t.epoch_day(self.epoch_len);
            if !self.epochs.contains(&epoch) {
                // Quality-counted (exactly like the batch scan) but
                // chartless: pool overlap can match domains outside the
                // epoch window.
                return;
            }
            let cell = self.cells.entry((lookup.server, epoch)).or_default();
            if cell.frozen {
                cell.stale = true;
                self.stats.stale_records += 1;
                if self.obs.enabled() {
                    self.obs.counter_add("daemon.stale_records", 1);
                }
                return;
            }
            cell.lookups.push(lookup.clone());
            cell.dirty = true;
            self.stats.resident_records += 1;
            self.stats.peak_resident_records = self
                .stats
                .peak_resident_records
                .max(self.stats.resident_records);
        });
        if self.obs.enabled() {
            self.obs.counter_add("daemon.ingested", shard.len() as u64);
            // Per-shard totals: one registry lock each, not one per record.
            let matched = self.stats.matched - matched_before;
            if matched > 0 {
                self.obs.counter_add("daemon.matched", matched);
            }
            self.obs.gauge_max(
                "daemon.resident_records",
                self.stats.resident_records as u64,
            );
        }
        let head_epoch = self.head_epoch();
        let advanced = match (self.prev_head_epoch, head_epoch) {
            (Some(prev), Some(now)) => now > prev,
            (None, Some(_)) => false, // first traffic opens the first epoch
            _ => false,
        };
        if head_epoch.is_some() {
            self.prev_head_epoch = head_epoch;
        }
        if self.auto_publish && advanced {
            Some(self.publish_now())
        } else {
            None
        }
    }

    /// Re-estimates every dirty cell, freezes epochs that fell behind the
    /// close lag, and publishes the resulting snapshot. Returns its
    /// version.
    ///
    /// Unchanged cells keep their previous raw estimate untouched —
    /// re-estimation cost is proportional to *changed* traffic, not to the
    /// landscape size.
    pub fn publish_now(&mut self) -> LandscapeVersion {
        let start = self.obs.clock();
        // 1. Re-estimate exactly the dirty cells, in (server, epoch) order
        //    — the same order a batch chart collects cells in.
        let dirty: Vec<(ServerId, u64)> = self
            .cells
            .iter()
            .filter(|(_, c)| c.dirty)
            .map(|(k, _)| *k)
            .collect();
        let slices: Vec<CellStats<'_>> = dirty
            .iter()
            .map(|key| CellStats::exact(key.1, &self.cells[key].lookups))
            .collect();
        let estimates = self
            .estimator
            .estimate_batch(&slices, &self.ctx, self.policy, &self.obs);
        for (key, raw) in dirty.iter().zip(estimates) {
            let cell = self.cells.get_mut(key).expect("dirty key exists");
            cell.raw = raw;
            cell.dirty = false;
        }
        self.stats.cells_reestimated += dirty.len() as u64;

        // 2. Freeze epochs that fell behind the close lag: keep the final
        //    raw estimate, drop the lookups.
        if let Some(head_epoch) = self.head_epoch() {
            let mut frozen_cells = 0u64;
            for ((_, epoch), cell) in self.cells.iter_mut() {
                if !cell.frozen && epoch.saturating_add(self.close_lag) < head_epoch {
                    self.stats.resident_records -= cell.lookups.len();
                    cell.lookups = Vec::new();
                    cell.frozen = true;
                    frozen_cells += 1;
                }
            }
            if self.obs.enabled() && frozen_cells > 0 {
                self.obs.counter_add("daemon.cells.frozen", frozen_cells);
            }
        }

        // 3. Build the snapshot through the batch chart's cell rule; the
        //    stale flag marks post-freeze arrivals.
        let stream = self.cursor.quality();
        let entries: Vec<LandscapeEntry> = self
            .cells
            .iter()
            .map(|(&(server, epoch), cell)| {
                LandscapeEntry::from_raw(
                    server, epoch, cell.raw, self.rate, &stream, cell.stale, None,
                )
            })
            .collect();
        let version = self.store.publish(Landscape::from_entries(entries));
        self.stats.publishes += 1;
        if self.obs.enabled() {
            self.obs.counter_add("daemon.publishes", 1);
            self.obs
                .counter_add("daemon.cells.reestimated", dirty.len() as u64);
            self.obs
                .gauge_max("daemon.cells.total", self.cells.len() as u64);
            self.obs.observe_since("daemon.rechart_ns", start);
        }
        version
    }

    /// The latest published snapshot, if any.
    pub fn latest(&self) -> Option<(LandscapeVersion, &Landscape)> {
        self.store.latest()
    }

    /// The snapshot store: point lookups, retained versions and deltas.
    pub fn store(&self) -> &LandscapeStore {
        &self.store
    }

    /// Running ingest/publish counters.
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// The epoch of the latest matched timestamp seen so far (`None`
    /// before any match).
    pub fn head_epoch(&self) -> Option<u64> {
        self.head.map(|t| t.epoch_day(self.epoch_len))
    }

    /// Number of (server, epoch) cells the engine currently tracks.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of cells with unestimated traffic.
    pub fn dirty_cells(&self) -> usize {
        self.cells.values().filter(|c| c.dirty).count()
    }

    /// The BotMeter this engine runs (useful for reference batch charts).
    pub fn meter(&self) -> &BotMeter {
        &self.meter
    }

    /// A from-scratch batch chart over `observed` with this daemon's epoch
    /// window and policy — the reference the equivalence contract compares
    /// [`latest`](Self::latest) against.
    pub fn reference_chart(&self, observed: &[ObservedLookup]) -> Landscape {
        self.meter.chart_with(
            &ChartRequest::new(observed)
                .epochs(self.epochs.clone())
                .policy(self.policy),
        )
    }

    /// Fingerprint of everything that shapes this engine's *results*:
    /// family, estimator route, epoch window, close lag, delivery rate and
    /// retention. Recovery refuses to load a checkpoint taken under a
    /// different fingerprint — resuming murofet state into a newGoZ
    /// engine would silently skew the landscape. The [`ExecPolicy`] is
    /// deliberately excluded: results are policy-independent, so a daemon
    /// may restart with a different worker count.
    pub fn config_fingerprint(&self) -> String {
        format!(
            "family={};model={};epochs={}..{};close_lag={};rate={};retention={}",
            self.meter.config().family().name(),
            self.estimator.name(),
            self.epochs.start,
            self.epochs.end,
            self.close_lag,
            self.rate.to_bits(),
            self.store.retention(),
        )
    }

    /// Serializes the engine's complete recoverable state at journal
    /// watermark `wal_seq` — the cell ledger, quality cursor, head
    /// bookkeeping, counters and retained snapshots. The segment-kernel
    /// cache is deliberately absent: it is a deterministic memo that
    /// rebuilds lazily and cannot affect published results.
    pub fn checkpoint_state(&self, wal_seq: u64) -> EngineCheckpoint {
        EngineCheckpoint {
            config: self.config_fingerprint(),
            wal_seq,
            cells: self
                .cells
                .iter()
                .map(|(&(server, epoch), cell)| CellCheckpoint {
                    server,
                    epoch,
                    lookups: cell.lookups.clone(),
                    raw_bits: cell.raw.to_bits(),
                    dirty: cell.dirty,
                    frozen: cell.frozen,
                    stale: cell.stale,
                })
                .collect(),
            cursor: self.cursor.to_state(),
            head: self.head,
            prev_head_epoch: self.prev_head_epoch,
            stats: self.stats,
            snapshots: self
                .store
                .versions()
                .into_iter()
                .filter_map(|v| {
                    self.store
                        .at(v)
                        .map(|l| SnapshotCheckpoint::from_landscape(v, l))
                })
                .collect(),
            newest_version: self.store.newest_version().0,
        }
    }

    /// Rebuilds an engine from a checkpoint: a fresh pipeline (matcher,
    /// estimator, empty kernel cache) with the checkpointed state loaded
    /// over it. Ingesting the stream suffix after the checkpoint's
    /// watermark through the normal [`ingest`](Self::ingest) path then
    /// publishes snapshots bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// The same validation as [`new`](Self::new);
    /// [`ConfigMismatch`](crate::DurabilityError::ConfigMismatch) when the
    /// checkpoint was taken under a different
    /// [`config_fingerprint`](Self::config_fingerprint); and
    /// [`StoreError`](crate::StoreError) when the checkpointed snapshot
    /// sequence is internally inconsistent.
    pub fn from_checkpoint(
        meter: BotMeter,
        options: DaemonOptions,
        state: &EngineCheckpoint,
    ) -> Result<Self, crate::DurabilityError> {
        let mut engine = Self::new(meter, options)?;
        let expected = engine.config_fingerprint();
        if state.config != expected {
            return Err(crate::DurabilityError::ConfigMismatch {
                expected,
                found: state.config.clone(),
            });
        }
        engine.cells = state
            .cells
            .iter()
            .map(|c| {
                (
                    (c.server, c.epoch),
                    CellState {
                        lookups: c.lookups.clone(),
                        raw: f64::from_bits(c.raw_bits),
                        dirty: c.dirty,
                        frozen: c.frozen,
                        stale: c.stale,
                    },
                )
            })
            .collect();
        engine.cursor = QualityCursor::from_state(state.cursor.clone());
        engine.head = state.head;
        engine.prev_head_epoch = state.prev_head_epoch;
        engine.stats = state.stats;
        engine.store = LandscapeStore::restore(
            engine.store.retention(),
            botmeter_core::LandscapeVersion(state.newest_version),
            state.snapshots.iter().map(|s| s.to_landscape()).collect(),
        )?;
        Ok(engine)
    }
}

impl std::fmt::Debug for BotMeterDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BotMeterDaemon")
            .field("epochs", &self.epochs)
            .field("policy", &self.policy)
            .field("model", &self.estimator.name())
            .field("cells", &self.cells.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_core::{BotMeterConfig, CellQuality};
    use botmeter_dga::DgaFamily;
    use botmeter_matcher::DomainMatcher;
    use botmeter_sim::ScenarioSpec;

    fn outcome(num_epochs: u64) -> botmeter_sim::ScenarioOutcome {
        ScenarioSpec::builder(DgaFamily::murofet())
            .population(24)
            .num_epochs(num_epochs)
            .seed(17)
            .build()
            .expect("valid scenario")
            .run(ExecPolicy::default())
    }

    #[test]
    fn rejects_invalid_parameters() {
        let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::murofet()).delivery_rate(1.5));
        assert!(matches!(
            BotMeterDaemon::new(meter, DaemonOptions::new(0..1)),
            Err(botmeter_core::Error::BadDeliveryRate { .. })
        ));
        let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::murofet()));
        assert!(matches!(
            BotMeterDaemon::new(meter, DaemonOptions::new(3..3)),
            Err(botmeter_core::Error::EmptyEpochRange { start: 3, end: 3 })
        ));
    }

    #[test]
    fn single_shot_matches_batch_chart() {
        let out = outcome(1);
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let mut daemon = BotMeterDaemon::new(
            meter,
            DaemonOptions::new(0..1).policy(ExecPolicy::Sequential),
        )
        .expect("valid options");
        daemon.ingest(out.observed());
        daemon.publish_now();
        let (version, snapshot) = daemon.latest().expect("published");
        assert_eq!(version, LandscapeVersion(1));
        assert_eq!(snapshot, &daemon.reference_chart(out.observed()));
        assert_eq!(daemon.dirty_cells(), 0);
    }

    #[test]
    fn republish_without_new_traffic_reestimates_nothing() {
        let out = outcome(1);
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let mut daemon = BotMeterDaemon::new(
            meter,
            DaemonOptions::new(0..1).policy(ExecPolicy::Sequential),
        )
        .expect("valid options");
        daemon.ingest(out.observed());
        let v1 = daemon.publish_now();
        let after_first = daemon.stats().cells_reestimated;
        assert!(after_first > 0);
        let v2 = daemon.publish_now();
        assert_eq!(
            daemon.stats().cells_reestimated,
            after_first,
            "no dirty cells"
        );
        assert_eq!(v2, v1.next());
        let delta = daemon.store().delta(v1, v2).expect("retained");
        assert!(delta.is_empty(), "identical snapshots diff empty");
    }

    #[test]
    fn publishes_share_one_pool_index_and_count_matches_per_shard() {
        // A Bernoulli daemon: every publish plans its dirty cell against
        // the epoch's indexed pool, which the long-lived context builds
        // once — and every snapshot still equals the cold batch chart.
        let out = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(12)
            .seed(5)
            .build()
            .expect("valid scenario")
            .run(ExecPolicy::default());
        let (obs, registry) = Obs::collecting();
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let mut daemon = BotMeterDaemon::new(
            meter,
            DaemonOptions::new(0..1)
                .policy(ExecPolicy::Sequential)
                .obs(obs),
        )
        .expect("valid options");
        let half = out.observed().len() / 2;
        daemon.ingest(&out.observed()[..half]);
        daemon.publish_now();
        let index = daemon.ctx.pool_index(0);
        assert_eq!(
            daemon.latest().expect("published").1,
            &daemon.reference_chart(&out.observed()[..half])
        );
        daemon.ingest(&out.observed()[half..]);
        daemon.publish_now();
        assert!(
            std::sync::Arc::ptr_eq(&index, &daemon.ctx.pool_index(0)),
            "the second publish reused the first one's index"
        );
        assert_eq!(
            daemon.latest().expect("published").1,
            &daemon.reference_chart(out.observed())
        );
        // `daemon.matched` is added once per shard, to the same total.
        assert_eq!(
            registry.snapshot().counter("daemon.matched"),
            Some(daemon.stats().matched)
        );
    }

    #[test]
    fn context_indexes_the_pools_the_matcher_was_built_from() {
        let (obs, registry) = Obs::collecting();
        let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz())).with_obs(obs);
        let daemon = BotMeterDaemon::new(meter, DaemonOptions::new(2..9)).expect("valid options");
        for epoch in 2..9 {
            assert!(
                daemon.matcher.shares_pool(&daemon.ctx.pool_index(epoch)),
                "epoch {epoch}"
            );
        }
        // One generation per configured epoch, however often indexed.
        assert_eq!(registry.snapshot().counter("chart.pools_built"), Some(7));
    }

    #[test]
    fn chunked_ingest_is_chunking_independent() {
        let out = outcome(1);
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let mut whole = BotMeterDaemon::new(
            meter.clone(),
            DaemonOptions::new(0..1).policy(ExecPolicy::Sequential),
        )
        .expect("valid options");
        whole.ingest(out.observed());
        whole.publish_now();
        let mut chunked = BotMeterDaemon::new(
            meter,
            DaemonOptions::new(0..1).policy(ExecPolicy::Sequential),
        )
        .expect("valid options");
        for chunk in out.observed().chunks(7) {
            chunked.ingest(chunk);
        }
        chunked.publish_now();
        assert_eq!(
            whole.latest().map(|(_, l)| l.clone()),
            chunked.latest().map(|(_, l)| l.clone())
        );
    }

    #[test]
    fn auto_publish_fires_on_epoch_close() {
        let out = outcome(3);
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let mut daemon = BotMeterDaemon::new(
            meter,
            DaemonOptions::new(0..3).policy(ExecPolicy::Sequential),
        )
        .expect("valid options");
        let mut published = 0usize;
        for chunk in out.observed().chunks(64) {
            if daemon.ingest(chunk).is_some() {
                published += 1;
            }
        }
        assert!(published >= 2, "head crossed two epoch boundaries");
        assert_eq!(daemon.stats().publishes, published as u64);
    }

    #[test]
    fn sketchless_daemon_keeps_its_historical_fingerprint() {
        let out = outcome(1);
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let daemon = BotMeterDaemon::new(meter, DaemonOptions::new(0..1)).expect("valid options");
        assert!(!daemon.config_fingerprint().contains("sketch"));
    }

    #[test]
    fn freezing_drops_lookups_and_flags_stale_arrivals() {
        let out = outcome(3);
        let meter = BotMeter::new(BotMeterConfig::new(out.family().clone()));
        let mut daemon = BotMeterDaemon::new(
            meter,
            DaemonOptions::new(0..3)
                .policy(ExecPolicy::Sequential)
                .close_lag(0),
        )
        .expect("valid options");
        daemon.ingest(out.observed());
        daemon.publish_now();
        let resident_after = daemon.stats().resident_records;
        assert!(
            resident_after < daemon.stats().matched as usize,
            "closed epochs freed their lookups"
        );
        // Replay an early matched lookup: its epoch is frozen now.
        let early = out
            .observed()
            .iter()
            .find(|l| daemon.matcher.matches(&l.domain) && l.t.epoch_day(daemon.epoch_len) == 0)
            .expect("epoch-0 matched lookup exists")
            .clone();
        daemon.ingest(std::slice::from_ref(&early));
        assert_eq!(daemon.stats().stale_records, 1);
        daemon.publish_now();
        let (_, snapshot) = daemon.latest().expect("published");
        let cell = snapshot
            .entries()
            .iter()
            .find(|e| e.server == early.server && e.epoch == 0)
            .expect("stale cell present");
        assert_eq!(cell.quality, CellQuality::Degraded);
    }
}
