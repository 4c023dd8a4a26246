//! The BotMeter facade: the end-to-end pipeline of Fig. 2.
//!
//! Tap the border stream (①), describe the targeted DGA (②), match (③–④),
//! pick a model from the library (⑤–⑥), estimate (⑦) — and get back the
//! *landscape*: per-local-server, per-epoch bot population estimates, ready
//! to prioritise remediation.

use crate::bernoulli::BernoulliEstimator;
use crate::config::{EpochPool, EstimationContext, PoolTable};
use crate::coverage::CoverageEstimator;
use crate::estimator::{CellStats, Estimator, Lane};
use crate::poisson::PoissonEstimator;
use crate::request::{ChartRequest, TelemetrySource};
use crate::timing::TimingEstimator;
use botmeter_dga::{BarrelClass, DgaFamily};
use botmeter_dns::{ObservedLookup, ServerId, SimDuration, TtlPolicy};
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{
    match_stream_recorded, DomainMatcher, ExactMatcher, MatchedTraffic, StreamQuality,
};
use botmeter_obs::Obs;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// One exact (server, epoch) cell: its matched lookups, borrowed from the
/// telemetry source where it holds them contiguously.
type Cell<'a> = (ServerId, u64, Cow<'a, [ObservedLookup]>);

/// Invalid analyst-supplied parameters, reported by
/// [`BotMeter::try_chart_with`] instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The configured delivery rate is not a finite probability in
    /// `(0, 1]` — dividing observed counts by it would be meaningless.
    BadDeliveryRate {
        /// The offending rate.
        rate: f64,
    },
    /// The epoch range selects no epochs, so there is nothing to chart.
    EmptyEpochRange {
        /// Range start.
        start: u64,
        /// Range end (exclusive).
        end: u64,
    },
    /// A sketch telemetry source was accumulated under an epoch length
    /// different from the charted family's — its (server, epoch) cells
    /// would not line up with landscape cells.
    SketchEpochMismatch {
        /// The sketch's epoch length in milliseconds.
        sketch_ms: u64,
        /// The family's epoch length in milliseconds.
        family_ms: u64,
    },
    /// The model reads a [`Lane`] that sketch telemetry never fills, so a
    /// sketch cannot be charted with it.
    LaneNotInSketch {
        /// The model's display name.
        model: &'static str,
        /// The lane it reads.
        lane: Lane,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::BadDeliveryRate { rate } => write!(
                f,
                "delivery rate must be a finite probability in (0, 1], got {rate}"
            ),
            Error::EmptyEpochRange { start, end } => {
                write!(f, "epoch range {start}..{end} selects no epochs")
            }
            Error::SketchEpochMismatch {
                sketch_ms,
                family_ms,
            } => write!(
                f,
                "sketch epoch length {sketch_ms} ms does not match the family's {family_ms} ms"
            ),
            Error::LaneNotInSketch { model, lane } => write!(
                f,
                "the {model} model reads the {lane} lane, which sketch telemetry does not fill"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// How much a landscape cell's estimate should be trusted.
///
/// Ordered from best to worst, so the worst of two flags is their `max`.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[non_exhaustive]
pub enum CellQuality {
    /// Nothing suspicious: clean stream, full delivery.
    #[default]
    Ok,
    /// The estimate was produced from a visibly degraded stream (ordering
    /// or duplication anomalies) or rescaled for partial delivery — usable
    /// but with widened error bars.
    Degraded,
    /// The raw estimate was non-finite or negative, or the telemetry could
    /// not fill a lane the model reads; the estimate is clamped to `0.0`.
    /// Do not act on this cell.
    Invalid,
}

/// Which analytical model to run (Fig. 2, step 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ModelKind {
    /// Pick by the family's taxonomy cell: `AU` → Poisson, `AR` →
    /// Bernoulli, everything else → Timing.
    #[default]
    Auto,
    /// Force the Timing estimator `MT`.
    Timing,
    /// Force the Poisson estimator `MP`.
    Poisson,
    /// Force the Bernoulli estimator `MB`.
    Bernoulli,
    /// Force the Coverage estimator `MC`.
    Coverage,
    /// Force the Sampling estimator `MS` (this reproduction's `AS` model).
    Sampling,
}

impl ModelKind {
    /// Every variant under the name `--model` takes for it.
    const NAMES: [(&'static str, ModelKind); 6] = [
        ("auto", ModelKind::Auto),
        ("timing", ModelKind::Timing),
        ("poisson", ModelKind::Poisson),
        ("bernoulli", ModelKind::Bernoulli),
        ("coverage", ModelKind::Coverage),
        ("sampling", ModelKind::Sampling),
    ];
}

/// A model name no [`ModelKind`] variant goes by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownModel(String);

impl fmt::Display for UnknownModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = ModelKind::NAMES.map(|(name, _)| name).join(", ");
        write!(f, "unknown model {:?} (one of {names})", self.0)
    }
}

impl std::error::Error for UnknownModel {}

/// Parses the names the command-line tools take for `--model`, ignoring
/// ASCII case.
///
/// ```
/// use botmeter_core::ModelKind;
/// assert_eq!("Bernoulli".parse(), Ok(ModelKind::Bernoulli));
/// assert!("mb".parse::<ModelKind>().unwrap_err().to_string().contains("bernoulli"));
/// ```
impl std::str::FromStr for ModelKind {
    type Err = UnknownModel;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelKind::NAMES
            .into_iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|(_, kind)| kind)
            .ok_or_else(|| UnknownModel(s.to_owned()))
    }
}

/// Analyst-facing configuration of a BotMeter deployment.
///
/// # Example
///
/// ```
/// use botmeter_core::{BotMeterConfig, ModelKind};
/// use botmeter_dga::DgaFamily;
///
/// let config = BotMeterConfig::new(DgaFamily::new_goz())
///     .model(ModelKind::Coverage);
/// assert_eq!(config.family().name(), "newGoZ");
/// ```
#[derive(Debug, Clone)]
pub struct BotMeterConfig {
    family: DgaFamily,
    ttl: TtlPolicy,
    granularity: SimDuration,
    model: ModelKind,
    delivery_rate: f64,
}

impl BotMeterConfig {
    /// A configuration targeting `family` with paper-default TTLs,
    /// 100 ms granularity, automatic model selection and full (lossless)
    /// record delivery.
    pub fn new(family: DgaFamily) -> Self {
        BotMeterConfig {
            family,
            ttl: TtlPolicy::paper_default(),
            granularity: SimDuration::from_millis(100),
            model: ModelKind::Auto,
            delivery_rate: 1.0,
        }
    }

    /// Sets the network's cache TTL policy.
    #[must_use]
    pub fn ttl(mut self, ttl: TtlPolicy) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the trace's timestamp granularity.
    #[must_use]
    pub fn granularity(mut self, granularity: SimDuration) -> Self {
        self.granularity = granularity;
        self
    }

    /// Forces a specific analytical model.
    #[must_use]
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Declares the fraction of border records that actually reach the
    /// analyst (known collector loss or sampling, e.g. 1-in-N mirroring).
    /// [`BotMeter::chart_with`] divides every cell estimate by this rate
    /// and flags the cells [`CellQuality::Degraded`] when it is below
    /// `1.0`.
    ///
    /// The value is validated when charting: [`BotMeter::try_chart_with`]
    /// rejects anything outside `(0, 1]` (or non-finite) with
    /// [`Error::BadDeliveryRate`].
    #[must_use]
    pub fn delivery_rate(mut self, rate: f64) -> Self {
        self.delivery_rate = rate;
        self
    }

    /// The targeted family.
    pub fn family(&self) -> &DgaFamily {
        &self.family
    }
}

/// One cell of the landscape: the estimated population behind one local
/// server during one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LandscapeEntry {
    /// The forwarding (local) DNS server.
    pub server: ServerId,
    /// The epoch (day) of the estimate.
    pub epoch: u64,
    /// Estimated active-bot population.
    pub estimate: f64,
    /// How much this cell should be trusted (absent in pre-robustness
    /// serialisations, defaulting to [`CellQuality::Ok`]).
    #[serde(default)]
    pub quality: CellQuality,
    /// Quantified relative error bound when the estimate was produced
    /// from approximate (sketch) telemetry: the fraction by which the
    /// estimate may deviate from its exact-mode counterpart. `None` for
    /// exact telemetry, so exact-mode serialisations are byte-identical
    /// to pre-sketch ones.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub error_bound: Option<f64>,
}

impl LandscapeEntry {
    /// The one cell rule: turns an estimator's raw output for one
    /// (server, epoch) cell into its landscape entry. Both the batch chart
    /// and `botmeterd`'s publish go through it, so a cell reads the same
    /// however it was produced.
    ///
    /// A `raw` that is NaN, infinite or negative is clamped to `0.0` and
    /// flagged [`CellQuality::Invalid`] instead of leaking into the chart.
    /// Otherwise the estimate is `raw / rate` (the validated delivery rate,
    /// see [`BotMeter::validate`]) and the cell is
    /// [`CellQuality::Degraded`] when any of these holds: delivery was
    /// partial (`rate < 1`), the matched `stream` showed ordering or
    /// duplication anomalies, records for the cell arrived after its epoch
    /// was frozen and were dropped (`stale`), or the cell's lanes were
    /// estimated from a lossy sketch (`sketch_bound` is `Some`, and becomes
    /// the entry's `error_bound`).
    pub fn from_raw(
        server: ServerId,
        epoch: u64,
        raw: f64,
        rate: f64,
        stream: &StreamQuality,
        stale: bool,
        sketch_bound: Option<f64>,
    ) -> LandscapeEntry {
        let (estimate, quality) = if !raw.is_finite() || raw < 0.0 {
            (0.0, CellQuality::Invalid)
        } else if rate < 1.0 || stream.is_degraded() || stale || sketch_bound.is_some() {
            (raw / rate, CellQuality::Degraded)
        } else {
            (raw / rate, CellQuality::Ok)
        };
        LandscapeEntry {
            server,
            epoch,
            estimate,
            quality,
            error_bound: sketch_bound,
        }
    }
}

/// The DGA-botnet landscape: per-server, per-epoch population estimates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Landscape {
    pub(crate) entries: Vec<LandscapeEntry>,
}

impl Landscape {
    /// Builds a landscape from explicit cells, restoring the canonical
    /// (server asc, epoch asc) entry order — the constructor external
    /// producers (e.g. the `botmeterd` incremental engine) go through so
    /// their snapshots compare bit-for-bit against charted ones.
    pub fn from_entries(mut entries: Vec<LandscapeEntry>) -> Landscape {
        entries.sort_by_key(|e| (e.server, e.epoch));
        Landscape { entries }
    }

    /// All entries, ordered by (server, epoch).
    pub fn entries(&self) -> &[LandscapeEntry] {
        &self.entries
    }

    /// The estimate for one (server, epoch) cell, `0.0` if absent.
    pub fn estimate(&self, server: ServerId, epoch: u64) -> f64 {
        self.entries
            .iter()
            .find(|e| e.server == server && e.epoch == epoch)
            .map_or(0.0, |e| e.estimate)
    }

    /// Total estimated population across servers for one epoch.
    pub fn total_for_epoch(&self, epoch: u64) -> f64 {
        self.entries
            .iter()
            .filter(|e| e.epoch == epoch)
            .map(|e| e.estimate)
            .sum()
    }

    /// Servers ranked by their peak per-epoch estimate, worst first — the
    /// remediation priority list the paper motivates. Equal peaks break
    /// ties by ascending [`ServerId`], so the ordering is fully
    /// deterministic regardless of entry order.
    pub fn ranked_servers(&self) -> Vec<(ServerId, f64)> {
        let mut peaks: Vec<(ServerId, f64)> = Vec::new();
        for e in &self.entries {
            match peaks.iter_mut().find(|(s, _)| *s == e.server) {
                Some((_, peak)) => *peak = peak.max(e.estimate),
                None => peaks.push((e.server, e.estimate)),
            }
        }
        peaks.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        peaks
    }

    /// Number of (server, epoch) cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the landscape is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Landscape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "server      epoch   estimated bots")?;
        for e in &self.entries {
            let marker = match e.quality {
                CellQuality::Ok => "",
                CellQuality::Degraded => "  (degraded)",
                CellQuality::Invalid => "  (invalid)",
                #[allow(unreachable_patterns)]
                _ => "  (?)",
            };
            writeln!(
                f,
                "{:<11} {:<7} {:>10.1}{marker}",
                e.server.to_string(),
                e.epoch,
                e.estimate
            )?;
        }
        Ok(())
    }
}

/// The BotMeter tool (Fig. 2): matcher + model library + estimation.
///
/// # Example
///
/// ```
/// use botmeter_core::{BotMeter, BotMeterConfig};
/// use botmeter_dga::DgaFamily;
/// use botmeter_sim::ScenarioSpec;
///
/// let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
///     .population(64)
///     .seed(4)
///     .build()?
///     .run(botmeter_exec::ExecPolicy::default());
/// let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
/// let landscape = meter.chart_with(
///     &botmeter_core::ChartRequest::new(outcome.observed()));
/// let total = landscape.total_for_epoch(0);
/// assert!(total > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BotMeter {
    config: BotMeterConfig,
    detection_window: Option<HashSet<botmeter_dns::DomainName>>,
    obs: Obs,
    /// The chart's pools: every matcher and estimation context this meter
    /// makes reads one generation of each epoch's pool.
    pools: PoolTable,
}

impl BotMeter {
    /// Builds the tool from a configuration.
    pub fn new(config: BotMeterConfig) -> Self {
        BotMeter {
            config,
            detection_window: None,
            obs: Obs::noop(),
            pools: PoolTable::default(),
        }
    }

    /// Restricts matching and estimation to an imperfect D3 detection
    /// window (the known subset of pool domains).
    #[must_use]
    pub fn with_detection_window(mut self, known: HashSet<botmeter_dns::DomainName>) -> Self {
        self.detection_window = Some(known);
        self
    }

    /// Attaches an observability handle; [`chart_with`](Self::chart_with)
    /// then reports `matcher.*` and `chart.*` counters plus the per-cell
    /// `chart.estimate_ns` / `chart.epoch{e}.estimate_ns` latency
    /// histograms through it, and `chart.pools_built` once per pool
    /// generated (default: the no-op handle).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.pools = self.pools.with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The estimator the configuration resolves to.
    pub fn resolve_model(&self) -> Box<dyn Estimator> {
        match self.config.model {
            ModelKind::Timing => Box::new(TimingEstimator),
            ModelKind::Poisson => Box::new(PoissonEstimator::new()),
            ModelKind::Bernoulli => Box::new(BernoulliEstimator::default()),
            ModelKind::Coverage => Box::new(CoverageEstimator),
            ModelKind::Sampling => Box::new(crate::sampling::SamplingEstimator),
            // The paper's assignment (§V-A): MP on AU, MB on AR, MT
            // elsewhere. The extensions MC and MS are opt-in.
            ModelKind::Auto => match self.config.family.barrel_class() {
                BarrelClass::Uniform => Box::new(PoissonEstimator::new()),
                BarrelClass::RandomCut => Box::new(BernoulliEstimator::default()),
                BarrelClass::Sampling | BarrelClass::Permutation => Box::new(TimingEstimator),
            },
        }
    }

    /// The analyst-facing configuration this meter was built from.
    pub fn config(&self) -> &BotMeterConfig {
        &self.config
    }

    /// The one request validation, shared by
    /// [`try_chart_with`](Self::try_chart_with) and `botmeterd`'s engine:
    /// checks the configured delivery rate, the charted epoch window and —
    /// when sketch telemetry is involved — the epoch length the sketch was
    /// accumulated under. Returns the delivery rate every cell estimate is
    /// divided by.
    ///
    /// # Errors
    ///
    /// [`Error::BadDeliveryRate`] when the rate is non-finite or outside
    /// `(0, 1]`, [`Error::EmptyEpochRange`] when `epochs` selects nothing,
    /// [`Error::SketchEpochMismatch`] when `sketch_epoch_len` differs from
    /// the family's epoch length.
    pub fn validate(
        &self,
        epochs: &Range<u64>,
        sketch_epoch_len: Option<SimDuration>,
    ) -> Result<f64, Error> {
        let rate = self.config.delivery_rate;
        if !rate.is_finite() || rate <= 0.0 || rate > 1.0 {
            return Err(Error::BadDeliveryRate { rate });
        }
        if epochs.is_empty() {
            return Err(Error::EmptyEpochRange {
                start: epochs.start,
                end: epochs.end,
            });
        }
        let family_len = self.config.family.epoch_len();
        match sketch_epoch_len {
            Some(sketch_len) if sketch_len != family_len => Err(Error::SketchEpochMismatch {
                sketch_ms: sketch_len.as_millis(),
                family_ms: family_len.as_millis(),
            }),
            _ => Ok(rate),
        }
    }

    /// The matcher one charting run over `epochs` probes: the family's
    /// pool union over the range, restricted to the configured detection
    /// window. [`chart_with`](Self::chart_with) builds one per call; a
    /// long-running engine (`botmeterd`) builds one for its configured
    /// window and keeps it across epochs, which is what makes its
    /// incremental snapshots bit-identical to batch charts.
    ///
    /// The pools are generated one job per epoch on the default worker
    /// pool and kept by the matcher: while it lives, this meter's
    /// [`estimation_context`](Self::estimation_context)s index those pools
    /// instead of generating their own.
    pub fn matcher_for(&self, epochs: Range<u64>) -> ChartMatcher {
        self.matcher_under(epochs, ExecPolicy::default())
    }

    fn matcher_under(&self, epochs: Range<u64>, policy: ExecPolicy) -> ChartMatcher {
        let pools = self.pools.pools(&self.config.family, epochs, policy);
        ChartMatcher {
            inner: ExactMatcher::from_pools(pools.iter().map(|pool| &pool.names[..])),
            window: self.detection_window.clone(),
            _pools: pools,
        }
    }

    /// A fresh estimation context for this configuration: family, TTLs,
    /// granularity, detection window and an empty segment-kernel cache,
    /// reading this meter's pools.
    ///
    /// The cache memoizes deterministically — a hit returns exactly what a
    /// fresh computation would — so holding one context across many
    /// charting rounds (as `botmeterd` does) changes latency, never
    /// results.
    pub fn estimation_context(&self) -> EstimationContext {
        let mut ctx = EstimationContext::new(
            self.config.family.clone(),
            self.config.ttl,
            self.config.granularity,
        )
        .with_pool_table(self.pools.clone());
        if let Some(window) = &self.detection_window {
            ctx = ctx.with_detection_window(window.clone());
        }
        ctx
    }

    /// Charts the landscape described by `request`: matches its observed
    /// stream against the configured family's pools over the requested
    /// epochs, groups per forwarding server, slices per epoch and
    /// estimates every cell.
    ///
    /// Under a parallel policy the stream is matched in parallel chunks and
    /// the non-empty (server, epoch) cells fan out across the worker
    /// threads, one estimator call per cell. Each cell's estimate is a pure
    /// function of that cell's matched lookups, so the landscape is
    /// identical to the sequential one — entry for entry, bit for bit — for
    /// any model and detection window.
    ///
    /// Degradation handling is [`LandscapeEntry::from_raw`], the one cell
    /// rule: estimates are divided by the configured
    /// [`delivery_rate`](BotMeterConfig::delivery_rate); cells estimated
    /// under partial delivery or from a stream with ordering/duplication
    /// anomalies are flagged [`CellQuality::Degraded`], and non-finite or
    /// negative raw estimates are clamped to `0.0` and flagged
    /// [`CellQuality::Invalid`] instead of leaking NaN/∞ into the chart.
    ///
    /// An empty epoch range yields an empty landscape. A delivery rate
    /// outside `(0, 1]` panics — use
    /// [`try_chart_with`](Self::try_chart_with) to get a typed [`Error`]
    /// instead.
    pub fn chart_with(&self, request: &ChartRequest<'_>) -> Landscape {
        if request.epoch_range().is_empty() {
            return Landscape::default();
        }
        match self.try_chart_with(request) {
            Ok(landscape) => landscape,
            Err(e) => panic!("invalid BotMeter parameters: {e}"),
        }
    }

    /// [`chart_with`](Self::chart_with) with parameter validation
    /// ([`validate`](Self::validate)): rejects a non-finite or out-of-range
    /// delivery rate, an empty epoch range, a sketch accumulated under
    /// another epoch length and a sketch charted by a model that reads
    /// lookups with a typed [`Error`] instead of panicking or silently
    /// returning nothing.
    ///
    /// A sketch cell that cannot fill a lane the model reads (a lossy cell
    /// has no positions) is [`CellQuality::Invalid`].
    pub fn try_chart_with(&self, request: &ChartRequest<'_>) -> Result<Landscape, Error> {
        let epochs = request.epoch_range();
        let sketch_epoch_len = match request.source() {
            TelemetrySource::Sketch(sketch) => Some(sketch.config().epoch_len()),
            _ => None,
        };
        let rate = self.validate(&epochs, sketch_epoch_len)?;
        let policy = request.exec_policy();
        let estimator = self.resolve_model();
        let epoch_len = self.config.family.epoch_len();
        let ctx = self.estimation_context();

        // Resolve the telemetry source into per-cell statistics plus a
        // stream-health summary. Cells are collected in (server asc, epoch
        // asc) order in every arm, which fixes the entry order of the
        // landscape independently of how they are estimated.
        let matched_here;
        // Lives to the end of the chart: the matcher pins the pools the
        // estimators below index.
        let matcher_here;
        let sliced;
        let ((servers, cells), quality) = match request.source() {
            TelemetrySource::Observed(observed) => {
                matcher_here = self.matcher_under(epochs.clone(), policy);
                matched_here = match_stream_recorded(observed, &matcher_here, policy, &self.obs);
                sliced = Self::slice_cells(&matched_here, &epochs, epoch_len);
                (Self::exact_cells(&sliced), matched_here.quality())
            }
            TelemetrySource::Matched(filtered) => {
                sliced = Self::slice_cells(filtered, &epochs, epoch_len);
                (Self::exact_cells(&sliced), filtered.quality())
            }
            TelemetrySource::Sketch(sketch) => {
                // A sketch never fills the lookups lane: refuse a model that
                // reads it before estimating anything.
                if estimator.lanes().contains(&Lane::Lookups) {
                    return Err(Error::LaneNotInSketch {
                        model: estimator.name(),
                        lane: Lane::Lookups,
                    });
                }
                let width = sketch.config().hh_width();
                let cells = sketch
                    .cells()
                    .filter(|(_, epoch, _)| epochs.contains(epoch))
                    .map(|(server, epoch, cell)| {
                        let index = ctx.pool_index(epoch);
                        (server, CellStats::from_sketch(epoch, cell, &index, width))
                    })
                    .unzip();
                // No caller hands the sketch path the stream health that
                // `SketchStream::finish` tracks, so its cells chart as
                // in-order, duplicate-free traffic.
                (cells, StreamQuality::default())
            }
            // `TelemetrySource` is non-exhaustive for future frontends;
            // charting an unknown source would be silently wrong.
            #[allow(unreachable_patterns)]
            other => unreachable!("unsupported telemetry source {other:?}"),
        };

        if self.obs.enabled() {
            self.obs.counter_add("chart.cells", cells.len() as u64);
            self.obs
                .counter_add(&format!("chart.model.{}", estimator.name()), 1);
        }

        // Estimation is batched: the estimator schedules its own work
        // under `policy` (per cell by default; per segment for the
        // Bernoulli model) and reports the per-cell latency into the
        // global and per-epoch `estimate_ns` histograms.
        let estimates: Vec<f64> = estimator.estimate_batch(&cells, &ctx, policy, &self.obs);
        let lanes = estimator.lanes();
        let entries: Vec<LandscapeEntry> = servers
            .into_iter()
            .zip(&cells)
            .zip(estimates)
            .map(|((server, stats), raw)| {
                // A cell that cannot fill a lane its model reads has no
                // estimate: the cell rule clamps NaN to an Invalid zero.
                let raw = if stats.fills(lanes) { raw } else { f64::NAN };
                LandscapeEntry::from_raw(
                    server,
                    stats.epoch(),
                    raw,
                    rate,
                    &quality,
                    false,
                    stats.error_bound(),
                )
            })
            .collect();
        if self.obs.enabled() {
            let degraded = entries
                .iter()
                .filter(|e| e.quality == CellQuality::Degraded)
                .count() as u64;
            let invalid = entries
                .iter()
                .filter(|e| e.quality == CellQuality::Invalid)
                .count() as u64;
            if degraded > 0 {
                self.obs.counter_add("chart.cells.degraded", degraded);
            }
            if invalid > 0 {
                self.obs.counter_add("chart.cells.invalid", invalid);
            }
        }
        Ok(Landscape { entries })
    }

    /// The servers and exact cells of sliced matched traffic.
    fn exact_cells<'a>(sliced: &'a [Cell<'_>]) -> (Vec<ServerId>, Vec<CellStats<'a>>) {
        let cells = sliced.iter();
        cells
            .map(|(server, epoch, lookups)| (*server, CellStats::exact(*epoch, lookups)))
            .unzip()
    }

    /// Slices exact matched traffic per (server, epoch) cell, preserving
    /// the per-server arrival order of the matched substream.
    ///
    /// One pass per server splits its substream into maximal runs of
    /// consecutive same-epoch lookups. An epoch whose lookups form a single
    /// run — every epoch of an in-order stream — is handed out as a
    /// borrowed sub-slice; only an epoch that interleaves with others is
    /// gathered into an owned copy.
    fn slice_cells<'a>(
        filtered: &'a MatchedTraffic,
        epochs: &Range<u64>,
        epoch_len: SimDuration,
    ) -> Vec<Cell<'a>> {
        let mut cells = Vec::new();
        for (server, lookups) in filtered.iter() {
            let mut runs: BTreeMap<u64, Vec<Range<usize>>> = BTreeMap::new();
            let mut start = 0;
            while start < lookups.len() {
                let epoch = lookups[start].t.epoch_day(epoch_len);
                let len = lookups[start..]
                    .iter()
                    .take_while(|l| l.t.epoch_day(epoch_len) == epoch)
                    .count();
                if epochs.contains(&epoch) {
                    runs.entry(epoch).or_default().push(start..start + len);
                }
                start += len;
            }
            for (epoch, runs) in runs {
                let slice = match runs.as_slice() {
                    [run] => Cow::Borrowed(&lookups[run.clone()]),
                    _ => Cow::Owned(
                        runs.into_iter()
                            .flat_map(|run| &lookups[run])
                            .cloned()
                            .collect(),
                    ),
                };
                cells.push((server, epoch, slice));
            }
        }
        cells
    }
}

/// The matcher a charting run probes: the configured family's pool union
/// over one epoch range, restricted to the analyst's detection window
/// (unknown domains are invisible). Built by [`BotMeter::matcher_for`] and
/// shared between the batch [`BotMeter::chart_with`] path and the
/// `botmeterd` incremental engine, so both match bit-identically.
///
/// It keeps the pools it was built from (its set pins their text
/// anyway): the ordered names and valid positions the meter's estimators
/// index for as long as the matcher lives.
#[derive(Debug, Clone)]
pub struct ChartMatcher {
    inner: ExactMatcher,
    window: Option<HashSet<botmeter_dns::DomainName>>,
    /// Held, never read: while the matcher lives, the meter's contexts
    /// index these generations instead of building their own.
    _pools: Vec<Arc<EpochPool>>,
}

impl DomainMatcher for ChartMatcher {
    fn matches(&self, domain: &botmeter_dns::DomainName) -> bool {
        self.inner.matches(domain) && self.window.as_ref().is_none_or(|w| w.contains(domain))
    }
}

#[cfg(test)]
impl ChartMatcher {
    /// Whether `index` reads a pool this matcher was built from and keeps
    /// alive — the same generation, not an equal copy.
    pub(crate) fn shares_pool(&self, index: &crate::PoolIndex) -> bool {
        self._pools
            .iter()
            .any(|pool| Arc::ptr_eq(pool, &index.pool))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dns::SimInstant;
    use botmeter_exec::ExecPolicy;
    use botmeter_sim::ScenarioSpec;

    fn entry(server: u32, epoch: u64, estimate: f64) -> LandscapeEntry {
        LandscapeEntry {
            server: ServerId(server),
            epoch,
            estimate,
            quality: CellQuality::Ok,
            error_bound: None,
        }
    }

    #[test]
    fn auto_model_selection_follows_taxonomy() {
        let pick = |family: DgaFamily| {
            BotMeter::new(BotMeterConfig::new(family))
                .resolve_model()
                .name()
        };
        assert_eq!(pick(DgaFamily::murofet()), "Poisson");
        assert_eq!(pick(DgaFamily::new_goz()), "Bernoulli");
        assert_eq!(pick(DgaFamily::conficker_c()), "Timing");
        assert_eq!(pick(DgaFamily::necurs()), "Timing");
    }

    #[test]
    fn every_model_kind_round_trips_through_its_name() {
        let mut kinds = HashSet::new();
        for (name, kind) in ModelKind::NAMES {
            assert_eq!(name.parse(), Ok(kind));
            assert_eq!(name.to_ascii_uppercase().parse(), Ok(kind));
            // `Debug`'s spelling (`Bernoulli`) parses too.
            assert_eq!(format!("{kind:?}").parse(), Ok(kind));
            kinds.insert(kind);
        }
        assert_eq!(kinds.len(), 6, "a variant is listed twice");
        // Unknown names, including the `--model` names of the two deleted
        // models, list exactly the six that remain.
        let listed = "auto, timing, poisson, bernoulli, coverage, sampling";
        for name in ["mb", "hybrid", "windowoccupancy"] {
            assert_eq!(
                name.parse::<ModelKind>().unwrap_err().to_string(),
                format!("unknown model {name:?} (one of {listed})")
            );
        }
        assert!("".parse::<ModelKind>().is_err());
        assert!(" auto".parse::<ModelKind>().is_err());
    }

    #[test]
    fn forced_model_overrides_auto() {
        let meter =
            BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()).model(ModelKind::Coverage));
        assert_eq!(meter.resolve_model().name(), "Coverage");
    }

    #[test]
    fn chart_produces_per_server_entries() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(8)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone()));
        let landscape = meter.chart_with(&ChartRequest::new(outcome.observed()));
        assert!(!landscape.is_empty());
        // The single-local topology forwards through server 1.
        assert!(landscape.estimate(ServerId(1), 0) > 0.0);
        assert_eq!(
            landscape.total_for_epoch(0),
            landscape.estimate(ServerId(1), 0)
        );
        let ranked = landscape.ranked_servers();
        assert_eq!(ranked[0].0, ServerId(1));
    }

    #[test]
    fn parallel_policy_chart_matches_sequential_bit_for_bit() {
        // Pin the worker count so the parallel paths actually run on
        // single-core machines.
        std::env::set_var("BOTMETER_THREADS", "4");
        for (family, model) in [
            (DgaFamily::murofet(), ModelKind::Auto),
            (DgaFamily::new_goz(), ModelKind::Auto),
            (DgaFamily::conficker_c(), ModelKind::Auto),
            (DgaFamily::new_goz(), ModelKind::Coverage),
        ] {
            let outcome = ScenarioSpec::builder(family)
                .population(64)
                .num_epochs(2)
                .seed(13)
                .build()
                .unwrap()
                .run(ExecPolicy::default());
            let config = BotMeterConfig::new(outcome.family().clone()).model(model);
            let (obs_seq, reg_seq) = Obs::collecting();
            let (obs_par, reg_par) = Obs::collecting();
            let sequential = BotMeter::new(config.clone()).with_obs(obs_seq).chart_with(
                &ChartRequest::new(outcome.observed())
                    .epochs(0..2)
                    .policy(ExecPolicy::Sequential),
            );
            let parallel = BotMeter::new(config).with_obs(obs_par).chart_with(
                &ChartRequest::new(outcome.observed())
                    .epochs(0..2)
                    .policy(ExecPolicy::parallel()),
            );
            assert_eq!(
                parallel,
                sequential,
                "landscape diverged: {} / {model:?}",
                outcome.family().name()
            );
            // All non-scheduling counters — matcher probes/matches, cell
            // and model counts, and the kernel's memo hit/miss and
            // scheduled-segment counts — must agree between the two
            // policies too.
            let seq_snap = reg_seq.snapshot();
            assert_eq!(
                reg_par.snapshot().deterministic_counters(),
                seq_snap.deterministic_counters(),
                "metrics counters diverged: {} / {model:?}",
                outcome.family().name()
            );
            if model == ModelKind::Auto && outcome.family().name() == "newGoZ" {
                assert!(
                    seq_snap.counter("chart.segments.scheduled").unwrap_or(0) > 0,
                    "Bernoulli chart must schedule per-segment kernel work"
                );
                assert!(
                    seq_snap
                        .counter("chart.kernel.gap_table_reuse")
                        .unwrap_or(0)
                        > 0,
                    "gap tables must be hoisted out of the posterior sum"
                );
                assert!(
                    seq_snap
                        .counter("chart.kernel.config_entries_reused")
                        .unwrap_or(0)
                        > 0,
                    "a later fixpoint round must re-weight rows, not re-derive them"
                );
            }
        }
    }

    /// The chart's pools are filled under the request's policy; the
    /// matcher and the landscape must not show which. Families whose pools
    /// rotate (Necurs), slide (Ranbyus) or mix (Pykspa) included.
    #[test]
    fn matcher_and_landscape_do_not_depend_on_the_pool_fill_policy() {
        let export = |m: &ChartMatcher| m.inner.domains().iter().cloned().collect::<Vec<_>>();
        for family in [
            DgaFamily::new_goz(),
            DgaFamily::conficker_c(),
            DgaFamily::necurs(),
            DgaFamily::ranbyus(),
            DgaFamily::pykspa(),
        ] {
            let epochs = 0..6;
            let outcome = ScenarioSpec::builder(family)
                .population(24)
                .num_epochs(epochs.end)
                .seed(17)
                .build()
                .unwrap()
                .run(ExecPolicy::Sequential);
            let name = outcome.family().name().to_owned();
            let chart = |policy: ExecPolicy| {
                let (obs, registry) = Obs::collecting();
                let meter =
                    BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
                let matcher = export(&meter.matcher_under(epochs.clone(), policy));
                let request = ChartRequest::new(outcome.observed()).epochs(epochs.clone());
                let landscape = meter.chart_with(&request.policy(policy));
                let built = registry.snapshot().counter("chart.pools_built");
                (matcher, landscape, built)
            };
            let reference = chart(ExecPolicy::Sequential);
            assert_eq!(
                reference.0,
                export(&ChartMatcher {
                    inner: ExactMatcher::from_family(outcome.family(), epochs.clone()),
                    window: None,
                    _pools: Vec::new(),
                }),
                "{name}"
            );
            assert!(!reference.1.is_empty(), "{name}");
            // The export's matcher is gone before the chart builds its own:
            // two generations of six pools, under every policy.
            assert_eq!(reference.2, Some(12), "{name}");
            for threads in [1, 2, 4, 7] {
                assert_eq!(
                    chart(ExecPolicy::with_threads(threads)),
                    reference,
                    "{name} / {threads} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_policy_chart_reweights_shared_shapes_identically() {
        // Two cells of one epoch, hand-built so they share segment shapes
        // at different densities: server 1 sees one full barrel (an
        // m-segment of θq) and two barrels 200 apart (θq + 200); server 2
        // sees the same two shapes plus a second full barrel, so its
        // fixpoint starts — and stays — at a denser prior. Every round
        // then prices each shared shape at two densities in one task.
        let family = DgaFamily::new_goz();
        let pool = family.pool_for_epoch(0);
        let valid = family.valid_indices(0);
        let theta_q = family.params().theta_q();
        let stretch = 4 * theta_q;
        let base = (1..pool.len() - stretch - 1)
            .find(|&s| valid.iter().all(|&v| v + 1 < s || v > s + stretch))
            .expect("a 10k pool with 5 valid domains has a free stretch");
        let runs = |server: u32| {
            let mut runs = vec![(base, theta_q), (base + theta_q + 50, theta_q + 200)];
            if server == 2 {
                runs.push((base + 3 * theta_q, theta_q));
            }
            runs
        };
        let mut observed: Vec<ObservedLookup> = Vec::new();
        for server in [1u32, 2] {
            for (start, len) in runs(server) {
                observed.extend((start..start + len).map(|i| {
                    ObservedLookup::new(
                        SimInstant::from_millis(1_000 * (i - base) as u64),
                        ServerId(server),
                        pool[i].clone(),
                    )
                }));
            }
        }
        observed.sort_by_key(|l| l.t);

        let chart = |policy: ExecPolicy| {
            let (obs, registry) = Obs::collecting();
            let landscape = BotMeter::new(BotMeterConfig::new(family.clone()))
                .with_obs(obs)
                .chart_with(&ChartRequest::new(&observed).epochs(0..1).policy(policy));
            (landscape, registry.snapshot())
        };
        let (sequential, seq_snap) = chart(ExecPolicy::Sequential);
        assert!(sequential.estimate(ServerId(2), 0) > sequential.estimate(ServerId(1), 0));
        for threads in [2, 8] {
            let (parallel, par_snap) = chart(ExecPolicy::with_threads(threads));
            assert_eq!(parallel, sequential, "{threads} threads");
            assert_eq!(
                par_snap.deterministic_counters(),
                seq_snap.deterministic_counters(),
                "{threads} threads"
            );
        }
        // Each cell alone, on a context nothing was ever priced in.
        for server in [1u32, 2] {
            let cell: Vec<ObservedLookup> = observed
                .iter()
                .filter(|l| l.server == ServerId(server))
                .cloned()
                .collect();
            let cold = BotMeter::new(BotMeterConfig::new(family.clone())).estimation_context();
            assert_eq!(
                sequential.estimate(ServerId(server), 0).to_bits(),
                BernoulliEstimator::default()
                    .estimate(&cell, &cold)
                    .to_bits(),
                "server {server}"
            );
        }
        let counter = |name: &str| seq_snap.counter(name).unwrap_or(0);
        // Two distinct shapes, one sampled span each (m-segments), however
        // many densities they were priced at.
        assert_eq!(counter("chart.kernel.shape_entries"), 2);
        assert_eq!(counter("chart.kernel.gap_tables_built"), 2);
        assert_eq!(
            counter("chart.kernel.memo_entries"),
            counter("chart.kernel.memo_misses")
        );
        assert!(
            counter("chart.kernel.memo_entries") >= 4,
            "2 shapes × 2 cells"
        );
        assert!(counter("chart.kernel.config_entries_computed") > 0);
        assert!(
            counter("chart.kernel.config_entries_reused")
                > counter("chart.kernel.config_entries_computed"),
            "all but the densest pricing of a shape only reads"
        );
    }

    #[test]
    fn bernoulli_chart_reports_kernel_counters() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .num_epochs(2)
            .seed(8)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let (obs, registry) = Obs::collecting();
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
        let landscape = meter.chart_with(
            &ChartRequest::new(outcome.observed())
                .epochs(0..2)
                .policy(ExecPolicy::Sequential),
        );
        assert!(!landscape.is_empty());
        let snap = registry.snapshot();
        // Six fixpoint rounds over a shared quantized cache must converge
        // into hits, and every computed shape hoists its gap tables.
        assert!(snap.counter("chart.kernel.memo_hits").unwrap_or(0) > 0);
        assert!(snap.counter("chart.kernel.memo_misses").unwrap_or(0) > 0);
        assert!(snap.counter("chart.segments.scheduled").unwrap_or(0) > 0);
        assert!(snap.counter("chart.kernel.gap_table_reuse").unwrap_or(0) > 0);
        assert_eq!(
            snap.counter("chart.segments.scheduled"),
            snap.counter("chart.kernel.memo_misses"),
            "exactly the distinct missing shapes get scheduled"
        );
    }

    #[test]
    fn chart_records_cells_models_and_latency() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(8)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let (obs, registry) = Obs::collecting();
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
        let landscape =
            meter.chart_with(&ChartRequest::new(outcome.observed()).policy(ExecPolicy::Sequential));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("chart.cells"), Some(landscape.len() as u64));
        assert_eq!(snap.counter("chart.model.Bernoulli"), Some(1));
        assert!(snap.counter("matcher.probes").unwrap_or(0) >= outcome.observed().len() as u64);
        let hist = snap
            .histogram("chart.estimate_ns")
            .expect("latency recorded");
        assert_eq!(hist.count, landscape.len() as u64);
        assert_eq!(
            snap.histogram("chart.epoch0.estimate_ns").map(|h| h.count),
            Some(landscape.len() as u64)
        );
    }

    #[test]
    fn one_pass_slicing_matches_per_cell_filtering() {
        // Three servers × five epochs over one simulated stream: server 1
        // sees it in order, server 2 in order but nothing in epoch 2, and
        // server 3 with the odd-indexed lookups moved behind the even ones
        // — two in-order halves, so its epochs interleave and every cell
        // of it spans more than one run. Epoch 5 is charted but empty.
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(24)
            .num_epochs(5)
            .seed(21)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let family = outcome.family().clone();
        let epoch_len = family.epoch_len();
        let relabel = |server: u32, lookups: &mut dyn Iterator<Item = &ObservedLookup>| {
            lookups
                .map(|l| ObservedLookup::new(l.t, ServerId(server), l.domain.clone()))
                .collect::<Vec<_>>()
        };
        let in_order = outcome.observed();
        let mut observed = relabel(1, &mut in_order.iter());
        observed.extend(relabel(
            2,
            &mut in_order.iter().filter(|l| l.t.epoch_day(epoch_len) != 2),
        ));
        observed.extend(relabel(3, &mut in_order.iter().step_by(2)));
        observed.extend(relabel(3, &mut in_order.iter().skip(1).step_by(2)));

        let epochs = 0..6;
        for model in [ModelKind::Timing, ModelKind::Bernoulli, ModelKind::Poisson] {
            let meter = BotMeter::new(BotMeterConfig::new(family.clone()).model(model));
            let matched = match_stream_recorded(
                &observed,
                &meter.matcher_for(epochs.clone()),
                ExecPolicy::Sequential,
                &Obs::noop(),
            );
            assert!(matched.quality().is_degraded(), "server 3 is out of order");

            // Reference: one filter pass per (server, epoch), as
            // `slice_cells` used to do, through the same batch estimator.
            let mut reference: Vec<(ServerId, u64, Vec<ObservedLookup>)> = Vec::new();
            for (server, lookups) in matched.iter() {
                for epoch in epochs.clone() {
                    let cell: Vec<ObservedLookup> = lookups
                        .iter()
                        .filter(|l| l.t.epoch_day(epoch_len) == epoch)
                        .cloned()
                        .collect();
                    if !cell.is_empty() {
                        reference.push((server, epoch, cell));
                    }
                }
            }
            assert_eq!(reference.len(), 14, "3 × 5 cells minus server 2's epoch 2");
            let slices: Vec<CellStats<'_>> = reference
                .iter()
                .map(|(_, epoch, cell)| CellStats::exact(*epoch, cell))
                .collect();
            let estimates = meter.resolve_model().estimate_batch(
                &slices,
                &meter.estimation_context(),
                ExecPolicy::Sequential,
                &Obs::noop(),
            );
            let expected: Vec<LandscapeEntry> = reference
                .iter()
                .zip(estimates)
                .map(|((server, epoch, _), estimate)| LandscapeEntry {
                    server: *server,
                    epoch: *epoch,
                    estimate,
                    quality: CellQuality::Degraded,
                    error_bound: None,
                })
                .collect();
            assert!(expected.iter().all(|e| e.estimate > 0.0));

            for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(2)] {
                let landscape = meter.chart_with(
                    &ChartRequest::from_matched(&matched)
                        .epochs(epochs.clone())
                        .policy(policy),
                );
                assert_eq!(landscape.entries(), expected, "{model:?} under {policy:?}");
            }
        }
    }

    #[test]
    fn cell_rule_reproduces_both_spellings_it_replaced() {
        // The batch chart's rule (no stale flag) and the daemon publish's
        // rule (no sketch bound), as each was written before they merged.
        let batch = |raw: f64, rate: f64, stream: &StreamQuality, bound: Option<f64>| {
            let baseline = if rate < 1.0 || stream.is_degraded() {
                CellQuality::Degraded
            } else {
                CellQuality::Ok
            };
            if !raw.is_finite() || raw < 0.0 {
                (0.0f64.to_bits(), CellQuality::Invalid, bound)
            } else if bound.is_some() {
                ((raw / rate).to_bits(), CellQuality::Degraded, bound)
            } else {
                ((raw / rate).to_bits(), baseline, bound)
            }
        };
        let daemon = |raw: f64, rate: f64, stream: &StreamQuality, stale: bool| {
            let (estimate, quality, _) = batch(raw, rate, stream, None);
            let quality = if stale {
                quality.max(CellQuality::Degraded)
            } else {
                quality
            };
            (estimate, quality, None)
        };
        let clean = StreamQuality {
            scanned: 10,
            matched: 4,
            ..StreamQuality::default()
        };
        let out_of_order = StreamQuality {
            out_of_order: 1,
            ..clean
        };
        let mut checked = 0;
        for raw in [f64::NAN, f64::INFINITY, -1.0, 0.0, 7.5] {
            for rate in [1.0, 0.5] {
                for stream in [&clean, &out_of_order] {
                    for stale in [false, true] {
                        for bound in [None, Some(0.25)] {
                            let e = LandscapeEntry::from_raw(
                                ServerId(3),
                                2,
                                raw,
                                rate,
                                stream,
                                stale,
                                bound,
                            );
                            assert_eq!((e.server, e.epoch), (ServerId(3), 2));
                            let got = (e.estimate.to_bits(), e.quality, e.error_bound);
                            let case = format!("{raw} / {rate} {stream:?} {stale} {bound:?}");
                            if !stale {
                                assert_eq!(got, batch(raw, rate, stream, bound), "{case}");
                            }
                            if bound.is_none() {
                                assert_eq!(got, daemon(raw, rate, stream, stale), "{case}");
                            }
                            if stale && bound.is_some() {
                                // Neither caller produces this; it must
                                // still be the worse of the two flags.
                                let (estimate, quality, _) = batch(raw, rate, stream, bound);
                                let worst = quality.max(CellQuality::Degraded);
                                assert_eq!(got, (estimate, worst, bound), "{case}");
                            }
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 80);
        // The only clean cell: finite, full delivery, nothing flagged.
        let ok = LandscapeEntry::from_raw(ServerId(1), 0, 7.5, 1.0, &clean, false, None);
        assert_eq!(ok.quality, CellQuality::Ok);
        assert_eq!(ok.estimate, 7.5);
    }

    #[test]
    fn validate_reports_rate_then_window_then_sketch_epoch() {
        let family = DgaFamily::new_goz();
        let epoch_len = family.epoch_len();
        let other_len = SimDuration::from_millis(epoch_len.as_millis() / 2);
        let bad_rate = BotMeter::new(BotMeterConfig::new(family.clone()).delivery_rate(0.0));
        assert_eq!(
            bad_rate.validate(&(3..3), Some(other_len)),
            Err(Error::BadDeliveryRate { rate: 0.0 })
        );
        let meter = BotMeter::new(BotMeterConfig::new(family).delivery_rate(0.5));
        assert_eq!(
            meter.validate(&(3..3), Some(other_len)),
            Err(Error::EmptyEpochRange { start: 3, end: 3 })
        );
        assert_eq!(
            meter.validate(&(0..1), Some(other_len)),
            Err(Error::SketchEpochMismatch {
                sketch_ms: other_len.as_millis(),
                family_ms: epoch_len.as_millis(),
            })
        );
        assert_eq!(meter.validate(&(0..1), Some(epoch_len)), Ok(0.5));
        assert_eq!(meter.validate(&(0..1), None), Ok(0.5));
    }

    #[test]
    fn chart_empty_stream_is_empty_landscape() {
        let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()));
        let landscape = meter.chart_with(&ChartRequest::new(&[]).epochs(0..3));
        assert!(landscape.is_empty());
        assert_eq!(landscape.estimate(ServerId(1), 0), 0.0);
        assert_eq!(landscape.total_for_epoch(1), 0.0);
    }

    #[test]
    fn detection_window_reduces_visible_traffic() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(64)
            .seed(3)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let family = outcome.family().clone();
        // A window that knows nothing sees nothing.
        let empty = BotMeter::new(BotMeterConfig::new(family.clone()))
            .with_detection_window(HashSet::new());
        assert!(empty
            .chart_with(&ChartRequest::new(outcome.observed()))
            .is_empty());
        // A full window matches everything the plain meter does.
        let full_set: HashSet<_> = family.pool_for_epoch(0).into_iter().collect();
        let full =
            BotMeter::new(BotMeterConfig::new(family.clone())).with_detection_window(full_set);
        let plain = BotMeter::new(BotMeterConfig::new(family));
        assert_eq!(
            full.chart_with(&ChartRequest::new(outcome.observed())),
            plain.chart_with(&ChartRequest::new(outcome.observed()))
        );
    }

    #[test]
    fn landscape_display_renders_rows() {
        let landscape = Landscape {
            entries: vec![entry(2, 0, 12.5)],
        };
        let text = landscape.to_string();
        assert!(text.contains("server-2") && text.contains("12.5"));
        assert!(!text.contains("(degraded)"));
        let degraded = Landscape {
            entries: vec![LandscapeEntry {
                quality: CellQuality::Degraded,
                ..entry(2, 0, 12.5)
            }],
        };
        assert!(degraded.to_string().contains("(degraded)"));
    }

    #[test]
    fn ranked_servers_orders_by_peak() {
        let landscape = Landscape {
            entries: vec![entry(1, 0, 5.0), entry(2, 0, 50.0), entry(1, 1, 80.0)],
        };
        let ranked = landscape.ranked_servers();
        assert_eq!(ranked[0], (ServerId(1), 80.0));
        assert_eq!(ranked[1], (ServerId(2), 50.0));
    }

    #[test]
    fn ranked_servers_breaks_peak_ties_by_server_id() {
        let landscape = Landscape {
            entries: vec![entry(9, 0, 10.0), entry(2, 0, 10.0), entry(5, 0, 10.0)],
        };
        let ranked = landscape.ranked_servers();
        let order: Vec<ServerId> = ranked.iter().map(|(s, _)| *s).collect();
        assert_eq!(order, vec![ServerId(2), ServerId(5), ServerId(9)]);
    }

    #[test]
    fn legacy_landscape_json_defaults_quality_to_ok() {
        let back: Landscape =
            serde_json::from_str(r#"{"entries":[{"server":3,"epoch":1,"estimate":9.5}]}"#).unwrap();
        assert_eq!(back.entries()[0].quality, CellQuality::Ok);
        let json = serde_json::to_string(&back).unwrap();
        assert!(json.contains("\"quality\""));
    }

    #[test]
    fn try_chart_rejects_bad_delivery_rate() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(16)
            .seed(2)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let meter =
                BotMeter::new(BotMeterConfig::new(outcome.family().clone()).delivery_rate(bad));
            let err = meter
                .try_chart_with(
                    &ChartRequest::new(outcome.observed()).policy(ExecPolicy::Sequential),
                )
                .unwrap_err();
            match err {
                Error::BadDeliveryRate { rate } => {
                    assert!(rate.is_nan() == bad.is_nan() && (rate == bad || bad.is_nan()));
                }
                other => panic!("unexpected error {other:?}"),
            }
            assert!(err.to_string().contains("delivery rate"));
        }
    }

    #[test]
    fn try_chart_rejects_empty_epoch_range_but_chart_is_lenient() {
        let meter = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()));
        let err = meter
            .try_chart_with(&ChartRequest::new(&[]).epochs(5..5))
            .unwrap_err();
        assert_eq!(err, Error::EmptyEpochRange { start: 5, end: 5 });
        assert!(err.to_string().contains("selects no epochs"));
        // The infallible facade keeps its historical behaviour.
        assert!(meter
            .chart_with(&ChartRequest::new(&[]).epochs(5..5))
            .is_empty());
    }

    #[test]
    fn delivery_rate_rescales_estimates_and_flags_degraded() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(8)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let family = outcome.family().clone();
        let plain = BotMeter::new(BotMeterConfig::new(family.clone()));
        let rescaled = BotMeter::new(BotMeterConfig::new(family).delivery_rate(0.5));
        let base = plain.chart_with(&ChartRequest::new(outcome.observed()));
        let loss_aware = rescaled.chart_with(&ChartRequest::new(outcome.observed()));
        assert_eq!(base.len(), loss_aware.len());
        for (b, l) in base.entries().iter().zip(loss_aware.entries()) {
            assert_eq!(l.estimate, b.estimate * 2.0, "exactly 2x under rate 0.5");
            assert_eq!(b.quality, CellQuality::Ok);
            assert_eq!(l.quality, CellQuality::Degraded);
        }
    }

    #[test]
    fn degraded_stream_flags_cells_and_counts_them() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(8)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        // Duplicate every observed lookup back-to-back: the matcher sees
        // exact adjacent repeats and the chart must flag every cell.
        let doubled: Vec<ObservedLookup> = outcome
            .observed()
            .iter()
            .flat_map(|l| [l.clone(), l.clone()])
            .collect();
        let (obs, registry) = Obs::collecting();
        let meter = BotMeter::new(BotMeterConfig::new(outcome.family().clone())).with_obs(obs);
        let landscape =
            meter.chart_with(&ChartRequest::new(&doubled).policy(ExecPolicy::Sequential));
        assert!(!landscape.is_empty());
        assert!(landscape
            .entries()
            .iter()
            .all(|e| e.quality == CellQuality::Degraded));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("chart.cells.degraded"),
            Some(landscape.len() as u64)
        );
        assert!(snap.counter("matcher.duplicates").unwrap_or(0) > 0);
    }
}
