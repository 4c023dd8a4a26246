//! The [`ChartRequest`] builder: one growable parameter object for the
//! charting entry points.
//!
//! `BotMeter::chart` accreted positional parameters (`observed`, then
//! `epochs`, then `policy`) and each future knob — visibility priors for
//! partial-coverage deployments, per-request detection windows — would have
//! broken every call site again. A request object with private fields grows
//! additively instead: new knobs get a defaulted builder method and old
//! callers keep compiling.
//!
//! Since the sketch frontend landed, a request also names its
//! [`TelemetrySource`]: the raw observed stream (matched inside the
//! charting call), a pre-matched exact [`MatchedTraffic`], or a
//! constant-memory [`SketchedTraffic`] with an explicit width/error knob.

use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{MatchedTraffic, StreamQuality};
use botmeter_sketch::SketchedTraffic;
use std::ops::Range;

/// Where one charting run reads its telemetry from.
///
/// The three sources trade memory for fidelity:
///
/// * [`Observed`](Self::Observed) — the raw border stream; charting runs
///   the matching stage itself. Exact, but the stream must be resident.
/// * [`Matched`](Self::Matched) — an exact pre-matched substream (e.g.
///   accumulated by `StreamMatcher`); charting skips matching. Exact.
/// * [`Sketch`](Self::Sketch) — bounded sketch telemetry accumulated by
///   `SketchStream`; per-server state is `O(width)` regardless of traffic
///   volume. It fills a [`CellStats`](crate::CellStats)' positions,
///   distinct and volume lanes exactly while a cell is lossless; a lossy
///   cell is `CellQuality::Degraded` with a quantified error bound, or
///   `Invalid` under a model reading positions, and a model reading
///   lookups is refused.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub enum TelemetrySource<'a> {
    /// The raw observed lookup stream; the charting call matches it.
    Observed(&'a [ObservedLookup]),
    /// Exact matched traffic; the matching stage is skipped. The traffic
    /// must have been matched by the same family/detection window the
    /// meter charts, or the landscape will be silently wrong.
    Matched(&'a MatchedTraffic),
    /// Constant-memory sketch telemetry; the matching stage is skipped
    /// (the sketch only ever held matched domains). Same caveat as
    /// [`Matched`](Self::Matched) about who did the matching.
    Sketch(&'a SketchedTraffic),
}

/// Parameters of one charting run, consumed by
/// [`BotMeter::chart_with`](crate::BotMeter::chart_with) /
/// [`BotMeter::try_chart_with`](crate::BotMeter::try_chart_with).
///
/// Defaults: epoch range `0..1`, [`ExecPolicy::default()`].
///
/// # Example
///
/// ```
/// use botmeter_core::ChartRequest;
/// use botmeter_exec::ExecPolicy;
///
/// let observed = Vec::new();
/// let request = ChartRequest::new(&observed)
///     .epochs(0..3)
///     .policy(ExecPolicy::parallel());
/// assert_eq!(request.epoch_range(), 0..3);
/// assert!(request.observed().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct ChartRequest<'a> {
    source: TelemetrySource<'a>,
    epochs: Range<u64>,
    policy: ExecPolicy,
    stream_quality: Option<StreamQuality>,
}

impl<'a> ChartRequest<'a> {
    /// A request charting `observed` over epoch `0` under the default
    /// execution policy.
    pub fn new(observed: &'a [ObservedLookup]) -> Self {
        Self::from_source(TelemetrySource::Observed(observed))
    }

    /// A request charting pre-matched exact traffic (the matching stage
    /// is skipped; stream quality is read from the traffic itself).
    pub fn from_matched(matched: &'a MatchedTraffic) -> Self {
        Self::from_source(TelemetrySource::Matched(matched))
    }

    /// A request charting sketch telemetry. Pair with
    /// [`stream_quality`](Self::stream_quality) to carry the health
    /// summary the sketching frontend tracked alongside the sketch.
    pub fn from_sketch(sketch: &'a SketchedTraffic) -> Self {
        Self::from_source(TelemetrySource::Sketch(sketch))
    }

    /// A request over an explicit [`TelemetrySource`].
    pub fn from_source(source: TelemetrySource<'a>) -> Self {
        ChartRequest {
            source,
            epochs: 0..1,
            policy: ExecPolicy::default(),
            stream_quality: None,
        }
    }

    /// Sets the epoch (day) range to chart.
    #[must_use]
    pub fn epochs(mut self, epochs: Range<u64>) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the execution policy the matching and estimation stages
    /// schedule under.
    #[must_use]
    pub fn policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attaches the stream-health summary tracked while the telemetry was
    /// accumulated. Only consulted for [`TelemetrySource::Sketch`] (the
    /// other sources carry or compute their own quality); a degraded
    /// summary marks every charted cell `CellQuality::Degraded`, exactly
    /// like exact-mode charting does.
    #[must_use]
    pub fn stream_quality(mut self, quality: StreamQuality) -> Self {
        self.stream_quality = Some(quality);
        self
    }

    /// The telemetry source to chart.
    pub fn source(&self) -> &TelemetrySource<'a> {
        &self.source
    }

    /// The observed lookup stream to chart — empty for pre-matched and
    /// sketch sources (see [`source`](Self::source)).
    pub fn observed(&self) -> &'a [ObservedLookup] {
        match self.source {
            TelemetrySource::Observed(observed) => observed,
            _ => &[],
        }
    }

    /// The epoch range to chart.
    pub fn epoch_range(&self) -> Range<u64> {
        self.epochs.clone()
    }

    /// The execution policy.
    pub fn exec_policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The attached stream-health summary, if any.
    pub fn attached_stream_quality(&self) -> Option<StreamQuality> {
        self.stream_quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_chart_epoch_zero_sequentially_or_parallel() {
        let observed: Vec<ObservedLookup> = Vec::new();
        let request = ChartRequest::new(&observed);
        assert_eq!(request.epoch_range(), 0..1);
        assert_eq!(request.exec_policy(), ExecPolicy::default());
        assert!(matches!(request.source(), TelemetrySource::Observed(o) if o.is_empty()));
        assert_eq!(request.attached_stream_quality(), None);
    }

    #[test]
    fn builder_overrides_stick() {
        let observed: Vec<ObservedLookup> = Vec::new();
        let request = ChartRequest::new(&observed)
            .epochs(2..9)
            .policy(ExecPolicy::Sequential);
        assert_eq!(request.epoch_range(), 2..9);
        assert_eq!(request.exec_policy(), ExecPolicy::Sequential);
        let cloned = request.clone();
        assert_eq!(cloned.epoch_range(), 2..9);
    }

    #[test]
    fn matched_and_sketch_sources_have_empty_observed() {
        let matched = MatchedTraffic::default();
        let request = ChartRequest::from_matched(&matched);
        assert!(request.observed().is_empty());
        assert!(matches!(request.source(), TelemetrySource::Matched(_)));

        let config = botmeter_sketch::SketchConfig::new(botmeter_dns::SimDuration::from_days(1))
            .expect("valid epoch length");
        let sketch = SketchedTraffic::new(config);
        let quality = StreamQuality {
            scanned: 10,
            matched: 0,
            out_of_order: 0,
            duplicates: 0,
        };
        let request = ChartRequest::from_sketch(&sketch).stream_quality(quality);
        assert!(request.observed().is_empty());
        assert!(matches!(request.source(), TelemetrySource::Sketch(_)));
        assert_eq!(request.attached_stream_quality(), Some(quality));
    }
}
