//! The one charting path of every accuracy experiment: each estimate is
//! read from a [`Landscape`](botmeter_core::Landscape) that [`BotMeter::chart_with`] produced, the
//! same call the `estimate` CLI and `botmeterd` make.
//!
//! A trial matches its scenario's observed stream once, with the meter's
//! own [`ChartMatcher`], and every model charts that matched traffic over
//! the trial's epochs. The simulated networks have one local server, so an
//! estimate is the landscape's cell `(ServerId(1), epoch)`.

use botmeter_core::{
    BotMeter, BotMeterConfig, CellStats, ChartMatcher, ChartRequest, Estimator, ModelKind,
};
use botmeter_dga::{BarrelClass, DgaFamily};
use botmeter_dns::{DomainName, ObservedLookup, ServerId};
use botmeter_exec::ExecPolicy;
use botmeter_matcher::{match_stream, DetectionWindow, ExactMatcher, MatchedTraffic};
use botmeter_sim::ScenarioOutcome;
use std::collections::HashSet;
use std::ops::Range;

/// The server every simulated scenario forwards through.
const SERVER: ServerId = ServerId(1);

/// The models an experiment charts `family` with: `MT` everywhere, then
/// the paper's statistical model for the barrel class (`MP` on `AU`, `MB`
/// on `AR`) and this reproduction's extensions (`MC` on `AR`, `MS` on
/// `AS`); `AP` gets `MT` alone.
pub fn models_for(family: &DgaFamily) -> Vec<ModelKind> {
    let mut models = vec![ModelKind::Timing];
    match family.barrel_class() {
        BarrelClass::Uniform => models.push(ModelKind::Poisson),
        BarrelClass::RandomCut => models.extend([ModelKind::Bernoulli, ModelKind::Coverage]),
        BarrelClass::Sampling => models.push(ModelKind::Sampling),
        BarrelClass::Permutation => {}
    }
    models
}

/// The display name of the estimator `model` resolves to for `family`
/// (`Auto` resolves per barrel class).
pub fn model_name(family: &DgaFamily, model: ModelKind) -> &'static str {
    BotMeter::new(BotMeterConfig::new(family.clone()).model(model))
        .resolve_model()
        .name()
}

/// The pool domains of `family` over `epochs` that an imperfect D3
/// detector still knows at `missing_rate` (Fig. 6(e)); membership is a
/// per-domain hash under `seed`, so it does not depend on the range.
pub fn detection_window(
    family: &DgaFamily,
    epochs: Range<u64>,
    missing_rate: f64,
    seed: u64,
) -> HashSet<DomainName> {
    let exact = ExactMatcher::from_family(family, epochs);
    DetectionWindow::new(&exact, missing_rate, seed)
        .known_domains()
        .clone()
}

/// One trial's matched traffic, charted by one meter per model.
///
/// The trial matches with the `Auto` meter of its configuration; every
/// other model's meter generates its own pools when it charts.
pub struct TrialChart {
    config: BotMeterConfig,
    window: Option<HashSet<DomainName>>,
    epochs: Range<u64>,
    meter: BotMeter,
    // Pins the pools `meter` matched with, so its charts index them.
    _matcher: ChartMatcher,
    matched: MatchedTraffic,
}

impl TrialChart {
    /// Matches `observed` over `epochs` with the meter of `config`,
    /// restricted to the detection `window` when one is given. The
    /// configured model is not read: each chart names its own.
    pub fn new(
        config: BotMeterConfig,
        window: Option<HashSet<DomainName>>,
        observed: &[ObservedLookup],
        epochs: Range<u64>,
    ) -> Self {
        let config = config.model(ModelKind::Auto);
        let meter = meter(&config, &window);
        let matcher = meter.matcher_for(epochs.clone());
        let matched = match_stream(observed, &matcher, ExecPolicy::default());
        TrialChart {
            config,
            window,
            epochs,
            meter,
            _matcher: matcher,
            matched,
        }
    }

    /// Matches a simulated scenario over all its epochs, under its family,
    /// TTLs and timestamp granularity.
    pub fn of_scenario(outcome: &ScenarioOutcome, window: Option<HashSet<DomainName>>) -> Self {
        let config = BotMeterConfig::new(outcome.family().clone())
            .ttl(outcome.ttl())
            .granularity(outcome.granularity());
        Self::new(config, window, outcome.observed(), 0..outcome.num_epochs())
    }

    /// The landscape's estimate per epoch under `model`.
    pub fn estimates(&self, model: ModelKind) -> Vec<f64> {
        let other;
        let meter = if model == ModelKind::Auto {
            &self.meter
        } else {
            other = meter(&self.config.clone().model(model), &self.window);
            &other
        };
        let request = ChartRequest::from_matched(&self.matched).epochs(self.epochs.clone());
        let landscape = meter.chart_with(&request);
        self.epochs
            .clone()
            .map(|e| landscape.estimate(SERVER, e))
            .collect()
    }

    /// The estimate per epoch of an estimator no [`ModelKind`] names (the
    /// window-naive `MB` and the Gamma-prior `MP` of the ablations): one
    /// exact cell per epoch, estimated under the meter's context.
    pub fn estimates_with(&self, estimator: &dyn Estimator) -> Vec<f64> {
        let ctx = self.meter.estimation_context();
        let epoch_len = self.config.family().epoch_len();
        let lookups = self.matched.for_server(SERVER);
        self.epochs
            .clone()
            .map(|e| {
                let cell: Vec<ObservedLookup> = lookups
                    .iter()
                    .filter(|l| l.t.epoch_day(epoch_len) == e)
                    .cloned()
                    .collect();
                estimator.estimate_cell(&CellStats::exact(e, &cell), &ctx)
            })
            .collect()
    }
}

fn meter(config: &BotMeterConfig, window: &Option<HashSet<DomainName>>) -> BotMeter {
    let meter = BotMeter::new(config.clone());
    match window {
        Some(known) => meter.with_detection_window(known.clone()),
        None => meter,
    }
}
