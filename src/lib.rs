//! # BotMeter
//!
//! A reproduction of **"BotMeter: Charting DGA-Botnet Landscapes in Large
//! Networks"** (Wang, Hu, Jang, Ji, Stoecklin, Taylor — ICDCS 2016).
//!
//! BotMeter estimates *how many* DGA-infected machines live behind each local
//! DNS server of a large network, using only the cache-filtered DNS lookup
//! stream observable at an upper-level ("border") vantage point. This
//! umbrella crate re-exports the whole workspace:
//!
//! * [`stats`] — special functions, log-space combinatorics and samplers;
//! * [`dga`] — the DGA taxonomy (query-pool × query-barrel models) and
//!   per-family presets (Table I of the paper);
//! * [`dns`] — the hierarchical caching-and-forwarding DNS substrate;
//! * [`sim`] — bot activation processes and network/trace simulators;
//! * [`matcher`] — the D3 (DGA-domain detection) matching stage;
//! * [`sketch`] — the constant-memory telemetry frontend: a per-(server,
//!   epoch) bottom-k distinct sample over matched domains,
//!   `O(servers × width)` resident whatever the traffic volume;
//! * [`core`] — the estimator library (Timing `MT`, Poisson `MP`,
//!   Bernoulli `MB`, Coverage `MC`) and the [`core::BotMeter`] facade
//!   (charted through a [`core::ChartRequest`]);
//! * [`daemon`] — `botmeterd`: the long-running incremental charting
//!   engine with versioned, diffable landscape snapshots;
//! * [`exec`] — the execution substrate behind the unified
//!   [`exec::ExecPolicy`] API (every pipeline entry point takes one);
//! * [`obs`] — the observability layer: attach an [`obs::Obs`] handle to
//!   any stage and pull a JSON-serialisable [`obs::MetricsSnapshot`];
//! * [`faults`] — deterministic measurement-fault injection (loss, bursts,
//!   duplication, reordering, clock skew, sampling, outages) for studying
//!   graceful degradation of the estimators.
//!
//! # Quickstart
//!
//! ```
//! use botmeter::prelude::*;
//!
//! // Simulate one day of a 64-bot newGoZ (randomcut-barrel) infection
//! // behind a single caching resolver ...
//! let spec = ScenarioSpec::builder(DgaFamily::new_goz())
//!     .population(64)
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario");
//! let outcome = spec.run(ExecPolicy::default());
//!
//! // ... and estimate the population from the border-visible stream alone.
//! let ctx = EstimationContext::new(
//!     outcome.family().clone(), outcome.ttl(), outcome.granularity());
//! let est = CoverageEstimator.estimate(outcome.observed(), &ctx);
//! let are = absolute_relative_error(est, outcome.ground_truth()[0] as f64);
//! assert!(are < 0.5, "ARE {are} too large");
//! ```

pub use botmeter_core as core;
pub use botmeter_daemon as daemon;
pub use botmeter_dga as dga;
pub use botmeter_dns as dns;
pub use botmeter_exec as exec;
pub use botmeter_faults as faults;
pub use botmeter_matcher as matcher;
pub use botmeter_obs as obs;
pub use botmeter_sim as sim;
pub use botmeter_sketch as sketch;
pub use botmeter_stats as stats;

/// One-stop imports for the common simulation → match → estimate pipeline.
pub mod prelude {
    pub use botmeter_core::{
        absolute_relative_error, BernoulliEstimator, BotMeter, BotMeterConfig, ChartRequest,
        CoverageEstimator, EstimationContext, Estimator, LandscapeDelta, LandscapeVersion,
        PoissonEstimator, SamplingEstimator, TelemetrySource, TimingEstimator,
    };
    pub use botmeter_daemon::{BotMeterDaemon, DaemonOptions, LandscapeStore};
    pub use botmeter_dga::{BarrelClass, DgaFamily, DgaParams, PoolClass, QueryTiming};
    pub use botmeter_dns::{
        DomainName, ObservedLookup, RawLookup, ServerId, SimDuration, SimInstant, TtlPolicy,
    };
    pub use botmeter_exec::ExecPolicy;
    pub use botmeter_faults::{FaultModel, FaultPlan, FaultReport};
    pub use botmeter_matcher::{DetectionWindow, DomainMatcher, SketchStream};
    pub use botmeter_obs::{MetricsRegistry, MetricsSnapshot, Obs};
    pub use botmeter_sim::{PipelineMode, ScenarioOutcome, ScenarioSpec};
    pub use botmeter_sketch::{SketchConfig, SketchedTraffic};
}
