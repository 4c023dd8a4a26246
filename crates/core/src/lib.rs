//! The BotMeter estimator library — the paper's primary contribution (§IV).
//!
//! Given the cache-filtered DNS lookups observable at a border vantage
//! point (already matched to a target DGA by
//! [`botmeter_matcher`]), the estimators infer how many bots produced them:
//!
//! * [`TimingEstimator`] (`MT`, Algorithm 1) — attributes lookups to bots
//!   by temporal traits: no bot queries the same NXD twice per epoch, an
//!   activation lasts at most `θq·δi`, and fixed-interval DGAs emit lookups
//!   on a `δi` lattice. Applicable to every DGA model.
//! * [`PoissonEstimator`] (`MP`, Eq. 1) — for uniform-barrel DGAs (`AU`),
//!   whose identical barrels make concurrent bots invisible behind negative
//!   caching: models activations as a Poisson process, estimates the rate
//!   from the gaps between cache-TTL windows, and corrects for the masked
//!   activations: `E(N) = n + n²·δl / Σ Δi`.
//! * [`BernoulliEstimator`] (`MB`, Theorem 1) — for randomcut-barrel DGAs
//!   (`AR`): reads the *segments* of consecutive NXDs bots carved out of
//!   the circular pool and computes the expected number of bots needed to
//!   cover each segment.
//! * [`CoverageEstimator`] (`MC`) — this reproduction's extension for `AR`
//!   (DESIGN.md §3, substitution 3): inverts the closed-form expected
//!   *volume* of visible NXD lookups
//!   `E[O|N] = Σ_d N·p_d / (1 + N·p_d·δl/δe)`, which keeps resolving
//!   populations after `MB`'s distinct-NXD set saturates and serves as its
//!   cross-check.
//!
//! Every model reads one [`CellStats`] per (server, epoch) cell and
//! declares which of its lanes — positions, distinct, volume, lookups —
//! it uses ([`Estimator::lanes`]).
//!
//! The [`BotMeter`] facade wires the full Fig. 2 pipeline — match, group
//! per forwarding server, estimate — and produces the per-server
//! [`Landscape`] that gives the tool its name.
//!
//! # Example
//!
//! ```
//! use botmeter_core::{absolute_relative_error, EstimationContext, Estimator,
//!                     PoissonEstimator};
//! use botmeter_dga::DgaFamily;
//! use botmeter_exec::ExecPolicy;
//! use botmeter_sim::ScenarioSpec;
//!
//! // Simulate one day of a Murofet (AU) infection...
//! let outcome = ScenarioSpec::builder(DgaFamily::murofet())
//!     .population(64)
//!     .seed(3)
//!     .build()?
//!     .run(ExecPolicy::default());
//! // ...and recover the population from the cache-filtered stream alone.
//! let ctx = EstimationContext::new(
//!     outcome.family().clone(), outcome.ttl(), outcome.granularity());
//! let est = PoissonEstimator::new().estimate(outcome.observed(), &ctx);
//! let are = absolute_relative_error(est, outcome.ground_truth()[0] as f64);
//! assert!(are < 0.6, "ARE {are}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bernoulli;
mod botmeter;
mod config;
mod coverage;
mod delta;
mod estimator;
mod kernel;
mod metrics;
mod poisson;
mod request;
mod sampling;
mod segments;
mod theorem1;
mod timing;

pub use bernoulli::BernoulliEstimator;
pub use botmeter::{
    BotMeter, BotMeterConfig, CellQuality, ChartMatcher, Error, Landscape, LandscapeEntry,
    ModelKind, UnknownModel,
};
pub use config::{EstimationContext, PoolIndex};
pub use coverage::CoverageEstimator;
pub use delta::{CellChange, DeltaError, LandscapeDelta, LandscapeVersion};
pub use estimator::{CellStats, Estimator, Lane};
pub use kernel::{KernelEval, KernelKey, SegmentKernelCache};
pub use metrics::{absolute_relative_error, mean_absolute_relative_error};
pub use poisson::PoissonEstimator;
pub use request::{ChartRequest, TelemetrySource};
pub use sampling::SamplingEstimator;
pub use segments::{extract_segments, Segment, SegmentKind};
pub use theorem1::{expected_bots_for_shape, KernelStats};
pub use timing::TimingEstimator;
