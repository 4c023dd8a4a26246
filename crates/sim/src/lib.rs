//! Botnet and network simulation for BotMeter.
//!
//! This crate turns a [`botmeter_dga::DgaFamily`] plus a population size
//! into DNS traffic:
//!
//! 1. an [`ActivationModel`] draws bot activation times as a Poisson process
//!    (constant rate `λ0 = N/δe`, or the paper's Fig. 6(d) dynamic variant
//!    `λi = λ0·e^{κi}`, `κi ~ N(0, σ²)`);
//! 2. each activation replays one bot's query barrel as timestamped
//!    pre-cache lookups, stopping at the first registered C2 domain;
//! 3. the raw lookups run, one time shard at a time, through a
//!    caching-forwarding [`Topology`](botmeter_dns::Topology), producing
//!    the border-visible [`ObservedLookup`](botmeter_dns::ObservedLookup)
//!    stream (with timestamps quantised to the trace's granularity). Only
//!    that stream and the raw *count* leave the run: the raw trace is the
//!    simulator's ground truth, never BotMeter's input (paper §II).
//!
//! [`ScenarioSpec`] packages the whole pipeline for the paper's synthetic
//! experiments (Fig. 6); [`EnterpriseSpec`] builds the year-long
//! multi-family enterprise trace behind Fig. 7 / Table II, including benign
//! background traffic.
//!
//! # Example
//!
//! ```
//! use botmeter_dga::DgaFamily;
//! use botmeter_exec::ExecPolicy;
//! use botmeter_sim::ScenarioSpec;
//!
//! let outcome = ScenarioSpec::builder(DgaFamily::murofet())
//!     .population(32)
//!     .seed(11)
//!     .build()
//!     .expect("valid scenario")
//!     .run(ExecPolicy::default());
//! // Caching makes the observable stream a strict subset of the raw one.
//! assert!((outcome.observed().len() as u64) < outcome.raw_lookups());
//! assert_eq!(outcome.ground_truth().len(), 1); // one epoch by default
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod background;
mod bot;
mod enterprise;
mod evasion;
mod filter;
mod scenario;
mod waves;

pub use activation::ActivationModel;
pub use background::{BenignAuthority, BenignTraffic, DualAuthority};
pub use bot::{replay_barrel, simulate_activation};
pub use enterprise::{EnterpriseOutcome, EnterpriseSpec, Infection};
pub use evasion::EvasionStrategy;
pub use scenario::{
    PipelineMode, ScenarioBuildError, ScenarioOutcome, ScenarioSpec, ScenarioSpecBuilder,
};
pub use waves::WaveConfig;
