//! Statistics substrate for the BotMeter workspace.
//!
//! The BotMeter estimators ([ICDCS 2016]) lean on a handful of numerical
//! building blocks — log-gamma, log-space binomial coefficients, Stirling
//! numbers of the second kind, Poisson/exponential/normal/Zipf sampling and
//! robust descriptive statistics — none of which we take from third-party
//! statistics crates. This crate implements all of them from scratch with an
//! emphasis on:
//!
//! * **log-space numerics** so that the combinatorial mass functions of the
//!   Bernoulli estimator (Theorem 1 of the paper) never overflow, and
//! * **determinism** — every sampler takes a caller-provided [`rand::Rng`],
//!   so simulations are reproducible given a seed.
//!
//! # Example
//!
//! ```
//! use botmeter_stats::{ln_binomial, Summary};
//!
//! // C(50_000, 500) has ~1000 decimal digits; its log is perfectly tame.
//! let ln_c = ln_binomial(50_000, 500);
//! assert!(ln_c > 0.0 && ln_c.is_finite());
//!
//! let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
//! assert_eq!(s.mean(), 2.5);
//! ```
//!
//! [ICDCS 2016]: https://doi.org/10.1109/ICDCS.2016.97

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod descriptive;
mod distributions;
mod kahan;
mod seed;
mod special;
mod stirling;

pub use descriptive::{mean, percentile, std_dev, OnlineMoments, Summary};
pub use distributions::{
    Bernoulli, Exponential, LogNormal, Normal, Poisson, SampleF64, SampleU64, Zipf,
};
pub use kahan::KahanSum;
pub use seed::{mix64, SeedSequence};
pub use special::{ln_binomial, ln_factorial, LogSumAcc};
pub use stirling::SharedStirling;
