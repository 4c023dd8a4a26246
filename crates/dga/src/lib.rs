//! The DGA model library: BotMeter's taxonomy of domain generation
//! algorithms and per-family presets.
//!
//! §III of the paper classifies DGAs along two axes:
//!
//! * **query pool model** — how the pool of `θ∃ + θ∅` pseudo-random domains
//!   evolves over epochs ([`PoolClass`]: drain-and-replenish, sliding-window,
//!   multiple-mixture);
//! * **query barrel model** — which (ordered) subset of the pool a bot
//!   queries per activation ([`BarrelClass`]: uniform, sampling, randomcut,
//!   permutation).
//!
//! A [`DgaFamily`] pins down one cell of that grid plus the concrete
//! parameters `(θ∅, θ∃, θq, δi)` of Table I, and can deterministically
//! generate each epoch's pool, the registrar's `θ∃` valid C2 domains, and a
//! bot's barrel order.
//!
//! A generated pool is one shared text buffer under one `Vec` of names
//! ([`botmeter_dns::DomainBatch`]); the `θ∃` names meant to outlive it
//! ([`DgaFamily::valid_domains`]) own their text instead.
//!
//! # Example
//!
//! ```
//! use botmeter_dga::{BarrelClass, DgaFamily, PoolClass};
//! use rand::SeedableRng;
//!
//! let goz = DgaFamily::new_goz(); // Table I: θ∅=9995, θ∃=5, θq=500, δi=1s
//! assert_eq!(goz.barrel_class(), BarrelClass::RandomCut);
//! assert_eq!(goz.pool_class(), PoolClass::DrainReplenish);
//!
//! let pool = goz.pool_for_epoch(0);
//! assert_eq!(pool.len(), 10_000);
//!
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
//! let barrel = goz.draw_barrel(0, &mut rng);
//! assert_eq!(barrel.len(), 500); // 500 consecutive positions on the circle
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod barrel;
mod family;
mod generator;
mod params;
mod pool;
mod registrar;
mod taxonomy;

pub use barrel::draw_barrel;
pub use family::{DgaFamily, DgaFamilyBuilder, FamilyError};
pub use params::{DgaParams, ParamsError, QueryTiming};
pub use registrar::EpochAuthority;
pub use taxonomy::{known_families, BarrelClass, PoolClass, TaxonomyCell};
