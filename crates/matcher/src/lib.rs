//! The D3 (DGA-domain detection) stage of BotMeter (Fig. 2, steps 2–4).
//!
//! BotMeter assumes confirmed DGA domains as input (§II-B), and incoming
//! border DNS traffic is matched against them. Here the confirmed domains
//! are the family's own pools, refined by the detection window: in reality
//! the detection covers only part of each epoch's pool.
//!
//! This crate provides:
//!
//! * [`DomainMatcher`] — the matching interface, with [`ExactMatcher`]
//!   (the confirmed-domain set) as its implementation;
//! * [`DetectionWindow`] — deterministic sub-sampling of the pool at a
//!   configured missing rate `x` (the Fig. 6(e) sweep);
//! * [`match_stream`]/[`MatchedTraffic`] — filtering the observed stream
//!   and grouping the hits per forwarding server, the exact shape the
//!   estimators consume — over [`scan_hits`], the one in-order hit filter
//!   every consumer of the stream (batch scan, [`SketchStream`],
//!   `botmeterd`) visits its hits through.
//!
//! # Example
//!
//! ```
//! use botmeter_dga::DgaFamily;
//! use botmeter_matcher::{DomainMatcher, ExactMatcher};
//!
//! let family = DgaFamily::murofet();
//! let matcher = ExactMatcher::from_family(&family, 0..2); // epochs 0 and 1
//! let pool = family.pool_for_epoch(0);
//! assert!(matcher.matches(&pool[0]));
//! assert!(!matcher.matches(&"www.benign.example".parse()?));
//! # Ok::<(), botmeter_dns::ParseDomainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod exact;
mod sketching;
mod stream;
mod window;

pub use exact::ExactMatcher;
pub use sketching::SketchStream;
pub use stream::{match_stream, match_stream_recorded, scan_hits, MatchedTraffic, StreamQuality};
pub use stream::{CursorEntry, QualityCursor, QualityCursorState};
pub use window::DetectionWindow;

use botmeter_dns::DomainName;

/// Decides whether a domain belongs to the targeted DGA.
///
/// Object-safe so heterogeneous matcher stacks can be composed at runtime
/// (e.g. an exact list refined by a detection window).
pub trait DomainMatcher {
    /// Whether `domain` is attributed to the targeted DGA.
    fn matches(&self, domain: &DomainName) -> bool;
}

impl<M: DomainMatcher + ?Sized> DomainMatcher for &M {
    fn matches(&self, domain: &DomainName) -> bool {
        (**self).matches(domain)
    }
}

impl<M: DomainMatcher + ?Sized> DomainMatcher for Box<M> {
    fn matches(&self, domain: &DomainName) -> bool {
        (**self).matches(domain)
    }
}
