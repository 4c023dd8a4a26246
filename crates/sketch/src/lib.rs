//! Constant-memory sketch telemetry for BotMeter.
//!
//! At true border scale the per-server matched substreams cannot be held
//! exactly: a day of traffic from millions of clients produces orders of
//! magnitude more matched lookups than any charting node wants to keep
//! resident. This crate provides the alternative telemetry frontend of
//! DESIGN.md §16 — per-(server, epoch) cells that each hold a **bottom-k
//! distinct sample**: the `width` matched domains with the *smallest
//! stable hash rank* (a KMV sample), each with its exact sighting count.
//!
//! A cell is bounded by configuration, not by traffic volume: its state
//! is `O(width)` no matter how many lookups stream through. Retention
//! depends only on a domain's hash rank — never on arrival order — so
//! accumulation is **mergeable**: sketching shards independently and
//! merging gives bit-identical state to one sequential pass, which is what
//! makes the frontend safe to run under any `ExecPolicy × PipelineMode ×
//! worker count` combination (the same determinism contract every other
//! BotMeter layer obeys).
//!
//! A sketch is a statistic, not a trace: it keeps no timestamps. The
//! estimator side (`botmeter_core::TelemetrySource::Sketch`) turns each
//! cell into the lanes of a `botmeter_core::CellStats`. A cell that never
//! evicted fills positions, distinct count and volume exactly, so the
//! set- and volume-reading models chart **bit-identically to exact mode**;
//! a lossy cell fills distinct count and volume with the KMV bound
//! [`CellSketch::distinct_error_bound`]. A model that reads lookups is
//! refused.
//!
//! # Example
//!
//! ```
//! use botmeter_dns::{DomainName, ObservedLookup, ServerId, SimDuration, SimInstant};
//! use botmeter_sketch::{SketchConfig, SketchedTraffic};
//!
//! let config = SketchConfig::new(SimDuration::from_days(1))?.width(4)?;
//! let mut sketch = SketchedTraffic::new(config);
//! let lookup = ObservedLookup {
//!     t: SimInstant::from_millis(1_000),
//!     server: ServerId(1),
//!     domain: "abcdef.biz".parse::<DomainName>()?,
//! };
//! sketch.push(&lookup);
//! let cell = sketch.cell(ServerId(1), 0).expect("cell exists");
//! assert_eq!(cell.retained(), 1);
//! assert!(!cell.is_lossy());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod traffic;

pub use cell::{CellSketch, RetainedDomain};
pub use traffic::SketchedTraffic;

use botmeter_dns::SimDuration;
use std::fmt;

/// Default bottom-k capacity per (server, epoch) cell.
pub const DEFAULT_WIDTH: usize = 64;

/// Smallest accepted bottom-k capacity: the KMV estimate `(k - 1) / R_k`
/// needs two retained ranks.
pub const MIN_WIDTH: usize = 2;

/// Invalid sketch parameters, reported by the [`SketchConfig`] builders
/// instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SketchConfigError {
    /// The bottom-k width is below [`MIN_WIDTH`].
    NarrowWidth {
        /// The offending width.
        width: usize,
    },
    /// The epoch length must be positive to route lookups to epochs.
    ZeroEpochLen,
}

impl fmt::Display for SketchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchConfigError::NarrowWidth { width } => write!(
                f,
                "sketch width {width} is below {MIN_WIDTH}: the distinct estimate needs two ranks"
            ),
            SketchConfigError::ZeroEpochLen => {
                write!(f, "sketch epoch length must be positive")
            }
        }
    }
}

impl std::error::Error for SketchConfigError {}

/// Shape of every cell in a sketch: the width/error knob of the frontend.
///
/// `width` bounds the bottom-k sample (and with it the relative error of
/// distinct counting once a cell saturates: ~`1/sqrt(width - 2)`);
/// `epoch_len` routes lookups to (server, epoch) cells exactly like the
/// charting pipeline does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SketchConfig {
    width: usize,
    epoch_len_ms: u64,
}

impl SketchConfig {
    /// A configuration with the default width, routing epochs of length
    /// `epoch_len` (use the targeted family's `epoch_len()` so sketch cells
    /// line up with landscape cells).
    ///
    /// # Errors
    ///
    /// [`SketchConfigError::ZeroEpochLen`] when `epoch_len` is zero.
    pub fn new(epoch_len: SimDuration) -> Result<Self, SketchConfigError> {
        if epoch_len.as_millis() == 0 {
            return Err(SketchConfigError::ZeroEpochLen);
        }
        Ok(SketchConfig {
            width: DEFAULT_WIDTH,
            epoch_len_ms: epoch_len.as_millis(),
        })
    }

    /// Sets the bottom-k capacity per cell.
    ///
    /// # Errors
    ///
    /// [`SketchConfigError::NarrowWidth`] when `width` is below
    /// [`MIN_WIDTH`].
    pub fn width(mut self, width: usize) -> Result<Self, SketchConfigError> {
        if width < MIN_WIDTH {
            return Err(SketchConfigError::NarrowWidth { width });
        }
        self.width = width;
        Ok(self)
    }

    /// The bottom-k capacity per cell.
    pub fn hh_width(&self) -> usize {
        self.width
    }

    /// The epoch length lookups are routed by.
    pub fn epoch_len(&self) -> SimDuration {
        SimDuration::from_millis(self.epoch_len_ms)
    }

    /// The deterministic per-cell byte budget: the logical resident size a
    /// cell can never exceed, independent of how many lookups stream
    /// through it. `sketch.peak_resident_bytes` is gated against
    /// `cells × cell_budget_bytes()` in the benches.
    pub fn cell_budget_bytes(&self) -> u64 {
        traffic::CELL_OVERHEAD_BYTES + self.width as u64 * traffic::ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validates_knobs() {
        let day = SimDuration::from_days(1);
        let config = SketchConfig::new(day).unwrap();
        assert_eq!(config.hh_width(), DEFAULT_WIDTH);
        assert_eq!(
            SketchConfig::new(SimDuration::ZERO),
            Err(SketchConfigError::ZeroEpochLen)
        );
        assert_eq!(
            config.width(0),
            Err(SketchConfigError::NarrowWidth { width: 0 })
        );
        assert_eq!(
            config.width(1),
            Err(SketchConfigError::NarrowWidth { width: 1 })
        );
        assert_eq!(config.width(2).unwrap().hh_width(), 2);
        for width in [2, 8, 64] {
            let tuned = config.width(width).unwrap();
            assert_eq!(tuned.cell_budget_bytes(), 48 + 64 * width as u64);
        }
    }

    #[test]
    fn config_error_messages_name_the_knob() {
        let narrow = SketchConfigError::NarrowWidth { width: 1 }.to_string();
        assert!(narrow.contains("width 1"), "{narrow}");
        assert!(narrow.contains('2'), "{narrow}");
        assert!(SketchConfigError::ZeroEpochLen
            .to_string()
            .contains("epoch"));
    }
}
