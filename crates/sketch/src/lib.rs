//! Constant-memory sketch telemetry for BotMeter.
//!
//! At true border scale the per-server matched substreams cannot be held
//! exactly: a day of traffic from millions of clients produces orders of
//! magnitude more matched lookups than any charting node wants to keep
//! resident. This crate provides the alternative telemetry frontend of
//! DESIGN.md §16 — per-(server, epoch) cells that hold
//!
//! * **HLL-style distinct-counting registers** (`2^precision` one-byte
//!   registers updated with the harmonic max-ρ rule), and
//! * a **bottom-k distinct sample**: the `width` matched domains with the
//!   *smallest stable hash rank* (a KMV sample), each with its exact
//!   sighting count.
//!
//! Both structures are bounded by configuration, not by traffic volume:
//! per-cell state is `O(2^precision + width)` no matter how many lookups
//! stream through. Retention in the bottom-k summary depends only on a
//! domain's hash rank — never on arrival order — so accumulation is
//! **mergeable**: sketching shards independently and merging gives
//! bit-identical state to one sequential pass, which is what makes the
//! frontend safe to run under any `ExecPolicy × PipelineMode × worker
//! count` combination (the same determinism contract every other BotMeter
//! layer obeys).
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
pub use traffic::{MergeEffect, PushEffect, SketchedTraffic};

use botmeter_dns::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Default bottom-k capacity per (server, epoch) cell.
pub const DEFAULT_WIDTH: usize = 64;

/// Default HLL precision (`2^8 = 256` one-byte registers per cell).
pub const DEFAULT_PRECISION: u8 = 8;

/// Smallest accepted HLL precision.
pub const MIN_PRECISION: u8 = 4;

/// Largest accepted HLL precision (`2^16` registers — 64 KiB per cell —
/// is already past the point where exact telemetry wins).
pub const MAX_PRECISION: u8 = 16;

/// Invalid sketch parameters, reported by the [`SketchConfig`] builders
/// instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SketchConfigError {
    /// The heavy-hitter width must retain at least one domain.
    ZeroWidth,
    /// The HLL precision is outside `MIN_PRECISION..=MAX_PRECISION`.
    BadPrecision {
        /// The offending precision.
        precision: u8,
    },
    /// The epoch length must be positive to route lookups to epochs.
    ZeroEpochLen,
}

impl fmt::Display for SketchConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchConfigError::ZeroWidth => {
                write!(f, "sketch width must retain at least one domain")
            }
            SketchConfigError::BadPrecision { precision } => write!(
                f,
                "HLL precision {precision} outside {MIN_PRECISION}..={MAX_PRECISION}"
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
/// `width` bounds the heavy-hitter summary (and with it the relative error
/// of distinct counting once a cell saturates: ~`1/sqrt(width - 2)`);
/// `precision` sizes the HLL register bank; `epoch_len` routes lookups to
/// (server, epoch) cells exactly like the charting pipeline does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SketchConfig {
    width: usize,
    precision: u8,
    epoch_len_ms: u64,
}

impl SketchConfig {
    /// A configuration with the default width and precision, routing
    /// epochs of length `epoch_len` (use the targeted family's
    /// `epoch_len()` so sketch cells line up with landscape cells).
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
            precision: DEFAULT_PRECISION,
            epoch_len_ms: epoch_len.as_millis(),
        })
    }

    /// Sets the bottom-k heavy-hitter capacity per cell.
    ///
    /// # Errors
    ///
    /// [`SketchConfigError::ZeroWidth`] when `width` is zero.
    pub fn width(mut self, width: usize) -> Result<Self, SketchConfigError> {
        if width == 0 {
            return Err(SketchConfigError::ZeroWidth);
        }
        self.width = width;
        Ok(self)
    }

    /// Sets the HLL precision (register count is `2^precision`).
    ///
    /// # Errors
    ///
    /// [`SketchConfigError::BadPrecision`] outside
    /// [`MIN_PRECISION`]`..=`[`MAX_PRECISION`].
    pub fn precision(mut self, precision: u8) -> Result<Self, SketchConfigError> {
        if !(MIN_PRECISION..=MAX_PRECISION).contains(&precision) {
            return Err(SketchConfigError::BadPrecision { precision });
        }
        self.precision = precision;
        Ok(self)
    }

    /// The bottom-k capacity per cell.
    pub fn hh_width(&self) -> usize {
        self.width
    }

    /// The HLL precision.
    pub fn hll_precision(&self) -> u8 {
        self.precision
    }

    /// The number of HLL registers per cell.
    pub fn registers(&self) -> usize {
        1usize << self.precision
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
        self.registers() as u64
            + traffic::CELL_OVERHEAD_BYTES
            + self.width as u64 * traffic::ENTRY_BYTES
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
        assert_eq!(config.registers(), 256);
        assert_eq!(
            SketchConfig::new(SimDuration::ZERO),
            Err(SketchConfigError::ZeroEpochLen)
        );
        assert_eq!(config.width(0), Err(SketchConfigError::ZeroWidth));
        assert_eq!(
            config.precision(3),
            Err(SketchConfigError::BadPrecision { precision: 3 })
        );
        assert_eq!(
            config.precision(17),
            Err(SketchConfigError::BadPrecision { precision: 17 })
        );
        let tuned = config.width(8).unwrap().precision(4).unwrap();
        assert_eq!(tuned.hh_width(), 8);
        assert_eq!(tuned.registers(), 16);
        assert!(tuned.cell_budget_bytes() > 16);
    }

    #[test]
    fn config_error_messages_name_the_knob() {
        assert!(SketchConfigError::ZeroWidth.to_string().contains("width"));
        assert!(SketchConfigError::BadPrecision { precision: 99 }
            .to_string()
            .contains("99"));
        assert!(SketchConfigError::ZeroEpochLen
            .to_string()
            .contains("epoch"));
    }
}
