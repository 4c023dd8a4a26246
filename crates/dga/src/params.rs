//! Core DGA parameters: `(θ∅, θ∃, θq)` and the inter-query timing `δi`.

use botmeter_dns::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a bot paces consecutive DGA-triggered lookups within one activation.
///
/// Most families use a fixed minimal interval (`δi` in the paper: 500 ms for
/// Murofet/Necurs, 1 s for Conficker.C/newGoZ). Some — Ramnit and Qakbot in
/// the paper's Table II, where `δi` is listed as "none" — have no fixed
/// interval; their gaps are irregular, which starves the Timing estimator of
/// its periodicity heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryTiming {
    /// Fixed interval between consecutive lookups.
    Fixed(SimDuration),
    /// No fixed interval; gaps vary uniformly within `[min, max]`.
    Irregular {
        /// Shortest possible gap.
        min: SimDuration,
        /// Longest possible gap.
        max: SimDuration,
    },
}

impl QueryTiming {
    /// The fixed interval, if this timing model has one.
    pub fn fixed_interval(&self) -> Option<SimDuration> {
        match self {
            QueryTiming::Fixed(d) => Some(*d),
            QueryTiming::Irregular { .. } => None,
        }
    }

    /// An upper bound on the gap between consecutive lookups, used to bound
    /// an activation's duration (`θq · δi` in Algorithm 1).
    pub fn max_interval(&self) -> SimDuration {
        match self {
            QueryTiming::Fixed(d) => *d,
            QueryTiming::Irregular { max, .. } => *max,
        }
    }
}

impl fmt::Display for QueryTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryTiming::Fixed(d) => write!(f, "{d}"),
            QueryTiming::Irregular { min, max } => write!(f, "none ({min}..{max})"),
        }
    }
}

/// The scalar parameters of a DGA (§III of the paper):
///
/// * `theta_nx` (`θ∅`) — NXDOMAIN entries in each epoch's query pool;
/// * `theta_valid` (`θ∃`) — domains the botmaster registers as C2 servers;
/// * `theta_q` (`θq`) — the maximum number of domains a bot queries per
///   activation (the query-barrel size);
/// * `timing` (`δi`) — pacing of consecutive lookups.
///
/// # Example
///
/// ```
/// use botmeter_dga::{DgaParams, QueryTiming};
/// use botmeter_dns::SimDuration;
///
/// let p = DgaParams::new(
///     9_995, 5, 500, QueryTiming::Fixed(SimDuration::from_secs(1)),
/// )?;
/// assert_eq!(p.pool_size(), 10_000);
/// # Ok::<(), botmeter_dga::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DgaParams {
    theta_nx: usize,
    theta_valid: usize,
    theta_q: usize,
    timing: QueryTiming,
}

impl DgaParams {
    /// Creates and validates a parameter set.
    ///
    /// # Errors
    ///
    /// * `θ∅ = 0` or `θq = 0` — a DGA that queries nothing is meaningless;
    /// * `θq > θ∅ + θ∃` — a barrel cannot exceed the pool;
    /// * `δi = Fixed(0)` — a zero interval spans no lattice and no
    ///   activation duration (use [`QueryTiming::Irregular`] for "none").
    ///
    /// `θ∃ = 0` is allowed (a takedown day with no registered C2).
    pub fn new(
        theta_nx: usize,
        theta_valid: usize,
        theta_q: usize,
        timing: QueryTiming,
    ) -> Result<Self, ParamsError> {
        if theta_nx == 0 {
            return Err(ParamsError::EmptyPool);
        }
        if theta_q == 0 {
            return Err(ParamsError::EmptyBarrel);
        }
        if theta_q > theta_nx + theta_valid {
            return Err(ParamsError::BarrelExceedsPool {
                theta_q,
                pool: theta_nx + theta_valid,
            });
        }
        if timing == QueryTiming::Fixed(SimDuration::ZERO) {
            return Err(ParamsError::ZeroInterval);
        }
        Ok(DgaParams {
            theta_nx,
            theta_valid,
            theta_q,
            timing,
        })
    }

    /// `θ∅`: NXDOMAIN count in the pool.
    pub fn theta_nx(&self) -> usize {
        self.theta_nx
    }

    /// `θ∃`: registered C2 domain count.
    pub fn theta_valid(&self) -> usize {
        self.theta_valid
    }

    /// `θq`: maximum lookups per activation.
    pub fn theta_q(&self) -> usize {
        self.theta_q
    }

    /// `δi`: lookup pacing.
    pub fn timing(&self) -> QueryTiming {
        self.timing
    }

    /// Total pool size, `θ∅ + θ∃`.
    pub fn pool_size(&self) -> usize {
        self.theta_nx + self.theta_valid
    }

    /// The maximum possible duration of one activation, `θq · δi(max)` —
    /// the bound behind heuristic #2 of Algorithm 1.
    pub fn max_activation_duration(&self) -> SimDuration {
        self.timing.max_interval() * self.theta_q as u64
    }
}

/// Invalid [`DgaParams`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParamsError {
    /// `θ∅` was zero.
    EmptyPool,
    /// `θq` was zero.
    EmptyBarrel,
    /// `θq` exceeds the pool size.
    BarrelExceedsPool {
        /// The offending barrel size.
        theta_q: usize,
        /// The pool size it exceeded.
        pool: usize,
    },
    /// The fixed inter-query interval `δi` was zero.
    ZeroInterval,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::EmptyPool => write!(f, "query pool must contain at least one NXD"),
            ParamsError::EmptyBarrel => write!(f, "query barrel must be non-empty"),
            ParamsError::BarrelExceedsPool { theta_q, pool } => {
                write!(f, "barrel size {theta_q} exceeds pool size {pool}")
            }
            ParamsError::ZeroInterval => write!(f, "fixed query interval must be non-zero"),
        }
    }
}

impl std::error::Error for ParamsError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing_1s() -> QueryTiming {
        QueryTiming::Fixed(SimDuration::from_secs(1))
    }

    #[test]
    fn valid_params_accessors() {
        let p = DgaParams::new(
            798,
            2,
            798,
            QueryTiming::Fixed(SimDuration::from_millis(500)),
        )
        .unwrap();
        assert_eq!(p.theta_nx(), 798);
        assert_eq!(p.theta_valid(), 2);
        assert_eq!(p.theta_q(), 798);
        assert_eq!(p.pool_size(), 800);
        assert_eq!(
            p.max_activation_duration(),
            SimDuration::from_millis(500 * 798)
        );
    }

    #[test]
    fn rejects_degenerate_params() {
        assert_eq!(
            DgaParams::new(0, 2, 1, timing_1s()),
            Err(ParamsError::EmptyPool)
        );
        assert_eq!(
            DgaParams::new(10, 2, 0, timing_1s()),
            Err(ParamsError::EmptyBarrel)
        );
        assert_eq!(
            DgaParams::new(10, 2, 13, timing_1s()),
            Err(ParamsError::BarrelExceedsPool {
                theta_q: 13,
                pool: 12
            })
        );
    }

    #[test]
    fn rejects_zero_fixed_interval() {
        let err = DgaParams::new(10, 2, 5, QueryTiming::Fixed(SimDuration::ZERO));
        assert_eq!(err, Err(ParamsError::ZeroInterval));
        assert!(ParamsError::ZeroInterval.to_string().contains("interval"));
    }

    #[test]
    fn zero_valid_domains_allowed() {
        // Takedown scenario: pool is all NXDs.
        assert!(DgaParams::new(100, 0, 100, timing_1s()).is_ok());
    }

    #[test]
    fn irregular_timing_has_no_fixed_interval() {
        let t = QueryTiming::Irregular {
            min: SimDuration::from_millis(50),
            max: SimDuration::from_secs(2),
        };
        assert_eq!(t.fixed_interval(), None);
        assert_eq!(t.max_interval(), SimDuration::from_secs(2));
        assert!(t.to_string().starts_with("none"));
        let f = timing_1s();
        assert_eq!(f.fixed_interval(), Some(SimDuration::from_secs(1)));
        assert_eq!(f.to_string(), "1s");
    }

    #[test]
    fn params_error_messages() {
        assert!(ParamsError::EmptyPool.to_string().contains("pool"));
        assert!(ParamsError::BarrelExceedsPool {
            theta_q: 5,
            pool: 3
        }
        .to_string()
        .contains("exceeds"));
    }

    #[test]
    fn serde_roundtrip() {
        let p = DgaParams::new(100, 2, 50, timing_1s()).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: DgaParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
