//! Virtual time: all simulation and estimation code runs on a millisecond
//! clock decoupled from wall-clock time, so experiments are deterministic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point on the simulation timeline (milliseconds since the simulation
/// epoch, `t = 0`).
///
/// # Example
///
/// ```
/// use botmeter_dns::{SimDuration, SimInstant};
/// let t = SimInstant::ZERO + SimDuration::from_days(1);
/// assert_eq!(t.as_millis(), 86_400_000);
/// assert_eq!(t.epoch_day(SimDuration::from_days(1)), 1);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant(u64);

/// A span of simulation time in milliseconds.
///
/// # Example
///
/// ```
/// use botmeter_dns::SimDuration;
/// assert_eq!(SimDuration::from_hours(2).as_millis(), 7_200_000);
/// assert_eq!(SimDuration::from_secs(1) * 500, SimDuration::from_millis(500_000));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimInstant {
    /// The simulation epoch, `t = 0`.
    pub const ZERO: SimInstant = SimInstant(0);

    /// Creates an instant from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimInstant(ms)
    }

    /// Milliseconds since the simulation epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation epoch (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// The index of the epoch (e.g. day) this instant falls in, for a given
    /// epoch length.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn epoch_day(self, epoch_len: SimDuration) -> u64 {
        assert!(epoch_len.0 > 0, "epoch length must be positive");
        self.0 / epoch_len.0
    }

    /// Duration since an earlier instant; saturates to zero if `earlier`
    /// is actually later.
    pub fn saturating_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Quantises the timestamp down to a multiple of `granularity`
    /// (the paper's "timestamp granularity": 100 ms for synthetic traces,
    /// 1 s for the enterprise trace).
    ///
    /// A zero granularity leaves the instant untouched.
    #[must_use]
    pub fn quantize(self, granularity: SimDuration) -> SimInstant {
        if granularity.0 == 0 {
            self
        } else {
            SimInstant(self.0 - self.0 % granularity.0)
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Creates a duration from minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Creates a duration from hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Creates a duration from days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    /// Saturating difference between two instants.
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms == 0 {
            return write!(f, "0ms");
        }
        if ms.is_multiple_of(86_400_000) {
            write!(f, "{}d", ms / 86_400_000)
        } else if ms.is_multiple_of(3_600_000) {
            write!(f, "{}h", ms / 3_600_000)
        } else if ms.is_multiple_of(60_000) {
            write!(f, "{}min", ms / 60_000)
        } else if ms.is_multiple_of(1000) {
            write!(f, "{}s", ms / 1000)
        } else {
            write!(f, "{}ms", ms)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimInstant::from_millis(500);
        let d = SimDuration::from_secs(2);
        assert_eq!((t + d).as_millis(), 2500);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn subtraction_saturates() {
        let t = SimInstant::from_millis(100);
        assert_eq!(t - SimDuration::from_secs(5), SimInstant::ZERO);
        assert_eq!(SimInstant::ZERO - t, SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(1) - SimDuration::from_millis(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn unit_constructors() {
        assert_eq!(SimDuration::from_days(1).as_millis(), 86_400_000);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_mins(1).as_millis(), 60_000);
        assert_eq!(SimDuration::from_secs(1).as_millis(), 1000);
    }

    #[test]
    fn epoch_day_boundaries() {
        let day = SimDuration::from_days(1);
        assert_eq!(SimInstant::ZERO.epoch_day(day), 0);
        assert_eq!((SimInstant::ZERO + day).epoch_day(day), 1);
        let just_before = SimInstant::from_millis(day.as_millis() - 1);
        assert_eq!(just_before.epoch_day(day), 0);
    }

    #[test]
    #[should_panic(expected = "epoch length must be positive")]
    fn epoch_day_zero_len_panics() {
        SimInstant::ZERO.epoch_day(SimDuration::ZERO);
    }

    #[test]
    fn quantize_floors() {
        let g = SimDuration::from_millis(100);
        assert_eq!(
            SimInstant::from_millis(1234).quantize(g),
            SimInstant::from_millis(1200)
        );
        assert_eq!(
            SimInstant::from_millis(1200).quantize(g),
            SimInstant::from_millis(1200)
        );
        // Zero granularity is the identity.
        assert_eq!(
            SimInstant::from_millis(77).quantize(SimDuration::ZERO),
            SimInstant::from_millis(77)
        );
    }

    #[test]
    fn display_picks_largest_unit() {
        assert_eq!(SimDuration::from_days(2).to_string(), "2d");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3h");
        assert_eq!(SimDuration::from_mins(20).to_string(), "20min");
        assert_eq!(SimDuration::from_secs(7).to_string(), "7s");
        assert_eq!(SimDuration::from_millis(500).to_string(), "500ms");
        assert_eq!(SimDuration::ZERO.to_string(), "0ms");
    }

    #[test]
    fn ordering_and_serde() {
        let a = SimInstant::from_millis(1);
        let b = SimInstant::from_millis(2);
        assert!(a < b);
        let json = serde_json::to_string(&b).unwrap();
        let back: SimInstant = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
