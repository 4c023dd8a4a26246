//! TTL policy: how long positive and negative answers stay cached.

use crate::authority::Answer;
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Cache lifetimes for valid answers (positive caching) and NXDOMAIN
/// responses (negative caching).
///
/// The paper follows IETF guidance (§II-B): positive TTLs of one to several
/// days, negative TTLs of minutes to hours. The synthetic-trace default is
/// positive = 1 day, negative = 2 hours.
///
/// # Example
///
/// ```
/// use botmeter_dns::{SimDuration, TtlPolicy};
/// let ttl = TtlPolicy::paper_default();
/// assert_eq!(ttl.positive(), SimDuration::from_days(1));
/// assert_eq!(ttl.negative(), SimDuration::from_hours(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TtlPolicy {
    positive: SimDuration,
    negative: SimDuration,
}

impl TtlPolicy {
    /// Creates a policy from explicit lifetimes.
    pub fn new(positive: SimDuration, negative: SimDuration) -> Self {
        TtlPolicy { positive, negative }
    }

    /// The paper's synthetic-data default: positive cache TTL = 1 day,
    /// negative cache TTL = 2 hours (§V-A).
    pub fn paper_default() -> Self {
        TtlPolicy {
            positive: SimDuration::from_days(1),
            negative: SimDuration::from_hours(2),
        }
    }

    /// Returns this policy with a different negative TTL (the swept
    /// parameter of Fig. 6(c)).
    #[must_use]
    pub fn with_negative(self, negative: SimDuration) -> Self {
        TtlPolicy { negative, ..self }
    }

    /// Lifetime of cached valid answers.
    pub fn positive(&self) -> SimDuration {
        self.positive
    }

    /// Lifetime of cached NXDOMAIN answers.
    pub fn negative(&self) -> SimDuration {
        self.negative
    }

    /// Lifetime of a cached `answer`: positive or negative by its polarity.
    pub fn for_answer(&self, answer: Answer) -> SimDuration {
        match answer {
            Answer::Address(_) => self.positive,
            Answer::NxDomain => self.negative,
        }
    }
}

impl Default for TtlPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        assert_eq!(TtlPolicy::default(), TtlPolicy::paper_default());
    }

    #[test]
    fn with_negative_keeps_positive() {
        let p = TtlPolicy::paper_default().with_negative(SimDuration::from_mins(20));
        assert_eq!(p.negative(), SimDuration::from_mins(20));
        assert_eq!(p.positive(), SimDuration::from_days(1));
    }

    #[test]
    fn serde_roundtrip() {
        let p = TtlPolicy::paper_default();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(p, serde_json::from_str::<TtlPolicy>(&json).unwrap());
    }
}
