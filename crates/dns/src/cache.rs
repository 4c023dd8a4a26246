//! The TTL-aware resolver cache with positive and negative caching.
//!
//! This cache is the reason BotMeter is hard: a DNS lookup is *invisible* at
//! the vantage point whenever a non-expired entry — positive or negative —
//! exists at the local resolver (§II-B). Estimator correctness therefore
//! hinges on this module faithfully implementing expiry semantics.

use crate::authority::Answer;
use crate::intern::FxHashMap;
use crate::name::DomainName;
use crate::time::{SimDuration, SimInstant};
use crate::ttl::TtlPolicy;
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// A cached answer together with its expiry time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedAnswer {
    /// The answer served from cache.
    pub answer: Answer,
    /// The instant at which the entry stops being served (exclusive: a
    /// lookup at exactly `expires_at` is a miss).
    pub expires_at: SimInstant,
}

/// Hit/miss counters for a cache (useful in tests and benchmark reports).
///
/// Hits are split by answer polarity — a positive hit masks a successful
/// resolution, a negative hit masks an NXDOMAIN retry — because the two
/// distort BotMeter's visibility model differently (§II-B). The
/// simulation's per-domain filter reports the same four counters per
/// server as `cache.s{id}.*` metrics at the end of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from a live positive (address) entry.
    pub positive_hits: u64,
    /// Lookups answered from a live negative (NXDOMAIN) entry.
    pub negative_hits: u64,
    /// Lookups that found no live entry.
    pub misses: u64,
    /// Entries that were found expired and dropped lazily.
    pub expired_evictions: u64,
}

impl CacheStats {
    /// Total lookups answered from a live entry (positive + negative).
    pub fn hits(&self) -> u64 {
        self.positive_hits + self.negative_hits
    }

    /// Fraction of lookups answered from cache (`0.0` when empty).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// A resolver cache mapping domain keys to answers with TTL-based expiry.
///
/// Expiry is lazy: entries are dropped when a lookup finds them expired.
///
/// The cache is generic over its key: the default `K = DomainName` keys by
/// the full validated name (equality compares text, so a fingerprint
/// collision can never conflate entries), while the id-resident hot path
/// instantiates `DnsCache<DomainId>` and probes with the bare 64-bit
/// fingerprint — no `Arc` clone per stored key, no text compare per hit.
/// Expiry arithmetic depends only on timestamps, so the two instantiations
/// filter identical streams identically.
///
/// A cache is the state of one resolver, read and written once per lookup
/// in trace order by the thread that owns it; there is no operation that
/// splits one or folds two together.
///
/// # Example
///
/// ```
/// use botmeter_dns::{Answer, DnsCache, DomainName, SimDuration, SimInstant, TtlPolicy};
/// let mut cache = DnsCache::new();
/// let ttl = TtlPolicy::paper_default();
/// let d: DomainName = "nx.example".parse()?;
/// let t = SimInstant::ZERO;
/// cache.store(t, d, Answer::NxDomain, &ttl);
/// assert_eq!(cache.len(), 1);
/// # Ok::<(), botmeter_dns::ParseDomainError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DnsCache<K = DomainName> {
    /// Key-indexed entries behind the Fx hasher: both `DomainName` and
    /// `DomainId` hash as one precomputed `u64`, so a probe costs one
    /// multiply.
    entries: FxHashMap<K, CachedAnswer>,
    stats: CacheStats,
}

impl<K> Default for DnsCache<K> {
    fn default() -> Self {
        DnsCache {
            entries: FxHashMap::default(),
            stats: CacheStats::default(),
        }
    }
}

impl<K: Hash + Eq> DnsCache<K> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DnsCache::default()
    }

    /// Looks up `domain` at time `t`.
    ///
    /// Returns `Some` (a hit — the lookup would be absorbed and *not*
    /// forwarded) if a non-expired entry exists, `None` otherwise. Expired
    /// entries encountered here are evicted.
    pub fn lookup(&mut self, t: SimInstant, domain: &K) -> Option<CachedAnswer> {
        match self.entries.get(domain) {
            Some(entry) if t < entry.expires_at => {
                match entry.answer {
                    Answer::Address(_) => self.stats.positive_hits += 1,
                    Answer::NxDomain => self.stats.negative_hits += 1,
                }
                Some(*entry)
            }
            Some(_) => {
                self.entries.remove(domain);
                self.stats.expired_evictions += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores an answer obtained at time `t`, with the TTL chosen from
    /// `policy` according to the answer's polarity (positive vs negative
    /// caching). A zero TTL stores nothing.
    pub fn store(&mut self, t: SimInstant, domain: K, answer: Answer, policy: &TtlPolicy) {
        self.store_with_ttl(t, domain, answer, policy.for_answer(answer));
    }

    /// Stores an answer with an explicit TTL (a zero TTL stores nothing).
    pub fn store_with_ttl(&mut self, t: SimInstant, domain: K, answer: Answer, ttl: SimDuration) {
        if ttl.is_zero() {
            return;
        }
        self.entries.insert(
            domain,
            CachedAnswer {
                answer,
                expires_at: t + ttl,
            },
        );
    }

    /// Number of entries currently stored (including not-yet-evicted
    /// expired ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn ttl() -> TtlPolicy {
        TtlPolicy::paper_default()
    }

    #[test]
    fn miss_then_hit_then_expiry() {
        let mut c = DnsCache::new();
        let t0 = SimInstant::ZERO;
        assert!(c.lookup(t0, &d("a.example")).is_none());
        c.store(t0, d("a.example"), Answer::NxDomain, &ttl());
        // Within the 2h negative TTL: hit.
        let hit = c.lookup(t0 + SimDuration::from_mins(119), &d("a.example"));
        assert!(hit.is_some());
        assert_eq!(hit.unwrap().answer, Answer::NxDomain);
        // At exactly the TTL boundary: miss (expiry is exclusive).
        assert!(c
            .lookup(t0 + SimDuration::from_hours(2), &d("a.example"))
            .is_none());
        // The expired entry was evicted.
        assert!(c.is_empty());
    }

    #[test]
    fn positive_and_negative_ttls_differ() {
        let mut c = DnsCache::new();
        let t0 = SimInstant::ZERO;
        let policy = ttl();
        c.store(
            t0,
            d("valid.example"),
            Answer::Address(std::net::Ipv4Addr::new(192, 0, 2, 1)),
            &policy,
        );
        c.store(t0, d("nx.example"), Answer::NxDomain, &policy);
        let probe = t0 + SimDuration::from_hours(12);
        assert!(
            c.lookup(probe, &d("valid.example")).is_some(),
            "positive lives 1 day"
        );
        assert!(
            c.lookup(probe, &d("nx.example")).is_none(),
            "negative died after 2h"
        );
    }

    #[test]
    fn zero_ttl_stores_nothing() {
        let mut c = DnsCache::new();
        c.store_with_ttl(
            SimInstant::ZERO,
            d("a.example"),
            Answer::NxDomain,
            SimDuration::ZERO,
        );
        assert!(c.is_empty());
    }

    #[test]
    fn restore_refreshes_expiry() {
        let mut c = DnsCache::new();
        let t0 = SimInstant::ZERO;
        c.store(t0, d("a.example"), Answer::NxDomain, &ttl());
        let t1 = t0 + SimDuration::from_hours(1);
        c.store(t1, d("a.example"), Answer::NxDomain, &ttl());
        // 2.5h after t0 but only 1.5h after t1: still cached.
        assert!(c
            .lookup(t0 + SimDuration::from_mins(150), &d("a.example"))
            .is_some());
    }

    #[test]
    fn stats_track_hits_misses_evictions() {
        let mut c = DnsCache::new();
        let t0 = SimInstant::ZERO;
        c.lookup(t0, &d("a.example")); // miss
        c.store(t0, d("a.example"), Answer::NxDomain, &ttl());
        c.lookup(t0 + SimDuration::from_mins(1), &d("a.example")); // negative hit
        c.lookup(t0 + SimDuration::from_hours(5), &d("a.example")); // expired -> miss+evict
        let ip = Answer::Address(std::net::Ipv4Addr::new(192, 0, 2, 7));
        c.store(
            t0 + SimDuration::from_hours(5),
            d("live.example"),
            ip,
            &ttl(),
        );
        c.lookup(t0 + SimDuration::from_hours(6), &d("live.example")); // positive hit
        let s = c.stats();
        assert_eq!(s.positive_hits, 1);
        assert_eq!(s.negative_hits, 1);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.expired_evictions, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
