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
use std::collections::BTreeSet;
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
/// distort BotMeter's visibility model differently (§II-B). These counters
/// are the source of truth the observability layer snapshots into
/// `cache.s{id}.*` metrics after each trace batch.
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
    /// Live entries evicted to make room under a capacity bound.
    pub capacity_evictions: u64,
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
/// Expiry is lazy: entries are dropped when a lookup finds them expired, or
/// in bulk via [`purge_expired`](Self::purge_expired).
///
/// The cache is generic over its key: the default `K = DomainName` keys by
/// the full validated name (equality compares text, so a fingerprint
/// collision can never conflate entries), while the id-resident hot path
/// instantiates `DnsCache<DomainId>` and probes with the bare 64-bit
/// fingerprint — no `Arc` clone per stored key, no text compare per hit.
/// Expiry arithmetic depends only on timestamps, so the two instantiations
/// filter identical streams identically for unbounded caches (the bounded
/// eviction order breaks ties on key order, which differs between text and
/// fingerprint keys).
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
    /// Expiry-ordered index, maintained only when a capacity bound is set
    /// (unbounded caches skip the bookkeeping entirely).
    expiry_index: BTreeSet<(SimInstant, K)>,
    capacity: Option<usize>,
    stats: CacheStats,
}

impl<K> Default for DnsCache<K> {
    fn default() -> Self {
        DnsCache {
            entries: FxHashMap::default(),
            expiry_index: BTreeSet::new(),
            capacity: None,
            stats: CacheStats::default(),
        }
    }
}

impl<K: Hash + Eq + Ord + Clone> DnsCache<K> {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        DnsCache::default()
    }

    /// Creates a cache bounded to `capacity` entries. When a store would
    /// exceed the bound, the entry closest to expiry is evicted first —
    /// the policy real resolvers approximate, and the one that perturbs
    /// BotMeter's visibility model least (soon-to-expire entries were
    /// about to stop masking lookups anyway).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        DnsCache {
            capacity: Some(capacity),
            ..DnsCache::default()
        }
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
            Some(entry) => {
                let expires_at = entry.expires_at;
                self.entries.remove(domain);
                if self.capacity.is_some() {
                    self.expiry_index.remove(&(expires_at, domain.clone()));
                }
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
        let ttl = match answer {
            Answer::Address(_) => policy.positive(),
            Answer::NxDomain => policy.negative(),
        };
        self.store_with_ttl(t, domain, answer, ttl);
    }

    /// Stores an answer with an explicit TTL (a zero TTL stores nothing).
    pub fn store_with_ttl(&mut self, t: SimInstant, domain: K, answer: Answer, ttl: SimDuration) {
        if ttl.is_zero() {
            return;
        }
        if let Some(cap) = self.capacity {
            // Replace-in-place never grows the map; only fresh inserts can.
            if !self.entries.contains_key(&domain) && self.entries.len() >= cap {
                // Drop expired entries first; evict the soonest-to-expire
                // live entry if that was not enough.
                if self.purge_expired(t) == 0 {
                    if let Some((exp, victim)) = self.expiry_index.iter().next().cloned() {
                        self.expiry_index.remove(&(exp, victim.clone()));
                        self.entries.remove(&victim);
                        self.stats.capacity_evictions += 1;
                    }
                }
            }
            let expires_at = t + ttl;
            if let Some(old) = self
                .entries
                .insert(domain.clone(), CachedAnswer { answer, expires_at })
            {
                self.expiry_index.remove(&(old.expires_at, domain.clone()));
            }
            self.expiry_index.insert((expires_at, domain));
        } else {
            self.entries.insert(
                domain,
                CachedAnswer {
                    answer,
                    expires_at: t + ttl,
                },
            );
        }
    }

    /// Drops every entry that has expired as of `t`; returns how many were
    /// removed.
    pub fn purge_expired(&mut self, t: SimInstant) -> usize {
        let before = self.entries.len();
        if self.capacity.is_some() {
            // The index is expiry-ordered: pop from the front.
            while let Some((exp, domain)) = self.expiry_index.iter().next().cloned() {
                if t < exp {
                    break;
                }
                self.expiry_index.remove(&(exp, domain.clone()));
                self.entries.remove(&domain);
            }
        } else {
            self.entries.retain(|_, e| t < e.expires_at);
        }
        let removed = before - self.entries.len();
        self.stats.expired_evictions += removed as u64;
        removed
    }

    /// Removes every entry (e.g. at an epoch boundary in tests).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.expiry_index.clear();
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
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
    fn purge_expired_bulk() {
        let mut c = DnsCache::new();
        let t0 = SimInstant::ZERO;
        for i in 0..10 {
            c.store(t0, d(&format!("x{i}.example")), Answer::NxDomain, &ttl());
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.purge_expired(t0 + SimDuration::from_hours(1)), 0);
        assert_eq!(c.purge_expired(t0 + SimDuration::from_hours(3)), 10);
        assert!(c.is_empty());
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

    #[test]
    fn bounded_cache_evicts_soonest_expiry_first() {
        let mut c = DnsCache::with_capacity(2);
        let t0 = SimInstant::ZERO;
        let ip = Answer::Address(std::net::Ipv4Addr::new(192, 0, 2, 9));
        // a expires in 1h, b in 2h.
        c.store_with_ttl(
            t0,
            d("a.example"),
            Answer::NxDomain,
            SimDuration::from_hours(1),
        );
        c.store_with_ttl(t0, d("b.example"), ip, SimDuration::from_hours(2));
        assert_eq!(c.capacity(), Some(2));
        // Third insert evicts a (soonest expiry).
        c.store_with_ttl(
            t0,
            d("c.example"),
            Answer::NxDomain,
            SimDuration::from_hours(3),
        );
        assert_eq!(c.len(), 2);
        assert!(c
            .lookup(t0 + SimDuration::from_mins(1), &d("a.example"))
            .is_none());
        assert!(c
            .lookup(t0 + SimDuration::from_mins(1), &d("b.example"))
            .is_some());
        assert!(c
            .lookup(t0 + SimDuration::from_mins(1), &d("c.example"))
            .is_some());
        assert_eq!(c.stats().capacity_evictions, 1);
    }

    #[test]
    fn bounded_cache_prefers_purging_expired() {
        let mut c = DnsCache::with_capacity(2);
        let t0 = SimInstant::ZERO;
        c.store_with_ttl(
            t0,
            d("a.example"),
            Answer::NxDomain,
            SimDuration::from_mins(1),
        );
        c.store_with_ttl(
            t0,
            d("b.example"),
            Answer::NxDomain,
            SimDuration::from_hours(5),
        );
        // a has expired by now: the new insert purges it, not b.
        let later = t0 + SimDuration::from_mins(2);
        c.store_with_ttl(
            later,
            d("c.example"),
            Answer::NxDomain,
            SimDuration::from_hours(5),
        );
        assert!(c.lookup(later, &d("b.example")).is_some());
        assert!(c.lookup(later, &d("c.example")).is_some());
        assert_eq!(c.stats().capacity_evictions, 0);
    }

    #[test]
    fn bounded_cache_restore_updates_index() {
        let mut c = DnsCache::with_capacity(2);
        let t0 = SimInstant::ZERO;
        c.store_with_ttl(
            t0,
            d("a.example"),
            Answer::NxDomain,
            SimDuration::from_mins(5),
        );
        // Refresh a with a later expiry; the stale index entry must go.
        c.store_with_ttl(
            t0,
            d("a.example"),
            Answer::NxDomain,
            SimDuration::from_hours(5),
        );
        c.store_with_ttl(
            t0,
            d("b.example"),
            Answer::NxDomain,
            SimDuration::from_hours(1),
        );
        // Inserting c should evict b (1h), not a (5h).
        c.store_with_ttl(
            t0,
            d("c.example"),
            Answer::NxDomain,
            SimDuration::from_hours(2),
        );
        assert!(c.lookup(t0, &d("a.example")).is_some());
        assert!(c.lookup(t0, &d("b.example")).is_none());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        DnsCache::<DomainName>::with_capacity(0);
    }

    #[test]
    fn bounded_purge_expired_uses_index() {
        let mut c = DnsCache::with_capacity(8);
        let t0 = SimInstant::ZERO;
        for i in 0..5 {
            c.store_with_ttl(
                t0,
                d(&format!("x{i}.example")),
                Answer::NxDomain,
                SimDuration::from_mins(10 + i),
            );
        }
        // Expiry is exclusive: at +12 min the 10, 11 and 12-minute entries
        // have all lapsed.
        assert_eq!(c.purge_expired(t0 + SimDuration::from_mins(12)), 3);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = DnsCache::new();
        c.store(SimInstant::ZERO, d("a.example"), Answer::NxDomain, &ttl());
        c.clear();
        assert!(c.is_empty());
    }
}
