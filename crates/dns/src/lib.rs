//! Hierarchical caching-and-forwarding DNS substrate for BotMeter.
//!
//! The BotMeter paper (§II) assumes a large network whose DNS infrastructure
//! is a tree: clients query their *local* DNS server; each local server keeps
//! a cache (with distinct TTLs for valid answers and NXDOMAIN responses) and
//! forwards only cache misses to an upper-level server; the *border* server
//! is the vantage point where lookups become observable as
//! `⟨timestamp, forwarding server, domain⟩` tuples.
//!
//! This crate provides that substrate, built from scratch:
//!
//! * a millisecond-granularity virtual clock ([`SimInstant`], [`SimDuration`]);
//! * validated [`DomainName`]s, one at a time or batch-built over one buffer
//!   ([`DomainBatch`]);
//! * a TTL-aware [`DnsCache`] with positive and negative caching;
//! * [`Topology`], a whole tree of caching-forwarding resolvers with the
//!   border vantage point;
//! * the trace record types ([`RawLookup`], [`ObservedLookup`]) shared by
//!   the simulator, the matcher and the estimators.
//!
//! # Example: one lookup's life cycle (paper §II-A)
//!
//! ```
//! use botmeter_dns::{
//!     DnsCache, DomainName, SimDuration, SimInstant, StaticAuthority, TtlPolicy,
//!     Answer, Authority,
//! };
//!
//! let ttl = TtlPolicy::new(SimDuration::from_days(1), SimDuration::from_hours(2));
//! let mut cache = DnsCache::new();
//! let auth = StaticAuthority::empty(); // everything is NXDOMAIN
//! let d: DomainName = "xkcd1353.example".parse()?;
//!
//! let t0 = SimInstant::ZERO;
//! assert!(cache.lookup(t0, &d).is_none());           // miss → forwarded
//! let answer = auth.resolve(t0, &d);
//! assert_eq!(answer, Answer::NxDomain);
//! cache.store(t0, d.clone(), answer, &ttl);
//!
//! // 1 hour later the negative entry still masks the lookup ...
//! assert!(cache.lookup(t0 + SimDuration::from_hours(1), &d).is_some());
//! // ... but after the 2-hour negative TTL it has expired.
//! assert!(cache.lookup(t0 + SimDuration::from_hours(3), &d).is_none());
//! # Ok::<(), botmeter_dns::ParseDomainError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authority;
mod cache;
mod intern;
mod name;
mod record;
mod time;
mod topology;
pub mod trace;
mod ttl;

pub use authority::{Answer, Authority, StaticAuthority};
pub use cache::{CacheStats, CachedAnswer, DnsCache};
pub use intern::{
    fx_hash64, DomainId, DomainInterner, FxBuildHasher, FxHashMap, FxHashSet, FxHasher,
};
pub use name::{DomainBatch, DomainName, ParseDomainError};
pub use record::{ClientId, CompactLookup, CompactObserved, ObservedLookup, RawLookup, ServerId};
pub use time::{SimDuration, SimInstant};
pub use topology::{TopologyBuilder, TopologyError};

/// The resolver tree keyed by [`DomainName`], filtering [`RawLookup`]s —
/// names are the edge format (JSONL traces, hand-routed experiments).
pub type Topology = topology::Topology<DomainName>;

/// The same resolver tree keyed by [`DomainId`], filtering `Copy`
/// [`CompactLookup`] records in batches.
pub type CompactTopology = topology::Topology<DomainId>;
pub use ttl::TtlPolicy;
