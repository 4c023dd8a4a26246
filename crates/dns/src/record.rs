//! Trace record types shared across the workspace.
//!
//! The paper works with two trace shapes (§V-B):
//!
//! * the **raw dataset** — `⟨timestamp, client, domain⟩` tuples as issued by
//!   clients, visible only below the local resolvers (ground truth);
//! * the **observable dataset** — `⟨timestamp, forwarding server, domain⟩`
//!   tuples as they arrive at the border vantage point after cache filtering.

use crate::name::DomainName;
use crate::time::SimInstant;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a client device (an "IP address" in the paper's traces).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub u32);

/// Identifier of a DNS server (local resolver or border server).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ServerId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client-{}", self.0)
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// A DNS lookup as issued by a client, *before* cache filtering.
///
/// This is the ground-truth record: the simulator emits it, and the paper's
/// "raw dataset" has exactly this shape. It is never visible to BotMeter
/// itself.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RawLookup {
    /// When the client issued the query.
    pub t: SimInstant,
    /// The issuing client.
    pub client: ClientId,
    /// The queried domain.
    pub domain: DomainName,
}

impl RawLookup {
    /// Convenience constructor.
    pub fn new(t: SimInstant, client: ClientId, domain: DomainName) -> Self {
        RawLookup { t, client, domain }
    }

    /// The id-resident form of this record (drops the `Arc`-backed text).
    pub fn compact(&self) -> CompactLookup {
        CompactLookup {
            t: self.t,
            client: self.client,
            domain: self.domain.id(),
        }
    }
}

/// The id-resident form of a [`RawLookup`]: a plain-old-data `Copy` record
/// carrying the domain's [`DomainId`](crate::DomainId) instead of its
/// `Arc<str>`-backed text.
///
/// This is the record `CompactTopology` filters: copying it touches no
/// reference counts and frees no allocations. The text stays resolvable
/// through the [`DomainInterner`](crate::DomainInterner).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompactLookup {
    /// When the client issued the query.
    pub t: SimInstant,
    /// The issuing client.
    pub client: ClientId,
    /// The queried domain's content fingerprint.
    pub domain: crate::DomainId,
}

impl CompactLookup {
    /// Convenience constructor.
    pub fn new(t: SimInstant, client: ClientId, domain: crate::DomainId) -> Self {
        CompactLookup { t, client, domain }
    }
}

/// The id-resident form of an [`ObservedLookup`] — same `Copy`/POD
/// properties as [`CompactLookup`], for the border-visible
/// `⟨t, server, domain⟩` records `CompactTopology` emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompactObserved {
    /// Arrival time at the border server.
    pub t: SimInstant,
    /// The forwarding server.
    pub server: ServerId,
    /// The queried domain's content fingerprint.
    pub domain: crate::DomainId,
}

impl CompactObserved {
    /// Convenience constructor.
    pub fn new(t: SimInstant, server: ServerId, domain: crate::DomainId) -> Self {
        CompactObserved { t, server, domain }
    }

    /// Rehydrates the full record through the interner that interned the
    /// domain; `None` if the id is unknown to it.
    pub fn hydrate(&self, interner: &crate::DomainInterner) -> Option<ObservedLookup> {
        interner.resolve(self.domain).map(|domain| ObservedLookup {
            t: self.t,
            server: self.server,
            domain: domain.clone(),
        })
    }
}

/// A DNS lookup as observed at the border vantage point, *after* cache
/// filtering — the paper's `⟨timestamp t, forwarding server s, domain d⟩`
/// tuple (§II-B). Client identity is gone: this is all BotMeter ever sees.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObservedLookup {
    /// Arrival time at the border server (already quantised to the trace's
    /// timestamp granularity by the simulator).
    pub t: SimInstant,
    /// The lower-level server that forwarded the lookup.
    pub server: ServerId,
    /// The queried domain.
    pub domain: DomainName,
}

impl ObservedLookup {
    /// Convenience constructor.
    pub fn new(t: SimInstant, server: ServerId, domain: DomainName) -> Self {
        ObservedLookup { t, server, domain }
    }
}

impl fmt::Display for ObservedLookup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}, {}⟩", self.t, self.server, self.domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn constructors_store_fields() {
        let raw = RawLookup::new(SimInstant::from_millis(5), ClientId(9), d("a.example"));
        assert_eq!(raw.t.as_millis(), 5);
        assert_eq!(raw.client, ClientId(9));
        assert_eq!(raw.domain.as_str(), "a.example");

        let obs = ObservedLookup::new(SimInstant::from_millis(7), ServerId(2), d("b.example"));
        assert_eq!(obs.server, ServerId(2));
    }

    #[test]
    fn observed_lookup_display() {
        let obs = ObservedLookup::new(SimInstant::from_millis(7), ServerId(2), d("b.example"));
        let s = obs.to_string();
        assert!(s.contains("server-2") && s.contains("b.example"));
    }

    #[test]
    fn serde_roundtrip() {
        let obs = ObservedLookup::new(SimInstant::from_millis(7), ServerId(2), d("b.example"));
        let json = serde_json::to_string(&obs).unwrap();
        let back: ObservedLookup = serde_json::from_str(&json).unwrap();
        assert_eq!(obs, back);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(ClientId(1) < ClientId(2));
        assert!(ServerId(0) < ServerId(1));
        assert_eq!(ClientId::default(), ClientId(0));
    }

    #[test]
    fn compact_round_trips_through_the_interner() {
        let mut interner = crate::DomainInterner::new();
        let domain = interner.intern(d("a.example"));
        let raw = RawLookup::new(SimInstant::from_millis(5), ClientId(9), domain.clone());
        let compact = raw.compact();
        assert_eq!(compact, CompactLookup::new(raw.t, raw.client, domain.id()));

        let obs = ObservedLookup::new(SimInstant::from_millis(7), ServerId(2), domain);
        let cobs = CompactObserved::new(obs.t, obs.server, obs.domain.id());
        assert_eq!(cobs.hydrate(&interner), Some(obs));

        // Ids unknown to the interner cannot rehydrate.
        let stranger = CompactObserved::new(SimInstant::ZERO, ServerId(0), crate::DomainId(42));
        assert_eq!(stranger.hydrate(&interner), None);
    }
}
