//! Hierarchical DNS topologies: a tree of caching resolvers with the border
//! server as vantage point (Fig. 1 of the paper).
//!
//! A lookup issued by a client walks up from its local resolver towards the
//! border. Any non-expired cache entry along the way absorbs it (it becomes
//! invisible). If it reaches the border, it is recorded as an
//! [`ObservedLookup`] attributed to the *last forwarding server* — exactly
//! the `⟨t, s, d⟩` tuple BotMeter consumes — and the authoritative answer is
//! then cached at every node along the path.
//!
//! That visibility rule is written once, in [`Topology<K>`], over whatever
//! key the caches are indexed by. The crate exports its two
//! instantiations: `Topology` (keyed by [`DomainName`], filtering
//! [`RawLookup`]s — the edge format) and `CompactTopology` (keyed by
//! [`DomainId`], filtering `Copy` [`CompactLookup`]s in batches). Only the
//! record adapters differ per key. The simulation pipeline runs neither: on
//! its one-resolver topology it filters per domain (`botmeter-sim`), and
//! its equivalence suite holds that filter to `Topology`.

use crate::authority::{Answer, Authority};
use crate::cache::{CacheStats, DnsCache};
use crate::intern::{DomainId, DomainInterner};
use crate::name::DomainName;
use crate::record::{
    ClientId, CompactLookup, CompactObserved, ObservedLookup, RawLookup, ServerId,
};
use crate::time::SimInstant;
use crate::ttl::TtlPolicy;
use botmeter_exec::ExecPolicy;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Identifier of the border (root) server in every topology.
const BORDER: ServerId = ServerId(0);

/// What a [`Topology`]'s caches can be keyed by: [`DomainName`] or
/// [`DomainId`]. Not exported — the two instantiations are the public
/// surface.
pub trait Key: Hash + Eq + Clone {}

impl Key for DomainName {}

impl Key for DomainId {}

#[derive(Debug, Clone)]
struct Node<K> {
    parent: Option<ServerId>,
    cache: DnsCache<K>,
}

/// Errors from topology construction or client routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Referenced a server id that does not exist.
    UnknownServer(ServerId),
    /// Tried to attach clients to (or parent a node under) the border in an
    /// unsupported way.
    BorderNotALeaf,
    /// A lookup arrived from a client with no assigned resolver and no
    /// default leaf is configured.
    UnroutedClient(ClientId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownServer(s) => write!(f, "unknown server {s}"),
            TopologyError::BorderNotALeaf => {
                write!(f, "the border server cannot serve clients directly")
            }
            TopologyError::UnroutedClient(c) => {
                write!(f, "no resolver assigned for {c} and no default leaf set")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for a resolver tree. The border server (id 0) always exists.
///
/// [`build`](Self::build) yields the name-keyed `Topology`; the id-keyed
/// tree of the same shape is `CompactTopology::from(builder)`.
///
/// # Example
///
/// ```
/// use botmeter_dns::{TopologyBuilder, TtlPolicy};
/// let mut b = TopologyBuilder::new(TtlPolicy::paper_default());
/// let site_a = b.add_resolver_under_border();
/// let site_b = b.add_resolver_under_border();
/// let floor = b.add_resolver(site_a)?; // a second caching level
/// let mut topo = b.build();
/// topo.assign_client(botmeter_dns::ClientId(7), floor)?;
/// assert_eq!(topo.border().0, 0);
/// # let _ = site_b;
/// # Ok::<(), botmeter_dns::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    ttl: TtlPolicy,
    /// Each node's parent; index 0 is the border (no parent).
    parents: Vec<Option<ServerId>>,
}

impl TopologyBuilder {
    /// Starts a topology containing only the border server.
    pub fn new(ttl: TtlPolicy) -> Self {
        TopologyBuilder {
            ttl,
            parents: vec![None],
        }
    }

    /// Adds a resolver forwarding directly to the border; returns its id.
    #[doc(hidden)]
    pub fn add_resolver_under_border(&mut self) -> ServerId {
        self.add_resolver(BORDER).expect("border always exists")
    }

    /// Adds a resolver forwarding to `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownServer`] if `parent` was never
    /// created.
    #[doc(hidden)]
    pub fn add_resolver(&mut self, parent: ServerId) -> Result<ServerId, TopologyError> {
        if parent.0 as usize >= self.parents.len() {
            return Err(TopologyError::UnknownServer(parent));
        }
        let id = ServerId(self.parents.len() as u32);
        self.parents.push(Some(parent));
        Ok(id)
    }

    /// Finalises the (name-keyed) topology.
    pub fn build(self) -> Topology<DomainName> {
        self.into()
    }
}

impl<K: Key> From<TopologyBuilder> for Topology<K> {
    fn from(builder: TopologyBuilder) -> Self {
        Topology {
            ttl: builder.ttl,
            nodes: builder
                .parents
                .into_iter()
                .map(|parent| Node {
                    parent,
                    cache: DnsCache::new(),
                })
                .collect(),
            client_map: HashMap::new(),
            default_leaf: None,
            scratch_path: Vec::with_capacity(4),
        }
    }
}

/// A tree of caching resolvers rooted at the border vantage point, with
/// caches keyed by `K`.
///
/// See the crate-level documentation for the forwarding model. Every cache
/// is unbounded, so filtering depends only on each domain's own history
/// and the two key types produce bit-identical visibility (id equality ≡
/// name equality; the interner panics at intern time on the astronomically
/// unlikely fingerprint collision). The id-keyed instantiation moves `Copy`
/// records and resolves a name through the interner only on a border
/// cache miss, so its per-lookup path touches no `Arc` refcount
/// and allocates nothing in steady state.
///
/// # Example
///
/// ```
/// use botmeter_dns::{
///     ClientId, RawLookup, SimInstant, StaticAuthority, Topology, TtlPolicy,
/// };
/// let mut topo = Topology::single_local(TtlPolicy::paper_default());
/// let auth = StaticAuthority::empty();
/// let raw = RawLookup::new(SimInstant::ZERO, ClientId(1), "nx.example".parse()?);
///
/// // First lookup reaches the border ...
/// assert!(topo.process(&raw, &auth)?.is_some());
/// // ... an identical one a moment later is absorbed by the local cache.
/// let raw2 = RawLookup::new(SimInstant::from_millis(10), ClientId(2), "nx.example".parse()?);
/// assert!(topo.process(&raw2, &auth)?.is_none());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Topology<K> {
    ttl: TtlPolicy,
    nodes: Vec<Node<K>>,
    client_map: HashMap<ClientId, ServerId>,
    default_leaf: Option<ServerId>,
    /// The hierarchy walk's path buffer, owned here so steady-state
    /// processing allocates nothing.
    scratch_path: Vec<ServerId>,
}

impl<K: Key> Topology<K> {
    /// The simplest topology in the paper's evaluation: one local resolver
    /// under the border, serving every client by default.
    pub fn single_local(ttl: TtlPolicy) -> Self {
        let mut b = TopologyBuilder::new(ttl);
        let local = b.add_resolver_under_border();
        let mut t = Self::from(b);
        t.set_default_leaf(local).expect("local resolver exists");
        t
    }

    /// The border server's id (always `ServerId(0)`).
    pub fn border(&self) -> ServerId {
        BORDER
    }

    /// Routes every client without an explicit assignment to `leaf`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownServer`] for a nonexistent id,
    /// [`TopologyError::BorderNotALeaf`] for the border.
    pub(crate) fn set_default_leaf(&mut self, leaf: ServerId) -> Result<(), TopologyError> {
        self.check_leaf(leaf)?;
        self.default_leaf = Some(leaf);
        Ok(())
    }

    /// Assigns one client to a specific local resolver.
    ///
    /// # Errors
    ///
    /// Same as [`set_default_leaf`](Self::set_default_leaf).
    #[doc(hidden)]
    pub fn assign_client(&mut self, client: ClientId, leaf: ServerId) -> Result<(), TopologyError> {
        self.check_leaf(leaf)?;
        self.client_map.insert(client, leaf);
        Ok(())
    }

    fn check_leaf(&self, leaf: ServerId) -> Result<(), TopologyError> {
        if leaf == BORDER {
            return Err(TopologyError::BorderNotALeaf);
        }
        if leaf.0 as usize >= self.nodes.len() {
            return Err(TopologyError::UnknownServer(leaf));
        }
        Ok(())
    }

    /// The resolver a client's lookups enter at.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnroutedClient`] if the client has no assignment
    /// and no default leaf is set.
    pub(crate) fn route(&self, client: ClientId) -> Result<ServerId, TopologyError> {
        self.client_map
            .get(&client)
            .copied()
            .or(self.default_leaf)
            .ok_or(TopologyError::UnroutedClient(client))
    }

    /// Cache statistics of one node.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn cache_stats(&self, server: ServerId) -> CacheStats {
        self.nodes[server.0 as usize].cache.stats()
    }

    /// The visibility rule: walks one lookup for `domain` up from
    /// `client`'s resolver. Returns the last forwarding server if the
    /// lookup reaches the border (it is visible to BotMeter), `None` if a
    /// cache below the border absorbed it. `name` is consulted only when
    /// the border itself has to ask the authority.
    fn walk<'n, A: Authority>(
        &mut self,
        t: SimInstant,
        client: ClientId,
        domain: &K,
        name: impl FnOnce() -> &'n DomainName,
        authority: A,
    ) -> Result<Option<ServerId>, TopologyError> {
        let entry = self.route(client)?;

        // Walk up, collecting the path of caches below the border.
        let mut path = std::mem::take(&mut self.scratch_path);
        path.clear();
        let mut current = entry;
        loop {
            if self.nodes[current.0 as usize]
                .cache
                .lookup(t, domain)
                .is_some()
            {
                self.scratch_path = path;
                return Ok(None); // absorbed below the vantage point
            }
            path.push(current);
            match self.nodes[current.0 as usize].parent {
                Some(parent) if parent == BORDER => break,
                Some(parent) => current = parent,
                None => break, // entry somehow was the border: defensive
            }
        }
        let forwarder = *path.last().expect("path has at least the entry node");

        // Resolve at/above the border (the border's own cache does not
        // affect visibility, only upstream traffic, which we don't model).
        let answer = self.resolve_at_border(t, domain, name, authority);

        // The response propagates back down; every node on the path caches it.
        for node in &path {
            self.nodes[node.0 as usize]
                .cache
                .store(t, domain.clone(), answer, &self.ttl);
        }
        self.scratch_path = path;
        Ok(Some(forwarder))
    }

    fn resolve_at_border<'n, A: Authority>(
        &mut self,
        t: SimInstant,
        domain: &K,
        name: impl FnOnce() -> &'n DomainName,
        authority: A,
    ) -> Answer {
        let border = &mut self.nodes[BORDER.0 as usize];
        if let Some(hit) = border.cache.lookup(t, domain) {
            return hit.answer;
        }
        let answer = authority.resolve(t, name());
        border.cache.store(t, domain.clone(), answer, &self.ttl);
        answer
    }
}

/// The name-keyed record adapters.
impl Topology<DomainName> {
    /// Processes one raw lookup through the hierarchy.
    ///
    /// Returns `Ok(Some(observed))` if the lookup reached the border (and is
    /// therefore visible to BotMeter), `Ok(None)` if some cache absorbed it.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnroutedClient`] if the client cannot be routed.
    pub fn process<A: Authority>(
        &mut self,
        raw: &RawLookup,
        authority: A,
    ) -> Result<Option<ObservedLookup>, TopologyError> {
        let forwarder = self.walk(raw.t, raw.client, &raw.domain, || &raw.domain, authority)?;
        Ok(forwarder.map(|server| ObservedLookup::new(raw.t, server, raw.domain.clone())))
    }
}

/// The id-keyed record adapters.
impl Topology<DomainId> {
    /// Processes one compact raw lookup through the hierarchy. The interner
    /// must be the one that interned the lookup's domain; it is consulted
    /// only when the lookup reaches an authority-resolving border miss.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnroutedClient`] if the client cannot be routed.
    pub fn process<A: Authority>(
        &mut self,
        raw: &CompactLookup,
        interner: &DomainInterner,
        authority: A,
    ) -> Result<Option<CompactObserved>, TopologyError> {
        let name = || {
            interner
                .resolve(raw.domain)
                .expect("hot-path domains are interned before replay")
        };
        let forwarder = self.walk(raw.t, raw.client, &raw.domain, name, authority)?;
        Ok(forwarder.map(|server| CompactObserved::new(raw.t, server, raw.domain)))
    }

    /// Runs a whole compact raw trace (assumed time-ordered) through the
    /// hierarchy, one record after the other on the calling thread, and
    /// appends the border-visible sub-trace to `out` — the caller owns the
    /// output buffer, keeping the steady state allocation-free.
    /// `policy` affects neither the result nor the schedule: the filter
    /// opens no worker pool; the parameter stays until the frozen
    /// benchmark's call site, this method's last caller outside this
    /// crate's tests, can drop it.
    ///
    /// There is deliberately no parallel variant: the caches are the state
    /// every record reads and writes, so a fan-out has to copy them per
    /// worker and fold them back per call — work proportional to the
    /// accumulated cache, not to the trace.
    ///
    /// # Errors
    ///
    /// Fails at the first lookup whose client is unroutable. An unroutable
    /// record fails before it touches a cache, so the records before it
    /// have been filtered and their observations appended to `out`, the
    /// caches reflect exactly those records, and nothing after the
    /// unroutable one is processed.
    pub fn process_trace_into<A: Authority + Copy>(
        &mut self,
        raws: &[CompactLookup],
        interner: &DomainInterner,
        authority: A,
        _policy: ExecPolicy,
        out: &mut Vec<CompactObserved>,
    ) -> Result<(), TopologyError> {
        for raw in raws {
            if let Some(observed) = self.process(raw, interner, authority)? {
                out.push(observed);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authority::StaticAuthority;
    use crate::time::SimDuration;

    fn d(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    fn raw(ms: u64, client: u32, name: &str) -> RawLookup {
        RawLookup::new(SimInstant::from_millis(ms), ClientId(client), d(name))
    }

    /// Lets one test body drive either instantiation from name-carrying
    /// records: the name-keyed side processes one record at a time, the
    /// id-keyed side interns, compacts, filters and hydrates.
    trait Filter {
        fn filter(
            &mut self,
            trace: &[RawLookup],
            auth: &StaticAuthority,
            policy: ExecPolicy,
        ) -> Vec<ObservedLookup>;
    }

    impl Filter for Topology<DomainName> {
        fn filter(
            &mut self,
            trace: &[RawLookup],
            auth: &StaticAuthority,
            _policy: ExecPolicy,
        ) -> Vec<ObservedLookup> {
            trace
                .iter()
                .filter_map(|raw| self.process(raw, auth).unwrap())
                .collect()
        }
    }

    impl Filter for Topology<DomainId> {
        fn filter(
            &mut self,
            trace: &[RawLookup],
            auth: &StaticAuthority,
            policy: ExecPolicy,
        ) -> Vec<ObservedLookup> {
            let mut interner = DomainInterner::new();
            let compact: Vec<CompactLookup> = trace
                .iter()
                .map(|r| {
                    interner.intern(r.domain.clone());
                    r.compact()
                })
                .collect();
            let mut seen = Vec::new();
            self.process_trace_into(&compact, &interner, auth, policy, &mut seen)
                .unwrap();
            seen.iter()
                .map(|o| {
                    let domain = interner.resolve(o.domain).expect("interned");
                    ObservedLookup::new(o.t, o.server, domain.clone())
                })
                .collect()
        }
    }

    #[test]
    fn single_local_filters_duplicates() {
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        let first = topo.process(&raw(0, 1, "nx.example"), &auth).unwrap();
        assert!(first.is_some());
        assert_eq!(first.unwrap().server, ServerId(1));
        // Different client, same domain, within negative TTL: absorbed.
        assert!(topo
            .process(&raw(1000, 2, "nx.example"), &auth)
            .unwrap()
            .is_none());
        // After negative TTL expiry: visible again.
        let later = 2 * 3_600_000 + 1;
        assert!(topo
            .process(&raw(later, 3, "nx.example"), &auth)
            .unwrap()
            .is_some());
    }

    /// A one-level tree with `n` local resolvers under the border, and
    /// their ids.
    fn star<K: Key>(n: usize) -> (Topology<K>, Vec<ServerId>) {
        let mut b = TopologyBuilder::new(TtlPolicy::paper_default());
        let servers = (0..n).map(|_| b.add_resolver_under_border()).collect();
        (b.into(), servers)
    }

    fn star_attributes_forwarding_server<K: Key>()
    where
        Topology<K>: Filter,
    {
        let (mut topo, servers) = star::<K>(2);
        topo.assign_client(ClientId(1), servers[0]).unwrap();
        topo.assign_client(ClientId(2), servers[1]).unwrap();
        // Same domain via the *other* resolver: its own cache is cold, so it
        // still reaches the border and is attributed to server 2.
        let seen = topo.filter(
            &[raw(0, 1, "nx.example"), raw(5, 2, "nx.example")],
            &StaticAuthority::empty(),
            ExecPolicy::Sequential,
        );
        let by: Vec<ServerId> = seen.iter().map(|o| o.server).collect();
        assert_eq!(by, servers);
    }

    #[test]
    fn star_attributes_forwarding_server_for_both_keys() {
        star_attributes_forwarding_server::<DomainName>();
        star_attributes_forwarding_server::<DomainId>();
    }

    fn two_level_hierarchy_masks_at_middle<K: Key>()
    where
        Topology<K>: Filter,
    {
        let mut b = TopologyBuilder::new(TtlPolicy::paper_default());
        let site = b.add_resolver_under_border();
        let floor1 = b.add_resolver(site).unwrap();
        let floor2 = b.add_resolver(site).unwrap();
        let mut topo = Topology::<K>::from(b);
        topo.assign_client(ClientId(1), floor1).unwrap();
        topo.assign_client(ClientId(2), floor2).unwrap();

        // Client 1's lookup reaches the border, attributed to `site` (the
        // last forwarder below the border). Client 2 goes through floor2
        // (cold) but hits site's warm cache: absorbed in the middle of the
        // hierarchy. Absorption serves site's cached answer without floor2
        // learning it, so a repeat via floor2 is absorbed again at site.
        let seen = topo.filter(
            &[
                raw(0, 1, "nx.example"),
                raw(10, 2, "nx.example"),
                raw(20, 2, "nx.example"),
            ],
            &StaticAuthority::empty(),
            ExecPolicy::Sequential,
        );
        assert_eq!(seen.len(), 1);
        assert_eq!((seen[0].t.as_millis(), seen[0].server), (0, site));
        assert_eq!(topo.cache_stats(floor2).hits(), 0);
        assert_eq!(topo.cache_stats(site).hits(), 2);
    }

    #[test]
    fn two_level_hierarchy_masks_at_middle_for_both_keys() {
        two_level_hierarchy_masks_at_middle::<DomainName>();
        two_level_hierarchy_masks_at_middle::<DomainId>();
    }

    #[test]
    fn routing_errors() {
        let (mut topo, _) = star::<DomainName>(1);
        let auth = StaticAuthority::empty();
        let err = topo.process(&raw(0, 9, "nx.example"), &auth).unwrap_err();
        assert_eq!(err, TopologyError::UnroutedClient(ClientId(9)));
        assert_eq!(
            topo.assign_client(ClientId(1), ServerId(0)),
            Err(TopologyError::BorderNotALeaf)
        );
        assert_eq!(
            topo.assign_client(ClientId(1), ServerId(42)),
            Err(TopologyError::UnknownServer(ServerId(42)))
        );
        assert!(err.to_string().contains("client-9"));
    }

    #[test]
    fn positive_answers_cached_longer() {
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::from_domains([d("c2.example")]);
        assert!(topo
            .process(&raw(0, 1, "c2.example"), &auth)
            .unwrap()
            .is_some());
        // 12 hours later: still inside the 1-day positive TTL.
        let t = SimDuration::from_hours(12).as_millis();
        assert!(topo
            .process(&raw(t, 2, "c2.example"), &auth)
            .unwrap()
            .is_none());
    }

    fn filter_preserves_order_and_filters<K: Key>()
    where
        Topology<K>: Filter,
    {
        let mut topo = Topology::<K>::single_local(TtlPolicy::paper_default());
        let trace = vec![
            raw(0, 1, "a.example"),
            raw(10, 1, "b.example"),
            raw(20, 2, "a.example"), // absorbed
            raw(30, 2, "c.example"),
        ];
        let obs = topo.filter(&trace, &StaticAuthority::empty(), ExecPolicy::Sequential);
        let names: Vec<&str> = obs.iter().map(|o| o.domain.as_str()).collect();
        assert_eq!(names, vec!["a.example", "b.example", "c.example"]);
    }

    #[test]
    fn filter_preserves_order_and_filters_for_both_keys() {
        filter_preserves_order_and_filters::<DomainName>();
        filter_preserves_order_and_filters::<DomainId>();
    }

    /// Filters `len` records with heavy domain re-use (so cache state
    /// actually matters) under `policy` on a fresh single-local topology,
    /// then re-asks for every domain just after the trace ends.
    fn filter_reuse_heavy_trace<K: Key>(
        len: u64,
        policy: ExecPolicy,
    ) -> (Vec<ObservedLookup>, [CacheStats; 2])
    where
        Topology<K>: Filter,
    {
        let trace: Vec<RawLookup> = (0..len)
            .map(|i| raw(i * 10, (i % 7) as u32, &format!("d{}.example", i % 97)))
            .collect();
        let auth = StaticAuthority::from_domains([d("d3.example"), d("d55.example")]);
        let mut topo = Topology::<K>::single_local(TtlPolicy::paper_default());
        let seen = topo.filter(&trace, &auth, policy);
        let stats = [topo.cache_stats(ServerId(0)), topo.cache_stats(ServerId(1))];

        // The caches the call leaves behind keep filtering: every domain the
        // trace touched is still cached a moment after its last record.
        let follow_up: Vec<RawLookup> = (0..len.min(97))
            .map(|k| raw(len * 10, 1, &format!("d{k}.example")))
            .collect();
        assert!(topo.filter(&follow_up, &auth, policy).is_empty());
        (seen, stats)
    }

    #[test]
    fn filter_is_policy_independent_for_both_keys() {
        for len in [4000, 1] {
            let reference = filter_reuse_heavy_trace::<DomainName>(len, ExecPolicy::Sequential);
            assert!(!reference.0.is_empty());
            // The policy changes nothing — observed trace and both nodes'
            // cache stats — and the id-keyed topology is bit-identical to
            // the name-keyed one under each.
            for policy in [
                ExecPolicy::Sequential,
                ExecPolicy::with_threads(2),
                ExecPolicy::with_threads(8),
            ] {
                assert_eq!(
                    filter_reuse_heavy_trace::<DomainName>(len, policy),
                    reference
                );
                assert_eq!(filter_reuse_heavy_trace::<DomainId>(len, policy), reference);
            }
        }
    }

    #[test]
    fn unroutable_client_stops_the_trace_after_the_records_before_it() {
        let auth = StaticAuthority::empty();
        let mut interner = DomainInterner::new();
        let trace: Vec<CompactLookup> = [
            raw(0, 1, "a.example"),
            raw(10, 1, "a.example"), // absorbed
            raw(20, 9, "b.example"), // client 9 has no resolver
            raw(30, 1, "c.example"),
        ]
        .iter()
        .map(|r| {
            interner.intern(r.domain.clone());
            r.compact()
        })
        .collect();

        for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(4)] {
            let (mut topo, _) = star::<DomainId>(1);
            topo.assign_client(ClientId(1), ServerId(1)).unwrap();
            let mut out = Vec::new();
            let err = topo
                .process_trace_into(&trace, &interner, &auth, policy, &mut out)
                .unwrap_err();
            assert_eq!(err, TopologyError::UnroutedClient(ClientId(9)));
            // The two records before the unroutable one were filtered and
            // the visible one appended ...
            assert_eq!(
                out,
                vec![CompactObserved::new(
                    trace[0].t,
                    ServerId(1),
                    trace[0].domain
                )]
            );
            // ... the caches saw exactly those two (one miss, one hit) ...
            let stats = topo.cache_stats(ServerId(1));
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.hits(), 1);
            // ... and nothing after it ran: c.example still reaches the border.
            assert!(topo.process(&trace[3], &interner, &auth).unwrap().is_some());
        }
    }

    #[test]
    fn cache_stats_accessible_per_node() {
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        topo.process(&raw(0, 1, "a.example"), &auth).unwrap();
        topo.process(&raw(1, 1, "a.example"), &auth).unwrap();
        let s = topo.cache_stats(ServerId(1));
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses, 1);
    }
}
