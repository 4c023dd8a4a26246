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
//! [`DomainId`], filtering `Copy` [`CompactLookup`]s — what the simulation
//! pipeline runs). Only the record adapters differ per key.

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
use botmeter_obs::Obs;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// Identifier of the border (root) server in every topology.
const BORDER: ServerId = ServerId(0);

/// What a [`Topology`]'s caches can be keyed by: [`DomainName`] or
/// [`DomainId`]. Not exported — the two instantiations are the public
/// surface.
pub trait Key: Hash + Eq + Ord + Clone + Send + Sync {
    /// The domain's content fingerprint, which the parallel trace path
    /// shards by.
    fn id(&self) -> DomainId;
}

impl Key for DomainName {
    fn id(&self) -> DomainId {
        DomainName::id(self)
    }
}

impl Key for DomainId {
    fn id(&self) -> DomainId {
        *self
    }
}

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
/// topo.set_default_leaf(site_b)?;
/// assert_eq!(topo.local_servers().len(), 3);
/// # let _ = floor;
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
    pub fn add_resolver_under_border(&mut self) -> ServerId {
        self.add_resolver(BORDER).expect("border always exists")
    }

    /// Adds a resolver forwarding to `parent`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownServer`] if `parent` was never
    /// created.
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
            obs: Obs::noop(),
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
/// records and resolves a name through the interner's bytes arena only on
/// a border cache miss, so its per-lookup path touches no `Arc` refcount
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
    obs: Obs,
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

    /// A one-level topology with `n` local resolvers under the border
    /// (clients must be assigned, or a default leaf set, before processing).
    pub fn star(ttl: TtlPolicy, n: usize) -> Self {
        let mut b = TopologyBuilder::new(ttl);
        for _ in 0..n {
            b.add_resolver_under_border();
        }
        b.into()
    }

    /// The border server's id (always `ServerId(0)`).
    pub fn border(&self) -> ServerId {
        BORDER
    }

    /// Ids of all non-border resolvers.
    pub fn local_servers(&self) -> Vec<ServerId> {
        (1..self.nodes.len() as u32).map(ServerId).collect()
    }

    /// Routes every client without an explicit assignment to `leaf`.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownServer`] for a nonexistent id,
    /// [`TopologyError::BorderNotALeaf`] for the border.
    pub fn set_default_leaf(&mut self, leaf: ServerId) -> Result<(), TopologyError> {
        self.check_leaf(leaf)?;
        self.default_leaf = Some(leaf);
        Ok(())
    }

    /// Assigns one client to a specific local resolver.
    ///
    /// # Errors
    ///
    /// Same as [`set_default_leaf`](Self::set_default_leaf).
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
    pub fn route(&self, client: ClientId) -> Result<ServerId, TopologyError> {
        self.client_map
            .get(&client)
            .copied()
            .or(self.default_leaf)
            .ok_or(TopologyError::UnroutedClient(client))
    }

    /// Attaches an observability handle; subsequent trace-level calls
    /// report per-server cache deltas (`cache.s{id}.*`) and border
    /// admission counters (`topology.lookups` / `topology.admitted` /
    /// `topology.filtered`) through it. The default handle is the no-op
    /// one.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Cache statistics of one node.
    ///
    /// # Panics
    ///
    /// Panics if `server` does not exist.
    pub fn cache_stats(&self, server: ServerId) -> CacheStats {
        self.nodes[server.0 as usize].cache.stats()
    }

    /// Clears every cache in the hierarchy.
    pub fn clear_caches(&mut self) {
        for node in &mut self.nodes {
            node.cache.clear();
        }
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

    /// Runs a whole raw trace (assumed time-ordered) through the hierarchy
    /// under `policy`, appending the border-visible sub-trace to `out`.
    /// `step` filters one record (a key type's `process`); `route_key`
    /// names a record's client and domain for the parallel path.
    /// Sequential and parallel policies produce bit-identical output and
    /// cache state.
    ///
    /// The parallel path shards the trace by [`DomainId`]: cache visibility
    /// is a per-domain property when every cache is unbounded (the
    /// simulated topologies), because entries are domain-keyed and never
    /// evicted by other domains' traffic. It falls back to sequential
    /// processing when a capacity-bounded cache is present (evictions
    /// couple domains), when only one worker thread is configured, or when
    /// the trace is too short to be worth sharding.
    fn filter_trace<R: Sync, O: Send>(
        &mut self,
        raws: &[R],
        policy: ExecPolicy,
        out: &mut Vec<O>,
        route_key: impl Fn(&R) -> (ClientId, DomainId) + Sync,
        step: impl Fn(&mut Self, &R) -> Result<Option<O>, TopologyError> + Sync,
    ) -> Result<(), TopologyError> {
        const MIN_PARALLEL_TRACE: usize = 2048;
        let base_stats: Option<Vec<CacheStats>> = self
            .obs
            .enabled()
            .then(|| self.nodes.iter().map(|n| n.cache.stats()).collect());
        let admitted_before = out.len();

        let shards = policy.worker_threads();
        let bounded = self.nodes.iter().any(|n| n.cache.capacity().is_some());
        if shards <= 1 || bounded || raws.len() < MIN_PARALLEL_TRACE {
            for raw in raws {
                if let Some(observed) = step(self, raw)? {
                    out.push(observed);
                }
            }
        } else {
            self.process_trace_sharded(raws, shards, out, route_key, step)?;
        }

        if let Some(base) = base_stats {
            self.push_cache_deltas(&base);
            self.obs.counter_add("topology.lookups", raws.len() as u64);
            let admitted = out.len() - admitted_before;
            self.obs.counter_add("topology.admitted", admitted as u64);
            self.obs
                .counter_add("topology.filtered", (raws.len() - admitted) as u64);
        }
        Ok(())
    }

    /// The domain-sharded parallel path of
    /// [`filter_trace`](Self::filter_trace): all lookups for one domain
    /// land in one shard with relative order preserved, which reproduces
    /// the sequential outcome bit-for-bit; the shards' observed lookups are
    /// stitched back into trace order afterwards, the shards' cache entries
    /// and stat deltas merged into `self`. Pre-routes every client, so on
    /// error the caches are unchanged.
    fn process_trace_sharded<R: Sync, O: Send>(
        &mut self,
        raws: &[R],
        shards: usize,
        out: &mut Vec<O>,
        route_key: impl Fn(&R) -> (ClientId, DomainId) + Sync,
        step: impl Fn(&mut Self, &R) -> Result<Option<O>, TopologyError> + Sync,
    ) -> Result<(), TopologyError> {
        let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (i, raw) in raws.iter().enumerate() {
            let (client, domain) = route_key(raw);
            self.route(client)?;
            parts[(domain.0 % shards as u64) as usize].push(i);
        }

        let base_stats: Vec<CacheStats> = self.nodes.iter().map(|n| n.cache.stats()).collect();
        let template: &Self = self;
        let shard_results: Vec<(Self, Vec<(usize, O)>)> = botmeter_exec::run_indexed_with(
            ExecPolicy::with_threads(shards),
            &self.obs,
            shards,
            |s| {
                let mut topo = template.clone();
                let mut visible = Vec::new();
                for &i in &parts[s] {
                    if let Some(observed) =
                        step(&mut topo, &raws[i]).expect("every client pre-routed")
                    {
                        visible.push((i, observed));
                    }
                }
                (topo, visible)
            },
        );

        // Stitch observations back into trace order. Each shard's list is
        // already ascending in trace index, so this is a k-way merge; a sort
        // by unique index gives the same result with less code.
        let mut indexed: Vec<(usize, O)> = Vec::new();
        for (s, (shard_topo, visible)) in shard_results.into_iter().enumerate() {
            indexed.extend(visible);
            for (n, shard_node) in shard_topo.nodes.into_iter().enumerate() {
                let shards = shards as u64;
                self.nodes[n]
                    .cache
                    .absorb_shard(shard_node.cache, base_stats[n], move |d: &K| {
                        (d.id().0 % shards) as usize == s
                    });
            }
        }
        indexed.sort_by_key(|(i, _)| *i);
        out.extend(indexed.into_iter().map(|(_, observed)| observed));
        Ok(())
    }

    /// Pushes the difference between the current per-node cache stats and
    /// `base` into the recorder as `cache.s{id}.*` counters. Batched at
    /// trace-batch boundaries so the per-lookup hot path stays free of
    /// recording calls; only non-zero deltas are pushed.
    fn push_cache_deltas(&self, base: &[CacheStats]) {
        for (n, node) in self.nodes.iter().enumerate() {
            let now = node.cache.stats();
            let prev = base[n];
            let fields = [
                ("pos_hits", now.positive_hits - prev.positive_hits),
                ("neg_hits", now.negative_hits - prev.negative_hits),
                ("misses", now.misses - prev.misses),
                (
                    "expired_evictions",
                    now.expired_evictions - prev.expired_evictions,
                ),
                (
                    "capacity_evictions",
                    now.capacity_evictions - prev.capacity_evictions,
                ),
            ];
            for (field, delta) in fields {
                if delta > 0 {
                    self.obs.counter_add(&format!("cache.s{n}.{field}"), delta);
                }
            }
        }
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

    /// Runs a whole raw trace (assumed time-ordered) through the hierarchy
    /// under `policy` and returns the border-visible sub-trace. Sequential
    /// and parallel policies produce bit-identical output and cache state
    /// (the parallel path shards by domain and falls back to sequential
    /// processing for one worker or a short trace).
    ///
    /// # Errors
    ///
    /// Fails if any lookup's client is unroutable. (The parallel path
    /// pre-routes and leaves the caches unchanged on error, whereas
    /// sequential processing stops mid-trace.)
    pub fn process_trace<A: Authority + Copy + Sync>(
        &mut self,
        raws: &[RawLookup],
        authority: A,
        policy: ExecPolicy,
    ) -> Result<Vec<ObservedLookup>, TopologyError> {
        let mut out = Vec::new();
        self.filter_trace(
            raws,
            policy,
            &mut out,
            |raw| (raw.client, raw.domain.id()),
            |topo, raw| topo.process(raw, authority),
        )?;
        Ok(out)
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
    /// hierarchy and appends the border-visible sub-trace to `out` — the
    /// caller owns (and recycles) the output buffer, keeping the sequential
    /// steady state allocation-free. Same policy semantics and fallbacks as
    /// the name-keyed `process_trace`.
    ///
    /// # Errors
    ///
    /// Fails if any lookup's client is unroutable. (The parallel path
    /// pre-routes and leaves the caches unchanged on error, whereas
    /// sequential processing stops mid-trace.)
    pub fn process_trace_into<A: Authority + Copy + Sync>(
        &mut self,
        raws: &[CompactLookup],
        interner: &DomainInterner,
        authority: A,
        policy: ExecPolicy,
        out: &mut Vec<CompactObserved>,
    ) -> Result<(), TopologyError> {
        self.filter_trace(
            raws,
            policy,
            out,
            |raw| (raw.client, raw.domain),
            |topo, raw| topo.process(raw, interner, authority),
        )
    }

    /// Convenience wrapper over
    /// [`process_trace_into`](Self::process_trace_into) returning a fresh
    /// buffer.
    ///
    /// # Errors
    ///
    /// Same as [`process_trace_into`](Self::process_trace_into).
    pub fn process_trace<A: Authority + Copy + Sync>(
        &mut self,
        raws: &[CompactLookup],
        interner: &DomainInterner,
        authority: A,
        policy: ExecPolicy,
    ) -> Result<Vec<CompactObserved>, TopologyError> {
        let mut out = Vec::new();
        self.process_trace_into(raws, interner, authority, policy, &mut out)?;
        Ok(out)
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
    /// records: the id-keyed side interns, compacts, filters and hydrates.
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
            policy: ExecPolicy,
        ) -> Vec<ObservedLookup> {
            self.process_trace(trace, auth, policy).unwrap()
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
            self.process_trace(&compact, &interner, auth, policy)
                .unwrap()
                .iter()
                .map(|o| o.hydrate(&interner).expect("interned"))
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

    fn star_attributes_forwarding_server<K: Key>()
    where
        Topology<K>: Filter,
    {
        let mut topo = Topology::<K>::star(TtlPolicy::paper_default(), 2);
        let servers = topo.local_servers();
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
        let mut topo = Topology::<DomainName>::star(TtlPolicy::paper_default(), 1);
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

    #[test]
    fn process_trace_preserves_order_and_filters() {
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        let trace = vec![
            raw(0, 1, "a.example"),
            raw(10, 1, "b.example"),
            raw(20, 2, "a.example"), // absorbed
            raw(30, 2, "c.example"),
        ];
        let obs = topo
            .process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        let names: Vec<&str> = obs.iter().map(|o| o.domain.as_str()).collect();
        assert_eq!(names, vec!["a.example", "b.example", "c.example"]);
    }

    #[test]
    fn clear_caches_resets_filtering() {
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        assert!(topo
            .process(&raw(0, 1, "a.example"), &auth)
            .unwrap()
            .is_some());
        topo.clear_caches();
        assert!(topo
            .process(&raw(1, 1, "a.example"), &auth)
            .unwrap()
            .is_some());
    }

    #[test]
    fn cache_stats_survive_clear_caches_and_stay_counter_consistent() {
        let (obs, registry) = Obs::collecting();
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        topo.set_obs(obs);
        let auth = StaticAuthority::empty();
        let trace: Vec<RawLookup> = (0..64u64)
            .map(|i| raw(i * 10, 1, &format!("d{}.example", i % 8)))
            .collect();
        topo.process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        let local = topo.local_servers()[0];
        let before = topo.cache_stats(local);
        assert!(before.hits() > 0 && before.misses > 0);

        // Clearing drops cached entries but not the lifetime statistics —
        // they track the same totals the pushed obs counters do.
        topo.clear_caches();
        assert_eq!(topo.cache_stats(local), before);
        let snap = registry.snapshot();
        let prefix = format!("cache.s{}.", local.0);
        assert_eq!(
            snap.counter(&format!("{prefix}neg_hits")),
            Some(before.negative_hits)
        );
        assert_eq!(
            snap.counter(&format!("{prefix}misses")),
            Some(before.misses)
        );

        // Further traffic keeps the cumulative stats and the pushed deltas
        // in lock-step: counter totals equal the stats totals at all times.
        topo.process_trace(&trace, &auth, ExecPolicy::Sequential)
            .unwrap();
        let after = topo.cache_stats(local);
        assert!(after.misses > before.misses);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(&format!("{prefix}neg_hits")),
            Some(after.negative_hits)
        );
        assert_eq!(snap.counter(&format!("{prefix}misses")), Some(after.misses));
    }

    /// A trace long enough to clear the parallel threshold, with heavy
    /// domain re-use so cache state actually matters; filtered under
    /// `policy` on a fresh single-local topology.
    fn filter_long_trace<K: Key>(policy: ExecPolicy) -> (Vec<ObservedLookup>, [CacheStats; 2])
    where
        Topology<K>: Filter,
    {
        let trace: Vec<RawLookup> = (0..4000u64)
            .map(|i| raw(i * 10, (i % 7) as u32, &format!("d{}.example", i % 97)))
            .collect();
        let auth = StaticAuthority::from_domains([d("d3.example"), d("d55.example")]);
        let mut topo = Topology::<K>::single_local(TtlPolicy::paper_default());
        let seen = topo.filter(&trace, &auth, policy);
        (
            seen,
            [topo.cache_stats(ServerId(0)), topo.cache_stats(ServerId(1))],
        )
    }

    #[test]
    fn parallel_trace_matches_sequential_exactly_for_both_keys() {
        let reference = filter_long_trace::<DomainName>(ExecPolicy::Sequential);
        assert!(!reference.0.is_empty());
        // Sharded filtering is bit-identical to the sequential scan —
        // observed trace and both nodes' cache stats — and the id-keyed
        // topology is bit-identical to the name-keyed one under either.
        assert_eq!(
            filter_long_trace::<DomainName>(ExecPolicy::with_threads(4)),
            reference
        );
        assert_eq!(
            filter_long_trace::<DomainId>(ExecPolicy::Sequential),
            reference
        );
        assert_eq!(
            filter_long_trace::<DomainId>(ExecPolicy::with_threads(4)),
            reference
        );
    }

    #[test]
    fn parallel_trace_leaves_caches_usable() {
        // After a parallel run the merged caches must keep filtering like
        // sequentially-warmed ones.
        let mut trace = Vec::new();
        for i in 0..3000u64 {
            trace.push(raw(i, (i % 3) as u32, &format!("d{}.example", i % 11)));
        }
        let auth = StaticAuthority::empty();
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        topo.process_trace(&trace, &auth, ExecPolicy::parallel())
            .unwrap();
        // Every one of the 11 domains is now negatively cached.
        let t_after = 3000 + 10;
        for k in 0..11 {
            assert!(topo
                .process(&raw(t_after, 1, &format!("d{k}.example")), &auth)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn parallel_trace_short_input_falls_back() {
        let auth = StaticAuthority::empty();
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let obs = topo
            .process_trace(&[raw(0, 1, "a.example")], &auth, ExecPolicy::parallel())
            .unwrap();
        assert_eq!(obs.len(), 1);
    }

    fn trace_metrics_report_cache_deltas_and_admission<K: Key>()
    where
        Topology<K>: Filter,
    {
        let (handle, registry) = Obs::collecting();
        let mut topo = Topology::<K>::single_local(TtlPolicy::paper_default());
        topo.set_obs(handle);
        let auth = StaticAuthority::from_domains([d("live.example")]);
        let trace = vec![
            raw(0, 1, "live.example"),
            raw(10, 2, "live.example"), // positive cache hit at the local
            raw(20, 1, "nx.example"),
            raw(30, 2, "nx.example"), // negative cache hit at the local
        ];
        let seen = topo.filter(&trace, &auth, ExecPolicy::Sequential);
        assert_eq!(seen.len(), 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("topology.lookups"), Some(4));
        assert_eq!(snap.counter("topology.admitted"), Some(2));
        assert_eq!(snap.counter("topology.filtered"), Some(2));
        // The local resolver is node 1.
        assert_eq!(snap.counter("cache.s1.pos_hits"), Some(1));
        assert_eq!(snap.counter("cache.s1.neg_hits"), Some(1));
        assert_eq!(snap.counter("cache.s1.misses"), Some(2));
        // Counters agree with the in-cache source of truth.
        let stats = topo.cache_stats(topo.local_servers()[0]);
        assert_eq!(stats.positive_hits, 1);
        assert_eq!(stats.negative_hits, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn trace_metrics_report_cache_deltas_and_admission_for_both_keys() {
        trace_metrics_report_cache_deltas_and_admission::<DomainName>();
        trace_metrics_report_cache_deltas_and_admission::<DomainId>();
    }

    #[test]
    fn cache_stats_accessible_per_node() {
        let mut topo = Topology::<DomainName>::single_local(TtlPolicy::paper_default());
        let auth = StaticAuthority::empty();
        topo.process(&raw(0, 1, "a.example"), &auth).unwrap();
        topo.process(&raw(1, 1, "a.example"), &auth).unwrap();
        let local = topo.local_servers()[0];
        let s = topo.cache_stats(local);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses, 1);
    }
}
