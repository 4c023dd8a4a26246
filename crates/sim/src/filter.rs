//! The pipeline's TTL-cache filter, one domain at a time.
//!
//! Under the visibility rule of `botmeter_dns::Topology` every cache is
//! unbounded, so whether a lookup reaches the border depends only on the
//! earlier lookups of the *same domain*. With one local resolver under
//! the border (`Topology::single_local`, the paper's synthetic setting) the
//! two caches also move in lockstep: the border is asked only on a local
//! miss, both store the same answer at the same instant with the same TTL,
//! so a local miss is always a border miss and the border never absorbs a
//! lookup. The filter therefore needs no global order: [`DomainFilter`]
//! reduces a shard's lookups per domain in one pass and orders only the
//! lookups it admits. Its callers are the scenario pipeline (time shards)
//! and the enterprise simulator (one shard per day, days overlapping where
//! replays run past midnight). DESIGN.md §8 ("Filtering by domain") has the
//! exactness argument.

use botmeter_dns::{
    Answer, Authority, CacheStats, CachedAnswer, ClientId, DomainName, ServerId, SimInstant,
    TtlPolicy,
};
use botmeter_faults::FaultRecord;
use botmeter_obs::Obs;

/// The border: server 0 of `Topology::single_local`.
const BORDER: ServerId = ServerId(0);

/// The one local resolver of `Topology::single_local`, which every
/// admitted lookup is attributed to.
pub(crate) const LOCAL: ServerId = ServerId(1);

/// A raw lookup inside the pipeline: 16 bytes, `Copy`, the domain as its
/// dense `DomainInterner` slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotLookup {
    pub(crate) t: SimInstant,
    pub(crate) client: ClientId,
    pub(crate) slot: u32,
}

/// An admitted lookup between the filter and hydration: the fault stream
/// moves these, and hydration reads the name from the slot table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotObserved {
    pub(crate) t: SimInstant,
    pub(crate) slot: u32,
}

impl FaultRecord for SlotObserved {
    fn t(&self) -> SimInstant {
        self.t
    }
    fn set_t(&mut self, t: SimInstant) {
        self.t = t;
    }
    fn server(&self) -> ServerId {
        LOCAL
    }
}

/// A lookup that found no live entry, keyed for the trace order
/// `(t, client, position in the shard)`. The position stands in for the
/// reference's stable sort: the shard's runs, walked in order, are the
/// replay order restricted to the shard.
#[derive(Debug, Clone, Copy, Default)]
struct Candidate {
    t: SimInstant,
    client: ClientId,
    pos: usize,
    slot: u32,
}

impl Candidate {
    fn at(l: &SlotLookup, pos: usize) -> Self {
        Candidate {
            t: l.t,
            client: l.client,
            pos,
            slot: l.slot,
        }
    }

    fn key(&self) -> (SimInstant, ClientId, usize) {
        (self.t, self.client, self.pos)
    }
}

/// One domain's state: the entry both caches hold for it, carried across
/// shards, and its candidates in the shard being filtered.
#[derive(Debug, Clone, Copy, Default)]
struct DomainState {
    entry: Option<CachedAnswer>,
    /// The number of the last shard this domain had a candidate in (shards
    /// are numbered from 1, so 0 is "none yet").
    shard: u32,
    /// How many candidates it has in that shard.
    candidates: usize,
    /// The earliest of them in trace order.
    first: Candidate,
    /// The latest candidate time.
    last: SimInstant,
    /// Whether its candidates are being replayed one by one.
    replay: bool,
}

impl DomainState {
    /// The entry, if it is still live at `t`.
    fn live(&self, t: SimInstant) -> Option<CachedAnswer> {
        self.entry.filter(|e| t < e.expires_at)
    }
}

/// The pipeline's filter: per-domain cache state over dense slots, the
/// local resolver's cache counters, and scratch reused across shards.
pub(crate) struct DomainFilter {
    ttl: TtlPolicy,
    domains: Vec<DomainState>,
    shard: u32,
    touched: Vec<u32>,
    replaying: Vec<u32>,
    replay: Vec<Candidate>,
    admitted: Vec<Candidate>,
    local: CacheStats,
    lookups: u64,
    admitted_total: u64,
}

impl DomainFilter {
    /// A filter with cold caches.
    pub(crate) fn new(ttl: TtlPolicy) -> Self {
        DomainFilter {
            ttl,
            domains: Vec::new(),
            shard: 0,
            touched: Vec::new(),
            replaying: Vec::new(),
            replay: Vec::new(),
            admitted: Vec::new(),
            local: CacheStats::default(),
            lookups: 0,
            admitted_total: 0,
        }
    }

    /// Filters one shard — the concatenation of `runs`, in replay order —
    /// and appends what reaches the border to `out` in trace order.
    /// Returns how many lookups the shard held.
    ///
    /// `names` is the slot table (the interner's `names()`, which may have
    /// grown since the last shard) and `authority` answers the misses.
    /// The result is the walk of a name-keyed `Topology::single_local`
    /// over each shard sorted on its own, shard after shard. Shards may
    /// overlap in time: a lookup meets its domain's entry from the shards
    /// before through `DnsCache::lookup`'s own predicate, `t <
    /// expires_at`, whether it is earlier than the lookup that stored the
    /// entry or not.
    pub(crate) fn filter_shard<A: Authority>(
        &mut self,
        runs: &[Vec<SlotLookup>],
        names: &[DomainName],
        authority: &A,
        out: &mut Vec<SlotObserved>,
    ) -> usize {
        if self.domains.len() < names.len() {
            self.domains.resize(names.len(), DomainState::default());
        }
        self.shard += 1;
        let shard = self.shard;
        // The pass: a lookup before its domain's incoming entry expires is
        // absorbed; every other one is a candidate, and the domain's
        // earliest candidate is the one that reaches the border.
        let mut pos = 0;
        for run in runs {
            for l in run {
                let d = &mut self.domains[l.slot as usize];
                match d.live(l.t) {
                    Some(e) => count_hits(&mut self.local, e.answer, 1),
                    None if d.shard == shard => {
                        d.candidates += 1;
                        if (l.t, l.client) < (d.first.t, d.first.client) {
                            d.first = Candidate::at(l, pos);
                        }
                        d.last = d.last.max(l.t);
                    }
                    None => {
                        *d = DomainState {
                            shard,
                            candidates: 1,
                            first: Candidate::at(l, pos),
                            last: l.t,
                            ..*d
                        };
                        self.touched.push(l.slot);
                    }
                }
                pos += 1;
            }
        }
        let lookups = pos;

        // The earliest candidate evicts the expired entry, if any, and
        // stores a fresh one. If that entry outlives the domain's last
        // candidate, it absorbs all the others; otherwise (a TTL shorter
        // than the domain's span in the shard, or zero) they are replayed.
        for slot in self.touched.drain(..) {
            let d = &mut self.domains[slot as usize];
            let first = d.first;
            let answer = authority.resolve(first.t, &names[slot as usize]);
            let fresh = entry(&self.ttl, first.t, answer);
            if d.candidates == 1 || fresh.is_some_and(|e| d.last < e.expires_at) {
                count_miss(&mut self.local, d.entry);
                count_hits(&mut self.local, answer, (d.candidates - 1) as u64);
                d.entry = fresh;
                self.admitted.push(first);
            } else {
                d.replay = true;
                self.replaying.push(slot);
            }
        }
        if !self.replaying.is_empty() {
            self.replay_candidates(runs, names, authority);
        }

        self.admitted.sort_unstable_by_key(Candidate::key);
        self.lookups += lookups as u64;
        self.admitted_total += self.admitted.len() as u64;
        out.extend(self.admitted.drain(..).map(|c| SlotObserved {
            t: c.t,
            slot: c.slot,
        }));
        lookups
    }

    /// The per-lookup rule, in trace order, over the candidates of the
    /// domains marked for replay: the walk the name-keyed topology makes,
    /// restricted to those domains.
    fn replay_candidates<A: Authority>(
        &mut self,
        runs: &[Vec<SlotLookup>],
        names: &[DomainName],
        authority: &A,
    ) {
        let mut pos = 0;
        for run in runs {
            for l in run {
                let d = &self.domains[l.slot as usize];
                if d.replay && d.live(l.t).is_none() {
                    self.replay.push(Candidate::at(l, pos));
                }
                pos += 1;
            }
        }
        for slot in self.replaying.drain(..) {
            self.domains[slot as usize].replay = false;
        }
        self.replay.sort_unstable_by_key(Candidate::key);
        for c in self.replay.drain(..) {
            let d = &mut self.domains[c.slot as usize];
            match d.live(c.t) {
                Some(e) => count_hits(&mut self.local, e.answer, 1),
                None => {
                    count_miss(&mut self.local, d.entry);
                    let answer = authority.resolve(c.t, &names[c.slot as usize]);
                    d.entry = entry(&self.ttl, c.t, answer);
                    self.admitted.push(c);
                }
            }
        }
    }

    /// Pushes the run's totals under the names `Topology` uses:
    /// `cache.s{0,1}.*` (only non-zero counters) and, once any lookup was
    /// filtered, `topology.lookups` / `admitted` / `filtered`.
    pub(crate) fn record_metrics(&self, obs: &Obs) {
        if !obs.enabled() {
            return;
        }
        // The border is asked exactly on a local miss and, in lockstep,
        // misses and evicts with it; it absorbs nothing.
        let border = CacheStats {
            misses: self.local.misses,
            expired_evictions: self.local.expired_evictions,
            ..CacheStats::default()
        };
        for (server, stats) in [(BORDER, border), (LOCAL, self.local)] {
            let fields = [
                ("pos_hits", stats.positive_hits),
                ("neg_hits", stats.negative_hits),
                ("misses", stats.misses),
                ("expired_evictions", stats.expired_evictions),
            ];
            for (field, n) in fields {
                if n > 0 {
                    obs.counter_add(&format!("cache.s{}.{field}", server.0), n);
                }
            }
        }
        if self.lookups > 0 {
            obs.counter_add("topology.lookups", self.lookups);
            obs.counter_add("topology.admitted", self.admitted_total);
            obs.counter_add("topology.filtered", self.lookups - self.admitted_total);
        }
    }
}

/// The entry a lookup answered with `answer` at `t` leaves behind (none
/// under a zero TTL).
fn entry(ttl: &TtlPolicy, t: SimInstant, answer: Answer) -> Option<CachedAnswer> {
    let ttl = ttl.for_answer(answer);
    (!ttl.is_zero()).then(|| CachedAnswer {
        answer,
        expires_at: t + ttl,
    })
}

/// Counts `n` lookups absorbed by an entry holding `answer`.
fn count_hits(stats: &mut CacheStats, answer: Answer, n: u64) {
    match answer {
        Answer::Address(_) => stats.positive_hits += n,
        Answer::NxDomain => stats.negative_hits += n,
    }
}

/// Counts a lookup that found no live entry; an expired `incoming` one is
/// evicted by it.
fn count_miss(stats: &mut CacheStats, incoming: Option<CachedAnswer>) {
    stats.misses += 1;
    stats.expired_evictions += u64::from(incoming.is_some());
}

#[cfg(test)]
mod tests {
    use super::*;
    use botmeter_dns::{DnsCache, SimDuration, StaticAuthority};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// Shards that overlap in time — each starts before the last one
    /// ends, as an enterprise day's replays run past midnight — filtered
    /// by domain equal a `DnsCache` walk over each shard stable-sorted by
    /// `(t, client)`, shard after shard: the same admitted lookups in the
    /// same order, and the same counters.
    #[test]
    fn overlapping_shards_filter_like_a_per_shard_sorted_cache_walk() {
        let names: Vec<DomainName> = (0..6)
            .map(|i| format!("d{i}.example").parse().unwrap())
            .collect();
        let authority = StaticAuthority::from_domains(names[..2].iter().cloned());
        let secs = SimDuration::from_secs;
        let policies = [
            TtlPolicy::new(secs(30), secs(10)),
            TtlPolicy::new(secs(300), SimDuration::ZERO),
            TtlPolicy::new(SimDuration::ZERO, SimDuration::ZERO),
            TtlPolicy::new(secs(5), secs(5)),
        ];
        let mut rng = ChaCha12Rng::seed_from_u64(17);
        for ttl in policies {
            let mut filter = DomainFilter::new(ttl);
            let mut cache: DnsCache = DnsCache::new();
            let mut overlapped = false;
            let mut last_end = 0u64;
            for shard in 0..40u64 {
                // Shard k spans [100k − 40, 100k + 100) seconds.
                let start = (shard * 100).saturating_sub(40);
                let runs: Vec<Vec<SlotLookup>> = (0..rng.gen_range(1..4usize))
                    .map(|_| {
                        (0..rng.gen_range(0..12usize))
                            .map(|_| SlotLookup {
                                t: SimInstant::from_millis(
                                    rng.gen_range(start * 1000..(shard * 100 + 100) * 1000),
                                ),
                                client: ClientId(rng.gen_range(0..3)),
                                slot: rng.gen_range(0..names.len() as u32),
                            })
                            .collect()
                    })
                    .collect();
                let mut walk: Vec<SlotLookup> = runs.concat();
                if let Some(first) = walk.iter().map(|l| l.t.as_millis()).min() {
                    overlapped |= first < last_end;
                    last_end = last_end.max(walk.iter().map(|l| l.t.as_millis()).max().unwrap());
                }
                walk.sort_by_key(|l| (l.t, l.client));
                let mut expected = Vec::new();
                for l in &walk {
                    let name = &names[l.slot as usize];
                    if cache.lookup(l.t, name).is_none() {
                        let answer = authority.resolve(l.t, name);
                        cache.store(l.t, name.clone(), answer, &ttl);
                        expected.push((l.t, l.slot));
                    }
                }
                let mut out = Vec::new();
                let held = filter.filter_shard(&runs, &names, &authority, &mut out);
                assert_eq!(held, walk.len());
                let admitted: Vec<_> = out.iter().map(|o| (o.t, o.slot)).collect();
                assert_eq!(admitted, expected, "{ttl:?}, shard {shard}");
            }
            assert!(overlapped, "no shard started before the previous one ended");
            assert_eq!(filter.local, cache.stats(), "{ttl:?}");
        }
    }
}
