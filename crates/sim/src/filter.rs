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
//! lookups it admits. DESIGN.md §8 ("Filtering by domain") has the
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
pub(crate) struct DomainFilter<'a, A> {
    ttl: TtlPolicy,
    names: &'a [DomainName],
    authority: A,
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

impl<'a, A: Authority> DomainFilter<'a, A> {
    /// A filter with cold caches over the slot table `names` (the
    /// interner's `names()`).
    pub(crate) fn new(ttl: TtlPolicy, names: &'a [DomainName], authority: A) -> Self {
        DomainFilter {
            ttl,
            names,
            authority,
            domains: vec![DomainState::default(); names.len()],
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
    /// Returns how many lookups the shard held. Every lookup of a shard
    /// must be at or after every lookup of the shards filtered before it.
    pub(crate) fn filter_shard(
        &mut self,
        runs: &[Vec<SlotLookup>],
        out: &mut Vec<SlotObserved>,
    ) -> usize {
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
            let answer = self.authority.resolve(first.t, &self.names[slot as usize]);
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
            self.replay_candidates(runs);
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
    fn replay_candidates(&mut self, runs: &[Vec<SlotLookup>]) {
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
                    let answer = self.authority.resolve(c.t, &self.names[c.slot as usize]);
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
