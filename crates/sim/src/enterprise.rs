//! The year-long enterprise scenario behind Fig. 7 and Table II.
//!
//! The paper's real deployment watched one local DNS server serving a
//! 22.5 K-address sub-network for a year, with three DGAs (newGoZ, Ramnit,
//! Qakbot) active at daily populations between 1 and ~100. We cannot ship
//! that proprietary trace, so this module synthesises its statistical
//! equivalent (DESIGN.md §3, substitution 1): benign Zipf background
//! traffic, per-family infection waves as daily ground-truth populations,
//! bot activations at random times of day, all filtered through one shared
//! caching resolver and quantised to 1-second timestamps.
//!
//! The resolver is the pipeline's [`DomainFilter`], one shard per day
//! (DESIGN.md §8, "Filtering by domain"). Days are produced on the worker
//! pool, each with its own pools, and filtered in day order on the calling
//! thread. Benign and bot lookups are 16-byte slot records: the benign
//! catalog takes slots `0..catalog`, and a pool name gets a slot when a bot
//! first queries it. The registrar gains each epoch's θ∃ names just before
//! a day's lookups reach it. A day whose replays run past midnight overlaps
//! the next one in time; the filter is exact on such shards, so the trace
//! is the one the per-day sorted walk of a name-keyed `Topology` gave, byte
//! for byte (the test oracle below keeps that walk).

use crate::background::{BenignAuthority, BenignTraffic, DualAuthority};
use crate::bot::walk_barrel;
use crate::filter::{DomainFilter, SlotLookup, SlotObserved, LOCAL};
use crate::waves::WaveConfig;
use botmeter_dga::{DgaFamily, EpochAuthority};
use botmeter_dns::{
    ClientId, DomainInterner, DomainName, ObservedLookup, SimDuration, SimInstant, TtlPolicy,
};
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use botmeter_stats::SeedSequence;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::cmp::Ordering;
use std::ops::Range;

/// One DGA infection inside the enterprise: a family plus its wave process.
#[derive(Debug, Clone)]
pub struct Infection {
    /// The DGA family the infected machines run.
    pub family: DgaFamily,
    /// The regime-switching process generating daily active populations.
    pub wave: WaveConfig,
}

impl Infection {
    /// Pairs a family with a wave configuration.
    pub fn new(family: DgaFamily, wave: WaveConfig) -> Self {
        Infection { family, wave }
    }
}

/// Specification of the synthetic enterprise network.
#[derive(Debug, Clone)]
pub struct EnterpriseSpec {
    days: u64,
    num_clients: u32,
    active_clients_per_day: u32,
    benign_catalog: usize,
    benign_lookups_per_client: f64,
    infections: Vec<Infection>,
    ttl: TtlPolicy,
    granularity: SimDuration,
    /// Maximum per-lookup timestamp noise applied to the *observed* trace
    /// (network/logging latency in a real deployment). Defaults to 400 ms,
    /// enough to knock fixed-interval lookups off their δi lattice once
    /// quantised to 1-second stamps — the effect §V-B blames for MT's
    /// collapse on the real traces.
    jitter: SimDuration,
    seed: u64,
}

impl EnterpriseSpec {
    /// The paper-scale configuration: 365 days, 22 500 client addresses,
    /// ~15 027 active per day, 1-second timestamps, and the three Table II
    /// infections (newGoZ, Ramnit, Qakbot).
    pub fn paper_scale(seed: u64) -> Self {
        EnterpriseSpec {
            days: 365,
            num_clients: 22_500,
            active_clients_per_day: 15_027,
            benign_catalog: 20_000,
            benign_lookups_per_client: 3.0,
            infections: vec![
                Infection::new(DgaFamily::new_goz(), WaveConfig::default()),
                Infection::new(DgaFamily::ramnit(), WaveConfig::default()),
                Infection::new(DgaFamily::qakbot(), WaveConfig::default()),
            ],
            ttl: TtlPolicy::paper_default(),
            granularity: SimDuration::from_secs(1),
            jitter: SimDuration::from_millis(400),
            seed,
        }
    }

    /// A small configuration for tests and examples: 20 days, 300 clients.
    pub fn quick(seed: u64) -> Self {
        EnterpriseSpec {
            days: 20,
            num_clients: 300,
            active_clients_per_day: 200,
            benign_catalog: 200,
            benign_lookups_per_client: 2.0,
            infections: vec![
                Infection::new(DgaFamily::new_goz(), WaveConfig::brisk()),
                Infection::new(DgaFamily::ramnit(), WaveConfig::brisk()),
            ],
            ttl: TtlPolicy::paper_default(),
            granularity: SimDuration::from_secs(1),
            jitter: SimDuration::from_millis(400),
            seed,
        }
    }

    /// Replaces the infection list.
    #[must_use]
    pub fn with_infections(mut self, infections: Vec<Infection>) -> Self {
        self.infections = infections;
        self
    }

    /// Sets the number of simulated days.
    #[must_use]
    pub fn with_days(mut self, days: u64) -> Self {
        self.days = days;
        self
    }

    /// Sets the observed-timestamp jitter bound (zero disables it).
    #[must_use]
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Number of simulated days.
    pub fn days(&self) -> u64 {
        self.days
    }

    /// The infections configured.
    pub fn infections(&self) -> &[Infection] {
        &self.infections
    }

    /// Runs the full simulation.
    ///
    /// Days are produced (benign traffic, bot replays, the day's pools) on
    /// the default worker pool and filtered in day order on the calling
    /// thread; the output does not depend on the worker count.
    ///
    /// # Panics
    ///
    /// Panics if no infections are configured or the infections disagree on
    /// epoch length.
    pub fn run(&self) -> EnterpriseOutcome {
        assert!(
            !self.infections.is_empty(),
            "enterprise scenario needs at least one infection"
        );
        let day = SimDuration::from_days(1);
        assert!(
            self.infections.iter().all(|i| i.family.epoch_len() == day),
            "enterprise scenario assumes daily epochs"
        );
        let seeds = SeedSequence::new(self.seed).fork_str("enterprise");
        let schedules = self.schedules(&seeds);

        // The benign catalog takes slots 0..catalog, so a benign lookup's
        // slot is its catalog index; a pool name gets a slot when a bot
        // first queries it.
        let benign = BenignTraffic::new(self.benign_catalog, 1.1, self.benign_lookups_per_client);
        let mut interner = DomainInterner::new();
        for (i, name) in benign.catalog().iter().enumerate() {
            assert_eq!(
                interner.slot(name) as usize,
                i,
                "catalog names are distinct"
            );
        }
        // The registrar: the union of every infection's θ∃ names, one
        // epoch pushed at a time as the days' bot lookups reach it.
        let mut registrar = EpochAuthority::from_valid_domains(day, []);
        let mut filter = DomainFilter::new(self.ttl);

        let mut client_ids: Vec<u32> = (0..self.num_clients).collect();
        let active = self.active_clients_per_day.min(self.num_clients) as usize;
        let mut admitted: Vec<SlotObserved> = Vec::new();
        let mut observed: Vec<ObservedLookup> = Vec::new();
        let mut raw_count = 0usize;
        let jitter_ms = self.jitter.as_millis();

        let mut consume = |d: u64, mut batch: DayBatch| {
            for (range, pool) in batch.bots {
                let mut slots = vec![NO_SLOT; pool.len()];
                for l in &mut batch.lookups[range] {
                    let idx = l.slot as usize;
                    if slots[idx] == NO_SLOT {
                        // A name of its own, so the slot table does not
                        // keep the day's whole pool buffer alive.
                        slots[idx] = interner.slot(&pool[idx].detached());
                    }
                    l.slot = slots[idx];
                }
            }

            // A day's replays may run past midnight, where the next epoch's
            // registrations answer. Cover every epoch up to the day's last
            // bot lookup, but none past epoch `days` (a lookup beyond it is
            // NXDOMAIN); epochs before today see no more lookups and stay
            // empty.
            if let Some(last) = batch.last_bot_lookup {
                let reach = last.epoch_day(day).min(self.days);
                while registrar.num_epochs() <= reach {
                    let e = registrar.num_epochs();
                    let valid = match e.cmp(&d) {
                        Ordering::Less => Vec::new(),
                        Ordering::Equal => std::mem::take(&mut batch.valid),
                        Ordering::Greater => self.valid_names(e),
                    };
                    registrar.push_epoch(valid);
                }
            }

            raw_count += batch.lookups.len();
            let authority = DualAuthority::new(&registrar, BenignAuthority);
            filter.filter_shard(
                std::slice::from_ref(&batch.lookups),
                interner.names(),
                &authority,
                &mut admitted,
            );
            let names = interner.names();
            // Observed stamps carry capture latency, drawn in trace order
            // from the day's rng; the caches saw the true times.
            let rng = &mut batch.rng;
            observed.extend(admitted.drain(..).map(|o| {
                let mut t = o.t;
                if jitter_ms > 0 {
                    t += SimDuration::from_millis(rng.gen_range(0..=jitter_ms));
                }
                ObservedLookup::new(
                    t.quantize(self.granularity),
                    LOCAL,
                    names[o.slot as usize].clone(),
                )
            }));
        };

        // The client shuffle chains from day to day, so it runs here, a
        // window of days at a time; each day's production then depends on
        // its own inputs only.
        let mut first = 0;
        while first < self.days {
            let last = self.days.min(first + DAY_WINDOW);
            let inputs: Vec<(ChaCha12Rng, Vec<u32>)> = (first..last)
                .map(|d| {
                    let mut day_rng =
                        ChaCha12Rng::seed_from_u64(seeds.fork_str("day").fork(d).seed());
                    client_ids.partial_shuffle(&mut day_rng, active);
                    (day_rng, client_ids[..active].to_vec())
                })
                .collect();
            botmeter_exec::run_pipelined_with(
                ExecPolicy::default(),
                &Obs::noop(),
                inputs.len(),
                |k| {
                    let (rng, clients) = &inputs[k];
                    self.produce_day(first + k as u64, &seeds, &schedules, &benign, rng, clients)
                },
                |k, batch| consume(first + k as u64, batch),
            );
            first = last;
        }

        EnterpriseOutcome {
            days: self.days,
            granularity: self.granularity,
            ttl: self.ttl,
            families: self.infections.iter().map(|i| i.family.clone()).collect(),
            ground_truth: schedules,
            observed,
            raw_count,
        }
    }

    /// Day `d`'s raw traffic, in replay order: benign lookups from the
    /// day's active `clients`, then each infection's scheduled bots at
    /// random times of day. Bot lookups carry pool indices until the
    /// consumer gives their names slots.
    fn produce_day(
        &self,
        d: u64,
        seeds: &SeedSequence,
        schedules: &[Vec<u64>],
        benign: &BenignTraffic,
        rng: &ChaCha12Rng,
        clients: &[u32],
    ) -> DayBatch {
        let day_start = SimInstant::ZERO + SimDuration::from_days(d);
        let day_seed = seeds.fork_str("day").fork(d);
        let mut day_rng = rng.clone();
        let mut lookups = Vec::new();
        benign.day_slots(day_start, clients, &mut day_rng, &mut lookups);

        let bots_from = lookups.len();
        let mut bots = Vec::new();
        let mut valid_names = Vec::new();
        for (i, infection) in self.infections.iter().enumerate() {
            let n = schedules[i][d as usize];
            if n == 0 {
                continue;
            }
            let family = &infection.family;
            let pool = family.pool_for_epoch(d);
            let valid = family.valid_indices(d);
            let from = lookups.len();
            for b in 0..n {
                let client = ClientId(1_000_000 + (i as u32) * 100_000 + b as u32);
                let t = day_start + SimDuration::from_millis(diurnal_offset_ms(&mut day_rng));
                let mut bot_rng =
                    ChaCha12Rng::seed_from_u64(day_seed.fork(1000 + i as u64).fork(b).seed());
                let barrel = family.draw_barrel(d, &mut bot_rng);
                let is_valid = |idx| valid.contains(&idx);
                walk_barrel(family, is_valid, barrel, t, &mut bot_rng, |t, idx| {
                    lookups.push(SlotLookup {
                        t,
                        client,
                        slot: idx as u32,
                    })
                });
            }
            valid_names.extend(valid.iter().map(|&k| pool[k].detached()));
            bots.push((from..lookups.len(), pool));
        }
        let last_bot_lookup = lookups[bots_from..].iter().map(|l| l.t).max();
        if last_bot_lookup.is_some() {
            // The registrar's epoch `d` holds every infection's names, the
            // idle ones' included.
            for (i, infection) in self.infections.iter().enumerate() {
                if schedules[i][d as usize] == 0 {
                    valid_names.extend(infection.family.valid_domains(d));
                }
            }
        }
        DayBatch {
            lookups,
            bots,
            valid: valid_names,
            last_bot_lookup,
            rng: day_rng,
        }
    }

    /// Every infection's registered names for `epoch`.
    fn valid_names(&self, epoch: u64) -> Vec<DomainName> {
        let infections = self.infections.iter();
        infections
            .flat_map(|i| i.family.valid_domains(epoch))
            .collect()
    }

    /// Ground-truth daily population per infection.
    fn schedules(&self, seeds: &SeedSequence) -> Vec<Vec<u64>> {
        self.infections
            .iter()
            .enumerate()
            .map(|(i, infection)| {
                let mut rng =
                    ChaCha12Rng::seed_from_u64(seeds.fork(i as u64).fork_str("wave").seed());
                infection.wave.daily_series(self.days as usize, &mut rng)
            })
            .collect()
    }
}

/// Days whose client shuffles run ahead of their production.
const DAY_WINDOW: u64 = 16;

/// A pool index no bot has queried yet today.
const NO_SLOT: u32 = u32::MAX;

/// One produced day, waiting to be filtered.
struct DayBatch {
    /// The day's lookups in replay order; a bot lookup's `slot` is still
    /// its pool index.
    lookups: Vec<SlotLookup>,
    /// Per active infection: its range of `lookups` and the day's pool.
    bots: Vec<(Range<usize>, Vec<DomainName>)>,
    /// Every infection's registered names for the day's epoch, if the day
    /// has bot lookups.
    valid: Vec<DomainName>,
    last_bot_lookup: Option<SimInstant>,
    /// The day's rng after production: the jitter draws continue it.
    rng: ChaCha12Rng,
}

/// Samples a bot activation's offset within the day from a diurnal
/// profile: enterprise machines overwhelmingly wake (and run their
/// malware) during business hours, with a morning peak — which clusters
/// activations inside shared negative-TTL windows exactly as the paper's
/// real traces do.
fn diurnal_offset_ms<R: rand::Rng + ?Sized>(rng: &mut R) -> u64 {
    let hour_ms = SimDuration::from_hours(1).as_millis();
    let pick: f64 = rng.gen();
    let (start_h, span_h) = if pick < 0.55 {
        (8u64, 3u64) // morning boot storm: 08:00–11:00
    } else if pick < 0.90 {
        (11, 8) // working day: 11:00–19:00
    } else {
        (0, 24) // background: any time
    };
    start_h * hour_ms + rng.gen_range(0..span_h * hour_ms)
}

/// The product of an enterprise run: the observable trace plus per-family
/// daily ground truth.
#[derive(Debug, Clone)]
pub struct EnterpriseOutcome {
    days: u64,
    granularity: SimDuration,
    ttl: TtlPolicy,
    families: Vec<DgaFamily>,
    ground_truth: Vec<Vec<u64>>,
    observed: Vec<ObservedLookup>,
    raw_count: usize,
}

impl EnterpriseOutcome {
    /// Number of simulated days.
    pub fn days(&self) -> u64 {
        self.days
    }

    /// Timestamp granularity of the observed trace (1 s at paper scale).
    pub fn granularity(&self) -> SimDuration {
        self.granularity
    }

    /// The TTL policy of the local resolver.
    pub fn ttl(&self) -> TtlPolicy {
        self.ttl
    }

    /// The simulated DGA families, in infection order.
    pub fn families(&self) -> &[DgaFamily] {
        &self.families
    }

    /// Daily active-bot counts: `ground_truth()[i][d]` is infection `i`'s
    /// population on day `d`.
    pub fn ground_truth(&self) -> &[Vec<u64>] {
        &self.ground_truth
    }

    /// The full border-visible lookup stream (benign + malicious).
    pub fn observed(&self) -> &[ObservedLookup] {
        &self.observed
    }

    /// Total number of raw (pre-cache) lookups that were simulated.
    pub fn raw_count(&self) -> usize {
        self.raw_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::simulate_activation;
    use botmeter_dns::{RawLookup, Topology};
    use std::collections::HashSet;

    /// The per-lookup walk `run` must equal byte for byte: a registrar
    /// generated for every epoch up front, each day's raw lookups (benign,
    /// then bots) stable-sorted by `(t, client)` and walked one by one
    /// through a name-keyed `Topology::single_local`. Also returns whether
    /// some day's lookups ran later than the next day's first one.
    fn oracle(spec: &EnterpriseSpec) -> (EnterpriseOutcome, bool) {
        let day = SimDuration::from_days(1);
        let seeds = SeedSequence::new(spec.seed).fork_str("enterprise");
        let schedules = spec.schedules(&seeds);
        let registrar = EpochAuthority::from_valid_domains(
            day,
            (0..=spec.days).map(|e| {
                let infections = spec.infections.iter();
                infections.flat_map(|i| i.family.valid_domains(e)).collect()
            }),
        );
        let authority = DualAuthority::new(&registrar, BenignAuthority);
        let benign = BenignTraffic::new(spec.benign_catalog, 1.1, spec.benign_lookups_per_client);
        let mut client_ids: Vec<u32> = (0..spec.num_clients).collect();
        let mut topology = Topology::single_local(spec.ttl);
        let mut observed = Vec::new();
        let mut raw_count = 0;
        let mut overlap = false;
        let mut previous_last: Option<SimInstant> = None;
        for d in 0..spec.days {
            let day_start = SimInstant::ZERO + day * d;
            let day_seed = seeds.fork_str("day").fork(d);
            let mut day_rng = ChaCha12Rng::seed_from_u64(day_seed.seed());
            let active = spec.active_clients_per_day.min(spec.num_clients) as usize;
            client_ids.partial_shuffle(&mut day_rng, active);
            let mut slots = Vec::new();
            benign.day_slots(day_start, &client_ids[..active], &mut day_rng, &mut slots);
            let catalog = benign.catalog();
            let mut raws: Vec<RawLookup> = slots
                .iter()
                .map(|l| RawLookup::new(l.t, l.client, catalog[l.slot as usize].clone()))
                .collect();
            for (i, infection) in spec.infections.iter().enumerate() {
                let n = schedules[i][d as usize];
                if n == 0 {
                    continue;
                }
                let family = &infection.family;
                let pool = family.pool_for_epoch(d);
                let valid: HashSet<usize> = family.valid_indices(d).into_iter().collect();
                for b in 0..n {
                    let client = ClientId(1_000_000 + (i as u32) * 100_000 + b as u32);
                    let t = day_start + SimDuration::from_millis(diurnal_offset_ms(&mut day_rng));
                    let mut bot_rng =
                        ChaCha12Rng::seed_from_u64(day_seed.fork(1000 + i as u64).fork(b).seed());
                    raws.extend(simulate_activation(
                        family,
                        d,
                        &pool,
                        &valid,
                        t,
                        client,
                        &mut bot_rng,
                    ));
                }
            }
            raws.sort_by_key(|l| (l.t, l.client));
            if let (Some(first), Some(last)) = (raws.first(), raws.last()) {
                overlap |= previous_last.is_some_and(|p| first.t < p);
                previous_last = Some(last.t);
            }
            raw_count += raws.len();
            let jitter_ms = spec.jitter.as_millis();
            for raw in &raws {
                if let Some(mut o) = topology.process(raw, authority).unwrap() {
                    if jitter_ms > 0 {
                        o.t += SimDuration::from_millis(day_rng.gen_range(0..=jitter_ms));
                    }
                    o.t = o.t.quantize(spec.granularity);
                    observed.push(o);
                }
            }
        }
        let outcome = EnterpriseOutcome {
            days: spec.days,
            granularity: spec.granularity,
            ttl: spec.ttl,
            families: spec.infections.iter().map(|i| i.family.clone()).collect(),
            ground_truth: schedules,
            observed,
            raw_count,
        };
        (outcome, overlap)
    }

    /// Runs `spec` both ways and asserts the outcomes are identical;
    /// returns whether the days overlapped in time.
    fn assert_matches_oracle(spec: &EnterpriseSpec) -> bool {
        let run = spec.run();
        let (expected, overlap) = oracle(spec);
        assert_eq!(run.raw_count(), expected.raw_count());
        assert_eq!(run.ground_truth(), expected.ground_truth());
        let (got, want) = (run.observed(), expected.observed());
        if let Some(i) = (0..got.len().min(want.len())).find(|&i| got[i] != want[i]) {
            panic!("observed lookup {i} differs: {:?} vs {:?}", got[i], want[i]);
        }
        assert_eq!(got.len(), want.len());
        overlap
    }

    /// The `enterprise_trace` benchmark workload's spec: the paper-scale
    /// network over 20 days with endemic infections.
    fn benchmark_spec(seed: u64) -> EnterpriseSpec {
        let wave = WaveConfig {
            outbreak_prob: 1.0,
            peak_median: 6.0,
            peak_sigma: 0.2,
            decay: 0.6,
            floor: 1.0,
        };
        let paper = EnterpriseSpec::paper_scale(seed);
        let infections = paper
            .infections()
            .iter()
            .map(|i| Infection::new(i.family.clone(), wave))
            .collect();
        paper.with_infections(infections).with_days(20)
    }

    #[test]
    fn run_equals_the_per_lookup_walk_on_quick_specs_with_and_without_jitter() {
        for seed in [1, 7, 9, 11] {
            assert_matches_oracle(&EnterpriseSpec::quick(seed));
            assert_matches_oracle(&EnterpriseSpec::quick(seed).with_jitter(SimDuration::ZERO));
        }
    }

    /// A bot activated in the last minutes of a day replays past
    /// midnight, where the next epoch's registrations answer, so a day's
    /// lookups run later than some of the next day's: the filter is exact
    /// on overlapping days too. Conficker.C's replays last up to 500 s,
    /// and ~250 bots a day make a spill all but certain (seed 1 has one).
    #[test]
    fn run_equals_the_per_lookup_walk_when_days_overlap() {
        let wave = WaveConfig {
            outbreak_prob: 1.0,
            peak_median: 150.0,
            peak_sigma: 0.2,
            decay: 0.6,
            floor: 100.0,
        };
        let spec = EnterpriseSpec::quick(1).with_days(6).with_infections(vec![
            Infection::new(DgaFamily::conficker_c(), wave),
            Infection::new(DgaFamily::new_goz(), wave),
        ]);
        assert!(assert_matches_oracle(&spec), "no day ran past midnight");
    }

    /// Sliding-window (Ranbyus) and dictionary (Suppobox) pools share
    /// names across days, rotating pools (Necurs) across four, and
    /// Conficker.C's 50 000-name pools are mostly never queried.
    #[test]
    fn run_equals_the_per_lookup_walk_on_a_mixed_infection() {
        let spec = EnterpriseSpec::quick(5).with_infections(vec![
            Infection::new(DgaFamily::necurs(), WaveConfig::brisk()),
            Infection::new(DgaFamily::ranbyus(), WaveConfig::brisk()),
            Infection::new(DgaFamily::conficker_c(), WaveConfig::brisk()),
            Infection::new(DgaFamily::suppobox(), WaveConfig::brisk()),
        ]);
        assert_matches_oracle(&spec);
    }

    #[test]
    fn run_equals_the_per_lookup_walk_on_the_benchmark_trace() {
        assert_matches_oracle(&benchmark_spec(42));
        assert_matches_oracle(&benchmark_spec(43));
    }

    /// A negative TTL of 0 replays every NXDOMAIN candidate; a 10-minute
    /// positive TTL is shorter than the popular catalog domains' span in a
    /// day, so their candidates replay too; a 30-day TTL carries entries
    /// across most of the run.
    #[test]
    fn run_equals_the_per_lookup_walk_at_ttl_corners() {
        let hours = SimDuration::from_hours;
        for ttl in [
            TtlPolicy::new(hours(2), SimDuration::ZERO),
            TtlPolicy::new(SimDuration::from_secs(600), SimDuration::from_secs(60)),
            TtlPolicy::new(SimDuration::from_days(30), SimDuration::from_days(30)),
        ] {
            let mut spec = EnterpriseSpec::quick(3);
            spec.ttl = ttl;
            assert_matches_oracle(&spec);
        }
    }

    /// FNV-1a over the JSON-Lines encoding of the observed trace.
    fn trace_fingerprint(spec: &EnterpriseSpec) -> (usize, u64) {
        let mut encoded = Vec::new();
        botmeter_dns::trace::write_jsonl(spec.run().observed(), &mut encoded).unwrap();
        let hash = encoded.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (encoded.len(), hash)
    }

    /// Pinned from the per-lookup walk's output before the simulator
    /// filtered by domain: `quick(42)` and the benchmark's 20-day trace.
    #[test]
    fn traces_are_pinned() {
        assert_eq!(
            trace_fingerprint(&EnterpriseSpec::quick(42)),
            (6_565_840, 0xbfa5_2944_e514_ad75)
        );
        assert_eq!(
            trace_fingerprint(&benchmark_spec(42)),
            (19_359_148, 0x4c7f_51fe_af70_01ec)
        );
    }

    #[test]
    fn quick_run_produces_consistent_shapes() {
        let outcome = EnterpriseSpec::quick(7).run();
        assert_eq!(outcome.days(), 20);
        assert_eq!(outcome.families().len(), 2);
        assert_eq!(outcome.ground_truth().len(), 2);
        assert_eq!(outcome.ground_truth()[0].len(), 20);
        assert!(outcome.raw_count() > outcome.observed().len());
        assert!(!outcome.observed().is_empty());
    }

    #[test]
    fn observed_timestamps_quantised_to_seconds() {
        let outcome = EnterpriseSpec::quick(8).run();
        assert!(outcome
            .observed()
            .iter()
            .all(|o| o.t.as_millis() % 1000 == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = EnterpriseSpec::quick(9).run();
        let b = EnterpriseSpec::quick(9).run();
        assert_eq!(a.observed(), b.observed());
        assert_eq!(a.ground_truth(), b.ground_truth());
        let c = EnterpriseSpec::quick(10).run();
        assert_ne!(a.observed(), c.observed());
    }

    #[test]
    fn malicious_domains_appear_when_wave_is_active() {
        let outcome = EnterpriseSpec::quick(11).run();
        let goz = &outcome.families()[0];
        // Find an active day and check for pool-domain sightings.
        let active_day = (0..outcome.days()).find(|&d| outcome.ground_truth()[0][d as usize] > 0);
        if let Some(d) = active_day {
            let pool: std::collections::HashSet<_> = goz.pool_for_epoch(d).into_iter().collect();
            let day = SimDuration::from_days(1);
            let hits = outcome
                .observed()
                .iter()
                .filter(|o| o.t.epoch_day(day) == d && pool.contains(&o.domain))
                .count();
            assert!(hits > 0, "active day {d} produced no visible DGA lookups");
        }
    }

    #[test]
    fn with_days_and_infections_override() {
        let spec = EnterpriseSpec::quick(1)
            .with_days(5)
            .with_infections(vec![Infection::new(
                DgaFamily::new_goz(),
                WaveConfig::brisk(),
            )]);
        assert_eq!(spec.days(), 5);
        assert_eq!(spec.infections().len(), 1);
        let outcome = spec.run();
        assert_eq!(outcome.ground_truth().len(), 1);
        assert_eq!(outcome.ground_truth()[0].len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one infection")]
    fn empty_infections_panics() {
        EnterpriseSpec::quick(1).with_infections(vec![]).run();
    }
}
