//! The synthetic-trace scenario: the paper's Fig. 6 experiment pipeline.

use crate::activation::ActivationModel;
use crate::bot::{replay_barrel, simulate_activation, walk_barrel};
use crate::evasion::EvasionStrategy;
use crate::filter::{DomainFilter, SlotLookup, SlotObserved, LOCAL};
use botmeter_dga::{DgaFamily, EpochAuthority};
use botmeter_dns::{
    ClientId, DomainInterner, DomainName, ObservedLookup, RawLookup, SimDuration, SimInstant,
    Topology, TtlPolicy,
};
use botmeter_exec::ExecPolicy;
use botmeter_faults::{FaultPlan, FaultPlanError, FaultReport, FaultStream};
use botmeter_obs::Obs;
use botmeter_stats::SeedSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// How many fixed-width time shards the streaming pipeline cuts each epoch
/// into by default.
const DEFAULT_SHARDS_PER_EPOCH: u64 = 16;

/// How many shards the streaming pipeline's deterministic residency
/// accounting charges as simultaneously in flight: the producer-ticket
/// window of [`botmeter_exec::run_pipelined_with`] (claimed or buffered
/// beyond the consumer's cursor) plus the shard being consumed. A fixed
/// constant — not a function of the worker count — so the reported
/// high-water mark is bit-identical under every [`ExecPolicy`].
const STREAM_ACCOUNT_WINDOW: usize = botmeter_exec::PIPELINE_WINDOW + 1;

/// How many idle shard buffers the streaming pipeline's recycling
/// [`BufferPool`](botmeter_exec::BufferPool) retains: enough to cover the
/// producer ticket window plus overflow runs parked for later shards, while
/// bounding how much capacity an overflow burst can pin after the run.
const POOL_RETAIN: usize = 4 * STREAM_ACCOUNT_WINDOW;

/// The most shards one run may be cut into. The pipeline sizes its shard
/// tables, and issues one producer ticket, per shard whether or not any
/// traffic falls in it, so memory and time are `O(horizon / width)`; the
/// default geometry is 16 shards per epoch, and a one-second width over a
/// one-day epoch is under a tenth of this.
const MAX_SHARDS: u64 = 1 << 20;

/// The shard geometry of the pipeline.
///
/// There is one pipeline — bots replayed, cache-filtered and faulted over
/// fixed-width time shards, id-resident throughout, each shard's raw
/// records dropped once filtered so no more than a few shards are ever
/// resident. The width is a pure performance parameter: the observed
/// trace, the fault report and every deterministic counter except the
/// `sim.stream.*` geometry pair are **bit-identical** at every width (the
/// `pipeline_equivalence` suite holds each to the whole-trace
/// [`ScenarioSpec::run_reference`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineMode {
    /// Fixed-width time shards.
    Streaming {
        /// Shard width (non-zero); `None` picks `epoch_len / 16`.
        shard: Option<SimDuration>,
    },
}

impl Default for PipelineMode {
    fn default() -> Self {
        PipelineMode::Streaming { shard: None }
    }
}

/// The shard width `mode` resolves to for `family`: the explicit one
/// (`build` rejects zero), else `epoch_len / 16`.
fn shard_width(family: &DgaFamily, mode: PipelineMode) -> SimDuration {
    let PipelineMode::Streaming { shard } = mode;
    shard.unwrap_or_else(|| {
        SimDuration::from_millis((family.epoch_len().as_millis() / DEFAULT_SHARDS_PER_EPOCH).max(1))
    })
}

/// A fully-specified synthetic experiment: one DGA family, a bot
/// population, an activation model, an observation window of whole epochs,
/// cache TTLs and a timestamp granularity.
///
/// Defaults mirror §V-A: epoch = 1 day, window = 1 epoch, negative TTL =
/// 2 h, positive TTL = 1 day, granularity = 100 ms, constant activation
/// rate.
///
/// # Example
///
/// ```
/// use botmeter_dga::DgaFamily;
/// use botmeter_sim::{ActivationModel, ScenarioSpec};
///
/// let spec = ScenarioSpec::builder(DgaFamily::new_goz())
///     .population(128)
///     .num_epochs(2)
///     .activation(ActivationModel::DynamicRate { sigma: 1.5 })
///     .seed(42)
///     .build()?;
/// let outcome = spec.run(botmeter_exec::ExecPolicy::default());
/// assert_eq!(outcome.ground_truth().len(), 2);
/// # Ok::<(), botmeter_sim::ScenarioBuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    family: DgaFamily,
    population: u64,
    activation: ActivationModel,
    num_epochs: u64,
    ttl: TtlPolicy,
    granularity: SimDuration,
    evasion: EvasionStrategy,
    faults: Option<FaultPlan>,
    seed: u64,
    obs: Obs,
    pipeline: PipelineMode,
}

/// Builder for [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct ScenarioSpecBuilder {
    family: DgaFamily,
    population: u64,
    activation: ActivationModel,
    num_epochs: u64,
    ttl: TtlPolicy,
    granularity: SimDuration,
    evasion: EvasionStrategy,
    faults: Option<FaultPlan>,
    seed: u64,
    obs: Obs,
    pipeline: PipelineMode,
}

/// Invalid scenario configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ScenarioBuildError {
    /// Population must be at least 1.
    ZeroPopulation,
    /// Observation window must span at least one epoch.
    ZeroEpochs,
    /// `σ` of the dynamic activation model must be finite and positive.
    BadSigma,
    /// The evasion strategy's parameters are out of domain.
    BadEvasion(&'static str),
    /// The fault plan's parameters are out of domain.
    BadFaults(FaultPlanError),
    /// [`PipelineMode::Streaming`] was given a zero shard width (the shard
    /// count is `horizon / width`).
    ZeroShardWidth,
    /// The shard width cuts the scenario's horizon (`num_epochs ·
    /// epoch_len` plus one activation's replay span) into more shards than
    /// the pipeline will size its tables for.
    TooManyShards {
        /// The shard width in force.
        width: SimDuration,
        /// How many shards it would take.
        shards: u64,
    },
}

impl fmt::Display for ScenarioBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioBuildError::ZeroPopulation => write!(f, "population must be at least 1"),
            ScenarioBuildError::ZeroEpochs => write!(f, "observation window must be >= 1 epoch"),
            ScenarioBuildError::BadSigma => {
                write!(f, "dynamic-rate sigma must be finite and positive")
            }
            ScenarioBuildError::BadEvasion(msg) => write!(f, "invalid evasion strategy: {msg}"),
            ScenarioBuildError::BadFaults(err) => write!(f, "invalid fault plan: {err}"),
            ScenarioBuildError::ZeroShardWidth => {
                write!(f, "streaming shard width must be non-zero")
            }
            ScenarioBuildError::TooManyShards { width, shards } => write!(
                f,
                "shard width {width} cuts the run into {shards} shards (at most {MAX_SHARDS})"
            ),
        }
    }
}

impl std::error::Error for ScenarioBuildError {}

impl ScenarioSpec {
    /// Starts building a scenario for `family` with paper-default settings.
    pub fn builder(family: DgaFamily) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            family,
            population: 64,
            activation: ActivationModel::ConstantRate,
            num_epochs: 1,
            ttl: TtlPolicy::paper_default(),
            granularity: SimDuration::from_millis(100),
            evasion: EvasionStrategy::None,
            faults: None,
            seed: 0,
            obs: Obs::noop(),
            pipeline: PipelineMode::default(),
        }
    }

    /// The DGA family under simulation.
    pub fn family(&self) -> &DgaFamily {
        &self.family
    }

    /// The configured bot population `N`.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Runs the simulation under `policy`: activations → raw lookups →
    /// cache filtering → faults, fused over fixed-width time shards.
    ///
    /// Under a parallel policy shard production (per-bot replay)
    /// fans out across the worker pool — each shard built end-to-end by one
    /// worker inside the bounded ticket window of
    /// [`botmeter_exec::run_pipelined_with`] — while the calling thread
    /// filters and faults finished shards strictly in shard order. Every
    /// bot's RNG is an independently seeded ChaCha substream derived from
    /// the scenario's [`SeedSequence`], so no draw depends on which thread
    /// replays which bot: the outcome is bit-identical to
    /// `run(ExecPolicy::Sequential)` for the same spec, including on the
    /// metrics counters an attached [`Obs`] collects (`sim.activations`,
    /// `sim.bots_replayed`, `sim.raw_lookups`, `sim.observed_lookups`,
    /// `sim.stream.shards`, `sim.stream.peak_resident_records`; the
    /// per-bot `sim.bot_replay_ns` and per-shard `sim.shard_filter_ns`
    /// histograms and the `sched.*` counters are timing-dependent by
    /// contract).
    ///
    /// Raw records are dropped shard by shard once filtered — only their
    /// count survives, as [`ScenarioOutcome::raw_lookups`]. The spec's
    /// [`PipelineMode`] (see [`pipeline`](ScenarioSpecBuilder::pipeline))
    /// sets the shard width; the outcome does not depend on it.
    pub fn run(&self, policy: ExecPolicy) -> ScenarioOutcome {
        self.run_streaming_into(policy, &mut |_| {})
    }

    /// Replays one `(plan index, bot index)` job, appending its lookups to
    /// `out` as slot records. Pure per job: every bot draws from its own
    /// pre-derived rng seed, so jobs can run in any order on any thread.
    fn replay_bot(
        &self,
        plans: &[EpochPlan],
        pool_slots: &[Vec<u32>],
        (p, b): (usize, usize),
        theta_q: usize,
        out: &mut Vec<SlotLookup>,
    ) {
        let plan = &plans[p];
        let slots = &pool_slots[p];
        let (t, client, rng_seed) = plan.bots[b];
        let replay_start = self.obs.clock();
        let mut rng = ChaCha12Rng::seed_from_u64(rng_seed);
        let emit = |t, idx: usize| {
            out.push(SlotLookup {
                t,
                client,
                slot: slots[idx],
            })
        };
        let is_valid = |idx| plan.valid.contains(&idx);
        match self
            .evasion
            .colluded_start(plan.epoch, slots.len(), &mut rng)
        {
            Some(start) => {
                let barrel = (0..theta_q.min(slots.len())).map(|k| (start + k) % slots.len());
                walk_barrel(&self.family, is_valid, barrel, t, &mut rng, emit);
            }
            None => {
                let barrel = self.family.draw_barrel(plan.epoch, &mut rng);
                walk_barrel(&self.family, is_valid, barrel, t, &mut rng, emit);
            }
        }
        self.obs.observe_since("sim.bot_replay_ns", replay_start);
    }

    /// Flattens the epoch plans into `(plan, bot)` jobs in (epoch asc, bot
    /// asc) order. Activation times are globally nondecreasing along this
    /// list: each epoch's bots are sorted and epochs do not overlap.
    fn flatten_jobs(plans: &[EpochPlan]) -> Vec<(usize, usize)> {
        plans
            .iter()
            .enumerate()
            .flat_map(|(p, plan)| (0..plan.bots.len()).map(move |b| (p, b)))
            .collect()
    }

    /// [`run`](Self::run) that also hands `sink` each shard's released
    /// observed records (post cache-filter, quantisation and faults) in
    /// stream order, from the calling thread, never an empty slice — so
    /// callers can match or aggregate incrementally without waiting for
    /// the whole observed trace. The slices concatenate to exactly
    /// [`ScenarioOutcome::observed`], and the returned outcome is
    /// identical to [`run`](Self::run)'s.
    ///
    /// This is the pipeline. Shard `k` covers simulated time
    /// `[k·w, (k+1)·w)`; the last shard is a catch-all `[k·w, ∞)` so the
    /// horizon estimate only sizes the shard count, never correctness.
    ///
    /// Shard *production* (per-bot replay) fans out across the worker pool
    /// — each shard is owned end-to-end by one producer worker of
    /// [`botmeter_exec::run_pipelined_with`] — while the reduction (cache
    /// filtering, faulting) runs on the calling thread strictly in shard
    /// order. Equivalence with the whole-trace
    /// [`run_reference`](Self::run_reference) rests on three invariants:
    ///
    /// 1. **Deterministic shard ownership and replay order.** The
    ///    flattened job list is nondecreasing in activation time, so each
    ///    shard owns a precomputed contiguous job range. A producer replays
    ///    its range in job order and moves the records past its own time
    ///    slice into overflow runs by destination shard (a function of `t`
    ///    alone). The consumer walks a shard's parked overflow runs, in
    ///    range order, then its own run: that walk is the replay order of
    ///    every record in the shard, which is the order the reference's
    ///    stable sort breaks `(t, client)` ties by.
    /// 2. **Filtering by domain.** Caches are unbounded, so a lookup's
    ///    visibility depends only on the earlier lookups of its own
    ///    domain, and the one local resolver and the border cache in
    ///    lockstep. The filter (`filter.rs`) reduces each shard per domain
    ///    in one pass, carrying each domain's entry across shards, and
    ///    sorts only the lookups it admits by `(t, client, position)`. A
    ///    domain whose fresh entry expires before its last lookup in the
    ///    shard has its lookups replayed in that order.
    /// 3. **Fault state chains.** A [`FaultStream`] threads each stage's
    ///    rng and working state across shards (see `botmeter-faults`), so
    ///    chunked faulting is bit-identical to whole-trace faulting.
    pub fn run_streaming_into(
        &self,
        policy: ExecPolicy,
        sink: &mut dyn FnMut(&[ObservedLookup]),
    ) -> ScenarioOutcome {
        let (plans, ground_truth) = self.plan_epochs();
        // The registrar oracle for the planned epochs plus the one replays
        // spill into, built from the pools the plans already hold
        // (`authority_for_epochs`, which the reference uses, would generate
        // every pool a second time). Its names share the pools' buffers:
        // the plans outlive it.
        let authority = EpochAuthority::from_valid_domains(
            self.family.epoch_len(),
            plans
                .iter()
                .map(|p| p.valid.iter().map(|&i| p.pool[i].clone()).collect())
                .chain([self.family.valid_domains(self.num_epochs)]),
        );
        let jobs = Self::flatten_jobs(&plans);
        let theta_q = self.family.params().theta_q();
        // Every distinct pool domain gets a dense slot (a dictionary
        // family's pools share names across epochs): producers emit slots,
        // the filter keeps per-domain state in flat arrays indexed by them,
        // and hydration indexes the interner's slot table. A fingerprint
        // collision panics here, which is what lets a slot stand for a name.
        let mut interner = DomainInterner::new();
        let pool_slots: Vec<Vec<u32>> = plans
            .iter()
            .map(|p| p.pool.iter().map(|d| interner.slot(d)).collect())
            .collect();
        let names = interner.names();

        let shard_len = shard_width(&self.family, self.pipeline);
        let shard_ms = shard_len.as_millis();
        // Horizon: the last activation plus the family's per-bot replay
        // span bound. (The catch-all last shard sweeps up any residue.)
        let last_activation = plans
            .iter()
            .rev()
            .find_map(|p| p.bots.last())
            .map(|&(t, _, _)| t)
            .unwrap_or(SimInstant::ZERO);
        let horizon = last_activation + self.family.params().max_activation_duration();
        let num_shards = (horizon.as_millis() / shard_ms + 1) as usize;

        // Every shard's contiguous job range, precomputed so producers can
        // claim shards in any order: activation times are globally
        // nondecreasing along the job list, so one forward cursor assigns
        // each job to the shard containing its activation.
        let mut shard_ranges: Vec<(usize, usize)> = Vec::with_capacity(num_shards);
        {
            let mut cursor = 0usize;
            for k in 0..num_shards {
                let start = cursor;
                if k + 1 == num_shards {
                    cursor = jobs.len();
                } else {
                    let shard_end = SimInstant::ZERO + shard_len * (k as u64 + 1);
                    while cursor < jobs.len() {
                        let (p, b) = jobs[cursor];
                        if plans[p].bots[b].0 < shard_end {
                            cursor += 1;
                        } else {
                            break;
                        }
                    }
                }
                shard_ranges.push((start, cursor));
            }
        }

        // Producer side: pure per shard. Replay the owned job range in job
        // order straight into the shard's own run and move each replay's
        // records past the shard's slice into overflow runs by destination
        // shard (membership is a function of `t`, so a record's shard never
        // depends on which worker produced it). Nothing is sorted. All
        // record buffers are drawn from one shared recycling pool and
        // returned once filtered, so steady-state production re-uses the
        // same few allocations for the whole run.
        let buffers: botmeter_exec::BufferPool<SlotLookup> =
            botmeter_exec::BufferPool::new(POOL_RETAIN);
        let produce = |k: usize| -> ShardBatch {
            let (start, end) = shard_ranges[k];
            // The catch-all last shard keeps everything it generates.
            let own_end = if k + 1 == num_shards {
                u64::MAX
            } else {
                shard_ms * (k as u64 + 1)
            };
            let mut own = buffers.acquire();
            let mut overflow: BTreeMap<usize, Vec<SlotLookup>> = BTreeMap::new();
            let mut generated = 0u64;
            for &job in &jobs[start..end] {
                let from = own.len();
                self.replay_bot(&plans, &pool_slots, job, theta_q, &mut own);
                generated += (own.len() - from) as u64;
                // A replay is non-decreasing in `t`, so the records past
                // this shard's slice are a suffix of it.
                let cut = from + own[from..].partition_point(|l| l.t.as_millis() < own_end);
                for &lookup in &own[cut..] {
                    let dest = ((lookup.t.as_millis() / shard_ms) as usize).min(num_shards - 1);
                    overflow
                        .entry(dest)
                        .or_insert_with(|| buffers.acquire())
                        .push(lookup);
                }
                own.truncate(cut);
            }
            ShardBatch {
                own,
                overflow,
                generated,
            }
        };

        // Consumer state: the per-domain filter with its carried cache
        // entries, the incremental fault application (over slot records —
        // stage decisions depend only on count, time and server, so
        // faulting commutes with hydration), the accumulated observed
        // trace, and the overflow runs awaiting their destination shard
        // (keyed by shard, each holding runs in ascending range order
        // because shards are consumed in order). Hydration reads the slot
        // table once per *released* record at the egress edge — the
        // cache-filtered stream is roughly an order of magnitude smaller
        // than the raw one.
        let mut filter = DomainFilter::new(self.ttl, names, &authority);
        let mut fault_stream: Option<FaultStream<SlotObserved>> =
            self.faults.as_ref().map(FaultPlan::stream);
        let mut observed: Vec<ObservedLookup> = Vec::new();
        let mut release = |released: &[SlotObserved]| {
            if released.is_empty() {
                return;
            }
            let egress_from = observed.len();
            observed.extend(
                released
                    .iter()
                    .map(|o| ObservedLookup::new(o.t, LOCAL, names[o.slot as usize].clone())),
            );
            sink(&observed[egress_from..]);
        };
        let mut pending: BTreeMap<usize, Vec<Vec<SlotLookup>>> = BTreeMap::new();
        let mut raw_total = 0u64;
        // Deterministic residency accounting inputs: per-shard generated
        // counts, and a difference array charging each overflow run to the
        // consumption steps it spends parked in `pending`.
        let mut gen_sizes: Vec<u64> = vec![0; num_shards];
        let mut carry_diff: Vec<i64> = vec![0; num_shards + 1];

        botmeter_exec::run_pipelined_with(
            policy,
            &self.obs,
            num_shards,
            produce,
            |k, batch: ShardBatch| {
                raw_total += batch.generated;
                gen_sizes[k] = batch.generated;
                let mut runs = pending.remove(&k).unwrap_or_default();
                for (dest, run) in batch.overflow {
                    carry_diff[k + 1] += run.len() as i64;
                    carry_diff[dest] -= run.len() as i64;
                    pending.entry(dest).or_default().push(run);
                }
                runs.push(batch.own);
                let filter_start = self.obs.clock();
                let mut chunk: Vec<SlotObserved> = Vec::new();
                let lookups = filter.filter_shard(&runs, &mut chunk);
                self.obs.observe_since("sim.shard_filter_ns", filter_start);
                for run in runs {
                    buffers.recycle(run);
                }
                if lookups == 0 {
                    return;
                }
                for o in &mut chunk {
                    o.t = o.t.quantize(self.granularity);
                }
                match &mut fault_stream {
                    Some(stream) => release(&stream.push(chunk)),
                    None => release(&chunk),
                }
            },
        );
        buffers.record_metrics(&self.obs);
        filter.record_metrics(&self.obs);
        let fault_report = fault_stream.map(FaultStream::finish).map(|(tail, report)| {
            release(&tail);
            report
        });

        // Deterministic resident high-water mark: while shard `s` is being
        // consumed, up to STREAM_ACCOUNT_WINDOW shards (the producer ticket
        // window plus the one in hand) may be materialised, plus every
        // overflow run parked for a later shard. Charged from the
        // deterministic per-shard sizes, so the figure is identical under
        // every policy and worker count.
        let mut peak_resident = 0u64;
        let window = STREAM_ACCOUNT_WINDOW.min(num_shards);
        let mut window_sum: u64 = gen_sizes[..window].iter().sum();
        let mut parked: i64 = 0;
        for s in 0..num_shards {
            parked += carry_diff[s];
            peak_resident = peak_resident.max(window_sum + parked.max(0) as u64);
            window_sum -= gen_sizes[s];
            if s + window < num_shards {
                window_sum += gen_sizes[s + window];
            }
        }

        if self.obs.enabled() {
            self.obs
                .counter_add("sim.activations", ground_truth.iter().sum());
            self.obs.counter_add("sim.bots_replayed", jobs.len() as u64);
            self.obs.counter_add("sim.raw_lookups", raw_total);
            self.obs
                .counter_add("sim.observed_lookups", observed.len() as u64);
            if let Some(report) = &fault_report {
                self.obs.counter_add("sim.faults.input", report.input);
                self.obs.counter_add("sim.faults.dropped", report.dropped);
                self.obs
                    .counter_add("sim.faults.duplicated", report.duplicated);
                self.obs
                    .counter_add("sim.faults.displaced", report.displaced);
                self.obs
                    .counter_add("sim.faults.perturbed", report.perturbed);
            }
            self.obs.counter_add("sim.stream.shards", num_shards as u64);
            self.obs
                .gauge_max("sim.stream.peak_resident_records", peak_resident);
        }

        ScenarioOutcome {
            family: self.family.clone(),
            ttl: self.ttl,
            granularity: self.granularity,
            num_epochs: self.num_epochs,
            raw_lookups: raw_total,
            peak_resident_records: peak_resident,
            observed,
            ground_truth,
            fault_report,
        }
    }

    /// The whole-trace algorithm the `pipeline_equivalence` suite holds
    /// [`run`](Self::run) to, kept deliberately naive and independent of
    /// the pipeline's machinery: replay every bot into name-carrying
    /// records, stable-sort the lot by `(t, client)`, walk it through a
    /// name-keyed [`Topology`] one lookup at a time, quantise, then apply
    /// the fault plan to the whole observed trace at once. Sequential, no
    /// metrics. It is also the only producer of the pre-cache raw trace —
    /// the §V-A ground truth BotMeter itself never sees — returned beside
    /// the outcome for tests that check it or route it through a
    /// hand-built topology. Not a production entry point.
    #[doc(hidden)]
    pub fn run_reference(&self) -> (ScenarioOutcome, Vec<RawLookup>) {
        let authority = self.family.authority_for_epochs(self.num_epochs + 1);
        let (plans, ground_truth) = self.plan_epochs();
        let theta_q = self.family.params().theta_q();
        let mut raw: Vec<RawLookup> = Vec::new();
        for plan in &plans {
            let valid: HashSet<usize> = plan.valid.iter().copied().collect();
            let (family, pool, valid) = (&self.family, &plan.pool, &valid);
            for &(t, client, rng_seed) in &plan.bots {
                let mut rng = ChaCha12Rng::seed_from_u64(rng_seed);
                let colluded = self
                    .evasion
                    .colluded_start(plan.epoch, pool.len(), &mut rng);
                raw.extend(match colluded {
                    Some(start) => {
                        let barrel = (0..theta_q.min(pool.len()))
                            .map(|k| (start + k) % pool.len())
                            .collect();
                        replay_barrel(family, pool, valid, barrel, t, client, &mut rng)
                    }
                    None => {
                        simulate_activation(family, plan.epoch, pool, valid, t, client, &mut rng)
                    }
                });
            }
        }
        raw.sort_by_key(|l| (l.t, l.client));

        let mut topology = Topology::single_local(self.ttl);
        let mut observed = Vec::new();
        for lookup in &raw {
            let visible = topology
                .process(lookup, &authority)
                .expect("single-local topology routes every client");
            if let Some(mut o) = visible {
                o.t = o.t.quantize(self.granularity);
                observed.push(o);
            }
        }
        let (observed, fault_report) = match &self.faults {
            Some(plan) => {
                let (faulted, report) = plan.apply(observed);
                (faulted, Some(report))
            }
            None => (observed, None),
        };
        let outcome = ScenarioOutcome {
            family: self.family.clone(),
            ttl: self.ttl,
            granularity: self.granularity,
            num_epochs: self.num_epochs,
            peak_resident_records: raw.len() as u64,
            raw_lookups: raw.len() as u64,
            observed,
            ground_truth,
            fault_report,
        };
        (outcome, raw)
    }

    /// Phase A, shared with the reference: samples activations epoch by epoch
    /// (one sequential rng per epoch covers sampling *and* evasion
    /// adjustment) and pre-derives every bot's independent rng seed.
    fn plan_epochs(&self) -> (Vec<EpochPlan>, Vec<u64>) {
        let seeds = SeedSequence::new(self.seed).fork_str(self.family.name());
        let epoch_len = self.family.epoch_len();
        let mut plans = Vec::with_capacity(self.num_epochs as usize);
        let mut ground_truth = Vec::with_capacity(self.num_epochs as usize);
        for epoch in 0..self.num_epochs {
            let mut rng =
                ChaCha12Rng::seed_from_u64(seeds.fork(epoch).fork_str("activations").seed());
            let window_start = SimInstant::ZERO + epoch_len * epoch;
            let sampled = self.activation.sample_times(
                self.population,
                epoch_len,
                window_start,
                epoch_len,
                &mut rng,
            );
            // Evasion may drop activations (duty cycling) or compress
            // their offsets (coordinated bursts). Ground truth counts the
            // activations that actually happen.
            let mut times = Vec::with_capacity(sampled.len());
            for t in sampled {
                let offset = t.saturating_since(window_start).as_millis();
                if let Some(adjusted) =
                    self.evasion
                        .adjust_activation(offset, epoch_len.as_millis(), &mut rng)
                {
                    times.push(window_start + SimDuration::from_millis(adjusted));
                }
            }
            times.sort_unstable();
            ground_truth.push(times.len() as u64);

            let pool = self.family.pool_for_epoch(epoch);
            let valid = self.family.valid_indices(epoch);
            let bots = times
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let client = ClientId((epoch as u32) << 20 | i as u32);
                    (t, client, seeds.fork(epoch).fork(1 + i as u64).seed())
                })
                .collect();
            plans.push(EpochPlan {
                epoch,
                pool,
                valid,
                bots,
            });
        }
        (plans, ground_truth)
    }
}

/// One producer worker's output for a shard: the records that fall inside
/// the shard's own time slice plus the runs that overshoot into later
/// shards, every run in replay order. The buffers are drawn from the
/// pipeline's [`BufferPool`](botmeter_exec::BufferPool) and recycled by the
/// consumer once the shard is filtered.
struct ShardBatch {
    /// Records whose destination is this shard.
    own: Vec<SlotLookup>,
    /// Runs of overshooting records, by destination shard.
    overflow: BTreeMap<usize, Vec<SlotLookup>>,
    /// Total records this shard's job range generated.
    generated: u64,
}

/// One epoch's replay plan: the materialised pool, the registered indices
/// (sorted, θ∃ of them) and one `(activation time, client, rng seed)`
/// triple per active bot.
struct EpochPlan {
    epoch: u64,
    pool: Vec<DomainName>,
    valid: Vec<usize>,
    bots: Vec<(SimInstant, ClientId, u64)>,
}

impl ScenarioSpecBuilder {
    /// Sets the bot population `N` (default 64).
    pub fn population(mut self, n: u64) -> Self {
        self.population = n;
        self
    }

    /// Sets the activation model (default constant rate).
    pub fn activation(mut self, model: ActivationModel) -> Self {
        self.activation = model;
        self
    }

    /// Sets the observation window length in epochs (default 1).
    pub fn num_epochs(mut self, n: u64) -> Self {
        self.num_epochs = n;
        self
    }

    /// Sets the cache TTL policy (default: positive 1 day, negative 2 h).
    pub fn ttl(mut self, ttl: TtlPolicy) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the timestamp granularity of the observable trace
    /// (default 100 ms).
    pub fn granularity(mut self, g: SimDuration) -> Self {
        self.granularity = g;
        self
    }

    /// Sets the adversarial evasion strategy (default: none).
    pub fn evasion(mut self, strategy: EvasionStrategy) -> Self {
        self.evasion = strategy;
        self
    }

    /// Attaches a measurement [`FaultPlan`] applied to the observable
    /// trace after cache filtering and quantisation (default: none). The
    /// plan's parameters are validated by [`build`](Self::build).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the root seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the shard width [`ScenarioSpec::run`] cuts the run into
    /// (default: `Streaming { shard: None }`, 16 shards per epoch). Every
    /// width produces the same outcome; it trades per-shard overhead
    /// against how many raw records are resident at once.
    pub fn pipeline(mut self, mode: PipelineMode) -> Self {
        self.pipeline = mode;
        self
    }

    /// Attaches an observability handle; [`ScenarioSpec::run`] then reports
    /// `sim.*` counters, the `sim.bot_replay_ns` and `sim.shard_filter_ns`
    /// histograms and the filter's `cache.s{id}.*` / `topology.*` metrics
    /// (the totals a `Topology::single_local` would push) through it
    /// (default: the no-op handle).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Validates and freezes the spec.
    ///
    /// # Errors
    ///
    /// See [`ScenarioBuildError`].
    pub fn build(self) -> Result<ScenarioSpec, ScenarioBuildError> {
        if self.population == 0 {
            return Err(ScenarioBuildError::ZeroPopulation);
        }
        if self.num_epochs == 0 {
            return Err(ScenarioBuildError::ZeroEpochs);
        }
        if let ActivationModel::DynamicRate { sigma } = self.activation {
            if !(sigma.is_finite() && sigma > 0.0) {
                return Err(ScenarioBuildError::BadSigma);
            }
        }
        self.evasion
            .validate()
            .map_err(ScenarioBuildError::BadEvasion)?;
        if let Some(plan) = &self.faults {
            plan.validate().map_err(ScenarioBuildError::BadFaults)?;
        }
        let width = shard_width(&self.family, self.pipeline);
        if width.is_zero() {
            return Err(ScenarioBuildError::ZeroShardWidth);
        }
        let horizon_ms = self
            .family
            .epoch_len()
            .as_millis()
            .saturating_mul(self.num_epochs)
            .saturating_add(self.family.params().max_activation_duration().as_millis());
        let shards = horizon_ms / width.as_millis();
        if shards > MAX_SHARDS {
            return Err(ScenarioBuildError::TooManyShards { width, shards });
        }
        Ok(ScenarioSpec {
            family: self.family,
            population: self.population,
            activation: self.activation,
            num_epochs: self.num_epochs,
            ttl: self.ttl,
            granularity: self.granularity,
            evasion: self.evasion,
            faults: self.faults,
            seed: self.seed,
            obs: self.obs,
            pipeline: self.pipeline,
        })
    }
}

/// Everything a simulation run produced: the border-visible observed
/// trace, the per-epoch active-bot counts (the ground truth) and how many
/// pre-cache lookups it took.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    family: DgaFamily,
    ttl: TtlPolicy,
    granularity: SimDuration,
    num_epochs: u64,
    raw_lookups: u64,
    peak_resident_records: u64,
    observed: Vec<ObservedLookup>,
    ground_truth: Vec<u64>,
    fault_report: Option<FaultReport>,
}

impl ScenarioOutcome {
    /// The simulated DGA family.
    pub fn family(&self) -> &DgaFamily {
        &self.family
    }

    /// The TTL policy that filtered the trace.
    pub fn ttl(&self) -> TtlPolicy {
        self.ttl
    }

    /// The timestamp granularity of the observed trace.
    pub fn granularity(&self) -> SimDuration {
        self.granularity
    }

    /// Number of epochs simulated.
    pub fn num_epochs(&self) -> u64 {
        self.num_epochs
    }

    /// Total pre-cache lookups the simulation generated. The records
    /// themselves are dropped shard by shard once filtered.
    pub fn raw_lookups(&self) -> u64 {
        self.raw_lookups
    }

    /// The deterministic high-water mark of raw-trace records resident in
    /// memory at once: a few time shards (the whole trace for
    /// [`ScenarioSpec::run_reference`]).
    pub fn peak_resident_records(&self) -> u64 {
        self.peak_resident_records
    }

    /// The border-visible (cache-filtered, quantised) lookup trace.
    pub fn observed(&self) -> &[ObservedLookup] {
        &self.observed
    }

    /// Actual number of bot activations per epoch (the estimators' target).
    pub fn ground_truth(&self) -> &[u64] {
        &self.ground_truth
    }

    /// What the configured [`FaultPlan`] did to the observable trace
    /// (`None` when the scenario ran fault-free).
    pub fn fault_report(&self) -> Option<&FaultReport> {
        self.fault_report.as_ref()
    }

    /// The observed lookups whose timestamps fall in `epoch`.
    pub fn observed_in_epoch(&self, epoch: u64) -> Vec<ObservedLookup> {
        let len = self.family.epoch_len();
        self.observed
            .iter()
            .filter(|o| o.t.epoch_day(len) == epoch)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_validation() {
        assert_eq!(
            ScenarioSpec::builder(DgaFamily::murofet())
                .population(0)
                .build()
                .unwrap_err(),
            ScenarioBuildError::ZeroPopulation
        );
        assert_eq!(
            ScenarioSpec::builder(DgaFamily::murofet())
                .num_epochs(0)
                .build()
                .unwrap_err(),
            ScenarioBuildError::ZeroEpochs
        );
        assert_eq!(
            ScenarioSpec::builder(DgaFamily::murofet())
                .activation(ActivationModel::DynamicRate { sigma: f64::NAN })
                .build()
                .unwrap_err(),
            ScenarioBuildError::BadSigma
        );
    }

    #[test]
    fn zero_shard_width_is_rejected() {
        let with_shard = |shard| {
            ScenarioSpec::builder(DgaFamily::murofet())
                .pipeline(PipelineMode::Streaming { shard })
                .build()
        };
        let err = with_shard(Some(SimDuration::ZERO)).unwrap_err();
        assert_eq!(err, ScenarioBuildError::ZeroShardWidth);
        assert!(err.to_string().contains("non-zero"));
        assert!(with_shard(None).is_ok());
    }

    #[test]
    fn a_width_that_makes_too_many_shards_is_rejected() {
        let with_shard = |shard, epochs| {
            ScenarioSpec::builder(DgaFamily::new_goz())
                .num_epochs(epochs)
                .pipeline(PipelineMode::Streaming { shard })
                .build()
        };
        // 1 ms over one day is 86.4 M shards: one table entry and one
        // producer ticket each, whatever the traffic.
        let width = SimDuration::from_millis(1);
        let err = with_shard(Some(width), 1).unwrap_err();
        let ScenarioBuildError::TooManyShards { width: w, shards } = err else {
            panic!("expected TooManyShards, got {err}");
        };
        assert_eq!(w, width);
        assert!(shards >= 86_400_000, "{shards}");
        let msg = err.to_string();
        assert!(
            msg.contains("1ms") && msg.contains(&shards.to_string()),
            "{msg}"
        );
        // The ceiling is on the count, not the width: one second is fine
        // over a day and too fine over a fortnight; the default geometry
        // (16 per epoch) is bounded the same way.
        let second = Some(SimDuration::from_secs(1));
        assert!(with_shard(second, 1).is_ok());
        assert!(matches!(
            with_shard(second, 14).unwrap_err(),
            ScenarioBuildError::TooManyShards { .. }
        ));
        assert!(with_shard(None, 365).is_ok());
        assert!(matches!(
            with_shard(None, 1 << 17).unwrap_err(),
            ScenarioBuildError::TooManyShards { .. }
        ));
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let run = |seed| {
            ScenarioSpec::builder(DgaFamily::murofet())
                .population(16)
                .seed(seed)
                .build()
                .unwrap()
                .run(ExecPolicy::default())
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.raw_lookups(), b.raw_lookups());
        assert_eq!(a.observed(), b.observed());
        assert_eq!(a.ground_truth(), b.ground_truth());
        let c = run(6);
        assert_ne!(a.observed(), c.observed());
    }

    #[test]
    fn caching_compresses_uniform_traffic_heavily() {
        // AU: all bots share one barrel, so almost everything is masked.
        let outcome = ScenarioSpec::builder(DgaFamily::murofet())
            .population(64)
            .seed(1)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let raw = outcome.raw_lookups() as f64;
        let obs = outcome.observed().len() as f64;
        assert!(obs < raw * 0.5, "expected heavy masking: {obs} of {raw}");
        assert!(obs > 0.0);
    }

    #[test]
    fn ground_truth_close_to_population() {
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(256)
            .seed(2)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let n = outcome.ground_truth()[0] as f64;
        assert!((n - 256.0).abs() < 80.0, "Poisson count {n} vs 256");
    }

    #[test]
    fn observed_timestamps_are_quantised() {
        let outcome = ScenarioSpec::builder(DgaFamily::murofet())
            .population(16)
            .seed(3)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        assert!(outcome
            .observed()
            .iter()
            .all(|o| o.t.as_millis() % 100 == 0));
    }

    #[test]
    fn multi_epoch_slicing() {
        let outcome = ScenarioSpec::builder(DgaFamily::torpig())
            .population(32)
            .num_epochs(3)
            .seed(4)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        assert_eq!(outcome.ground_truth().len(), 3);
        let total: usize = (0..3).map(|e| outcome.observed_in_epoch(e).len()).sum();
        // Activations late in an epoch can spill lookups into the next
        // epoch; every observed lookup must land in epochs 0..=3.
        let all = outcome.observed().len();
        let spill = outcome.observed_in_epoch(3).len();
        assert_eq!(total + spill, all);
    }

    #[test]
    fn raw_trace_is_time_sorted() {
        let (outcome, raw) = ScenarioSpec::builder(DgaFamily::conficker_c())
            .population(8)
            .seed(5)
            .build()
            .unwrap()
            .run_reference();
        assert_eq!(raw.len() as u64, outcome.raw_lookups());
        for w in raw.windows(2) {
            assert!(w[0].t <= w[1].t);
        }
    }

    #[test]
    fn faulted_run_reports_degradation_and_validates_plan() {
        use botmeter_faults::FaultModel;
        let base = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(7);
        let clean = base.clone().build().unwrap().run(ExecPolicy::default());
        assert!(clean.fault_report().is_none());

        let faulted = base
            .clone()
            .faults(FaultPlan::new(9).with(FaultModel::Drop { rate: 0.3 }))
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let report = faulted.fault_report().expect("plan attached");
        assert_eq!(report.input, clean.observed().len() as u64);
        assert_eq!(report.output, faulted.observed().len() as u64);
        assert!(report.dropped > 0, "30% loss must drop something");
        assert!(report.delivery_rate() < 1.0);

        let err = base
            .faults(FaultPlan::new(1).with(FaultModel::Drop { rate: 1.5 }))
            .build()
            .unwrap_err();
        assert!(matches!(err, ScenarioBuildError::BadFaults(_)));
        assert!(err.to_string().contains("invalid fault plan"));
    }

    #[test]
    fn faulted_run_records_fault_counters() {
        use botmeter_faults::FaultModel;
        let (obs, registry) = Obs::collecting();
        let outcome = ScenarioSpec::builder(DgaFamily::new_goz())
            .population(32)
            .seed(7)
            .faults(
                FaultPlan::new(9)
                    .with(FaultModel::Drop { rate: 0.2 })
                    .with(FaultModel::Duplicate { rate: 0.1 }),
            )
            .obs(obs)
            .build()
            .unwrap()
            .run(ExecPolicy::default());
        let report = outcome.fault_report().unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim.faults.input"), Some(report.input));
        assert_eq!(snap.counter("sim.faults.dropped"), Some(report.dropped));
        assert_eq!(
            snap.counter("sim.faults.duplicated"),
            Some(report.duplicated)
        );
        assert_eq!(
            snap.counter("sim.observed_lookups"),
            Some(outcome.observed().len() as u64)
        );
    }

    #[test]
    fn accessors_expose_config() {
        let spec = ScenarioSpec::builder(DgaFamily::murofet())
            .population(10)
            .build()
            .unwrap();
        assert_eq!(spec.population(), 10);
        assert_eq!(spec.family().name(), "Murofet");
        let outcome = spec.run(ExecPolicy::default());
        assert_eq!(outcome.family().name(), "Murofet");
        assert_eq!(outcome.num_epochs(), 1);
        assert_eq!(outcome.granularity(), SimDuration::from_millis(100));
        assert_eq!(outcome.ttl(), TtlPolicy::paper_default());
    }
}
