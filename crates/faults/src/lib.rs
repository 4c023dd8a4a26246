//! Deterministic fault injection for BotMeter's observable trace stream.
//!
//! BotMeter's estimators (§IV of the paper) assume a lossless, well-ordered
//! view of the cache-filtered lookup stream at the border vantage point. A
//! production deployment never gets one: exporters sample, packets drop in
//! bursts, collectors duplicate and reorder records, server clocks skew and
//! whole vantage points blink out. This crate models exactly those
//! degradations as **seeded, composable fault stages** so that robustness
//! experiments are as reproducible as the clean pipeline:
//!
//! * [`FaultModel`] — one degradation: uniform record [`Drop`], bursty
//!   Gilbert–Elliott [`BurstLoss`], record [`Duplicate`]ation, bounded
//!   [`Reorder`]ing, timestamp [`Jitter`], per-server [`ClockSkew`],
//!   per-server 1-in-N [`Sample`] export and vantage-point [`Outage`]
//!   windows;
//! * [`FaultPlan`] — an ordered stack of stages plus a root seed. Every
//!   stage draws from its own `ChaCha` substream (forked from the plan seed
//!   and the stage index), so inserting or removing one stage never
//!   perturbs the randomness of the others;
//! * [`FaultReport`] — what the plan actually did to a trace, including the
//!   effective [`delivery_rate`](FaultReport::delivery_rate) estimators use
//!   to rescale observed counts.
//!
//! [`FaultPlan::apply`] is a **pure sequential transform** of the trace: it
//! never consults thread state, wall clocks or iteration order of unordered
//! containers, so a faulted trace is bit-identical for a fixed `(plan,
//! trace)` regardless of the [`ExecPolicy`] the surrounding pipeline runs
//! under. `tests/robustness.rs::faulted_landscape_is_bit_identical_across_policies`
//! holds that contract end to end, and this crate's
//! `streaming_matches_batch_for_every_model` /
//! `streaming_matches_batch_for_composed_plan` hold the chunked stream to
//! the whole-trace transform per fault model.
//!
//! [`Drop`]: FaultModel::Drop
//! [`BurstLoss`]: FaultModel::BurstLoss
//! [`Duplicate`]: FaultModel::Duplicate
//! [`Reorder`]: FaultModel::Reorder
//! [`Jitter`]: FaultModel::Jitter
//! [`ClockSkew`]: FaultModel::ClockSkew
//! [`Sample`]: FaultModel::Sample
//! [`Outage`]: FaultModel::Outage
//! [`ExecPolicy`]: https://docs.rs/botmeter-exec
//!
//! # Example
//!
//! ```
//! use botmeter_dns::{ObservedLookup, ServerId, SimInstant};
//! use botmeter_faults::{FaultModel, FaultPlan};
//!
//! let trace: Vec<ObservedLookup> = (0..100)
//!     .map(|i| {
//!         ObservedLookup::new(
//!             SimInstant::from_millis(i * 100),
//!             ServerId(1),
//!             "bot.example".parse().unwrap(),
//!         )
//!     })
//!     .collect();
//! let plan = FaultPlan::new(7).with(FaultModel::Drop { rate: 0.25 });
//! plan.validate()?;
//! let (faulted, report) = plan.apply(trace.clone());
//! assert_eq!(report.input, 100);
//! assert_eq!(report.output as usize, faulted.len());
//! assert!(report.dropped > 0);
//! // Same plan, same trace → bit-identical faulted stream.
//! assert_eq!(plan.apply(trace).0, faulted);
//! # Ok::<(), botmeter_faults::FaultPlanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use botmeter_dns::{ObservedLookup, ServerId, SimDuration, SimInstant};
use botmeter_stats::{mix64, SeedSequence};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The record shape fault stages transform.
///
/// Every stage's decisions depend only on the record *count*, the
/// timestamp and the forwarding server — never on the domain — so the same
/// plan applied to an [`ObservedLookup`] stream and to any other record
/// shape carrying the same timestamps and servers draws identical random
/// numbers and keeps the same records. The simulation pipeline exploits
/// exactly that: it faults its own `Copy` records (a timestamp and a slot
/// in its name table; no `Arc` refcount traffic per retained record) and
/// hydrates only at the egress boundary; its `pipeline_equivalence` suite
/// holds the faulted result to [`FaultPlan::apply`] over `ObservedLookup`s.
pub trait FaultRecord: Clone {
    /// The record's (arrival) timestamp.
    fn t(&self) -> SimInstant;
    /// Replaces the timestamp (jitter and clock-skew stages).
    fn set_t(&mut self, t: SimInstant);
    /// The forwarding server the record is attributed to.
    fn server(&self) -> ServerId;
}

impl FaultRecord for ObservedLookup {
    fn t(&self) -> SimInstant {
        self.t
    }
    fn set_t(&mut self, t: SimInstant) {
        self.t = t;
    }
    fn server(&self) -> ServerId {
        self.server
    }
}

/// One composable degradation of the observable trace.
///
/// Rates and probabilities are per-record; durations are virtual
/// (simulation) time. See [`FaultPlan::validate`] for the accepted
/// parameter domains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultModel {
    /// Uniform record loss: each record is dropped independently with
    /// probability `rate`.
    Drop {
        /// Per-record drop probability in `[0, 1]`.
        rate: f64,
    },
    /// Bursty loss (Gilbert–Elliott): a two-state channel that is lossless
    /// in the *good* state and drops records with probability `loss` in the
    /// *bad* state, entering bursts with `p_enter` and leaving them with
    /// `p_exit` per record.
    BurstLoss {
        /// Per-record probability of entering a loss burst, in `[0, 1]`.
        p_enter: f64,
        /// Per-record probability of leaving a burst, in `(0, 1]` (the
        /// channel must be able to recover).
        p_exit: f64,
        /// Drop probability while inside a burst, in `[0, 1]`.
        loss: f64,
    },
    /// Record duplication: each record is emitted twice (back to back) with
    /// probability `rate` — the collector-retransmit artefact.
    Duplicate {
        /// Per-record duplication probability in `[0, 1]`.
        rate: f64,
    },
    /// Bounded reordering: each record is independently selected with
    /// probability `rate` and delayed past at most `max_displacement`
    /// later records (timestamps are untouched, so the displaced records
    /// arrive visibly out of order).
    Reorder {
        /// Per-record displacement probability in `[0, 1]`.
        rate: f64,
        /// Upper bound on how many positions a record can slip, ≥ 1.
        max_displacement: usize,
    },
    /// Per-record timestamp jitter: each timestamp shifts by a uniform
    /// offset in `[-max, +max]` (clamped at the epoch origin). Record
    /// order is untouched, so jittered streams carry timestamp inversions.
    Jitter {
        /// Maximum absolute per-record shift.
        max: SimDuration,
    },
    /// Constant per-server clock skew: every record of a server shifts by
    /// the same offset in `[-max, +max]`, derived deterministically from
    /// the plan seed and the server id.
    ClockSkew {
        /// Maximum absolute per-server offset.
        max: SimDuration,
    },
    /// Per-server 1-in-N export sampling: each server keeps exactly every
    /// `keep_one_in`-th record of its substream (with a per-server phase),
    /// the deterministic sampling real exporters apply under load.
    Sample {
        /// Keep one record out of this many, ≥ 1 (1 = keep everything).
        keep_one_in: u64,
    },
    /// Vantage-point outage: every record of `server` (or of all servers
    /// when `None`) with a timestamp in `[from, until)` is lost.
    Outage {
        /// The affected server; `None` blacks out the whole vantage point.
        server: Option<ServerId>,
        /// Start of the outage window (inclusive).
        from: SimInstant,
        /// End of the outage window (exclusive).
        until: SimInstant,
    },
}

impl FaultModel {
    /// A short stable name, used for seed derivation and reporting. Seeds
    /// fork over the stage *index* and this name, so two stages of the same
    /// kind in one plan still draw from distinct substreams.
    pub fn name(&self) -> &'static str {
        match self {
            FaultModel::Drop { .. } => "drop",
            FaultModel::BurstLoss { .. } => "burst_loss",
            FaultModel::Duplicate { .. } => "duplicate",
            FaultModel::Reorder { .. } => "reorder",
            FaultModel::Jitter { .. } => "jitter",
            FaultModel::ClockSkew { .. } => "clock_skew",
            FaultModel::Sample { .. } => "sample",
            FaultModel::Outage { .. } => "outage",
        }
    }

    /// Checks this stage's parameters; see [`FaultPlanError`].
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let probability = |what: &'static str, p: f64| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(FaultPlanError::BadProbability {
                    stage: self.name(),
                    what,
                    value: p,
                })
            }
        };
        match *self {
            FaultModel::Drop { rate } | FaultModel::Duplicate { rate } => probability("rate", rate),
            FaultModel::BurstLoss {
                p_enter,
                p_exit,
                loss,
            } => {
                probability("p_enter", p_enter)?;
                probability("p_exit", p_exit)?;
                probability("loss", loss)?;
                if p_exit <= 0.0 {
                    return Err(FaultPlanError::BadProbability {
                        stage: self.name(),
                        what: "p_exit",
                        value: p_exit,
                    });
                }
                Ok(())
            }
            FaultModel::Reorder {
                rate,
                max_displacement,
            } => {
                probability("rate", rate)?;
                if max_displacement == 0 {
                    return Err(FaultPlanError::ZeroDisplacement);
                }
                Ok(())
            }
            FaultModel::Jitter { .. } | FaultModel::ClockSkew { .. } => Ok(()),
            FaultModel::Sample { keep_one_in } => {
                if keep_one_in == 0 {
                    return Err(FaultPlanError::ZeroSamplingStride);
                }
                Ok(())
            }
            FaultModel::Outage { from, until, .. } => {
                if until <= from {
                    Err(FaultPlanError::EmptyOutageWindow { from, until })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// The carried randomness/state one stage threads across chunks.
///
/// Exactly the state the batch transform keeps *within* one
/// `apply`-over-the-whole-trace call; carrying it across chunk boundaries
/// is what makes chunked application bit-identical to batch application.
#[derive(Debug, Clone)]
enum Carry<R> {
    /// A per-record rng stream (drop, duplicate, jitter).
    Rng(ChaCha12Rng),
    /// Gilbert–Elliott channel: rng stream plus the burst flag.
    Burst { rng: ChaCha12Rng, burst: bool },
    /// Bounded reorder: rng stream, the next global record index, and the
    /// displaced records still waiting for their slot.
    Reorder {
        rng: ChaCha12Rng,
        next_index: u64,
        pending: Vec<(u64, R)>,
    },
    /// Per-server 1-in-N sampling: each server's running record position.
    Sample { position: HashMap<ServerId, u64> },
    /// Pure per-record functions of `(stage seed, record)` — clock skew
    /// and outage need no carried state.
    Stateless,
}

/// One fault stage plus the state it carries across chunk boundaries.
#[derive(Debug, Clone)]
struct StageState<R> {
    model: FaultModel,
    stage_seed: u64,
    carry: Carry<R>,
}

impl<R: FaultRecord> StageState<R> {
    fn new(model: FaultModel, stage_seed: u64) -> Self {
        let carry = match model {
            FaultModel::Drop { .. } | FaultModel::Duplicate { .. } | FaultModel::Jitter { .. } => {
                Carry::Rng(ChaCha12Rng::seed_from_u64(stage_seed))
            }
            FaultModel::BurstLoss { .. } => Carry::Burst {
                rng: ChaCha12Rng::seed_from_u64(stage_seed),
                burst: false,
            },
            FaultModel::Reorder { .. } => Carry::Reorder {
                rng: ChaCha12Rng::seed_from_u64(stage_seed),
                next_index: 0,
                pending: Vec::new(),
            },
            FaultModel::Sample { .. } => Carry::Sample {
                position: HashMap::new(),
            },
            FaultModel::ClockSkew { .. } | FaultModel::Outage { .. } => Carry::Stateless,
        };
        StageState {
            model,
            stage_seed,
            carry,
        }
    }

    /// Runs one chunk through this stage in place, advancing the carried
    /// state. The concatenation of the outputs over any chunking of a
    /// trace (plus a final [`flush`](Self::flush)) equals the batch
    /// transform of the whole trace.
    fn push(&mut self, chunk: &mut Vec<R>, rep: &mut FaultReport) {
        if chunk.is_empty() {
            return;
        }
        match (&self.model, &mut self.carry) {
            (&FaultModel::Drop { rate }, Carry::Rng(rng)) => {
                chunk.retain(|_| {
                    let lost = rng.gen_bool(rate);
                    rep.dropped += u64::from(lost);
                    !lost
                });
            }
            (
                &FaultModel::BurstLoss {
                    p_enter,
                    p_exit,
                    loss,
                },
                Carry::Burst { rng, burst },
            ) => {
                chunk.retain(|_| {
                    let lost = *burst && rng.gen_bool(loss);
                    // Transition after the record so a burst always has a
                    // chance to claim at least one record.
                    *burst = if *burst {
                        !rng.gen_bool(p_exit)
                    } else {
                        rng.gen_bool(p_enter)
                    };
                    rep.dropped += u64::from(lost);
                    !lost
                });
            }
            (&FaultModel::Duplicate { rate }, Carry::Rng(rng)) => {
                let mut out = Vec::with_capacity(chunk.len());
                for lookup in chunk.drain(..) {
                    let dup = rng.gen_bool(rate);
                    if dup {
                        rep.duplicated += 1;
                        out.push(lookup.clone());
                    }
                    out.push(lookup);
                }
                *chunk = out;
            }
            (
                &FaultModel::Reorder {
                    rate,
                    max_displacement,
                },
                Carry::Reorder {
                    rng,
                    next_index,
                    pending,
                },
            ) => {
                for lookup in chunk.drain(..) {
                    let i = *next_index;
                    *next_index += 1;
                    let displaced = rng.gen_bool(rate);
                    let key = if displaced {
                        rep.displaced += 1;
                        i + rng.gen_range(1..=max_displacement as u64)
                    } else {
                        i
                    };
                    pending.push((key, lookup));
                }
                // Everything keyed at or before the last ingested index is
                // final: a future record at global index j gets a key ≥ j,
                // strictly past the boundary. Stable partition + stable
                // sort keeps ties in insertion order, so the concatenation
                // of per-chunk emissions equals one global stable sort.
                let last = *next_index - 1;
                let mut held = Vec::new();
                let mut ready = Vec::new();
                for keyed in pending.drain(..) {
                    if keyed.0 <= last {
                        ready.push(keyed);
                    } else {
                        held.push(keyed);
                    }
                }
                *pending = held;
                ready.sort_by_key(|&(key, _)| key);
                chunk.extend(ready.into_iter().map(|(_, lookup)| lookup));
            }
            (&FaultModel::Jitter { max }, Carry::Rng(rng)) => {
                let span = max.as_millis();
                for lookup in chunk.iter_mut() {
                    let offset = rng.gen_range(0..=2 * span) as i64 - span as i64;
                    let shifted = shift(lookup.t(), offset);
                    rep.perturbed += u64::from(shifted != lookup.t());
                    lookup.set_t(shifted);
                }
            }
            (&FaultModel::ClockSkew { max }, Carry::Stateless) => {
                let span = max.as_millis() as i64;
                for lookup in chunk.iter_mut() {
                    // Per-server constant offset in [-max, +max], a pure
                    // function of (stage seed, server) — independent of
                    // record order.
                    let r = mix64(self.stage_seed ^ mix64(u64::from(lookup.server().0)));
                    let offset = (r % (2 * span as u64 + 1)) as i64 - span;
                    let shifted = shift(lookup.t(), offset);
                    rep.perturbed += u64::from(shifted != lookup.t());
                    lookup.set_t(shifted);
                }
            }
            (&FaultModel::Sample { keep_one_in }, Carry::Sample { position }) => {
                let stage_seed = self.stage_seed;
                chunk.retain(|lookup| {
                    let pos = position.entry(lookup.server()).or_insert(0);
                    let phase =
                        mix64(stage_seed ^ mix64(u64::from(lookup.server().0))) % keep_one_in;
                    let keep = *pos % keep_one_in == phase;
                    *pos += 1;
                    rep.dropped += u64::from(!keep);
                    keep
                });
            }
            (
                &FaultModel::Outage {
                    server,
                    from,
                    until,
                },
                Carry::Stateless,
            ) => {
                chunk.retain(|lookup| {
                    let affected = server.is_none_or(|s| s == lookup.server())
                        && lookup.t() >= from
                        && lookup.t() < until;
                    rep.dropped += u64::from(affected);
                    !affected
                });
            }
            // `new` pairs every model with its carry variant.
            _ => unreachable!("stage carry does not match its model"),
        }
    }

    /// Releases whatever the stage still holds at end of stream. Only
    /// reorder stages hold records (displaced past the last chunk edge).
    fn flush(&mut self) -> Vec<R> {
        match &mut self.carry {
            Carry::Reorder { pending, .. } => {
                let mut held = std::mem::take(pending);
                held.sort_by_key(|&(key, _)| key);
                held.into_iter().map(|(_, lookup)| lookup).collect()
            }
            _ => Vec::new(),
        }
    }
}

/// Shifts an instant by a signed millisecond offset, clamping at time zero.
fn shift(t: SimInstant, offset_ms: i64) -> SimInstant {
    if offset_ms >= 0 {
        t + SimDuration::from_millis(offset_ms as u64)
    } else {
        t - SimDuration::from_millis(offset_ms.unsigned_abs())
    }
}

/// An ordered stack of fault stages plus the root seed they draw from.
///
/// Stages apply in insertion order — e.g. sampling *after* duplication
/// models an exporter that samples the already-duplicated stream. Each
/// stage's randomness forks from `(seed, stage index, stage name)`, so
/// plans are stable under stage insertion/removal elsewhere in the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    stages: Vec<FaultModel>,
}

impl FaultPlan {
    /// An empty plan (applies nothing) rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            stages: Vec::new(),
        }
    }

    /// Appends a fault stage.
    #[must_use]
    pub fn with(mut self, stage: FaultModel) -> Self {
        self.stages.push(stage);
        self
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Validates every stage's parameters.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for stage in &self.stages {
            stage.validate()?;
        }
        Ok(())
    }

    /// Runs the trace through every stage and reports what happened.
    ///
    /// Pure and deterministic: the same `(plan, trace)` pair always yields
    /// the same faulted trace, on any thread, under any execution policy.
    /// Invalid stage parameters (see [`FaultPlan::validate`]) make the
    /// stage rngs panic; validate plans built from untrusted input first.
    ///
    /// This is the one-chunk case of [`FaultPlan::stream`] — the batch and
    /// streaming paths share every drawn random number by construction.
    /// Generic over the [`FaultRecord`] shape: stage decisions never look
    /// at the domain, so any shape with the same timestamps and servers
    /// faults identically to an [`ObservedLookup`] stream.
    pub fn apply<R: FaultRecord>(&self, trace: Vec<R>) -> (Vec<R>, FaultReport) {
        let mut stream = self.stream();
        let mut out = stream.push(trace);
        let (tail, report) = stream.finish();
        out.extend(tail);
        (out, report)
    }

    /// Starts an incremental application of this plan.
    ///
    /// Feed the trace in arrival-order chunks via [`FaultStream::push`] and
    /// close with [`FaultStream::finish`]; the concatenated outputs are
    /// bit-identical to [`FaultPlan::apply`] on the concatenated input, for
    /// *any* chunking — every stage carries its rng stream and working
    /// state (burst flag, reorder buffer, per-server sampling positions)
    /// across chunk boundaries.
    pub fn stream<R: FaultRecord>(&self) -> FaultStream<R> {
        let seeds = SeedSequence::new(self.seed).fork_str("faults");
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, stage)| {
                let stage_seed = seeds.fork(i as u64).fork_str(stage.name()).seed();
                StageState::new(stage.clone(), stage_seed)
            })
            .collect();
        FaultStream {
            stages,
            report: FaultReport::default(),
        }
    }
}

/// An in-progress chunked application of a [`FaultPlan`].
///
/// Obtained from [`FaultPlan::stream`]; the streaming pipeline uses it to
/// fault each time shard as it is produced instead of materializing the
/// whole observed trace first.
///
/// # Example
///
/// ```
/// use botmeter_dns::{ObservedLookup, ServerId, SimInstant};
/// use botmeter_faults::{FaultModel, FaultPlan};
///
/// let trace: Vec<ObservedLookup> = (0..1000)
///     .map(|i| {
///         ObservedLookup::new(
///             SimInstant::from_millis(i * 10),
///             ServerId(1),
///             "bot.example".parse().unwrap(),
///         )
///     })
///     .collect();
/// let plan = FaultPlan::new(7)
///     .with(FaultModel::Drop { rate: 0.1 })
///     .with(FaultModel::Reorder { rate: 0.2, max_displacement: 5 });
///
/// // Chunked application ≡ batch application, bit for bit.
/// let mut stream = plan.stream();
/// let mut chunked = Vec::new();
/// for chunk in trace.chunks(64) {
///     chunked.extend(stream.push(chunk.to_vec()));
/// }
/// let (tail, report) = stream.finish();
/// chunked.extend(tail);
///
/// let (batch, batch_report) = plan.apply(trace);
/// assert_eq!(chunked, batch);
/// assert_eq!(report, batch_report);
/// ```
#[derive(Debug, Clone)]
pub struct FaultStream<R = ObservedLookup> {
    stages: Vec<StageState<R>>,
    report: FaultReport,
}

impl<R: FaultRecord> FaultStream<R> {
    /// Runs one arrival-order chunk through every stage and returns the
    /// records that are final — later chunks can no longer affect them.
    /// Reorder stages may hold a bounded number of records back (at most
    /// `max_displacement` per stage); [`finish`](Self::finish) releases
    /// them.
    pub fn push(&mut self, chunk: Vec<R>) -> Vec<R> {
        self.report.input += chunk.len() as u64;
        let mut chunk = chunk;
        for stage in &mut self.stages {
            stage.push(&mut chunk, &mut self.report);
        }
        self.report.output += chunk.len() as u64;
        chunk
    }

    /// Flushes every stage in order and returns the tail records plus the
    /// final report. Records a stage holds back pass through all later
    /// stages, exactly as they would have in the batch transform.
    pub fn finish(mut self) -> (Vec<R>, FaultReport) {
        let mut tail = Vec::new();
        for i in 0..self.stages.len() {
            let mut chunk = self.stages[i].flush();
            if chunk.is_empty() {
                continue;
            }
            for stage in &mut self.stages[i + 1..] {
                stage.push(&mut chunk, &mut self.report);
            }
            tail.append(&mut chunk);
        }
        self.report.output += tail.len() as u64;
        (tail, self.report)
    }
}

/// What a [`FaultPlan`] did to one trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Records entering the plan.
    pub input: u64,
    /// Records leaving the plan.
    pub output: u64,
    /// Records lost to drop, burst-loss, sampling and outage stages.
    pub dropped: u64,
    /// Extra copies emitted by duplication stages.
    pub duplicated: u64,
    /// Records moved out of arrival order by reordering stages.
    pub displaced: u64,
    /// Records whose timestamp changed under jitter or clock skew.
    pub perturbed: u64,
}

impl FaultReport {
    /// The effective delivery rate `output / input` — the factor estimators
    /// divide by to rescale observed counts. `1.0` for an empty input;
    /// above `1.0` when duplication outweighs loss.
    pub fn delivery_rate(&self) -> f64 {
        if self.input == 0 {
            1.0
        } else {
            self.output as f64 / self.input as f64
        }
    }
}

/// Invalid [`FaultPlan`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum FaultPlanError {
    /// A rate or probability was outside its domain (or not finite).
    BadProbability {
        /// The offending stage's [`FaultModel::name`].
        stage: &'static str,
        /// Which parameter was out of domain.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A reorder stage allowed zero displacement.
    ZeroDisplacement,
    /// A sampling stage had a zero stride.
    ZeroSamplingStride,
    /// An outage window ends at or before it starts.
    EmptyOutageWindow {
        /// Window start.
        from: SimInstant,
        /// Window end.
        until: SimInstant,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::BadProbability { stage, what, value } => {
                write!(f, "{stage}: {what} = {value} is outside its domain")
            }
            FaultPlanError::ZeroDisplacement => {
                write!(f, "reorder: max_displacement must be at least 1")
            }
            FaultPlanError::ZeroSamplingStride => {
                write!(f, "sample: keep_one_in must be at least 1")
            }
            FaultPlanError::EmptyOutageWindow { from, until } => {
                write!(f, "outage: window [{from:?}, {until:?}) is empty")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: u64) -> Vec<ObservedLookup> {
        (0..n)
            .map(|i| {
                let server = ServerId((i % 3) as u32 + 1);
                let domain = format!("d{i}.example").parse().unwrap();
                ObservedLookup::new(SimInstant::from_millis(i * 100), server, domain)
            })
            .collect()
    }

    #[test]
    fn empty_plan_is_identity() {
        let t = trace(50);
        let (out, report) = FaultPlan::new(1).apply(t.clone());
        assert_eq!(out, t);
        assert_eq!(report.input, 50);
        assert_eq!(report.output, 50);
        assert_eq!(report.dropped, 0);
        assert!((report.delivery_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn apply_is_deterministic_per_seed() {
        let plan = FaultPlan::new(9)
            .with(FaultModel::Drop { rate: 0.3 })
            .with(FaultModel::Duplicate { rate: 0.2 })
            .with(FaultModel::Jitter {
                max: SimDuration::from_millis(250),
            });
        let (a, ra) = plan.apply(trace(400));
        let (b, rb) = plan.apply(trace(400));
        assert_eq!(a, b);
        assert_eq!(ra, rb);
        let other = FaultPlan::new(10)
            .with(FaultModel::Drop { rate: 0.3 })
            .with(FaultModel::Duplicate { rate: 0.2 })
            .with(FaultModel::Jitter {
                max: SimDuration::from_millis(250),
            });
        assert_ne!(other.apply(trace(400)).0, a, "seed must matter");
    }

    #[test]
    fn drop_rate_roughly_respected_and_reported() {
        let plan = FaultPlan::new(3).with(FaultModel::Drop { rate: 0.5 });
        let (out, report) = plan.apply(trace(2000));
        assert_eq!(report.dropped as usize, 2000 - out.len());
        let rate = report.delivery_rate();
        assert!((0.4..0.6).contains(&rate), "delivery {rate}");
    }

    #[test]
    fn burst_loss_drops_in_runs() {
        let plan = FaultPlan::new(5).with(FaultModel::BurstLoss {
            p_enter: 0.05,
            p_exit: 0.3,
            loss: 1.0,
        });
        let (out, report) = plan.apply(trace(3000));
        assert!(report.dropped > 0);
        assert_eq!(out.len() + report.dropped as usize, 3000);
        // Lossless in the good state: with these parameters a healthy
        // majority survives.
        assert!(out.len() > 1500, "kept {}", out.len());
    }

    #[test]
    fn duplicate_emits_adjacent_copies() {
        let plan = FaultPlan::new(4).with(FaultModel::Duplicate { rate: 1.0 });
        let (out, report) = plan.apply(trace(10));
        assert_eq!(out.len(), 20);
        assert_eq!(report.duplicated, 10);
        for pair in out.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn reorder_is_bounded() {
        let n = 500usize;
        let max_displacement = 4usize;
        let plan = FaultPlan::new(6).with(FaultModel::Reorder {
            rate: 0.5,
            max_displacement,
        });
        let original = trace(n as u64);
        let (out, report) = plan.apply(original.clone());
        assert_eq!(out.len(), n);
        assert!(report.displaced > 0);
        // Every record lands within max_displacement of where it started.
        for (pos, lookup) in out.iter().enumerate() {
            let orig = original.iter().position(|o| o == lookup).unwrap();
            assert!(
                pos.abs_diff(orig) <= max_displacement,
                "record {orig} moved to {pos}"
            );
        }
    }

    #[test]
    fn jitter_stays_within_bound_and_preserves_order_of_records() {
        let max = SimDuration::from_millis(300);
        let plan = FaultPlan::new(7).with(FaultModel::Jitter { max });
        let original = trace(200);
        let (out, report) = plan.apply(original.clone());
        assert_eq!(out.len(), original.len());
        assert!(report.perturbed > 0);
        for (a, b) in original.iter().zip(&out) {
            assert_eq!(a.domain, b.domain, "record order preserved");
            let delta = a.t.as_millis().abs_diff(b.t.as_millis());
            assert!(delta <= 300, "jitter {delta} exceeds bound");
        }
    }

    #[test]
    fn clock_skew_is_constant_per_server() {
        let plan = FaultPlan::new(8).with(FaultModel::ClockSkew {
            max: SimDuration::from_secs(2),
        });
        let original = trace(300);
        let (out, _) = plan.apply(original.clone());
        let mut offsets: HashMap<ServerId, i64> = HashMap::new();
        for (a, b) in original.iter().zip(&out) {
            let offset = b.t.as_millis() as i64 - a.t.as_millis() as i64;
            assert!(offset.unsigned_abs() <= 2000);
            // Clamping at t=0 can shrink early offsets; skip those.
            if a.t.as_millis() >= 2000 {
                let known = offsets.entry(a.server).or_insert(offset);
                assert_eq!(*known, offset, "skew varies within {:?}", a.server);
            }
        }
    }

    #[test]
    fn sampling_keeps_one_in_n_per_server() {
        let plan = FaultPlan::new(9).with(FaultModel::Sample { keep_one_in: 3 });
        let original = trace(900);
        let (out, report) = plan.apply(original);
        // 900 records over 3 servers → 300 each → 100 kept each.
        assert_eq!(out.len(), 300);
        assert_eq!(report.dropped, 600);
        assert!((report.delivery_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn outage_blacks_out_window() {
        let from = SimInstant::from_millis(10_000);
        let until = SimInstant::from_millis(20_000);
        let all = FaultPlan::new(10).with(FaultModel::Outage {
            server: None,
            from,
            until,
        });
        let (out, _) = all.apply(trace(1000));
        assert!(out.iter().all(|o| o.t < from || o.t >= until));
        let one = FaultPlan::new(10).with(FaultModel::Outage {
            server: Some(ServerId(2)),
            from,
            until,
        });
        let (out, _) = one.apply(trace(1000));
        assert!(out
            .iter()
            .all(|o| o.server != ServerId(2) || o.t < from || o.t >= until));
        assert!(out
            .iter()
            .any(|o| o.server == ServerId(1) && o.t >= from && o.t < until));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultModel::Drop { rate: 1.5 }.validate().is_err());
        assert!(FaultModel::Drop { rate: f64::NAN }.validate().is_err());
        assert!(FaultModel::Duplicate { rate: -0.1 }.validate().is_err());
        assert!(FaultModel::BurstLoss {
            p_enter: 0.1,
            p_exit: 0.0,
            loss: 0.5
        }
        .validate()
        .is_err());
        assert!(FaultModel::Reorder {
            rate: 0.5,
            max_displacement: 0
        }
        .validate()
        .is_err());
        assert!(FaultModel::Sample { keep_one_in: 0 }.validate().is_err());
        assert!(FaultModel::Outage {
            server: None,
            from: SimInstant::from_millis(5),
            until: SimInstant::from_millis(5),
        }
        .validate()
        .is_err());
        let bad_plan = FaultPlan::new(0).with(FaultModel::Drop { rate: 2.0 });
        assert!(bad_plan.validate().is_err());
        let good_plan = FaultPlan::new(0)
            .with(FaultModel::Drop { rate: 0.0 })
            .with(FaultModel::Sample { keep_one_in: 1 });
        assert!(good_plan.validate().is_ok());
        assert_eq!(good_plan.stages.len(), 2);
        assert!(!good_plan.is_empty());
        assert_eq!(good_plan.seed(), 0);
    }

    #[test]
    fn stage_substreams_are_independent() {
        // Removing the first stage must not change how the (previously)
        // second stage draws — substreams fork over the stage index, so the
        // *same* stage at the same index draws identically.
        let jitter = FaultModel::Jitter {
            max: SimDuration::from_millis(100),
        };
        let solo = FaultPlan::new(11).with(jitter.clone());
        let stacked = FaultPlan::new(11)
            .with(jitter)
            .with(FaultModel::Drop { rate: 0.0 });
        let (a, _) = solo.apply(trace(100));
        let (b, _) = stacked.apply(trace(100));
        assert_eq!(a, b, "a zero-rate later stage must not disturb jitter");
    }

    /// Every fault model with parameters aggressive enough to exercise its
    /// carried state.
    fn every_model() -> Vec<FaultModel> {
        vec![
            FaultModel::Drop { rate: 0.3 },
            FaultModel::BurstLoss {
                p_enter: 0.1,
                p_exit: 0.2,
                loss: 0.9,
            },
            FaultModel::Duplicate { rate: 0.25 },
            FaultModel::Reorder {
                rate: 0.5,
                max_displacement: 9,
            },
            FaultModel::Jitter {
                max: SimDuration::from_millis(400),
            },
            FaultModel::ClockSkew {
                max: SimDuration::from_secs(1),
            },
            FaultModel::Sample { keep_one_in: 3 },
            FaultModel::Outage {
                server: Some(ServerId(2)),
                from: SimInstant::from_millis(5_000),
                until: SimInstant::from_millis(25_000),
            },
        ]
    }

    fn assert_chunked_matches_batch(plan: &FaultPlan, n: u64, chunk_len: usize) {
        let input = trace(n);
        let (batch, batch_report) = plan.apply(input.clone());
        let mut stream = plan.stream();
        let mut out = Vec::new();
        for chunk in input.chunks(chunk_len) {
            out.extend(stream.push(chunk.to_vec()));
        }
        let (tail, report) = stream.finish();
        out.extend(tail);
        assert_eq!(out, batch, "chunk_len {chunk_len} diverged from batch");
        assert_eq!(report, batch_report, "report diverged at {chunk_len}");
    }

    #[test]
    fn streaming_matches_batch_for_every_model() {
        for (i, model) in every_model().into_iter().enumerate() {
            let plan = FaultPlan::new(40 + i as u64).with(model);
            for chunk_len in [1usize, 7, 64, 500, 2000] {
                assert_chunked_matches_batch(&plan, 700, chunk_len);
            }
        }
    }

    #[test]
    fn streaming_matches_batch_for_composed_plan() {
        let mut plan = FaultPlan::new(99);
        for model in every_model() {
            plan = plan.with(model);
        }
        for chunk_len in [1usize, 13, 128, 5000] {
            assert_chunked_matches_batch(&plan, 1200, chunk_len);
        }
    }

    #[test]
    fn streaming_handles_empty_chunks_and_empty_stream() {
        let plan = FaultPlan::new(3)
            .with(FaultModel::Reorder {
                rate: 0.8,
                max_displacement: 20,
            })
            .with(FaultModel::Drop { rate: 0.2 });
        // Empty pushes are inert.
        let input = trace(300);
        let (batch, batch_report) = plan.apply(input.clone());
        let mut stream = plan.stream();
        let mut out = stream.push(Vec::new());
        for chunk in input.chunks(50) {
            out.extend(stream.push(chunk.to_vec()));
            out.extend(stream.push(Vec::new()));
        }
        let (tail, report) = stream.finish();
        out.extend(tail);
        assert_eq!(out, batch);
        assert_eq!(report, batch_report);
        // A stream fed nothing at all reports an identity pass.
        let (tail, report) = plan.stream::<ObservedLookup>().finish();
        assert!(tail.is_empty());
        assert_eq!(report, FaultReport::default());
    }

    #[test]
    fn stream_report_counts_released_and_tail_records() {
        let plan = FaultPlan::new(12).with(FaultModel::Reorder {
            rate: 1.0,
            max_displacement: 50,
        });
        let mut stream = plan.stream();
        let released = stream.push(trace(100));
        let (tail, full) = stream.finish();
        assert_eq!(full.input, 100);
        assert_eq!(full.output as usize, released.len() + tail.len());
        assert_eq!(full.output, 100, "reorder neither drops nor duplicates");
    }

    #[test]
    fn error_display_and_serde() {
        let e = FaultModel::Drop { rate: 7.0 }.validate().unwrap_err();
        assert!(e.to_string().contains("drop"));
        let plan = FaultPlan::new(1)
            .with(FaultModel::Sample { keep_one_in: 4 })
            .with(FaultModel::Outage {
                server: Some(ServerId(3)),
                from: SimInstant::ZERO,
                until: SimInstant::from_millis(100),
            });
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
