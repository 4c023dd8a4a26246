//! Crash-safe `botmeterd`: the durability layer around the engine.
//!
//! [`DurableDaemon`] wraps a [`BotMeterDaemon`] with a write-ahead journal
//! ([`Wal`]) and periodic checkpoints ([`CheckpointManager`]), giving the
//! daemon one contract:
//!
//! > A daemon killed at **any** instant and restarted from the same data
//! > directory publishes snapshots **bit-identical** to an uninterrupted
//! > run.
//!
//! The mechanism: every shard is appended to the journal (CRC-framed,
//! fsynced) *before* it reaches the engine, so acknowledged ingest is
//! replayable; every `checkpoint_every` shards the complete engine state
//! is written atomically and the journal is truncated back to the oldest
//! retained checkpoint's watermark. Recovery loads the newest readable
//! checkpoint (falling back a generation past corruption), replays the
//! journal suffix through the normal ingest path — which re-fires the
//! same auto-publishes with the same versions — and resumes.
//!
//! Both writes stream: the shard is serialized straight into its journal
//! frame (`wal::encode_frame_into`, one buffer reused across shards), the
//! engine state straight into the checkpoint's output buffer, and each is
//! encoded once however often the storage write behind it is retried.
//!
//! Transient I/O faults are retried under bounded exponential backoff
//! with deterministic jitter ([`RetryPolicy`]); a journal that stays
//! unavailable past the retry budget degrades the daemon (counted, never
//! crashed): ingest and publishing continue in memory, and the next
//! successful checkpoint heals durability by capturing the unjournaled
//! state wholesale. A shard too large for one journal frame
//! ([`MAX_SHARD_RECORDS`]) takes the same route without the retries: the
//! reader would refuse its frame as corrupt, so the writer never writes it.

use crate::checkpoint::{encode_checkpoint, CheckpointError, CheckpointManager};
use crate::engine::{BotMeterDaemon, DaemonOptions, DaemonStats};
use crate::storage::Storage;
use crate::store::StoreError;
use crate::wal::{encode_frame_into, Wal, WalCodecError, WalFrame, MAX_FRAME_LEN};
use botmeter_core::{BotMeter, LandscapeVersion};
use botmeter_dns::ObservedLookup;
use botmeter_obs::Obs;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::fmt;
use std::io;
use std::time::Duration;

/// The longest JSON one [`ObservedLookup`] can serialize to, with the comma
/// that follows it in a shard: a 20-digit `t`, a 10-digit `server` and a
/// 253-byte `domain` (validated names hold nothing JSON escapes).
const MAX_RECORD_JSON_LEN: usize = r#"{"t":,"server":,"domain":""},"#.len() + 20 + 10 + 253;

/// The most records a shard can hold and still be sure to fit one journal
/// frame ([`MAX_FRAME_LEN`]) whatever the records are. [`DurableDaemon::ingest`]
/// does not journal a shard whose frame would not fit (it degrades, see
/// there); a feeder that cuts shards no longer than this never meets that.
pub const MAX_SHARD_RECORDS: usize = (MAX_FRAME_LEN as usize - "[]".len()) / MAX_RECORD_JSON_LEN;

/// Everything that can go wrong in the durability layer, typed.
#[derive(Debug)]
#[non_exhaustive]
pub enum DurabilityError {
    /// An I/O operation failed past its retry budget.
    Io {
        /// What was being attempted (`"wal.append"`, `"checkpoint.save"`, ...).
        op: &'static str,
        /// The final error after retries.
        source: io::Error,
    },
    /// The journal is structurally damaged mid-log (not a torn tail).
    CorruptJournal {
        /// The codec's diagnosis.
        source: WalCodecError,
    },
    /// Every stored checkpoint generation is unreadable.
    NoUsableCheckpoint {
        /// Each skipped generation's watermark and diagnosis.
        skipped: Vec<(u64, CheckpointError)>,
    },
    /// A journal frame's payload does not deserialize into a shard.
    BadFramePayload {
        /// The frame's sequence number.
        seq: u64,
        /// The deserialization failure.
        reason: String,
    },
    /// The checkpoint was taken under a different configuration.
    ConfigMismatch {
        /// This engine's fingerprint.
        expected: String,
        /// The checkpoint's fingerprint.
        found: String,
    },
    /// The checkpointed snapshot sequence is internally inconsistent.
    Store(StoreError),
    /// Invalid engine parameters (delivery rate, epoch range).
    Engine(botmeter_core::Error),
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { op, source } => {
                write!(f, "{op} failed past the retry budget: {source}")
            }
            DurabilityError::CorruptJournal { source } => {
                write!(f, "refusing to replay a damaged journal: {source}")
            }
            DurabilityError::NoUsableCheckpoint { skipped } => {
                write!(f, "no stored checkpoint is readable (")?;
                for (i, (seq, e)) in skipped.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "seq {seq}: {e}")?;
                }
                write!(f, ")")
            }
            DurabilityError::BadFramePayload { seq, reason } => {
                write!(
                    f,
                    "journal frame {seq} passed its CRC but does not parse: {reason}"
                )
            }
            DurabilityError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different configuration: \
                 engine is {expected:?}, checkpoint says {found:?}"
            ),
            DurabilityError::Store(e) => write!(f, "checkpointed snapshots are inconsistent: {e}"),
            DurabilityError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            DurabilityError::CorruptJournal { source } => Some(source),
            DurabilityError::Store(e) => Some(e),
            DurabilityError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<botmeter_core::Error> for DurabilityError {
    fn from(e: botmeter_core::Error) -> Self {
        DurabilityError::Engine(e)
    }
}

impl From<StoreError> for DurabilityError {
    fn from(e: StoreError) -> Self {
        DurabilityError::Store(e)
    }
}

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt `i` (zero-based) sleeps `min(cap, base · 2^i)` scaled by a
/// jitter factor in `[0.5, 1.0)` drawn from a [`ChaCha12Rng`] seeded with
/// `seed` — the workspace's deterministic-RNG discipline extended to
/// fault handling, so a retry schedule is reproducible in tests.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try plus retries); 0 behaves as 1.
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            seed: 0xB07_3E7A,
        }
    }
}

impl RetryPolicy {
    /// The deterministic jittered backoff schedule: one duration per
    /// retry (so `attempts - 1` entries).
    pub fn backoff_schedule(&self) -> Vec<Duration> {
        let mut rng = ChaCha12Rng::seed_from_u64(self.seed);
        (0..self.attempts.saturating_sub(1))
            .map(|i| {
                let exp = self.base.saturating_mul(1u32 << i.min(20));
                let capped = exp.min(self.cap);
                // Jitter factor in [0.5, 1.0): decorrelates a fleet of
                // daemons retrying against the same sick disk.
                let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                capped.mul_f64(0.5 + 0.5 * unit)
            })
            .collect()
    }
}

/// Runs `op` under `policy`, sleeping between attempts via `sleeper`. The
/// backoff schedule is only drawn once the first attempt has failed: the
/// success path seeds no RNG and allocates nothing.
fn with_retries<T>(
    policy: &RetryPolicy,
    obs: &Obs,
    counter: &str,
    sleeper: &mut dyn FnMut(Duration),
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut last = match op() {
        Ok(v) => return Ok(v),
        Err(e) => e,
    };
    obs.counter_add(counter, 1);
    for pause in policy.backoff_schedule() {
        sleeper(pause);
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                obs.counter_add(counter, 1);
                last = e;
            }
        }
    }
    Err(last)
}

/// Tuning of the durability layer.
pub struct DurabilityOptions {
    /// Checkpoint after this many journaled shards (clamped ≥ 1).
    pub checkpoint_every: u64,
    /// Retry budget and backoff shape for journal and checkpoint I/O.
    pub retry: RetryPolicy,
    /// How retries pause. Defaults to `std::thread::sleep`; tests inject
    /// a recorder so no wall-clock time passes.
    pub sleeper: Box<dyn FnMut(Duration) + Send>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_every: 16,
            retry: RetryPolicy::default(),
            sleeper: Box::new(std::thread::sleep),
        }
    }
}

impl fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("retry", &self.retry)
            .finish_non_exhaustive()
    }
}

impl DurabilityOptions {
    /// Options checkpointing every `checkpoint_every` shards.
    pub fn new(checkpoint_every: u64) -> Self {
        DurabilityOptions {
            checkpoint_every,
            ..DurabilityOptions::default()
        }
    }
}

/// What recovery found and did, reported once at startup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Watermark of the checkpoint recovery restored from (0 = fresh).
    pub checkpoint_seq: u64,
    /// Checkpoint generations skipped as corrupt, newest first.
    pub corrupt_checkpoints: u64,
    /// Journal frames replayed on top of the checkpoint.
    pub replayed_frames: u64,
    /// Observed lookups those frames contained.
    pub replayed_records: u64,
    /// Bytes of a torn final frame that were discarded.
    pub torn_tail_bytes: u64,
    /// Total records the recovered engine has ingested — the resume
    /// offset for a replayable input source.
    pub ingested_records: u64,
}

/// Running durability counters (mirrored as `wal.*` / `ckpt.*`
/// observability metrics when an [`Obs`] handle is attached).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Journal frames successfully appended.
    pub wal_appends: u64,
    /// Shards ingested *without* journal coverage (degraded mode).
    pub unjournaled_shards: u64,
    /// Checkpoints successfully written.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed past the retry budget.
    pub failed_checkpoints: u64,
}

/// A [`BotMeterDaemon`] that survives `kill -9`.
///
/// See the module docs for the crash-safety contract. The wrapper owns
/// the engine; read access goes through [`engine`](Self::engine).
pub struct DurableDaemon<S: Storage> {
    engine: BotMeterDaemon,
    wal: Wal<S>,
    options: DurabilityOptions,
    obs: Obs,
    /// Shards journaled and applied (the journal sequence counter).
    seq: u64,
    /// Watermark of the newest checkpoint on storage.
    last_checkpoint_seq: u64,
    /// Whether the journal is currently unavailable (degraded mode).
    degraded: bool,
    stats: DurabilityStats,
    /// The journal frame of the shard being ingested, laid out in place;
    /// kept so the allocation is reused from shard to shard.
    frame: Vec<u8>,
}

impl<S: Storage> fmt::Debug for DurableDaemon<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableDaemon")
            .field("seq", &self.seq)
            .field("last_checkpoint_seq", &self.last_checkpoint_seq)
            .field("degraded", &self.degraded)
            .field("stats", &self.stats)
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

impl<S: Storage> DurableDaemon<S> {
    /// Opens (or recovers) a durable daemon from `storage`.
    ///
    /// Fresh storage starts an empty engine and journal. Existing storage
    /// runs recovery: newest readable checkpoint → engine restore →
    /// journal suffix replay through the normal ingest path (re-firing
    /// the same auto-publishes with the same versions) → torn-tail
    /// repair. Returns the running daemon plus a [`RecoveryReport`].
    ///
    /// # Errors
    ///
    /// Mid-log journal corruption, an unreadable checkpoint set, a
    /// config-fingerprint mismatch, invalid engine parameters, or I/O
    /// failing past the retry budget.
    pub fn open(
        meter: BotMeter,
        engine_options: DaemonOptions,
        storage: S,
        mut options: DurabilityOptions,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let obs = engine_options.observability();
        let mut report = RecoveryReport::default();

        // 1. Newest readable checkpoint, falling back over corrupt ones.
        let mut wal = Wal::create(storage).map_err(|source| DurabilityError::Io {
            op: "wal.create",
            source,
        })?;
        let (state, skipped) =
            CheckpointManager::load_latest(wal.storage_mut()).map_err(|source| {
                DurabilityError::Io {
                    op: "checkpoint.load",
                    source,
                }
            })?;
        report.corrupt_checkpoints = skipped.len() as u64;
        if obs.enabled() && !skipped.is_empty() {
            obs.counter_add("ckpt.corrupt", skipped.len() as u64);
        }
        let had_checkpoint_files = state.is_some() || !skipped.is_empty();
        if state.is_none() && !skipped.is_empty() {
            return Err(DurabilityError::NoUsableCheckpoint { skipped });
        }

        // 2. Restore the engine (or start fresh).
        let engine = match &state {
            Some(ckpt) => {
                report.checkpoint_seq = ckpt.wal_seq;
                BotMeterDaemon::from_checkpoint(meter, engine_options, ckpt)?
            }
            None => BotMeterDaemon::new(meter, engine_options)?,
        };
        let checkpoint_seq = state.as_ref().map(|c| c.wal_seq).unwrap_or(0);

        // 3. Replay the journal suffix through the normal ingest path.
        let contents = match wal
            .load_and_repair()
            .map_err(|source| DurabilityError::Io {
                op: "wal.load",
                source,
            })? {
            Ok(c) => c,
            Err(source) => return Err(DurabilityError::CorruptJournal { source }),
        };
        report.torn_tail_bytes = contents.torn_tail_bytes as u64;
        let mut daemon = DurableDaemon {
            engine,
            wal,
            options: {
                options.checkpoint_every = options.checkpoint_every.max(1);
                options
            },
            obs,
            seq: checkpoint_seq.max(contents.base_seq),
            last_checkpoint_seq: checkpoint_seq,
            degraded: false,
            stats: DurabilityStats::default(),
            frame: Vec::new(),
        };
        for frame in &contents.frames {
            if frame.seq <= checkpoint_seq {
                continue;
            }
            // `from_slice` refuses invalid UTF-8 instead of patching it.
            let shard: Vec<ObservedLookup> =
                serde_json::from_slice(&frame.payload).map_err(|e| {
                    DurabilityError::BadFramePayload {
                        seq: frame.seq,
                        reason: e.to_string(),
                    }
                })?;
            report.replayed_frames += 1;
            report.replayed_records += shard.len() as u64;
            daemon.engine.ingest(&shard);
            daemon.seq = frame.seq;
        }
        if daemon.obs.enabled() && (had_checkpoint_files || report.replayed_frames > 0) {
            daemon.obs.counter_add("daemon.recoveries", 1);
            daemon
                .obs
                .counter_add("wal.replayed_frames", report.replayed_frames);
        }
        report.ingested_records = daemon.engine.stats().ingested;
        Ok((daemon, report))
    }

    /// Journals then ingests one shard, checkpointing on cadence.
    ///
    /// The shard is serialized straight into its journal frame and the
    /// frame appended (under retry/backoff) before the shard touches the
    /// engine; a journal that stays unavailable degrades the daemon
    /// (counted via [`DurabilityStats::unjournaled_shards`] and
    /// `wal.degraded_shards`) instead of failing the serve path. So does a
    /// shard whose frame would exceed the journal's frame ceiling
    /// (more than [`MAX_SHARD_RECORDS`] records can): recovery would refuse
    /// that frame as corrupt, so it is never written and no retry is spent
    /// on it. Either way the next checkpoint covers the shard.
    /// Returns the version auto-published by this shard, if any.
    pub fn ingest(&mut self, shard: &[ObservedLookup]) -> Option<LandscapeVersion> {
        let next_seq = self.seq + 1;
        let start = self.obs.clock();
        self.frame.clear();
        let encoded = encode_frame_into(&mut self.frame, next_seq, |payload| {
            serde_json::to_writer(payload, shard).map_err(io::Error::other)
        });
        if self.obs.enabled() {
            self.obs.observe_since("wal.encode_ns", start);
        }
        let start = self.obs.clock();
        let appended = encoded.and_then(|()| {
            with_retries(
                &self.options.retry,
                &self.obs,
                "wal.append_retries",
                &mut self.options.sleeper,
                || self.wal.append_encoded(&self.frame),
            )
        });
        match appended {
            Ok(()) => {
                self.stats.wal_appends += 1;
                self.degraded = false;
                if self.obs.enabled() {
                    self.obs.counter_add("wal.appends", 1);
                    self.obs.observe_since("wal.fsync_ns", start);
                }
            }
            Err(_) => {
                // Degraded mode: the engine keeps serving; durability of
                // this shard now rides on the next successful checkpoint.
                self.stats.unjournaled_shards += 1;
                self.degraded = true;
                if self.obs.enabled() {
                    self.obs.counter_add("wal.degraded_shards", 1);
                }
            }
        }
        self.seq = next_seq;
        let published = self.engine.ingest(shard);
        if self.seq.is_multiple_of(self.options.checkpoint_every) {
            self.checkpoint_now().ok(); // failure counted, serve path lives
        }
        published
    }

    /// Writes a checkpoint at the current watermark, retires old
    /// generations, and truncates the journal to the oldest retained
    /// checkpoint's watermark.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the write fails past the retry
    /// budget; the failure is also counted in
    /// [`DurabilityStats::failed_checkpoints`] so callers on the ingest
    /// path can ignore it safely.
    pub fn checkpoint_now(&mut self) -> Result<(), DurabilityError> {
        let start = self.obs.clock();
        let state = self.engine.checkpoint_state(self.seq);
        let encoded = encode_checkpoint(&state).map_err(io::Error::other);
        if self.obs.enabled() {
            self.obs.observe_since("ckpt.encode_ns", start);
        }
        let start = self.obs.clock();
        let saved = encoded.and_then(|bytes| {
            with_retries(
                &self.options.retry,
                &self.obs,
                "ckpt.save_retries",
                &mut self.options.sleeper,
                || CheckpointManager::save_encoded(self.wal.storage_mut(), self.seq, &bytes),
            )
        });
        let oldest_retained = match saved {
            Ok(seq) => seq,
            Err(source) => {
                self.stats.failed_checkpoints += 1;
                if self.obs.enabled() {
                    self.obs.counter_add("ckpt.failed", 1);
                }
                return Err(DurabilityError::Io {
                    op: "checkpoint.save",
                    source,
                });
            }
        };
        self.stats.checkpoints += 1;
        self.last_checkpoint_seq = self.seq;
        // A successful checkpoint covers every shard up to `seq`,
        // including any that skipped the journal while degraded.
        self.degraded = false;
        if self.obs.enabled() {
            self.obs.counter_add("ckpt.saves", 1);
            self.obs.observe_since("ckpt.write_ns", start);
        }
        // Truncate the journal to the *oldest retained* watermark so a
        // corrupt newest checkpoint can still fall back and replay.
        let keep: Vec<WalFrame> = match self.wal.load() {
            Ok(Ok(contents)) => contents
                .frames
                .into_iter()
                .filter(|f| f.seq > oldest_retained)
                .collect(),
            // Unreadable journal during rotation: leave it alone; the
            // next recovery will surface the damage with full context.
            Ok(Err(_)) | Err(_) => return Ok(()),
        };
        let rotated = with_retries(
            &self.options.retry,
            &self.obs,
            "wal.rotate_retries",
            &mut self.options.sleeper,
            || self.wal.rotate(oldest_retained, &keep),
        );
        if let Err(source) = rotated {
            // Rotation is an optimization — an over-long journal replays
            // extra already-checkpointed frames, which recovery skips.
            if self.obs.enabled() {
                self.obs.counter_add("wal.rotate_failed", 1);
            }
            let _ = source;
        }
        Ok(())
    }

    /// Graceful shutdown: a final checkpoint flush. Called by `botmeterd`
    /// on SIGTERM/SIGINT so a restart needs no journal replay.
    pub fn shutdown(&mut self) -> Result<(), DurabilityError> {
        self.checkpoint_now()
    }

    /// Publishes the trailing partial epoch (see
    /// [`BotMeterDaemon::publish_now`]).
    pub fn publish_now(&mut self) -> LandscapeVersion {
        self.engine.publish_now()
    }

    /// The wrapped engine (snapshots, stats, stores).
    pub fn engine(&self) -> &BotMeterDaemon {
        &self.engine
    }

    /// Running engine counters (convenience for [`engine`](Self::engine)).
    pub fn stats(&self) -> DaemonStats {
        self.engine.stats()
    }

    /// Running durability counters.
    pub fn durability_stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Whether the journal is currently unavailable and ingest is riding
    /// on checkpoints alone.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The journal sequence number of the last ingested shard.
    pub fn journal_seq(&self) -> u64 {
        self.seq
    }

    /// Mutable access to the underlying storage (chaos tests corrupt
    /// checkpoints through this).
    pub fn storage_mut(&mut self) -> &mut S {
        self.wal.storage_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FailingStorage, MemStorage};
    use botmeter_core::BotMeterConfig;
    use botmeter_dga::DgaFamily;
    use botmeter_exec::ExecPolicy;
    use botmeter_sim::ScenarioSpec;
    use std::sync::{Arc, Mutex};

    fn meter() -> BotMeter {
        BotMeter::new(BotMeterConfig::new(DgaFamily::murofet()))
    }

    fn options() -> DaemonOptions {
        DaemonOptions::new(0..2).policy(ExecPolicy::Sequential)
    }

    fn observed() -> Vec<ObservedLookup> {
        ScenarioSpec::builder(DgaFamily::murofet())
            .population(24)
            .num_epochs(2)
            .seed(17)
            .build()
            .expect("valid scenario")
            .run(ExecPolicy::default())
            .observed()
            .to_vec()
    }

    #[test]
    fn backoff_schedule_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy {
            attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(50),
            seed: 7,
        };
        let a = policy.backoff_schedule();
        let b = policy.backoff_schedule();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 5);
        for (i, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(10).saturating_mul(1 << i);
            let cap = exp.min(Duration::from_millis(50));
            assert!(
                *d >= cap / 2 && *d < cap,
                "attempt {i}: {d:?} not in [{:?}, {cap:?})",
                cap / 2
            );
        }
        let other = RetryPolicy { seed: 8, ..policy }.backoff_schedule();
        assert_ne!(a, other, "different seed, different jitter");
    }

    #[test]
    fn transient_append_faults_are_retried_through() {
        let mut storage = FailingStorage::new(MemStorage::new());
        storage.fail_next_appends(2); // retry budget is 4 attempts
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::default();
        let sleeps = slept.clone();
        let opts = DurabilityOptions {
            sleeper: Box::new(move |d| sleeps.lock().unwrap().push(d)),
            ..DurabilityOptions::new(1000)
        };
        let (mut daemon, _) = DurableDaemon::open(meter(), options(), storage, opts).unwrap();
        daemon.ingest(&observed()[..64]);
        assert!(!daemon.is_degraded());
        let stats = daemon.durability_stats();
        assert_eq!(stats.wal_appends, 1);
        assert_eq!(stats.unjournaled_shards, 0);
        assert_eq!(
            *slept.lock().unwrap(),
            RetryPolicy::default().backoff_schedule()[..2],
            "the schedule's first two pauses, in order"
        );
    }

    #[test]
    fn a_crc_valid_frame_that_is_not_a_shard_is_refused_not_replayed() {
        let shard = serde_json::to_string(&observed()[..4])
            .unwrap()
            .into_bytes();
        // One byte of a domain name clobbered after serialization: still a
        // well-formed frame (the CRC is computed over the damaged bytes),
        // no longer UTF-8. A lossy decode would swap in U+FFFD and go on.
        let mut not_utf8 = shard.clone();
        let at = shard
            .windows(8)
            .position(|w| w == b"\"domain\"")
            .expect("lookups carry a domain")
            + 11;
        not_utf8[at] = 0xFF;
        assert!(std::str::from_utf8(&not_utf8).is_err());
        for (payload, needle) in [
            (not_utf8, "UTF-8"),
            (b"{\"not\": \"a shard\"}".to_vec(), ""),
            (b"[1, 2, 3]".to_vec(), ""),
        ] {
            let mut storage = MemStorage::new();
            let mut journal = crate::wal::encode_header(0);
            journal.extend(crate::wal::encode_frame(1, &shard));
            journal.extend(crate::wal::encode_frame(2, &payload));
            storage
                .write_atomic(crate::wal::WAL_FILE, &journal)
                .unwrap();
            let err =
                DurableDaemon::open(meter(), options(), storage, DurabilityOptions::default())
                    .expect_err("frame 2 is not a shard");
            match err {
                DurabilityError::BadFramePayload { seq: 2, reason } => {
                    assert!(reason.contains(needle), "{reason}")
                }
                other => panic!("expected BadFramePayload for frame 2, got {other}"),
            }
        }
    }

    /// The widest record the types allow: every digit of `t` and `server`,
    /// a full-length name.
    fn widest_record() -> ObservedLookup {
        let label = "x".repeat(63);
        let name = format!("{label}.{label}.{label}.{}", &label[..61]);
        assert_eq!(name.len(), 253);
        ObservedLookup::new(
            botmeter_dns::SimInstant::from_millis(u64::MAX),
            botmeter_dns::ServerId(u32::MAX),
            name.parse().expect("a valid 253-byte name"),
        )
    }

    #[test]
    fn max_shard_records_is_sized_from_the_widest_record() {
        let one = serde_json::to_vec(&[widest_record()][..]).unwrap();
        assert_eq!(one.len() - "[]".len() + ",".len(), MAX_RECORD_JSON_LEN);
        let frame = "[]".len() + MAX_SHARD_RECORDS * MAX_RECORD_JSON_LEN;
        assert!(frame <= MAX_FRAME_LEN as usize);
        assert!(frame + MAX_RECORD_JSON_LEN > MAX_FRAME_LEN as usize);
    }

    #[test]
    fn a_shard_over_the_frame_ceiling_is_never_journaled_and_the_journal_still_opens() {
        let slept: Arc<Mutex<Vec<Duration>>> = Arc::default();
        let sleeps = slept.clone();
        let opts = DurabilityOptions {
            sleeper: Box::new(move |d| sleeps.lock().unwrap().push(d)),
            ..DurabilityOptions::new(1000)
        };
        let (mut daemon, _) =
            DurableDaemon::open(meter(), options(), MemStorage::new(), opts).unwrap();
        let stream = observed();
        daemon.ingest(&stream[..64]);
        let journal_before = daemon.storage_mut().read(crate::wal::WAL_FILE).unwrap();

        // One record past what a frame is sure to hold, all of them widest.
        let oversize = vec![widest_record(); MAX_SHARD_RECORDS + 1];
        daemon.ingest(&oversize);
        assert!(
            daemon.is_degraded(),
            "the shard rides on the next checkpoint"
        );
        let stats = daemon.durability_stats();
        assert_eq!((stats.wal_appends, stats.unjournaled_shards), (1, 1));
        assert!(slept.lock().unwrap().is_empty(), "no retry spent on it");
        assert_eq!(
            daemon.storage_mut().read(crate::wal::WAL_FILE).unwrap(),
            journal_before,
            "nothing of the oversize shard reached storage"
        );
        assert_eq!(daemon.stats().ingested, 64 + oversize.len() as u64);

        // The journal keeps working, and a reference engine fed the same
        // three shards without a journal publishes the same snapshot.
        daemon.ingest(&stream[64..128]);
        assert_eq!(daemon.durability_stats().wal_appends, 2);
        let mut reference = BotMeterDaemon::new(meter(), options()).unwrap();
        for shard in [&stream[..64], &oversize[..], &stream[64..128]] {
            reference.ingest(shard);
        }
        daemon.publish_now();
        reference.publish_now();
        assert_eq!(daemon.engine().latest(), reference.latest());

        // What is on storage opens: the unjournaled shard is a gap in the
        // sequence (1, 3), which the format allows, not a corrupt frame.
        let storage = std::mem::take(daemon.storage_mut());
        drop(daemon);
        let (recovered, report) =
            DurableDaemon::open(meter(), options(), storage, DurabilityOptions::default())
                .expect("no sequence of ingest calls produces a journal open refuses");
        assert_eq!(report.replayed_frames, 2);
        assert_eq!(recovered.stats().ingested, 128);

        // And a checkpoint heals the gap, like any journal outage.
        let (mut healed, _) = DurableDaemon::open(
            meter(),
            options(),
            MemStorage::new(),
            DurabilityOptions::new(2),
        )
        .unwrap();
        healed.ingest(&stream[..64]);
        healed.ingest(&oversize); // seq 2: unjournaled, then checkpointed on cadence
        assert!(!healed.is_degraded());
        let storage = std::mem::take(healed.storage_mut());
        let (recovered, _) =
            DurableDaemon::open(meter(), options(), storage, DurabilityOptions::default()).unwrap();
        assert_eq!(recovered.stats().ingested, 64 + oversize.len() as u64);
    }

    #[test]
    fn journal_outage_degrades_and_checkpoint_heals() {
        let storage = FailingStorage::new(MemStorage::new());
        let opts = DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(1000)
        };
        let (mut daemon, _) = DurableDaemon::open(meter(), options(), storage, opts).unwrap();
        let stream = observed();
        daemon.storage_mut().fail_next_appends(u64::MAX);
        daemon.ingest(&stream[..64]);
        daemon.ingest(&stream[64..128]);
        assert!(daemon.is_degraded(), "journal gone, serve path alive");
        assert_eq!(daemon.durability_stats().unjournaled_shards, 2);
        assert_eq!(daemon.stats().ingested, 128, "ingest kept working");
        // A successful checkpoint covers the unjournaled shards.
        daemon.storage_mut().fail_next_appends(0);
        daemon.checkpoint_now().unwrap();
        assert!(!daemon.is_degraded());
        // Recovery from that storage resumes with everything ingested.
        let storage =
            std::mem::replace(daemon.storage_mut(), FailingStorage::new(MemStorage::new()));
        drop(daemon);
        let opts = DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(1000)
        };
        let (recovered, report) = DurableDaemon::open(meter(), options(), storage, opts).unwrap();
        assert_eq!(recovered.stats().ingested, 128);
        assert_eq!(report.replayed_frames, 0, "checkpoint covered everything");
    }

    #[test]
    fn checkpoint_failure_is_counted_not_fatal() {
        let storage = FailingStorage::new(MemStorage::new());
        let opts = DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(1)
        };
        let (mut daemon, _) = DurableDaemon::open(meter(), options(), storage, opts).unwrap();
        daemon.storage_mut().fail_next_writes(u64::MAX);
        daemon.ingest(&observed()[..64]); // cadence hits, checkpoint fails
        assert_eq!(daemon.durability_stats().failed_checkpoints, 1);
        assert_eq!(daemon.stats().ingested, 64);
        assert!(matches!(
            daemon.checkpoint_now(),
            Err(DurabilityError::Io {
                op: "checkpoint.save",
                ..
            })
        ));
    }

    #[test]
    fn config_mismatch_is_rejected_with_both_fingerprints() {
        let opts = DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(1)
        };
        let (mut daemon, _) =
            DurableDaemon::open(meter(), options(), MemStorage::new(), opts).unwrap();
        daemon.ingest(&observed()[..64]); // writes a checkpoint
        let storage = std::mem::take(daemon.storage_mut());
        drop(daemon);
        let other = BotMeter::new(BotMeterConfig::new(DgaFamily::new_goz()));
        let err = DurableDaemon::open(other, options(), storage, DurabilityOptions::default())
            .expect_err("fingerprints differ");
        match err {
            DurabilityError::ConfigMismatch { expected, found } => {
                assert!(expected.to_ascii_lowercase().contains("newgoz"));
                assert!(found.to_ascii_lowercase().contains("murofet"));
            }
            other => panic!("expected ConfigMismatch, got {other}"),
        }
    }
}
