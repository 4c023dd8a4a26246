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
//! fsynced) and is durable before [`DurableDaemon::ingest`] returns, so
//! acknowledged ingest is replayable; every `checkpoint_every` shards the
//! complete engine state is written atomically, the journal's active
//! segment is sealed at that watermark, and the sealed segments the
//! oldest retained checkpoint covers are deleted whole. Recovery loads
//! the newest readable checkpoint (falling back a generation past
//! corruption), replays the journal suffix through the normal ingest
//! path — which re-fires the same auto-publishes with the same versions —
//! and resumes. After [`DurableDaemon::open`] the write path reads
//! storage only to mend the journal after a failed write.
//!
//! The journal and the engine never read each other, so under a parallel
//! [`ExecPolicy`](botmeter_exec::ExecPolicy) they run side by side
//! (`botmeter_exec::join_with`): a worker encodes and appends the shard's
//! frame while the calling thread folds the shard into the engine and, on
//! cadence, encodes the checkpoint. The storage half of that checkpoint runs after both, so
//! storage sees the same operations in the same order under every
//! policy. Recovery likewise decodes frames on workers ahead of the
//! in-order replay (`botmeter_exec::run_pipelined_with`) and stops at the
//! first bad frame, a window of decodes past it at most. A sequential
//! policy does everything inline, journal first.
//!
//! Both writes stream: the shard is serialized straight into its journal
//! frame (`wal::encode_frame_into`, one buffer reused across shards), the
//! engine state straight into the checkpoint's output buffer, and each is
//! encoded once however often the storage write behind it is retried.
//!
//! Transient I/O faults are retried three times, after pauses of 2, 4 and
//! 8 ms; a journal that stays unavailable past those retries degrades the
//! daemon (counted, never crashed): ingest and publishing continue in
//! memory, and the next successful checkpoint heals durability by
//! capturing the unjournaled state wholesale. A shard too large for one
//! journal frame ([`MAX_SHARD_RECORDS`]) takes the same route without the
//! retries: the reader would refuse its frame as corrupt, so the writer
//! never writes it.

use crate::checkpoint::{encode_checkpoint, CheckpointError, CheckpointManager};
use crate::engine::{BotMeterDaemon, DaemonOptions, DaemonStats};
use crate::storage::Storage;
use crate::store::StoreError;
use crate::wal::{encode_frame_into, Wal, WalCodecError, MAX_FRAME_LEN};
use botmeter_core::{BotMeter, LandscapeVersion};
use botmeter_dns::ObservedLookup;
use botmeter_obs::Obs;
use std::fmt;
use std::io;
use std::ops::ControlFlow;
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

/// The pauses between attempts of one I/O operation: three retries after
/// the first try, each pause double the last.
const BACKOFF: [Duration; 3] = [
    Duration::from_millis(2),
    Duration::from_millis(4),
    Duration::from_millis(8),
];

/// Runs `op`, retrying a failure after each pause of [`BACKOFF`] (slept via
/// `sleeper`) and counting every failed attempt under `counter`.
fn with_retries<T>(
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
    for pause in BACKOFF {
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

/// The journal half of [`DurableDaemon::ingest`]: lays shard `seq` out as
/// a frame in `frame` and appends it under retry/backoff. Touches nothing
/// the engine reads, so it may run beside the engine's fold.
fn append_frame<S: Storage>(
    wal: &mut Wal<S>,
    frame: &mut Vec<u8>,
    sleeper: &mut dyn FnMut(Duration),
    obs: &Obs,
    seq: u64,
    shard: &[ObservedLookup],
) -> io::Result<()> {
    let start = obs.clock();
    frame.clear();
    let encoded = encode_frame_into(frame, seq, |payload| {
        serde_json::to_writer(payload, shard).map_err(io::Error::other)
    });
    if obs.enabled() {
        obs.observe_since("wal.encode_ns", start);
    }
    let start = obs.clock();
    encoded?;
    with_retries(obs, "wal.append_retries", sleeper, || {
        wal.append_encoded(frame)
    })?;
    if obs.enabled() {
        obs.observe_since("wal.fsync_ns", start);
    }
    Ok(())
}

/// The CPU half of a checkpoint: captures the engine state at watermark
/// `seq` and encodes it, timed as `ckpt.encode_ns`. Touches no storage.
fn encode_state(engine: &BotMeterDaemon, obs: &Obs, seq: u64) -> io::Result<Vec<u8>> {
    let start = obs.clock();
    let encoded = encode_checkpoint(&engine.checkpoint_state(seq)).map_err(io::Error::other);
    if obs.enabled() {
        obs.observe_since("ckpt.encode_ns", start);
    }
    encoded
}

/// Tuning of the durability layer.
pub struct DurabilityOptions {
    /// Checkpoint after this many journaled shards (clamped ≥ 1).
    pub checkpoint_every: u64,
    /// How retries pause. Defaults to `std::thread::sleep`; tests inject
    /// a recorder so no wall-clock time passes.
    pub sleeper: Box<dyn FnMut(Duration) + Send>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            checkpoint_every: 16,
            sleeper: Box::new(std::thread::sleep),
        }
    }
}

impl fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("checkpoint_every", &self.checkpoint_every)
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
            seq: checkpoint_seq,
            last_checkpoint_seq: checkpoint_seq,
            degraded: false,
            stats: DurabilityStats::default(),
            frame: Vec::new(),
        };
        // Frames ascend strictly by `seq`. Workers decode payloads ahead;
        // the caller replays them in order and stops the run at the first
        // that does not parse, so nothing from that frame on reaches the
        // engine and at most a window of frames past it is decoded.
        let suffix = &contents.frames[contents
            .frames
            .partition_point(|frame| frame.seq <= checkpoint_seq)..];
        let mut bad_frame = None;
        botmeter_exec::run_pipelined_with(
            daemon.engine.policy(),
            &daemon.obs,
            suffix,
            // `from_slice` refuses invalid UTF-8 instead of patching it.
            |frame| {
                let decoded = serde_json::from_slice::<Vec<ObservedLookup>>(&frame.payload);
                (frame.seq, decoded)
            },
            |_, (seq, decoded)| match decoded {
                Ok(shard) => {
                    report.replayed_frames += 1;
                    report.replayed_records += shard.len() as u64;
                    daemon.engine.ingest(&shard);
                    daemon.seq = seq;
                    ControlFlow::Continue(())
                }
                Err(e) => {
                    bad_frame = Some(DurabilityError::BadFramePayload {
                        seq,
                        reason: e.to_string(),
                    });
                    ControlFlow::Break(())
                }
            },
        );
        if let Some(e) = bad_frame {
            return Err(e);
        }
        // The next shard goes above everything the journal accounts for,
        // a sealed watermark with no frame after it included.
        daemon.seq = daemon.seq.max(contents.last_seq);
        if daemon.obs.enabled() && (had_checkpoint_files || report.replayed_frames > 0) {
            daemon.obs.counter_add("daemon.recoveries", 1);
            daemon
                .obs
                .counter_add("wal.replayed_frames", report.replayed_frames);
        }
        report.ingested_records = daemon.engine.stats().ingested;
        Ok((daemon, report))
    }

    /// Journals and ingests one shard, checkpointing on cadence.
    ///
    /// The shard is serialized straight into its journal frame and the
    /// frame appended (under retry/backoff); it is durable before this
    /// returns. The engine folds the shard whatever the journal does, under
    /// a parallel policy while the frame is written (see the module docs);
    /// a journal that stays unavailable degrades the daemon (counted via
    /// [`DurabilityStats::unjournaled_shards`] and `wal.degraded_shards`)
    /// instead of failing the serve path. So does a shard whose frame would
    /// exceed the journal's frame ceiling (more than [`MAX_SHARD_RECORDS`]
    /// records can): recovery would refuse that frame as corrupt, so it is
    /// never written and no retry is spent on it. Either way the next
    /// checkpoint covers the shard.
    /// Returns the version auto-published by this shard, if any.
    pub fn ingest(&mut self, shard: &[ObservedLookup]) -> Option<LandscapeVersion> {
        let next_seq = self.seq + 1;
        let on_cadence = next_seq.is_multiple_of(self.options.checkpoint_every);
        let DurableDaemon {
            engine,
            wal,
            options,
            obs,
            frame,
            ..
        } = self;
        let obs = &*obs;
        let (appended, (published, checkpoint)) = botmeter_exec::join_with(
            engine.policy(),
            obs,
            || append_frame(wal, frame, &mut options.sleeper, obs, next_seq, shard),
            || {
                let published = engine.ingest(shard);
                let checkpoint = on_cadence.then(|| encode_state(engine, obs, next_seq));
                (published, checkpoint)
            },
        );
        match appended {
            Ok(()) => {
                self.stats.wal_appends += 1;
                self.degraded = false;
                if self.obs.enabled() {
                    self.obs.counter_add("wal.appends", 1);
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
        if let Some(encoded) = checkpoint {
            self.write_checkpoint(encoded).ok(); // failure counted, serve path lives
        }
        published
    }

    /// The storage half of a checkpoint at the current watermark: saves
    /// `encoded` (the engine state at [`journal_seq`](Self::journal_seq)),
    /// retires old generations, seals the journal's active segment at the
    /// watermark and deletes the sealed segments the oldest retained
    /// checkpoint covers.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the encode failed or the write fails
    /// past the retry budget; the failure is also counted in
    /// [`DurabilityStats::failed_checkpoints`] so callers on the ingest
    /// path can ignore it safely.
    fn write_checkpoint(&mut self, encoded: io::Result<Vec<u8>>) -> Result<(), DurabilityError> {
        let start = self.obs.clock();
        let seq = self.seq;
        let saved = encoded.and_then(|bytes| {
            with_retries(
                &self.obs,
                "ckpt.save_retries",
                &mut self.options.sleeper,
                || CheckpointManager::save_encoded(self.wal.storage_mut(), seq, &bytes),
            )
        });
        let oldest_retained = match saved {
            Ok(oldest) => oldest,
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
        self.last_checkpoint_seq = seq;
        // A successful checkpoint covers every shard up to `seq`,
        // including any that skipped the journal while degraded.
        self.degraded = false;
        if self.obs.enabled() {
            self.obs.counter_add("ckpt.saves", 1);
            self.obs.observe_since("ckpt.write_ns", start);
        }
        // Seal at this watermark; retire only what the *oldest retained*
        // checkpoint covers, so a corrupt newest one can still fall back
        // and replay. Rotation is an optimization: a segment that is not
        // sealed or retired replays extra already-checkpointed frames,
        // which recovery skips.
        let start = self.obs.clock();
        let rotated = with_retries(
            &self.obs,
            "wal.rotate_retries",
            &mut self.options.sleeper,
            || {
                self.wal.seal(seq)?;
                self.wal.retire(oldest_retained)
            },
        );
        if self.obs.enabled() {
            self.obs.observe_since("wal.rotate_ns", start);
            if rotated.is_err() {
                self.obs.counter_add("wal.rotate_failed", 1);
            }
        }
        Ok(())
    }

    /// Graceful shutdown: a final checkpoint flush. Called by `botmeterd`
    /// on SIGTERM/SIGINT so a restart needs no journal replay.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Io`] when the checkpoint write fails past the
    /// retry budget.
    pub fn shutdown(&mut self) -> Result<(), DurabilityError> {
        let encoded = encode_state(&self.engine, &self.obs, self.seq);
        self.write_checkpoint(encoded)
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
    #[doc(hidden)]
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
    fn transient_append_faults_are_retried_through() {
        let mut storage = FailingStorage::new(MemStorage::new());
        storage.fail_next_appends(2); // one try and three retries
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
            [Duration::from_millis(2), Duration::from_millis(4)],
            "the schedule's first two pauses, in order"
        );
    }

    /// The reference policy and two workers: the journal inline, and beside
    /// the engine (and decoding ahead of replay).
    const POLICIES: [ExecPolicy; 2] = [
        ExecPolicy::Sequential,
        ExecPolicy::Parallel { threads: Some(2) },
    ];

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
        for policy in POLICIES {
            for (payload, needle) in [
                (not_utf8.clone(), "UTF-8"),
                (b"{\"not\": \"a shard\"}".to_vec(), ""),
                (b"[1, 2, 3]".to_vec(), ""),
            ] {
                // Valid frames 3..=40 behind the bad one: decoded ahead of
                // replay, they must not mask frame 2's refusal, and the
                // decode stops a window past it.
                let mut storage = MemStorage::new();
                let mut journal = crate::wal::encode_header(0);
                journal.extend(crate::wal::encode_frame(1, &shard));
                journal.extend(crate::wal::encode_frame(2, &payload));
                for seq in 3..=40 {
                    journal.extend(crate::wal::encode_frame(seq, &shard));
                }
                storage
                    .write_atomic(crate::wal::WAL_FILE, &journal)
                    .unwrap();
                let (obs, registry) = Obs::collecting();
                let err = DurableDaemon::open(
                    meter(),
                    options().policy(policy).obs(obs),
                    storage,
                    DurabilityOptions::default(),
                )
                .expect_err("frame 2 is not a shard");
                match err {
                    DurabilityError::BadFramePayload { seq: 2, reason } => {
                        assert!(reason.contains(needle), "{policy:?}: {reason}")
                    }
                    other => {
                        panic!("{policy:?}: expected BadFramePayload for frame 2, got {other}")
                    }
                }
                // Frames handed to the decoders.
                let pulled = registry.snapshot().counter("sched.stream.items");
                let pulled = pulled.expect("recovery ran the decode");
                if policy.is_sequential() {
                    assert_eq!(pulled, 2);
                } else {
                    let bound = 2 + botmeter_exec::PIPELINE_WINDOW as u64;
                    assert!(pulled <= bound, "{policy:?}: {pulled} frames decoded");
                }
            }
        }
    }

    #[test]
    fn a_journal_longer_than_the_decode_window_recovers_under_every_policy() {
        let stream = observed();
        let shards: Vec<_> = stream.chunks(stream.len().div_ceil(20)).collect();
        assert!(shards.len() > botmeter_exec::PIPELINE_WINDOW);
        let (mut uninterrupted, _) = DurableDaemon::open(
            meter(),
            options(),
            MemStorage::new(),
            DurabilityOptions::new(1000),
        )
        .unwrap();
        for shard in &shards {
            uninterrupted.ingest(shard);
        }
        let journal = uninterrupted.storage_mut().clone();
        uninterrupted.publish_now();
        for policy in POLICIES {
            let (mut recovered, report) = DurableDaemon::open(
                meter(),
                options().policy(policy),
                journal.clone(),
                DurabilityOptions::new(1000),
            )
            .unwrap();
            assert_eq!(report.replayed_frames, shards.len() as u64, "{policy:?}");
            assert_eq!(recovered.journal_seq(), shards.len() as u64, "{policy:?}");
            recovered.publish_now();
            assert_eq!(
                recovered.engine().latest(),
                uninterrupted.engine().latest(),
                "{policy:?}"
            );
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
        // On two workers the retries pause on the journal's worker while
        // the engine folds the shard on the caller.
        for policy in POLICIES {
            let storage = FailingStorage::new(MemStorage::new());
            let slept: Arc<Mutex<Vec<Duration>>> = Arc::default();
            let sleeps = slept.clone();
            let opts = DurabilityOptions {
                sleeper: Box::new(move |d| sleeps.lock().unwrap().push(d)),
                ..DurabilityOptions::new(1000)
            };
            let (obs, registry) = Obs::collecting();
            let (mut daemon, _) =
                DurableDaemon::open(meter(), options().policy(policy).obs(obs), storage, opts)
                    .unwrap();
            let stream = observed();
            daemon.storage_mut().fail_next_appends(u64::MAX);
            daemon.ingest(&stream[..64]);
            assert_eq!(
                *slept.lock().unwrap(),
                [2, 4, 8].map(Duration::from_millis),
                "{policy:?}: every pause of the schedule, in order, then the shard degrades"
            );
            assert_eq!(daemon.durability_stats().unjournaled_shards, 1);
            assert_eq!(registry.snapshot().counter("wal.degraded_shards"), Some(1));
            daemon.ingest(&stream[64..128]);
            assert!(daemon.is_degraded(), "journal gone, serve path alive");
            assert_eq!(daemon.durability_stats().unjournaled_shards, 2);
            assert_eq!(daemon.stats().ingested, 128, "ingest kept working");
            // A successful checkpoint covers the unjournaled shards.
            daemon.storage_mut().fail_next_appends(0);
            daemon.shutdown().unwrap();
            assert!(!daemon.is_degraded());
            // Recovery from that storage resumes with everything ingested.
            let storage =
                std::mem::replace(daemon.storage_mut(), FailingStorage::new(MemStorage::new()));
            drop(daemon);
            let opts = DurabilityOptions {
                sleeper: Box::new(|_| {}),
                ..DurabilityOptions::new(1000)
            };
            let (recovered, report) =
                DurableDaemon::open(meter(), options(), storage, opts).unwrap();
            assert_eq!(recovered.stats().ingested, 128);
            assert_eq!(report.replayed_frames, 0, "checkpoint covered everything");
        }
    }

    #[test]
    fn a_torn_append_never_leaves_a_journal_that_will_not_reopen() {
        let opts = || DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(1000)
        };
        let (mut daemon, _) = DurableDaemon::open(
            meter(),
            options(),
            FailingStorage::new(MemStorage::new()),
            opts(),
        )
        .unwrap();
        let stream = observed();
        let shards: Vec<_> = stream[..160].chunks(32).collect();
        daemon.ingest(shards[0]);
        // Half of frame 2 lands, then the write fails; the retry cuts the
        // half frame off before the whole one goes behind it.
        daemon.storage_mut().tear_next_appends(1);
        daemon.ingest(shards[1]);
        assert!(!daemon.is_degraded());
        // Every attempt at frame 3 tears: degraded, and the shard next in
        // line (frame 4) is the one whose append mends the segment.
        daemon.storage_mut().tear_next_appends(u64::MAX);
        daemon.ingest(shards[2]);
        assert!(daemon.is_degraded());
        daemon.storage_mut().tear_next_appends(0);
        daemon.ingest(shards[3]);
        assert_eq!(daemon.durability_stats().wal_appends, 3);

        let storage = std::mem::take(daemon.storage_mut().inner_mut());
        let (_, report) = DurableDaemon::open(meter(), options(), storage.clone(), opts())
            .expect("every acknowledged frame reopens");
        assert_eq!((report.replayed_frames, report.torn_tail_bytes), (3, 0));
        assert_eq!(report.ingested_records, 96);

        // A checkpoint that seals a torn segment mends it first: a sealed
        // segment never ends mid-frame. (Checkpoint 4 is retained beside 5,
        // so the segment sealed at 5 is kept and read on reopen.)
        let (mut daemon, _) =
            DurableDaemon::open(meter(), options(), FailingStorage::new(storage), opts()).unwrap();
        daemon.shutdown().unwrap();
        daemon.storage_mut().tear_next_appends(u64::MAX);
        daemon.ingest(shards[4]);
        daemon.shutdown().unwrap();
        let storage = std::mem::take(daemon.storage_mut().inner_mut());
        let (recovered, report) =
            DurableDaemon::open(meter(), options(), storage, opts()).expect("the chain reopens");
        assert_eq!(report.checkpoint_seq, 5);
        assert_eq!(
            recovered.stats().ingested,
            96 + 32,
            "frame 3 was never acknowledged"
        );
    }

    #[test]
    fn a_seal_that_fails_is_counted_and_the_next_checkpoint_seals_everything() {
        let (obs, registry) = Obs::collecting();
        let opts = DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(2)
        };
        let (mut daemon, _) = DurableDaemon::open(
            meter(),
            options().obs(obs),
            FailingStorage::new(MemStorage::new()),
            opts,
        )
        .unwrap();
        let stream = observed();
        daemon.storage_mut().fail_next_renames(u64::MAX);
        daemon.ingest(&stream[..32]);
        daemon.ingest(&stream[32..64]); // checkpoint 2; its seal fails
        assert_eq!(daemon.durability_stats().failed_checkpoints, 0);
        assert_eq!(registry.snapshot().counter("wal.rotate_failed"), Some(1));
        daemon.storage_mut().fail_next_renames(0);
        daemon.ingest(&stream[64..96]);
        daemon.ingest(&stream[96..128]); // checkpoint 4 seals frames 1–4
        let mut storage = std::mem::take(daemon.storage_mut().inner_mut());
        assert_eq!(
            storage.list().unwrap(),
            [
                CheckpointManager::file_name(2),
                CheckpointManager::file_name(4),
                crate::wal::segment_name(4),
                crate::wal::WAL_FILE.to_owned(),
            ]
        );
        storage.remove(&CheckpointManager::file_name(4)).unwrap();
        let (recovered, report) =
            DurableDaemon::open(meter(), options(), storage, DurabilityOptions::default()).unwrap();
        assert_eq!((report.checkpoint_seq, report.replayed_frames), (2, 2));
        assert_eq!(recovered.stats().ingested, 128);
    }

    #[test]
    fn falling_back_past_a_sealed_watermark_numbers_the_next_frame_above_it() {
        let opts = || DurabilityOptions {
            sleeper: Box::new(|_| {}),
            ..DurabilityOptions::new(1000)
        };
        let (mut daemon, _) = DurableDaemon::open(
            meter(),
            options(),
            FailingStorage::new(MemStorage::new()),
            opts(),
        )
        .unwrap();
        let stream = observed();
        daemon.ingest(&stream[..32]);
        daemon.shutdown().unwrap();
        // Shard 2 rides on checkpoint 2 alone, which then turns out corrupt:
        // recovery falls back to 1 with nothing to replay, and the journal
        // is already sealed at 2.
        daemon.storage_mut().fail_next_appends(u64::MAX);
        daemon.ingest(&stream[32..64]);
        daemon.shutdown().unwrap();
        let mut storage = std::mem::take(daemon.storage_mut().inner_mut());
        storage
            .get_mut(&CheckpointManager::file_name(2))
            .unwrap()
            .truncate(10);
        let (mut daemon, report) =
            DurableDaemon::open(meter(), options(), storage, opts()).unwrap();
        assert_eq!((report.checkpoint_seq, report.corrupt_checkpoints), (1, 1));
        assert_eq!(daemon.journal_seq(), 2);
        daemon.ingest(&stream[64..96]);
        let storage = std::mem::take(daemon.storage_mut());
        let (reopened, report) = DurableDaemon::open(meter(), options(), storage, opts())
            .expect("frame 3 lands above the sealed watermark");
        assert_eq!(report.replayed_frames, 1);
        assert_eq!(reopened.journal_seq(), 3);
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
            daemon.shutdown(),
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
