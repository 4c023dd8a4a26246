//! The durability contract, exhaustively: a daemon killed at **every**
//! ingest boundary, and after **every** mutating storage operation, and
//! restarted must end bit-identical to an uninterrupted run — across DGA
//! families (both estimator routes) and both execution policies — and a
//! corrupted newest checkpoint must fall back a generation and still
//! converge.
//!
//! "Kill" here is in-process: the daemon is dropped without a shutdown
//! flush, exactly what `kill -9` leaves on storage (journal yes, final
//! checkpoint no). The process-level equivalent (real SIGKILL against the
//! real binary) is `tests/daemon_chaos.rs`.

use botmeter_core::{BotMeter, BotMeterConfig};
use botmeter_daemon::checkpoint::decode_checkpoint;
use botmeter_daemon::wal::crc32;
use botmeter_daemon::{
    DaemonOptions, DurabilityError, DurabilityOptions, DurableDaemon, FailingStorage, MemStorage,
    Storage,
};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_obs::Obs;
use botmeter_sim::ScenarioSpec;
use std::io;

const EPOCHS: u64 = 2;

/// Cuts the stream into ~8 shards so the every-boundary sweep stays
/// affordable for the chatty families (newGoZ emits ~10k records here).
fn shards_of(observed: &[ObservedLookup]) -> Vec<&[ObservedLookup]> {
    observed.chunks(observed.len().div_ceil(8).max(1)).collect()
}

fn stream(family: &DgaFamily) -> Vec<ObservedLookup> {
    ScenarioSpec::builder(family.clone())
        .population(10)
        .num_epochs(EPOCHS)
        .seed(42)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::default())
        .observed()
        .to_vec()
}

fn meter(family: &DgaFamily) -> BotMeter {
    BotMeter::new(BotMeterConfig::new(family.clone()))
}

fn options(policy: &ExecPolicy) -> DaemonOptions {
    DaemonOptions::new(0..EPOCHS).policy(*policy).retention(4)
}

fn durability() -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_every: 3,
        sleeper: Box::new(|_| {}),
    }
}

/// Drives a daemon over `shards`, mirroring `botmeterd`'s end-of-input
/// rule: publish the trailing epoch only when unpublished work exists.
fn drive<S: Storage>(daemon: &mut DurableDaemon<S>, shards: &[&[ObservedLookup]]) {
    for shard in shards {
        daemon.ingest(shard);
    }
    if daemon.engine().dirty_cells() > 0 || daemon.engine().store().is_empty() {
        daemon.publish_now();
    }
}

/// The engine's complete recoverable state, bit-exactly comparable: raw
/// estimates and published values travel as `f64::to_bits`.
fn fingerprint<S: Storage>(daemon: &DurableDaemon<S>) -> String {
    let state = daemon.engine().checkpoint_state(0);
    serde_json::to_string(&state).expect("checkpoint state serializes")
}

fn matrix() -> Vec<(DgaFamily, ExecPolicy)> {
    let mut cases = Vec::new();
    for family in [DgaFamily::murofet(), DgaFamily::new_goz()] {
        for policy in [ExecPolicy::Sequential, ExecPolicy::with_threads(2)] {
            cases.push((family.clone(), policy));
        }
    }
    cases
}

#[test]
fn killed_at_every_ingest_boundary_recovers_bit_identical() {
    for (family, policy) in matrix() {
        let observed = stream(&family);
        let shards = shards_of(&observed);

        // Uninterrupted reference.
        let (mut reference, _) = DurableDaemon::open(
            meter(&family),
            options(&policy),
            MemStorage::new(),
            durability(),
        )
        .expect("fresh open");
        drive(&mut reference, &shards);
        let expected = fingerprint(&reference);

        for cut in 0..=shards.len() {
            // Run to the boundary, then vanish without a shutdown flush.
            let (mut victim, _) = DurableDaemon::open(
                meter(&family),
                options(&policy),
                MemStorage::new(),
                durability(),
            )
            .expect("fresh open");
            for shard in &shards[..cut] {
                victim.ingest(shard);
            }
            let survives = std::mem::take(victim.storage_mut());
            drop(victim); // kill -9

            // Restart from what storage holds, finish the stream.
            let (mut recovered, report) =
                DurableDaemon::open(meter(&family), options(&policy), survives, durability())
                    .expect("recovery");
            assert_eq!(
                report.ingested_records,
                shards[..cut].iter().map(|s| s.len() as u64).sum::<u64>(),
                "{} / {policy:?}: recovery must restore the exact ingest offset",
                family.name(),
            );
            drive(&mut recovered, &shards[cut..]);
            assert_eq!(
                fingerprint(&recovered),
                expected,
                "{} / {policy:?}: kill at boundary {cut}/{} diverged",
                family.name(),
                shards.len(),
            );
        }
    }
}

/// [`MemStorage`] that keeps what `kill -9` would leave after each of its
/// mutating operations: a copy of the storage, labelled with the operation.
#[derive(Debug, Default)]
struct Recording {
    storage: MemStorage,
    after: Vec<(String, MemStorage)>,
}

impl Recording {
    fn record(&mut self, op: String) -> io::Result<()> {
        self.after.push((op, self.storage.clone()));
        Ok(())
    }
}

impl Storage for Recording {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.storage.read(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.storage.write_atomic(name, bytes)?;
        self.record(format!("write_atomic {name}"))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.storage.append(name, bytes)?;
        self.record(format!("append {name}"))
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        self.storage.rename(from, to)?;
        self.record(format!("rename {from} {to}"))
    }

    fn exists(&mut self, name: &str) -> io::Result<bool> {
        self.storage.exists(name)
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        self.storage.list()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.storage.remove(name)?;
        self.record(format!("remove {name}"))
    }
}

#[test]
fn killed_after_every_storage_operation_recovers_bit_identical() {
    for (family, policy) in matrix() {
        let observed = stream(&family);
        let shards = shards_of(&observed);
        let (mut reference, _) = DurableDaemon::open(
            meter(&family),
            options(&policy),
            Recording::default(),
            durability(),
        )
        .expect("fresh open");
        drive(&mut reference, &shards);
        reference.shutdown().expect("final checkpoint");
        let expected = fingerprint(&reference);
        let after = std::mem::take(&mut reference.storage_mut().after);

        // Every step of a checkpoint is a kill point: the checkpoint write
        // and the retirement of the old generation, the seal's rename and
        // fresh header, the retirement of covered segments.
        for op in [
            "append wal.log",
            "write_atomic checkpoint.",
            "remove checkpoint.",
            "rename wal.log wal.",
            "write_atomic wal.log",
            "remove wal.",
        ] {
            assert!(
                after.iter().any(|(done, _)| done.starts_with(op)),
                "{}: no {op:?} among {:?}",
                family.name(),
                after.iter().map(|(done, _)| done).collect::<Vec<_>>()
            );
        }

        for (k, (op, survives)) in after.into_iter().enumerate() {
            let (mut recovered, report) =
                DurableDaemon::open(meter(&family), options(&policy), survives, durability())
                    .unwrap_or_else(|e| panic!("{}: kill after op {k} ({op}): {e}", family.name()));
            // Resume the feed where the recovered engine stands: always on
            // a shard boundary.
            let resume = (0..=shards.len())
                .find(|&i| {
                    shards[..i].iter().map(|s| s.len() as u64).sum::<u64>()
                        == report.ingested_records
                })
                .expect("recovery resumes on a shard boundary");
            drive(&mut recovered, &shards[resume..]);
            recovered.shutdown().expect("final checkpoint");
            assert_eq!(
                fingerprint(&recovered),
                expected,
                "{} / {policy:?}: kill after op {k} ({op}) diverged",
                family.name(),
            );
        }
    }
}

/// Running the journal beside the engine never reorders storage: one
/// stream, checkpointed on a cadence of 4 and shut down, performs the same
/// mutating storage operations in the same order under `Sequential`
/// (journal first, inline) and on two workers (journal beside the fold).
#[test]
fn the_journal_overlap_never_reorders_storage_operations() {
    let family = DgaFamily::new_goz();
    let observed = stream(&family);
    let shards = shards_of(&observed);
    let ops = |policy: ExecPolicy| {
        let (mut daemon, _) = DurableDaemon::open(
            meter(&family),
            options(&policy),
            Recording::default(),
            DurabilityOptions {
                checkpoint_every: 4,
                sleeper: Box::new(|_| {}),
            },
        )
        .expect("fresh open");
        drive(&mut daemon, &shards);
        daemon.shutdown().expect("final checkpoint");
        assert!(daemon.durability_stats().checkpoints >= 3, "{policy:?}");
        std::mem::take(&mut daemon.storage_mut().after)
            .into_iter()
            .map(|(op, _)| op)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        ops(ExecPolicy::Sequential),
        ops(ExecPolicy::with_threads(2))
    );
}

/// After `open`, no ingest or checkpoint reads storage: every read failing
/// changes nothing — no failed checkpoint, no failed rotation — and what is
/// left reopens to the uninterrupted state.
#[test]
fn after_open_the_write_path_never_reads_storage() {
    let family = DgaFamily::murofet();
    let policy = ExecPolicy::Sequential;
    let observed = stream(&family);
    let shards = shards_of(&observed);
    let (obs, registry) = Obs::collecting();
    let (mut daemon, _) = DurableDaemon::open(
        meter(&family),
        options(&policy).obs(obs),
        FailingStorage::new(MemStorage::new()),
        durability(),
    )
    .expect("fresh open");
    daemon.storage_mut().fail_next_reads(u64::MAX);
    drive(&mut daemon, &shards);
    daemon.shutdown().expect("final checkpoint");
    let stats = daemon.durability_stats();
    assert!(stats.checkpoints >= 3, "{stats:?}");
    assert_eq!(stats.failed_checkpoints, 0);
    assert_eq!(daemon.storage_mut().injected(), 0, "nothing was read");
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("wal.rotate_failed"), None);
    assert_eq!(
        snapshot.histogram("wal.rotate_ns").map(|h| h.count),
        Some(stats.checkpoints)
    );
    let expected = fingerprint(&daemon);

    let storage = std::mem::take(daemon.storage_mut().inner_mut());
    let (reopened, report) =
        DurableDaemon::open(meter(&family), options(&policy), storage, durability())
            .expect("reopen");
    assert_eq!(
        report.replayed_frames, 0,
        "the shutdown checkpoint covers all"
    );
    assert_eq!(fingerprint(&reopened), expected);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_and_converges() {
    let family = DgaFamily::murofet();
    let policy = ExecPolicy::Sequential;
    let observed = stream(&family);
    let shards = shards_of(&observed);

    let (mut reference, _) = DurableDaemon::open(
        meter(&family),
        options(&policy),
        MemStorage::new(),
        durability(),
    )
    .expect("fresh open");
    drive(&mut reference, &shards);
    let expected = fingerprint(&reference);

    // Ingest far enough to retire two checkpoint generations, then die.
    let cut = shards.len() - 1;
    let (mut victim, _) = DurableDaemon::open(
        meter(&family),
        options(&policy),
        MemStorage::new(),
        durability(),
    )
    .expect("fresh open");
    for shard in &shards[..cut] {
        victim.ingest(shard);
    }
    let mut survives = std::mem::take(victim.storage_mut());
    drop(victim);

    // Flip one byte in the middle of the newest checkpoint.
    let mut names: Vec<String> = survives
        .list()
        .expect("list checkpoints")
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    names.sort();
    assert!(names.len() >= 2, "need two generations to test fallback");
    let newest = names.last().expect("nonempty").clone();
    let bytes = survives.get_mut(&newest).expect("stored checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;

    let (mut recovered, report) =
        DurableDaemon::open(meter(&family), options(&policy), survives, durability())
            .expect("fallback recovery");
    assert_eq!(
        report.corrupt_checkpoints, 1,
        "the damaged generation must be detected and skipped"
    );
    assert!(
        report.replayed_frames > 0,
        "falling back a generation forces journal replay"
    );
    drive(&mut recovered, &shards[cut..]);
    assert_eq!(fingerprint(&recovered), expected, "fallback run diverged");
}

#[test]
fn all_checkpoints_corrupt_fails_loudly() {
    let family = DgaFamily::murofet();
    let policy = ExecPolicy::Sequential;
    let observed = stream(&family);
    let shards = shards_of(&observed);

    let (mut victim, _) = DurableDaemon::open(
        meter(&family),
        options(&policy),
        MemStorage::new(),
        durability(),
    )
    .expect("fresh open");
    for shard in &shards {
        victim.ingest(shard);
    }
    let mut survives = std::mem::take(victim.storage_mut());
    drop(victim);

    let names: Vec<String> = survives
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    for name in names {
        let bytes = survives.get_mut(&name).expect("stored");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
    }
    let err = DurableDaemon::open(meter(&family), options(&policy), survives, durability())
        .expect_err("every generation is damaged");
    let msg = err.to_string();
    assert!(
        msg.contains("no stored checkpoint is readable"),
        "unexpected error: {msg}"
    );
}

/// A data dir written while the engine could still run a sketch sidecar:
/// its checkpoints carry a `;sketch=…` fingerprint suffix and a `"sketch"`
/// body key. The sidecar is gone, so recovery refuses the dir with the
/// typed mismatch instead of half-loading it.
#[test]
fn sidecar_era_data_dir_is_refused_with_a_config_mismatch() {
    let family = DgaFamily::murofet();
    let policy = ExecPolicy::Sequential;
    let observed = stream(&family);
    let (mut victim, _) = DurableDaemon::open(
        meter(&family),
        options(&policy),
        MemStorage::new(),
        durability(),
    )
    .expect("fresh open");
    for shard in shards_of(&observed) {
        victim.ingest(shard);
    }
    let mut storage = std::mem::take(victim.storage_mut());
    drop(victim);

    let names: Vec<String> = storage
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    assert!(!names.is_empty(), "the run wrote checkpoints");
    for name in names {
        let mut state = decode_checkpoint(&storage.read(&name).expect("stored")).expect("intact");
        state.config.push_str(";sketch=32w12p");
        let mut body = serde_json::to_string(&state).expect("state serializes");
        body.pop(); // the closing brace
        body.push_str(r#","sketch":{"config":{"width":32,"precision":12},"total":0,"cells":[]}}"#);
        let envelope = format!(
            "BMCKPT01 {:08x} {}\n{body}",
            crc32(body.as_bytes()),
            body.len()
        );
        storage
            .write_atomic(&name, envelope.as_bytes())
            .expect("rewrite checkpoint");
    }

    let err = DurableDaemon::open(meter(&family), options(&policy), storage, durability())
        .expect_err("a sidecar-era checkpoint must not load");
    match err {
        DurabilityError::ConfigMismatch { expected, found } => {
            assert_eq!(found, format!("{expected};sketch=32w12p"));
        }
        other => panic!("expected ConfigMismatch, got {other}"),
    }
}
