//! `botmeterd` — the incremental charting daemon over a JSON-Lines feed.
//!
//! Reads an unbounded stream of observed lookups from stdin (the same
//! JSON-Lines format `simulate` emits and `estimate` consumes), ingests it
//! in shards, and prints one JSON summary line per published snapshot:
//! version, changed-cell counts against the previous snapshot, residency
//! and stream-quality counters. At end of input it publishes the trailing
//! partial epoch and prints the final landscape to stderr.
//!
//! There is one publish schedule, the engine's: a snapshot whenever a shard
//! moves the head of the matched stream into a later epoch, then one at end
//! of input if unpublished traffic remains (or nothing was ever published).
//! It is a function of the feed and `--shard-records` alone, so the report
//! lines are the same with and without `--data-dir`, and after any crash.
//! A feed that ends early is a different feed: its end-of-input publish is
//! real, and a later full refeed publishes one version more — the
//! bit-identity contract covers crashes and signals, not truncated feeds.
//!
//! ```sh
//! simulate --family newgoz --population 64 --epochs 7 | \
//!     botmeterd --family newgoz --epochs 7
//! ```
//!
//! With `--data-dir DIR` the daemon runs **crash-safe**: every shard is
//! written to a checksummed write-ahead journal and is durable before its
//! ingest call returns (beside the engine's fold, or before it under
//! `--threads 1`), the engine state is checkpointed atomically every `--checkpoint-every` shards, and
//! on startup the daemon recovers from the newest readable checkpoint plus
//! journal replay. Records already ingested before a crash are skipped on
//! the refed stream, so a `kill -9` + restart publishes snapshots
//! bit-identical to an uninterrupted run. SIGTERM/SIGINT trigger a final
//! checkpoint flush and a clean exit. `--data-dir` selects storage,
//! recovery, that resume-skip and the signal handling — nothing else.
//! A shard is one journal frame, and a frame holds at most 64 MiB, so with
//! `--data-dir` a `--shard-records` above
//! [`MAX_SHARD_RECORDS`] (215 092: what
//! fits whatever the records are) is refused at start-up.
//!
//! Usage: `botmeterd --family NAME [--epochs E] [--model MODEL]
//! [--threads N] [--close-lag L] [--retention R] [--shard-records S]
//! [--delivery-rate F] [--data-dir DIR] [--checkpoint-every N]
//! [--final-snapshot PATH]`.

use botmeter_core::{BotMeter, BotMeterConfig, LandscapeVersion, ModelKind};
use botmeter_daemon::wal::MAX_FRAME_LEN;
use botmeter_daemon::{
    BotMeterDaemon, DaemonOptions, DiskStorage, DurabilityOptions, DurableDaemon, Storage,
    MAX_SHARD_RECORDS,
};
use botmeter_dga::DgaFamily;
use botmeter_dns::{trace, ObservedLookup};
use botmeter_exec::ExecPolicy;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; checked between shards.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `request_shutdown` for SIGTERM and SIGINT via the C runtime's
/// `signal(2)` — the workspace vendors no libc bindings, and these two
/// constants are identical on every platform the daemon targets.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGTERM, request_shutdown as *const () as usize);
        signal(SIGINT, request_shutdown as *const () as usize);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family: Option<DgaFamily> = None;
    let mut model = ModelKind::Auto;
    let mut epochs = 1u64;
    let mut threads = 0usize;
    let mut close_lag = 1u64;
    let mut retention = 8usize;
    let mut shard_records = 4096usize;
    let mut delivery_rate = 1.0f64;
    let mut data_dir: Option<String> = None;
    let mut checkpoint_every = 16u64;
    let mut final_snapshot: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let value = args.get(i).cloned();
        match flag {
            "--family" => {
                let name = value.unwrap_or_else(|| usage("--family needs a name"));
                family = Some(
                    DgaFamily::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown family {name:?}"))),
                );
            }
            "--model" => {
                let name = value.unwrap_or_else(|| usage("--model needs a name"));
                model = name
                    .parse()
                    .unwrap_or_else(|e: botmeter_core::UnknownModel| usage(&e.to_string()));
            }
            "--epochs" => epochs = parse(value, "--epochs"),
            "--threads" => threads = parse(value, "--threads"),
            "--close-lag" => close_lag = parse(value, "--close-lag"),
            "--retention" => retention = parse(value, "--retention"),
            "--shard-records" => shard_records = parse(value, "--shard-records"),
            "--delivery-rate" => delivery_rate = parse(value, "--delivery-rate"),
            "--data-dir" => {
                data_dir = Some(value.unwrap_or_else(|| usage("--data-dir needs a path")));
            }
            "--checkpoint-every" => checkpoint_every = parse(value, "--checkpoint-every"),
            "--final-snapshot" => {
                final_snapshot =
                    Some(value.unwrap_or_else(|| usage("--final-snapshot needs a path")));
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    let family = family.unwrap_or_else(|| usage("--family is required"));
    let policy = if threads == 0 {
        ExecPolicy::default()
    } else {
        ExecPolicy::with_threads(threads)
    };

    let meter = BotMeter::new(
        BotMeterConfig::new(family)
            .model(model)
            .delivery_rate(delivery_rate),
    );
    let shard_records = shard_records.max(1);
    if data_dir.is_some() && shard_records > MAX_SHARD_RECORDS {
        usage(&format!(
            "--shard-records {shard_records} is over {MAX_SHARD_RECORDS}, the most records one \
             journal frame ({} MiB) is sure to hold",
            MAX_FRAME_LEN >> 20
        ));
    }
    let options = DaemonOptions::new(0..epochs)
        .policy(policy)
        .close_lag(close_lag)
        .retention(retention.max(2)); // keep a previous snapshot to diff against

    // The feed restarts from the beginning of the trace; a recovered engine
    // skips what it already ingested, and the first fresh shard is sized to
    // land the next boundary back on a multiple of `shard_records`, so the
    // publish/checkpoint schedule is identical to an uninterrupted run.
    let (mut engine, skip) = match &data_dir {
        Some(dir) => open_durable(meter, options, dir, checkpoint_every),
        None => {
            let daemon =
                BotMeterDaemon::new(meter, options).unwrap_or_else(|e| usage(&e.to_string()));
            (Engine::Ephemeral(daemon), 0)
        }
    };
    let misalignment = (skip % shard_records as u64) as usize;
    let mut next_shard_len = shard_records - misalignment;

    let stdin = io::stdin();
    let mut seen = 0u64;
    let mut shard: Vec<ObservedLookup> = Vec::with_capacity(shard_records);
    let mut interrupted = false;
    for record in trace::read_jsonl_iter::<ObservedLookup, _>(stdin.lock()) {
        let lookup = record.unwrap_or_else(|e| usage(&e.to_string()));
        seen += 1;
        if seen <= skip {
            continue;
        }
        shard.push(lookup);
        if shard.len() >= next_shard_len {
            if let Some(version) = engine.ingest(&shard) {
                report(engine.daemon(), version);
            }
            shard.clear();
            next_shard_len = shard_records;
        }
        if SHUTDOWN.load(Ordering::SeqCst) {
            interrupted = true;
            break;
        }
    }
    // A signal that arrived while the reader was blocked is only noticed
    // once the read returns — re-check after the loop so "SIGTERM, then
    // the feed closes" takes the graceful path, not the end-of-input one.
    interrupted = interrupted || SHUTDOWN.load(Ordering::SeqCst);

    if let (true, Engine::Durable(durable)) = (interrupted, &mut engine) {
        // Graceful shutdown: the buffered partial shard was never
        // journaled, so it is simply dropped — the restart re-reads those
        // records from the feed. Flush a final checkpoint and exit clean.
        match durable.shutdown() {
            Ok(()) => eprintln!(
                "[botmeterd] signal received: checkpointed at journal seq {}, exiting",
                durable.journal_seq()
            ),
            Err(e) => {
                eprintln!("[botmeterd] signal received but final checkpoint failed: {e}");
                std::process::exit(1);
            }
        }
        std::process::exit(0);
    }

    if !shard.is_empty() {
        if let Some(version) = engine.ingest(&shard) {
            report(engine.daemon(), version);
        }
    }
    // Publish the trailing partial epoch — but only when the engine has
    // unpublished work. A restart that recovered a fully-caught-up state
    // must not mint a new version for content it already published, or
    // the version sequence would drift from an uninterrupted run's.
    if engine.daemon().dirty_cells() > 0 || engine.daemon().store().is_empty() {
        let version = engine.publish_now();
        report(engine.daemon(), version);
    }
    if let Engine::Durable(durable) = &mut engine {
        if let Err(e) = durable.shutdown() {
            eprintln!("[botmeterd] final checkpoint failed: {e}");
        }
        if durable.is_degraded() {
            eprintln!(
                "[botmeterd] WARNING: journal degraded; {} shards rode on checkpoints alone",
                durable.durability_stats().unjournaled_shards
            );
        }
    }
    finish(engine.daemon(), final_snapshot.as_deref());
}

/// What the feed loop drives: the engine alone, or the engine behind its
/// journal and checkpoints in `--data-dir`.
enum Engine {
    Ephemeral(BotMeterDaemon),
    Durable(DurableDaemon<DiskStorage>),
}

impl Engine {
    fn ingest(&mut self, shard: &[ObservedLookup]) -> Option<LandscapeVersion> {
        match self {
            Engine::Ephemeral(daemon) => daemon.ingest(shard),
            Engine::Durable(durable) => durable.ingest(shard),
        }
    }

    fn publish_now(&mut self) -> LandscapeVersion {
        match self {
            Engine::Ephemeral(daemon) => daemon.publish_now(),
            Engine::Durable(durable) => durable.publish_now(),
        }
    }

    fn daemon(&self) -> &BotMeterDaemon {
        match self {
            Engine::Ephemeral(daemon) => daemon,
            Engine::Durable(durable) => durable.engine(),
        }
    }
}

/// Crash-safe mode: installs the signal handlers, opens the journal and
/// checkpoints in `data_dir` and recovers whatever they hold. Returns the
/// engine and how many records of the feed it has already ingested.
fn open_durable(
    meter: BotMeter,
    options: DaemonOptions,
    data_dir: &str,
    checkpoint_every: u64,
) -> (Engine, u64) {
    install_signal_handlers();
    let storage = DiskStorage::open(data_dir)
        .unwrap_or_else(|e| usage(&format!("cannot open --data-dir {data_dir:?}: {e}")));
    let (daemon, recovery) = DurableDaemon::open(
        meter,
        options,
        storage,
        DurabilityOptions::new(checkpoint_every),
    )
    .unwrap_or_else(|e| {
        eprintln!("[botmeterd] recovery failed: {e}");
        std::process::exit(1);
    });
    if recovery.checkpoint_seq > 0 || recovery.replayed_frames > 0 {
        eprintln!(
            "[botmeterd] recovered: checkpoint seq {} (+{} corrupt skipped), \
             replayed {} journal frames / {} records, {} torn bytes discarded, \
             resuming after record {}",
            recovery.checkpoint_seq,
            recovery.corrupt_checkpoints,
            recovery.replayed_frames,
            recovery.replayed_records,
            recovery.torn_tail_bytes,
            recovery.ingested_records,
        );
    }
    (Engine::Durable(daemon), recovery.ingested_records)
}

/// Prints the final landscape and counters; optionally writes the
/// snapshot to `final_snapshot` (atomically, via the storage layer) for
/// byte-for-byte comparison by the chaos test.
fn finish(daemon: &BotMeterDaemon, final_snapshot: Option<&str>) {
    if let Some((version, landscape)) = daemon.latest() {
        eprintln!("[botmeterd] final snapshot {version}:");
        eprint!("{landscape}");
        if let Some(path) = final_snapshot {
            let target = std::path::Path::new(path);
            let dir = target.parent().filter(|p| !p.as_os_str().is_empty());
            let name = target
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_else(|| usage("--final-snapshot needs a file path"));
            let body = format!("{version}\n{landscape}");
            let write = DiskStorage::open(dir.unwrap_or(std::path::Path::new(".")))
                .and_then(|mut s| s.write_atomic(name, body.as_bytes()));
            if let Err(e) = write {
                eprintln!("[botmeterd] could not write final snapshot {path:?}: {e}");
                std::process::exit(1);
            }
        }
    }
    let stats = daemon.stats();
    eprintln!(
        "[botmeterd] ingested {} matched {} stale {} peak-resident {} publishes {}",
        stats.ingested,
        stats.matched,
        stats.stale_records,
        stats.peak_resident_records,
        stats.publishes
    );
}

/// Prints one machine-readable summary line for a freshly published
/// snapshot: its version, the change counts against the previous retained
/// snapshot, and the engine's residency counters.
fn report(daemon: &BotMeterDaemon, version: LandscapeVersion) {
    let stats = daemon.stats();
    let (added, removed, reestimated) = match version.0.checked_sub(1) {
        Some(prev) if prev >= 1 => daemon
            .store()
            .delta(LandscapeVersion(prev), version)
            .map(|d| (d.added(), d.removed(), d.reestimated()))
            .unwrap_or((0, 0, 0)),
        _ => daemon
            .store()
            .at(version)
            .map(|l| (l.len(), 0, 0))
            .unwrap_or((0, 0, 0)),
    };
    println!(
        "{{\"version\":{},\"cells\":{},\"added\":{},\"removed\":{},\"reestimated\":{},\
         \"resident_records\":{},\"stale_records\":{},\"matched\":{},\"ingested\":{}}}",
        version.0,
        daemon.cell_count(),
        added,
        removed,
        reestimated,
        stats.resident_records,
        stats.stale_records,
        stats.matched,
        stats.ingested
    );
}

fn parse<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: botmeterd --family NAME [--epochs E] [--model MODEL] \
         [--threads N] [--close-lag L] [--retention R] \
         [--shard-records S] [--delivery-rate F] [--data-dir DIR] \
         [--checkpoint-every N] [--final-snapshot PATH]   (trace on stdin)"
    );
    std::process::exit(2);
}
