//! A data directory written by the build before the streaming encoder and
//! the slicing-by-8 CRC (`tests/fixtures/parent_data_dir`, see its README)
//! and this build agree on every byte: this build recovers from that
//! directory to the snapshot its README records, writes the same frames and
//! checkpoints when fed the same feed — the journal now as a sealed segment
//! beside an empty active one — and grows the parent's single `wal.log`
//! into a segment chain that reopens.

mod common;

use botmeter_core::{BotMeter, BotMeterConfig};
use botmeter_daemon::checkpoint::CheckpointManager;
use botmeter_daemon::wal::{encode_header, segment_name, WAL_FILE};
use botmeter_daemon::{
    DaemonOptions, DurabilityOptions, DurableDaemon, MemStorage, RecoveryReport, Storage,
};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use common::{epoch_traffic, SoakLayout};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const FILES: [&str; 3] = [
    "wal.log",
    "checkpoint.00000000000000000008.bmck",
    "checkpoint.00000000000000000011.bmck",
];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_data_dir")
}

/// The `cell ...` lines of the fixture's README: the final snapshot as
/// `(server, epoch, estimate bits, quality)`.
fn recorded_snapshot() -> Vec<(u32, u64, u64, String)> {
    let readme = std::fs::read_to_string(fixture().join("README.md")).expect("fixture README");
    let cells: Vec<_> = readme
        .lines()
        .filter_map(|line| line.strip_prefix("cell "))
        .map(|line| {
            let field = |name: &str| {
                line.split(' ')
                    .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('='))
                    .unwrap_or_else(|| panic!("README cell line lacks {name}: {line}"))
            };
            (
                field("server").parse().expect("server id"),
                field("epoch").parse().expect("epoch"),
                field("estimate_bits").parse().expect("estimate bits"),
                field("quality").to_owned(),
            )
        })
        .collect();
    assert_eq!(cells.len(), 2, "the README records two cells");
    cells
}

/// `files` of the fixture, in memory.
fn fixture_storage(files: &[&str]) -> MemStorage {
    let mut storage = MemStorage::new();
    for name in files {
        let bytes = std::fs::read(fixture().join(name)).expect("fixture file");
        storage.write_atomic(name, &bytes).expect("memory storage");
    }
    storage
}

/// A daemon configured as `botmeterd` was for the fixture, over `storage`.
fn open(storage: MemStorage) -> (DurableDaemon<MemStorage>, RecoveryReport) {
    DurableDaemon::open(
        BotMeter::new(BotMeterConfig::new(DgaFamily::murofet())),
        DaemonOptions::new(0..2).retention(8),
        storage,
        DurabilityOptions::new(4),
    )
    .expect("a directory the parent build wrote opens")
}

/// Opens a daemon over `files` of the fixture, and returns the recovered
/// final snapshot.
fn recover(files: &[&str]) -> (RecoveryReport, Vec<(u32, u64, u64, String)>) {
    let (mut daemon, report) = open(fixture_storage(files));
    // `botmeterd`'s end-of-input rule: replayed frames leave the trailing
    // epoch unpublished, a checkpoint that covers everything does not.
    if daemon.engine().dirty_cells() > 0 {
        daemon.publish_now();
    }
    let (version, landscape) = daemon.engine().latest().expect("a published snapshot");
    assert_eq!(version.0, 2);
    let cells = landscape
        .entries()
        .iter()
        .map(|e| {
            (
                e.server.0,
                e.epoch,
                e.estimate.to_bits(),
                format!("{:?}", e.quality),
            )
        })
        .collect();
    (report, cells)
}

#[test]
fn this_build_recovers_the_parents_directory_to_the_recorded_snapshot() {
    // As left by a clean shutdown: the newest checkpoint covers everything.
    let (report, cells) = recover(&FILES);
    assert_eq!((report.checkpoint_seq, report.replayed_frames), (11, 0));
    assert_eq!(cells, recorded_snapshot());

    // Without the newest generation: fall back to 8 and replay the three
    // journal frames the parent wrote — its payload JSON, its CRCs.
    let (report, cells) = recover(&FILES[..2]);
    assert_eq!(
        (
            report.checkpoint_seq,
            report.replayed_frames,
            report.replayed_records,
            report.ingested_records
        ),
        (8, 3, 24, 88)
    );
    assert_eq!(cells, recorded_snapshot());
}

/// The fixture feed, cut into `botmeterd --shard-records 8`'s shards.
fn feed_shards() -> Vec<Vec<ObservedLookup>> {
    let feed = std::fs::read_to_string(fixture().join("feed.jsonl")).expect("fixture feed");
    let records: Vec<ObservedLookup> = feed
        .lines()
        .map(|line| serde_json::from_str(line).expect("a feed record"))
        .collect();
    assert_eq!(records.len(), 88);
    records.chunks(8).map(<[_]>::to_vec).collect()
}

/// The engine's complete recoverable state, bit-exactly comparable.
fn fingerprint(daemon: &DurableDaemon<MemStorage>) -> String {
    serde_json::to_string(&daemon.engine().checkpoint_state(0)).expect("state serializes")
}

#[test]
fn the_same_feed_writes_the_parents_frames_and_checkpoints_byte_for_byte() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cross_version");
    let _ = std::fs::remove_dir_all(&scratch);
    let feed = std::fs::File::open(fixture().join("feed.jsonl")).expect("fixture feed");
    let status = Command::new(env!("CARGO_BIN_EXE_botmeterd"))
        .args(["--family", "murofet", "--epochs", "2"])
        .args(["--shard-records", "8", "--checkpoint-every", "4"])
        .arg("--data-dir")
        .arg(&scratch)
        .stdin(Stdio::from(feed))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("botmeterd runs");
    assert!(status.success(), "{status:?}");

    let mut written: Vec<String> = std::fs::read_dir(&scratch)
        .expect("data dir")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .collect();
    written.sort();
    // The shutdown checkpoint at 11 sealed the journal the parent left as
    // `wal.log` (base 8, frames 9–11) and started an empty one at 11.
    let sealed = segment_name(11);
    assert_eq!(sealed, "wal.00000000000000000011.log");
    assert_eq!(written, [FILES[1], FILES[2], &sealed, WAL_FILE]);
    let read = |dir: &Path, name: &str| std::fs::read(dir.join(name)).expect("file");
    assert_eq!(
        read(&scratch, &sealed),
        read(&fixture(), WAL_FILE),
        "the sealed segment differs from the parent build's journal"
    );
    for name in &FILES[1..] {
        assert_eq!(
            read(&scratch, name),
            read(&fixture(), name),
            "{name} differs from the parent build's"
        );
    }
    assert_eq!(read(&scratch, WAL_FILE), encode_header(11));
    assert_eq!(encode_header(11).len(), 20);
    std::fs::remove_dir_all(&scratch).expect("scratch removed");
}

/// The parent's directory, more feed, a checkpoint, then reopen: the
/// parent's `wal.log` takes the new frames and is sealed as the chain's
/// first segment, and the directory reopens — on the newest checkpoint, and
/// on the one before it with the segment replayed — to the state of a run
/// that never changed builds.
#[test]
fn a_parent_directory_grows_a_segment_chain_and_reopens() {
    // Three shards past the parent's 11: a cadence checkpoint at 12, then
    // 13 and 14 journaled in the new active segment.
    let traffic = epoch_traffic(&DgaFamily::murofet(), 1, SoakLayout::default());
    let more: Vec<&[ObservedLookup]> = traffic.chunks(3).collect();
    assert_eq!(more.len(), 3);

    let (mut reference, _) = open(MemStorage::new());
    for shard in feed_shards() {
        reference.ingest(&shard);
    }
    // `botmeterd`'s end of input: the trailing publish, then the shutdown
    // checkpoint at 11.
    reference.publish_now();
    reference.shutdown().expect("checkpoint at 11");
    for shard in &more {
        reference.ingest(shard);
    }
    let expected = fingerprint(&reference);

    let (mut daemon, report) = open(fixture_storage(&FILES));
    assert_eq!((report.checkpoint_seq, report.replayed_frames), (11, 0));
    for shard in &more {
        daemon.ingest(shard);
    }
    assert_eq!(daemon.durability_stats().checkpoints, 1);
    let mut storage = std::mem::take(daemon.storage_mut());
    drop(daemon);

    let mut names = storage.list().expect("list");
    names.sort();
    let sealed = segment_name(12);
    assert_eq!(
        names,
        [
            FILES[2].to_owned(),
            CheckpointManager::file_name(12),
            sealed.clone(),
            WAL_FILE.to_owned()
        ]
    );
    let parent_journal = std::fs::read(fixture().join(WAL_FILE)).expect("fixture journal");
    assert!(
        storage
            .read(&sealed)
            .expect("sealed segment")
            .starts_with(&parent_journal),
        "frame 12 was appended to the parent's journal, which was then sealed whole"
    );

    let (reopened, report) = open(storage.clone());
    assert_eq!((report.checkpoint_seq, report.replayed_frames), (12, 2));
    assert_eq!(fingerprint(&reopened), expected);

    storage
        .remove(&CheckpointManager::file_name(12))
        .expect("drop the newest generation");
    let (fallen_back, report) = open(storage);
    assert_eq!((report.checkpoint_seq, report.replayed_frames), (11, 3));
    assert_eq!(fingerprint(&fallen_back), expected);
}
