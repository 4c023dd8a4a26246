//! A data directory written by the build before the streaming encoder and
//! the slicing-by-8 CRC (`tests/fixtures/parent_data_dir`, see its README)
//! and this build agree on every byte: this build recovers from that
//! directory to the snapshot its README records, and writes the same three
//! files when fed the same feed.

use botmeter_core::{BotMeter, BotMeterConfig};
use botmeter_daemon::{
    DaemonOptions, DurabilityOptions, DurableDaemon, MemStorage, RecoveryReport, Storage,
};
use botmeter_dga::DgaFamily;
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

/// Opens a daemon configured as `botmeterd` was for the fixture over
/// `files` of it, and returns the recovered final snapshot.
fn recover(files: &[&str]) -> (RecoveryReport, Vec<(u32, u64, u64, String)>) {
    let mut storage = MemStorage::new();
    for name in files {
        let bytes = std::fs::read(fixture().join(name)).expect("fixture file");
        storage.write_atomic(name, &bytes).expect("memory storage");
    }
    let (mut daemon, report) = DurableDaemon::open(
        BotMeter::new(BotMeterConfig::new(DgaFamily::murofet())),
        DaemonOptions::new(0..2).retention(8),
        storage,
        DurabilityOptions::new(4),
    )
    .expect("a directory the parent build wrote opens");
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

#[test]
fn the_same_feed_writes_the_parents_files_byte_for_byte() {
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
    let mut expected = FILES.map(str::to_owned);
    expected.sort();
    assert_eq!(written, expected);
    for name in FILES {
        assert_eq!(
            std::fs::read(scratch.join(name)).expect("written file"),
            std::fs::read(fixture().join(name)).expect("fixture file"),
            "{name} differs from the parent build's"
        );
    }
    std::fs::remove_dir_all(&scratch).expect("scratch removed");
}
