//! Kill-and-restart chaos for the crash-safe daemon.
//!
//! Proves `botmeterd`'s durability contract from the *outside*, against
//! the real binary, the real filesystem and real `kill -9`:
//!
//! 1. **Reference run**: feed a deterministic trace to an uninterrupted
//!    `botmeterd --data-dir`, capture its final snapshot file.
//! 2. **Chaos cycles**: feed the same trace to a daemon sharing one data
//!    directory, SIGKILL it after a deterministically-random number of
//!    records, restart, repeat — then let the last incarnation run to end
//!    of input and require its final snapshot to be **byte-identical** to
//!    the reference.
//! 3. **Corruption cycle**: flip a byte in the newest checkpoint between
//!    two kills and require recovery to fall back to the previous
//!    generation (plus journal replay) with the same final snapshot.
//! 4. **Graceful cycle**: SIGTERM mid-feed must exit 0 after a final
//!    checkpoint flush, and the follow-up run must again converge to the
//!    reference snapshot.
//!
//! The kill *points* are deterministic (seeded [`ChaCha12Rng`]); where
//! each SIGKILL lands inside the daemon is scheduler noise — which is the
//! point: the contract must hold wherever the axe falls. Every signal
//! lands with the feed still open: a feed that *ends* early is a different
//! feed, whose end-of-input publish is real (see the `botmeterd` docs).
//!
//! Scratch lives under `CARGO_TARGET_TMPDIR`; it is removed when the test
//! passes and left behind for inspection when an assertion fails.

mod common;

use botmeter_dga::DgaFamily;
use common::{epoch_traffic, SoakLayout};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const CYCLES: usize = 25;
const PER_SERVER: u32 = 600;
const EPOCHS: u64 = 3;
const SEED: u64 = 0xC4A0_5EED;

/// The trace as JSON-Lines, and where each record's line ends in it.
struct Trace {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Trace {
    fn new() -> Self {
        let family = DgaFamily::new_goz();
        let layout = SoakLayout {
            servers: 8,
            active: 6,
            per_server: PER_SERVER,
        };
        let mut trace = Trace {
            bytes: Vec::new(),
            ends: Vec::new(),
        };
        for epoch in 0..EPOCHS {
            for lookup in epoch_traffic(&family, epoch, layout) {
                serde_json::to_writer(&mut trace.bytes, &lookup).expect("lookups serialize");
                trace.bytes.push(b'\n');
                trace.ends.push(trace.bytes.len());
            }
        }
        trace
    }

    /// The first `count` (≥ 1) records.
    fn prefix(&self, count: usize) -> &[u8] {
        &self.bytes[..self.ends[count - 1]]
    }
}

/// One shared data directory and the final-snapshot file its runs write.
struct Dirs {
    data: PathBuf,
    snap: PathBuf,
}

impl Dirs {
    fn new(scratch: &Path, name: &str) -> Self {
        Dirs {
            data: scratch.join(format!("{name}.d")),
            snap: scratch.join(format!("{name}.snap")),
        }
    }

    /// Spawns `botmeterd` in durable mode over the data directory.
    fn spawn(&self, stderr: Stdio) -> Child {
        Command::new(env!("CARGO_BIN_EXE_botmeterd"))
            .args(["--family", "newgoz", "--epochs", &EPOCHS.to_string()])
            .args(["--shard-records", "500", "--checkpoint-every", "4"])
            .arg("--data-dir")
            .arg(&self.data)
            .arg("--final-snapshot")
            .arg(&self.snap)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .expect("spawn botmeterd")
    }

    /// Feeds the whole trace and closes it: one uninterrupted pass. Returns
    /// the final snapshot and the daemon's stderr.
    fn run_to_end(&self, trace: &Trace, label: &str) -> (Vec<u8>, String) {
        let mut child = self.spawn(Stdio::piped());
        feed(&mut child, &trace.bytes);
        drop(child.stdin.take());
        let output = child.wait_with_output().expect("wait for botmeterd");
        let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
        assert!(
            output.status.success(),
            "{label}: run failed: {}\n{stderr}",
            output.status
        );
        let snapshot = std::fs::read(&self.snap).expect("final snapshot written");
        (snapshot, stderr)
    }

    /// Feeds `count` records and SIGKILLs the daemon with the feed still
    /// open, so it dies mid-stream and never sees end of input.
    fn kill_after(&self, trace: &Trace, count: usize) {
        let mut child = self.spawn(Stdio::null());
        feed(&mut child, trace.prefix(count));
        child.kill().expect("SIGKILL");
        child.wait().expect("wait for the killed daemon");
    }

    /// An uninterrupted pass over the shared data directory must end on the
    /// reference snapshot byte for byte. Returns its stderr.
    fn converge(&self, trace: &Trace, reference: &[u8], label: &str) -> String {
        let (recovered, stderr) = self.run_to_end(trace, label);
        assert!(
            recovered == reference,
            "{label}: recovered snapshot differs from the uninterrupted reference \
             ({} vs {} bytes)",
            recovered.len(),
            reference.len()
        );
        stderr
    }

    /// The newest `checkpoint.*.bmck`, by its zero-padded sequence number.
    fn newest_checkpoint(&self) -> Option<PathBuf> {
        let mut names: Vec<String> = std::fs::read_dir(&self.data)
            .expect("data dir exists")
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("checkpoint.") && n.ends_with(".bmck"))
            .collect();
        names.sort();
        names.pop().map(|n| self.data.join(n))
    }
}

/// Writes `bytes` to the child's stdin and leaves it open. A broken pipe
/// (the child already died) is chaos working, not an error.
fn feed(child: &mut Child, bytes: &[u8]) {
    let stdin = child.stdin.as_mut().expect("piped stdin");
    let _ = stdin.write_all(bytes).and_then(|()| stdin.flush());
}

/// Flips the middle byte of `path` in place (a deliberately non-atomic
/// scribble — this simulates disk damage, not a writer).
fn flip_middle_byte(path: &Path) {
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open checkpoint for corruption");
    let pos = file.metadata().expect("checkpoint metadata").len() / 2;
    let mut byte = [0u8];
    file.seek(SeekFrom::Start(pos)).expect("seek");
    file.read_exact(&mut byte).expect("read target byte");
    byte[0] ^= 0xFF;
    file.seek(SeekFrom::Start(pos)).expect("seek back");
    file.write_all(&byte).expect("write corruption");
}

#[test]
fn kill_storm_corruption_and_sigterm_converge_to_the_uninterrupted_snapshot() {
    let trace = Trace::new();
    let records = trace.ends.len();
    let scratch =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("daemon_chaos-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch");

    // 1. Uninterrupted reference.
    let (reference, _) = Dirs::new(&scratch, "reference").run_to_end(&trace, "reference");

    // 2. Kill-9 cycles against one shared data directory.
    let mut rng = ChaCha12Rng::seed_from_u64(SEED);
    let chaos = Dirs::new(&scratch, "chaos");
    for _ in 0..CYCLES {
        chaos.kill_after(&trace, rng.gen_range(1..records));
    }
    chaos.converge(&trace, &reference, "kill-9 cycles");

    // 3. Corruption cycle: damage the newest checkpoint mid-sequence; the
    // next recovery must skip it, fall back a generation and still converge.
    chaos.kill_after(&trace, rng.gen_range(records / 2..records));
    let newest = chaos
        .newest_checkpoint()
        .expect("a checkpoint precedes the corruption kill");
    flip_middle_byte(&newest);
    let stderr = chaos.converge(&trace, &reference, "corruption cycle");
    assert!(
        stderr.contains("(+1 corrupt skipped)"),
        "corruption cycle: recovery did not skip the flipped {}:\n{stderr}",
        newest.display()
    );

    // 4. Graceful cycle: SIGTERM mid-feed must flush and exit 0.
    let mut child = chaos.spawn(Stdio::null());
    feed(&mut child, trace.prefix(rng.gen_range(1..records)));
    let sigterm = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("spawn kill(1)");
    assert!(sigterm.success(), "kill -TERM failed");
    drop(child.stdin.take()); // close the feed; the handler is now set
    let status = child.wait().expect("wait for the SIGTERMed daemon");
    assert_eq!(
        status.code(),
        Some(0),
        "SIGTERM should exit 0, got {status}"
    );
    chaos.converge(&trace, &reference, "graceful cycle");

    std::fs::remove_dir_all(&scratch).expect("remove scratch");
}
