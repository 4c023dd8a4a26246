//! `botmeterd` has one publish schedule: the same feed yields the same
//! report lines and the same final snapshot with and without `--data-dir`.
//! The flag selects storage, recovery and signal handling, nothing an
//! operator reading stdout could tell apart.

use botmeter_dga::DgaFamily;
use botmeter_dns::trace;
use botmeter_exec::ExecPolicy;
use botmeter_sim::ScenarioSpec;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const EPOCHS: u64 = 3;

/// Runs the real binary over `feed`; returns its stdout and the bytes of
/// the `--final-snapshot` file (version line, then the landscape).
fn run(feed: &[u8], scratch: &Path, mode: &str, data_dir: bool) -> (String, Vec<u8>) {
    let snapshot = scratch.join(format!("{mode}.snapshot"));
    let mut command = Command::new(env!("CARGO_BIN_EXE_botmeterd"));
    command
        .args(["--family", "murofet", "--shard-records", "512"])
        .args(["--epochs", &EPOCHS.to_string()])
        .arg("--final-snapshot")
        .arg(&snapshot);
    if data_dir {
        command.arg("--data-dir").arg(scratch.join(mode));
    }
    let mut child = command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("botmeterd spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(feed)
        .expect("feed written");
    let output = child.wait_with_output().expect("botmeterd exits");
    assert!(output.status.success(), "{mode}: {:?}", output.status);
    (
        String::from_utf8(output.stdout).expect("report lines are UTF-8"),
        std::fs::read(&snapshot).expect("final snapshot written"),
    )
}

#[test]
fn report_lines_and_final_snapshot_do_not_depend_on_data_dir() {
    let outcome = ScenarioSpec::builder(DgaFamily::murofet())
        .population(32)
        .num_epochs(EPOCHS)
        .seed(7)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::default());
    let mut feed = Vec::new();
    trace::write_jsonl(outcome.observed(), &mut feed).expect("trace encodes");

    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("botmeterd_modes");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let (ephemeral_out, ephemeral_snap) = run(&feed, &scratch, "ephemeral", false);
    let (durable_out, durable_snap) = run(&feed, &scratch, "durable", true);

    assert_eq!(durable_out, ephemeral_out);
    assert_eq!(durable_snap, ephemeral_snap);
    // One publish when the head rolls into a later epoch, one trailing:
    // the first matched shard opens the first epoch and publishes nothing.
    let versions: Vec<&str> = ephemeral_out
        .lines()
        .map(|l| l.split(',').next().expect("version field"))
        .collect();
    assert_eq!(versions, ["{\"version\":1", "{\"version\":2"]);
    assert!(ephemeral_snap.starts_with(b"v2\n"), "version line included");

    std::fs::remove_dir_all(&scratch).expect("scratch removed");
}

/// A shard is one journal frame; with a journal, a shard size whose frame
/// might not fit is refused before anything is opened, naming the limit.
#[test]
fn shard_records_over_the_journal_frame_ceiling_is_refused_with_a_data_dir() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("botmeterd_shard_ceiling");
    let _ = std::fs::remove_dir_all(&scratch);
    let run = |shard_records: &str, data_dir: bool| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_botmeterd"));
        command.args(["--family", "murofet", "--shard-records", shard_records]);
        if data_dir {
            command.arg("--data-dir").arg(&scratch);
        }
        command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .output()
            .expect("botmeterd runs")
    };
    let limit = botmeter_daemon::MAX_SHARD_RECORDS;

    let refused = run("2000000", true);
    assert_eq!(refused.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains(&format!("--shard-records 2000000 is over {limit}"))
            && stderr.contains("64 MiB"),
        "{stderr}"
    );
    assert!(!scratch.exists(), "refused before the data dir was opened");

    assert_eq!(run(&(limit + 1).to_string(), true).status.code(), Some(2));
    assert!(run(&limit.to_string(), true).status.success());
    // Without a journal there is no frame to fit.
    assert!(run("2000000", false).status.success());

    std::fs::remove_dir_all(&scratch).expect("scratch removed");
}

/// One pathological line ends the feed the way any malformed line does —
/// exit status 2 naming the line — not the process with a signal. Before
/// the reader bounded its nesting, a million brackets under a key the
/// record ignores overflowed the stack (SIGABRT). A line past the reader's
/// length cap ends it the same way, by its length.
#[test]
fn a_deeply_nested_line_is_a_malformed_feed_not_a_crash() {
    let record =
        |extra: &str| format!("{{\"t\":0,\"server\":1,\"domain\":\"nx.example\"{extra}}}\n");
    let nested = |brackets: usize| {
        record(&format!(
            ",\"x\":{}{}",
            "[".repeat(brackets),
            "]".repeat(brackets)
        ))
    };
    let run = |feed: String| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_botmeterd"))
            .args(["--family", "murofet"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("botmeterd spawns");
        let mut stdin = child.stdin.take().expect("piped stdin");
        // The daemon may exit before it has been fed everything.
        let _ = stdin.write_all(feed.as_bytes());
        drop(stdin);
        child.wait_with_output().expect("botmeterd exits")
    };

    // A million brackets in all: about the most the reader's 1 MiB line cap
    // lets through to the parser.
    let refused = run(record("") + &nested(500_000) + &record(""));
    assert_eq!(refused.status.code(), Some(2), "{:?}", refused.status);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("malformed trace line 2") && stderr.contains("recursion limit exceeded"),
        "{stderr}"
    );

    // Past the cap the line is never buffered whole, let alone parsed.
    let refused = run(record("") + &nested(1_000_000) + &record(""));
    assert_eq!(refused.status.code(), Some(2), "{:?}", refused.status);
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("trace line 2 is longer than 1048576 bytes"),
        "{stderr}"
    );

    // The record's own braces are one level: 127 more are within the limit,
    // and so is what `json.dumps` writes for a character outside the BMP.
    let annotated = record(",\"note\":\"\\ud83d\\ude00\"");
    let accepted = run(record("") + &nested(127) + &annotated);
    assert!(accepted.status.success(), "{:?}", accepted.status);
}
