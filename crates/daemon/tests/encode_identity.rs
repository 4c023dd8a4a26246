//! What the durable path writes is what it wrote through the tree path,
//! and what it reads back is what the tree path read.
//!
//! Journal payloads and checkpoint bodies used to be a `Content` tree,
//! printed; they are now streamed into the frame / envelope buffer. The
//! oracle (`vendor/serde_json/tests/oracle`, the tree builder and the old
//! printer, included by path) renders real engine state the old way and
//! the bytes must be equal. Recovery used to parse those bytes back into a
//! tree; it now streams them into the value, and `oracle::de` (the old
//! parser and a tree-walking `Deserializer`) must decode — or refuse — the
//! same bytes, damaged ones included, the same way.

#[path = "../../../vendor/serde_json/tests/oracle/mod.rs"]
mod oracle;

use botmeter_core::{BotMeter, BotMeterConfig};
use botmeter_daemon::checkpoint::{decode_checkpoint, encode_checkpoint};
use botmeter_daemon::wal::crc32;
use botmeter_daemon::{BotMeterDaemon, DaemonOptions, EngineCheckpoint};
use botmeter_dga::DgaFamily;
use botmeter_dns::ObservedLookup;
use botmeter_exec::ExecPolicy;
use botmeter_sim::ScenarioSpec;
use oracle::de::assert_same_decode;

const EPOCHS: u64 = 3;

fn observed(family: DgaFamily) -> Vec<ObservedLookup> {
    ScenarioSpec::builder(family)
        .population(12)
        .num_epochs(EPOCHS)
        .seed(11)
        .build()
        .expect("valid scenario")
        .run(ExecPolicy::default())
        .observed()
        .to_vec()
}

/// `bytes` cut short, with a byte overwritten, and with a byte dropped, at
/// `points` places spread over its length.
fn damaged(bytes: &[u8], points: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    (0..points).flat_map(move |i| {
        let at = (bytes.len() - 1) * i / (points - 1);
        let mut overwritten = bytes.to_vec();
        overwritten[at] = b"\"x0,]}-"[i % 7];
        let mut dropped = bytes.to_vec();
        dropped.remove(at);
        [bytes[..at].to_vec(), overwritten, dropped]
    })
}

/// The envelope the tree path produced: the line, then the printed tree.
fn tree_checkpoint(state: &EngineCheckpoint) -> Vec<u8> {
    let body = oracle::tree_string(state);
    let mut out = format!("BMCKPT01 {:08x} {}\n", crc32(body.as_bytes()), body.len()).into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[test]
fn journal_payloads_are_the_tree_paths_bytes() {
    let stream = observed(DgaFamily::new_goz());
    assert!(stream.len() > 4096, "more than one default-sized shard");
    for shard in [&stream[..0], &stream[..1], &stream[..4096], &stream[4096..]] {
        let streamed = serde_json::to_vec(shard).expect("lookups serialize");
        assert_eq!(streamed, oracle::tree_string(shard).into_bytes());
        // The spelling the journal pin in `wal_codec.rs` uses.
        assert_eq!(
            streamed,
            serde_json::to_string(&shard.to_vec()).unwrap().into_bytes()
        );
    }
}

#[test]
fn journal_payloads_decode_as_the_tree_path_decoded_them() {
    let stream = observed(DgaFamily::new_goz());
    for shard in [&stream[..0], &stream[..1], &stream[..4096], &stream[4096..]] {
        let payload = serde_json::to_vec(shard).expect("lookups serialize");
        let replayed = assert_same_decode::<Vec<ObservedLookup>>(&payload);
        assert_eq!(replayed.as_deref(), Some(shard));
    }
    // A payload the journal's CRC would have refused still has to be
    // refused, or read, the way it was.
    let payload = serde_json::to_vec(&stream[..64]).expect("lookups serialize");
    for bytes in damaged(&payload, 400) {
        assert_same_decode::<Vec<ObservedLookup>>(&bytes);
    }
}

#[test]
fn checkpoints_are_the_tree_paths_bytes() {
    for family in [DgaFamily::murofet(), DgaFamily::new_goz()] {
        let stream = observed(family.clone());
        let meter = BotMeter::new(BotMeterConfig::new(family.clone()));
        let options = DaemonOptions::new(0..EPOCHS).policy(ExecPolicy::Sequential);
        let mut engine = BotMeterDaemon::new(meter, options).expect("valid options");
        // Fresh, mid-stream (resident lookups, dirty cells, a frozen
        // epoch, retained snapshots) and fully published.
        let mut states = vec![engine.checkpoint_state(0)];
        for (seq, shard) in stream.chunks(stream.len() / 5 + 1).enumerate() {
            engine.ingest(shard);
            states.push(engine.checkpoint_state(seq as u64 + 1));
        }
        engine.publish_now();
        states.push(engine.checkpoint_state(99));
        assert!(states
            .iter()
            .any(|s| s.cells.iter().any(|c| !c.lookups.is_empty())));
        assert!(states.iter().any(|s| !s.snapshots.is_empty()));
        for state in &states {
            let encoded = encode_checkpoint(state).expect("engine state serializes");
            assert_eq!(encoded, tree_checkpoint(state), "{}", family.name());
            assert_eq!(&decode_checkpoint(&encoded).expect("decodes"), state);
            let body = &encoded[encoded.iter().position(|&b| b == b'\n').unwrap() + 1..];
            assert_eq!(
                assert_same_decode::<EngineCheckpoint>(body).as_ref(),
                Some(state)
            );
        }
        // The fullest body, damaged.
        let body = oracle::tree_string(states.last().expect("states")).into_bytes();
        for bytes in damaged(&body, 60) {
            assert_same_decode::<EngineCheckpoint>(&bytes);
        }
    }
}
