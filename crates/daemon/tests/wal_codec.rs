//! Property tests for the write-ahead-journal frame codec.
//!
//! Three properties carry the recovery contract:
//!
//! 1. any sequence of payloads round-trips exactly;
//! 2. truncating the file at *any* byte (a crash mid-append) recovers
//!    the longest prefix of complete frames — never an error, never a
//!    half-applied frame;
//! 3. flipping *any* single byte of an intact journal is detected — every
//!    byte of the format is covered by one of its CRCs, so corruption can
//!    never be mis-parsed as a torn tail or as different content.
//!
//! Plus one pin on what goes *into* a frame: the payload
//! `DurableDaemon::ingest` journals for a shard.

mod common;

use botmeter_core::{BotMeter, BotMeterConfig};
use botmeter_daemon::wal::{decode, encode_frame, encode_header, WAL_FILE};
use botmeter_daemon::{DaemonOptions, DurabilityOptions, DurableDaemon, MemStorage, Storage};
use botmeter_dga::DgaFamily;
use common::{epoch_traffic, SoakLayout};
use proptest::prelude::*;

const HEADER_LEN: usize = 20;
const FRAME_HEADER_LEN: usize = 16;

/// Builds a journal file plus each frame's end offset within it.
fn build(base_seq: u64, payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut file = encode_header(base_seq);
    let mut ends = Vec::with_capacity(payloads.len());
    for (i, payload) in payloads.iter().enumerate() {
        file.extend_from_slice(&encode_frame(base_seq + 1 + i as u64, payload));
        ends.push(file.len());
    }
    (file, ends)
}

/// `DurableDaemon::ingest` serialises the shard slice it is handed. The
/// journal it writes is byte-for-byte the one the earlier spelling —
/// serialising an owned copy of the shard — wrote, so journals from before
/// and after that change replay interchangeably.
#[test]
fn ingest_journals_the_same_bytes_as_the_owned_copy_spelling() {
    let family = DgaFamily::murofet();
    let traffic = epoch_traffic(&family, 0, SoakLayout::default());
    let shards: Vec<_> = traffic.chunks(3).collect();
    assert!(shards.len() > 2);

    let (mut daemon, _) = DurableDaemon::open(
        BotMeter::new(BotMeterConfig::new(family)),
        DaemonOptions::new(0..1),
        MemStorage::new(),
        DurabilityOptions::new(u64::MAX),
    )
    .expect("fresh storage opens");
    let mut expected = encode_header(0);
    for (i, shard) in shards.iter().enumerate() {
        daemon.ingest(shard);
        let owned_copy = serde_json::to_string(&shard.to_vec()).expect("lookups serialize");
        expected.extend_from_slice(&encode_frame(1 + i as u64, owned_copy.as_bytes()));
    }
    let journal = daemon.storage_mut().read(WAL_FILE).expect("journal exists");
    assert_eq!(journal, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity on frames and finds no torn tail.
    #[test]
    fn random_payloads_round_trip(
        base_seq in 0u64..1_000_000,
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..200), 0..12),
    ) {
        let (file, _) = build(base_seq, &payloads);
        let contents = decode(&file).expect("intact journal decodes");
        prop_assert_eq!(contents.base_seq, base_seq);
        prop_assert_eq!(contents.torn_tail_bytes, 0);
        prop_assert_eq!(contents.frames.len(), payloads.len());
        for (i, frame) in contents.frames.iter().enumerate() {
            prop_assert_eq!(frame.seq, base_seq + 1 + i as u64);
            prop_assert_eq!(&frame.payload, &payloads[i]);
        }
    }

    /// Cutting the file anywhere at or past the header recovers exactly
    /// the frames that are complete in the prefix, and accounts for every
    /// trailing byte as torn. Cuts inside the header fail loudly instead.
    #[test]
    fn arbitrary_truncation_recovers_longest_valid_prefix(
        base_seq in 0u64..1_000_000,
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..64), 1..8),
        cut_raw in 0usize..1_000_000,
    ) {
        let (file, ends) = build(base_seq, &payloads);
        let cut = cut_raw % (file.len() + 1); // 0..=len
        let truncated = &file[..cut];
        if cut < HEADER_LEN {
            prop_assert!(decode(truncated).is_err(), "a journal without a full header is unreadable");
            return Ok(());
        }
        let contents = decode(truncated).expect("torn tails are not errors");
        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(contents.frames.len(), survivors, "cut at {} of {}", cut, file.len());
        let last_end = if survivors == 0 { HEADER_LEN } else { ends[survivors - 1] };
        prop_assert_eq!(contents.torn_tail_bytes, cut - last_end);
        for (i, frame) in contents.frames.iter().enumerate() {
            prop_assert_eq!(&frame.payload, &payloads[i]);
        }
    }

    /// Any single corrupted byte anywhere in the file — header, frame
    /// header, payload, or checksum — makes decoding fail. It is never
    /// misread as a shorter journal or as different frame content.
    #[test]
    fn any_single_byte_corruption_is_detected(
        base_seq in 0u64..1_000_000,
        payloads in prop::collection::vec(
            prop::collection::vec(any::<u8>(), 0..64), 1..6),
        pos_raw in 0usize..1_000_000,
        mask_raw in 1u16..256,
    ) {
        let (file, _) = build(base_seq, &payloads);
        let pos = pos_raw % file.len();
        let mask = mask_raw as u8;
        let mut damaged = file.clone();
        damaged[pos] ^= mask;
        prop_assert!(
            decode(&damaged).is_err(),
            "flipping byte {} with mask {:#04x} went undetected", pos, mask
        );
    }

    /// Same guarantee inside the frame region specifically, one byte at a
    /// time over a whole small journal (exhaustive, not sampled).
    #[test]
    fn every_byte_of_a_small_journal_is_checksummed(
        payload in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let (file, _) = build(7, &[payload]);
        prop_assert!(file.len() >= HEADER_LEN + FRAME_HEADER_LEN);
        for pos in 0..file.len() {
            let mut damaged = file.clone();
            damaged[pos] ^= 0x01;
            prop_assert!(decode(&damaged).is_err(), "byte {} is unprotected", pos);
        }
    }
}
