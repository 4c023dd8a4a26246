//! The write-ahead journal: checksummed, length-prefixed shard frames.
//!
//! Every shard `botmeterd` ingests is appended here *before* it reaches
//! the engine, so a daemon killed at any instant can replay exactly what
//! it had acknowledged. The format is built for two failure modes with
//! opposite treatments:
//!
//! * **Torn tail** — the process died mid-append, leaving a prefix of the
//!   final frame. That frame was never acknowledged, so it is *discarded*
//!   (never half-applied) and recovery keeps the longest valid prefix.
//! * **Corruption** — a complete frame whose CRC does not match, or a
//!   damaged header. That is silent data damage, and replaying around it
//!   would skew the landscape without anyone noticing; it *fails loudly*
//!   as [`WalCodecError::CorruptFrame`] / [`WalCodecError::BadHeader`].
//!
//! ## On-disk layout
//!
//! ```text
//! file   := header frame*
//! header := magic:"BMWAL001" base_seq:u64le crc32(magic ‖ base_seq):u32le   (20 bytes)
//! frame  := seq:u64le len:u32le crc32(seq ‖ len):u32le payload[len] crc32(payload):u32le
//! ```
//!
//! The frame *header* carries its own CRC so a corrupted length prefix is
//! detected instead of mis-parsed as a torn tail: any single-byte flip in
//! a complete file — header, length, payload or checksum — surfaces as a
//! codec error (CRC-32 detects all burst errors up to 32 bits). `base_seq`
//! is the truncation watermark: frames with `seq <= base_seq` have been
//! folded into a retained checkpoint and rotated out.
//!
//! ## Writing a frame
//!
//! One function lays a frame out, `encode_frame_into`: it reserves the
//! 16-byte frame header at the end of a caller's buffer, lets the caller
//! write the payload straight behind it (the daemon serializes the shard
//! there — no payload `String`, no payload → frame copy, and the buffer is
//! reused from shard to shard), then patches `len` and `crc(seq ‖ len)` and
//! appends `crc(payload)`. It is also where the writer enforces the
//! reader's ceiling: a payload over [`MAX_FRAME_LEN`] is refused with
//! `InvalidInput` before anything reaches storage, because [`decode`] would
//! call the frame corrupt — the journal never acknowledges what it will
//! not replay.

use crate::storage::Storage;
use std::fmt;
use std::io;

/// The journal's file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";

const MAGIC: &[u8; 8] = b"BMWAL001";
const HEADER_LEN: usize = 8 + 8 + 4;
const FRAME_HEADER_LEN: usize = 8 + 4 + 4;

/// Hard ceiling on one frame's payload (64 MiB) — a parsed length beyond
/// this is treated as corruption even if the CRC were to collide.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

// --- CRC-32 (IEEE 802.3, reflected) -------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][b]` the CRC state after byte `b` and `k` zero
/// bytes — so eight input bytes fold into the state with eight independent
/// lookups instead of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE) over `bytes` — the checksum every journal frame and the
/// checkpoint envelope carry. Slicing-by-8: eight bytes a step, then the
/// tail a byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut steps = bytes.chunks_exact(8);
    for step in &mut steps {
        let lo = c ^ u32::from_le_bytes([step[0], step[1], step[2], step[3]]);
        let hi = u32::from_le_bytes([step[4], step[5], step[6], step[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in steps.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- Frame codec ---------------------------------------------------------

/// One decoded journal frame: a monotonic shard sequence number plus the
/// serialized shard payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// The shard's sequence number (1-based, strictly increasing).
    pub seq: u64,
    /// The serialized shard bytes.
    pub payload: Vec<u8>,
}

/// A fully decoded journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// Frames at or below this sequence number have been rotated out.
    pub base_seq: u64,
    /// Valid frames, in append order.
    pub frames: Vec<WalFrame>,
    /// Bytes of a torn (incomplete) final frame that were discarded, if
    /// the file ended mid-append.
    pub torn_tail_bytes: usize,
}

/// Structural damage the codec refuses to read through.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WalCodecError {
    /// The 20-byte file header is damaged: wrong magic or failed CRC.
    BadHeader {
        /// What was wrong with it.
        reason: String,
    },
    /// A complete frame failed its CRC, declared an impossible length, or
    /// broke sequence monotonicity — silent corruption, not a torn tail.
    CorruptFrame {
        /// Zero-based index of the damaged frame.
        index: usize,
        /// Byte offset of the frame's start within the file.
        offset: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for WalCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalCodecError::BadHeader { reason } => {
                write!(f, "write-ahead journal header is damaged: {reason}")
            }
            WalCodecError::CorruptFrame {
                index,
                offset,
                reason,
            } => write!(
                f,
                "write-ahead journal frame {index} (offset {offset}) is corrupt: {reason}"
            ),
        }
    }
}

impl std::error::Error for WalCodecError {}

/// Encodes the journal file header for a journal whose retained frames
/// start strictly after `base_seq`.
pub fn encode_header(base_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&base_seq.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Lays out one frame at the end of `out`:
/// `seq ‖ len ‖ crc(seq‖len) ‖ payload ‖ crc(payload)`, the payload being
/// whatever `payload` appends. The header is reserved first and patched
/// once the length is known, so the payload is written where it will stay.
///
/// # Errors
///
/// `payload`'s own error, or `InvalidInput` for a payload longer than
/// [`MAX_FRAME_LEN`] — [`decode`] refuses such a frame as corrupt, so it
/// must never be written. Either way `out` is left as it was.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    seq: u64,
    payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; FRAME_HEADER_LEN - 8]);
    let payload_start = out.len();
    let len = payload(out).and_then(|()| {
        let len = out.len() - payload_start;
        match u32::try_from(len) {
            Ok(len) if len <= MAX_FRAME_LEN => Ok(len),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "a {len}-byte payload exceeds the journal's frame ceiling \
                     of {MAX_FRAME_LEN} bytes"
                ),
            )),
        }
    });
    let len = match len {
        Ok(len) => len,
        Err(e) => {
            out.truncate(start);
            return Err(e);
        }
    };
    out[start + 8..start + 12].copy_from_slice(&len.to_le_bytes());
    let header_crc = crc32(&out[start..start + 12]);
    out[start + 12..payload_start].copy_from_slice(&header_crc.to_le_bytes());
    let payload_crc = crc32(&out[payload_start..]);
    out.extend_from_slice(&payload_crc.to_le_bytes());
    Ok(())
}

/// [`encode_frame_into`] for a payload that already exists as bytes.
fn push_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) -> io::Result<()> {
    out.reserve(FRAME_HEADER_LEN + payload.len() + 4);
    encode_frame_into(out, seq, |buf| {
        buf.extend_from_slice(payload);
        Ok(())
    })
}

/// Encodes one frame: `seq ‖ len ‖ crc(seq‖len) ‖ payload ‖ crc(payload)`.
///
/// # Panics
///
/// If `payload` is longer than [`MAX_FRAME_LEN`]: no such frame exists in
/// the format. ([`Wal::append`] returns the error instead.)
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    push_frame(&mut out, seq, payload).expect("payload within the frame ceiling");
    out
}

/// Decodes a whole journal file.
///
/// A file that ends mid-frame (crash during append) yields the longest
/// valid frame prefix with `torn_tail_bytes > 0`; any damage *within* the
/// complete region is a hard [`WalCodecError`]. Frames must be strictly
/// ascending starting above the header's `base_seq`.
pub fn decode(bytes: &[u8]) -> Result<WalContents, WalCodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(WalCodecError::BadHeader {
            reason: format!("{} bytes is shorter than the header", bytes.len()),
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(WalCodecError::BadHeader {
            reason: "bad magic".into(),
        });
    }
    let declared = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[..16]) != declared {
        return Err(WalCodecError::BadHeader {
            reason: "header CRC mismatch".into(),
        });
    }
    let base_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));

    let mut frames = Vec::new();
    let mut pos = HEADER_LEN;
    let mut prev_seq = base_seq;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER_LEN {
            // Crash left a prefix of the next frame's header: torn tail.
            return Ok(WalContents {
                base_seq,
                frames,
                torn_tail_bytes: remaining,
            });
        }
        let index = frames.len();
        let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let hcrc = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4 bytes"));
        if crc32(&bytes[pos..pos + 12]) != hcrc {
            return Err(WalCodecError::CorruptFrame {
                index,
                offset: pos,
                reason: "frame header CRC mismatch".into(),
            });
        }
        if len > MAX_FRAME_LEN {
            return Err(WalCodecError::CorruptFrame {
                index,
                offset: pos,
                reason: format!("declared payload length {len} exceeds the frame ceiling"),
            });
        }
        if seq <= prev_seq {
            return Err(WalCodecError::CorruptFrame {
                index,
                offset: pos,
                reason: format!("sequence {seq} not above predecessor {prev_seq}"),
            });
        }
        let payload_start = pos + FRAME_HEADER_LEN;
        let frame_end = payload_start + len as usize + 4;
        if frame_end > bytes.len() {
            // The header is CRC-valid, so the length is trusted: the file
            // simply ends before the payload does. Torn tail.
            return Ok(WalContents {
                base_seq,
                frames,
                torn_tail_bytes: bytes.len() - pos,
            });
        }
        let payload = &bytes[payload_start..payload_start + len as usize];
        let pcrc = u32::from_le_bytes(bytes[frame_end - 4..frame_end].try_into().expect("4 bytes"));
        if crc32(payload) != pcrc {
            return Err(WalCodecError::CorruptFrame {
                index,
                offset: pos,
                reason: "payload CRC mismatch".into(),
            });
        }
        frames.push(WalFrame {
            seq,
            payload: payload.to_vec(),
        });
        prev_seq = seq;
        pos = frame_end;
    }
    Ok(WalContents {
        base_seq,
        frames,
        torn_tail_bytes: 0,
    })
}

// --- The journal over a Storage ------------------------------------------

/// The write-ahead journal: appends acknowledged shards, replays them on
/// recovery, and rotates acknowledged prefixes out after checkpoints.
///
/// All I/O goes through the wrapped [`Storage`]; retry/backoff around
/// transient faults lives one layer up in
/// [`DurableDaemon`](crate::DurableDaemon), so this type stays a thin,
/// deterministic codec-plus-file wrapper.
#[derive(Debug)]
pub struct Wal<S: Storage> {
    storage: S,
}

impl<S: Storage> Wal<S> {
    /// Wraps `storage`; creates an empty journal (base 0) if none exists.
    pub fn create(mut storage: S) -> io::Result<Self> {
        if !storage.exists(WAL_FILE)? {
            storage.write_atomic(WAL_FILE, &encode_header(0))?;
        }
        Ok(Wal { storage })
    }

    /// Reads and decodes the whole journal. Torn tails are tolerated (and
    /// reported via [`WalContents::torn_tail_bytes`]); corruption is a
    /// loud error the caller must surface, never skip.
    pub fn load(&mut self) -> io::Result<Result<WalContents, WalCodecError>> {
        let bytes = self.storage.read(WAL_FILE)?;
        Ok(decode(&bytes))
    }

    /// Appends one frame. The append is durable (storage-fsynced) when
    /// this returns `Ok`. A payload longer than [`MAX_FRAME_LEN`] is
    /// refused with `InvalidInput` before storage is touched.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::new();
        push_frame(&mut frame, seq, payload)?;
        self.append_encoded(&frame)
    }

    /// Appends a frame [`encode_frame_into`] already laid out.
    pub(crate) fn append_encoded(&mut self, frame: &[u8]) -> io::Result<()> {
        self.storage.append(WAL_FILE, frame)
    }

    /// Rewrites the journal to contain only `keep` (frames above the new
    /// `base_seq`), atomically. Called after a checkpoint so the journal
    /// tracks the *oldest retained* checkpoint's watermark — a corrupt
    /// newest checkpoint can still fall back one generation and replay.
    pub fn rotate(&mut self, base_seq: u64, keep: &[WalFrame]) -> io::Result<()> {
        let mut bytes = encode_header(base_seq);
        bytes.reserve(
            keep.iter()
                .map(|frame| FRAME_HEADER_LEN + frame.payload.len() + 4)
                .sum(),
        );
        for frame in keep {
            debug_assert!(frame.seq > base_seq, "kept frame below the watermark");
            push_frame(&mut bytes, frame.seq, &frame.payload)?;
        }
        self.storage.write_atomic(WAL_FILE, &bytes)
    }

    /// If the journal has a torn tail, truncates it back to the longest
    /// valid prefix so future appends start on a frame boundary. Returns
    /// the decoded contents.
    pub fn load_and_repair(&mut self) -> io::Result<Result<WalContents, WalCodecError>> {
        let contents = match self.load()? {
            Ok(c) => c,
            Err(e) => return Ok(Err(e)),
        };
        if contents.torn_tail_bytes > 0 {
            self.rotate(contents.base_seq, &contents.frames)?;
        }
        Ok(Ok(contents))
    }

    /// The wrapped storage (checkpoints share it).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    /// The one-table, byte-at-a-time loop `crc32` used to be: the reference
    /// slicing-by-8 must agree with on every input.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        // Lengths straddle 0..8 steps plus every tail; start offsets move
        // the slice across every alignment of the shared buffer.
        let buffer: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=70 {
                let slice = &buffer[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn crc32_matches_the_bytewise_loop_on_random_buffers(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..(1 << 20) + 1,
        ) {
            // A cheap xorshift fill: a megabyte drawn value by value from
            // the strategy would dominate the test.
            let mut x = seed | 1;
            let buffer: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x >> 32) as u8
                })
                .collect();
            proptest::prop_assert_eq!(crc32(&buffer), crc32_bytewise(&buffer));
        }
    }

    #[test]
    fn frames_are_laid_out_in_place_behind_whatever_the_buffer_holds() {
        let mut out = b"already here".to_vec();
        encode_frame_into(&mut out, 9, |buf| {
            buf.extend_from_slice(b"pay");
            buf.extend_from_slice(b"load");
            Ok(())
        })
        .unwrap();
        assert_eq!(
            out,
            [&b"already here"[..], &encode_frame(9, b"payload")].concat()
        );
        // A failed payload leaves the buffer as it was.
        let before = out.clone();
        let err = encode_frame_into(&mut out, 10, |buf| {
            buf.extend_from_slice(b"half a payl");
            Err(io::Error::other("serializer gave up"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "serializer gave up");
        assert_eq!(out, before);
    }

    #[test]
    fn an_oversize_payload_is_refused_before_storage_is_touched() {
        let mut wal = Wal::create(MemStorage::new()).unwrap();
        wal.append(1, b"fits").unwrap();
        let before = wal.storage_mut().read(WAL_FILE).unwrap();
        let oversize = vec![b'x'; MAX_FRAME_LEN as usize + 1];
        let err = wal.append(2, &oversize).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("67108864"), "{err}");
        assert_eq!(wal.storage_mut().read(WAL_FILE).unwrap(), before);
        // The ceiling itself still fits, and decodes.
        wal.append(2, &oversize[1..]).unwrap();
        let contents = wal.load().unwrap().unwrap();
        assert_eq!(contents.frames.len(), 2);
        assert_eq!(contents.frames[1].payload.len(), MAX_FRAME_LEN as usize);
    }

    #[test]
    fn empty_journal_decodes_empty() {
        let mut wal = Wal::create(MemStorage::new()).unwrap();
        let contents = wal.load().unwrap().unwrap();
        assert_eq!(contents.base_seq, 0);
        assert!(contents.frames.is_empty());
        assert_eq!(contents.torn_tail_bytes, 0);
    }

    #[test]
    fn frames_round_trip_in_order() {
        let mut wal = Wal::create(MemStorage::new()).unwrap();
        wal.append(1, b"alpha").unwrap();
        wal.append(2, b"").unwrap();
        wal.append(3, b"gamma!").unwrap();
        let contents = wal.load().unwrap().unwrap();
        assert_eq!(contents.frames.len(), 3);
        assert_eq!(contents.frames[0].payload, b"alpha");
        assert_eq!(contents.frames[1].payload, b"");
        assert_eq!(
            contents.frames[2],
            WalFrame {
                seq: 3,
                payload: b"gamma!".to_vec()
            }
        );
    }

    #[test]
    fn torn_tail_is_discarded_not_half_applied() {
        let mut wal = Wal::create(MemStorage::new()).unwrap();
        wal.append(1, b"committed").unwrap();
        wal.append(2, b"torn-away").unwrap();
        let full_len = wal.storage_mut().read(WAL_FILE).unwrap().len();
        for cut in 1..(FRAME_HEADER_LEN + b"torn-away".len() + 4) {
            let mut storage = MemStorage::new();
            let mut bytes = wal.storage_mut().read(WAL_FILE).unwrap();
            bytes.truncate(full_len - cut);
            storage.write_atomic(WAL_FILE, &bytes).unwrap();
            let mut torn = Wal::create(storage).unwrap();
            let contents = torn.load().unwrap().expect("torn tails are tolerated");
            assert_eq!(contents.frames.len(), 1, "only the committed frame");
            assert_eq!(contents.frames[0].payload, b"committed");
            assert!(contents.torn_tail_bytes > 0);
        }
    }

    #[test]
    fn repair_truncates_a_torn_tail() {
        let mut storage = MemStorage::new();
        let mut bytes = encode_header(0);
        bytes.extend_from_slice(&encode_frame(1, b"ok"));
        bytes.extend_from_slice(&encode_frame(2, b"torn")[..7]);
        storage.write_atomic(WAL_FILE, &bytes).unwrap();
        let mut wal = Wal::create(storage).unwrap();
        let contents = wal.load_and_repair().unwrap().unwrap();
        assert_eq!(contents.frames.len(), 1);
        // After repair a fresh append parses cleanly.
        wal.append(2, b"retried").unwrap();
        let contents = wal.load().unwrap().unwrap();
        assert_eq!(contents.frames.len(), 2);
        assert_eq!(contents.torn_tail_bytes, 0);
        assert_eq!(contents.frames[1].payload, b"retried");
    }

    #[test]
    fn corruption_fails_loudly() {
        let mut wal = Wal::create(MemStorage::new()).unwrap();
        wal.append(1, b"first").unwrap();
        wal.append(2, b"second").unwrap();
        // Flip one payload byte of the *first* frame: mid-log corruption.
        let mut bytes = wal.storage_mut().read(WAL_FILE).unwrap();
        let offset = HEADER_LEN + FRAME_HEADER_LEN; // first payload byte
        bytes[offset] ^= 0x40;
        wal.storage_mut().write_atomic(WAL_FILE, &bytes).unwrap();
        match wal.load().unwrap() {
            Err(WalCodecError::CorruptFrame { index: 0, .. }) => {}
            other => panic!("expected corrupt frame 0, got {other:?}"),
        }
    }

    #[test]
    fn rotation_drops_acknowledged_frames() {
        let mut wal = Wal::create(MemStorage::new()).unwrap();
        for seq in 1..=5 {
            wal.append(seq, format!("shard-{seq}").as_bytes()).unwrap();
        }
        let contents = wal.load().unwrap().unwrap();
        let keep: Vec<WalFrame> = contents.frames.into_iter().filter(|f| f.seq > 3).collect();
        wal.rotate(3, &keep).unwrap();
        let contents = wal.load().unwrap().unwrap();
        assert_eq!(contents.base_seq, 3);
        assert_eq!(
            contents.frames.iter().map(|f| f.seq).collect::<Vec<_>>(),
            vec![4, 5]
        );
        // Appends continue above the rotated frames.
        wal.append(6, b"after-rotate").unwrap();
        assert_eq!(wal.load().unwrap().unwrap().frames.len(), 3);
    }

    #[test]
    fn non_monotonic_sequences_are_corruption() {
        let mut storage = MemStorage::new();
        let mut bytes = encode_header(5);
        bytes.extend_from_slice(&encode_frame(6, b"ok"));
        bytes.extend_from_slice(&encode_frame(6, b"repeat"));
        storage.write_atomic(WAL_FILE, &bytes).unwrap();
        let mut wal = Wal::create(storage).unwrap();
        assert!(matches!(
            wal.load().unwrap(),
            Err(WalCodecError::CorruptFrame { index: 1, .. })
        ));
    }
}
