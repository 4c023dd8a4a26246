//! Periodic checkpoints of recoverable engine state.
//!
//! A checkpoint is everything [`BotMeterDaemon`](crate::BotMeterDaemon)
//! needs to resume exactly where it was: the per-cell ledger (resident
//! lookups, raw estimates as IEEE-754 *bits*, dirty/frozen/stale flags),
//! the [`QualityCursor`](botmeter_matcher::QualityCursor) stream-health
//! state, the head/auto-publish bookkeeping, the running
//! [`DaemonStats`](crate::DaemonStats), and the retained
//! [`LandscapeStore`](crate::LandscapeStore) snapshots with their
//! versions. The `SegmentKernelCache` is deliberately **not** persisted:
//! it is a deterministic memo, rebuilt lazily, and cannot affect results.
//!
//! Checkpoints are written atomically (temp file + fsync + rename via
//! [`Storage::write_atomic`]) under an integrity envelope:
//!
//! ```text
//! BMCKPT01 <crc32-of-body, 8 hex digits> <body-length>\n
//! <body: EngineCheckpoint as JSON>
//! ```
//!
//! [`encode_checkpoint`] streams the body into its output buffer once and
//! writes the envelope line, which states the body's CRC and length, into
//! room left in front of it.
//!
//! The manager retains the newest two generations. Recovery tries the
//! newest first; a damaged envelope or body falls back to the previous
//! generation, whose WAL suffix is still on disk because the journal is
//! only truncated to the *oldest retained* watermark.
//!
//! Floating-point state crosses the serialization boundary as raw `u64`
//! bits (`estimate_bits`, `raw_bits`), so recovery is bit-identical even
//! for estimates whose decimal rendering would round — and for the NaN
//! raw estimates an Invalid cell can legitimately hold.

use crate::storage::Storage;
use crate::wal::crc32;
use botmeter_core::{CellQuality, Landscape, LandscapeEntry, LandscapeVersion};
use botmeter_dns::{ObservedLookup, ServerId, SimInstant};
use botmeter_matcher::QualityCursorState;
use serde::{Deserialize, Serialize};
use std::io;

/// One (server, epoch) cell of the frozen-epoch ledger, as checkpointed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellCheckpoint {
    /// The cell's forwarding server.
    pub server: ServerId,
    /// The cell's epoch.
    pub epoch: u64,
    /// Resident matched lookups (empty once the epoch froze).
    pub lookups: Vec<ObservedLookup>,
    /// The last raw estimate, as IEEE-754 bits (NaN-safe, bit-exact).
    pub raw_bits: u64,
    /// Whether traffic arrived since `raw_bits` was computed.
    pub dirty: bool,
    /// Whether the epoch closed (lookups dropped, estimate final).
    pub frozen: bool,
    /// Whether post-freeze traffic was discarded for this cell.
    pub stale: bool,
}

/// One landscape cell of a retained snapshot, estimate as bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryCheckpoint {
    /// The cell's forwarding server.
    pub server: ServerId,
    /// The cell's epoch.
    pub epoch: u64,
    /// The published estimate, as IEEE-754 bits.
    pub estimate_bits: u64,
    /// The published quality flag.
    pub quality: CellQuality,
}

/// One retained snapshot of the landscape store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotCheckpoint {
    /// The snapshot's published version.
    pub version: u64,
    /// The snapshot's cells in canonical (server, epoch) order.
    pub entries: Vec<EntryCheckpoint>,
}

/// The running counters, mirrored as plain `u64`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsCheckpoint {
    /// Mirror of [`DaemonStats::ingested`](crate::DaemonStats).
    pub ingested: u64,
    /// Mirror of [`DaemonStats::matched`](crate::DaemonStats).
    pub matched: u64,
    /// Mirror of [`DaemonStats::stale_records`](crate::DaemonStats).
    pub stale_records: u64,
    /// Mirror of [`DaemonStats::resident_records`](crate::DaemonStats).
    pub resident_records: u64,
    /// Mirror of [`DaemonStats::peak_resident_records`](crate::DaemonStats).
    pub peak_resident_records: u64,
    /// Mirror of [`DaemonStats::publishes`](crate::DaemonStats).
    pub publishes: u64,
    /// Mirror of [`DaemonStats::cells_reestimated`](crate::DaemonStats).
    pub cells_reestimated: u64,
}

/// The complete recoverable engine state at one journal watermark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Fingerprint of the configuration this state was produced under;
    /// recovery refuses to load state into a differently-configured
    /// engine instead of silently skewing the landscape.
    pub config: String,
    /// The journal sequence number this state covers: frames with
    /// `seq > wal_seq` must be replayed on top.
    pub wal_seq: u64,
    /// The (server, epoch) cell ledger.
    pub cells: Vec<CellCheckpoint>,
    /// The stream-health cursor.
    pub cursor: QualityCursorState,
    /// Latest matched timestamp seen, if any.
    pub head: Option<SimInstant>,
    /// The auto-publish trigger's previous head epoch.
    pub prev_head_epoch: Option<u64>,
    /// Running counters.
    pub stats: StatsCheckpoint,
    /// Retained snapshots, oldest first.
    pub snapshots: Vec<SnapshotCheckpoint>,
    /// The newest version ever published (survives eviction).
    pub newest_version: u64,
}

impl SnapshotCheckpoint {
    /// Converts a published snapshot into its checkpoint form.
    pub fn from_landscape(version: LandscapeVersion, landscape: &Landscape) -> Self {
        SnapshotCheckpoint {
            version: version.0,
            entries: landscape
                .entries()
                .iter()
                .map(|e| EntryCheckpoint {
                    server: e.server,
                    epoch: e.epoch,
                    estimate_bits: e.estimate.to_bits(),
                    quality: e.quality,
                })
                .collect(),
        }
    }

    /// Rebuilds the published snapshot, bit for bit.
    pub fn to_landscape(&self) -> (LandscapeVersion, Landscape) {
        let entries: Vec<LandscapeEntry> = self
            .entries
            .iter()
            .map(|e| LandscapeEntry {
                server: e.server,
                epoch: e.epoch,
                estimate: f64::from_bits(e.estimate_bits),
                quality: e.quality,
                error_bound: None,
            })
            .collect();
        (
            LandscapeVersion(self.version),
            Landscape::from_entries(entries),
        )
    }
}

/// Why a stored checkpoint could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The envelope line is missing, malformed, or the declared length
    /// does not match the body.
    BadEnvelope {
        /// What was wrong with it.
        reason: String,
    },
    /// The body's CRC does not match the envelope.
    ChecksumMismatch {
        /// CRC recorded in the envelope.
        expected: u32,
        /// CRC of the body as read.
        found: u32,
    },
    /// The body is valid bytes but not a valid `EngineCheckpoint`.
    BadBody {
        /// The deserialization failure.
        reason: String,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadEnvelope { reason } => {
                write!(f, "checkpoint envelope is damaged: {reason}")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint body CRC mismatch: recorded {expected:08x}, found {found:08x}"
            ),
            CheckpointError::BadBody { reason } => {
                write!(f, "checkpoint body does not parse: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

const ENVELOPE_MAGIC: &str = "BMCKPT01";

/// The longest envelope line: magic, 8 hex digits, a 20-digit length, two
/// spaces and the newline.
const ENVELOPE_ROOM: usize = ENVELOPE_MAGIC.len() + 1 + 8 + 1 + 20 + 1;

/// Serializes `state` under the integrity envelope.
///
/// The envelope line states the body's CRC and length, so the body is
/// written first — once, streamed into the output buffer behind room for
/// the longest possible line — and the line is then laid right up against
/// it and the unused room dropped.
pub fn encode_checkpoint(state: &EngineCheckpoint) -> Result<Vec<u8>, String> {
    let mut out = vec![0u8; ENVELOPE_ROOM];
    serde_json::to_writer(&mut out, state).map_err(|e| e.to_string())?;
    let body = &out[ENVELOPE_ROOM..];
    let line = format!("{ENVELOPE_MAGIC} {:08x} {}\n", crc32(body), body.len());
    let unused = ENVELOPE_ROOM - line.len();
    out[unused..ENVELOPE_ROOM].copy_from_slice(line.as_bytes());
    out.drain(..unused);
    Ok(out)
}

/// Validates the envelope and deserializes the body.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<EngineCheckpoint, CheckpointError> {
    let newline =
        bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| CheckpointError::BadEnvelope {
                reason: "no envelope line".into(),
            })?;
    let line =
        std::str::from_utf8(&bytes[..newline]).map_err(|_| CheckpointError::BadEnvelope {
            reason: "envelope line is not UTF-8".into(),
        })?;
    let mut parts = line.split(' ');
    let (magic, crc_hex, len_str) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(c), Some(l), None) => (m, c, l),
        _ => {
            return Err(CheckpointError::BadEnvelope {
                reason: format!("expected 3 envelope fields, got {line:?}"),
            })
        }
    };
    if magic != ENVELOPE_MAGIC {
        return Err(CheckpointError::BadEnvelope {
            reason: format!("bad magic {magic:?}"),
        });
    }
    // The encoder always emits 8 lowercase hex digits; insisting on that
    // canonical form keeps every flipped envelope byte detectable (hex
    // parsing alone would accept a case-flipped digit as the same value).
    if crc_hex.len() != 8
        || !crc_hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err(CheckpointError::BadEnvelope {
            reason: format!("non-canonical CRC field {crc_hex:?}"),
        });
    }
    let expected = u32::from_str_radix(crc_hex, 16).map_err(|_| CheckpointError::BadEnvelope {
        reason: format!("unparseable CRC {crc_hex:?}"),
    })?;
    let len: usize = len_str.parse().map_err(|_| CheckpointError::BadEnvelope {
        reason: format!("unparseable length {len_str:?}"),
    })?;
    let body = &bytes[newline + 1..];
    if body.len() != len {
        return Err(CheckpointError::BadEnvelope {
            reason: format!("declared length {len}, body has {}", body.len()),
        });
    }
    let found = crc32(body);
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, found });
    }
    let text = std::str::from_utf8(body).map_err(|_| CheckpointError::BadBody {
        reason: "body is not UTF-8".into(),
    })?;
    serde_json::from_str(text).map_err(|e| CheckpointError::BadBody {
        reason: e.to_string(),
    })
}

/// How many checkpoint generations [`CheckpointManager`] retains.
pub const RETAINED_CHECKPOINTS: usize = 2;

/// What [`CheckpointManager::load_latest`] found: the newest readable
/// checkpoint (if any generation is readable) plus every corrupt
/// generation skipped on the way, as `(wal_seq, why)` pairs.
pub type LoadedCheckpoint = (Option<EngineCheckpoint>, Vec<(u64, CheckpointError)>);

/// Names, writes, lists and retires checkpoint files inside a [`Storage`].
///
/// Files are named `checkpoint.<seq, 20 digits zero-padded>.bmck` so the
/// storage's sorted listing is also watermark order.
#[derive(Debug, Default)]
pub struct CheckpointManager;

impl CheckpointManager {
    /// The file name for the checkpoint at `seq`.
    pub fn file_name(seq: u64) -> String {
        format!("checkpoint.{seq:020}.bmck")
    }

    /// Parses a checkpoint file name back into its watermark.
    pub fn parse_name(name: &str) -> Option<u64> {
        let rest = name.strip_prefix("checkpoint.")?;
        let digits = rest.strip_suffix(".bmck")?;
        digits.parse().ok()
    }

    /// All checkpoint watermarks currently stored, ascending.
    pub fn stored_seqs<S: Storage>(storage: &mut S) -> io::Result<Vec<u64>> {
        let mut seqs: Vec<u64> = storage
            .list()?
            .iter()
            .filter_map(|n| Self::parse_name(n))
            .collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Atomically writes the checkpoint for `state.wal_seq`, then retires
    /// generations beyond [`RETAINED_CHECKPOINTS`]. Returns the watermark
    /// of the *oldest retained* checkpoint — the journal's new base.
    pub fn save<S: Storage>(storage: &mut S, state: &EngineCheckpoint) -> io::Result<u64> {
        let bytes = encode_checkpoint(state).map_err(io::Error::other)?;
        Self::save_encoded(storage, state.wal_seq, &bytes)
    }

    /// [`save`](Self::save) for a checkpoint [`encode_checkpoint`] already
    /// produced: the storage half alone, so a caller retrying a failed write
    /// encodes once.
    pub(crate) fn save_encoded<S: Storage>(
        storage: &mut S,
        wal_seq: u64,
        bytes: &[u8],
    ) -> io::Result<u64> {
        storage.write_atomic(&Self::file_name(wal_seq), bytes)?;
        let seqs = Self::stored_seqs(storage)?;
        let retire = seqs.len().saturating_sub(RETAINED_CHECKPOINTS);
        for &seq in &seqs[..retire] {
            storage.remove(&Self::file_name(seq))?;
        }
        Ok(*seqs[retire..].first().unwrap_or(&wal_seq))
    }

    /// Loads the newest readable checkpoint, walking backwards over
    /// damaged generations. Returns the state plus how many corrupt
    /// checkpoints were skipped; `None` if no generation is readable.
    pub fn load_latest<S: Storage>(storage: &mut S) -> io::Result<LoadedCheckpoint> {
        let mut skipped = Vec::new();
        for seq in Self::stored_seqs(storage)?.into_iter().rev() {
            let bytes = storage.read(&Self::file_name(seq))?;
            match decode_checkpoint(&bytes) {
                Ok(state) => return Ok((Some(state), skipped)),
                Err(e) => skipped.push((seq, e)),
            }
        }
        Ok((None, skipped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn state(wal_seq: u64) -> EngineCheckpoint {
        EngineCheckpoint {
            config: "test-config".into(),
            wal_seq,
            cells: vec![CellCheckpoint {
                server: ServerId(3),
                epoch: 1,
                lookups: Vec::new(),
                raw_bits: f64::NAN.to_bits(),
                dirty: false,
                frozen: true,
                stale: true,
            }],
            cursor: QualityCursorState::default(),
            head: None,
            prev_head_epoch: Some(1),
            stats: StatsCheckpoint {
                ingested: 10,
                ..StatsCheckpoint::default()
            },
            snapshots: vec![SnapshotCheckpoint {
                version: 2,
                entries: vec![EntryCheckpoint {
                    server: ServerId(3),
                    epoch: 1,
                    estimate_bits: 0.1f64.to_bits(),
                    quality: CellQuality::Degraded,
                }],
            }],
            newest_version: 2,
        }
    }

    #[test]
    fn envelope_round_trips_nan_and_exact_bits() {
        let original = state(7);
        let bytes = encode_checkpoint(&original).unwrap();
        let back = decode_checkpoint(&bytes).unwrap();
        assert_eq!(back, original);
        assert!(f64::from_bits(back.cells[0].raw_bits).is_nan());
        assert_eq!(
            f64::from_bits(back.snapshots[0].entries[0].estimate_bits).to_bits(),
            0.1f64.to_bits()
        );
    }

    #[test]
    fn any_corruption_is_detected() {
        let bytes = encode_checkpoint(&state(7)).unwrap();
        for pos in [0, 3, 9, 15, bytes.len() / 2, bytes.len() - 1] {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x20;
            assert!(
                decode_checkpoint(&damaged).is_err(),
                "flip at {pos} went undetected"
            );
        }
        assert!(decode_checkpoint(b"").is_err());
        assert!(decode_checkpoint(b"BMCKPT01 zzzzzzzz 4\nbody").is_err());
    }

    #[test]
    fn manager_retains_two_and_falls_back() {
        let mut storage = MemStorage::new();
        for seq in [5, 10, 15] {
            CheckpointManager::save(&mut storage, &state(seq)).unwrap();
        }
        assert_eq!(
            CheckpointManager::stored_seqs(&mut storage).unwrap(),
            vec![10, 15],
            "oldest generation retired"
        );
        // Newest loads cleanly.
        let (loaded, skipped) = CheckpointManager::load_latest(&mut storage).unwrap();
        assert_eq!(loaded.unwrap().wal_seq, 15);
        assert!(skipped.is_empty());
        // Corrupt the newest: fall back to the previous generation.
        storage.get_mut(&CheckpointManager::file_name(15)).unwrap()[40] ^= 0xFF;
        let (loaded, skipped) = CheckpointManager::load_latest(&mut storage).unwrap();
        assert_eq!(loaded.unwrap().wal_seq, 10);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].0, 15);
        // Corrupt both: no state, two skips.
        storage.get_mut(&CheckpointManager::file_name(10)).unwrap()[40] ^= 0xFF;
        let (loaded, skipped) = CheckpointManager::load_latest(&mut storage).unwrap();
        assert!(loaded.is_none());
        assert_eq!(skipped.len(), 2);
    }

    #[test]
    fn save_reports_the_oldest_retained_watermark() {
        let mut storage = MemStorage::new();
        assert_eq!(CheckpointManager::save(&mut storage, &state(4)).unwrap(), 4);
        assert_eq!(CheckpointManager::save(&mut storage, &state(8)).unwrap(), 4);
        assert_eq!(
            CheckpointManager::save(&mut storage, &state(12)).unwrap(),
            8
        );
    }

    #[test]
    fn file_names_sort_by_watermark() {
        assert_eq!(
            CheckpointManager::parse_name(&CheckpointManager::file_name(42)),
            Some(42)
        );
        assert!(CheckpointManager::file_name(9) < CheckpointManager::file_name(10));
        assert!(CheckpointManager::file_name(99) < CheckpointManager::file_name(100));
        assert_eq!(CheckpointManager::parse_name("wal.log"), None);
        assert_eq!(CheckpointManager::parse_name("checkpoint.x.bmck"), None);
    }
}
