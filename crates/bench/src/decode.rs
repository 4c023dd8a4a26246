//! What reading lookups back out of JSON costs: the `trace_decode` and
//! `journal_decode` blocks of `BENCH_pipeline.json`.

use crate::journal::SHARD_RECORDS;
use botmeter_dns::{trace, ObservedLookup};
use serde::{Deserialize, Serialize};

/// An observed stream decoded from JSON text — what `estimate` and
/// `botmeterd` pay per record before any of BotMeter runs, and what
/// recovery pays per journaled record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecodeBench {
    /// Records decoded per pass.
    pub records: usize,
    /// JSON bytes one pass reads.
    pub bytes: usize,
    /// Best wall time of one pass.
    pub secs: f64,
    /// `bytes / secs`, in MB/s.
    pub mb_per_sec: f64,
    /// Heap allocations of one pass per record. A count, so it repeats
    /// exactly: a streaming decoder spends one (the name's own text; the
    /// output `Vec`'s doublings amortise to nothing), a tree-building one
    /// seven. Zero unless the binary installs
    /// [`botmeter_obs::CountingAlloc`].
    pub allocs_per_record: f64,
}

impl DecodeBench {
    /// `observed` written with [`trace::write_jsonl`] and read back with
    /// [`trace::read_jsonl`]: the input path of `estimate` and `botmeterd`.
    pub fn trace(observed: &[ObservedLookup]) -> DecodeBench {
        let mut text = Vec::new();
        trace::write_jsonl(observed, &mut text).expect("lookups serialize");
        Self::measure(observed.len(), text.len(), || {
            let records: Vec<ObservedLookup> =
                trace::read_jsonl(std::hint::black_box(text.as_slice())).expect("trace reads");
            std::hint::black_box(records).len()
        })
    }

    /// `observed` as the journal holds it — one JSON array per
    /// `SHARD_RECORDS` records — through `serde_json::from_slice`: the
    /// decode half of `DurableDaemon`'s replay.
    pub fn journal(observed: &[ObservedLookup]) -> DecodeBench {
        let payloads: Vec<Vec<u8>> = observed
            .chunks(SHARD_RECORDS)
            .map(|shard| serde_json::to_vec(shard).expect("lookups serialize"))
            .collect();
        let bytes = payloads.iter().map(Vec::len).sum();
        Self::measure(observed.len(), bytes, || {
            payloads
                .iter()
                .map(|payload| {
                    let shard: Vec<ObservedLookup> =
                        serde_json::from_slice(std::hint::black_box(payload))
                            .expect("payload decodes");
                    std::hint::black_box(shard).len()
                })
                .sum()
        })
    }

    /// Runs `pass` (which returns how many records it decoded) once
    /// counting allocations, then keeps the best time of five more.
    fn measure(records: usize, bytes: usize, pass: impl FnMut() -> usize) -> DecodeBench {
        let (decoded, allocs, secs) = crate::counted_then_best_of(pass);
        assert_eq!(decoded, records, "every record decodes");
        DecodeBench {
            records,
            bytes,
            secs,
            mb_per_sec: bytes as f64 / secs.max(1e-9) / 1e6,
            allocs_per_record: allocs as f64 / records.max(1) as f64,
        }
    }
}
