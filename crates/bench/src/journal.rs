//! What `botmeterd` pays to turn a shard into journal bytes: the
//! `journal_encode` block of `BENCH_pipeline.json`.

use botmeter_dns::ObservedLookup;
use serde::{Deserialize, Serialize};

/// The daemon's default `--shard-records`.
pub(crate) const SHARD_RECORDS: usize = 4096;

/// `serde_json::to_writer` over an observed stream cut into journal-sized
/// shards, each serialized into one buffer reused from shard to shard — the
/// payload half of what `DurableDaemon::ingest` does per shard.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEncodeBench {
    /// Records encoded per pass.
    pub records: usize,
    /// Records per shard.
    pub shard_records: usize,
    /// JSON bytes one pass produces.
    pub bytes: usize,
    /// Best wall time of one pass.
    pub secs: f64,
    /// `bytes / secs`, in MB/s.
    pub mb_per_sec: f64,
    /// Heap allocations of the first pass (the one that also grows the
    /// buffer) per record. A count, so it repeats exactly; a streaming
    /// encoder spends a handful per *pass*, a tree-building one several
    /// per *record*. Zero unless the binary installs
    /// [`botmeter_obs::CountingAlloc`].
    pub allocs_per_record: f64,
}

impl JournalEncodeBench {
    /// Encodes `observed` once counting allocations, then keeps the best
    /// time of five more passes.
    pub fn measure(observed: &[ObservedLookup]) -> JournalEncodeBench {
        let mut payload = Vec::new();
        let (bytes, allocs, secs) = crate::counted_then_best_of(|| {
            let mut bytes = 0;
            for shard in observed.chunks(SHARD_RECORDS) {
                payload.clear();
                serde_json::to_writer(&mut payload, std::hint::black_box(shard))
                    .expect("lookups serialize");
                bytes += std::hint::black_box(&payload).len();
            }
            bytes
        });
        JournalEncodeBench {
            records: observed.len(),
            shard_records: SHARD_RECORDS,
            bytes,
            secs,
            mb_per_sec: bytes as f64 / secs.max(1e-9) / 1e6,
            allocs_per_record: allocs as f64 / observed.len().max(1) as f64,
        }
    }
}
