#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build and tests.
#
# Usage: scripts/check.sh
# The workspace vendors all third-party crates, so every step runs offline.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> removed entry-point grep gate"
# The dual sequential/parallel entry points are gone: every pipeline stage
# takes an ExecPolicy. So is the cache filter's per-call clone-and-absorb
# fan-out, the id-probe twins of the hit scan (`scan_hits` is the one
# kernel), the kernel-quantization knob nobody set, botmeterd's second
# feed loop, the pipeline mode that kept the raw trace, the sink trait
# around a closure, the dns/obs capabilities nobody called, the second
# gate binary, the interner's arena accessors, the daemon's public
# test-traffic generator and its sketch sidecar's accessors, and the
# sketch's fabricated lookups (one at the first sighting, one at the
# last) with its unread checkpoint state, the two models that never won a
# measured point (`MW`, `MH` and its Bernoulli twin), the ρ-grid knob
# with its exact-mode cache and context setter, the free Gamma-prior
# constructor, the matcher's batch probe and its blocking factor, the
# resumable stream matcher, the pattern matcher's byte automaton with
# its scalar twin, and the shard ordering the per-domain filter replaced
# (the producers' bucketed sort, the consumer's run merge and the sort's
# histogram), and the experiment binaries' flags with what only they kept
# alive (the options structs, the trial-runner veneers over
# `run_indexed_with`, the subplot-letter parser, the metrics-file flag, the
# private estimator tables `models_for` replaced and the naive-`MB`
# wrapper), the sketch cell's HLL register bank with its precision knob
# and the sketch API nothing read, seven public functions only their
# own unit tests called, and the merge counters nothing read with the
# benign-traffic API the enterprise simulator's slot form replaced and
# the registrar merge it no longer needs, and what the per-domain filter
# left behind (the shard-buffer recycler with its counters, the
# topology's unattached metrics and cache reset, the fault path over
# id-keyed records), six public functions only their own unit tests
# called and the checkpoint's copy of the daemon's counters. No file may
# mention the old names.
pattern='chart_parallel|match_stream_parallel|process_trace_parallel|run_sequential'
pattern+='|process_trace_sharded|absorb_shard|MIN_PARALLEL_TRACE'
pattern+='|matches_id|ingest_compact|scan_compact|kernel_quantization'
pattern+='|run_ephemeral|drain_shard'
pattern+='|Materialize|ShardSink|FnSink|LocalResolver|from_recorder'
# (names written in two pieces, so a repo-wide grep for them finds nothing)
pattern+='|perf_''smoke|resolve_bytes|resolve_str|arena_bytes|tld_of|first_label_of|label_count_of'
pattern+='|botmeter_daemon::''synthetic|fn stream_quality\(&self\)|\.stream_quality\(\)'
pattern+='|sketch_config\(&self\)'
pattern+='|sketch_cells|SketchState|SketchCellState|first_ms|last_ms'
pattern+='|WindowOccupancy|HybridEstimator|HybridBernoulli|RhoQuantization|with_gamma_prior'
pattern+='|with_kernel_cache|SegmentKernelCache::exact'
pattern+='|bucket_sort_by_key|merge_sorted_runs_into|shard_order_ns'
pattern+='|Fig6Options|AblationOptions|EvasionOptions|run_trials|from_letter'
pattern+='|metrics-out|estimators_for|NaiveBernoulli'
# (whole words: tests named `*_matches_batch_*` compare a stream to a batch)
pattern+='|\b(matches_batch|PROBE_BLOCK|StreamMatcher|matched_so_far'
pattern+='|ByteClassTable|TldTrie|label_matches_scalar|matches_bytes)\b'
pattern+='|\b(hll_estimate|hll_precision|observe_register|BadPrecision'
pattern+='|DEFAULT_PRECISION|MIN_PRECISION|MAX_PRECISION|PushEffect|sketch_so_far'
pattern+='|checked_div_duration|epoch_of|with_positive|counters_with_prefix'
pattern+='|seed_bytes|anomaly_rate|collision_count)\b'
pattern+='|\b(MergeEffect|merged_cells|new_cells|day_lookups|catalog_size)\b|EpochAuthority::merge'
pattern+='|BufferPool|POOL_RETAIN|sched\.pool\.|set_obs|push_cache_deltas|clear_caches'
pattern+='|report_so_far|binomial_rows_cached|observed_in_epoch|StatsCheckpoint'
pattern+='|impl FaultRecord for CompactObserved'
# (whole words: `ln_stirling2` stays)
pattern+='|\b(stirling2|domain_id)\b'
offenders=$(grep -rlE "$pattern" \
  --include='*.rs' src crates tests examples \
  || true)
if [[ -n "$offenders" ]]; then
  echo "error: removed dual entry points referenced:" >&2
  echo "$offenders" >&2
  echo "use the unified ExecPolicy-taking API instead." >&2
  exit 1
fi

echo "==> removed chart() grep gate (charting goes through ChartRequest)"
# `BotMeter::chart` / `try_chart` were deprecated shims and are now fully
# removed: no file may mention the old names. Every charting call builds a
# ChartRequest and goes through `chart_with` / `try_chart_with`.
chart_offenders=$(grep -rlE '\.chart\(|\.try_chart\(' \
  --include='*.rs' src crates tests examples \
  || true)
if [[ -n "$chart_offenders" ]]; then
  echo "error: removed chart()/try_chart() entry points referenced:" >&2
  echo "$chart_offenders" >&2
  echo "build a ChartRequest and call chart_with()/try_chart_with() instead." >&2
  exit 1
fi

echo "==> thread::spawn grep gate (parallelism stays behind botmeter-exec)"
# Every thread the workspace starts must come from the botmeter-exec pool,
# so worker counts, panic propagation and sched.* accounting stay in one
# place. `crates/stats/src/stirling.rs` predates the pool and only spawns
# inside #[cfg(test)] code.
spawn_offenders=$(grep -rln 'thread::spawn' \
  --include='*.rs' src crates tests examples \
  | grep -vxF \
      -e crates/exec/src/lib.rs \
      -e crates/stats/src/stirling.rs \
  || true)
if [[ -n "$spawn_offenders" ]]; then
  echo "error: direct thread::spawn outside botmeter-exec:" >&2
  echo "$spawn_offenders" >&2
  echo "route parallel work through the botmeter-exec worker pool." >&2
  exit 1
fi

echo "==> no fan-out under a cache (crates/dns/src opens no worker pool)"
# A topology filters on its caller's thread: a fan-out there has to copy
# the caches per worker and fold them back per call (DESIGN.md §8, "Where
# else the parallelism lives"). Parallelism lives in sim's shard
# producers, matcher's chunks and core's cells.
fanout_offenders=$(grep -rnE 'run_indexed_with|map_chunks_with|thread::' \
  --include='*.rs' crates/dns/src \
  || true)
if [[ -n "$fanout_offenders" ]]; then
  echo "error: worker-pool fan-out inside crates/dns/src:" >&2
  echo "$fanout_offenders" >&2
  exit 1
fi

echo "==> unwrap() grep gate (library code of core, dns, dga, matcher, sketch, daemon, sim, faults, exec)"
# User-reachable library paths must surface typed errors, not panic.
# `unwrap()` stays legal in `#[cfg(test)]` modules (the awk below stops
# scanning a file once it reaches that marker) and in `//` comment lines.
unwrap_offenders=$(
  find crates/core/src crates/dns/src crates/dga/src crates/matcher/src \
    crates/sketch/src crates/daemon/src crates/sim/src crates/faults/src \
    crates/exec/src \
    -name '*.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      /^[[:space:]]*\/\// { next }
      /\.unwrap\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    '
)
if [[ -n "$unwrap_offenders" ]]; then
  echo "error: unwrap() in non-test library code; return a typed error instead:" >&2
  echo "$unwrap_offenders" >&2
  exit 1
fi

echo "==> no per-insert domain clone and no SipHash in MT or the Sampling barrel"
# Algorithm 1's entries hold `&DomainName` borrowed from the cell's lookup
# slice; cloning the name per insert is an `Arc` refcount round-trip per
# matched lookup. The `#[cfg(test)]` reference loop keeps its clones.
clone_offenders=$(awk '
    /#\[cfg\(test\)\]/ { exit }
    /\.domain\.clone\(\)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  ' crates/core/src/timing.rs)
if [[ -n "$clone_offenders" ]]; then
  echo "error: .domain.clone() in the Timing estimator; borrow from the slice:" >&2
  echo "$clone_offenders" >&2
  exit 1
fi
# `MT`'s membership probe (one per surviving candidate entry) and the
# Sampling barrel's sparse Fisher–Yates (four map operations per draw) run
# on `FxHashSet`/`FxHashMap`: a key is one or two Fx multiplies where std's
# default hasher spends a SipHash round. std `HashSet`/`HashMap` stay
# legal in both files' tests.
siphash_offenders=$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*\/\// { next }
    /(^|[^[:alnum:]_])Hash(Set|Map)([^[:alnum:]_]|$)/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
  ' crates/core/src/timing.rs crates/dga/src/barrel.rs)
if [[ -n "$siphash_offenders" ]]; then
  echo "error: std HashSet/HashMap in MT or the Sampling barrel; use FxHashSet/FxHashMap:" >&2
  echo "$siphash_offenders" >&2
  exit 1
fi

echo "==> fs::write grep gate (daemon persistence goes through Storage only)"
# Durability state in crates/daemon must go through the Storage trait's
# write_atomic (temp file + fsync + rename) so a crash can never leave a
# half-written checkpoint or snapshot behind. Bare std::fs::write is a
# non-atomic overwrite and is banned in the daemon crate.
fswrite_offenders=$(grep -rnE '(std::)?fs::write\(' \
  --include='*.rs' crates/daemon \
  || true)
if [[ -n "$fswrite_offenders" ]]; then
  echo "error: bare fs::write in crates/daemon; use Storage::write_atomic:" >&2
  echo "$fswrite_offenders" >&2
  exit 1
fi
# Every other way to mutate a file stays behind the Storage trait too
# (crates/daemon/src/storage.rs), the layer FailingStorage doubles and the
# crash matrix (tests/crash_recovery.rs) kills after each operation of.
fsmutate_offenders=$(grep -rnE 'fs::rename|remove_file|File::create|OpenOptions' \
  --include='*.rs' crates/daemon/src \
  | grep -v '^crates/daemon/src/storage\.rs:' \
  || true)
if [[ -n "$fsmutate_offenders" ]]; then
  echo "error: file mutation outside crates/daemon/src/storage.rs; add a Storage operation:" >&2
  echo "$fsmutate_offenders" >&2
  exit 1
fi

echo "==> durable path writes into buffers (no serde_json::to_string in the daemon library)"
# Journal frames and checkpoint bodies are serialized straight into the
# buffer that goes to storage (`serde_json::to_writer`); a `to_string` on
# that path is a payload-sized String and a copy per shard. `botmeterd`
# under src/bin/ is not the durable path; `#[cfg(test)]` modules are
# skipped as in the unwrap gate.
to_string_offenders=$(
  find crates/daemon/src -maxdepth 1 -name '*.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      /serde_json::to_string\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    '
)
if [[ -n "$to_string_offenders" ]]; then
  echo "error: serde_json::to_string on the durable path; write into the buffer:" >&2
  echo "$to_string_offenders" >&2
  exit 1
fi

echo "==> serialization streams both ways (no Content tree behind Serialize or Deserialize)"
# `Serialize` impls and derived code drive the Serializer's compound entry
# points; `Deserialize` impls and derived code hand the Deserializer a
# visitor and read fields in place. The tree builder and the tree decoder
# they used to go through (`to_content`, `ContentSerializer`,
# `deserialize_content`, `from_content`, `ContentDeserializer`) live on only
# as the test oracle under vendor/serde_json/tests/oracle. `Content` itself
# stays as the `serialize_content` escape hatch.
tree_offenders=$(
  grep -rnE 'to_content|ContentSerializer|deserialize_content|from_content|ContentDeserializer' \
    vendor/serde/src vendor/serde_derive/src vendor/serde_json/src \
    || true
  # The decoder's names appear in no Rust source outside the oracle.
  grep -rnE 'deserialize_content|from_content|ContentDeserializer' --include='*.rs' \
    --exclude-dir=target --exclude-dir=.bench_build --exclude-dir=oracle . \
    || true
)
if [[ -n "$tree_offenders" ]]; then
  echo "error: a Content tree is built behind Serialize or Deserialize again:" >&2
  echo "$tree_offenders" >&2
  exit 1
fi

echo "==> trace reader reuses its line buffer (no lines() in crates/dns/src/trace.rs)"
# `BufRead::lines()` allocates a String per line; `read_jsonl_iter` refills
# one buffer with `read_until`, a bounded piece at a time.
if grep -nE '\.lines\(\)' crates/dns/src/trace.rs; then
  echo "error: lines() in crates/dns/src/trace.rs; refill one buffer with read_until" >&2
  exit 1
fi

echo "==> one pool per epoch per chart (core and matcher each generate pools in one place)"
# `PoolTable::pool` (crates/core/src/config.rs) is the one generation a
# chart's matcher and estimators share; `ExactMatcher::from_family` is the
# standalone matcher's. A third `pool_for_epoch` call in either library is
# a second generation of something one of those two already holds.
pool_sites=$(
  find crates/core/src crates/matcher/src -name '*.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      /^[[:space:]]*\/\// { next }
      /\.pool_for_epoch\(/ { print FILENAME }
    ' | sort
)
if [[ "$pool_sites" != $'crates/core/src/config.rs\ncrates/matcher/src/exact.rs' ]]; then
  echo "error: pools are generated outside PoolTable::pool / ExactMatcher::from_family:" >&2
  echo "$pool_sites" >&2
  exit 1
fi

echo "==> one position scan (a cell's domains meet pool positions only in CellStats)"
# `CellStats` (crates/core/src/estimator.rs) derives the positions,
# distinct and volume lanes from a cell's lookups or sketch; `PoolIndex`
# (config.rs) owns the map. A model that calls `.position(` derives a lane
# itself — the copy of the scan `MB`, `MC` and `MS` each used to carry.
position_offenders=$(
  find crates/core/src -name '*.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      in_tests { next }
      /^[[:space:]]*\/\// { next }
      /\.position\(/ { printf "%s:%d: %s\n", FILENAME, FNR, $0 }
    ' \
  | grep -vE '^crates/core/src/(estimator|config)\.rs:' \
  || true
)
if [[ -n "$position_offenders" ]]; then
  echo "error: a pool position scan outside CellStats; read the cell's lane instead:" >&2
  echo "$position_offenders" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, -D warnings)"
# A broken intra-doc link, or a public doc linking a private item, fails
# here instead of rotting unseen.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (build)"
cargo test --workspace --no-run -q

echo "==> cargo test (run, 10-minute budget)"
# ROADMAP item 5: the whole workspace's tests run inside 10 minutes on 2
# cores. The build above is not counted; a suite that outgrows the budget
# fails here instead of being skipped by the next builder.
SECONDS=0
cargo test --workspace -q
if (( SECONDS > 600 )); then
  echo "error: cargo test --workspace ran for ${SECONDS}s; the budget is 600s" >&2
  exit 1
fi
echo "    tests ran in ${SECONDS}s"

echo "==> perf (every gate in crates/bench/src/gates.rs against the committed BENCH_pipeline.json)"
# Measures once, prints one row per gate (name, measured, bound; what a
# failure means under each failed row) and exits 1 if any row failed.
./target/release/perf

echo "==> benchmark contract (frozen benchmark/ builds and smoke-runs against these crates)"
# benchmark/ is its own package with path dependencies on crates/*; the
# driver builds it from source. A deletion in crates/* that breaks its API
# list must fail here, not there. ~4 min cold, <15 s of run time.
cargo test --manifest-path benchmark/Cargo.toml --offline -q
benchmark/run.sh --smoke

echo "All checks passed."
