#!/usr/bin/env bash
# Builds botbench from source and runs it: the command BENCHMARK.json names.
#
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#   benchmark/run.sh --seed 42            # all six workloads, untraced
#   benchmark/run.sh --seed 42 --trace 1  # all six, the per-layer ledger
#
# Run from anywhere; writes only under benchmark/out/ and the cargo target
# directory ($CARGO_TARGET_DIR, or benchmark/target/).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

# Both binaries in one build, so the first run of either mode pays for it.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins

# `--trace 1` goes to the binary that installs the counting allocator.
bin=botbench
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=botbench_traced
    fi
    prev="$arg"
done

BOTBENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
BOTBENCH_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export BOTBENCH_RUSTC BOTBENCH_COMMIT
exec "$target/release/$bin" --out-dir "$here/out" "$@"
