#!/usr/bin/env bash
# Build the benchmark from source and run it; see benchmark/README.md.
#
#   benchmark/run.sh                          every workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --selfcheck              end-to-end passes twice, compared
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Results, traces and BENCHMARK.json are addressed from the repo root.
cd "$root"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
BENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_GIT_REV
exec "$target/release/hpgmxp-benchmark" "$@"
