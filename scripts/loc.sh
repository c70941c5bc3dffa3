#!/usr/bin/env bash
# Lines of Rust per crate — the source of ROADMAP's lines-per-crate
# figure. Counts every line of every .rs file (code, comments, tests);
# nothing cleverer, so the number is reproducible with find + wc.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/* src examples tests benchmark; do
    [ -d "$dir" ] || continue
    n=$(find "$dir" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l)
    printf '%7d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
