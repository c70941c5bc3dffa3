#!/usr/bin/env bash
# Lines of Rust per crate — the source of ROADMAP's lines-per-crate
# figure — and the `unsafe` budget: occurrences of the word `unsafe`
# per crate. Counts every line of every .rs file (code, comments,
# tests); nothing cleverer, so both numbers are reproducible with
# find + wc / grep. Exits 1 when the `unsafe` total exceeds the budget
# below: lowering it is a one-line change, raising it a reviewed one.
set -euo pipefail
cd "$(dirname "$0")/.."

UNSAFE_BUDGET=76

rs_files() {
    find "$1" -name '*.rs' -not -path '*/target/*' -print0
}

total=0
unsafe_total=0
printf '%7s  %7s\n' lines unsafe
for dir in crates/* src examples tests benchmark; do
    [ -d "$dir" ] || continue
    n=$(rs_files "$dir" | xargs -0 cat | wc -l)
    u=$(rs_files "$dir" | xargs -0 cat | { grep -ow unsafe || true; } | wc -l)
    printf '%7d  %7d  %s\n' "$n" "$u" "$dir"
    total=$((total + n))
    unsafe_total=$((unsafe_total + u))
done
printf '%7d  %7d  total\n' "$total" "$unsafe_total"
if [ "$unsafe_total" -gt "$UNSAFE_BUDGET" ]; then
    echo "unsafe budget exceeded: $unsafe_total occurrences > UNSAFE_BUDGET=$UNSAFE_BUDGET" >&2
    exit 1
fi
