#!/usr/bin/env bash
# Lines of Rust per crate — the source of ROADMAP's lines-per-crate
# figure — and the `unsafe` budget: occurrences of the word `unsafe`
# per crate. Counts every line of every .rs file (code, comments,
# tests); nothing cleverer, so every number is reproducible with
# find + wc / grep. Also prints the distinct `fn *_checked` names (the
# panicking/fallible twins still waiting to collapse into one name)
# and the distinct `HPGMXP_*` names (environment knobs) in the
# workspace's files (the separate `benchmark/` workspace is left out:
# it is frozen, and a test name there ends in `_checked`). Exits 1 when
# the `unsafe` total, the `_checked` count or the knob count exceeds its
# budget below: lowering a budget is a one-line change, raising it a
# reviewed one.
set -euo pipefail
cd "$(dirname "$0")/.."

UNSAFE_BUDGET=52
CHECKED_BUDGET=8
KNOB_BUDGET=15

rs_files() {
    find "$1" -name '*.rs' -not -path '*/target/*' -print0
}

WORKSPACE=(crates/* src examples tests)
DIRS=("${WORKSPACE[@]}" benchmark)

# Distinct matches of the extended regex $1 across the workspace.
distinct() {
    for dir in "${WORKSPACE[@]}"; do
        [ -d "$dir" ] && rs_files "$dir"
    done | xargs -0 cat | { grep -oE "$1" || true; } | sort -u | wc -l
}

total=0
unsafe_total=0
printf '%7s  %7s\n' lines unsafe
for dir in "${DIRS[@]}"; do
    [ -d "$dir" ] || continue
    n=$(rs_files "$dir" | xargs -0 cat | wc -l)
    u=$(rs_files "$dir" | xargs -0 cat | { grep -ow unsafe || true; } | wc -l)
    printf '%7d  %7d  %s\n' "$n" "$u" "$dir"
    total=$((total + n))
    unsafe_total=$((unsafe_total + u))
done
printf '%7d  %7d  total\n' "$total" "$unsafe_total"
checked=$(distinct 'fn [a-z_0-9]+_checked\b')
knobs=$(distinct 'HPGMXP_[A-Z0-9_]+')
printf '%7d  distinct `fn *_checked` names (CHECKED_BUDGET=%d)\n' "$checked" "$CHECKED_BUDGET"
printf '%7d  distinct HPGMXP_* names (KNOB_BUDGET=%d)\n' "$knobs" "$KNOB_BUDGET"
status=0
if [ "$unsafe_total" -gt "$UNSAFE_BUDGET" ]; then
    echo "unsafe budget exceeded: $unsafe_total occurrences > UNSAFE_BUDGET=$UNSAFE_BUDGET" >&2
    status=1
fi
if [ "$checked" -gt "$CHECKED_BUDGET" ]; then
    echo "_checked budget exceeded: $checked names > CHECKED_BUDGET=$CHECKED_BUDGET" >&2
    status=1
fi
if [ "$knobs" -gt "$KNOB_BUDGET" ]; then
    echo "knob budget exceeded: $knobs HPGMXP_* names > KNOB_BUDGET=$KNOB_BUDGET" >&2
    status=1
fi
exit "$status"
