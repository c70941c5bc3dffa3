#!/usr/bin/env bash
# Run a campaign spec with the release build and pinned environment,
# writing the versioned JSON report under reports/. Run from the
# repository root:
#
#   scripts/run_campaign.sh campaigns/policy_sweep.json        # 1 thread
#   scripts/run_campaign.sh campaigns/smoke.json 4             # 4 threads
set -euo pipefail

spec=${1:?usage: scripts/run_campaign.sh <spec.json> [rayon_threads]}
threads=${2:-1}
name=$(basename "$spec" .json)
mkdir -p reports
out="reports/${name}_$(date +%Y%m%d_%H%M%S).campaign.json"

echo "== campaign $name (RAYON_NUM_THREADS=$threads) =="
RAYON_NUM_THREADS="$threads" cargo run --release -p hpgmxp-harness --bin campaign -- \
    "$spec" --out "$out"

echo "Done. Report: $out"
