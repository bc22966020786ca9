#!/usr/bin/env bash
# Every workload untraced (end-to-end metrics), then traced (per-layer
# metrics), printed by name with units.
#
#   bash perfbench/report.sh [SEED] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
seconds="${2:-36}"
for trace in 0 1; do
    for workload in ssc-tall ssc_rm-wide dae_kmeans-image; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" | grep -v '^{'
    done
done
