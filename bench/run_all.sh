#!/bin/sh
# Run every workload of the benchmark in turn, each in a fresh interpreter.
# Usage: sh bench/run_all.sh [SEED] [SECONDS] [TRACE]
set -e
cd "$(dirname "$0")/.."
for workload in uc1-cartesian uc1-voronoi wc2-cartesian; do
    python3 bench/run_bench.py --workload "$workload" --seed "${1:-42}" \
        --seconds "${2:-30}" --trace "${3:-0}"
done
