#!/bin/sh
# Runs every benchmark workload once, untraced, and prints each report.
# Stops with a non-zero exit at the first workload whose outputs fail
# their oracle. Run from the repository root:
#
#     sh perfbench/run_all.sh [seed] [seconds]
set -e
for workload in table1_mnist serve_batch front_poisson front_chaos; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed "${1:-1}" --seconds "${2:-20}" --trace 0
done
