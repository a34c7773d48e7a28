#!/usr/bin/env bash
# Builds the campaign binary and the benchmark runner from source, then
# runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build at the
# repository root); campaign scratch output to .perfbench_work.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline -p anneal-bench --bin campaign >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --campaign-bin "$CARGO_TARGET_DIR/release/campaign" "$@"
