#!/usr/bin/env bash
# Builds the dva-serve release binary and the benchmark from source, then
# runs one benchmark run. Run from the repository root:
#
#   bash servebench/run.sh --workload cold_sweep --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# messages go to standard error, so the last line of standard output is
# the benchmark's result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f servebench/Cargo.toml ]]; then
    echo "servebench: run from the root of a full repository checkout" >&2
    exit 1
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p dva-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/dva-servebench" --serve-bin "$CARGO_TARGET_DIR/release/dva-serve" "$@"
