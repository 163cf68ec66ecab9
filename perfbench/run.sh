#!/usr/bin/env bash
# Builds the `patchdb` server binary and the benchmark harness from this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload identify-fresh --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build`). The
# last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin patchdb >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --patchdb "$target/release/patchdb" --work "$target/perfbench" "$@"
