#!/usr/bin/env bash
# Build `fvtool` (the program) and `fvbench` (the benchmark) from source
# into one target directory, then run the benchmark with the given
# arguments. Run from the root of a checkout:
#
#   bash fvbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#   bash fvbench/run.sh report | repeat | selftest
#
# Everything the run writes stays inside the checkout: build output under
# $CARGO_TARGET_DIR (default .bench_build), scratch files under
# .bench_build/tmp, span files under artifacts/fvbench.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
export CARGO_TARGET_DIR="$target"

# Build chatter goes to stderr; stdout belongs to the benchmark's result.
cargo build --release --offline --bin fvtool >&2
cargo build --release --offline --manifest-path fvbench/Cargo.toml >&2

export TMPDIR="$target/tmp"
mkdir -p "$TMPDIR"
exec "$target/release/fvbench" "$@"
