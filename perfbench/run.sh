#!/usr/bin/env bash
# Builds the benchmark and the two program binaries it drives (ppatc-serve,
# ppatc-lint) in release mode, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr so that the
# benchmark's result stays the last line of stdout.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "perfbench: run from the repository root (Cargo.toml and crates/ are missing)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ppatc-serve -p ppatc-lint --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
