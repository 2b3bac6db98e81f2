#!/usr/bin/env bash
# Builds the `trigon` binary and the benchmark binary from source, then
# runs the benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload analyze-ring --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is the result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "benchmark/run.sh: run from the root of a trigon checkout" >&2
    exit 2
fi

# Both builds share one target directory, where the benchmark also finds
# `trigon`; without this the benchmark package would build into its own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin trigon >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2

# Not exec'd: the benchmark must start with no waited-for children, so that
# its peak-RSS figure counts only the processes it spawns itself.
"$CARGO_TARGET_DIR/release/trigon-benchmark" "$@"
