#!/usr/bin/env bash
# Builds the sdo-serve daemon and the `benchmark` program from source,
# then runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload sim-busy --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); `benchmark` finds the daemon next to itself.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p sdo-serve --bin serve >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
