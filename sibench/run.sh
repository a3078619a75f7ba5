#!/usr/bin/env bash
# Builds `si_serve` (from the repository's workspace) and the `sibench`
# harness, then runs the harness with the given arguments:
#
#   bash sibench/run.sh --workload <cold_solve|hot_serve|stream_persist> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `target`); the harness keeps its scratch files (server cache
# directories, the span file of a traced run) under it as well.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p si-service --bin si_serve >&2
cargo build --release --offline --quiet --manifest-path sibench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/sibench" \
    --serve-bin "$CARGO_TARGET_DIR/release/si_serve" \
    --work-dir "$CARGO_TARGET_DIR/sibench-work" \
    "$@"
