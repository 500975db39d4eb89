#!/usr/bin/env bash
# Single entry point of the benchmark: builds `taps-serviced` (from the
# repository workspace) and the harness (this directory's own workspace)
# in release mode, then runs the harness.
#
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, tracing off and then the traced ladder; prints
#       every metric, writes benchmark/out/results.json and
#       benchmark/out/trace_<workload>.jsonl; exits 1 if a check failed
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run, as the benchmark driver calls it; the last line of
#       standard output is the result object (`--traced` = `--trace 1`)
#   benchmark/run.sh repeat N | spread N [--seed N] [--seconds S]
#       the two halves of repeat.sh
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Cargo's progress goes to stderr; standard output stays the harness's.
cargo build --release --offline --quiet -p taps-service --bin taps-serviced
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# The harness runs in its own process group, so that a signal to this
# script also reaches the daemon child the harness is holding.
set -m
"$CARGO_TARGET_DIR/release/taps-e2e-bench" \
    --daemon "$CARGO_TARGET_DIR/release/taps-serviced" --out benchmark/out "$@" &
harness=$!
trap 'kill -TERM -- "-$harness" 2>/dev/null' INT TERM
wait "$harness"
