#!/usr/bin/env bash
# The benchmark's one command: build this package, then run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result
#       (the contract of /BENCHMARK.json)
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--smoke] [--repeat K]
#       every workload untraced then traced, every metric by name;
#       --repeat K compares K sets against the bounds in /BENCHMARK.json
#
# Nothing is written outside benchmark/out/ (and the cargo target
# directory: $CARGO_TARGET_DIR, or benchmark/target/).
set -euo pipefail
DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$DIR/target}"
cargo build --release --offline --quiet --manifest-path "$DIR/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/reach-benchmark" \
    --out "$DIR/out" --manifest "$DIR/../BENCHMARK.json" "$@"
