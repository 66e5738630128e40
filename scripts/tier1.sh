#!/usr/bin/env bash
# Tier-1 gate: release build (every reach-bench bin included), full
# test suite, the paper's Table 1 and Figure 2 regenerated and diffed
# against their committed outputs, the smoke runs of the group-commit,
# server-overload, snapshot-read and distributed-commit harnesses, and
# the benchmark package's own tests (benchmark/, a workspace of its
# own: every workload's smoke in both modes, the manifest contract,
# determinism). Every experiment invocation runs under a hard timeout
# so a wedged harness fails the gate instead of hanging it. The gate
# writes no tracked file.
#
#   --stress       additionally run the E18 concurrency stress smoke
#                  (schedule-perturbed serializability sweep + algebra
#                  differential fuzz + causal-dependency oracle; see
#                  crates/bench/src/bin/exp_stress.rs)
#   --bench-check  additionally run the flat-memory gate on the
#                  benchmark's two in-memory workloads (peak RSS must
#                  not scale with run length) and the E21 index smoke
#                  (lookup throughput flat across populations).
#                  Throughput regressions are the benchmark's to catch:
#                  `benchmark/run.sh --repeat K` against the bounds in
#                  BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")/.."

STRESS=0
BENCH_CHECK=0
for arg in "$@"; do
  case "$arg" in
    --stress) STRESS=1 ;;
    --bench-check) BENCH_CHECK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Hard wall-clock bound per experiment run (seconds). The smokes all
# finish in well under a minute; ten is a hang, not a slow machine.
EXP_TIMEOUT=600

# flat_rss <workload>
# Memory must not grow with the number of transactions that have
# finished: run the benchmark's <workload> for 2 s and for 6 s and fail
# if the longer run's peak_rss_mb exceeds 1.5x the shorter's. (Before
# finished transactions were retired, three times the transactions cost
# 214 -> 544 MiB = 2.5x on monitor_embedded and 219 -> 416 MiB = 1.9x on
# dist_2pc; EXPERIMENTS E31 reads 16.25 -> 19.57 MiB = 1.20x and
# 21.37 -> 31.27 MiB = 1.46x, the rest being the benchmark's own
# per-transaction samples.)
flat_rss() {
  local workload=$1 secs short long rss=()
  echo "== tier-1: flat-memory gate, ${workload} (6 s run within 1.5x of the 2 s run's peak RSS) =="
  for secs in 2 6; do
    rss+=("$(timeout "$EXP_TIMEOUT" bash benchmark/run.sh --workload "$workload" --seed 1 --trace 0 --seconds "$secs" \
      | tail -n 1 | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p')")
  done
  short=${rss[0]} long=${rss[1]}
  if [[ -z "$short" || -z "$long" ]]; then
    echo "flat_rss ${workload}: no peak_rss_mb in the result line" >&2; exit 1
  fi
  echo "   peak_rss_mb ${short} MiB at 2 s, ${long} MiB at 6 s"
  if awk -v s="$short" -v l="$long" 'BEGIN { exit !(l > 1.5 * s) }'; then
    echo "${workload} memory grows with run length: ${long} MiB > 1.5 x ${short} MiB" >&2
    exit 1
  fi
}

echo "== tier-1: release build =="
cargo build --release
# default-members excludes reach-bench; building every bin keeps the
# paper-artefact regenerators that no step below runs from rotting.
cargo build --release -p reach-bench --bins

echo "== tier-1: tests =="
cargo test -q

# table1 itself exits 1 when the static matrix and the running system
# disagree on any of the 24 cells; the diffs pin both outputs byte for
# byte, so a change to rule semantics or to the Figure 2 message flow
# has to show up as a change to a committed file.
echo "== tier-1: paper artefacts (Table 1, Figure 2 byte-identical to crates/bench/golden/) =="
for artefact in table1 figure2; do
  timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin "$artefact" \
    | diff "crates/bench/golden/${artefact}.txt" -
done

echo "== tier-1: group-commit smoke (batching + visibility invariants) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_commit -- --smoke

echo "== tier-1: server overload smoke (explicit shedding + bounded p99) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_serve -- --smoke

echo "== tier-1: snapshot-read smoke (zero reader locks under writer churn) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_snapshot -- --smoke

echo "== tier-1: distributed-commit smoke (2PC invariants at 2/4 shards) =="
timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_dist -- --smoke

# benchmark/ is a workspace of its own (path deps on crates/*), so the
# build and tests above never compile it: an API change in crates/* can
# break the yardstick unnoticed. Its test suite builds it, drives every
# workload briefly in both modes with the in-run correctness checks
# (what `run.sh --smoke` does), and checks the BENCHMARK.json contract
# and the generators' determinism.
echo "== tier-1: benchmark package tests (builds against crates/*, every workload correct, manifest contract) =="
timeout "$EXP_TIMEOUT" cargo test --offline -q --manifest-path benchmark/Cargo.toml

if [[ "$STRESS" == 1 ]]; then
  echo "== tier-1: concurrency stress smoke (perturbed schedules + differential fuzz + causal dependencies) =="
  timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --features sched --bin exp_stress -- --smoke
fi

if [[ "$BENCH_CHECK" == 1 ]]; then
  flat_rss monitor_embedded
  flat_rss dist_2pc
  echo "== tier-1: index smoke (lookups flat within 2x across populations, >5x the scan) =="
  timeout "$EXP_TIMEOUT" cargo run --release -p reach-bench --bin exp_index -- --smoke
fi

echo "== tier-1: OK =="
