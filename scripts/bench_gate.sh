#!/usr/bin/env bash
# Perf-regression gate: run the smoke benchmark into a temporary directory
# and compare its per-phase timings with the newest committed
# BENCH_PR*.json. Writes no tracked file. Fails (exit 1) if any phase's mean
# seconds regressed beyond the tolerance.
#
# Recording a new baseline is an explicit step, not part of the gate:
#   cargo build --release -p carve-bench --bin bench_smoke
#   ./target/release/bench_smoke BENCH_PR<k>.json   # then commit it
#
# Knobs (env):
#   BENCH_GATE_TOLERANCE  fractional slowdown allowed per phase (default 0.25)
#   BENCH_GATE_MIN_SECS   ignore phases faster than this (default 0.005)
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=$(ls BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1 || true)
if [[ -z "$baseline" ]]; then
  echo "bench_gate: no committed BENCH_PR*.json to compare with" >&2
  exit 1
fi

cargo build --release -q -p carve-bench --bin bench_smoke
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
./target/release/bench_smoke "$tmp/report.json"
./target/release/bench_smoke --compare "$baseline" "$tmp/report.json"
echo "bench_gate: no regression against $baseline"
