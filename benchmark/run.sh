#!/usr/bin/env bash
# Builds the carve benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                      every workload, untraced, one child process each
#   benchmark/run.sh --trace              the same, then every workload traced
#   benchmark/run.sh --selfcheck          the untraced set twice, compared against the bounds
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one workload; the last line printed is its result JSON
#   benchmark/run.sh --spec               prints BENCHMARK.json from the metric tables
#
# The build goes to $CARGO_TARGET_DIR, or to target/benchmark if that is unset;
# result-*.json and trace-*.json files are written there too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/carve-benchmark" "$@"
