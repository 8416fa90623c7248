#!/usr/bin/env bash
# Runs the repository benchmark's own correctness check on each of its
# workloads: one short untraced run each, which fails unless the run's
# result line (the last line of its output) reads `"correct": true`.
# No timing is judged.
#
# Usage: scripts/bench-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

for workload in evsel-campaign memhist-profile exchange; do
  last="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seconds 1 --trace 0 | tail -n 1)"
  case "$last" in
    *'"correct": true'*) echo "$workload: correct" ;;
    *)
      echo "$workload: the benchmark's correctness check failed: $last" >&2
      exit 1
      ;;
  esac
done
