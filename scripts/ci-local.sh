#!/usr/bin/env bash
# Reproduces the CI pipeline locally, offline: every tier-1 stage of
# scripts/verify.sh, then the CI gates verify.sh does not run (the
# determinism matrix, audit SARIF, the bench regression and multi-core
# gates), plus the nightly jobs from nightly.yml. If this passes, CI
# passes (modulo toolchain drift; CI also checks the pinned MSRV
# toolchain).
#
# Usage: scripts/ci-local.sh [--quick] [--sanitizers]
#   --quick       skip the nightly-tier jobs (fault matrices and
#                 resilience unit suites in release mode, overhead
#                 guards, telemetry snapshot, artifact smokes)
#   --sanitizers  additionally run the nightly sanitizer pass (TSan on
#                 np-parallel/np-serve, Miri on np-telemetry and the
#                 serde_json shim); each leg skips gracefully when the
#                 nightly toolchain or component is not installed
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
sanitizers=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --sanitizers) sanitizers=1 ;;
    *)
      echo "unknown flag: $arg" >&2
      exit 2
      ;;
  esac
done

scripts/verify.sh

echo "== determinism matrix under varied harness threads =="
cargo test -q --offline --test integration_parallel -- --test-threads 1
cargo test -q --offline --test integration_parallel -- --test-threads 8
cargo test -q --offline -p np-parallel -- --test-threads 1

echo "== np audit --sarif (CI annotation artifact) =="
audit_sarif="$(mktemp -t np-audit.XXXXXX.sarif)"
cargo run --release --offline --quiet -- audit --sarif "$audit_sarif"
echo "audit SARIF written to $audit_sarif"

echo "== bench regression gate (np bench diff vs baselines/ci.json) =="
bench_current="$(mktemp -t np-bench-current.XXXXXX.json)"
cargo run --release --offline --quiet -- bench --smoke --out "$bench_current" >/dev/null
cargo run --release --offline --quiet -- bench diff baselines/ci.json \
  --current "$bench_current" --noise 75

echo "== multi-core speedup gate (np bench diff + speedup) =="
# Mirrors the multicore-speedup CI job. The diff pins the deterministic
# half against the committed baseline on any machine; the speedup gate
# judges measured wall time within this run's own report and prints
# SKIP (still passing) on hosts without at least 2 hardware threads.
bench_multicore="$(mktemp -t np-bench-multicore.XXXXXX.json)"
cargo run --release --offline --quiet -- bench --smoke \
  --config baselines/ci-multicore.toml --out "$bench_multicore" >/dev/null
cargo run --release --offline --quiet -- bench diff baselines/ci-multicore.json \
  --current "$bench_multicore" --noise 150
cargo run --release --offline --quiet -- bench speedup --current "$bench_multicore"

if [[ "$quick" -eq 0 ]]; then
  echo "== nightly: fault-injection matrix (release) =="
  cargo test --release --offline --test integration_resilience

  echo "== nightly: exchange fault matrix (release) =="
  cargo test --release --offline --test integration_serve

  echo "== nightly: resilience unit suites (release) =="
  cargo test --release --offline -p np-resilience -p np-core -p np-counters

  echo "== nightly: telemetry overhead guard =="
  cargo test --release --offline -p np-bench --test telemetry_overhead

  echo "== nightly: sampler overhead guard =="
  cargo test --release --offline -p np-bench --test sampler_overhead

  echo "== nightly: telemetry snapshot =="
  snapshot="$(mktemp -t np-telemetry-snapshot.XXXXXX.json)"
  cargo run --release --offline --quiet -- stat \
    --workload row-major --size 48 --reps 3 --machine two-socket \
    --telemetry "$snapshot" >/dev/null
  echo "telemetry snapshot written to $snapshot"

  echo "== nightly: exchange load smoke (np loadgen --smoke) =="
  bench="$(mktemp -t np-bench-serve.XXXXXX.json)"
  cargo run --release --offline --quiet -- loadgen \
    --clients 8 --frames 16 --seed 1 --smoke --out "$bench"
  echo "exchange benchmark written to $bench"

  echo "== nightly: worker-pool smoke (np bench --config baselines/bench-parallel.toml) =="
  pbench="$(mktemp -t np-bench-pool.XXXXXX.json)"
  cargo run --release --offline --quiet -- bench --smoke \
    --config baselines/bench-parallel.toml --out "$pbench"
  echo "worker-pool benchmark written to $pbench"

  echo "== nightly: sampled campaign + HTML report (np run / np report) =="
  capture="$(mktemp -t np-capture.XXXXXX.json)"
  timeline="$(mktemp -t np-timeline.XXXXXX.json)"
  html="$(mktemp -t np-report.XXXXXX.html)"
  cargo run --release --offline --quiet -- run --sample \
    --workload row-major --size 256 --reps 3 --seed 1 \
    --machine two-socket --out "$capture" --timeline "$timeline" >/dev/null
  cargo run --release --offline --quiet -- report \
    --capture "$capture" --timeline "$timeline" --html --out "$html" >/dev/null
  echo "capture written to $capture; HTML report written to $html"

  echo "== nightly: full-registry pattern sweep artifact (np patterns) =="
  patterns_nightly="$(mktemp -t np-patterns-nightly.XXXXXX.json)"
  patterns_serial="$(mktemp -t np-patterns-serial.XXXXXX.json)"
  cargo run --release --offline --quiet -- patterns --verify --threads 8 \
    --out "$patterns_nightly"
  cargo run --release --offline --quiet -- patterns --verify --threads 1 \
    --out "$patterns_serial"
  # The document is deterministic at any pool width: the wide run must
  # be byte-identical to the serial one.
  diff -u "$patterns_serial" "$patterns_nightly"
  echo "pattern sweep document written to $patterns_nightly"

  echo "== nightly: benchmark trend (np bench trend --append) =="
  history="$(mktemp -t np-bench-history.XXXXXX.jsonl)"
  cargo run --release --offline --quiet -- bench trend \
    --append "$history" --current "$bench_current"
  echo "benchmark history written to $history"
fi

if [[ "$sanitizers" -eq 1 ]]; then
  # Mirrors nightly.yml's sanitizers job. Both legs need the nightly
  # toolchain (-Zsanitizer / Miri are unstable); each skips with a note
  # instead of failing when its prerequisites are missing, so the flag
  # is safe to pass on any machine.
  host="$(rustc -vV | sed -n 's/^host: //p')"

  echo "== sanitizers: ThreadSanitizer (np-parallel, np-serve) =="
  if rustup run nightly rustc --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
      | grep -q '^rust-src (installed)'; then
    RUSTFLAGS="-Zsanitizer=thread" \
      cargo +nightly test --offline -Zbuild-std \
      --target "$host" -p np-parallel -p np-serve
  else
    echo "skip: nightly toolchain with rust-src not installed" \
      "(rustup toolchain install nightly --component rust-src)"
  fi

  echo "== sanitizers: Miri (np-telemetry, serde_json shim) =="
  if cargo +nightly miri --version >/dev/null 2>&1; then
    cargo +nightly miri test --offline -p np-telemetry -p serde_json
  else
    echo "skip: miri not installed" \
      "(rustup component add miri --toolchain nightly)"
  fi
fi

echo "ci-local: OK"
