#!/usr/bin/env bash
# Tier-1 verification: style, lints, release build, full test suite.
#
# Everything runs offline — external crates are replaced by the in-tree
# shims under crates/shims/ (see Cargo.toml), so an empty registry cache
# is fine.
set -euo pipefail
cd "$(dirname "$0")/.."

# Scratch files of this run, removed on exit whether the run passes or not.
tmp="$(mktemp -d -t np-verify.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "== cargo fmt --all --check =="
cargo fmt --all --check

echo "== cargo clippy (workspace, all targets, -D warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q =="
cargo test -q --offline

echo "== cargo test -q --workspace =="
cargo test -q --workspace --offline

echo "== benchmark package tests (own workspace under benchmark/) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== one-run acquisition oracle, full registry (release) =="
cargo test --release --offline --test differential_acquisition -- --include-ignored

echo "== np audit (concurrency & determinism audit) =="
audit_inv="$tmp/unsafe-inventory.md"
cargo run --release --offline --quiet -- audit --inventory "$audit_inv"
# The committed unsafe inventory must match the tree: a new unsafe block
# lands together with its SAFETY justification and inventory line.
diff -u UNSAFE_INVENTORY.md "$audit_inv"

echo "== np analyze (static envelopes vs engine, all workloads) =="
cargo run --release --offline --quiet -- analyze --machine two-socket --size 96

echo "== np patterns --verify (labeled-registry calibration proof) =="
cargo run --release --offline --quiet -- patterns --verify \
  --out "$tmp/patterns.json"

echo "== np bench --smoke (matrix harness smoke, determinism audit) =="
cargo run --release --offline --quiet -- bench --smoke \
  --out "$tmp/bench-smoke.json"

echo "tier-1 verify: OK"
