#!/usr/bin/env bash
# Builds the benchmark offline, runs its tests (which run all five
# workloads at smoke scale), then a smoke run compared with itself.
# Independent of scripts/ci.sh, which covers the workspace.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
run() { cargo run --release --offline --quiet -- "$@"; }
run run --smoke --repeat 2 --out "$out/a.json"
# Host time at 1/50 scale is all noise, so the gate is the comparison noise
# cannot touch; exactness across two runs is gated by the tests above.
run compare "$out/a.json" "$out/a.json"
echo "benchmark CI OK"
