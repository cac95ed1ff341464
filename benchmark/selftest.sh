#!/usr/bin/env bash
# Build the benchmark, run its unit tests, run all five workloads at
# smoke size (untraced and traced), and compare the smoke result set
# with itself. Exits non-zero on the first failure. Run from anywhere;
# a CI job can call this as one step.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
out=benchmark/out/selftest
mkdir -p "$out"

cargo build --release --offline --manifest-path "$manifest"
cargo test --offline --quiet --manifest-path "$manifest"

bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}

bench manifest | diff - BENCHMARK.json
bench all --smoke --seconds 1 --out "$out" --report "$out/smoke.json"
bench all --smoke --seconds 1 --trace 1 --out "$out" --report "$out/smoke-trace.json"
bench compare "$out/smoke.json" "$out/smoke.json"
echo "selftest: ok"
