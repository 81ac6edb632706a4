#!/usr/bin/env bash
# Full local verification gate. Every stage exits non-zero on failure:
#   fmt, clippy -D warnings, rustdoc -D warnings, release build, tests
#   vision:       optimised, the SIFT golden oracle and the full 10^7 angle-bin sweeps
#   recognition:  optimised, the recognised frames of the whole camera loop through the
#                 services' stage functions and the wire codec (tests/recognition.rs)
#   portable ISA: the vision tests again from a `-C target-cpu=x86-64` build, so
#                 the native build (.cargo/config.toml) and a portable one
#                 reproduce the same output bits (tests/isa_digest.rs)
#   figure suite: `all --json` is byte-identical at SCATTER_JOBS=1 and 2, no table
#                 excluded; parallel == sequential
#   telemetry:    the live metrics plane reconciles with the post-hoc report
#   chaos:        DES and real-UDP runtime agree exactly on crash-attributed drops
#   resilience:   heartbeat detection, failover and the degradation ladder hold their gates
#   wire:         both planes agree on bytes-on-wire and CRC drops; v2 beats v1 over LTE
#   observatory:  tail retention, bit-identical replay, overhead bound, cross-plane faults
#   ledger:       the benchmark package builds against this workspace's frozen API
#                 footprint, its tests pass, and all four workloads pass at smoke length
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace libraries, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --lib

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> vision, optimised: SIFT golden oracle and the full angle-bin sweeps"
cargo test -q --release -p vision

echo "==> recognition oracle, optimised: the whole camera loop's recognised frames at seeds 7 and 1009"
cargo test -q --release -p experiments --test recognition

echo "==> vision, portable ISA: the same output bits from a baseline x86-64 build"
RUSTFLAGS="-C target-cpu=x86-64" cargo test -q --release -p vision --target-dir target/baseline-isa

echo "==> whole-suite determinism: all --json at SCATTER_JOBS=1 and 2, byte for byte"
suite=$(mktemp -d)
trap 'rm -rf "$suite"' EXIT
SCATTER_EXP_SECS=2 SCATTER_JOBS=1 ./target/release/all --json > "$suite/jobs1.json"
SCATTER_EXP_SECS=2 SCATTER_JOBS=2 ./target/release/all --json > "$suite/jobs2.json"
cmp "$suite/jobs1.json" "$suite/jobs2.json"

echo "==> perf smoke: parallel-vs-sequential determinism"
cargo test -q -p experiments --test parallel_determinism

echo "==> telemetry smoke: live plane reconciles with the post-hoc report"
SCATTER_EXP_SECS=8 SCATTER_JOBS=2 ./target/release/telemetry --smoke --json > /dev/null

echo "==> chaos smoke: DES and runtime agree on crash-attributed drops"
./target/release/chaos --smoke --json > /dev/null

echo "==> resilience smoke: detection, failover, and the degradation ladder hold their gates"
./target/release/resilience --smoke --json > /dev/null

echo "==> wire smoke: planes agree on bytes-on-wire and CRC drops; v2 beats v1 over LTE"
./target/release/wire --smoke --json > /dev/null

echo "==> observatory smoke: retention, replay, overhead, and cross-plane fault gates"
./target/release/observatory --smoke --json > /dev/null

echo "==> ledger: the benchmark package still builds against the public API and its tests pass"
cargo test -q --manifest-path ledger/Cargo.toml

echo "==> ledger smoke: all four workloads run and pass their correctness checks"
cargo run --release --quiet --manifest-path ledger/Cargo.toml -- run --smoke > /dev/null

echo "verify: all green"
