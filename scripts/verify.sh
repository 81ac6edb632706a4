#!/usr/bin/env bash
# Full local verification gate: formatting, lints, build, tests, a
# telemetry smoke stage (the live metrics plane reconciles against the
# post-hoc report, the binary exits non-zero on drift), a chaos smoke
# stage (the DES and the real-UDP runtime must agree bit-exactly on
# crash-attributed drops under one seeded fault schedule), a resilience
# smoke stage (heartbeat detection, failover, and the degradation
# ladder hold their cross-plane gates), a wire smoke stage (both
# planes agree exactly on bytes-on-wire and CRC-drop counts, and v2
# beats v1 over the cellular profile), an observatory smoke stage
# (tail-sampling retention, bit-identical replay, cross-plane fault
# agreement, and the observability-overhead bound), and a perf smoke
# stage (parallel figure suite completes, parallelism is deterministic,
# DES throughput has not regressed below the floor in BENCH_2.json,
# and the newest committed BENCH_<n>.json has not regressed >10 %
# events/sec or >20 % peak RSS against the previous one), and a ledger
# stage (the benchmark package in `ledger/` compiles against a frozen
# footprint of this workspace's public API and is never edited by a PR
# that claims a gain: a signature change there is a failed benchmark
# run, and this is where it is found locally — its tests, then every
# workload once at smoke length with the correctness checks on).
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> perf smoke: parallel figure suite completes"
SCATTER_EXP_SECS=2 SCATTER_JOBS=2 ./target/release/all > /dev/null

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

echo "==> data-plane smoke: batched loopback pps floor and 2x edge from BENCH_9.json"
./target/release/udpbench --smoke BENCH_9.json

echo "==> perf smoke: DES throughput floor from BENCH_2.json"
./target/release/perfbench --smoke BENCH_2.json

echo "==> scale smoke: 100k-client throughput floor and peak-RSS ceiling from BENCH_7.json"
./target/release/perfbench --smoke-scale BENCH_7.json

echo "==> bench diff: newest BENCH_<n>.json vs previous"
./target/release/perfbench --diff

echo "==> ledger: the benchmark package still builds against the public API and its tests pass"
cargo test -q --manifest-path ledger/Cargo.toml

echo "==> ledger smoke: all four workloads run and pass their correctness checks"
cargo run --release --quiet --manifest-path ledger/Cargo.toml -- run --smoke > /dev/null

echo "verify: all green"
