#!/usr/bin/env bash
# The full local CI gate: formatting, clippy, the static-analysis gate,
# and the test suite. Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

# Runs one gate (`timed_gate <name> <cmd...>`) and prints how long it
# took. The 60 s bound is soft: past it the gate *warns*, because a busy
# box is not a broken build. The command's own exit status still fails
# the script.
timed_gate() {
    local name=$1
    shift
    local start elapsed
    start=$(date +%s)
    "$@"
    elapsed=$(( $(date +%s) - start ))
    echo "    ${name} finished in ${elapsed}s"
    if [ "$elapsed" -ge 60 ]; then
        echo "    WARNING: ${name} took ${elapsed}s (soft bound: 60 s)" >&2
    fi
}

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> the ledger compiles (every pub item it calls still exists)"
# `ledger/` is outside the workspace; a deleted or privatized item it
# calls fails here in seconds instead of at the ledger step at the end.
cargo check --offline --manifest-path ledger/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (intra-doc links resolve; warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "==> athena-lint (whole-workspace analysis gate)"
# Build outside the timer: the gate bounds analysis time, not compile
# time.
cargo build -q --release --offline -p athena-analyze --bin athena-lint
timed_gate "analysis gate" \
    ./target/release/athena-lint --root . --json target/analysis-report.json
test -s target/analysis-report.json

echo "==> analysis violation corpus (each rule fires exactly once)"
cargo test -q -p athena-analyze --offline --test corpus

# ATHENA_CHAOS_SMOKE=1 keeps the chaos matrix on the light workload in
# CI (the full scenario matrix still runs — no scenario is skipped).
# e2e_matrix (every Table-IV attack x algorithm cell against its recorded
# baselines) and e2e_stream (the online-vs-batch sweep) archive their
# reports; both run at smoke scale whatever the variable says.
echo "==> cargo test (chaos smoke workload)"
rm -f target/BENCH_matrix.json target/BENCH_stream.json
ATHENA_CHAOS_SMOKE=1 cargo test -q --workspace --offline
test -s target/BENCH_matrix.json
test -s target/BENCH_stream.json

echo "==> chaos matrix gate (every scenario x both detectors)"
timed_gate "chaos matrix" \
    env ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_failures

echo "==> recovery gate (kill mid-run, recover from disk, diff verdicts)"
timed_gate "recovery gate" \
    env ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_recovery

echo "==> persistence corruption property tests (bit flips never panic)"
cargo test -q -p athena-persist --offline --test proptest_persist

echo "==> openflow codec property tests (round-trip + decode-never-panics)"
cargo test -q -p athena-openflow --offline --test proptest_codec

echo "==> flow-table differential property test (indexed table vs sorted scan)"
cargo test -q -p athena-openflow --offline --test proptest_table

echo "==> poll-accounting property test (hostile replies, both XID marks)"
cargo test -q -p athena-controller --offline --test proptest_poll

echo "==> microbench compiles (flow_table/*, controller/shortest_path/*; not run here)"
cargo bench --no-run -q -p athena-bench --bench micro --offline

echo "==> telemetry overhead microbench (smoke mode)"
ATHENA_BENCH_SMOKE=1 cargo bench -q -p athena-telemetry --offline --bench overhead

echo "==> telemetry report artifact (target/telemetry-report.json)"
ATHENA_TELEMETRY_REPORT=target/telemetry-report.json \
    cargo test -q --offline --test e2e_scalability \
    results_are_invariant_to_cluster_size_and_time_decreases
test -s target/telemetry-report.json

echo "==> parallel smoke gate (width determinism + lock sentinel)"
# ATHENA_LOCK_SENTINEL=1 makes every tracked acquisition record its order
# edges, cross-checked against [analyze] lock_order.
timed_gate "parallel gate" \
    env ATHENA_LOCK_SENTINEL=1 ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_determinism

echo "==> observe gate (chaos-alert round trip + causal traces + health table)"
# The e2e writes target/chrome-trace.json and target/observe-report.json;
# athena_top prints the live health table and rewrites the report.
cargo build -q --release --offline -p athena-bench --bin athena_top
observe_gate() {
    ATHENA_CHAOS_SMOKE=1 cargo test -q --release --offline --test e2e_observe
    ATHENA_BENCH_SMOKE=1 ./target/release/athena_top
}
timed_gate "observe gate" observe_gate
test -s target/chrome-trace.json
test -s target/observe-report.json

echo "==> streaming gate (hot-swap e2e + online-vs-batch sweep)"
# The e2e drives a live retrain + hot-swap under ddos_flood, asserts the
# ≤ 15 virtual-s detection-continuity bound, and re-runs composed with
# the controller-crash chaos scenario.
timed_gate "streaming gate" \
    env ATHENA_CHAOS_SMOKE=1 cargo test -q --release --offline --test e2e_stream

echo "==> scale gate (batched engine byte-identity at ATHENA_THREADS 1/2/4/8)"
# DDoS, a chaos schedule, and a k = 8 fat-tree on 16 shards, in release.
# Never skipped. Throughput at scale is the ledger's fat_tree_scale.
timed_gate "scale gate" cargo test -q --release --offline --test e2e_scale

echo "==> ledger (the BENCHMARK.json package: unit tests + one short traced run per workload)"
# `ledger/` is a package of its own outside the workspace, so nothing
# above compiles it. Each run checks its own outputs (`correct`, zero
# failed operations, every declared metric produced) through its exit
# status, and its `behaviour` line — digests, counts, DR/FAR: the same
# for a seed whatever `--seconds` or `--trace` — must be the committed
# one, and so must the deterministic counts among its per-layer metrics.
# The timed metrics are printed for the log, never judged here: timing
# is settled by alternating pairs in the PR that changes it.
cargo test -q --offline --manifest-path ledger/Cargo.toml
counts='^(store\.docs|store\.inserts|controller\.flow_mods|controller\.stats_reply_calls|controller\.batch_calls|compute\.tasks|dataplane\.steps)$'
: > target/ledger_behaviour.txt
: > target/ledger_counts.txt
for w in ddos_detect cbench_saturate fat_tree_scale nb_analytics; do
    out=$(cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- \
        --workload "$w" --seconds 3 --trace 1)
    grep -v '^{' <<< "$out"
    grep '^behaviour ' <<< "$out" | sed "s/^/$w /" >> target/ledger_behaviour.txt
    awk -v w="$w" -v counts="$counts" '$1 ~ counts { print w, $1, $2 }' <<< "$out" \
        >> target/ledger_counts.txt
done
diff -u scripts/ledger_behaviour.golden target/ledger_behaviour.txt
diff -u scripts/ledger_counts.golden target/ledger_counts.txt

echo "CI gate passed."
