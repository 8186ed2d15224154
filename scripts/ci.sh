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

echo "==> unused-pub over fields (names in tests/ and ledger/src count; serde structs and test regions exempt; pub(crate) flagged)"
cargo test -q --offline --test static_analysis unused_pub_field

echo "==> one tally per event (views equal registry rows after a chaos run; registered counters count before bind and under an off domain; every SB tracker sums into one row; a rebuilt deployment reports each event once)"
cargo test -q -p athena-telemetry --offline --lib -- \
    a_count_made_before_registration_shows_in_view_and_report \
    a_count_made_under_an_off_domain_shows_in_view_and_report \
    handles_registered_under_one_key_report_their_sum \
    disabled_domain_counts_but_samples_nothing
cargo test -q -p athena-core --offline --lib -- \
    lost_replies_are_retried_with_backoff_then_dropped \
    every_instance_tracker_reports_into_one_row
cargo test -q -p athena-controller --offline --lib -- \
    a_deployment_rebuilt_in_one_process_reports_each_event_once
ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_failures \
    fault_retry_and_failover_counters_surface_in_telemetry

echo "==> one registration contract (histograms and gauges registered like counters; no instrument swapped; a store batch takes only its shard locks)"
cargo test -q -p athena-telemetry --offline --lib -- \
    disabled_domain_counts_but_samples_nothing \
    an_enabled_domain_records_what_follows_registration \
    histograms_under_one_key_report_their_merged_samples \
    a_gauge_key_reports_the_gauge_registered_last
cargo test -q -p athena-core --offline --test lock_counts
ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_failures \
    fault_retry_and_failover_counters_surface_in_telemetry

echo "==> one route computation (Routes serves the apps, the SB's quarantine hop, the stub's ECMP walk and crossfire; engine and wire-mode digests pinned)"
cargo test -q -p athena-dataplane --offline --test golden_engine
cargo test -q -p athena-dataplane --offline --test proptest_network shortest_paths_are_sane
cargo test -q -p athena-dataplane --offline --lib topology::
cargo test -q -p athena-controller --offline --lib -- apps::fwd apps::lb apps::security
cargo test -q --offline --release --test e2e_wire_mode

echo "==> one lock type (no untracked production lock; the apps' handler locks in lock_order)"
# The apps' locks are taken inside event-handler closures the derived
# graph does not resolve: the sentinel test checks their runtime order.
cargo test -q --offline --test static_analysis every_production_lock_is_sentinel_tracked
cargo test -q --offline --test e2e_determinism sentinel_orders_the_apps_locks_after_the_core_locks

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

echo "==> persistence property tests (bit flips never panic; records round-trip, a mangled member is refused)"
cargo test -q -p athena-persist --offline --test proptest_persist
cargo test -q --offline --test proptest_records

echo "==> openflow codec property tests (round-trip + decode-never-panics)"
cargo test -q -p athena-openflow --offline --test proptest_codec

echo "==> flow-table differential property test (indexed table vs sorted scan)"
cargo test -q -p athena-openflow --offline --test proptest_table

echo "==> poll-accounting property test (hostile replies, both XID marks)"
cargo test -q -p athena-controller --offline --test proptest_poll

echo "==> feature record = stored document (shared name lists; a mixed-layout batch indexes as singletons)"
cargo test -q -p athena-core --offline --test golden_documents --test proptest_record
cargo test -q -p athena-store --offline --test proptest_store -- \
    a_body_under_a_shared_list_is_its_members_collected \
    one_batch_of_two_layouts_indexes_as_documents_one_at_a_time

echo "==> southbound ingest (one-hash flow-stats path = set-based oracle; bson_len = a reference encoder)"
cargo test -q -p athena-core --offline --lib feature::generator::tests::flow_stats_features_equal_the_set_based_oracle
cargo test -q -p athena-store --offline --test proptest_store bson_len

echo "==> detector read path (reader = values; one-walk metadata = lookups; fit_apply = fit + apply)"
cargo test -q -p athena-core --offline --test proptest_record -- \
    a_reader_reads_what_values_reads_whatever_layout_comes_next \
    a_record_reads_what_the_lookups_read_whatever_the_keys_hold
cargo test -q -p athena-ml --offline --test proptest_ml fit_apply_is_fit_then_apply

echo "==> one fit per algorithm (any training-set size fits what \`Algorithm::fit\` fits; bounded k-means = Lloyd oracle; restarts bit-identical at every width)"
cargo test -q -p athena-core --offline --lib nb::detector_manager::tests::small_datasets_train_single_node
cargo test -q -p athena-ml --offline --lib algorithms::kmeans::tests::bounded_fit_is_the_lloyd_oracle
cargo test -q -p athena-ml --offline --lib algorithms::kmeans::tests::the_fit_is_bit_identical_at_every_width

echo "==> microbench compiles (flow_table/*, controller/shortest_path/*; not run here)"
cargo bench --no-run -q -p athena-bench --bench micro --offline

echo "==> telemetry overhead microbench (smoke mode)"
ATHENA_BENCH_SMOKE=1 cargo bench -q -p athena-telemetry --offline --bench overhead

echo "==> parallel smoke gate (width determinism + lock sentinel)"
# ATHENA_LOCK_SENTINEL=1 makes every tracked acquisition record its order
# edges, cross-checked against [analyze] lock_order.
timed_gate "parallel gate" \
    env ATHENA_LOCK_SENTINEL=1 ATHENA_CHAOS_SMOKE=1 cargo test -q --offline --test e2e_determinism

echo "==> observe gate (chaos-alert round trip + causal traces + health table)"
# The e2e writes target/chrome-trace.json and target/observe-report.json
# (the one report: alerts, series and the metric snapshot) and checks
# both; athena_top prints the live health table and writes no file.
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
