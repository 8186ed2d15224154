#!/usr/bin/env bash
# Alternating parent/change pairs of the benchmark ledger (BENCHMARK.json).
#
#   scripts/pairs.sh <rev> <workload> <n> [first-seed]
#
# Builds the ledger of <rev> (in a temporary local clone, removed on exit)
# and of the working tree, both `--release --offline`, then runs <n> pairs
# of untraced runs at seeds first-seed+i (default 20170610). Neither side
# is given `--seconds`, so both run the length BENCHMARK.json declares
# (`run_seconds`). The order alternates: even pairs run the parent first
# (AB), odd pairs the change first (BA).
#
# Prints the EXPERIMENTS.md table — per pair the three end-to-end metrics
# on both sides — then per metric the median [quartiles] of each side, the
# change in per cent, the pairs the change won, and whether the claim rule
# holds (the change better in at least 9 of 10 pairs, and a median gap
# larger than the parent's interquartile distance). It diffs the
# `behaviour` lines of every pair and exits non-zero if any differ or any
# run is not correct. Statistics use python3's `statistics` module, whose
# quartiles are the ledger's. Not run by CI: it reads a clock.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    echo "usage: $0 <rev> <workload> <n> [first-seed]" >&2
    exit 2
fi
rev=$1 workload=$2 n=$3 first=${4:-20170610}

root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

echo "==> building the ledger at ${sha:0:7} (temporary clone) and at the working tree" >&2
git clone -q --shared --no-checkout "$root" "$tmp/parent"
git -C "$tmp/parent" checkout -q --detach "$sha"
cargo build --release --offline --quiet --manifest-path "$tmp/parent/ledger/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/ledger/Cargo.toml"
parent_bin=$tmp/parent/ledger/target/release/ledger
change_bin=$root/ledger/target/release/ledger

# One run: prints `<behaviour line>\t<last JSON line>` for the results file.
run() {
    local out
    out=$("$1" --workload "$workload" --seed "$2" --trace 0) || true
    printf '%s\t%s\n' "$(grep -m1 '^behaviour ' <<< "$out")" "$(tail -n1 <<< "$out")"
}

results=$tmp/results.tsv
for ((i = 0; i < n; i++)); do
    seed=$((first + i))
    if ((i % 2 == 0)); then order=AB; else order=BA; fi
    echo "==> pair $((i + 1))/$n seed $seed order $order" >&2
    if [[ $order == AB ]]; then
        a=$(run "$parent_bin" "$seed")
        b=$(run "$change_bin" "$seed")
    else
        b=$(run "$change_bin" "$seed")
        a=$(run "$parent_bin" "$seed")
    fi
    printf '%s\t%s\tparent\t%s\n%s\t%s\tchange\t%s\n' "$seed" "$order" "$a" "$seed" "$order" "$b" >> "$results"
done

python3 - "$results" "${sha:0:7}" "$workload" <<'EOF'
import json, statistics, sys

path, parent, workload = sys.argv[1:]
METRICS = [("wall_s", "lower"), ("feature_records_per_s", "higher"), ("setup_s", "lower")]
runs = {}
for line in open(path):
    seed, order, side, behaviour, last = line.rstrip("\n").split("\t")
    try:
        doc = json.loads(last)
    except ValueError:
        doc = {"correct": False, "failed": None, "metrics": {}}
    runs.setdefault((int(seed), order), {})[side] = (behaviour, doc)

def value(doc, name):
    m = doc["metrics"].get(name)
    return m["value"] if m else float("nan")

def fmt(name, v):
    return f"{v / 1000:.1f} k" if name == "feature_records_per_s" else f"{v:.3f}"

print(f"`{workload}`, parent {parent} vs the working tree, BENCHMARK.json's "
      "`run_seconds`, `--trace 0`, alternating (`AB` = parent first):\n")
head = " | ".join(f"`{m}` parent | change" for m, _ in METRICS)
print(f"| seed | order | {head} |")
print("|---|---|" + "---:|---:|" * len(METRICS))
ok = True
for (seed, order), sides in sorted(runs.items()):
    cells = []
    for m, _ in METRICS:
        cells += [fmt(m, value(sides[s][1], m)) for s in ("parent", "change")]
    print(f"| {seed} | {order} | " + " | ".join(cells) + " |")
print()

pairs = len(runs)
for m, better in METRICS:
    p = [value(s["parent"][1], m) for s in runs.values()]
    c = [value(s["change"][1], m) for s in runs.values()]
    def summary(xs):
        if len(xs) < 2:
            return f"{fmt(m, xs[0])}"
        q1, _, q3 = statistics.quantiles(xs, n=4)
        return f"{fmt(m, statistics.median(xs))} [{fmt(m, q1)}..{fmt(m, q3)}]"
    mp, mc = statistics.median(p), statistics.median(c)
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(p, c))
    iqr = (lambda q: q[2] - q[0])(statistics.quantiles(p, n=4)) if len(p) >= 2 else 0.0
    gap = (mp - mc) if better == "lower" else (mc - mp)
    holds = wins * 10 >= 9 * pairs and gap > iqr
    print(f"- `{m}` median [quartiles] {summary(p)} → {summary(c)}, "
          f"{(mc - mp) / mp * 100:+.1f} %, the change better in {wins} of {pairs} pairs; "
          f"gap {fmt(m, gap)} vs parent IQR {fmt(m, iqr)}: claim rule "
          f"{'holds' if holds else 'does not hold'}")

same = 0
for (seed, _), sides in sorted(runs.items()):
    (bp, dp), (bc, dc) = sides["parent"], sides["change"]
    for side, doc in (("parent", dp), ("change", dc)):
        if not doc.get("correct") or doc.get("failed") != 0:
            ok = False
            print(f"seed {seed}: the {side} run is not correct (failed {doc.get('failed')})")
    if bp == bc and bp:
        same += 1
    else:
        ok = False
        print(f"seed {seed}: behaviour differs\n  parent {bp}\n  change {bc}")
print(f"- `behaviour` lines identical in {same} of {pairs} pairs; "
      f"every run correct with zero failed operations: {'yes' if ok else 'no'}")
sys.exit(0 if ok else 1)
EOF
