#!/usr/bin/env bash
# Alternating pairs of the repo benchmark: a parent commit against the working
# tree, the procedure behind every row of ROADMAP's performance ledger.
#
#   tools/bench_pairs.sh <workload> <parent-ref> [pairs=10]
#
# Checks `<parent-ref>` out into a scratch directory (`git archive`: the
# repository's own work tree and index are not touched), snapshots the working
# tree beside it (tracked and untracked-but-not-ignored files, so edits made
# while the pairs run do not leak in), builds each side's benchmark package
# once into its own target directory, then runs `benchmark/run.sh --workload
# <workload>` on both sides `pairs` times, alternating which side goes first.
# Prints, per end-to-end metric: each side's median and quartiles, the change
# of the median, and how many pairs the working tree won (ties count for
# neither side). The claim rule (docs/BENCHMARKS.md): at least nine pairs in
# ten won, and medians apart by more than the parent's interquartile range.
#
# Environment: SEED (42), SECONDS_PER_RUN (10), TRACE (0; 1 compares the
# per-layer metrics instead), SCRATCH (a fresh `mktemp -d`; kept, and named
# at the end, so the raw result lines can be re-read).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
workload="$1"
parent_ref="$2"
pairs="${3:-10}"
seed="${SEED:-42}"
seconds="${SECONDS_PER_RUN:-10}"
trace="${TRACE:-0}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
scratch="${SCRATCH:-$(mktemp -d "${TMPDIR:-/tmp}/pai-bench-pairs.XXXXXX")}"
mkdir -p "$scratch/parent" "$scratch/change"

git -C "$repo" archive "$parent_ref" | tar -xf - -C "$scratch/parent"
(cd "$repo" && git ls-files -co --exclude-standard -z | tar --null -T - -cf -) |
    tar -xf - -C "$scratch/change"

run() { # side
    CARGO_TARGET_DIR="$scratch/$1-target" bash "$scratch/$1/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        2>>"$scratch/$1.log" | tail -n 1 >>"$scratch/$1.jsonl"
}

for side in parent change; do
    echo "building $side ..." >&2
    CARGO_TARGET_DIR="$scratch/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$scratch/$side/benchmark/Cargo.toml"
    : >"$scratch/$side.jsonl"
done

for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    echo "pair $i/$pairs: $order" >&2
    for side in $order; do run "$side"; done
done

python3 - "$scratch" "$repo/BENCHMARK.json" "$workload" "$parent_ref" <<'EOF'
import json, statistics, sys

scratch, declared, workload, ref = sys.argv[1:5]
spec = json.load(open(declared))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def load(side):
    runs = [json.loads(line) for line in open(f"{scratch}/{side}.jsonl") if line.strip()]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return [r["metrics"] for r in runs], failed, attempted


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


parent, p_failed, p_attempted = load("parent")
change, c_failed, c_attempted = load("change")
print(f"{workload}: {ref} -> working tree, {len(parent)} pairs")
print(f"failed/attempted: parent {p_failed}/{p_attempted}, change {c_failed}/{c_attempted}")
head = f"{'metric':<34}{'parent q1 / median / q3':>48}{'change q1 / median / q3':>48}{'median':>9}{'won':>7}"
print(head)
for name in parent[0]:
    if name not in change[0]:
        continue
    ps = [m[name]["value"] for m in parent]
    cs = [m[name]["value"] for m in change]
    lower = better.get(name, "lower") == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
    pq, cq = quartiles(ps), quartiles(cs)
    delta = f"{(cq[1] / pq[1] - 1) * 100:+.1f}%" if pq[1] else "n/a"
    fmt = lambda q: " / ".join(f"{x:.10g}" for x in q)
    print(f"{name:<34}{fmt(pq):>48}{fmt(cq):>48}{delta:>9}{won:>4}/{len(ps)}")
EOF
echo "raw result lines and run logs: $scratch" >&2
