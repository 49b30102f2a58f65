#!/usr/bin/env bash
# Alternating pairs of the repo benchmark: a parent commit against the working
# tree, the procedure behind every row of ROADMAP's performance ledger.
#
#   tools/bench_pairs.sh <workload>[,<workload>...]|all <parent-ref> [pairs=10]
#
# Checks `<parent-ref>` out into a scratch directory (`git archive`: the
# repository's own work tree and index are not touched), snapshots the working
# tree beside it (tracked and untracked-but-not-ignored files, so edits made
# while the pairs run do not leak in), builds each side's benchmark package
# once into its own target directory, then, workload by workload (`all`: every
# one `BENCHMARK.json` declares), runs `benchmark/run.sh --workload <workload>`
# on both sides `pairs` times, alternating which side goes first.
# Prints, per workload and metric: each side's median and quartiles, the change
# of the median, how many pairs the working tree won (ties count for neither
# side), and for the metrics `BENCHMARK.json` bounds a verdict:
#   better      at least nine pairs in ten won and the medians apart by more
#               than the parent's interquartile range (the claim rule,
#               docs/BENCHMARKS.md)
#   worse       the median worse than the parent's by more than the bound
#   unresolved  the parent's interquartile range over its median is wider than
#               the bound, and not every run of the change reads better than
#               every run of the parent: the runs cannot tell
#   within      none of those: no worse than the bound allows
# so one command covers the claim and the no-regression half beside it.
#
# Environment: SEED (42), SECONDS_PER_RUN (10), TRACE (0; 1 compares the
# per-layer metrics instead), SCRATCH (a fresh `mktemp -d`; kept, and named
# at the end, so the raw result lines can be re-read).
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent_ref="$2"
pairs="${3:-10}"
seed="${SEED:-42}"
seconds="${SECONDS_PER_RUN:-10}"
trace="${TRACE:-0}"

repo="$(cd "$(dirname "$0")/.." && pwd)"
if [ "$1" = all ]; then
    workloads="$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
        "$repo/BENCHMARK.json")"
else
    workloads="${1//,/ }"
fi
scratch="${SCRATCH:-$(mktemp -d "${TMPDIR:-/tmp}/pai-bench-pairs.XXXXXX")}"
mkdir -p "$scratch/parent" "$scratch/change"

git -C "$repo" archive "$parent_ref" | tar -xf - -C "$scratch/parent"
(cd "$repo" && git ls-files -co --exclude-standard -z | tar --null -T - -cf -) |
    tar -xf - -C "$scratch/change"

run() { # side workload
    CARGO_TARGET_DIR="$scratch/$1-target" bash "$scratch/$1/benchmark/run.sh" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace "$trace" \
        2>>"$scratch/$1.log" | tail -n 1 >>"$scratch/$1.$2.jsonl"
}

for side in parent change; do
    echo "building $side ..." >&2
    CARGO_TARGET_DIR="$scratch/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$scratch/$side/benchmark/Cargo.toml"
done

for workload in $workloads; do
    : >"$scratch/parent.$workload.jsonl"
    : >"$scratch/change.$workload.jsonl"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        echo "$workload pair $i/$pairs: $order" >&2
        for side in $order; do run "$side" "$workload"; done
    done

    python3 - "$scratch" "$repo/BENCHMARK.json" "$workload" "$parent_ref" <<'EOF'
import json, statistics, sys

scratch, declared, workload, ref = sys.argv[1:5]
spec = json.load(open(declared))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}


def load(side):
    path = f"{scratch}/{side}.{workload}.jsonl"
    runs = [json.loads(line) for line in open(path) if line.strip()]
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return [r["metrics"] for r in runs], failed, attempted


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(name, ps, cs, pq, cq, won, lost):
    if name not in bounds:
        return "-"
    sign = 1 if better.get(name, "lower") == "lower" else -1
    worse_by = sign * (cq[1] - pq[1])  # > 0: the change's median is worse
    base = abs(pq[1])
    decided = won + lost
    if worse_by < 0 and decided and won >= 0.9 * decided and -worse_by > pq[2] - pq[0]:
        return "better"
    beats_all = all(sign * (c - p) < 0 for c in cs for p in ps)
    if base and (pq[2] - pq[0]) / base > bounds[name] and not beats_all:
        return "unresolved"
    if worse_by > bounds[name] * base:
        return "worse"
    return "within"


parent, p_failed, p_attempted = load("parent")
change, c_failed, c_attempted = load("change")
print(f"{workload}: {ref} -> working tree, {len(parent)} pairs")
print(f"failed/attempted: parent {p_failed}/{p_attempted}, change {c_failed}/{c_attempted}")
head = (
    f"{'metric':<34}{'parent q1 / median / q3':>48}{'change q1 / median / q3':>48}"
    f"{'median':>9}{'won':>7}  verdict"
)
print(head)
for name in parent[0]:
    if name not in change[0]:
        continue
    ps = [m[name]["value"] for m in parent]
    cs = [m[name]["value"] for m in change]
    lower = better.get(name, "lower") == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in zip(ps, cs))
    lost = sum((c > p) if lower else (c < p) for p, c in zip(ps, cs))
    pq, cq = quartiles(ps), quartiles(cs)
    delta = f"{(cq[1] / pq[1] - 1) * 100:+.1f}%" if pq[1] else "n/a"
    fmt = lambda q: " / ".join(f"{x:.10g}" for x in q)
    print(
        f"{name:<34}{fmt(pq):>48}{fmt(cq):>48}{delta:>9}{won:>4}/{len(ps)}"
        f"  {verdict(name, ps, cs, pq, cq, won, lost)}"
    )
print()
EOF
done
echo "raw result lines and run logs: $scratch" >&2
