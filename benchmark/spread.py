#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the driver measures it.

Runs every workload (or the ones named) `--runs` times untraced, each time
with another seed, and prints for each end-to-end metric the distance between
the first and third quartile of its values as a share of their median
(`statistics.quantiles(values, n=4)`), beside the metric's bound in
BENCHMARK.json. A spread above a third of the bound is flagged `wide`, above
the bound `OVER`. Raw values go to out/spread-<workload>.json.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload, seed, seconds):
    out = subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(workload, runs):
    """Prints one workload's spreads; returns the largest as a share of its bound."""
    worst = 0.0
    for metric in SPEC["end_to_end"]:
        values = [r[metric["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
            flag = "OVER" if spread > metric["bound"] else "wide" if spread > metric["bound"] / 3 else ""
        print(f"  {metric['name']:<16} median {median:>14.6f} {metric['unit']:<4} "
              f"spread {spread:7.2%}  bound {metric['bound']:.0%}  {flag}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = ap.parse_args()
    worst = 0.0
    for workload in args.workloads:
        runs = [run(workload, args.first_seed + i, SPEC["run_seconds"]) for i in range(args.runs)]
        (HERE / "out").mkdir(exist_ok=True)
        (HERE / "out" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        worst = max(worst, report(workload, runs))
    print(f"largest spread is {worst:.2f} of its bound")
    return 1 if worst > 1 else 0


if __name__ == "__main__":
    sys.exit(main())
