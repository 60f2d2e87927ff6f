#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark command from BENCHMARK.json once per seed and prints,
for every metric, the median and quartiles across the runs and the
interquartile distance as a share of the median, next to the metric's
bound. Run it from the repository root:

    python3 perfbench/spread.py --workload oltp-s200 --seeds 1-10
    python3 perfbench/spread.py --workload olap-s1500 --seeds 11-20 \
        --out first.json
    python3 perfbench/spread.py --workload olap-s1500 --seeds 11-20 \
        --baseline first.json

With --baseline, each metric's median is also compared with the median
saved there by an earlier --out, as a share of the earlier median (a
positive share means worse).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_range(text):
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--out", help="save the per-run values as JSON")
    parser.add_argument("--baseline", help="compare medians with a saved --out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    declared = spec["end_to_end"] if args.trace == "0" else spec["per_layer"]
    values = {metric["name"]: [] for metric in declared}
    failures = 0
    for seed in args.seeds:
        command = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        run = subprocess.run(command, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        failures += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    baseline = {}
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    print(f"{args.workload}: {len(args.seeds)} runs of {seconds} s, "
          f"trace {args.trace}, {failures} failed queries")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'drift':>7}")
    for metric in declared:
        name = metric["name"]
        runs = values[name]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        mid = statistics.median(runs)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = metric.get("bound")
        drift = ""
        if name in baseline:
            before = statistics.median(baseline[name])
            change = (mid - before) / before if before else float("nan")
            if metric["better"] == "higher":
                change = -change
            drift = f"{change:+.3f}"
        flag = " !" if bound is not None and spread > bound / 3 else ""
        print(f"{name:<28} {mid:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>7.3f} {bound if bound is not None else '':>6} "
              f"{drift:>7}{flag}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(values, handle, indent=1)


if __name__ == "__main__":
    main()
