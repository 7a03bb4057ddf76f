#!/usr/bin/env python3
"""Run the benchmark several times per workload and report, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1 as a
share of the median, from statistics.quantiles(values, n=4)) next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root. Each run gets its own seed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in names:
        values = {}
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload,
                "--seed", str(args.first_seed + i),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = json.loads(lines[-2]).get("host", {})
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {args.first_seed + i}: failed checks\n{out.stderr}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in host.items():
                if name.startswith("raw_"):
                    values.setdefault(name, []).append(v)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(name)
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{workload:9} {name:28} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}")
    print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
