#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds of one workload.

    python3 perfbench/spread.py --workload tune [--seeds 1-10] [--trace 1]

Runs the command in BENCHMARK.json once per seed and prints, per metric,
the median and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to a
third of the metric's bound. Run from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in declared}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: wrong output: {result}")
        print(f"seed {seed}: attempted {result['attempted']} "
              + " ".join(f"{k}={v['value']:.5g}"
                         for k, v in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in declared:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        line = (f"{m['name']:18s} median {med:12.6g} {m['unit']:6s} "
                f"spread {spread:.3f}")
        if "bound" in m:
            third = m["bound"] / 3
            line += f"  bound/3 {third:.3f}" + ("" if spread < third
                                                 else "  TOO WIDE")
        print(line)


if __name__ == "__main__":
    main()
