#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [WORKLOAD ...]

Runs run.py once per seed (seeds 1..runs) on each workload and prints,
per metric, the median and the distance between the first and third
quartiles as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread above the bound means two sets of runs of the
same code could disagree by more than the bound allows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        values = {}
        failed = attempted = 0
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: checks failed")
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {args.runs} runs, failed {failed}/{attempted}")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:16s} median {median:<12.6g} spread "
                  f"{spread:6.3f}  bound {bounds[name]}{flag}")


if __name__ == "__main__":
    main()
