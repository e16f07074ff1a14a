#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload once per seed and reports, for each metric, the
median over the runs and the interquartile range as a share of that
median -- the figure each metric's bound in BENCHMARK.json must cover.

    python3 ttbench/spread.py --runs 10 --seconds 10
    python3 ttbench/spread.py --workload serve --runs 5 --binary path/to/ttbench

Run from the repository root. Without --binary the benchmark runs
through the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--binary", help="prebuilt benchmark executable")
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    opts = parser.parse_args()

    command = [opts.binary] if opts.binary else bench["command"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        runs = [run_once(command, workload, seed, opts.seconds)
                for seed in range(opts.first_seed, opts.first_seed + opts.runs)]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:12} {name:14} median {median:12.4f}  "
                  f"spread {spread:7.2%}  bound {bound:5.0%}{flag}", flush=True)
            if opts.verbose:
                print("    " + " ".join(f"{v:.4g}" for v in values), flush=True)


if __name__ == "__main__":
    main()
