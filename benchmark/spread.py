#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, as the driver takes it.

Runs the command of BENCHMARK.json `--runs` times per workload, each time with
another seed, and prints for each metric the distance between the first and
third quartile as a share of the median, beside its bound. A benchmark is
steady when every spread (except that of setup_s) is below a third of its
bound. Run from the root of the repository:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    unsteady = 0
    for name in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        started = time.time()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.exit(f"{name} seed {seed}: exit code {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{name} seed {seed}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                sys.exit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
            if set(result["metrics"]) != set(values):
                sys.exit(f"{name} seed {seed}: metrics {sorted(result['metrics'])}")
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
        per_run = (time.time() - started) / args.runs
        print(f"{name}: {args.runs} runs, {per_run:.1f} s each")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            steady = spread <= m["bound"] / 3 or m["name"] == "setup_s"
            unsteady += not steady
            print(f"  {m['name']:<16} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound {m['bound']:.2f}  {'ok' if steady else 'ABOVE A THIRD OF THE BOUND'}")
    sys.exit(1 if unsteady else 0)


if __name__ == "__main__":
    main()
