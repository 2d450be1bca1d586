#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json over several seeds and records
the median and quartiles of each metric.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10

For every workload it makes one untraced and one traced run per seed
(through perfbench/run.py, so the build is the benchmark's own), fails if
any run is incorrect, prints each end-to-end metric's spread (third minus
first quartile, as a share of the median) next to its bound, and writes
perfbench/baseline.json.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: run failed")
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} cpus",
              "seeds": seeds, "run_seconds": bench["run_seconds"],
              "workloads": {}}
    for name in [w["name"] for w in bench["workloads"]]:
        per_metric = {}
        for trace in (0, 1):
            for seed in seeds:
                result = run_once(bench, name, seed, trace)
                for metric, entry in result["metrics"].items():
                    per_metric.setdefault(metric, (entry["unit"], []))[1].append(
                        entry["value"])
        summary = {}
        for metric, (unit, values) in per_metric.items():
            summary[metric] = dict(summarize(values), unit=unit)
            if metric in bounds:
                s = summary[metric]
                print(f"{name:9s} {metric:24s} median {s['median']:<12.6g} "
                      f"spread {s['spread']:.4f} bound {bounds[metric]}")
        report["workloads"][name] = summary

    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
