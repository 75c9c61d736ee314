#!/usr/bin/env python3
"""Steadiness check for the benchmark of record.

Runs the benchmark several times per workload, each time with another
seed, and prints for every end-to-end metric its median over the runs
and the distance between the first and third quartile as a share of
that median (statistics.quantiles(values, n=4)), next to the metric's
bound in BENCHMARK.json. It exits 1 if a run fails or is not correct,
or if a spread is over its bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seed0 1 sim-fig2 live-stream
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", help="workloads to run (default: all in BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1, help="seed of the first run; later runs count up")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for name in names:
        values = {}
        for k in range(args.runs):
            seed = args.seed0 + k
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}")
                ok = False
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(res["metrics"].items())), flush=True)
        for metric, xs in sorted(values.items()):
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            mark = ""
            if bound is not None:
                mark = "ok" if share <= bound / 3 else ("within bound" if share <= bound else "OVER BOUND")
                ok = ok and share <= bound
            print(f"  {name:12s} {metric:18s} median={statistics.median(xs):.6g} spread={share:.4f} bound={bound} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
