#!/usr/bin/env python3
"""Steadiness helper: runs one workload N times, one seed each, and prints
every metric's median and quartiles. An end-to-end metric whose spread (the
distance between the first and third quartile, as a share of the median)
exceeds its bound in BENCHMARK.json is flagged; so is one above a third of it,
the margin the bounds are set with.

    python3 stagedb_bench/steady.py --workload htap_mixed --runs 10 [--first-seed 1] [--trace 0]

Run from the root of a checkout. Exits 1 when any end-to-end metric is over
its bound or any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    failed_runs = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        try:
            result = json.loads(proc.stdout.strip().split("\n")[-1])
        except (json.JSONDecodeError, IndexError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failed_runs += 1
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n"
                  f"{proc.stderr[-2000:]}")
            continue
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            if name in bounds:
                line.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: attempted {result['attempted']} failed "
              f"{result['failed']} {' '.join(line)}", flush=True)

    over = 0
    print(f"\n{args.workload}: {args.runs} runs, {seconds}s each")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        flag = ""
        if name in bounds:
            if spread > bounds[name]:
                flag = "  OVER BOUND"
                over += 1
            elif spread > bounds[name] / 3:
                flag = "  over a third of the bound"
        bound = f"{bounds[name]:.2f}" if name in bounds else "-"
        print(f"{name:40s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
              f"{bound:>6s} {units[name]}{flag}")
    sys.exit(1 if over or failed_runs else 0)


if __name__ == "__main__":
    main()
