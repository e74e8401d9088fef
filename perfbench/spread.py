#!/usr/bin/env python3
"""Steadiness check: run one workload on several seeds and print, per
metric, the median and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)).

    python3 perfbench/spread.py --workload fec-clique --seeds 101-105 [--seconds 10] [--trace 0]

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range a-b")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
        if p.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {p.returncode}\n{p.stdout}", file=sys.stderr)
            sys.exit(1)
        res = json.loads(last)
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
    names = sorted(runs[0]["metrics"])
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        share = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:32s} median {med:14.4f}  iqr/median {share:7.4f}  {[round(v, 4) for v in vals]}")


if __name__ == "__main__":
    main()
