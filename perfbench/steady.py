#!/usr/bin/env python3
"""Steadiness check: runs one workload N times, with seeds 1..N, and prints
the median, quartiles and spread of every metric.

    python3 perfbench/steady.py --workload replace [--runs 10] [--trace 0|1]

Run it from the repository root. Each run measures for the ``run_seconds``
of ``BENCHMARK.json``. The spread is the distance between the
first and third quartile (Python's ``statistics.quantiles(values, n=4)``) as
a share of the median; for end-to-end metrics it is compared with the bound
``BENCHMARK.json`` fixes. The share of failed operations is printed per run
and must be the same in every run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    key = "per_layer" if args.trace == "1" else "end_to_end"
    declared = {m["name"]: m for m in spec[key]}

    values = {name: [] for name in declared}
    shares = []
    for seed in range(1, args.runs + 1):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        took = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: a correctness check failed")
        missing = set(declared) - set(result["metrics"])
        if missing:
            sys.exit(f"seed {seed}: metrics missing: {sorted(missing)}")
        for name in declared:
            values[name].append(result["metrics"][name]["value"])
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: {took:.1f} s, {result['attempted']} operations, "
              f"{result['failed']} failed", flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, trace {args.trace}")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, m in declared.items():
        v = values[name]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread < bound / 3 else ("near" if spread <= bound else "WIDE")
        print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6} {flag}")
    print(f"failed share per run: {sorted(set(shares))}")


if __name__ == "__main__":
    main()
