#!/usr/bin/env python3
"""Run one workload over several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload trials --seeds 1-10 --seconds 25

For each metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the interquartile distance as a share of the median, next to
the metric's bound from BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}

    values, shares = {}, set()
    for seed in args.seeds:
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(out, file=sys.stderr)
            return 1
        shares.add(result["failed"] / result["attempted"])
        line = [f"seed {seed:3d}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4f}")
        print(" ".join(line), flush=True)
    print(f"# {args.workload}: failed share {sorted(shares)}")
    for name, xs in values.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        print(f"# {name:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
              f"iqr/median {(q3 - q1) / med:.3f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
