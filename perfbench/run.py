#!/usr/bin/env python3
"""qphase benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 20 --trace 0

Each workload runs in its own fresh Python process (``bench.py``) that
drives qphase the way users do, through ``qphase.cli.run`` on generated
scenario files and through the public library functions.  Set-up (process
start, imports, input generation and one warm-up) is timed up to the
moment the workload process reports ready; it is repeated in
``SETUP_RUNS - 1`` extra processes and the median is reported.  The last
line of standard output is one JSON object with the results.  See
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from speed import stolen_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synthesis", "trials", "propagate-plan")
SETUP_RUNS = 3
DEADLINE_S = 170.0
# One BLAS thread: with the default of one per core, each tiny (2N x 2N)
# expm in qphase pays for thread hand-offs, and on a shared machine those
# hand-offs make timings swing by orders of magnitude (see README).
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkloadError(RuntimeError):
    pass


def spawn(argv: list, deadline: float):
    """Run one workload process.

    Returns the measured seconds to ready, the same less the time the
    hypervisor took and scaled to the reference speed (``speed.py``), the
    ready info, the result and the other lines.
    """
    env = dict(os.environ, **PINNED)
    start, stolen = time.perf_counter(), stolen_s()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "bench.py")] + argv, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    ready_s, ready, factor, result, lines = None, None, None, None, []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if ready is None and line.startswith('{"ready"'):
                ready_s = time.perf_counter() - start
                stolen = stolen_s() - stolen
                ready = json.loads(line)
            elif line.startswith('{"setup_factor"'):
                factor = json.loads(line)["setup_factor"]
            elif line.startswith('{"correct"'):
                result = json.loads(line)
            else:
                lines.append(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or factor is None:
        raise WorkloadError(f"workload process exited with code {code}")
    return ready_s, (ready_s - stolen) * factor, ready, result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "qphase", "__init__.py")):
        print(f"perfbench: no qphase sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(common + ["--setup-only"], deadline)[:2])
        ready_s, ready_ref, ready, result, lines = spawn(common + ["--trace", str(args.trace)], deadline)
    except WorkloadError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is None:
        print("perfbench: the workload process printed no result", file=sys.stderr)
        return 1
    setups.append((ready_s, ready_ref))

    env = ready["env"]
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# set-up runs (s), measured: " + " ".join(f"{s:.4f}" for s, _ in setups)
          + "; less stolen time and scaled to the reference speed: " + " ".join(f"{s:.4f}" for _, s in setups))
    for line in lines:
        print(line)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(s for _, s in setups), "unit": "s"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
