"""One workload process: set up, warm up, then run timed rounds.

Started by ``run.py``; not meant to be run by hand.  It prints one JSON
line ``{"ready": ...}`` when set-up ends (``run.py`` times set-up up to that
line), then ``#`` progress lines, then one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qphase  # noqa: E402

import speed  # noqa: E402
from checks import OperationFailed  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
SETUP_SAMPLES, SETUP_SAMPLE_S = 5, 0.02  # speed samples taken right after set-up; the median counts


@dataclass
class Round:
    wall: float = 0.0  # measured
    cpu: float = 0.0
    wall_ref: float = 0.0  # less stolen time, scaled to the reference speed
    cpu_ref: float = 0.0  # scaled to the reference speed
    stolen: float = 0.0  # seconds the hypervisor took from the vCPUs during the calls
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    op_wall: dict = field(default_factory=dict)  # wall seconds by operation kind


def run_round(ops, where: str, scale: bool = True) -> Round:
    """Run every operation once; only the calls themselves are timed.

    The reference loop samples the host's speed during and right after each
    call, and the call's times are also summed scaled to the reference speed,
    its wall time less the time the hypervisor took (see ``speed.py``).
    With ``scale`` false nothing is sampled and the scaled times are the
    measured ones.
    """
    r = Round()
    for op in ops:
        out = tempfile.mkdtemp(prefix=op.name + "-", dir=where)
        r.attempted += 1
        sampler = speed.Sampler() if scale else None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with sampler or contextlib.nullcontext():
                result = op.call(out)
            failure = None
        except Exception as exc:  # an error of any type fails the operation; its type is reported
            failure = exc
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        wall_ref, cpu_ref = wall, cpu
        if sampler is not None:
            wall, cpu = wall - sampler.wall, cpu - sampler.cpu
            factor = sampler.factor(wall)
            r.stolen += sampler.stolen
            wall_ref, cpu_ref = (wall - sampler.stolen) * factor, cpu * factor
        r.wall += wall
        r.cpu += cpu
        r.wall_ref += wall_ref
        r.cpu_ref += cpu_ref
        kind = re.sub(r"-\d+$", "", op.name)
        r.op_wall[kind] = r.op_wall.get(kind, 0.0) + wall
        if failure is None:
            try:
                op.check(out, result)
            except OperationFailed as exc:
                failure = exc
            except Exception as exc:  # a wrong, missing or malformed output
                r.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        if failure is not None:
            r.failed += 1
            reason = f"{kind}: {type(failure).__name__}"
            r.failures[reason] = r.failures.get(reason, 0) + 1
        shutil.rmtree(out)
    return r


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qphase": qphase.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runs = os.path.join(HERE, "_runs")
    os.makedirs(runs, exist_ok=True)
    where = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        workload = WORKLOADS[args.workload](args.seed, where)
        warm = run_round(workload.warmup, where, scale=False)
        print(json.dumps({"ready": True, "env": environment()}), flush=True)
        # the speed during set-up, measured after it so as not to lengthen it
        after = statistics.median(speed.unit_seconds(SETUP_SAMPLE_S) for _ in range(SETUP_SAMPLES))
        print(json.dumps({"setup_factor": speed.REF_UNIT_S / after}), flush=True)
        if args.setup_only:
            return 0

        if args.trace:
            plain = run_round(workload.ops, where, scale=False)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(workload.ops, where, scale=False)
            finally:
                tracer.uninstall()
            rounds = [traced]
            values = tracer.layer_metrics()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
            overhead = traced.wall - plain.wall
            trace_path = os.path.join(HERE, "_traces", f"{args.workload}-seed{args.seed}.jsonl")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "untraced_wall_s": plain.wall, "traced_wall_s": traced.wall})
            print(f"# traced round: wall {traced.wall:.4f} s, untraced {plain.wall:.4f} s, "
                  f"tracing overhead {overhead:+.4f} s ({overhead / plain.wall:+.1%}); "
                  f"spans in {os.path.relpath(trace_path, ROOT)}")
            errors = warm.errors + plain.errors + traced.errors
        else:
            # whole rounds; a round that would end past --seconds is not started
            rounds, start, last = [], time.perf_counter(), 0.0
            while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + last <= args.seconds:
                began = time.perf_counter()
                rounds.append(run_round(workload.ops, where))
                last = time.perf_counter() - began
            metrics = {
                "wall_s": {"value": statistics.median(r.wall_ref for r in rounds), "unit": "s"},
                "cpu_s": {"value": statistics.median(r.cpu_ref for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
            print(f"# {len(rounds)} rounds; measured wall per round: " + " ".join(f"{r.wall:.4f}" for r in rounds))
            print("#   less stolen time and scaled to the reference speed: "
                  + " ".join(f"{r.wall_ref:.4f}" for r in rounds))
            print("#   stolen by the hypervisor: " + " ".join(f"{r.stolen:.4f}" for r in rounds))
            print(f"#   median measured wall {statistics.median(r.wall for r in rounds):.4f} s, "
                  f"cpu {statistics.median(r.cpu for r in rounds):.4f} s")
            for kind in rounds[0].op_wall:
                print(f"#   median wall per round, {kind}: {statistics.median(r.op_wall[kind] for r in rounds):.4f} s")
            errors = warm.errors + [e for r in rounds for e in r.errors]

        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        print(f"# {args.workload}: {len(workload.ops)} operations per round, "
              f"attempted {attempted}, failed {failed}")
        for kind, count in sorted(rounds[0].failures.items()):
            print(f"#   failed per round: {kind} x{count}")
        for e in errors[:20]:
            print(f"# CHECK FAILED {e}")
        print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}),
              flush=True)
        return 0
    finally:
        shutil.rmtree(where, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
