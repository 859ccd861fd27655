"""Per-layer tracing, installed on qphase from outside the program.

``Tracer.install`` replaces each traced function by a wrapper under its name
in every qphase module that looks the name up, so a call made through
``from .measurement import measure_selective`` is seen as well as one made
through ``qphase.measurement``.  A function that qphase imports from
elsewhere (``expm`` in ``pontryagin``) is wrapped only in the named module.
Wrappers record a span per call and leave arguments and results untouched.

A span started on a worker thread with nothing open on that thread is a
child of the span open on the main thread, which is how the trial pool of
``cli.cmd_measure`` shows up: its pool overhead is the self time of the
command span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time

CLI_COMMANDS = ("measure", "steer", "stabilize", "pmp", "evolve", "closure", "torus_plan")

# (module, name) pairs whose calls and inclusive seconds are recorded
TIMED = (
    ("pontryagin", "forward_backward_sweep"),
    ("pontryagin", "argmax_control"),
    ("pontryagin", "expm"),
    ("pontryagin", "expm_frechet"),
    ("pontryagin", "minimize"),
    ("dynamics", "evolve"),
    ("controllability", "lie_closure"),
    ("torus", "plan_kicks"),
    ("torus", "reach_state"),
    ("measurement", "measure_selective"),
    ("measurement", "continuous_observe"),
    ("rng", "stream"),
    ("steering", "steer"),
    ("steering", "stabilize_middle_level"),
    ("steering", "build_frame_3level"),
    ("serialize", "write_csv"),
    ("serialize", "write_json"),
) + tuple(("cli", f"cmd_{c}") for c in CLI_COMMANDS)

# (module, name) pairs called too often for a span each: calls only
COUNTED = (
    ("dynamics", "expm"),
    ("torus", "move_step"),
    ("torus", "apply_floquet_component"),
)

# the per-layer metrics, in BENCHMARK.json order: (name, unit)
LAYER_METRICS = (
    [("pontryagin.forward_backward_sweep.s", "s")]
    + [(f"pontryagin.{f}.{k}", u) for f in ("argmax_control", "expm", "expm_frechet")
       for k, u in (("calls", "count"), ("s", "s"))]
    + [("pontryagin.minimize.nfev", "count"), ("pontryagin.minimize.nit", "count"),
       ("dynamics.evolve.calls", "count"), ("dynamics.evolve.s", "s"), ("dynamics.expm.calls", "count"),
       ("controllability.lie_closure.calls", "count"), ("controllability.lie_closure.s", "s"),
       ("torus.plan_kicks.calls", "count"), ("torus.plan_kicks.s", "s"), ("torus.move_step.calls", "count"),
       ("torus.reach_state.calls", "count"), ("torus.reach_state.s", "s"),
       ("torus.apply_floquet_component.calls", "count"),
       ("measurement.measure_selective.calls", "count"), ("measurement.measure_selective.s", "s"),
       ("measurement.continuous_observe.calls", "count"), ("measurement.continuous_observe.s", "s"),
       ("geometry.Observable.calls", "count"), ("geometry.Observable.s", "s"),
       ("rng.stream.calls", "count"), ("rng.stream.s", "s"),
       ("steering.steer.calls", "count"), ("steering.steer.s", "s"),
       ("steering.stabilize_middle_level.calls", "count"), ("steering.stabilize_middle_level.s", "s"),
       ("steering.build_frame_3level.s", "s"),
       ("serialize.write_csv.s", "s"), ("serialize.write_json.s", "s"), ("serialize.bytes_written", "bytes")]
    + [(f"cli.cmd_{c}.{k}", "s") for c in CLI_COMMANDS for k in ("s", "self_s")]
)


def merged_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, thread id, start, end)
        self.counts = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def add(self, name: str, amount: int = 1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(), start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "qphase" or n.startswith("qphase.")]
        hooks = {
            ("pontryagin", "minimize"): self._after_minimize,
            ("serialize", "write_csv"): self._after_write,
            ("serialize", "write_json"): self._after_write,
        }
        targets = [(t, True) for t in TIMED] + [(t, False) for t in COUNTED]
        for (mod, attr), timed in targets:
            home = sys.modules[f"qphase.{mod}"]
            original = getattr(home, attr)
            name = f"{mod}.{attr}"
            wrapper = self.timed(name, original, hooks.get((mod, attr))) if timed else self.counted(name, original)
            owners = [home]
            if getattr(original, "__module__", None) == home.__name__:
                owners = [m for m in modules if getattr(m, attr, None) is original]
            for owner in owners:
                self._patch(owner, attr, wrapper)
        observable = sys.modules["qphase.geometry"].Observable
        self._patch(observable, "__init__", self.timed("geometry.Observable", observable.__init__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _after_minimize(self, args, result):
        self.add("pontryagin.minimize.nfev", int(result.nfev))
        self.add("pontryagin.minimize.nit", int(result.nit))

    def _after_write(self, args, result):
        path = args[0]
        # manifest.json carries a wall time whose printed length varies from run to run
        if os.path.basename(path) != "manifest.json":
            self.add("serialize.bytes_written", os.path.getsize(path))

    def layer_metrics(self) -> dict:
        calls, seconds, self_s = {}, {}, {}
        children = {}
        for sid, parent, name, _, start, end in self.spans:
            calls[name] = calls.get(name, 0) + 1
            seconds[name] = seconds.get(name, 0.0) + (end - start)
            children.setdefault(parent, []).append((start, end))
        for sid, _, name, _, start, end in self.spans:
            if name.startswith("cli."):
                covered = merged_length(children.get(sid, ()), start, end)
                self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        values = {}
        for metric, _ in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls.get(base, 0) or self.counts.get(base, 0)
            elif kind == "s":
                values[metric] = seconds.get(base, 0.0)
            elif kind == "self_s":
                values[metric] = self_s.get(base, 0.0)
            else:
                values[metric] = self.counts.get(metric, 0)
        return values

    def write(self, path: str, extra: dict):
        """Spans as JSON lines, then one line with the counters."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, thread, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "thread": thread,
                                     "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"counts": self.counts, **extra}) + "\n")
