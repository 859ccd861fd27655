"""The benchmark's workloads at many seeds.

``perfbench/run.py`` builds a workload's inputs (``DensityMatrix``,
``Observable``, ``GaussianMeasurement`` and the rest) outside any
operation's error handling, so a seed whose inputs a constructor rejects
ends the whole benchmark run.  The propagate-plan sweep finds such a seed
first.  The trials sweep holds the stabilizer's ``stabilize.json`` to the
bytes its phase-point reference writes.
"""

import importlib.util
import os
import sys
from types import SimpleNamespace

import pytest

import qphase.cli

from conftest import stabilize_reference

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads.py imports its sibling ``checks``
    spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(1, 21))
def test_propagate_plan_observe_ops(seed, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    ops = {op.name: op for op in workloads.propagate_plan(seed, str(tmp_path)).ops}
    for name in ("observe-2", "observe-3"):
        op = ops[name]
        op.check(str(tmp_path), op.call(str(tmp_path)))
    stiff = ops["observe-stiff"]
    with pytest.raises(workloads.OperationFailed, match="positive semidefinite"):
        stiff.check(str(tmp_path), stiff.call(str(tmp_path)))


def reference_trace(x0, mu, disturbance, n_periods, rng):
    _, fidelity, cycles, occupancy = stabilize_reference(
        x0, mu=mu, disturbance=disturbance, n_periods=n_periods, rng=rng
    )
    return SimpleNamespace(iterations=cycles, final_fidelity=fidelity, occupancy=occupancy)


@pytest.mark.parametrize("seed", range(1, 21))
def test_trials_stabilize_matches_the_reference(seed, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    built = workloads.trials(seed, str(tmp_path))
    ops = [op for op in built.ops + built.warmup if op.name in ("stabilize", "stabilize-warmup")]
    assert len(ops) == 2
    written = {}
    for op in ops:
        out = tmp_path / op.name
        op.check(str(out), op.call(str(out)))
        written[op.name] = (out / "stabilize.json").read_bytes()
    monkeypatch.setattr(qphase.cli, "stabilize_middle_level", reference_trace)
    for op in ops:
        out = tmp_path / (op.name + "-reference")
        op.call(str(out))
        assert (out / "stabilize.json").read_bytes() == written[op.name]
