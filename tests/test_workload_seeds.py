"""The benchmark's propagate-plan workload builds at every seed, and its observe ops behave.

``perfbench/run.py`` builds a workload's inputs (``DensityMatrix``,
``Observable``, ``GaussianMeasurement`` and the rest) outside any
operation's error handling, so a seed whose inputs a constructor rejects
ends the whole benchmark run.  This sweep finds such a seed first.
"""

import importlib.util
import os
import sys

import pytest

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
