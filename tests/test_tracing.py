"""The benchmark's tracer still finds every name it wraps in qphase.

``perfbench/tracing.py`` looks its traced functions up by name and raises if
one is missing, so dropping or renaming one breaks the traced benchmark run;
this test breaks first.
"""

import importlib.util
import json
import os

import numpy as np

import qphase.cli
from qphase import ControlSchedule, ControlledHamiltonian, evolve_unitary

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_a_pmp_run_and_evolve(tmp_path):
    def cm(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]

    scenario = {
        "system": {"dimension": 2, "drift": cm(np.diag([1.0, -1.0])), "controls": [cm([[0, 1], [1, 0]])]},
        "initial_state": [[0.0, 0.0], [1.0, 0.0]],
        "goal_state": [[1.0, 0.0], [0.0, 0.0]],
        "control_bounds": {"lower": [-1.0], "upper": [1.0]},
        "cost": "control-energy",
        "horizon": {"t_final": float(np.pi)},
        "grid_points": 8,
    }
    path = tmp_path / "pmp.json"
    path.write_text(json.dumps(scenario))
    plant = ControlledHamiltonian(
        np.diag([1.0, -1.0]), (np.array([[0, 1], [1, 0]], complex),),
        ControlSchedule([0.0, 0.5, 1.0], [[0.3], [-0.7]]),
    )

    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = qphase.cli.run(["pmp", "--scenario", str(path), "--out", str(tmp_path / "out")])
        u = evolve_unitary(plant, 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert code == qphase.cli.EXIT_OK
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
    metrics = tracer.layer_metrics()
    assert metrics["cli.cmd_pmp.s"] > 0.0
    assert metrics["pontryagin.forward_backward_sweep.s"] > 0.0
    assert metrics["pontryagin.minimize.nit"] > 0
    # the spectral propagator path leaves the wrapped matrix exponentials unused
    for name in ("pontryagin.expm.calls", "pontryagin.expm_frechet.calls", "dynamics.expm.calls"):
        assert metrics[name] == 0
