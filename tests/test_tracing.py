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
import qphase.torus
from qphase import ControlSchedule, ControlledHamiltonian, TorusState, evolve_unitary

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


def test_tracer_wraps_measure_steer_and_stabilize_runs(tmp_path):
    def cv(v):
        return [[float(complex(z).real), float(complex(z).imag)] for z in v]

    r2 = np.sqrt(2.0)
    scenarios = {
        "measure": {
            "measurement": {"observable": [[[float(a == b) * (a - 1.0), 0.0] for b in range(3)] for a in range(3)]},
            "initial_state": cv([0.5, 1 / r2, 0.5]),
        },
        "steer": {"goal_state": cv([1j / r2, 0, 1j / r2]), "initial_state": cv(np.full(3, 1 / np.sqrt(3)))},
        "stabilize": {"initial_state": cv([1.0, 0, 0]), "disturbance": 0.2, "n_periods": 10},
    }
    trials = {"measure": 30, "steer": 20, "stabilize": 3}
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for command, payload in scenarios.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(dict(payload, seed=12)))
            argv = [command, "--scenario", str(path), "--out", str(tmp_path / command), "--trials", str(trials[command])]
            assert qphase.cli.run(argv) == qphase.cli.EXIT_OK
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    for command in scenarios:
        assert metrics[f"cli.cmd_{command}.s"] > 0.0
    # measure and steer reset one generator per run; stabilize builds one per trial
    assert metrics["rng.stream.calls"] == 2 + trials["stabilize"]
    assert metrics["steering.stabilize_middle_level.calls"] == trials["stabilize"]
    assert metrics["steering.build_frame_3level.s"] > 0.0
    assert metrics["serialize.bytes_written"] > 0
    # the batched engine measures without going through the per-trial entry points
    assert metrics["measurement.measure_selective.calls"] == 0
    assert metrics["steering.steer.calls"] == 0


def test_tracer_wraps_evolve_and_closure_runs(tmp_path):
    def cm(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]

    system = {"drift": cm(np.diag([-1.0, 0.0, 1.0])), "controls": [cm([[0, 1, 0], [1, 0, 1], [0, 1, 0]])]}
    samples = 12
    scenarios = {
        "evolve": {
            "system": system,
            "schedule": {"grid": [0.0, 0.4, 1.0], "values": [[0.5], [-0.3]]},
            "initial_state": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "horizon": {"t_final": 1.0, "samples": samples},
        },
        "closure": {"system": system},
    }
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        for command, payload in scenarios.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(payload))
            argv = [command, "--scenario", str(path), "--out", str(tmp_path / command)]
            assert qphase.cli.run(argv) == qphase.cli.EXIT_OK
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["cli.cmd_evolve.s"] > 0.0 and metrics["cli.cmd_closure.s"] > 0.0
    # one evolve call per sample after t = 0, each from the previous sample
    assert metrics["dynamics.evolve.calls"] == samples
    assert metrics["dynamics.expm.calls"] == 0
    assert metrics["controllability.lie_closure.calls"] == 1


def test_tracer_wraps_a_torus_plan_run_and_reach_state(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"torus_start": [-7, 12], "torus_target": [4, -9]}))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        code = qphase.cli.run(["torus-plan", "--scenario", str(path), "--out", str(tmp_path / "out")])
        # looked up at call time, where the tracer put its wrapper
        trace, final = qphase.torus.reach_state(TorusState.eigenstate((-3, -3), radius=3), (-1, -2))
    finally:
        tracer.uninstall()
    assert code == qphase.cli.EXIT_OK
    assert trace.final_fidelity == 1.0 and final.support[0][0] == (-1, -2)
    metrics = tracer.layer_metrics()
    assert metrics["cli.cmd_torus_plan.s"] > 0.0
    assert metrics["torus.plan_kicks.calls"] == 2
    assert metrics["torus.reach_state.calls"] == 1
    assert metrics["torus.apply_floquet_component.calls"] == trace.iterations
    assert metrics["torus.move_step.calls"] >= trace.iterations
