"""Each benchmark check accepts a genuine qphase output and rejects a corrupted one.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_checks.py``.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
from checks import CheckError, OperationFailed, cmatrix, cvector  # noqa: E402
from qphase import cli, torus  # noqa: E402
from qphase.geometry import Observable  # noqa: E402
from qphase.measurement import DensityMatrix, GaussianMeasurement, continuous_observe  # noqa: E402


def run_cli(tmp_path, command, scenario, trials=None):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    argv = [command, "--scenario", str(path), "--out", str(out)]
    if trials:
        argv += ["--trials", str(trials)]
    assert cli.run(argv) == 0
    return out


def replace_line(text, index, fn):
    lines = text.split("\n")
    lines[index] = fn(lines[index])
    return "\n".join(lines)


def set_field(line, column, value):
    cells = line.split(",")
    cells[column] = value
    return ",".join(cells)


PMP = {
    "system": {"dimension": 2, "drift": cmatrix(np.diag([1.0, -1.0])), "controls": [cmatrix(checks.SIGMA_X)]},
    "initial_state": cvector([0.0, 1.0]),
    "goal_state": cvector([1.0, 0.0]),
    "control_bounds": {"lower": [-1.0], "upper": [1.0]},
    "cost": "control-energy",
    "horizon": {"t_final": float(np.pi)},
    "grid_points": 4,
}


class TestPmp:
    @pytest.fixture(scope="class")
    def solved(self, tmp_path_factory):
        out = run_cli(tmp_path_factory.mktemp("pmp"), "pmp", PMP)
        return json.loads((out / "pmp.json").read_text()), (out / "pmp_schedule.csv").read_text()

    def test_genuine_schedule_passes(self, solved):
        checks.check_pmp(PMP, *solved, oracle_cost=np.pi)

    def test_flipped_control_is_rejected(self, solved):
        pmp, csv = solved
        flipped = replace_line(csv, 2, lambda line: set_field(line, 1, repr(-float(line.split(",")[1]))))
        with pytest.raises(CheckError):
            checks.check_pmp(PMP, pmp, flipped)

    def test_control_outside_bounds_is_rejected(self, solved):
        pmp, csv = solved
        with pytest.raises(CheckError, match="bounds"):
            checks.check_pmp(PMP, pmp, replace_line(csv, 1, lambda line: set_field(line, 1, "1.5")))

    def test_misreported_cost_and_fidelity_are_rejected(self, solved):
        pmp, csv = solved
        with pytest.raises(CheckError, match="cost"):
            checks.check_pmp(PMP, dict(pmp, cost=pmp["cost"] * 0.9), csv)
        with pytest.raises(CheckError, match="fidelity"):
            checks.check_pmp(PMP, dict(pmp, fidelity=1.0), csv)

    def test_cost_above_the_oracle_is_rejected(self, solved):
        with pytest.raises(CheckError, match="bang-bang"):
            checks.check_pmp(PMP, *solved, oracle_cost=1.0)


def test_bang_bang_oracle_inverts_the_two_level_system():
    best, cost = checks.bang_bang_oracle(np.diag([1.0, -1.0]).astype(complex), checks.SIGMA_X,
                                         np.array([0, 1], complex), np.array([1, 0], complex), np.pi, 1.0)
    assert best >= 0.999 and cost == pytest.approx(np.pi)


class TestMeasure:
    OBS = np.array([[1.0, 0.3, 0.0], [0.3, -0.5, 0.2j], [0.0, -0.2j, 0.4]])
    PSI = np.array([0.6, 0.48j, 0.64])

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        scenario = {"measurement": {"observable": cmatrix(self.OBS)}, "initial_state": cvector(self.PSI), "seed": 9}
        short = run_cli(tmp_path_factory.mktemp("short"), "measure", scenario, 50)
        long = run_cli(tmp_path_factory.mktemp("long"), "measure", scenario, 400)
        return (short / "measurements.csv").read_text(), (long / "measurements.csv").read_text()

    def test_genuine_rows_pass(self, runs):
        short, long = runs
        checks.check_measure(self.OBS, self.PSI, long, 400)
        checks.check_prefix(short, long)

    def test_post_state_outside_its_eigenspace_is_rejected(self, runs):
        _, long = runs
        bad = replace_line(long, 3, lambda line: set_field(line, 4, repr(float(line.split(",")[4]) + 1e-6)))
        with pytest.raises(CheckError, match="eigenspace"):
            checks.check_measure(self.OBS, self.PSI, bad, 400)

    def test_wrong_probability_is_rejected(self, runs):
        _, long = runs
        with pytest.raises(CheckError, match="Born weight"):
            checks.check_measure(self.OBS, self.PSI, replace_line(long, 1, lambda line: set_field(line, 3, "0.5")), 400)

    def test_biased_frequencies_are_rejected(self, runs):
        _, long = runs
        lines = long.split("\n")
        first = lines[1].split(",")[1:]
        biased = "\n".join([lines[0]] + [",".join([str(k)] + first) for k in range(400)]) + "\n"
        with pytest.raises(CheckError, match="hits"):
            checks.check_measure(self.OBS, self.PSI, biased, 400)

    def test_short_run_that_is_not_a_prefix_is_rejected(self, runs):
        short, long = runs
        with pytest.raises(CheckError, match="prefix"):
            checks.check_prefix(replace_line(short, 2, lambda line: set_field(line, 4, "0")), long)


class TestSteerAndStabilize:
    def test_steer(self, tmp_path):
        scenario = {"goal_state": cvector(np.array([1j, 0, 1j]) / np.sqrt(2)),
                    "initial_state": cvector([0.6, 0.0, 0.8j]), "seed": 3}
        report = json.loads((run_cli(tmp_path, "steer", scenario, 20) / "steer.json").read_text())
        checks.check_steer(report, 20)
        report["trials"][4]["final_fidelity"] = 0.9
        with pytest.raises(CheckError, match="fidelity"):
            checks.check_steer(report, 20)

    def test_stabilize(self, tmp_path):
        scenario = {"initial_state": cvector([1.0, 0, 0]), "disturbance": 0.1, "n_periods": 20, "seed": 4}
        report = json.loads((run_cli(tmp_path, "stabilize", scenario, 40) / "stabilize.json").read_text())
        checks.check_stabilize(report, 40)
        off_level = json.loads(json.dumps(report))
        off_level["trials"][0]["final_fidelity"] = 0.5
        with pytest.raises(CheckError, match="middle level"):
            checks.check_stabilize(off_level, 40)
        slow = json.loads(json.dumps(report))
        for trial in slow["trials"]:
            trial["iterations"] = 4
        with pytest.raises(CheckError, match="acquisition"):
            checks.check_stabilize(slow, 40)


def test_evolve_sample_off_the_exact_flow_is_rejected(tmp_path):
    rng = np.random.default_rng(0)
    drift, c1 = (np.diag([0.5, -0.2, 0.1]).astype(complex), np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex))
    grid, values = np.linspace(0.0, 1.0, 4), rng.uniform(-1, 1, (3, 1))
    psi0 = np.array([0.6, 0.0, 0.8j])
    scenario = {"system": {"drift": cmatrix(drift), "controls": [cmatrix(c1)]},
                "schedule": {"grid": grid.tolist(), "values": values.tolist()},
                "initial_state": cvector(psi0), "horizon": {"t_final": 1.0, "samples": 5}}
    csv = (run_cli(tmp_path, "evolve", scenario) / "trajectory.csv").read_text()
    checks.check_evolve(drift, (c1,), grid, values, psi0, 1.0, 5, csv)
    bad = replace_line(csv, 4, lambda line: set_field(line, 2, repr(float(line.split(",")[2]) + 1e-6)))
    with pytest.raises(CheckError, match="exp"):
        checks.check_evolve(drift, (c1,), grid, values, psi0, 1.0, 5, bad)


def test_closure_with_wrong_dimension_or_basis_is_rejected(tmp_path):
    scenario = {"system": {"drift": cmatrix(np.diag([-1.0, 0.0, 1.0])),
                           "controls": [cmatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])]}}
    report = json.loads((run_cli(tmp_path, "closure", scenario) / "closure.json").read_text())
    checks.check_closure(report, 3)
    with pytest.raises(CheckError, match="dimension"):
        checks.check_closure(report, 9)
    report["gram"][0][1] = 0.1
    with pytest.raises(CheckError, match="orthonormal"):
        checks.check_closure(report, 3)


def test_torus_plan_one_move_short_is_rejected():
    start, target = (3, -7), (-12, 20)
    plan = torus.plan_kicks(start, target).to_json_dict()
    checks.check_plan(plan, start, target)
    short = dict(plan, moves=plan["moves"][:-1], length=plan["length"] - 1)
    with pytest.raises(CheckError, match="ends at"):
        checks.check_plan(short, start, target)
    detour = dict(plan, moves=["U2", "U2^-1"] * 30 + plan["moves"], length=plan["length"] + 60)
    with pytest.raises(CheckError, match="longer"):
        checks.check_plan(detour, start, target)


def test_reach_state_ending_elsewhere_is_rejected():
    trace, state = torus.reach_state(torus.TorusState.eigenstate((0, 0)), (1, 2))
    checks.check_reached(state.support, (1, 2))
    with pytest.raises(CheckError, match="target"):
        checks.check_reached(state.support, (2, 1))


class TestContinuousObserve:
    LAM = np.array([-1.0, 0.5, 2.0])

    def observe(self, s, t_final, steps):
        rho0 = np.full((3, 3), 1 / 3, dtype=complex)
        m = GaussianMeasurement(Observable(np.diag(self.LAM)), s, 0.01)
        times, rhos = continuous_observe(DensityMatrix(rho0), Observable(np.zeros((3, 3))), m, t_final, steps)
        return rho0, times, rhos

    def test_accurate_path_passes_and_a_perturbed_one_fails(self):
        rho0, times, rhos = self.observe(0.9, 0.1, 400)
        checks.check_density_path(rhos)
        checks.check_decoherence(rho0, np.zeros(3), self.LAM, 0.9, times, rhos)
        rhos = rhos.copy()
        rhos[-1, 0, 1] *= 1 + 1e-5
        rhos[-1, 1, 0] = np.conj(rhos[-1, 0, 1])
        with pytest.raises(CheckError, match="relative error"):
            checks.check_decoherence(rho0, np.zeros(3), self.LAM, 0.9, times, rhos)

    def test_stiff_divergence_counts_as_a_failed_operation(self):
        _, _, rhos = self.observe(100.0, 1.0, 100)
        with pytest.raises(OperationFailed, match="positive semidefinite"):
            checks.check_density_path(rhos)
