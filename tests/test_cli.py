"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import json
import os

import numpy as np
import pytest

import qphase.dynamics
from qphase import (
    ControlSchedule,
    ControlledHamiltonian,
    Observable,
    PhasePoint,
    StateVector,
    evolve,
    from_phase,
    to_phase,
)
from qphase.cli import EXIT_DOMAIN, EXIT_NUMERIC, EXIT_OK, EXIT_SCHEMA, run
from qphase.measurement import branch_probabilities, measure_selective
from qphase.rng import stream
from qphase.serialize import write_csv, write_json
from qphase.steering import build_frame_3level, h3_matrix, stabilize_middle_level, steer

from conftest import random_hermitian, random_point

R2 = np.sqrt(2.0)


def cm(m):
    """Matrix of floats/complex to the [re, im] JSON encoding."""
    return [[[complex(z).real, complex(z).imag] for z in row] for row in m]


def cv(v):
    return [[complex(z).real, complex(z).imag] for z in v]


LADDER_DRIFT = cm(np.diag([-1.0, 0.0, 1.0]))
LADDER_CONTROL = cm([[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def write_scenario(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestEvolve:
    def test_full_period_returns_to_start(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "system": {"dimension": 1, "drift": cm([[1.0]])},
                "initial_state": cv([0.6 + 0.8j]),
                "horizon": {"t_final": 2 * np.pi, "samples": 16},
            },
        )
        out = tmp_path / "out"
        assert run(["evolve", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
        first = [float(c) for c in rows[0].split(",")]
        last = [float(c) for c in rows[-1].split(",")]
        assert max(abs(a - b) for a, b in zip(first[1:], last[1:])) < 1e-9

    def test_ladder_drift_matches_subgroup(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "system": {"dimension": 3, "drift": LADDER_DRIFT},
                "initial_state": cv([0.5, 1 / R2 * 1j, 0.5]),
                "horizon": {"t_final": np.pi, "samples": 2},
            },
        )
        out = tmp_path / "out"
        assert run(["evolve", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        last = [float(c) for c in (out / "trajectory.csv").read_text().strip().split("\n")[-1].split(",")]
        x0 = np.array([0.5, 0.0, 0.5, 0.0, 1 / R2, 0.0])
        want = h3_matrix(-np.pi) @ x0
        assert np.max(np.abs(np.array(last[1:7]) - want)) < 1e-10

    def test_missing_schedule_coverage(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "system": {
                    "dimension": 2,
                    "drift": cm(np.diag([1.0, -1.0])),
                    "controls": [cm([[0, 1], [1, 0]])],
                },
                "schedule": {"grid": [0.0, 1.0], "values": [[0.5]]},
                "initial_state": cv([1.0, 0.0]),
                "horizon": {"t_final": 2.0, "samples": 4},
            },
        )
        assert run(["evolve", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_DOMAIN

    def _controlled(self, tmp_path, grid, t_final, samples):
        rng = np.random.default_rng(31)
        drift, c1 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        values = rng.uniform(-1, 1, (len(grid) - 1, 1))
        x0 = random_point(rng, 3)
        scen = write_scenario(tmp_path / "s.json", {
            "system": {"dimension": 3, "drift": cm(drift), "controls": [cm(c1)]},
            "schedule": {"grid": list(grid), "values": values.tolist()},
            "initial_state": cv(from_phase(x0).amplitudes),
            "horizon": {"t_final": t_final, "samples": samples},
        })
        return scen, ControlledHamiltonian(drift, (c1,), ControlSchedule(grid, values)), x0

    def test_one_pass_matches_per_sample_evolve(self, tmp_path):
        # samples every 0.25 up to 1.5, short of the grid's end: on the
        # breakpoints 0.5 and 1.0 and between the others
        scen, plant, x0 = self._controlled(tmp_path, [0.0, 0.5, 0.8, 1.0, 1.7, 2.0], 1.5, 6)
        out = tmp_path / "out"
        assert run(["evolve", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 0], np.linspace(0.0, 1.5, 7))
        for row in rows:
            want = evolve(plant, x0, 0.0, row[0]) if row[0] > 0 else x0
            assert np.max(np.abs(row[1:7] - want.flat())) < 1e-12

    def test_each_segment_diagonalised_once(self, tmp_path, monkeypatch):
        sizes = []
        original = qphase.dynamics.interval_propagators

        def counting(plant, u, dts):
            sizes.append(len(dts))
            return original(plant, u, dts)

        monkeypatch.setattr(qphase.dynamics, "interval_propagators", counting)
        samples, segments = 40, 10
        scen, _, _ = self._controlled(tmp_path, np.linspace(0.0, 2.0, segments + 1).tolist(), 2.0, samples)
        assert run(["evolve", "--scenario", scen, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert 0 < sum(sizes) <= samples + segments


class TestPlantErrors:
    """Malformed system and schedule fields exit 2 in every command that builds the plant."""

    BASE = {
        "system": {"dimension": 2, "drift": cm(np.diag([1.0, -1.0])), "controls": [cm([[0, 1], [1, 0]])]},
        "schedule": {"grid": [0.0, 0.5, 1.0], "values": [[0.1], [0.2]]},
        "initial_state": cv([0.0, 1.0]),
        "goal_state": cv([1.0, 0.0]),
        "control_bounds": {"lower": [-1.0], "upper": [1.0]},
        "horizon": {"t_final": 1.0, "samples": 2},
        "grid_points": 4,
    }

    @pytest.mark.parametrize("command", ["evolve", "closure", "pmp"])
    @pytest.mark.parametrize("section, key, value, field", [
        ("system", "dimension", "abc", "system.dimension"),
        ("system", "controls", [5], "system.controls[0]"),
        ("schedule", "grid", [0.0, 1.0, 0.5], "schedule"),
        ("schedule", "grid", [0.0, "x", 1.0], "schedule"),
        ("schedule", "grid", [0.0, float("nan"), 1.0], "schedule"),
        ("schedule", "values", [[0.1]], "schedule"),
        ("schedule", "values", [[0.1], [float("nan")]], "schedule"),
        ("system", "controls", "x", "system.controls"),
        ("system", "dimension", 3, "system.dimension"),
    ])
    def test_bad_field_exits_2(self, tmp_path, capsys, command, section, key, value, field):
        payload = json.loads(json.dumps(self.BASE))
        payload[section][key] = value
        scen = write_scenario(tmp_path / "s.json", payload)
        assert run([command, "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert f"scenario error: {field}: " in capsys.readouterr().err


class TestSchemaDiagnostics:
    def test_missing_file(self, tmp_path):
        assert run(["evolve", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_missing_field_named(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", {"initial_state": cv([1.0])})
        assert run(["evolve", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert "system.drift" in capsys.readouterr().err

    def test_non_hermitian_rejected(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "system": {"dimension": 2, "drift": cm([[0, 1], [0, 0]])},
                "initial_state": cv([1.0, 0.0]),
                "horizon": {"t_final": 1.0, "samples": 2},
            },
        )
        assert run(["evolve", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA

    def test_invalid_json(self, tmp_path, capsys):
        (tmp_path / "s.json").write_text('{"system": ')
        assert run(["evolve", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert "scenario error: scenario: invalid JSON" in capsys.readouterr().err

    def test_top_level_not_an_object(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", [1, 2])
        assert run(["evolve", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert "scenario error: scenario: top-level value must be an object" in capsys.readouterr().err

    def test_zero_trials(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", {"initial_state": cv([0.0, 1.0, 0.0]), "seed": 1})
        assert run(["stabilize", "--scenario", scen, "--out", str(tmp_path / "o"), "--trials", "0"]) == EXIT_SCHEMA
        assert "scenario error: trials: " in capsys.readouterr().err

    def test_seed_required_for_stochastic(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "measurement": {"observable": cm(np.diag([0.0, 1.0]))},
                "initial_state": cv([1 / R2, 1 / R2]),
            },
        )
        assert run(["measure", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA


class TestDeterminism:
    def _measure_scenario(self, tmp_path):
        return write_scenario(
            tmp_path / "s.json",
            {
                "measurement": {"observable": cm(np.diag([-1.0, 0.0, 1.0]))},
                "initial_state": cv([0.5, 1 / R2, 0.5]),
                "seed": 424242,
            },
        )

    def test_same_seed_byte_identical(self, tmp_path):
        scen = self._measure_scenario(tmp_path)
        for d in ("a", "b"):
            assert run(["measure", "--scenario", scen, "--out", str(tmp_path / d), "--trials", "50"]) == EXIT_OK
        assert read(tmp_path / "a" / "measurements.csv") == read(tmp_path / "b" / "measurements.csv")
        ma = json.loads(read(tmp_path / "a" / "manifest.json"))
        mb = json.loads(read(tmp_path / "b" / "manifest.json"))
        ma.pop("wall_time_s"), mb.pop("wall_time_s")
        assert ma == mb

    def test_seed_override_changes_output(self, tmp_path):
        scen = self._measure_scenario(tmp_path)
        run(["measure", "--scenario", scen, "--out", str(tmp_path / "a"), "--trials", "50"])
        run(["measure", "--scenario", scen, "--out", str(tmp_path / "c"), "--trials", "50", "--seed", "1"])
        assert read(tmp_path / "a" / "measurements.csv") != read(tmp_path / "c" / "measurements.csv")

    def test_q_p_state_form_matches_re_im_form(self, tmp_path):
        psi = np.array([0.5, 0.5j, -0.5 + 0.5j]) / np.linalg.norm([0.5, 0.5j, -0.5 + 0.5j])
        observable = {"observable": cm(np.diag([-1.0, 0.0, 1.0]))}
        forms = {"re_im": cv(psi), "q_p": {"q": psi.real.tolist(), "p": psi.imag.tolist()}}
        for name, state in forms.items():
            scen = write_scenario(tmp_path / f"{name}.json",
                                  {"measurement": observable, "initial_state": state, "seed": 9})
            assert run(["measure", "--scenario", scen, "--out", str(tmp_path / name), "--trials", "50"]) == EXIT_OK
        assert read(tmp_path / "re_im" / "measurements.csv") == read(tmp_path / "q_p" / "measurements.csv")

    def test_manifest_records_seed_and_trials(self, tmp_path):
        scen = self._measure_scenario(tmp_path)
        run(["measure", "--scenario", scen, "--out", str(tmp_path / "m"), "--trials", "7"])
        manifest = json.loads(read(tmp_path / "m" / "manifest.json"))
        assert manifest["seed"] == 424242
        assert manifest["trials"] == 7
        assert manifest["bit_generator"] == "Philox"


class TestClosureCommand:
    def test_ladder_closure_json(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {"system": {"dimension": 3, "drift": LADDER_DRIFT, "controls": [LADDER_CONTROL]}},
        )
        out = tmp_path / "out"
        assert run(["closure", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        report = json.loads(read(out / "closure.json"))
        assert report["dimension"] == 3
        assert report["verdict"] == "not-controllable"


class TestSteerCommand:
    def test_hundred_trials_all_reach_goal(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "goal_state": cv([1j / R2, 0, 1j / R2]),
                "initial_state": cv(np.full(3, 1 / np.sqrt(3))),
                "seed": 7,
            },
        )
        out = tmp_path / "out"
        assert run(["steer", "--scenario", scen, "--out", str(out), "--trials", "100"]) == EXIT_OK
        data = json.loads(read(out / "steer.json"))
        assert len(data["trials"]) == 100
        assert all(t["final_fidelity"] >= 1 - 1e-9 for t in data["trials"])


class TestStabilizeCommand:
    def test_iterations_recorded(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {"initial_state": cv([1.0, 0, 0]), "seed": 11},
        )
        out = tmp_path / "out"
        assert run(["stabilize", "--scenario", scen, "--out", str(out), "--trials", "40"]) == EXIT_OK
        data = json.loads(read(out / "stabilize.json"))
        assert all(t["iterations"] >= 1 for t in data["trials"])
        assert all(t["final_fidelity"] == pytest.approx(1.0) for t in data["trials"])


class TestTrialOracles:
    """Each command's artifact equals the one built trial by trial from the
    library functions on ``stream(seed, k)``, byte for byte."""

    def _run(self, tmp_path, command, payload, trials, artifact):
        scen = write_scenario(tmp_path / f"{command}.json", payload)
        out = tmp_path / command
        assert run([command, "--scenario", scen, "--out", str(out), "--trials", str(trials)]) == EXIT_OK
        return read(out / artifact)

    def _measure_oracle(self, tmp_path, obs, psi, seed, trials):
        x0 = to_phase(StateVector(psi))
        rows = []
        for k in range(trials):
            out = measure_selective(x0, Observable(obs), stream(seed, k))
            rows.append([k, out.branch, out.value, out.probability, *out.post_state.q, *out.post_state.p])
        header = ["trial", "branch", "value", "probability"]
        header += [f"q{k+1}" for k in range(len(psi))] + [f"p{k+1}" for k in range(len(psi))]
        write_csv(tmp_path / "oracle.csv", header, rows)
        return read(tmp_path / "oracle.csv")

    def test_measure_three_level(self, tmp_path):
        rng = np.random.default_rng(41)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        obs = (m + m.conj().T) / 2
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        payload = {"measurement": {"observable": cm(obs)}, "initial_state": cv(psi), "seed": 2**63 + 17}
        got = self._run(tmp_path, "measure", payload, 3000, "measurements.csv")
        assert got == self._measure_oracle(tmp_path, obs, psi, 2**63 + 17, 3000)

    def test_measure_degenerate_eight_level_with_a_zero_weight_branch(self, tmp_path):
        rng = np.random.default_rng(42)
        lam = np.array([0.7, -2.0, 1.5, -2.0, 3.0, -2.0, 0.2, 2.4])  # -2 three-fold
        perm = rng.permutation(8)
        obs = np.diag(lam[perm]).astype(complex)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi[np.flatnonzero(lam[perm] == 1.5)] = 0.0  # the 1.5 branch has weight exactly 0
        psi /= np.linalg.norm(psi)
        probs = branch_probabilities(to_phase(StateVector(psi)), Observable(obs))
        assert len(probs) == 6 and np.count_nonzero(probs == 0.0) == 1
        payload = {"measurement": {"observable": cm(obs)}, "initial_state": cv(psi), "seed": 8}
        got = self._run(tmp_path, "measure", payload, 2000, "measurements.csv")
        assert got == self._measure_oracle(tmp_path, obs, psi, 8, 2000)
        values = {line.split(b",")[2] for line in got.splitlines()[1:]}
        assert b"1.5" not in values and len(values) == 5

    def test_steer(self, tmp_path):
        goal = np.array([1j, 0, 1j]) / R2
        psi = np.array([0.3, 0.5 - 0.2j, -0.6 + 0.1j])
        psi /= np.linalg.norm(psi)
        labels = [2.5, -1.0, 0.25]
        payload = {"goal_state": cv(goal), "initial_state": cv(psi), "steering_eigenvalues": labels, "seed": 99}
        got = self._run(tmp_path, "steer", payload, 500, "steer.json")
        frame = build_frame_3level(StateVector(goal).normalized(), tuple(labels))
        trials = []
        for k in range(500):
            tr = steer(to_phase(StateVector(psi)), frame, rng=stream(99, k))
            steps = [{"action": s.action, "detail": s.detail} for s in tr.steps]
            trials.append({"trial": k, "final_fidelity": tr.final_fidelity, "steps": steps})
        write_json(tmp_path / "oracle.json", {"trials": trials})
        assert got == read(tmp_path / "oracle.json")
        assert len({t["steps"][0]["detail"]["branch"] for t in trials}) == 3

    def test_stabilize(self, tmp_path):
        x0 = np.array([0.0, 0.0, np.exp(0.4j)])
        payload = {"initial_state": cv(x0), "mu": 1.3, "disturbance": 0.1, "n_periods": 60, "seed": 5}
        got = self._run(tmp_path, "stabilize", payload, 12, "stabilize.json")
        trials = []
        for k in range(12):
            tr = stabilize_middle_level(to_phase(StateVector(x0)), mu=1.3, disturbance=0.1, n_periods=60,
                                        rng=stream(5, k))
            trials.append({"trial": k, "iterations": tr.iterations, "final_fidelity": tr.final_fidelity,
                           "occupancy": tr.occupancy})
        write_json(tmp_path / "oracle.json", {"trials": trials})
        assert got == read(tmp_path / "oracle.json")


class TestStochasticScenarioErrors:
    """Malformed stochastic scenarios exit with a schema error, not a crash."""

    def _code(self, tmp_path, command, payload, capsys):
        scen = write_scenario(tmp_path / "s.json", dict(payload, seed=3))
        code = run([command, "--scenario", scen, "--out", str(tmp_path / "o"), "--trials", "20"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("observable", [[[0, 1], [0, 0]], [[float("nan"), 0], [0, 1]]])
    def test_measure_observable(self, tmp_path, capsys, observable):
        payload = {"measurement": {"observable": cm(observable)}, "initial_state": cv([1.0, 0.0])}
        code, err = self._code(tmp_path, "measure", payload, capsys)
        assert code == EXIT_SCHEMA and "scenario error: measurement.observable: " in err

    @pytest.mark.parametrize("labels", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 1.0], [1.0, "two", 3.0], 3.0])
    def test_steering_eigenvalues(self, tmp_path, capsys, labels):
        payload = {"goal_state": cv([1j / R2, 0, 1j / R2]), "initial_state": cv([1.0, 0, 0]),
                   "steering_eigenvalues": labels}
        code, err = self._code(tmp_path, "steer", payload, capsys)
        assert code == EXIT_SCHEMA and "steering_eigenvalues" in err

    @pytest.mark.parametrize("disturbance", ["often", [0.1], -0.1, 1.5])
    def test_disturbance(self, tmp_path, capsys, disturbance):
        payload = {"initial_state": cv([1.0, 0, 0]), "disturbance": disturbance, "n_periods": 10}
        code, err = self._code(tmp_path, "stabilize", payload, capsys)
        assert code == EXIT_SCHEMA and "disturbance" in err

    @pytest.mark.parametrize("mu", [0, 1e-10])
    def test_degenerate_mu(self, tmp_path, capsys, mu):
        payload = {"initial_state": cv([1.0, 0, 0]), "mu": mu, "disturbance": 0.1, "n_periods": 50}
        code, err = self._code(tmp_path, "stabilize", payload, capsys)
        assert code == EXIT_SCHEMA and "scenario error: mu: " in err
        assert not (tmp_path / "o" / "stabilize.json").exists()

    @pytest.mark.parametrize("n_periods", [-1, 2.5, "ten"])
    def test_n_periods(self, tmp_path, capsys, n_periods):
        payload = {"initial_state": cv([1.0, 0, 0]), "disturbance": 0.1, "n_periods": n_periods}
        code, err = self._code(tmp_path, "stabilize", payload, capsys)
        assert code == EXIT_SCHEMA and "n_periods" in err


class TestTorusPlanCommand:
    def test_plan_artifact(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json", {"torus_start": [1, 1], "torus_target": [0, 1]}
        )
        out = tmp_path / "out"
        assert run(["torus-plan", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        plan = json.loads(read(out / "plan.json"))
        assert plan["length"] == 1


class TestTorusPlanScenarioErrors:
    """Malformed torus-plan scenarios exit with a schema error, not a crash
    or a silent plan; an endpoint outside the radius-32 box is a domain error."""

    def _code(self, tmp_path, payload, capsys):
        scen = write_scenario(tmp_path / "s.json", payload)
        code = run(["torus-plan", "--scenario", scen, "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("field", ["torus_start", "torus_target"])
    @pytest.mark.parametrize("label", [["a", 1], 5, [1, 1, 1], [1.7, 1]])
    def test_endpoint_not_two_integers(self, tmp_path, capsys, field, label):
        payload = dict({"torus_start": [1, 1], "torus_target": [0, 1]}, **{field: label})
        code, err = self._code(tmp_path, payload, capsys)
        assert code == EXIT_SCHEMA and field in err

    @pytest.mark.parametrize("cat", [[[2, 0], [0, 2]], [[0, -1], [1, 0]], 5, [[2, 1]], [["a", 1], [1, 1]]])
    def test_bad_cat(self, tmp_path, capsys, cat):
        payload = {"system": {"torus": {"cat": cat}}, "torus_start": [1, 1], "torus_target": [0, 1]}
        code, err = self._code(tmp_path, payload, capsys)
        assert code == EXIT_SCHEMA and "system.torus.cat" in err

    @pytest.mark.parametrize("flag", ["false", 0])
    def test_allow_cat_moves_not_a_boolean(self, tmp_path, capsys, flag):
        # bool("false") is True: a string flag used to turn cat moves on
        payload = {"torus_start": [1, 1], "torus_target": [3, 2], "allow_cat_moves": flag}
        code, err = self._code(tmp_path, payload, capsys)
        assert code == EXIT_SCHEMA and "allow_cat_moves" in err

    def test_endpoint_outside_box(self, tmp_path, capsys):
        code, err = self._code(tmp_path, {"torus_start": [1000, 1], "torus_target": [0, 1]}, capsys)
        assert code == EXIT_DOMAIN and "1000" in err


class TestNumericFieldErrors:
    """Non-numeric or out-of-range numbers exit with a schema error naming the field."""

    def _code(self, tmp_path, command, payload, capsys):
        scen = write_scenario(tmp_path / "s.json", payload)
        code = run([command, "--scenario", scen, "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["abc", 1.9, 2**64])
    def test_seed(self, tmp_path, capsys, seed):
        payload = {"measurement": {"observable": cm(np.diag([0.0, 1.0]))}, "initial_state": cv([1.0, 0.0]),
                   "seed": seed}
        code, err = self._code(tmp_path, "measure", payload, capsys)
        assert code == EXIT_SCHEMA and "seed" in err

    @pytest.mark.parametrize("field, value", [("samples", "many"), ("t_final", "x"), ("t_final", 0.0),
                                              ("t_final", -1.0)])
    def test_evolve_horizon(self, tmp_path, capsys, field, value):
        horizon = dict({"t_final": 1.0, "samples": 4}, **{field: value})
        payload = {"system": {"drift": cm([[1.0]])}, "initial_state": cv([1.0]), "horizon": horizon}
        code, err = self._code(tmp_path, "evolve", payload, capsys)
        assert code == EXIT_SCHEMA and field in err

    def test_non_finite_initial_state(self, tmp_path, capsys):
        payload = {"measurement": {"observable": cm(np.diag([0.0, 1.0]))},
                   "initial_state": [[float("nan"), 0.0], [0.0, 0.0]], "seed": 1}
        code, err = self._code(tmp_path, "measure", payload, capsys)
        assert code == EXIT_SCHEMA and "scenario error: initial_state: " in err
        assert not (tmp_path / "o" / "measurements.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("grid_points", "x"), ("grid_points", 0), ("horizon", {"t_final": "x"}), ("cost", "foo"),
        ("control_bounds", {"lower": [float("nan")], "upper": [1.0]}), ("cost", "custom"),
        ("horizon", {"t_final": 0.0}), ("horizon", {"t_final": -1.0}),
    ])
    def test_pmp_fields(self, tmp_path, capsys, field, value):
        payload = {
            "system": {"drift": cm(np.diag([1.0, -1.0])), "controls": [cm([[0, 1], [1, 0]])]},
            "initial_state": cv([0.0, 1.0]),
            "goal_state": cv([1.0, 0.0]),
            "control_bounds": {"lower": [-1.0], "upper": [1.0]},
            "grid_points": 8,
            field: value,
        }
        code, err = self._code(tmp_path, "pmp", payload, capsys)
        assert code == EXIT_SCHEMA and field in err


class TestPmpEndpoints:
    """An endpoint the plant cannot take is a domain error, not a crash or NaN."""

    @pytest.mark.parametrize("field, state", [
        ("initial_state", cv([0.0, 1.0, 0.0])), ("initial_state", cv([0.0, 0.0])),
        ("goal_state", cv([1.0, 0.0, 0.0])), ("goal_state", cv([0.0, 0.0])),
    ])
    def test_bad_endpoint_exits_domain(self, tmp_path, capsys, field, state):
        payload = {
            "system": {"drift": cm(np.diag([1.0, -1.0])), "controls": [cm([[0, 1], [1, 0]])]},
            "initial_state": cv([0.0, 1.0]),
            "goal_state": cv([1.0, 0.0]),
            "control_bounds": {"lower": [-1.0], "upper": [1.0]},
            "grid_points": 8,
            field: state,
        }
        scen = write_scenario(tmp_path / "s.json", payload)
        assert run(["pmp", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_DOMAIN
        assert "qphase: domain error: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "pmp.json").exists()


class TestPmpCommand:
    def test_two_level_flip(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "system": {
                    "dimension": 2,
                    "drift": cm(np.diag([1.0, -1.0])),
                    "controls": [cm([[0, 1], [1, 0]])],
                },
                "initial_state": cv([0.0, 1.0]),
                "goal_state": cv([1.0, 0.0]),
                "control_bounds": {"lower": [-1.0], "upper": [1.0]},
                "cost": "control-energy",
                "horizon": {"t_final": np.pi},
                "grid_points": 60,
            },
        )
        out = tmp_path / "out"
        assert run(["pmp", "--scenario", scen, "--out", str(out)]) == EXIT_OK
        sol = json.loads(read(out / "pmp.json"))
        assert sol["converged"] and sol["fidelity"] >= 0.999
        csv_lines = (out / "pmp_schedule.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 61  # header + one row per interval

    def test_no_authority_exits_numeric(self, tmp_path):
        scen = write_scenario(
            tmp_path / "s.json",
            {
                "system": {
                    "dimension": 2,
                    "drift": cm(np.diag([1.0, -1.0])),
                    "controls": [cm([[0, 1], [1, 0]])],
                },
                "initial_state": cv([0.0, 1.0]),
                "goal_state": cv([1.0, 0.0]),
                "control_bounds": {"lower": [0.0], "upper": [0.0]},
                "grid_points": 20,
            },
        )
        assert run(["pmp", "--scenario", scen, "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
