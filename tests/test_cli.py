"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qphase.cli
import qphase.dynamics
import qphase.pontryagin
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
from qphase.serialize import fmt, write_csv, write_json
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


class TestParser:
    """``run`` parses with one parser built at import, with the options and exit codes of ``build_parser``."""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == qphase.cli.build_parser().format_help()

    @pytest.mark.parametrize("argv", [["bogus", "--scenario", "s.json"], ["evolve"], ["evolve", "--scenario"]])
    def test_bad_arguments_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "usage: qphase" in capsys.readouterr().err

    def test_run_does_not_rebuild_the_parser(self, tmp_path, monkeypatch):
        def rebuilt():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(qphase.cli, "build_parser", rebuilt)
        assert run(["evolve", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_each_command_is_looked_up_by_name_at_call_time(self, tmp_path, monkeypatch):
        calls = []
        for name in qphase.cli.COMMANDS:
            def wrapped(scenario, args, seed, name=name):
                calls.append((name, seed))
                return []

            monkeypatch.setattr(qphase.cli, "cmd_" + name.replace("-", "_"), wrapped)
        scenario = write_scenario(tmp_path / "s.json", {"seed": 7})
        for name in qphase.cli.COMMANDS:
            assert run([name, "--scenario", scenario, "--out", str(tmp_path / name)]) == EXIT_OK
        stochastic = qphase.cli.STOCHASTIC_COMMANDS
        assert calls == [(name, 7 if name in stochastic else None) for name in qphase.cli.COMMANDS]


class TestSchemaDiagnostics:
    def test_missing_file(self, tmp_path):
        assert run(["evolve", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_SCHEMA

    def test_scenario_is_a_directory(self, tmp_path, capsys):
        assert run(["evolve", "--scenario", str(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert f"scenario error: scenario: cannot read {tmp_path}: " in capsys.readouterr().err

    def test_scenario_not_utf8(self, tmp_path, capsys):
        (tmp_path / "s.json").write_bytes(b'{"system": "\xff"}')
        assert run(["evolve", "--scenario", str(tmp_path / "s.json"), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert f"scenario error: scenario: not UTF-8 text: {tmp_path / 's.json'}" in capsys.readouterr().err

    def test_scenario_unreadable(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "s.json")
        write_scenario(path, {})

        # permission bits do not stop a superuser, so the refusal is simulated
        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        monkeypatch.setattr("qphase.cli.open", refuse, raising=False)
        assert run(["evolve", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        assert f"scenario error: scenario: cannot read {path}: Permission denied" in capsys.readouterr().err

    def test_out_is_a_file(self, tmp_path, capsys):
        scen = write_scenario(tmp_path / "s.json", {"torus_start": [1, 1], "torus_target": [0, 1]})
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["torus-plan", "--scenario", scen, "--out", str(out)]) == EXIT_SCHEMA
        assert f"scenario error: out: cannot create directory {out}: " in capsys.readouterr().err
        assert out.read_text() == ""

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
        write_csv(tmp_path / "oracle.csv", header, (",".join(map(fmt, row)) + "\n" for row in rows))
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

    @pytest.mark.parametrize("trials, on_frame_vector", [(1, False), (200, True)])
    def test_steer_edge_cases(self, tmp_path, trials, on_frame_vector):
        """One trial, and a start on a frame vector so every trial takes one branch."""
        goal = np.array([1.0, 0, 1.0]) / R2
        labels = [1.0, 2.0, 3.0]
        frame = build_frame_3level(StateVector(goal).normalized(), tuple(labels))
        psi = frame.frame[1].amplitudes if on_frame_vector else np.array([0.6, 0.0, 0.8j])
        payload = {"goal_state": cv(goal), "initial_state": cv(psi), "steering_eigenvalues": labels, "seed": 2**64 - 1}
        got = self._run(tmp_path, "steer", payload, trials, "steer.json")
        results = []
        for k in range(trials):
            tr = steer(to_phase(StateVector(psi)), frame, rng=stream(2**64 - 1, k))
            steps = [{"action": s.action, "detail": s.detail} for s in tr.steps]
            results.append({"trial": k, "final_fidelity": tr.final_fidelity, "steps": steps})
        write_json(tmp_path / "oracle.json", {"trials": results})
        assert got == read(tmp_path / "oracle.json")
        assert len({t["steps"][0]["detail"]["branch"] for t in results}) == 1

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


@pytest.mark.parametrize("command, payload, field, value, artifact", [
    ("stabilize", {"initial_state": cv([1.0, 0, 0]), "disturbance": 0.2, "seed": 3}, "n_periods", 500,
     "stabilize.json"),
    ("torus-plan", {"torus_target": [4, -9]}, "torus_start", [1, 2], "plan.json"),
])
def test_integral_floats_read_as_ints(tmp_path, command, payload, field, value, artifact):
    """A JSON 500.0 or [1.0, 2.0] writes the artifact that 500 or [1, 2] writes."""
    as_float = [float(v) for v in value] if isinstance(value, list) else float(value)
    got = []
    for name, v in (("int", value), ("float", as_float)):
        scen = write_scenario(tmp_path / f"{name}.json", dict(payload, **{field: v}))
        assert run([command, "--scenario", scen, "--out", str(tmp_path / name)]) == EXIT_OK
        got.append(read(tmp_path / name / artifact))
    assert got[0] == got[1]


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

    # only an absent matrix means CatMap.default(); an explicit null is malformed
    @pytest.mark.parametrize("cat", [[[2, 0], [0, 2]], [[0, -1], [1, 0]], 5, [[2, 1]], [["a", 1], [1, 1]], None])
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

    @pytest.mark.parametrize("bad, code", [("none", EXIT_OK), ("nan", EXIT_NUMERIC), ("-inf", EXIT_NUMERIC),
                                           ("inf-gradient", EXIT_NUMERIC)])
    def test_non_finite_polish_objective_is_not_converged(self, tmp_path, monkeypatch, bad, code):
        """A polish objective that is never finite leaves the sweep's schedule, which falls short
        of the goal on 4 intervals: exit 3 with finite artifacts, not a NaN schedule."""
        objective = qphase.pontryagin._TransferProblem.objective

        def broken(*args):
            value, grad = objective(*args)
            if bad == "inf-gradient":
                return value, np.full_like(grad, np.inf)
            return {"none": value, "nan": np.nan, "-inf": -np.inf}[bad], grad

        monkeypatch.setattr(qphase.pontryagin._TransferProblem, "objective", broken)
        scen = write_scenario(tmp_path / "s.json", {
            "system": {"drift": cm(np.diag([1.0, -1.0])), "controls": [cm([[0, 1], [1, 0]])]},
            "initial_state": cv([0.0, 1.0]), "goal_state": cv([1.0, 0.0]),
            "control_bounds": {"lower": [-1.0], "upper": [1.0]},
            "horizon": {"t_final": np.pi}, "grid_points": 4,
        })
        out = tmp_path / "o"
        assert run(["pmp", "--scenario", scen, "--out", str(out)]) == code
        sol = json.loads(read(out / "pmp.json"))
        assert sol["converged"] == (code == EXIT_OK)
        assert np.all(np.isfinite(sol["controls"])) and np.isfinite(sol["cost"]) and 0.0 <= sol["fidelity"] <= 1.0
        assert np.all(np.isfinite(np.loadtxt(out / "pmp_schedule.csv", delimiter=",", skiprows=1)))

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


COLD_START = """
import json, sys
import scipy
before = set(sys.modules)
import qphase, qphase.cli
random_at_import = "numpy.random" in sys.modules
for argv in json.loads(sys.argv[1]):
    assert qphase.cli.run(argv) == qphase.cli.EXIT_OK, argv
ladder = qphase.lie_closure([qphase.Observable(qphase.ladder_drift()), qphase.Observable(qphase.ladder_control())])
goal = qphase.PhasePoint([0, 0, 0], [2 ** -0.5, 0, 2 ** -0.5])
assert qphase.orbit_membership(ladder, goal, qphase.PhasePoint([0, 1, 0], [0, 0, 0])).found
assert len(qphase.build_frame_general(qphase.from_phase(goal), ladder).frame) == 3
loaded = sorted(m for m in sys.modules if m.startswith("scipy.") and m not in before)
print(json.dumps({"loaded": loaded, "random_at_import": random_at_import}))
"""


def subcommand_runs(tmp_path) -> list:
    """argv of one short run of each of the seven subcommands, their scenarios written under tmp_path."""
    system = {"drift": LADDER_DRIFT, "controls": [LADDER_CONTROL]}
    scenarios = {
        "measure": {"measurement": {"observable": cm(np.diag([-1.0, 0.0, 1.0]))},
                    "initial_state": cv([0.5, 1 / R2, 0.5]), "seed": 3},
        "steer": {"goal_state": cv([1j / R2, 0, 1j / R2]), "initial_state": cv(np.full(3, 1 / np.sqrt(3))), "seed": 3},
        "stabilize": {"initial_state": cv([1.0, 0, 0]), "disturbance": 0.2, "n_periods": 10, "seed": 3},
        "evolve": {"system": system, "schedule": {"grid": [0.0, 1.0], "values": [[0.5]]},
                   "initial_state": cv([1.0, 0, 0]), "horizon": {"t_final": 1.0, "samples": 4}},
        "closure": {"system": system},
        "torus-plan": {"torus_start": [-7, 12], "torus_target": [4, -9]},
        "pmp": {"system": {"drift": cm(np.diag([1.0, -1.0])), "controls": [cm([[0, 1], [1, 0]])]},
                "initial_state": cv([0, 1.0]), "goal_state": cv([1.0, 0]),
                "control_bounds": {"lower": [-1.0], "upper": [1.0]},
                "horizon": {"t_final": float(np.pi)}, "grid_points": 8},
    }
    return [
        [command, "--scenario", write_scenario(tmp_path / f"{command}.json", payload),
         "--out", str(tmp_path / command), "--trials", "5"]
        for command, payload in scenarios.items()
    ]


def run_fresh(script: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -c script *argv`` in a fresh interpreter that imports qphase from this tree."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120)


def test_cold_start_loads_no_scipy_submodule(tmp_path):
    """In a fresh interpreter, no subcommand, ``pmp`` included, and neither the orbit nor the frame search loads a
    SciPy submodule, and the import loads no numpy.random."""
    done = run_fresh(COLD_START, json.dumps(subcommand_runs(tmp_path)))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["loaded"] == []
    assert not result["random_at_import"]


WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a scipy submodule now raises ImportError
import numpy as np
import qphase, qphase.cli

for argv in json.loads(sys.argv[1]):
    assert qphase.cli.run(argv) == qphase.cli.EXIT_OK, argv

called = set()


def call(name, *args, **kwargs):
    called.add(name)
    return getattr(qphase, name)(*args, **kwargs)


rng = np.random.default_rng(0)
sx, sz = np.array([[0, 1], [1, 0]], complex), np.diag([1.0, -1.0])
x = call("PhasePoint", [0.6, 0.0], [0.0, 0.8])
y = call("to_phase", call("StateVector", [0.0, 1j]))
call("from_phase", y)
call("complex_structure", x)
call("g_form", x, y)
call("omega_form", x, y)
call("real_block", sx)
call("ClassicalHamiltonian", sz).value(x)
plant = call("ControlledHamiltonian", sz, (sx,), call("ControlSchedule", [0.0, 0.5, 1.0], [[0.3], [-0.7]]))
call("evolve", plant, x, 0.0, 1.0)
call("evolve_unitary", plant, 0.0, 1.0)
call("interval_propagators", plant, [[0.3]], [0.5])
call("sample_trajectory", plant, x, [0.0, 0.5, 1.0])
call("PhaseEnsemble", [1.0], (x,))

obs, psi = call("Observable", sz), x.amplitudes
probs = call("born_weights", psi, obs)
call("born_probability_via_metric", x, obs, 1.0)
call("branch_outcome", psi, obs, probs, 0)
call("branch_probabilities", x, obs)
call("closest_point_check", x, obs, 1.0, 3, rng)
call("collapse", psi, obs, 0)
call("draw_branch", probs, rng)
call("select_branches", probs, [0.2, 0.9])
call("measure_nonselective", x, obs)
out = call("measure_selective", x, obs, rng)
call("MeasurementOutcome", out.value, out.probability, out.post_state, out.branch)
gauss = call("GaussianMeasurement", obs, 1.0, 0.01)
call("continuous_observe", call("DensityMatrix", np.full((2, 2), 0.5, complex)), obs, gauss, 0.1, 10)

ladder = call("lie_closure", [qphase.Observable(call("ladder_drift")), qphase.Observable(call("ladder_control"))])
call("LieClosureReport", ladder.basis, ladder.verdict, ladder.gram)
call("group_element", ladder, np.zeros(len(ladder.basis)))
goal = qphase.PhasePoint([0, 0, 0], [2 ** -0.5, 0, 2 ** -0.5])
member = call("orbit_membership", ladder, goal, qphase.PhasePoint([0, 1, 0], [0, 0, 0]))
assert member.found
call("OrbitMembership", member.found, member.certificate, member.fidelity, member.evaluations)

frame = call("build_frame_general", qphase.from_phase(goal), ladder)
call("SteeringObservable", frame.eigenvalues, frame.frame, frame.words, frame.goal)
call("SteeringWord", (), np.eye(3, dtype=complex))
for name in ("h1_matrix", "h2_matrix", "h3_matrix"):
    call(name, 0.3)
frame3 = call("build_frame_3level", qphase.from_phase(goal))
x3 = qphase.PhasePoint(np.full(3, 3 ** -0.5), np.zeros(3))
trace = call("steer", x3, frame3, rng)
call("ProtocolTrace", trace.steps, trace.final_fidelity, trace.iterations, trace.occupancy)
call("ProtocolStep", "measure", {}, x3)
call("steer_outcome", frame3, qphase.measure_selective(x3, frame3.observable(), rng))
call("stabilize_middle_level", qphase.PhasePoint([1.0, 0, 0], [0, 0, 0]), disturbance=0.2, n_periods=5, rng=rng)

cat = call("CatMap", qphase.CatMap.default().m)
plan = call("plan_kicks", (-7, 12), (4, -9), cat)
call("KickPlan", plan.steps, plan.k_start, plan.k_target)
torus = call("TorusState", (((0, 0), 2 ** -0.5), ((1, 0), 2 ** -0.5)))
call("apply_floquet_component", torus, "U1")
call("measure_momentum", torus, rng)
call("reach_state", torus, (3, -2), rng)

domain, cost = call("ControlDomain", [-1.0], [1.0]), call("CostIntegrand")
two_level = qphase.ControlledHamiltonian(sz, (sx,))
state = call("PmpState", np.arange(5.0), np.ones(5))
call("argmax_control", state, two_level, cost, domain)
call("control_hamiltonian", state, [0.5], two_level, cost, domain)
z0, z1, grid = qphase.PhasePoint([0, 1], [0, 0]), qphase.PhasePoint([1, 0], [0, 0]), np.linspace(0, np.pi, 21)
sol = call("forward_backward_sweep", two_level, z0, z1, cost, domain, grid)
call("PmpSolution", sol.schedule, sol.cost, sol.fidelity, sol.iterations, sol.converged)
assert call("solve_shooting", two_level, z0, z1, cost, domain, grid).converged

exported = {name for name, value in vars(qphase).items() if not name.startswith("_") and callable(value)}
print(json.dumps({"not_called": sorted(exported - called), "unknown": sorted(called - exported)}))
"""


def test_runs_with_scipy_blocked(tmp_path):
    """With ``scipy`` unimportable, every subcommand runs and every function and class qphase exports works."""
    done = run_fresh(WITHOUT_SCIPY, json.dumps(subcommand_runs(tmp_path)))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"not_called": [], "unknown": []}
