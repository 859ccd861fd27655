"""Command-line experiment harness.

Each subcommand reads a JSON scenario file, runs one module operation, and
writes its artifacts plus a run manifest into the output directory.  All
stochastic commands require a seed.  Trial k draws from its own stream,
Philox keyed by the seed with counter word 2 set to k, and each projective
measurement takes one uniform from it, so outputs are byte-identical across
re-runs and a short run is a prefix of a longer one.  ``measure`` and
``steer`` start every trial from the same state: they compute the Born
weights and each drawn branch's outcome once and draw only the uniforms
per trial.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .controllability import lie_closure
from .dynamics import ControlSchedule, ControlledHamiltonian, sample_trajectory
from .errors import (
    DegenerateBasisError,
    FrameSearchError,
    HermiticityError,
    MaxIterationsError,
    QPhaseError,
    ScenarioError,
    SteeringLabelError,
)
from .geometry import Observable, PhasePoint, StateVector, from_phase, to_phase
from .measurement import born_weights, branch_outcome, select_branches
from .pontryagin import COST_ENERGY, ControlDomain, CostIntegrand, forward_backward_sweep
from .rng import BIT_GENERATOR, first_uniforms, stream
from .serialize import (
    fmt,
    fmt_lines,
    matrix_from_json,
    vector_from_json,
    write_csv,
    write_json,
    write_trials_json,
)
from .steering import build_frame_3level, stabilize_middle_level, steer_outcome
from .torus import DEFAULT_CAT, CatMap, plan_kicks

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_DOMAIN = 4

# run() calls cmd_<name>(scenario, args, seed), with "-" in the name as "_";
# the seed is None for a deterministic command
COMMANDS = ("evolve", "measure", "closure", "steer", "stabilize", "torus-plan", "pmp")
STOCHASTIC_COMMANDS = ("measure", "steer", "stabilize")


@dataclass(frozen=True)
class Scenario:
    """Validated scenario file contents."""

    raw: dict
    path: str

    def require(self, field: str):
        node = self.raw
        for part in field.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ScenarioError(field, "required field is missing")
            node = node[part]
        return node

    def get(self, field: str, default=None):
        node = self.raw
        for part in field.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node

    def number(self, field: str, default=None):
        """Finite number at ``field``, or ``default`` when it is absent."""
        value = self.get(field)
        return default if value is None else _finite(field, value)

    def integer(self, field: str, default=None):
        """Integer at ``field``, or ``default`` when it is absent."""
        value = self.get(field)
        return default if value is None else _integer(field, value)

    def matrix(self, field: str) -> np.ndarray:
        return _matrix(field, self.require(field))

    def state(self, field: str) -> PhasePoint:
        node = self.require(field)
        try:
            if isinstance(node, dict):
                x = PhasePoint(np.asarray(node["q"], float), np.asarray(node["p"], float))
            else:
                x = to_phase(StateVector(vector_from_json(node)))
        except Exception as exc:
            raise ScenarioError(field, f"not a state vector ({exc})")
        if not np.all(np.isfinite(x.flat())):
            raise ScenarioError(field, "amplitudes must be finite")
        return x

    def seed(self, override) -> int:
        value = self.get("seed") if override is None else override
        if value is None:
            raise ScenarioError("seed", "a seed is mandatory for stochastic commands")
        value = _integer("seed", value)
        if not 0 <= value < 2**64:
            raise ScenarioError("seed", "seed must fit in an unsigned 64-bit integer")
        return value

    def plant(self) -> ControlledHamiltonian:
        drift = self.matrix("system.drift")
        nodes = self.get("system.controls", [])
        if not isinstance(nodes, list):
            raise ScenarioError("system.controls", "not a list of matrices")
        controls = tuple(_matrix(f"system.controls[{k}]", c) for k, c in enumerate(nodes))
        dim = self.integer("system.dimension")
        if dim is not None and dim != drift.shape[0]:
            raise ScenarioError("system.dimension", "does not match the drift matrix")
        schedule = None
        if self.get("schedule") is not None:
            grid, values = self.require("schedule.grid"), self.require("schedule.values")
            try:
                schedule = ControlSchedule(np.asarray(grid, float), np.asarray(values, float))
            except (TypeError, ValueError) as exc:
                raise ScenarioError("schedule", str(exc))
        try:
            return ControlledHamiltonian(drift, controls, schedule)
        except QPhaseError as exc:
            raise ScenarioError("system", str(exc))

    def domain(self) -> ControlDomain:
        node = self.require("control_bounds")
        try:
            return ControlDomain(
                np.asarray(node["lower"], float), np.asarray(node["upper"], float)
            )
        except Exception as exc:
            raise ScenarioError("control_bounds", str(exc))


def _matrix(field: str, node) -> np.ndarray:
    try:
        return matrix_from_json(node)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(field, f"not a matrix of [re, im] pairs ({exc})")


def _finite(field: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ScenarioError(field, f"not a finite number: {value!r}")
    return float(value)


def _integer(field: str, value) -> int:
    """A JSON integer, or a float with an integer value, as an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ScenarioError(field, f"not an integer: {value!r}")
    return value


def _integer_pair(field: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ScenarioError(field, f"not a pair of integers: {value!r}")
    return tuple(_integer(field, x) for x in value)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError("scenario", f"file not found: {path}")
    except OSError as exc:  # a directory, or a file we may not read
        raise ScenarioError("scenario", f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError:
        raise ScenarioError("scenario", f"not UTF-8 text: {path}")
    except json.JSONDecodeError as exc:
        raise ScenarioError("scenario", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario", "top-level value must be an object")
    return Scenario(raw, path)


def _write_manifest(out_dir, command, scenario, seed, trials, artifacts, t0):
    write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "command": command,
            "scenario": os.path.abspath(scenario.path),
            "seed": seed,
            "trials": trials,
            "bit_generator": BIT_GENERATOR,
            "versions": {
                "qphase": __version__,
                "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3])),
            },
            "artifacts": sorted(artifacts),
            "wall_time_s": time.monotonic() - t0,
        },
    )


def _trial_outcomes(x0: PhasePoint, obs: Observable, seed: int, trials: int):
    """Measured branch of each trial, and each drawn branch's outcome.

    Every trial starts from x0, so the odds and the outcomes are computed
    once; trial k takes one uniform from its own stream.
    """
    psi0 = x0.amplitudes
    probs = born_weights(psi0, obs)
    branches = select_branches(probs, first_uniforms(seed, trials)).tolist()
    return branches, {b: branch_outcome(psi0, obs, probs, b) for b in sorted(set(branches))}


def cmd_evolve(scenario: Scenario, args, seed=None) -> list:
    plant = scenario.plant()
    x0 = scenario.state("initial_state")
    t_final = _finite("horizon.t_final", scenario.require("horizon.t_final"))
    samples = scenario.integer("horizon.samples", 100)
    if t_final <= 0 or samples < 1:
        raise ScenarioError("horizon", "t_final must be > 0 and samples >= 1")
    times = np.linspace(0.0, t_final, samples + 1)
    points, energies = sample_trajectory(plant, x0, times)
    n = x0.dim
    header = (
        ["t"]
        + [f"q{k+1}" for k in range(n)]
        + [f"p{k+1}" for k in range(n)]
        + ["energy"]
    )
    path = os.path.join(args.out, "trajectory.csv")
    write_csv(path, header, fmt_lines(np.column_stack([times, points, energies])), preformatted=True)
    return ["trajectory.csv"]


def cmd_measure(scenario: Scenario, args, seed: int) -> list:
    try:
        obs = Observable(scenario.matrix("measurement.observable"))
    except HermiticityError as exc:
        raise ScenarioError("measurement.observable", str(exc))
    x0 = scenario.state("initial_state")
    branches, outcomes = _trial_outcomes(x0, obs, seed, args.trials)
    tails = {
        b: ",".join(map(fmt, [b, out.value, out.probability, *out.post_state.q, *out.post_state.p])) + "\n"
        for b, out in outcomes.items()
    }
    lines = (f"{trial},{tails[b]}" for trial, b in enumerate(branches))  # str(k) == fmt(k) below 10**17
    header = (
        ["trial", "branch", "value", "probability"]
        + [f"q{k+1}" for k in range(x0.dim)]
        + [f"p{k+1}" for k in range(x0.dim)]
    )
    write_csv(os.path.join(args.out, "measurements.csv"), header, lines, preformatted=True)
    return ["measurements.csv"]


def cmd_closure(scenario: Scenario, args, seed=None) -> list:
    plant = scenario.plant()
    report = lie_closure(tuple(Observable(h) for h in plant.hamiltonians))
    write_json(os.path.join(args.out, "closure.json"), report.to_json_dict())
    return ["closure.json"]


def cmd_steer(scenario: Scenario, args, seed: int) -> list:
    goal = scenario.state("goal_state")
    labels = scenario.get("steering_eigenvalues", (1.0, 2.0, 3.0))
    if not isinstance(labels, (list, tuple)):
        raise ScenarioError("steering_eigenvalues", "not a list of numbers")
    eigenvalues = tuple(_finite("steering_eigenvalues", a) for a in labels)
    try:
        frame = build_frame_3level(from_phase(goal).normalized(), eigenvalues)
    except SteeringLabelError as exc:
        raise ScenarioError("steering_eigenvalues", str(exc))
    x0 = scenario.state("initial_state")
    branches, outcomes = _trial_outcomes(x0, frame.observable(), seed, args.trials)
    traces = {}
    for b, out in outcomes.items():
        trace = steer_outcome(frame, out)
        traces[b] = {
            "final_fidelity": trace.final_fidelity,
            "steps": [{"action": st.action, "detail": st.detail} for st in trace.steps],
        }
    write_trials_json(os.path.join(args.out, "steer.json"), branches, traces)
    return ["steer.json"]


def cmd_stabilize(scenario: Scenario, args, seed: int) -> list:
    x0 = scenario.state("initial_state")
    mu = scenario.number("mu", 1.0)
    disturbance = scenario.number("disturbance")
    if disturbance is not None and not 0.0 <= disturbance <= 1.0:
        raise ScenarioError("disturbance", "must lie in [0, 1]")
    n_periods = scenario.integer("n_periods", 0)
    if n_periods < 0:
        raise ScenarioError("n_periods", "must be a non-negative integer")
    results = []
    for trial in range(args.trials):
        try:
            trace = stabilize_middle_level(
                x0,
                mu=mu,
                disturbance=disturbance,
                n_periods=n_periods,
                rng=stream(seed, trial),
            )
        except DegenerateBasisError as exc:
            raise ScenarioError("mu", str(exc))
        results.append({
            "trial": trial,
            "iterations": trace.iterations,
            "final_fidelity": trace.final_fidelity,
            "occupancy": trace.occupancy,
        })
    write_json(os.path.join(args.out, "stabilize.json"), {"trials": results})
    return ["stabilize.json"]


def cmd_torus_plan(scenario: Scenario, args, seed=None) -> list:
    rows = scenario.get("system.torus.cat", DEFAULT_CAT)
    if not isinstance(rows, (list, tuple)) or len(rows) != 2:
        raise ScenarioError("system.torus.cat", f"not a 2x2 integer matrix: {rows!r}")
    rows = tuple(_integer_pair("system.torus.cat", row) for row in rows)
    try:
        cat = CatMap(rows)
    except ValueError as exc:
        raise ScenarioError("system.torus.cat", str(exc))
    k_start = _integer_pair("torus_start", scenario.require("torus_start"))
    k_target = _integer_pair("torus_target", scenario.require("torus_target"))
    allow_cat = scenario.get("allow_cat_moves", True)
    if not isinstance(allow_cat, bool):
        raise ScenarioError("allow_cat_moves", f"not true or false: {allow_cat!r}")
    plan = plan_kicks(k_start, k_target, cat, allow_cat)
    write_json(os.path.join(args.out, "plan.json"), plan.to_json_dict())
    return ["plan.json"]


def cmd_pmp(scenario: Scenario, args, seed=None) -> list:
    plant = scenario.plant()
    x0 = scenario.state("initial_state")
    goal = scenario.state("goal_state")
    domain = scenario.domain()
    try:
        cost = CostIntegrand(scenario.get("cost", COST_ENERGY))
    except ValueError as exc:
        raise ScenarioError("cost", str(exc))
    t_final = scenario.number("horizon.t_final", np.pi)
    points = scenario.integer("grid_points", 200)
    if t_final <= 0:
        raise ScenarioError("horizon.t_final", "must be > 0")
    if points < 1:
        raise ScenarioError("grid_points", "must be >= 1")
    grid = np.linspace(0.0, t_final, points + 1)
    sol = forward_backward_sweep(plant, x0, goal, cost, domain, grid)
    write_json(os.path.join(args.out, "pmp.json"), sol.to_json_dict())
    write_csv(
        os.path.join(args.out, "pmp_schedule.csv"),
        ["t"] + [f"u{j+1}" for j in range(sol.schedule.n_channels)],
        [[t, *row] for t, row in zip(sol.schedule.grid[:-1], sol.schedule.values)],
    )
    if not sol.converged:
        raise MaxIterationsError(
            f"solver did not reach the fidelity goal (best {sol.fidelity:.6f})"
        )
    return ["pmp.json", "pmp_schedule.csv"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qphase", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scenario", required=True, help="path to the JSON scenario file")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--trials", type=int, default=1, help="number of independent trials")
    return parser


_PARSER = build_parser()


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.trials < 1:
            raise ScenarioError("trials", "must be >= 1")
        scenario = load_scenario(args.scenario)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:  # a file already holds the name, or a parent is one
            raise ScenarioError("out", f"cannot create directory {args.out}: {exc.strerror or exc}")
        seed = None
        if args.command in STOCHASTIC_COMMANDS:
            seed = scenario.seed(args.seed)
        # looked up at call time, so a wrapper set on the module attribute is called
        artifacts = globals()["cmd_" + args.command.replace("-", "_")](scenario, args, seed)
        _write_manifest(args.out, args.command, scenario, seed, args.trials, artifacts, t0)
        return EXIT_OK
    except ScenarioError as exc:
        print(f"qphase: scenario error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (MaxIterationsError, FrameSearchError) as exc:
        print(f"qphase: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except QPhaseError as exc:
        print(f"qphase: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
