"""The three benchmark workloads: inputs drawn from a seed, operations, checks.

An operation is one ``qphase`` CLI invocation (through ``qphase.cli.run``)
or one direct library call, followed by an untimed check of its output.
Every name in qphase is looked up at call time through its module, so that
the tracer's wrappers see the calls.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import qphase.cli
import qphase.measurement
import qphase.torus
from qphase.geometry import Observable
from qphase.measurement import DensityMatrix, GaussianMeasurement

import checks
from checks import CheckError, OperationFailed, SIGMA_X, SIGMA_Y, cmatrix, cvector, decode


@dataclass
class Op:
    """One timed call and the untimed check of what it returned or wrote."""

    name: str
    call: Callable[[str], object]  # receives a fresh output directory
    check: Callable[[str, object], None]


@dataclass
class Workload:
    ops: list  # one round of the timed body
    warmup: list  # run once during set-up, untimed


def _write(path: str, payload: dict) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _read(out: str, name: str) -> str:
    with open(os.path.join(out, name)) as fh:
        return fh.read()


def cli_op(name: str, command: str, scenario: str, check, trials: int | None = None) -> Op:
    argv = [command, "--scenario", scenario]
    if trials is not None:
        argv += ["--trials", str(trials)]

    def call(out):
        code = qphase.cli.run(argv + ["--out", out])
        if code != 0:
            raise OperationFailed(f"qphase {command} exited with code {code}")

    return Op(name, call, check)


def _state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _hermitian(rng, n: int) -> np.ndarray:
    """Random Hermitian matrix scaled to unit spectral norm."""
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (m + m.conj().T) / 2
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- synthesis

SYNTHESIS_SPECS = (  # (control channels, cost, control intervals, inputs drawn from the seed)
    (1, "control-energy", 8, True),
    (1, "control-energy", 16, True),
    (2, "control-energy", 8, True),
    # The l1 sweep amplifies last-bit differences: unitarily equivalent
    # inputs took 142 to 249 iterations, so its inputs stay fixed.
    (1, "control-l1", 8, False),
)


def _pmp_scenario(rng, channels: int, cost: str, intervals: int, seeded: bool = True) -> dict:
    """Two-level inversion |1> -> |0> under H = diag(1, -1) + sum u_j H_j.

    The seed draws the control axis phi in the xy-plane and the phases of
    the two states.  The rotation exp(-i phi sigma_z / 2) commutes with the
    drift, so every draw is unitarily equivalent to the sigma_x problem and
    the solver does about the same work whatever the seed.
    """
    phi, alpha, beta = rng.uniform(0.0, 2.0 * np.pi, 3) if seeded else (0.0, 0.0, 0.0)
    axes = [np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y, -np.sin(phi) * SIGMA_X + np.cos(phi) * SIGMA_Y]
    return {
        "system": {"dimension": 2, "drift": cmatrix(np.diag([1.0, -1.0])), "controls": [cmatrix(c) for c in axes[:channels]]},
        "initial_state": cvector(np.exp(1j * alpha) * np.array([0.0, 1.0])),
        "goal_state": cvector(np.exp(1j * beta) * np.array([1.0, 0.0])),
        "control_bounds": {"lower": [-1.0] * channels, "upper": [1.0] * channels},
        "cost": cost,
        "horizon": {"t_final": float(np.pi)},
        "grid_points": intervals,
    }


def _pmp_op(name: str, scenario: dict, path: str) -> Op:
    oracle_cost = None
    if len(scenario["system"]["controls"]) == 1 and scenario["cost"] == "control-energy":
        best, oracle_cost = checks.bang_bang_oracle(
            decode(scenario["system"]["drift"]),
            decode(scenario["system"]["controls"][0]),
            decode(scenario["initial_state"]),
            decode(scenario["goal_state"]),
            scenario["horizon"]["t_final"],
            scenario["control_bounds"]["upper"][0],
        )
        if best < 0.999:
            raise CheckError(f"bang-bang oracle reaches only fidelity {best:.6f}")

    def check(out, _):
        pmp = json.loads(_read(out, "pmp.json"))
        checks.check_pmp(scenario, pmp, _read(out, "pmp_schedule.csv"), oracle_cost)

    return cli_op(name, "pmp", _write(path, scenario), check)


def synthesis(seed: int, where: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    for channels, cost, intervals, seeded in SYNTHESIS_SPECS:
        name = f"pmp-{channels}ch-{cost.split('-')[1]}-m{intervals}"
        scenario = _pmp_scenario(rng, channels, cost, intervals, seeded)
        ops.append(_pmp_op(name, scenario, os.path.join(where, name + ".json")))
    warm = _pmp_op("pmp-warmup", _pmp_scenario(rng, 1, "control-energy", 4), os.path.join(where, "pmp-warmup.json"))
    return Workload(ops, [warm])


# ------------------------------------------------------------------- trials

MEASURE_TRIALS = (20_000, 6_000)
STEER_TRIALS = 2_000
STABILIZE = {"trials": 40, "n_periods": 500, "disturbance": 0.05}
PREFIX_TRIALS = 200


def _measure_ops(name: str, obs: np.ndarray, psi0: np.ndarray, trials: int, seed: int, path: str):
    """The long ``measure`` run and its short warm-up run with the same seed."""
    scenario = _write(path, {"measurement": {"observable": cmatrix(obs)}, "initial_state": cvector(psi0), "seed": seed})
    short = {}

    def check_short(out, _):
        short["csv"] = _read(out, "measurements.csv")
        checks.check_measure(obs, psi0, short["csv"], PREFIX_TRIALS)

    def check_long(out, _):
        text = _read(out, "measurements.csv")
        checks.check_measure(obs, psi0, text, trials)
        checks.require("csv" in short, "the short warm-up run wrote no rows")
        checks.check_prefix(short["csv"], text)

    return (cli_op(name, "measure", scenario, check_long, trials),
            cli_op(name + "-prefix", "measure", scenario, check_short, PREFIX_TRIALS))


def trials(seed: int, where: str) -> Workload:
    rng = np.random.default_rng(seed)
    program_seed = lambda: int(rng.integers(0, 2**63))  # noqa: E731
    ops, warm = [], []

    obs3 = _hermitian(rng, 3)
    long, short = _measure_ops("measure-3level", obs3, _state(rng, 3), MEASURE_TRIALS[0], program_seed(),
                               os.path.join(where, "measure-3level.json"))
    ops.append(long)
    warm.append(short)

    # eight levels, the lowest eigenvalue three-fold degenerate
    gaps = rng.uniform(0.2, 1.0, 5)
    lam = np.concatenate([[-2.0] * 3, -2.0 + np.cumsum(gaps)])
    u = _unitary(rng, 8)
    obs8 = (u * lam) @ u.conj().T
    obs8 = (obs8 + obs8.conj().T) / 2
    long, short = _measure_ops("measure-8level-degenerate", obs8, _state(rng, 8), MEASURE_TRIALS[1], program_seed(),
                               os.path.join(where, "measure-8level-degenerate.json"))
    ops.append(long)
    warm.append(short)

    goal = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    labels = rng.permutation(np.array([-1.5, 0.0, 1.5]) + rng.uniform(-0.4, 0.4, 3))
    steer = _write(os.path.join(where, "steer.json"), {
        "goal_state": cvector(goal), "initial_state": cvector(_state(rng, 3)),
        "steering_eigenvalues": [float(x) for x in labels], "seed": program_seed(),
    })
    ops.append(cli_op("steer", "steer", steer,
                      lambda out, _: checks.check_steer(json.loads(_read(out, "steer.json")), STEER_TRIALS),
                      STEER_TRIALS))
    warm.append(cli_op("steer-warmup", "steer", steer,
                       lambda out, _: checks.check_steer(json.loads(_read(out, "steer.json")), 20), 20))

    # start on an extreme level, so acquisition counts are geometric(1/2) on {1, 2, ...}
    level = np.zeros(3, dtype=complex)
    level[rng.choice([0, 2])] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    stab = {"initial_state": cvector(level), "mu": float(rng.uniform(0.5, 2.0)),
            "disturbance": STABILIZE["disturbance"], "n_periods": STABILIZE["n_periods"], "seed": program_seed()}
    path = _write(os.path.join(where, "stabilize.json"), stab)
    ops.append(cli_op("stabilize", "stabilize", path,
                      lambda out, _: checks.check_stabilize(json.loads(_read(out, "stabilize.json")),
                                                            STABILIZE["trials"]),
                      STABILIZE["trials"]))
    short = _write(os.path.join(where, "stabilize-warmup.json"), dict(stab, n_periods=20))
    warm.append(cli_op("stabilize-warmup", "stabilize", short, lambda out, _: None, 2))
    return Workload(ops, warm)


# ----------------------------------------------------------- propagate-plan

EVOLVE = {"levels": 4, "segments": 100, "samples": 200, "t_final": 5.0}
CLOSURE_LEVELS = (4, 5, 6, 7, 8)
TORUS_PAIRS = 100
TORUS_RADIUS = 32
REACH_PAIRS = 40
TORUS_SEED = 7
REACH_SEED = 5  # reach_state pairs do not depend on the workload seed; see README
STIFF = {"s": 100.0, "lam": (-1.0, 0.5, 2.0), "t_final": 1.0, "steps": 100}


def _evolve_op(rng, where: str, levels: int, segments: int, samples: int, t_final: float, name: str) -> Op:
    drift, c1, c2 = (_hermitian(rng, levels) for _ in range(3))
    grid = np.linspace(0.0, t_final, segments + 1)
    values = rng.uniform(-1.0, 1.0, (segments, 2))
    psi0 = _state(rng, levels)
    path = _write(os.path.join(where, name + ".json"), {
        "system": {"dimension": levels, "drift": cmatrix(drift), "controls": [cmatrix(c1), cmatrix(c2)]},
        "schedule": {"grid": grid.tolist(), "values": values.tolist()},
        "initial_state": cvector(psi0),
        "horizon": {"t_final": t_final, "samples": samples},
    })

    def check(out, _):
        checks.check_evolve(drift, (c1, c2), grid, values, psi0, t_final, samples, _read(out, "trajectory.csv"))

    return cli_op(name, "evolve", path, check)


def _closure_op(name: str, drift, control, want_dim: int, path: str) -> Op:
    scenario = _write(path, {"system": {"drift": cmatrix(drift), "controls": [cmatrix(control)]}})
    return cli_op(name, "closure", scenario,
                  lambda out, _: checks.check_closure(json.loads(_read(out, "closure.json")), want_dim))


def _torus_plan_op(name: str, start, target, path: str) -> Op:
    scenario = _write(path, {"torus_start": start, "torus_target": target})
    return cli_op(name, "torus-plan", scenario,
                  lambda out, _: checks.check_plan(json.loads(_read(out, "plan.json")), start, target))


def _reach_op(name: str, start, target) -> Op:
    def call(out):
        return qphase.torus.reach_state(qphase.torus.TorusState.eigenstate(start, TORUS_RADIUS), target)

    def check(out, result):
        trace, state = result
        checks.check_reached(state.support, target)
        checks.require(trace.final_fidelity == 1.0, "reach_state reports a fidelity below 1")

    return Op(name, call, check)


def _observe_op(name: str, rho0: np.ndarray, h_diag, lam, s: float, t_final: float, steps: int) -> Op:
    h_diag, lam = np.asarray(h_diag, float), np.asarray(lam, float)
    rho = DensityMatrix(rho0)
    h = Observable(np.diag(h_diag).astype(complex))
    meas = GaussianMeasurement(Observable(np.diag(lam).astype(complex)), s, 0.01)

    def call(out):
        return qphase.measurement.continuous_observe(rho, h, meas, t_final, steps)

    def check(out, result):
        times, rhos = result
        checks.check_density_path(rhos)
        checks.check_decoherence(rho0, h_diag, lam, s, times, rhos)

    return Op(name, call, check)


def _torus_pairs(rng) -> list:
    """In-box endpoint pairs for ``torus-plan``.

    Search cost grows about 1.6x per move of the shortest plan, so 100 pairs
    drawn afresh vary by 17 % in total work from seed to seed.  The pairs
    are therefore a fixed set; the seed picks, for each pair, one of the
    lattice symmetries k -> -k and start <-> target, which keep the plan
    length and the search work (to 0.4 % in node expansions), and the order.
    """
    fixed = np.random.default_rng(TORUS_SEED)
    pairs = [(fixed.integers(-TORUS_RADIUS, TORUS_RADIUS + 1, 2).tolist(),
              fixed.integers(-TORUS_RADIUS, TORUS_RADIUS + 1, 2).tolist()) for _ in range(TORUS_PAIRS + 1)]
    out = []
    for (a, b), (negate, swap) in zip(pairs, rng.integers(0, 2, (len(pairs), 2))):
        if negate:
            a, b = [-x for x in a], [-x for x in b]
        out.append((b, a) if swap else (a, b))
    order = rng.permutation(TORUS_PAIRS)
    return [out[i] for i in order] + out[TORUS_PAIRS:]


def _pure(psi: np.ndarray) -> np.ndarray:
    return np.outer(psi, psi.conj())


def propagate_plan(seed: int, where: str) -> Workload:
    rng = np.random.default_rng(seed)
    ops, warm = [], []
    ops.append(_evolve_op(rng, where, name="evolve", **EVOLVE))
    warm.append(_evolve_op(rng, where, EVOLVE["levels"], 4, 4, 1.0, "evolve-warmup"))

    ladder = np.diag([-1.0, 0.0, 1.0]), np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex)
    ops.append(_closure_op("closure-ladder", *ladder, 3, os.path.join(where, "closure-ladder.json")))
    for n in CLOSURE_LEVELS:
        ops.append(_closure_op(f"closure-{n}", _hermitian(rng, n), _hermitian(rng, n), n * n,
                               os.path.join(where, f"closure-{n}.json")))
    warm.append(_closure_op("closure-warmup", _hermitian(rng, 3), _hermitian(rng, 3), 9,
                            os.path.join(where, "closure-warmup.json")))

    box = (-TORUS_RADIUS, TORUS_RADIUS + 1)
    for i, (start, target) in enumerate(_torus_pairs(rng)):
        op = _torus_plan_op(f"torus-plan-{i}", start, target, os.path.join(where, f"torus-{i}.json"))
        (ops if i < TORUS_PAIRS else warm).append(op)

    fixed = np.random.default_rng(REACH_SEED)
    for i in range(REACH_PAIRS):
        start, target = tuple(fixed.integers(*box, 2).tolist()), tuple(fixed.integers(*box, 2).tolist())
        ops.append(_reach_op(f"reach-{i}", start, target))
    warm.append(_reach_op("reach-warmup", (0, 0), (1, 2)))

    # acceptance-05 regime: H and Lambda diagonal, s near 1, dt = 1e-4 to 2.5e-4
    s2 = float(rng.uniform(0.5, 1.5))
    ops.append(_observe_op("observe-2", _pure(_state(rng, 2)), rng.uniform(-1, 1, 2), (1.0, -1.0), s2, 1.0 / s2, 4000))
    lam3 = np.array([-1.0, 0.5, 2.0]) + rng.uniform(-0.1, 0.1, 3)
    ops.append(_observe_op("observe-3", _pure(_state(rng, 3)), rng.uniform(-1, 1, 3), lam3,
                           float(rng.uniform(0.5, 1.5)), 0.4, 4000))
    ops.append(_observe_op("observe-stiff", np.full((3, 3), 1 / 3, dtype=complex), np.zeros(3), STIFF["lam"],
                           STIFF["s"], STIFF["t_final"], STIFF["steps"]))
    warm.append(_observe_op("observe-warmup", np.full((2, 2), 0.5, dtype=complex), np.zeros(2), (1.0, -1.0),
                            0.9, 0.1, 100))
    return Workload(ops, warm)


WORKLOADS = {"synthesis": synthesis, "trials": trials, "propagate-plan": propagate_plan}
