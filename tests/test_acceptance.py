"""Acceptance gates for the toolkit, one test per criterion.

Each test prints a single PASS/FAIL line (visible even under output
capture) so the suite doubles as a checklist.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import expm
from scipy.stats import chisquare

from qphase import (
    CatMap,
    ClassicalHamiltonian,
    ControlDomain,
    ControlledHamiltonian,
    CostIntegrand,
    DensityMatrix,
    GaussianMeasurement,
    Observable,
    PhasePoint,
    StateVector,
    TorusState,
    apply_floquet_component,
    branch_probabilities,
    build_frame_3level,
    born_probability_via_metric,
    closest_point_check,
    complex_structure,
    continuous_observe,
    evolve,
    forward_backward_sweep,
    from_phase,
    g_form,
    lie_closure,
    measure_nonselective,
    measure_selective,
    omega_form,
    plan_kicks,
    stabilize_middle_level,
    steer,
    to_phase,
)
from qphase.cli import EXIT_OK, run
from qphase.steering import (
    h1_matrix,
    h2_matrix,
    h3_matrix,
    ladder_control,
    ladder_drift,
)

from conftest import random_hermitian, random_point

R2 = np.sqrt(2.0)


@contextmanager
def criterion(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:2d} {name}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} {name}: PASS", flush=True)


def test_criterion_01_kahler_identities(capsys):
    with criterion(capsys, 1, "Kahler identities"):
        rng = np.random.default_rng(101)
        t0 = time.monotonic()
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            x, y = random_point(rng, n), random_point(rng, n)
            ov = from_phase(x).overlap(from_phase(y))
            assert abs(ov - complex(g_form(x, y), omega_form(x, y))) < 1e-12
            assert abs(g_form(x, y) - omega_form(x, complex_structure(y))) < 1e-12
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_flow_equivalence(capsys):
    with criterion(capsys, 2, "Hamilton flow matches Schrodinger"):
        rng = np.random.default_rng(102)
        t0 = time.monotonic()
        for _ in range(100):
            n = int(rng.integers(2, 7))
            hmat = random_hermitian(rng, n)
            plant = ControlledHamiltonian.drift_only(hmat)
            ch = ClassicalHamiltonian(hmat)
            x0 = random_point(rng, n)
            e0 = ch.value(x0)
            for t in (float(rng.uniform(0, 10)), 10.0):
                xt = evolve(plant, x0, 0.0, t)
                want = expm(-1j * hmat * t) @ from_phase(x0).amplitudes
                assert np.max(np.abs(from_phase(xt).amplitudes - want)) < 1e-9
                assert abs(xt.norm_sq() - 1.0) < 1e-10
                assert abs(ch.value(xt) - e0) < 1e-10
        assert time.monotonic() - t0 < 10.0


def test_criterion_03_measurement_geometry(capsys):
    with criterion(capsys, 3, "metric probability and closest point"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            if rng.random() < 0.3:
                # forced degeneracy: repeated eigenvalues in a random frame
                vals = np.sort(rng.integers(0, max(2, n - 1), n).astype(float))
                basis = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                obs = Observable(basis @ np.diag(vals) @ basis.conj().T)
            else:
                obs = Observable(random_hermitian(rng, n))
            x = random_point(rng, n)
            psi = from_phase(x).amplitudes
            probs = branch_probabilities(x, obs)
            checked = False
            for (a, proj), p in zip(obs.spectrum, probs):
                if p < 1e-10:
                    continue
                assert abs(born_probability_via_metric(x, obs, a) - p) < 1e-12
                if not checked:
                    assert closest_point_check(x, obs, a, 1000, rng)
                    checked = True


def test_criterion_04_born_statistics(capsys):
    with criterion(capsys, 4, "Born statistics and ensemble weights"):
        fixtures = [
            (PhasePoint([0.6, 0.0], [0.0, 0.8]), Observable(np.diag([0.0, 1.0]))),
            (PhasePoint([0.5, 1 / R2, 0.5], [0, 0, 0]), Observable(ladder_drift(1.0))),
        ]
        rng = np.random.default_rng(104)
        n = 100_000
        for x, obs in fixtures:
            probs = branch_probabilities(x, obs)
            counts = np.zeros(len(probs))
            for _ in range(n):
                counts[measure_selective(x, obs, rng).branch] += 1
            for k, p in enumerate(probs):
                se = np.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(counts[k] / n - p) <= 3 * se
            ens = measure_nonselective(x, obs)
            kept = probs[probs > 1e-14]
            assert np.max(np.abs(ens.weights - kept)) < 1e-14


def test_criterion_05_continuous_observation(capsys):
    with criterion(capsys, 5, "continuous observation decay rates"):
        s = 0.9
        rho0 = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), s, 0.01)
        t_final = 1.0 / s
        _, rhos = continuous_observe(rho0, Observable(np.zeros((2, 2))), m, t_final, 4000)
        want = 0.5 * np.exp(-2 * s * t_final)
        assert abs(rhos[-1][0, 1].real - want) / want < 1e-6
        for rho in rhos[::500]:
            assert abs(np.trace(rho).real - 1.0) < 1e-9

        lam = np.array([-1.0, 0.5, 2.0])
        rho0 = DensityMatrix(np.full((3, 3), 1 / 3, dtype=complex))
        m3 = GaussianMeasurement(Observable(np.diag(lam)), s, 0.01)
        t3 = 0.4
        _, rhos3 = continuous_observe(rho0, Observable(np.zeros((3, 3))), m3, t3, 4000)
        for k in range(3):
            for kp in range(k + 1, 3):
                want = (1 / 3) * np.exp(-(s / 2) * (lam[k] - lam[kp]) ** 2 * t3)
                assert abs(rhos3[-1][k, kp].real - want) / want < 1e-6


def test_criterion_06_controllability_verdicts(capsys):
    with criterion(capsys, 6, "Lie closure verdicts"):
        t0 = time.monotonic()
        ladder = lie_closure(
            [Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))]
        )
        assert ladder.dimension == 3
        assert ladder.verdict == "not-controllable"
        pair = lie_closure(
            [
                Observable(np.diag([1.0, -1.0])),
                Observable(np.array([[0, 1], [1, 0]], complex)),
            ]
        )
        assert pair.dimension == 3
        assert pair.verdict == "controllable-su(N)"
        assert time.monotonic() - t0 < 1.0


def test_criterion_07_worked_example_fixed_points(capsys):
    with criterion(capsys, 7, "three-level frame fixed points"):
        xf = np.concatenate([[0, 0, 0], [1 / R2, 0, 1 / R2]])
        x1 = np.concatenate([[0, 1, 0], [0, 0, 0]])
        x2 = np.concatenate([[-1 / R2, 0, 1 / R2], [0, 0, 0]])
        v1 = h1_matrix(-np.pi / 2) @ xf
        assert np.max(np.abs(v1 - x1)) < 1e-12
        assert np.max(np.abs(h2_matrix(np.pi / 2) @ v1 - x2)) < 1e-12
        from qphase.geometry import real_block

        for mu, t in ((1.0, 0.3), (2.5, 1.9), (0.4, np.pi)):
            drift = real_block(expm(-1j * ladder_drift(mu) * t))
            assert np.max(np.abs(drift - h3_matrix(-mu * t))) < 1e-10


def test_criterion_08_steering_protocol(capsys):
    with criterion(capsys, 8, "steering reaches the goal from anywhere"):
        t0 = time.monotonic()
        goal = StateVector([1j / R2, 0, 1j / R2])
        rng = np.random.default_rng(108)
        for labels in ((1.0, 2.0, 3.0), tuple(rng.permutation([4.0, -1.5, 9.0]))):
            m = build_frame_3level(goal, eigenvalues=labels)
            for _ in range(100):
                tr = steer(random_point(rng, 3), m, rng=rng)
                assert tr.final_fidelity >= 1 - 1e-9
        assert time.monotonic() - t0 < 5.0


def test_criterion_09_stabilization_geometric(capsys):
    with criterion(capsys, 9, "stabilizer hits middle level geometrically"):
        rng = np.random.default_rng(109)
        x0 = to_phase(StateVector([1.0, 0, 0]))
        n = 10_000
        counts = np.array(
            [stabilize_middle_level(x0, rng=rng).iterations for _ in range(n)]
        )
        kmax = 10
        observed = np.array(
            [np.sum(counts == k) for k in range(1, kmax)] + [np.sum(counts >= kmax)]
        )
        expected = np.array(
            [n * 0.5**k for k in range(1, kmax)] + [n * 0.5 ** (kmax - 1)]
        )
        stat, p = chisquare(observed, expected)
        assert p > 0.01


def test_criterion_10_torus_planning(capsys):
    with criterion(capsys, 10, "torus plans replay exactly"):
        rng = np.random.default_rng(110)
        cat = CatMap.default()
        for _ in range(1000):
            a = tuple(int(v) for v in rng.integers(-32, 33, 2))
            b = tuple(int(v) for v in rng.integers(-32, 33, 2))
            plan = plan_kicks(a, b, cat, allow_cat_moves=True)
            assert plan.replay_labels(cat) == b
            assert len(plan) <= len(plan_kicks(a, b, cat, allow_cat_moves=False))
        s = TorusState.eigenstate((5, -11))
        back = apply_floquet_component(apply_floquet_component(s, "U1"), "U1", sign=-1)
        assert back.support == s.support


def test_criterion_11_pontryagin_two_level(capsys):
    with criterion(capsys, 11, "optimal two-level steering"):
        t0 = time.monotonic()
        plant = ControlledHamiltonian(
            np.diag([1.0, -1.0]).astype(complex), (np.array([[0, 1], [1, 0]], complex),)
        )
        x0 = to_phase(StateVector([0.0, 1.0]))
        goal = to_phase(StateVector([1.0, 0.0]))
        grid = np.linspace(0, np.pi, 301)
        sol = forward_backward_sweep(
            plant, x0, goal, CostIntegrand("control-energy"),
            ControlDomain([-1.0], [1.0]), grid=grid, rng=np.random.default_rng(1),
        )
        assert sol.converged and sol.fidelity >= 0.999

        from test_pontryagin import _flow_generator, _penalty_terms, bang_bang_oracle

        oracle_fid, oracle_cost = bang_bang_oracle(plant, x0.flat(), goal.flat())
        assert oracle_fid >= 0.999
        assert sol.cost <= 1.02 * oracle_cost

        # control-Hamiltonian constancy at interval midpoints
        u = sol.schedule.values
        dts = np.diff(grid)
        zs = [x0.flat()]
        for k in range(len(dts)):
            zs.append(expm(_flow_generator(plant, u[k]) * dts[k]) @ zs[-1])
        a, b, jzg = _penalty_terms(zs[-1], goal.flat())
        base = 2.0 * a * goal.flat() + 2.0 * b * jzg  # adjoint direction at T
        # recover the penalty scale from the stationarity condition u = c/2
        l1 = _flow_generator(plant, [1.0]) - _flow_generator(plant, [0.0])
        phis = [base]
        for k in range(len(dts) - 1, -1, -1):
            phis.append(expm(_flow_generator(plant, u[k]) * dts[k]).T @ phis[-1])
        phis.reverse()
        z_mids, phi_mids = [], []
        for k in range(len(dts)):
            half = expm(_flow_generator(plant, u[k]) * (dts[k] / 2))
            z_mids.append(half @ zs[k])
            phi_mids.append(half @ phis[k])
        c_unit = np.array([phi_mids[k] @ (l1 @ z_mids[k]) for k in range(len(dts))])
        interior = np.abs(u[:, 0]) < 1.0 - 1e-9  # u = w c / 2 only off the bounds
        w = 2.0 * float(u[interior, 0] @ c_unit[interior]) / float(
            c_unit[interior] @ c_unit[interior]
        )
        hvals = [
            -float(u[k] @ u[k])
            + w * float(phi_mids[k] @ (_flow_generator(plant, u[k]) @ z_mids[k]))
            for k in range(len(dts))
        ]
        assert max(hvals) - min(hvals) < 1e-4
        assert time.monotonic() - t0 < 60.0


def test_criterion_12_reproducibility(capsys, tmp_path):
    with criterion(capsys, 12, "seeded runs are byte-identical"):
        def cv(v):
            return [[complex(z).real, complex(z).imag] for z in v]

        scenarios = {
            "measure": {
                "measurement": {
                    "observable": [[[-1.0, 0.0], [0, 0], [0, 0]],
                                   [[0, 0], [0.0, 0.0], [0, 0]],
                                   [[0, 0], [0, 0], [1.0, 0.0]]],
                },
                "initial_state": cv([0.5, 1 / R2, 0.5]),
                "seed": 314159,
            },
            "steer": {
                "goal_state": cv([1j / R2, 0, 1j / R2]),
                "initial_state": cv(np.full(3, 1 / np.sqrt(3))),
                "seed": 271828,
            },
            "stabilize": {"initial_state": cv([1.0, 0, 0]), "seed": 161803},
        }
        artifacts = {
            "measure": "measurements.csv",
            "steer": "steer.json",
            "stabilize": "stabilize.json",
        }
        for command, payload in scenarios.items():
            scen = tmp_path / f"{command}.json"
            scen.write_text(json.dumps(payload))
            outs = []
            for rep in ("a", "b"):
                out = tmp_path / f"{command}_{rep}"
                code = run(
                    [command, "--scenario", str(scen), "--out", str(out), "--trials", "25"]
                )
                assert code == EXIT_OK
                outs.append(out)
            f = artifacts[command]
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
            ma = json.loads((outs[0] / "manifest.json").read_text())
            mb = json.loads((outs[1] / "manifest.json").read_text())
            ma.pop("wall_time_s"), mb.pop("wall_time_s")
            assert ma == mb
