"""Hamiltonian flow, control schedules, block propagators, ensembles."""

import numpy as np
import pytest
from scipy.linalg import expm

from qphase import (
    ClassicalHamiltonian,
    ControlSchedule,
    ControlledHamiltonian,
    PhaseEnsemble,
    PhasePoint,
    StateVector,
    evolve,
    evolve_block,
    evolve_unitary,
    from_phase,
    g_form,
    omega_form,
    to_phase,
    transport_ensemble,
)
from qphase.dynamics import hamiltonian_value, interval_propagators
from qphase.errors import ScheduleCoverageError
from qphase.steering import h3_matrix, ladder_drift

from conftest import random_hermitian, random_point

R2 = np.sqrt(2.0)


class TestClassicalHamiltonian:
    def test_single_level_occupancy(self):
        h = ClassicalHamiltonian(np.diag([1.0, -1.0]))
        assert h.value(PhasePoint([1, 0], [0, 0])) == pytest.approx(0.5)

    def test_second_level(self):
        h = ClassicalHamiltonian(np.diag([1.0, -1.0]))
        assert h.value(PhasePoint([0, 0], [0, 1])) == pytest.approx(-0.5)

    def test_ladder_drift_on_goal_state(self):
        # independent oracle: half the Born-weighted eigenvalue average
        x = PhasePoint([0, 0, 0], [1 / R2, 0, 1 / R2])
        psi = from_phase(x).amplitudes
        expected = 0.5 * sum(
            lam * abs(a) ** 2 for lam, a in zip([-1.0, 0.0, 1.0], psi)
        )
        assert hamiltonian_value(ClassicalHamiltonian(ladder_drift(1.0)), x) == pytest.approx(
            expected, abs=1e-14
        )
        assert expected == 0.0


class TestControlSchedule:
    def test_constant_covers(self):
        s = ControlSchedule.constant([0.5], 0.0, 2.0)
        assert s.covers(0.0, 2.0) and not s.covers(0.0, 2.5)
        assert s.value_at(1.0)[0] == 0.5

    def test_segments_split_on_breakpoints(self):
        s = ControlSchedule([0.0, 1.0, 2.0], [[1.0], [-1.0]])
        segs = list(s.segments(0.5, 1.5))
        assert [u[0] for _, _, u in segs] == [1.0, -1.0]

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 0.0], [[1.0]])

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [[2.0]], max_magnitude=[1.0])


class TestEvolve:
    def test_harmonic_oscillator(self, rng):
        omega, t = 1.3, 0.8
        h = ControlledHamiltonian.drift_only(np.array([[omega]], complex))
        x0 = random_point(rng, 1)
        x1 = evolve(h, x0, 0.0, t)
        c, s = np.cos(omega * t), np.sin(omega * t)
        assert x1.q[0] == pytest.approx(x0.q[0] * c + x0.p[0] * s, abs=1e-12)
        assert x1.p[0] == pytest.approx(-x0.q[0] * s + x0.p[0] * c, abs=1e-12)

    def test_drift_matches_subgroup_matrix(self, rng):
        x0 = random_point(rng, 3)
        h = ControlledHamiltonian.drift_only(ladder_drift(1.0))
        for t in (0.3, 1.7, np.pi):
            x1 = evolve(h, x0, 0.0, t)
            assert np.max(np.abs(x1.flat() - h3_matrix(-t) @ x0.flat())) < 1e-12

    def test_zero_duration(self, rng):
        x0 = random_point(rng, 2)
        h = ControlledHamiltonian.drift_only(random_hermitian(rng, 2))
        assert np.array_equal(evolve(h, x0, 1.0, 1.0).flat(), x0.flat())

    def test_schrodinger_equivalence(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            hmat = random_hermitian(rng, n)
            x0 = random_point(rng, n)
            t = float(rng.uniform(0, 10))
            got = from_phase(evolve(ControlledHamiltonian.drift_only(hmat), x0, 0.0, t))
            want = expm(-1j * hmat * t) @ from_phase(x0).amplitudes
            assert np.max(np.abs(got.amplitudes - want)) < 1e-9

    def test_norm_and_energy_conservation(self, rng):
        hmat = random_hermitian(rng, 4)
        plant = ControlledHamiltonian.drift_only(hmat)
        ch = ClassicalHamiltonian(hmat)
        x = random_point(rng, 4)
        e0 = ch.value(x)
        for _ in range(10_000):
            x = evolve(plant, x, 0.0, 1e-2)
        assert abs(x.norm_sq() - 1.0) < 1e-10
        assert abs(ch.value(x) - e0) < 1e-10

    def test_schedule_coverage_error(self):
        plant = ControlledHamiltonian(
            np.diag([1.0, -1.0]),
            (np.array([[0, 1], [1, 0]], complex),),
            ControlSchedule.constant([0.3], 0.0, 1.0),
        )
        with pytest.raises(ScheduleCoverageError):
            evolve(plant, PhasePoint([1, 0], [0, 0]), 0.0, 2.0)

    def test_midpoint_integrator_agrees(self, rng):
        hmat = random_hermitian(rng, 3)
        plant = ControlledHamiltonian.drift_only(hmat)
        x0 = random_point(rng, 3)
        exact = evolve(plant, x0, 0.0, 1.0, method="exact")
        approx = evolve(plant, x0, 0.0, 1.0, method="midpoint", steps=4000)
        assert abs(approx.norm_sq() - 1.0) < 1e-10  # unitary regardless of step
        assert np.max(np.abs(exact.flat() - approx.flat())) < 1e-6


class TestIntervalPropagators:
    def test_matches_expm(self, rng):
        for n in (2, 3, 4, 5):
            for r in (0, 1, 2):
                plant = ControlledHamiltonian(
                    random_hermitian(rng, n), tuple(random_hermitian(rng, n) for _ in range(r))
                )
                u = rng.uniform(-2, 2, size=(7, r))
                dts = rng.uniform(0.01, 1.5, size=7)
                props, w, v = interval_propagators(plant, u, dts)
                for k in range(7):
                    h = plant.matrix_for(u[k])
                    assert np.max(np.abs(props[k] - expm(-1j * h * dts[k]))) < 1e-12
                    assert np.max(np.abs((v[k] * w[k]) @ v[k].conj().T - h)) < 1e-12

    @pytest.mark.parametrize("drift", [np.zeros((3, 3)), 1.5 * np.eye(3)])
    def test_degenerate_spectrum(self, rng, drift):
        plant = ControlledHamiltonian(drift.astype(complex), (random_hermitian(rng, 3),))
        props, w, _ = interval_propagators(plant, np.zeros((2, 1)), [0.4, 1.1])
        assert np.max(np.abs(w - drift[0, 0])) < 1e-14
        for prop, dt in zip(props, (0.4, 1.1)):
            assert np.max(np.abs(prop - expm(-1j * drift * dt))) < 1e-14

    def test_rejects_mismatched_controls(self):
        plant = ControlledHamiltonian(np.diag([1.0, -1.0]), (np.array([[0, 1], [1, 0]], complex),))
        with pytest.raises(ValueError):
            interval_propagators(plant, np.zeros((3, 2)), np.ones(3))

    def test_evolve_unitary_matches_segment_products(self, rng):
        plant = ControlledHamiltonian(
            random_hermitian(rng, 3),
            (random_hermitian(rng, 3), random_hermitian(rng, 3)),
            ControlSchedule([0.0, 0.4, 1.0, 1.7], rng.uniform(-1, 1, size=(3, 2))),
        )
        want = np.eye(3, dtype=complex)
        for ta, tb, u in plant.schedule.segments(0.2, 1.5):
            want = expm(-1j * plant.matrix_for(u) * (tb - ta)) @ want
        assert np.max(np.abs(evolve_unitary(plant, 0.2, 1.5) - want)) < 1e-12


class TestEvolveBlock:
    def test_generator_blocks(self):
        # infinitesimal propagator of the ladder drift: A = diag(-1, 0, 1)
        plant = ControlledHamiltonian.drift_only(ladder_drift(1.0))
        dt = 1e-7
        b = evolve_block(plant, 0.0, dt)
        gen = (b - np.eye(6)) / dt
        a = np.diag([-1.0, 0.0, 1.0])
        z = np.zeros((3, 3))
        want = np.block([[z, a], [-a, z]])
        assert np.max(np.abs(gen - want)) < 1e-6

    def test_block_orthogonal_symplectic(self, rng):
        plant = ControlledHamiltonian(
            ladder_drift(1.0),
            (np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex),),
            ControlSchedule.constant([0.7], 0.0, 2.0),
        )
        b = evolve_block(plant, 0.0, 2.0)
        assert np.max(np.abs(b.T @ b - np.eye(6))) < 1e-10
        x, y = random_point(rng, 3), random_point(rng, 3)
        bx = PhasePoint.from_flat(b @ x.flat())
        by = PhasePoint.from_flat(b @ y.flat())
        assert abs(omega_form(bx, by) - omega_form(x, y)) < 1e-10
        assert abs(g_form(bx, by) - g_form(x, y)) < 1e-10

    def test_composition(self, rng):
        plant = ControlledHamiltonian(
            np.diag([1.0, -1.0]),
            (np.array([[0, 1], [1, 0]], complex),),
            ControlSchedule([0.0, 1.0, 2.0], [[1.0], [-0.5]]),
        )
        full = evolve_block(plant, 0.0, 2.0)
        split = evolve_block(plant, 1.0, 2.0) @ evolve_block(plant, 0.0, 1.0)
        assert np.max(np.abs(full - split)) < 1e-12

    def test_block_applies_like_evolve(self, rng):
        plant = ControlledHamiltonian.drift_only(random_hermitian(rng, 3))
        x = random_point(rng, 3)
        b = evolve_block(plant, 0.0, 1.3)
        assert np.max(np.abs(b @ x.flat() - evolve(plant, x, 0.0, 1.3).flat())) < 1e-12


class TestPhaseEnsemble:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            PhaseEnsemble([0.5, 0.4], (PhasePoint([1], [0]), PhasePoint([0], [1])))

    def test_singleton_transport_matches_evolve(self, rng):
        plant = ControlledHamiltonian.drift_only(random_hermitian(rng, 2))
        x = random_point(rng, 2)
        e = PhaseEnsemble([1.0], (x,))
        moved = transport_ensemble(plant, e, 0.0, 1.0)
        assert np.max(np.abs(moved.points[0].flat() - evolve(plant, x, 0.0, 1.0).flat())) < 1e-12

    def test_weights_invariant(self, rng):
        plant = ControlledHamiltonian.drift_only(np.diag([1.0, -1.0]))
        e = PhaseEnsemble([0.25, 0.75], (PhasePoint([1, 0], [0, 0]), PhasePoint([0, 0], [0, 1])))
        moved = transport_ensemble(plant, e, 0.0, 2.0)
        assert np.array_equal(moved.weights, e.weights)

    def test_members_rotate_in_their_plane(self):
        # per-member oracle: diag(1,-1) rotates (q_k, p_k) at rate +/-1
        plant = ControlledHamiltonian.drift_only(np.diag([1.0, -1.0]))
        e = PhaseEnsemble([0.5, 0.5], (PhasePoint([1, 0], [0, 0]), PhasePoint([0, 1], [0, 0])))
        t = 0.9
        moved = transport_ensemble(plant, e, 0.0, t)
        m0, m1 = moved.points
        assert m0.q[0] == pytest.approx(np.cos(t)) and m0.p[0] == pytest.approx(-np.sin(t))
        assert m1.q[1] == pytest.approx(np.cos(t)) and m1.p[1] == pytest.approx(np.sin(t))
        assert abs(m0.q[1]) + abs(m0.p[1]) + abs(m1.q[0]) + abs(m1.p[0]) == 0.0
