"""Lie closure dimension counting and orbit-membership search."""

import numpy as np
import pytest
from scipy.linalg import expm

import qphase.controllability

from qphase import (
    Observable,
    PhasePoint,
    StateVector,
    lie_closure,
    orbit_membership,
    to_phase,
)
from qphase.controllability import VERDICT_NOT, VERDICT_SU, VERDICT_U, group_element
from qphase.errors import DimensionMismatchError
from qphase.steering import h1_matrix, ladder_control, ladder_drift

from conftest import random_hermitian, random_point, random_state

R2 = np.sqrt(2.0)


def brute_force_dimension(mats, rounds=8, tol=1e-10):
    """Independent closure oracle: rank of stacked commutator products."""
    basis = [1j * np.asarray(m, complex) for m in mats]
    for _ in range(rounds):
        new = []
        for a in basis:
            for b in basis:
                new.append(a @ b - b @ a)
        stack = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in basis + new])
        rank = np.linalg.matrix_rank(stack, tol=tol)
        if rank == len(basis):
            break
        # keep an independent spanning subset from the SVD row space
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        keep = vt[:rank]
        n = mats[0].shape[0]
        basis = [k[: n * n].reshape(n, n) + 1j * k[n * n :].reshape(n, n) for k in keep]
    stack = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in basis])
    return int(np.linalg.matrix_rank(stack, tol=tol))


class TestLieClosure:
    def test_ladder_system_dimension_three(self):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        assert report.dimension == 3
        assert report.verdict == VERDICT_NOT
        assert brute_force_dimension([ladder_drift(1.0), ladder_control(1.0)]) == 3

    def test_two_level_su2(self):
        h0 = np.diag([1.0, -1.0]).astype(complex)
        h1 = np.array([[0, 1], [1, 0]], complex)
        report = lie_closure([Observable(h0), Observable(h1)])
        assert report.dimension == 3
        assert report.verdict == VERDICT_SU
        assert brute_force_dimension([h0, h1]) == 3

    def test_single_generator(self):
        report = lie_closure([Observable(np.diag([1.0, 2.0]))])
        assert report.dimension == 1

    def test_full_u2(self):
        mats = [
            np.eye(2, dtype=complex),
            np.diag([1.0, -1.0]).astype(complex),
            np.array([[0, 1], [1, 0]], complex),
        ]
        report = lie_closure([Observable(m) for m in mats])
        assert report.dimension == 4
        assert report.verdict == VERDICT_U

    def test_idempotent(self):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        again = lie_closure(
            [Observable(1j * b) for b in report.basis]  # i * skew-Hermitian is Hermitian
        )
        assert again.dimension == report.dimension

    def test_basis_skew_hermitian_and_orthonormal(self):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        for b in report.basis:
            assert np.max(np.abs(b + b.conj().T)) < 1e-12
        assert np.max(np.abs(report.gram - np.eye(report.dimension))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lie_closure([Observable(np.eye(2)), Observable(np.eye(3))])

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            lie_closure([Observable(np.eye(2))], tol=0.0)


class TestOrbitMembership:
    @pytest.fixture
    def ladder_closure(self):
        return lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])

    def test_identity_membership(self, ladder_closure, rng):
        x = random_point(rng, 3)
        res = orbit_membership(ladder_closure, x, x, budget=10)
        assert res and res.evaluations == 0 and res.certificate.size == 0

    def test_goal_to_first_frame_state(self, ladder_closure):
        psi_f = PhasePoint([0, 0, 0], [1 / R2, 0, 1 / R2])
        psi_1 = PhasePoint([0, 1, 0], [0, 0, 0])
        res = orbit_membership(
            ladder_closure, psi_f, psi_1, budget=30000, rng=np.random.default_rng(2)
        )
        assert res.found and res.fidelity >= 1 - 1e-6
        # the explicit subgroup element is a certificate witness
        assert np.max(np.abs(h1_matrix(-np.pi / 2) @ psi_f.flat() - psi_1.flat())) < 1e-12

    def test_conjugate_unreachable(self, ladder_closure):
        psi = StateVector(np.array([0.3 + 0.4j, 0.5 - 0.2j, 0.1 + 0.67j]))
        psi = psi.normalized()
        x = to_phase(psi)
        y = to_phase(StateVector(psi.amplitudes.conj()))
        res = orbit_membership(ladder_closure, x, y, budget=8000, rng=np.random.default_rng(3))
        assert not res.found
        assert res.fidelity < 1 - 1e-4

    def test_group_element_is_unitary(self, ladder_closure, rng):
        u = group_element(ladder_closure, rng.uniform(-1, 1, ladder_closure.dimension))
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_dimension_mismatch_before_search(self, ladder_closure, rng, monkeypatch, side):
        monkeypatch.setattr(qphase.controllability, "minimize", lambda *a, **k: pytest.fail("search started"))
        states = {"x": random_point(rng, 3), "y": random_point(rng, 3), side: random_point(rng, 2)}
        with pytest.raises(DimensionMismatchError):
            orbit_membership(ladder_closure, states["x"], states["y"], budget=100)


class TestGroupElement:
    """group_element against scipy's expm of sum theta_m B_m."""

    @pytest.mark.parametrize("n", [0, 2, 3, 4, 5])
    def test_matches_expm(self, rng, n):
        if n == 0:  # the ladder closure, dimension 3 inside u(3)
            report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        else:
            report = lie_closure([Observable(random_hermitian(rng, n)) for _ in range(2)])
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, report.dimension)
            want = expm(sum(t * b for t, b in zip(theta, report.basis)))
            assert np.max(np.abs(group_element(report, theta) - want)) < 1e-12

    @pytest.mark.parametrize("length", [2, 4, 5])
    def test_wrong_coefficient_count(self, length):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        with pytest.raises(DimensionMismatchError):
            group_element(report, np.ones(length))

    @pytest.mark.parametrize("length", [2, 5])
    def test_wrong_coefficient_count_names_both_counts(self, length):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        want = f"3 coefficients expected for a closure of dimension 3, got {length}"
        with pytest.raises(DimensionMismatchError, match=want):
            group_element(report, np.ones(length))
