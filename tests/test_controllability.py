"""Lie closure dimension counting and orbit-membership search."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

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
from qphase.errors import DimensionMismatchError, NormalizationError, ProtocolParameterError
from qphase.steering import SteeringWord, h1_matrix, ladder_control, ladder_drift

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


def _vec(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    half = n * n
    return v[:half].reshape(n, n) + 1j * v[half:].reshape(n, n)


def reference_closure(generators, tol: float = 1e-10) -> SimpleNamespace:
    """The closure as two parallel lists (real 2N^2 vectors and complex
    matrices), projected one basis vector at a time: the reference that
    ``lie_closure``'s stacked array is checked against."""
    gens = [g if isinstance(g, Observable) else Observable(g) for g in generators]
    n = gens[0].dim

    basis_vecs: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []
    norms: list[float] = []  # projected norm of each accepted candidate

    def try_add(m: np.ndarray) -> bool:
        scale = np.linalg.norm(m)
        if scale <= tol:
            return False
        v = _vec(m / scale)
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis_vecs:
                v = v - np.dot(v, b) * b
        nv = np.linalg.norm(v)
        if nv <= tol:
            return False
        v = v / nv
        norms.append(nv)
        basis_vecs.append(v)
        basis_mats.append(_unvec(v, n))
        return True

    for g in gens:
        try_add(1j * g.matrix)
    frontier = list(basis_mats)
    max_dim = n * n
    for _ in range(max_dim):
        if len(basis_mats) >= max_dim or not frontier:
            break
        new = []
        snapshot = list(basis_mats)
        for a in snapshot:
            for b in frontier:
                c = a @ b - b @ a
                if try_add(c):
                    new.append(basis_mats[-1])
                    if len(basis_mats) >= max_dim:
                        break
            if len(basis_mats) >= max_dim:
                break
        frontier = new

    dim = len(basis_mats)
    traceless = all(abs(np.trace(g.matrix)) <= 1e-10 * max(1.0, np.max(np.abs(g.matrix))) for g in gens)
    if dim == max_dim:
        verdict = VERDICT_U
    elif traceless and dim == max_dim - 1:
        verdict = VERDICT_SU
    else:
        verdict = VERDICT_NOT
    gram = np.array([[np.dot(u, v) for v in basis_vecs] for u in basis_vecs])
    return SimpleNamespace(
        dimension=dim, basis=tuple(basis_mats), verdict=verdict, gram=gram, norms=np.array(norms)
    )


def oracle_cases() -> dict:
    """The suite's closures, then random, traceless and block-diagonal pairs for N = 2-10."""
    sx = np.array([[0, 1], [1, 0]], complex)
    sz = np.diag([1.0, -1.0])
    cases = {
        "ladder": [ladder_drift(1.0), ladder_control(1.0)],
        "su2": [sz, sx],
        "u2": [np.eye(2), sz, sx],
        "single": [np.diag([1.0, 2.0])],
        "zero": [np.zeros((2, 2))],
    }
    rng = np.random.default_rng(20)
    for n in range(2, 11):
        cases[f"random-{n}"] = [random_hermitian(rng, n) for _ in range(2)]
        pair = [random_hermitian(rng, n) for _ in range(2)]
        cases[f"traceless-{n}"] = [h - np.trace(h) / n * np.eye(n) for h in pair]
        k = n // 2
        cases[f"block-{n}"] = [
            block_diag(random_hermitian(rng, k), random_hermitian(rng, n - k)) for _ in range(2)
        ]
    return cases


ORACLE_CASES = oracle_cases()


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

    def test_rejections_are_protocol_parameter_errors(self):
        with pytest.raises(ProtocolParameterError, match="generator"):
            lie_closure([])

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_reference_closure(self, case):
        report = lie_closure([Observable(h) for h in ORACLE_CASES[case]])
        ref = reference_closure(ORACLE_CASES[case])
        assert (report.dimension, report.verdict) == (ref.dimension, ref.verdict)
        n = report.basis.shape[1]
        assert np.all(np.abs(report.gram - ref.gram.reshape(report.gram.shape)) <= 1e-14)
        # Both orders round each projection at eps over N^2 terms, and row k is
        # that residue scaled by 1 / (its candidate's projected norm); the
        # last row of a full u(10) closure keeps only 5e-3 of its candidate.
        bound = np.maximum(1e-12, np.finfo(float).eps * n * n / ref.norms)
        diff = np.abs(report.basis - np.reshape(ref.basis, (-1, n, n)))
        assert np.all(diff <= bound[:, None, None])

    def test_basis_is_a_read_only_stack(self):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        assert report.basis.shape == (3, 3, 3) and report.target_dims == (9, 8)
        with pytest.raises(ValueError):
            report.basis[0, 0, 0] = 1.0


class TestOrbitMembership:
    @pytest.fixture
    def ladder_closure(self):
        return lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])

    def test_identity_membership(self, ladder_closure, rng):
        x = random_point(rng, 3)
        res = orbit_membership(ladder_closure, x, x, budget=10)
        assert res and res.evaluations == 0 and res.certificate.shape == (ladder_closure.dimension,)
        moved = group_element(ladder_closure, res.certificate) @ x.amplitudes
        assert np.max(np.abs(moved - x.amplitudes)) < 1e-12

    @pytest.mark.parametrize("same", [True, False])
    def test_dimension_zero_closure_answers_from_the_overlap(self, rng, monkeypatch, same):
        monkeypatch.setattr(qphase.controllability, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        report = lie_closure([Observable(np.zeros((2, 2)))])
        x = random_point(rng, 2)
        a, b = x.amplitudes
        y = x if same else to_phase(StateVector([-np.conj(b), np.conj(a)]))  # orthogonal to x
        res = orbit_membership(report, x, y, budget=100)
        assert res.found is same and res.evaluations == 0
        assert res.fidelity == pytest.approx(1.0 if same else 0.0, abs=1e-12)

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
        monkeypatch.setattr(qphase.controllability, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        states = {"x": random_point(rng, 3), "y": random_point(rng, 3), side: random_point(rng, 2)}
        with pytest.raises(DimensionMismatchError):
            orbit_membership(ladder_closure, states["x"], states["y"], budget=100)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_state_raises_before_search(self, ladder_closure, rng, monkeypatch, side):
        monkeypatch.setattr(qphase.controllability, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        states = {"x": random_point(rng, 3), "y": random_point(rng, 3), side: PhasePoint([np.nan, 0, 0], [1, 0, 0])}
        with pytest.raises(NormalizationError):
            orbit_membership(ladder_closure, states["x"], states["y"], budget=100)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_u4_membership_within_2000(self, seed):
        rng = np.random.default_rng(seed)
        report = lie_closure([Observable(random_hermitian(rng, 4)) for _ in range(2)])
        assert (report.verdict, report.dimension) == (VERDICT_U, 16)
        x = random_point(rng, 4)
        y = group_element(report, rng.uniform(-np.pi, np.pi, 16)) @ x.amplitudes
        res = orbit_membership(report, x, PhasePoint.from_amplitudes(y), budget=2000, rng=np.random.default_rng(seed))
        assert res.found and res.fidelity >= 1 - 1e-6 and res.evaluations <= 2000
        assert res.evaluations % 17 == 0  # each objective call is charged d + 1
        assert abs(np.vdot(y, group_element(report, res.certificate) @ x.amplitudes)) ** 2 >= 1 - 1e-6

    @pytest.mark.parametrize("budget", [True, -1, np.nan, 100.0, "100"])
    def test_invalid_budget_raises_before_search(self, ladder_closure, rng, monkeypatch, budget):
        monkeypatch.setattr(qphase.controllability, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        with pytest.raises(ProtocolParameterError, match="budget"):
            orbit_membership(ladder_closure, random_point(rng, 3), random_point(rng, 3), budget=budget)

    def test_plant_reads_the_basis_as_one_stack(self, ladder_closure):
        hs = ladder_closure._plant.hamiltonians
        assert hs.shape == (1 + ladder_closure.dimension, 3, 3)
        assert not hs[0].any() and np.array_equal(hs[1:], 1j * ladder_closure.basis)


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

    def test_dimension_zero_closure_gives_the_identity(self):
        report = lie_closure([Observable(np.zeros((3, 3)))])
        assert report.basis.shape == (0, 3, 3) and report.verdict == VERDICT_NOT
        assert np.array_equal(group_element(report, np.zeros(0)), np.eye(3))

    @pytest.mark.parametrize("length", [2, 4, 5])
    def test_wrong_coefficient_count(self, length):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        with pytest.raises(DimensionMismatchError):
            group_element(report, np.ones(length))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coefficients_are_rejected(self, bad):
        # the eigendecomposition would return an all-NaN matrix in place of a unitary
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        theta = np.array([0.3, bad, -0.2])
        with pytest.raises(ProtocolParameterError, match="finite"):
            group_element(report, theta)
        with pytest.raises(ProtocolParameterError, match="finite"):
            SteeringWord.from_closure(report, theta)

    @pytest.mark.parametrize("length", [2, 5])
    def test_wrong_coefficient_count_names_both_counts(self, length):
        report = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])
        want = f"3 coefficients expected for a closure of dimension 3, got {length}"
        with pytest.raises(DimensionMismatchError, match=want):
            group_element(report, np.ones(length))
