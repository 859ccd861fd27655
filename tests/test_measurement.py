"""Projective jumps, metric probabilities, ensembles, continuous observation."""

import tracemalloc

import numpy as np
import pytest

from qphase import (
    DensityMatrix,
    GaussianMeasurement,
    Observable,
    PhasePoint,
    born_probability_via_metric,
    born_weights,
    branch_outcome,
    branch_probabilities,
    closest_point_check,
    collapse,
    continuous_observe,
    draw_branch,
    from_phase,
    g_form,
    measure_nonselective,
    measure_selective,
    to_phase,
)
from qphase.errors import (
    DegenerateBasisError,
    NormalizationError,
    ProtocolParameterError,
    QPhaseError,
    ZeroProbabilityBranchError,
)
from qphase.measurement import _step_matrix, select_branches
from qphase.rng import first_uniforms, stream
from qphase.steering import ladder_drift

from conftest import random_hermitian, random_point

R2 = np.sqrt(2.0)


class TestSelective:
    def test_eigenstate_is_fixed(self, rng):
        x = PhasePoint([0, 1, 0], [0, 0, 0])
        out = measure_selective(x, Observable(ladder_drift(1.0)), rng)
        assert out.value == pytest.approx(0.0)
        assert out.probability == pytest.approx(1.0)
        assert np.max(np.abs(out.post_state.flat() - x.flat())) < 1e-12

    def test_rotated_lowest_level_half_weight(self):
        x = PhasePoint([0.5, 1 / R2, 0.5], [0, 0, 0])
        probs = branch_probabilities(x, Observable(ladder_drift(1.0)))
        assert probs[1] == pytest.approx(0.5, abs=1e-12)

    def test_equal_superposition(self, rng):
        x = PhasePoint([1 / R2, 1 / R2], [0, 0])
        probs = branch_probabilities(x, Observable(np.diag([0.0, 1.0])))
        assert np.allclose(probs, [0.5, 0.5])

    def test_unnormalized_rejected(self, rng):
        with pytest.raises(NormalizationError):
            measure_selective(PhasePoint([2.0], [0.0]), Observable([[1.0]]), rng)

    def test_nan_state_rejected(self, rng):
        with pytest.raises(NormalizationError):
            measure_selective(PhasePoint([np.nan, 0.0], [0.0, 0.0]), Observable(np.diag([0.0, 1.0])), rng)

    @pytest.mark.parametrize("psi", [[1.0, 0.0, 0.0], [1.0, 1e-16, 0.0], [0.0, 0.0, 1j]])
    def test_zero_weight_branch_raises(self, psi):
        # the normalised projection would be all NaN, with a RuntimeWarning
        psi, obs = np.array(psi, dtype=complex), Observable(np.diag([1.0, 2.0, 3.0]))
        probs = born_weights(psi / np.linalg.norm(psi), obs)
        for call in (lambda: collapse(psi, obs, 1), lambda: branch_outcome(psi, obs, probs, 1)):
            with pytest.raises(ZeroProbabilityBranchError, match="branch 1"):
                call()

    def test_born_statistics_3sigma(self):
        rng = np.random.default_rng(99)
        x = PhasePoint([0.6, 0.0], [0.0, 0.8])
        obs = Observable(np.diag([0.0, 1.0]))
        n = 100_000
        hits = sum(measure_selective(x, obs, rng).branch for _ in range(n))
        p = 0.64
        se = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) < 3 * se


class TestDrawBranch:
    """The one-uniform draw against ``Generator.choice`` on per-trial streams."""

    WEIGHTS = (
        np.array([0.25, 0.5, 0.25]),
        np.array([0.0, 0.3, 0.0, 0.7, 0.0]),  # zero-weight branches first, inside and last
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([1 / 3, 1 / 3, 1 / 3]),  # weights whose cumulative sum misses 1
    )

    def test_matches_choice_and_leaves_the_same_stream_state(self):
        rng = np.random.default_rng(5)
        for k in range(20_000):
            probs = self.WEIGHTS[k % len(self.WEIGHTS)] if k % 2 else rng.dirichlet(np.ones(4))
            ours, ref = stream(77, k), stream(77, k)
            assert draw_branch(probs, ours) == int(ref.choice(len(probs), p=probs))
            assert ours.bit_generator.state["state"]["counter"].tolist() == \
                ref.bit_generator.state["state"]["counter"].tolist()
            assert ours.bit_generator.state["buffer_pos"] == ref.bit_generator.state["buffer_pos"]
            assert ours.random() == ref.random()

    def test_zero_weight_branches_are_never_drawn(self):
        probs = self.WEIGHTS[1]
        drawn = {draw_branch(probs, stream(3, k)) for k in range(2000)}
        assert drawn == {1, 3}


class TestMetricFormula:
    def test_eigenstate(self):
        x = PhasePoint([1, 0], [0, 0])
        assert born_probability_via_metric(x, Observable(np.diag([0.0, 1.0])), 0.0) == pytest.approx(1.0)

    def test_equal_superposition(self):
        x = PhasePoint([1 / R2, 1 / R2], [0, 0])
        assert born_probability_via_metric(x, Observable(np.diag([0.0, 1.0])), 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_matches_projector_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            obs = Observable(random_hermitian(rng, n))
            x = random_point(rng, n)
            psi = from_phase(x).amplitudes
            for a, proj in obs.spectrum:
                want = float(np.real(np.vdot(psi, proj @ psi)))
                if want < 1e-12:
                    continue
                assert abs(born_probability_via_metric(x, obs, a) - want) < 1e-12

    def test_zero_branch_raises(self):
        x = PhasePoint([1, 0], [0, 0])
        with pytest.raises(ZeroProbabilityBranchError):
            born_probability_via_metric(x, Observable(np.diag([0.0, 1.0])), 1.0)


def closest_point_loop(x, a, eigenvalue, trials, rng):
    """Trial-by-trial reference for ``closest_point_check``."""
    basis = a.eigenspace_basis(eigenvalue)
    psi = x.q + 1j * x.p
    ppsi = basis @ (basis.conj().T @ psi)
    ppsi = ppsi / np.linalg.norm(ppsi)
    d = x - PhasePoint(ppsi.real, ppsi.imag)
    dist_min = g_form(d, d)
    r = basis.shape[1]
    for _ in range(trials):
        c = rng.normal(size=r) + 1j * rng.normal(size=r)
        phi = basis @ (c / np.linalg.norm(c))
        dphi = x - PhasePoint(phi.real, phi.imag)
        if g_form(dphi, dphi) < dist_min - 1e-12:
            return False
    return True


class SkewedBasis:
    """Observable stand-in whose eigenspace basis is not orthonormal.

    Its false projection is not the closest point of the span, so closer
    points are planted among the samples.
    """

    def __init__(self, basis):
        self.basis = np.asarray(basis, dtype=complex)

    def eigenspace_basis(self, eigenvalue):
        return self.basis

    def branch_index(self, eigenvalue):
        return 0

    def project(self, psi, branch):
        return self.basis @ (self.basis.conj().T @ psi)


class TestClosestPoint:
    def test_matches_the_loop_and_leaves_the_same_generator_state(self):
        gen = np.random.default_rng(31)
        for n, vals in ((3, [1.0, 1.0, 2.0]), (5, [0.0, 0.0, 0.0, 1.0, 3.0]), (4, [2.0, 2.0, 2.0, 2.0])):
            basis = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))[0]
            obs = Observable(basis @ np.diag(vals) @ basis.conj().T)
            for _ in range(5):
                x = random_point(gen, n)
                a, b = np.random.default_rng(7), np.random.default_rng(7)
                assert closest_point_check(x, obs, vals[0], 500, a)
                assert closest_point_loop(x, obs, vals[0], 500, b)
                assert a.random() == b.random()

    def test_planted_closer_point_fails(self):
        skewed = SkewedBasis([[1, 0], [0, 0.1], [0, 0]])
        x = PhasePoint([0.6, 0.8, 0.0], [0.0, 0.0, 0.0])
        assert not closest_point_loop(x, skewed, 0.0, 1000, np.random.default_rng(2))
        assert not closest_point_check(x, skewed, 0.0, 1000, np.random.default_rng(2))

    def test_vacuous_trials(self, rng):
        x = PhasePoint([1 / R2, 1 / R2], [0, 0])
        assert closest_point_check(x, Observable(np.diag([0.0, 1.0])), 0.0, 0, rng)

    def test_eigenstate_minimum(self, rng):
        x = PhasePoint([1, 0], [0, 0])
        assert closest_point_check(x, Observable(np.diag([0.0, 1.0])), 0.0, 200, rng)

    def test_random_states_degenerate_eigenspace(self, rng):
        obs = Observable(np.diag([1.0, 1.0, 2.0]))
        for _ in range(20):
            x = random_point(rng, 3)
            assert closest_point_check(x, obs, 1.0, 1000, rng)


class TestNonSelective:
    def test_basis_state_single_atom(self):
        e = measure_nonselective(PhasePoint([0, 1], [0, 0]), Observable(np.diag([0.0, 1.0])))
        assert len(e) == 1 and e.weights[0] == pytest.approx(1.0)

    def test_equal_weights(self):
        e = measure_nonselective(PhasePoint([1 / R2, 1 / R2], [0, 0]), Observable(np.diag([0.0, 1.0])))
        assert np.allclose(e.weights, [0.5, 0.5])
        for pt in e.points:
            assert pt.norm_sq() == pytest.approx(1.0)

    def test_pythagorean_weights(self):
        e = measure_nonselective(PhasePoint([0.6, 0.0], [0.0, 0.8]), Observable(np.diag([0.0, 1.0])))
        assert np.allclose(e.weights, [0.36, 0.64])
        assert e.points[0].q[0] == pytest.approx(1.0)  # q-component atom
        assert e.points[1].p[1] == pytest.approx(1.0)  # p-component atom

    def test_weights_match_selective_probabilities(self, rng):
        obs = Observable(random_hermitian(rng, 4))
        x = random_point(rng, 4)
        e = measure_nonselective(x, obs)
        assert np.max(np.abs(e.weights - branch_probabilities(x, obs))) < 1e-12

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DegenerateBasisError):
            measure_nonselective(PhasePoint([1, 0, 0], [0, 0, 0]), Observable(np.diag([1.0, 1.0, 2.0])))


class TestContinuousObservation:
    def test_two_level_dephasing_rate(self):
        s = 0.7
        rho0 = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), s, 0.01)
        t_final = 1.0 / s
        times, rhos = continuous_observe(rho0, Observable(np.zeros((2, 2))), m, t_final, 4000)
        got = rhos[-1][0, 1].real
        want = 0.5 * np.exp(-2 * s * t_final)
        assert abs(got - want) / want < 1e-6
        assert abs(np.trace(rhos[-1]).real - 1.0) < 1e-9

    def test_identity_observable_no_damping(self, rng):
        h = Observable(random_hermitian(rng, 2))
        rho0 = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        m = GaussianMeasurement(Observable(np.eye(2) * 2.0), 5.0, 0.01)
        times, rhos = continuous_observe(rho0, h, m, 1.0, 2000)
        from scipy.linalg import expm

        u = expm(-1j * h.matrix)
        want = u @ rho0.matrix @ u.conj().T
        assert np.max(np.abs(rhos[-1] - want)) < 1e-6

    def test_diagonal_fixed_point(self):
        rho0 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 1.0, 0.01)
        times, rhos = continuous_observe(rho0, Observable(np.zeros((2, 2))), m, 2.0, 500)
        assert np.max(np.abs(rhos[-1] - rho0.matrix)) < 1e-12

    def test_three_level_decay_exponents(self):
        s = 0.4
        lam = np.array([0.0, 1.0, 3.0])
        rho0 = DensityMatrix(np.full((3, 3), 1 / 3, dtype=complex))
        m = GaussianMeasurement(Observable(np.diag(lam)), s, 0.01)
        t_final = 0.5
        times, rhos = continuous_observe(
            rho0, Observable(np.zeros((3, 3))), m, t_final, 4000
        )
        for k in range(3):
            for kp in range(k + 1, 3):
                want = (1 / 3) * np.exp(-(s / 2) * (lam[k] - lam[kp]) ** 2 * t_final)
                got = rhos[-1][k, kp].real
                assert abs(got - want) / want < 1e-6

    @pytest.mark.parametrize("t_final, steps", [
        (np.nan, 10), (np.inf, 10), (-np.inf, 10), (0.0, 10), (1.0, 2.5), (1.0, 0), (1.0, 10.0), (1.0, True),
    ])
    def test_rejects_bad_horizon(self, t_final, steps):
        rho0 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 1.0, 0.01)
        with pytest.raises(ValueError):
            continuous_observe(rho0, Observable(np.zeros((2, 2))), m, t_final, steps)

    def test_numpy_integer_steps(self):
        rho0 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
        m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 1.0, 0.01)
        times, rhos = continuous_observe(rho0, Observable(np.zeros((2, 2))), m, 1.0, np.int64(5))
        assert times.shape == (6,) and rhos.shape == (6, 2, 2)

    def test_positivity_preserved(self, rng):
        rho0 = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 2.0, 0.01)
        _, rhos = continuous_observe(rho0, Observable(random_hermitian(rng, 2)), m, 1.0, 1000)
        for rho in rhos[::100]:
            assert np.min(np.linalg.eigvalsh(rho)) > -1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9


def rk4_reference(rho0, hm, lam, s, t_final, steps):
    """Stage-by-stage RK4 with trace renormalization, the reference for the step matrix."""

    def rhs(rho):
        comm = hm @ rho - rho @ hm
        dbl = lam @ (lam @ rho - rho @ lam) - (lam @ rho - rho @ lam) @ lam
        return -1j * comm - 0.5 * s * dbl

    dt = t_final / steps
    rho = np.array(rho0, dtype=complex)
    rhos = [rho]
    for _ in range(steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = rho / np.trace(rho).real
        rhos.append(rho)
    return np.array(rhos)


def rk4_polynomial(z):
    """RK4's stability polynomial: the factor one step applies to a mode with rate z/dt."""
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


STIFF_LAM = np.array([-1.0, 0.5, 2.0])  # the stiff observation case: s = 100, dt = 0.01


class TestStepMatrix:
    def test_matches_the_stage_by_stage_loop(self, rng):
        for n in range(1, 5):
            for s in (0.5, 5.0):
                a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                rho0 = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
                h, lam = Observable(random_hermitian(rng, n)), Observable(random_hermitian(rng, n))
                t_final, steps = float(rng.uniform(0.2, 1.0)), int(rng.integers(50, 401))
                m = GaussianMeasurement(lam, s, 0.01)
                times, rhos = continuous_observe(rho0, h, m, t_final, steps)
                want = rk4_reference(rho0.matrix, h.matrix, lam.matrix, s, t_final, steps)
                assert rhos.shape == want.shape == (steps + 1, n, n)
                assert np.max(np.abs(rhos - want)) < 1e-12

    # continuous_observe's block length: min(steps, 64, max(1, 2**18 // N**4))
    @pytest.mark.parametrize("n, block", [(1, 64), (2, 64), (3, 64), (4, 64), (5, 64), (10, 26), (23, 1)])
    def test_blocked_steps_match_the_stage_by_stage_loop(self, rng, n, block):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho0 = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        h, lam = Observable(random_hermitian(rng, n)), Observable(random_hermitian(rng, n) / np.sqrt(n))
        m = GaussianMeasurement(lam, 2.0, 0.01)
        counts = (1, 2, 3) if block == 1 else (1, block - 1, block, block + 1, 2 * block + 3)
        for steps in counts:
            t_final = 0.01 * steps
            _, rhos = continuous_observe(rho0, h, m, t_final, steps)
            want = rk4_reference(rho0.matrix, h.matrix, lam.matrix, 2.0, t_final, steps)
            assert rhos.shape == want.shape == (steps + 1, n, n)
            assert np.max(np.abs(rhos - want)) < 1e-12

    def test_stiff_divergence_is_reproduced(self):
        rho0 = np.full((3, 3), 1 / 3, dtype=complex)
        m = GaussianMeasurement(Observable(np.diag(STIFF_LAM)), 100.0, 0.01)
        _, rhos = continuous_observe(DensityMatrix(rho0), Observable(np.zeros((3, 3))), m, 1.0, 100)
        want = rk4_reference(rho0, np.zeros((3, 3)), np.diag(STIFF_LAM), 100.0, 1.0, 100)
        scale = np.max(np.abs(want))
        assert scale > 1e90
        assert np.max(np.abs(rhos - want)) / scale < 1e-12

    def test_diagonal_generators_give_the_stability_polynomial(self, rng):
        for n in range(1, 5):
            h, lam = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n)
            s, dt = float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.01, 0.1))
            step = _step_matrix(np.diag(h).astype(complex), np.diag(lam).astype(complex), s, dt)
            z = dt * (-1j * (h[:, None] - h[None, :]) - 0.5 * s * (lam[:, None] - lam[None, :]) ** 2)
            assert np.max(np.abs(step - np.diag(rk4_polynomial(z).ravel()))) < 1e-14

    def test_stiff_growth_factor_is_rk4s(self):
        step = _step_matrix(np.zeros((3, 3), complex), np.diag(STIFF_LAM).astype(complex), 100.0, 0.01)
        growth = np.abs(np.diag(step))
        # the (-1, 2) coherence: dt (s/2) (lambda_k - lambda_k')^2 = 4.5, outside RK4's interval (-2.79, 0)
        assert abs(rk4_polynomial(-4.5) - 8.5234375) < 1e-14
        assert abs(growth.max() - rk4_polynomial(-4.5)) < 1e-12
        assert np.flatnonzero(growth > 1.0).tolist() == [0 * 3 + 2, 2 * 3 + 0]

    def test_peak_memory_stays_under_five_superoperators(self, rng):
        n = 16
        h, lam = random_hermitian(rng, n), random_hermitian(rng, n)
        tracemalloc.start()
        try:
            _step_matrix(h, lam, 2.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * n**4 * np.dtype(complex).itemsize


class TestGaussian:
    @pytest.mark.parametrize("strength, dt", [
        (np.nan, 0.1), (1.0, np.nan), (np.inf, 0.1), (1.0, np.inf), (0.0, 0.1), (1.0, -0.1),
    ])
    def test_rejects_non_positive_or_non_finite(self, strength, dt):
        with pytest.raises(ValueError):
            GaussianMeasurement(Observable(np.diag([1.0, -1.0])), strength, dt)


class TestDensityMatrix:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan_entry(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.0, np.nan], [np.nan, 0.0]], dtype=complex))


def _observe(t_final, steps):
    rho0 = DensityMatrix(np.diag([0.2, 0.8]).astype(complex))
    m = GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 1.0, 0.01)
    return continuous_observe(rho0, Observable(np.zeros((2, 2))), m, t_final, steps)


@pytest.mark.parametrize("call, error", [
    (lambda: DensityMatrix(np.diag([0.5, 0.4]).astype(complex)), NormalizationError),
    (lambda: DensityMatrix(np.diag([1.5, -0.5]).astype(complex)), ProtocolParameterError),
    (lambda: GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 0.0, 0.1), ProtocolParameterError),
    (lambda: GaussianMeasurement(Observable(np.diag([1.0, -1.0])), 1.0, np.inf), ProtocolParameterError),
    (lambda: _observe(0.0, 10), ProtocolParameterError),
    (lambda: _observe(1.0, 0), ProtocolParameterError),
], ids=["trace", "negative", "strength", "dt", "t_final", "steps"])
def test_rejections_are_typed_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, QPhaseError) and isinstance(info.value, ValueError)


def degenerate_observable(rng, n):
    """Observable with eigenvalues drawn from {0, 1, 2, 3} (forced repeats) in a random frame.

    Returns it with the projectors Q_b Q_b^H of the frame, in ascending order.
    """
    vals = rng.integers(0, 4, n).astype(float)
    frame = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    projectors = [frame[:, vals == a] @ frame[:, vals == a].conj().T for a in np.unique(vals)]
    return Observable((frame * vals) @ frame.conj().T), projectors


class TestSpectralKernelOracle:
    """The eigenbasis kernel against the projector formulas it replaced.

    Born weights are checked against the projectors of the frame the
    observable was built in; the jumps, which divide by a branch's norm,
    against the observable's own projectors ``spectrum``, as before.
    """

    def cases(self, rng, count=300):
        for _ in range(count):
            n = int(rng.integers(1, 7))
            obs, projectors = degenerate_observable(rng, n)
            assert len(obs.eigenvalues) == len(projectors)
            yield obs, projectors, random_point(rng, n)

    def test_born_weights_and_collapse(self, rng):
        for obs, projectors, x in self.cases(rng):
            psi = x.amplitudes
            want = np.array([np.vdot(psi, p @ psi).real for p in projectors])
            assert np.max(np.abs(branch_probabilities(x, obs) - want)) < 1e-14
            assert np.max(np.abs(born_weights(psi, obs) - want / want.sum())) < 1e-14
            for b, (_, p) in enumerate(obs.spectrum):
                if want[b] > 1e-3:  # the normalized projection is ill-conditioned near zero weight
                    ref = p @ psi / np.linalg.norm(p @ psi)
                    assert np.max(np.abs(collapse(psi, obs, b) - ref)) < 1e-14

    def test_nonselective_atoms(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 7))
            frame = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
            obs = Observable((frame * np.arange(n)) @ frame.conj().T)
            x = random_point(rng, n)
            psi = x.amplitudes
            e = measure_nonselective(x, obs)
            assert len(e) == n
            assert np.max(np.abs(e.weights - np.abs(frame.conj().T @ psi) ** 2)) < 1e-14
            for a, atom in zip(obs.eigenvalues, e.points):
                v = obs.eigenspace_basis(a)[:, 0]
                c = np.vdot(v, psi)
                assert np.max(np.abs(atom.amplitudes - (c / abs(c)) * v)) < 1e-14

    def test_exact_zero_branch_is_never_drawn(self):
        obs = Observable(np.diag([0.0, 1.0, 1.0, 2.0]))
        psi = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)
        probs = born_weights(psi, obs)
        assert probs[1] == 0.0 and np.array_equal(probs, [0.5, 0.0, 0.5])
        assert 1 not in set(select_branches(probs, first_uniforms(11, 5000)).tolist())
        e = measure_nonselective(PhasePoint.from_amplitudes(psi[[0, 1, 3]]), Observable(np.diag([0.0, 1.0, 2.0])))
        assert len(e) == 2 and np.allclose(e.weights, [0.5, 0.5], rtol=0, atol=1e-15)
