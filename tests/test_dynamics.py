"""Hamiltonian flow, control schedules, block propagators, ensembles."""

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

import qphase.dynamics
from qphase import (
    ClassicalHamiltonian,
    ControlSchedule,
    ControlledHamiltonian,
    Observable,
    PhaseEnsemble,
    PhasePoint,
    StateVector,
    evolve,
    evolve_unitary,
    from_phase,
    g_form,
    lie_closure,
    omega_form,
    real_block,
    sample_trajectory,
    to_phase,
)
from qphase.dynamics import forward_states, interval_propagators, overlap_gradient
from qphase.errors import (DimensionMismatchError, HermiticityError, NormalizationError, ProtocolParameterError,
                           QPhaseError, ScheduleCoverageError)
from qphase.steering import h3_matrix, ladder_control, ladder_drift

from conftest import random_hermitian, random_point, random_state, restacked_propagators

R2 = np.sqrt(2.0)


class TestHermitianInputs:
    @pytest.mark.parametrize("drift", [[[np.nan]], [[1.0, np.inf], [np.inf, 1.0]]])
    def test_non_finite_hamiltonian_rejected(self, drift):
        with pytest.raises(HermiticityError):
            ControlledHamiltonian(drift)


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
        assert ClassicalHamiltonian(ladder_drift(1.0)).value(x) == pytest.approx(
            expected, abs=1e-14
        )
        assert expected == 0.0


class TestControlSchedule:
    def test_constant_covers(self):
        s = ControlSchedule([0.0, 2.0], [[0.5]])
        assert s.covers(0.0, 2.0) and not s.covers(0.0, 2.5)
        assert s.value_at(1.0)[0] == 0.5

    def test_segments_split_on_breakpoints(self):
        plant = ControlledHamiltonian(np.diag([1.0, -1.0]), (np.array([[0, 1], [1, 0]], complex),),
                                      ControlSchedule([0.0, 1.0, 2.0], [[1.0], [-1.0]]))
        cuts, values, dts = plant._pieces(np.array([0.5, 1.5]))
        assert (cuts.tolist(), values[:, 0].tolist(), dts.tolist()) == ([0.5, 1.0, 1.5], [1.0, -1.0], [0.5, 0.5])

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 0.0], [[1.0]])

    @pytest.mark.parametrize("grid", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]])
    def test_rejects_non_finite_grid(self, grid):
        with pytest.raises(ValueError):
            ControlSchedule(grid, [[1.0], [1.0]])


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
            ControlSchedule([0.0, 1.0], [[0.3]]),
        )
        with pytest.raises(ScheduleCoverageError):
            evolve(plant, PhasePoint([1, 0], [0, 0]), 0.0, 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_raises(self, bad):
        plant = ControlledHamiltonian.drift_only(np.diag([1.0, -1.0]))
        x = PhasePoint([bad, 0.0], [0.0, 1.0])
        with pytest.raises(NormalizationError):
            evolve(plant, x, 0.0, 1.0)
        with pytest.raises(NormalizationError):
            sample_trajectory(plant, x, [0.0, 1.0])


class TestSampleTrajectory:
    """One pass against per-sample ``evolve`` and ``ClassicalHamiltonian``."""

    def check(self, plant, x0, times):
        points, energies = sample_trajectory(plant, x0, times)
        assert points.shape == (len(times), 2 * plant.dim) and energies.shape == (len(times),)
        for t, point, energy in zip(times, points, energies):
            want = evolve(plant, x0, times[0], t)
            assert np.max(np.abs(point - want.flat())) < 1e-12
            u = plant.schedule.value_at(t) if plant.controls else np.zeros(0)
            assert abs(energy - ClassicalHamiltonian(plant.matrix_for(u)).value(want)) < 1e-12

    def plant(self, rng, grid, channels=2):
        return ControlledHamiltonian(
            random_hermitian(rng, 3),
            tuple(random_hermitian(rng, 3) for _ in range(channels)),
            ControlSchedule(grid, rng.uniform(-1, 1, size=(len(grid) - 1, channels))),
        )

    def test_samples_on_and_between_breakpoints(self, rng):
        grid = [0.0, 0.4, 0.5, 1.1, 2.0]
        # 0.4, 1.1 and 2.0 are breakpoints, the grid's end among them; 0.5 is repeated
        times = [0.0, 0.1, 0.4, 0.5, 0.5, 0.8, 1.1, 1.7, 2.0]
        self.check(self.plant(rng, grid), random_point(rng, 3), times)

    def test_horizon_short_of_the_grid_end(self, rng):
        plant = self.plant(rng, np.linspace(0.0, 3.0, 7), channels=1)
        self.check(plant, random_point(rng, 3), np.linspace(0.25, 1.9, 12))

    def test_drift_only_plant(self, rng):
        plant = ControlledHamiltonian.drift_only(random_hermitian(rng, 4))
        self.check(plant, random_point(rng, 4), np.linspace(0.0, 5.0, 41))

    def test_single_sample_is_the_start(self, rng):
        plant = self.plant(rng, [0.0, 1.0])
        x0 = random_point(rng, 3)
        points, _ = sample_trajectory(plant, x0, [0.5])
        assert np.array_equal(points[0], x0.flat())

    @pytest.mark.parametrize("values, times", [
        # samples split every interval, and rows recur out of order, -0.0 beside 0.0 included
        ([[0.3, -1.0], [0.7, 0.2], [0.3, -1.0], [0.0, 0.2], [-0.0, 0.2], [0.7, 0.2]], np.linspace(0.0, 3.0, 25)),
        ([[0.5, 0.5]] * 4, [0.0, 0.2, 0.2, 1.0, 1.7, 2.0]),
        (None, np.linspace(0.0, 4.0, 33)),  # drift-only: every piece shares the empty row
    ])
    def test_one_diagonalisation_per_distinct_row(self, rng, monkeypatch, values, times):
        """Bit for bit the per-piece path: one call diagonalises every piece, repeated rows included."""
        drift = random_hermitian(rng, 3)
        if values is None:
            plant = ControlledHamiltonian.drift_only(drift)
        else:
            grid = np.linspace(0.0, times[-1], len(values) + 1)
            controls = tuple(random_hermitian(rng, 3) for _ in range(2))
            plant = ControlledHamiltonian(drift, controls, ControlSchedule(grid, values))
        x0, times = random_point(rng, 3), np.asarray(times, dtype=float)
        cuts, pieces, dts = plant._pieces(times)
        psis = forward_states(interval_propagators(plant, pieces, dts)[0], x0.amplitudes)[np.searchsorted(cuts, times)]
        coeffs = np.ones((times.size, 1 + len(plant.controls)))
        if plant.controls:
            coeffs[:, 1:] = plant.schedule.value_at(times)
        want_energies = 0.5 * np.einsum("ia,ij,ajk,ik->i", coeffs, psis.conj(), plant.hamiltonians, psis).real

        rows = []
        original = qphase.dynamics.interval_propagators

        def counting(h, u, d):
            rows.append(len(u))
            return original(h, u, d)

        monkeypatch.setattr(qphase.dynamics, "interval_propagators", counting)
        points, energies = sample_trajectory(plant, x0, times)
        assert np.array_equal(points, np.concatenate([psis.real, psis.imag], axis=1))
        assert np.array_equal(energies, want_energies)
        assert rows == [len(dts)]

    def test_coverage_and_times_are_checked(self, rng):
        plant = self.plant(rng, [0.0, 1.0])
        x0 = random_point(rng, 3)
        with pytest.raises(ScheduleCoverageError):
            sample_trajectory(plant, x0, [0.0, 1.5])
        with pytest.raises(ScheduleCoverageError):
            sample_trajectory(ControlledHamiltonian(plant.drift, plant.controls), x0, [0.0, 0.5])
        for times in ([0.5, 0.2], [[0.0, 0.5]], [], [0.0, np.nan]):
            with pytest.raises(ValueError):
                sample_trajectory(plant, x0, times)


class TestHamiltonianStack:
    @pytest.mark.parametrize("r", [0, 1, 3])
    def test_one_read_only_stack_shared_by_drift_and_controls(self, rng, r):
        h0, hs = random_hermitian(rng, 4), [random_hermitian(rng, 4) for _ in range(r)]
        plant = ControlledHamiltonian(h0, tuple(hs))
        stack = plant.hamiltonians
        assert stack.shape == (1 + r, 4, 4) and stack.dtype == complex and not stack.flags.writeable
        assert np.array_equal(stack, np.array([h0, *hs]))
        assert isinstance(plant.controls, tuple) and len(plant.controls) == r
        for k, view in enumerate((plant.drift,) + plant.controls):
            assert np.shares_memory(view, stack) and not view.flags.writeable
            assert np.array_equal(view, stack[k])

    def test_drift_only(self, rng):
        plant = ControlledHamiltonian.drift_only(random_hermitian(rng, 3))
        assert plant.hamiltonians.shape == (1, 3, 3) and plant.controls == ()
        assert np.shares_memory(plant.drift, plant.hamiltonians)

    def test_mismatched_control_raises(self, rng):
        with pytest.raises(DimensionMismatchError):
            ControlledHamiltonian(random_hermitian(rng, 3), (random_hermitian(rng, 3), random_hermitian(rng, 2)))

    def test_matrix_for(self, rng):
        plant = ControlledHamiltonian(random_hermitian(rng, 3), (random_hermitian(rng, 3), random_hermitian(rng, 3)))
        u = rng.uniform(-1, 1, 2)
        want = plant.drift + u[0] * plant.controls[0] + u[1] * plant.controls[1]
        assert np.max(np.abs(plant.matrix_for(u) - want)) < 1e-14
        with pytest.raises(DimensionMismatchError):
            plant.matrix_for(np.ones(3))

    @pytest.mark.parametrize("r", [0, 1, 2, 5])
    def test_propagators_equal_the_restacked_reference_bit_for_bit(self, rng, r):
        plant = ControlledHamiltonian(random_hermitian(rng, 4), tuple(random_hermitian(rng, 4) for _ in range(r)))
        u, dts = rng.uniform(-2, 2, size=(9, r)), rng.uniform(0.01, 1.5, size=9)
        for got, want in zip(interval_propagators(plant, u, dts), restacked_propagators(plant, u, dts)):
            assert np.array_equal(got, want)


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
        # the pieces [0.2, 0.4], [0.4, 1.0], [1.0, 1.5] and the rows in force on them
        for ta, tb, u in zip([0.2, 0.4, 1.0], [0.4, 1.0, 1.5], plant.schedule.values):
            want = expm(-1j * plant.matrix_for(u) * (tb - ta)) @ want
        assert np.max(np.abs(evolve_unitary(plant, 0.2, 1.5) - want)) < 1e-12


class TestOverlapGradient:
    """``overlap_gradient`` against ``expm_frechet`` interval by interval and against central differences."""

    @pytest.mark.parametrize("case", ["controlled", "closure"])
    def test_matches_expm_frechet_and_central_differences(self, rng, case):
        if case == "controlled":
            plant = ControlledHamiltonian(random_hermitian(rng, 4), tuple(random_hermitian(rng, 4) for _ in range(2)))
            u, dts = rng.uniform(-1.5, 1.5, size=(6, 2)), rng.uniform(0.1, 1.2, size=6)
        else:  # the ladder's zero-drift closure plant; at u = 0 its three eigenvalues are equal
            plant = lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])._plant
            u, dts = rng.uniform(-np.pi, np.pi, size=(4, 3)), np.ones(4)
            u[1] = 0.0
        psi0, lam = random_state(rng, plant.dim).amplitudes, random_state(rng, plant.dim).amplitudes
        props, w, v = interval_propagators(plant, u, dts)
        psis = forward_states(props, psi0)
        lams = forward_states(props.conj().transpose(0, 2, 1)[::-1], lam)[::-1][1:]  # row k leaves interval k
        grad = overlap_gradient(plant, w, v, dts, psis[:-1], lams)
        assert grad.shape == u.shape
        if case == "closure":
            assert np.ptp(w[1]) == 0.0
        for k in range(dts.size):
            generator = -1j * plant.matrix_for(u[k]) * dts[k]
            for j, h in enumerate(plant.controls):
                d_prop = expm_frechet(generator, -1j * h * dts[k], compute_expm=False)
                assert abs(grad[k, j] - np.vdot(lams[k], d_prop @ psis[k]).real) < 1e-12

        def overlap(u):
            return np.vdot(lam, forward_states(interval_propagators(plant, u, dts)[0], psi0)[-1]).real

        step = 1e-6
        for k, j in np.ndindex(u.shape):
            e = np.zeros_like(u)
            e[k, j] = step
            assert abs(grad[k, j] - (overlap(u + e) - overlap(u - e)) / (2 * step)) < 1e-8


def phase_propagator(plant, t0, t1):
    """The real 2N x 2N phase-space propagator over [t0, t1]."""
    return real_block(evolve_unitary(plant, t0, t1))


class TestEvolveBlock:
    """The realified propagator of the flow is orthogonal and symplectic."""

    def test_generator_blocks(self):
        # infinitesimal propagator of the ladder drift: A = diag(-1, 0, 1)
        plant = ControlledHamiltonian.drift_only(ladder_drift(1.0))
        dt = 1e-7
        b = phase_propagator(plant, 0.0, dt)
        gen = (b - np.eye(6)) / dt
        a = np.diag([-1.0, 0.0, 1.0])
        z = np.zeros((3, 3))
        want = np.block([[z, a], [-a, z]])
        assert np.max(np.abs(gen - want)) < 1e-6

    def test_block_orthogonal_symplectic(self, rng):
        plant = ControlledHamiltonian(
            ladder_drift(1.0),
            (np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], complex),),
            ControlSchedule([0.0, 2.0], [[0.7]]),
        )
        b = phase_propagator(plant, 0.0, 2.0)
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
        full = phase_propagator(plant, 0.0, 2.0)
        split = phase_propagator(plant, 1.0, 2.0) @ phase_propagator(plant, 0.0, 1.0)
        assert np.max(np.abs(full - split)) < 1e-12

    def test_block_applies_like_evolve(self, rng):
        plant = ControlledHamiltonian.drift_only(random_hermitian(rng, 3))
        x = random_point(rng, 3)
        b = phase_propagator(plant, 0.0, 1.3)
        assert np.max(np.abs(b @ x.flat() - evolve(plant, x, 0.0, 1.3).flat())) < 1e-12


class TestPhaseEnsemble:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            PhaseEnsemble([0.5, 0.4], (PhasePoint([1], [0]), PhasePoint([0], [1])))

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError):
            PhaseEnsemble([np.nan], (PhasePoint([1], [0]),))


class TestTypedErrors:
    """Every rejected input of ``dynamics`` raises a ``QPhaseError`` that is still a ``ValueError``."""

    @pytest.mark.parametrize("call", [
        lambda h, x: evolve(h, x, 1.0, 0.0),
        lambda h, x: sample_trajectory(h, x, [1.0, 0.0]),
        lambda h, x: ControlSchedule([0, 1], [[np.nan]]),
        lambda h, x: ControlSchedule([0, 0], [[1]]),
        lambda h, x: ControlSchedule([0, 1, 2], [[1]]),
        lambda h, x: PhaseEnsemble([1.0], (x, x)),
        lambda h, x: PhaseEnsemble([1.5, -0.5], (x, x)),
        lambda h, x: PhaseEnsemble([0.5, 0.4], (x, x)),
    ], ids=["evolve-backwards", "times-decrease", "nan-control", "flat-grid", "row-count",
            "weight-count", "negative-weight", "weight-sum"])
    def test_rejected_input_raises_a_qphase_error(self, call):
        plant = ControlledHamiltonian.drift_only(np.diag([1.0, -1.0]))
        with pytest.raises(QPhaseError) as info:
            call(plant, PhasePoint([1.0, 0.0], [0.0, 0.0]))
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("evolver", [
        lambda h, t0, t1: evolve_unitary(h, t0, t1),
        lambda h, t0, t1: evolve(h, PhasePoint([1.0, 0.0], [0.0, 0.0]), t0, t1),
    ], ids=["evolve_unitary", "evolve"])
    @pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (np.nan, 1.0), (-np.inf, 0.0), (0.0, np.inf)],
                             ids=["nan-t1", "nan-t0", "minus-inf-t0", "inf-t1"])
    def test_non_finite_times_are_rejected(self, evolver, t0, t1):
        # each once gave a silent answer: the identity, or an all-NaN unitary for t1 = inf
        plant = ControlledHamiltonian.drift_only(np.diag([1.0, -1.0]))
        with pytest.raises(ProtocolParameterError):
            evolver(plant, t0, t1)
