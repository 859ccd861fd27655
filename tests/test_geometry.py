"""States, phase coordinates, the (G, Omega, J) forms and observables."""

import pathlib
import re
import warnings

import numpy as np
import pytest

from qphase import (
    Observable,
    PhasePoint,
    StateVector,
    complex_structure,
    from_phase,
    g_form,
    omega_form,
    to_phase,
)
from qphase.errors import DimensionMismatchError, HermiticityError, NormalizationError

from conftest import random_hermitian, random_point, random_state

R2 = np.sqrt(2.0)


class TestPhaseMap:
    def test_real_unit_amplitude(self):
        x = to_phase(StateVector([1.0]))
        assert list(x.q) == [1.0] and list(x.p) == [0.0]

    def test_direct_split(self):
        x = to_phase(StateVector([(1 + 1j) / R2]))
        assert x.q[0] == pytest.approx(1 / R2) and x.p[0] == pytest.approx(1 / R2)

    def test_imaginary_unit_amplitude(self):
        x = to_phase(StateVector([0.0, 1j]))
        assert list(x.q) == [0.0, 0.0] and list(x.p) == [0.0, 1.0]

    def test_middle_level_reassembly(self):
        psi = from_phase(PhasePoint([0, 1, 0], [0, 0, 0]))
        assert np.array_equal(psi.amplitudes, np.array([0, 1, 0], complex))

    def test_goal_state_reassembly(self):
        psi = from_phase(PhasePoint([0, 0, 0], [1 / R2, 0, 1 / R2]))
        assert np.allclose(psi.amplitudes, [1j / R2, 0, 1j / R2])

    def test_zero_vector(self):
        assert from_phase(PhasePoint([0.0], [0.0])).amplitudes[0] == 0

    def test_round_trip(self, rng):
        for n in (1, 2, 5, 8):
            psi = random_state(rng, n)
            back = from_phase(to_phase(psi))
            assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-14


class TestForms:
    def test_norm_of_normalized_state(self, rng):
        x = random_point(rng, 4)
        assert g_form(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        x = PhasePoint([1, 0], [0, 0])
        y = PhasePoint([0, 1], [0, 0])
        assert g_form(x, y) == 0.0

    def test_g_pairs_q_with_q(self):
        x = PhasePoint([1, 0], [0, 0])
        y = PhasePoint([0, 0], [1, 0])
        assert g_form(x, y) == 0.0

    def test_omega_antisymmetry_diagonal(self, rng):
        x = random_point(rng, 3)
        assert omega_form(x, x) == 0.0

    def test_canonical_pair(self):
        x = PhasePoint([1], [0])
        y = PhasePoint([0], [1])
        assert omega_form(x, y) == 1.0
        assert omega_form(y, x) == -1.0

    def test_overlap_decomposition(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            x, y = random_point(rng, n), random_point(rng, n)
            ov = from_phase(x).overlap(from_phase(y))
            assert abs(ov - complex(g_form(x, y), omega_form(x, y))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            g_form(PhasePoint([1], [0]), PhasePoint([1, 0], [0, 0]))


class TestComplexStructure:
    def test_j_on_real_axis(self):
        jx = complex_structure(PhasePoint([1], [0]))
        assert list(jx.q) == [0.0] and list(jx.p) == [1.0]

    def test_j_squared_is_minus_one(self):
        jjx = complex_structure(complex_structure(PhasePoint([0], [1])))
        assert list(jjx.q) == [0.0] and list(jjx.p) == [-1.0]

    def test_kahler_identity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            x, y = random_point(rng, n), random_point(rng, n)
            assert abs(g_form(x, y) - omega_form(x, complex_structure(y))) < 1e-12


class TestNormalized:
    def test_unit_norm(self, rng):
        amps = 3.0 * random_state(rng, 4).amplitudes
        assert StateVector(amps).normalized().is_normalized()

    @pytest.mark.parametrize("amps", [[np.nan, 1.0], [np.inf, 0.0], [0.0, 0.0]])
    def test_zero_or_non_finite_norm_raises(self, amps):
        with pytest.raises(NormalizationError):
            StateVector(amps).normalized()

    @pytest.mark.parametrize("amps", [[], [[1.0], [0.0]]])
    def test_rejects_empty_or_not_1d(self, amps):
        with pytest.raises(DimensionMismatchError):
            StateVector(amps)

    @pytest.mark.parametrize("amps", [
        [1e200, 1e200],
        [1e-200, 1e-200],
        [1e308 + 1e308j, -1e308j],
        [5e-324, 0.0],
        [3e-170j, 0.0, -4e-170],
    ], ids=["overflow", "underflow", "overflowing-modulus", "subnormal", "mixed"])
    def test_finite_state_with_overflowing_or_underflowing_squares(self, amps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = StateVector(amps).normalized()
        assert np.all(np.isfinite(psi.amplitudes)) and psi.is_normalized()

    @pytest.mark.parametrize("amps", [[1e200, np.nan], [1e-200, np.inf], [np.inf, 1e200j], [0.0, -0.0j]])
    def test_scaling_does_not_rescue_a_zero_or_non_finite_state(self, amps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NormalizationError):
                StateVector(amps).normalized()

    def test_ordinary_states_keep_their_arithmetic(self, rng):
        for _ in range(200):
            amps = rng.uniform(0.1, 10.0) * random_state(rng, int(rng.integers(1, 9))).amplitudes
            assert StateVector(amps).normalized().amplitudes.tobytes() == (amps / np.linalg.norm(amps)).tobytes()


class TestAmplitudeMap:
    """The (q, p) <-> psi identification lives in PhasePoint alone."""

    INLINE_FORMS = (
        re.compile(r"\.q\s*\+\s*1j\s*\*\s*\w+\.p\b"),  # x.q + 1j * x.p
        re.compile(r"PhasePoint\(.*\.real,.*\.imag\)"),  # PhasePoint(psi.real, psi.imag)
        re.compile(r"\[:n\]\s*\+\s*1j\s*\*"),  # z[:n] + 1j * z[n:]
    )

    def test_round_trip(self, rng):
        x = random_point(rng, 4)
        assert np.array_equal(x.amplitudes, x.q + 1j * x.p)
        y = PhasePoint.from_amplitudes(x.amplitudes)
        assert np.array_equal(y.q, x.q) and np.array_equal(y.p, x.p)
        assert np.array_equal(PhasePoint.from_amplitudes([1.0, 2.0]).p, [0.0, 0.0])

    def test_no_inline_copies_outside_geometry(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "qphase"
        found = [
            f"{path.name}:{k}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            if path.name != "geometry.py"
            for k, line in enumerate(path.read_text().splitlines(), 1)
            if any(form.search(line) for form in self.INLINE_FORMS)
        ]
        assert found == []


class TestObservable:
    def test_rejects_empty(self):
        with pytest.raises(HermiticityError):
            Observable(np.zeros((0, 0)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            Observable([[0, 1], [0, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(HermiticityError):
            Observable([[bad, 0], [0, 1]])

    def test_projectors_built_on_first_use(self):
        obs = Observable(np.diag([1.0, 1.0, 2.0]))
        assert "spectrum" not in vars(obs)
        assert np.array_equal(obs.spectrum[0][1], np.diag([1.0, 1.0, 0.0]))
        assert "spectrum" in vars(obs)

    def test_projector_completeness(self, rng):
        h = random_hermitian(rng, 5)
        obs = Observable(h)
        total = sum(p for _, p in obs.spectrum)
        assert np.max(np.abs(total - np.eye(5))) < 1e-10
        for _, p in obs.spectrum:
            assert np.max(np.abs(p @ p - p)) < 1e-10

    def test_degenerate_grouping(self):
        obs = Observable(np.diag([1.0, 1.0, 2.0]))
        assert len(obs.spectrum) == 2
        assert not obs.is_nondegenerate()

    def test_spectrum_ascending(self, rng):
        obs = Observable(random_hermitian(rng, 6))
        vals = obs.eigenvalues
        assert all(a < b for a, b in zip(vals, vals[1:]))
