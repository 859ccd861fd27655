"""States, phase coordinates, the (G, Omega, J) forms and canonical generators."""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphase import (
    CanonicalGenerator,
    Observable,
    PhasePoint,
    StateVector,
    canonical_apply,
    complex_structure,
    from_phase,
    g_form,
    omega_form,
    to_phase,
)
from qphase.errors import DimensionMismatchError, HermiticityError

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
        assert np.array_equal(obs.projector(1.0), np.diag([1.0, 1.0, 0.0]))
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


class TestCanonicalGenerators:
    def test_zero_angle_identity(self, rng):
        x = random_point(rng, 3)
        g = CanonicalGenerator("qq-rotation", 0, 2, 0.0)
        y = canonical_apply(g, x)
        assert np.max(np.abs(y.flat() - x.flat())) < 1e-15

    def test_phase_rotation_quarter_turn(self):
        g = CanonicalGenerator("phase-rotation", 0, 0, np.pi / 2)
        y = canonical_apply(g, PhasePoint([1.0], [0.0]))
        assert abs(y.q[0]) < 1e-15 and y.p[0] == pytest.approx(1.0)

    def test_qp_rotation_periodicity(self, rng):
        x = random_point(rng, 4)
        g = CanonicalGenerator("qp-rotation", 1, 3, 2 * np.pi)
        y = canonical_apply(g, x)
        assert np.max(np.abs(y.flat() - x.flat())) < 1e-12

    @given(
        kind=st.sampled_from(["qq-rotation", "qp-rotation", "phase-rotation"]),
        theta=st.floats(-10, 10, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_generators_preserve_both_forms(self, kind, theta, seed):
        rng = np.random.default_rng(seed)
        n = 4
        i, j = (1, 1) if kind == "phase-rotation" else (0, 2)
        g = CanonicalGenerator(kind, i, j, theta)
        m = g.matrix(n)
        assert np.max(np.abs(m.T @ m - np.eye(2 * n))) < 1e-12
        x, y = random_point(rng, n), random_point(rng, n)
        gx, gy = canonical_apply(g, x), canonical_apply(g, y)
        assert abs(g_form(gx, gy) - g_form(x, y)) < 1e-12
        assert abs(omega_form(gx, gy) - omega_form(x, y)) < 1e-12

    @staticmethod
    def _literal(kind, i, j, theta, n):
        # element-wise 2n x 2n construction: a reference for real_block of
        # the complex n x n unitary that matrix() builds
        c, s = np.cos(theta), np.sin(theta)
        m = np.eye(2 * n)
        qi, qj, pi, pj = i, j, n + i, n + j
        if kind == "qq-rotation":
            for a, b in ((qi, qj), (pi, pj)):
                m[a, a], m[a, b], m[b, a], m[b, b] = c, s, -s, c
        elif kind == "qp-rotation":
            m[qi, qi], m[qi, pj], m[qj, qj], m[qj, pi] = c, -s, c, -s
            m[pi, pi], m[pi, qj], m[pj, pj], m[pj, qi] = c, s, c, s
        else:
            m[qi, qi], m[qi, pi], m[pi, qi], m[pi, pi] = c, -s, s, c
        return m

    def test_matrix_equals_the_literal_construction(self):
        rng = np.random.default_rng(11)
        kinds = ("qq-rotation", "qp-rotation", "phase-rotation")
        for k in range(1500):
            kind, n = kinds[k % 3], int(rng.integers(2, 7))
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            if kind == "phase-rotation":
                j = i
            theta = (0.0, np.pi, float(rng.uniform(-10, 10)))[k % 5 // 2]
            g = CanonicalGenerator(kind, i, j, theta)
            assert np.array_equal(g.matrix(n), self._literal(kind, i, j, theta, n))

    def test_index_out_of_range(self):
        g = CanonicalGenerator("qq-rotation", 0, 5, 1.0)
        with pytest.raises(IndexError):
            g.matrix(3)
