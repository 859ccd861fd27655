"""Measurement-plus-evolution steering and middle-level stabilization."""

import numpy as np
import pytest

import qphase.steering
from qphase import (
    Observable,
    PhasePoint,
    StateVector,
    build_frame_3level,
    build_frame_general,
    lie_closure,
    steer,
    stabilize_middle_level,
    to_phase,
)
from qphase.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    FrameSearchError,
    FrameUnnecessaryError,
    MaxIterationsError,
    NormalizationError,
    QPhaseError,
    SteeringLabelError,
)
from qphase.steering import (
    SteeringWord,
    h1_matrix,
    h2_matrix,
    h3_matrix,
    ladder_control,
    ladder_drift,
)

from qphase.rng import stream

from conftest import random_point, random_state, stabilize_reference

R2 = np.sqrt(2.0)
PSI_F = StateVector([1j / R2, 0, 1j / R2])
PSI_1 = StateVector([0, 1, 0])
PSI_2 = StateVector([-1 / R2, 0, 1 / R2])


@pytest.fixture(scope="module")
def ladder_closure():
    return lie_closure([Observable(ladder_drift(1.0)), Observable(ladder_control(1.0))])


class TestSubgroupMatrices:
    def test_h_matrices_are_orthogonal_and_symplectic(self, rng):
        j = np.block(
            [[np.zeros((3, 3)), -np.eye(3)], [np.eye(3), np.zeros((3, 3))]]
        )
        for fam in (h1_matrix, h2_matrix, h3_matrix):
            m = fam(float(rng.uniform(-np.pi, np.pi)))
            assert np.max(np.abs(m.T @ m - np.eye(6))) < 1e-12
            assert np.max(np.abs(m @ j - j @ m)) < 1e-12  # complex-linear

    def test_frame_construction_fixed_points(self):
        xf = to_phase(PSI_F)
        v1 = h1_matrix(-np.pi / 2) @ xf.flat()
        assert np.max(np.abs(v1 - to_phase(PSI_1).flat())) < 1e-12
        v2 = h2_matrix(np.pi / 2) @ v1
        assert np.max(np.abs(v2 - to_phase(PSI_2).flat())) < 1e-12

    def test_h3_equals_drift_evolution(self):
        from scipy.linalg import expm

        from qphase.dynamics import real_block

        mu = 1.4
        for t in (0.1, 1.0, 2.9):
            drift = real_block(expm(-1j * ladder_drift(mu) * t))
            assert np.max(np.abs(drift - h3_matrix(-mu * t))) < 1e-10

    def test_h2_half_weight_kick(self):
        # either extreme level acquires Born weight 1/2 on the middle level
        for level in (0, 2):
            e = np.zeros(6)
            e[level] = 1.0
            v = h2_matrix(np.pi / 2) @ e
            assert v[1] ** 2 + v[4] ** 2 == pytest.approx(0.5, abs=1e-12)


def _h1_literal(theta):
    # element-wise 6x6 literals of the subgroups: a reference for the
    # complex closed forms that h*_matrix reads through real_block
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [(c + 1) / 2, 0, (c - 1) / 2, 0, -s / R2, 0],
            [0, c, 0, -s / R2, 0, -s / R2],
            [(c - 1) / 2, 0, (c + 1) / 2, 0, -s / R2, 0],
            [0, s / R2, 0, (c + 1) / 2, 0, (c - 1) / 2],
            [s / R2, 0, s / R2, 0, c, 0],
            [0, s / R2, 0, (c - 1) / 2, 0, (c + 1) / 2],
        ]
    )


def _h2_literal(theta):
    c, s = np.cos(theta), np.sin(theta)
    r = np.array(
        [
            [(c + 1) / 2, -s / R2, (1 - c) / 2],
            [s / R2, c, -s / R2],
            [(1 - c) / 2, s / R2, (c + 1) / 2],
        ]
    )
    z = np.zeros((3, 3))
    return np.block([[r, z], [z, r]])


def _h3_literal(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c, 0, 0, s, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 0, c, 0, 0, -s],
            [-s, 0, 0, c, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, s, 0, 0, c],
        ]
    )


_LITERALS = {"h1": _h1_literal, "h2": _h2_literal, "h3": _h3_literal}


class TestSubgroupClosedForms:
    """The complex closed forms reproduce the literal matrices exactly."""

    ANGLES = np.concatenate(
        [np.random.default_rng(8).uniform(-10, 10, 500), [0.0, np.pi / 2, -np.pi / 2, np.pi, 2 * np.pi]]
    )

    @pytest.mark.parametrize("family, fn", [("h1", h1_matrix), ("h2", h2_matrix), ("h3", h3_matrix)])
    def test_matrices_equal_the_literals(self, family, fn):
        for theta in self.ANGLES:
            assert np.array_equal(fn(theta), _LITERALS[family](theta))

    def test_words_equal_products_of_the_literals(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            steps = [(f"h{rng.integers(1, 4)}", float(rng.uniform(-5, 5))) for _ in range(rng.integers(1, 6))]
            want = np.eye(3, dtype=complex)
            for family, angle in steps:
                b = _LITERALS[family](angle)
                want = (b[:3, :3] + 1j * b[3:, :3]) @ want
            assert np.array_equal(SteeringWord.from_h_steps(steps).unitary, want)


class TestFrame3Level:
    def test_frame_matches_worked_example(self):
        m = build_frame_3level(PSI_F)
        assert np.max(np.abs(m.frame[0].amplitudes - PSI_1.amplitudes)) < 1e-12
        assert np.max(np.abs(m.frame[1].amplitudes - PSI_2.amplitudes)) < 1e-12
        assert np.max(np.abs(m.frame[2].amplitudes - PSI_F.amplitudes)) < 1e-12

    def test_goal_word_is_empty(self):
        m = build_frame_3level(PSI_F)
        assert m.words[2].steps == ()

    def test_frame_gram_identity(self):
        m = build_frame_3level(PSI_F)
        mat = np.column_stack([f.amplitudes for f in m.frame])
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) < 1e-12

    def test_unnormalized_goal_rejected(self):
        with pytest.raises(NormalizationError):
            build_frame_3level(StateVector([1j, 0, 1j]))

    def test_observable_spectrum(self):
        m = build_frame_3level(PSI_F, eigenvalues=(2.0, 5.0, -1.0))
        assert np.allclose(m.observable().eigenvalues, (-1.0, 2.0, 5.0), atol=1e-12)

    def test_observable_built_once(self):
        m = build_frame_3level(PSI_F)
        assert m.observable() is m.observable()

    @pytest.mark.parametrize(
        "labels",
        [
            (1.0, 2.0),  # too few: the observable would miss a frame vector
            (1.0, 2.0, 3.0, 4.0),
            (1.0, 2.0, 1.0),
            (5.0, 5.0 + 1e-12, 0.0),  # merged into one branch by the observable
            (1.0, float("nan"), 3.0),
        ],
    )
    def test_bad_labels_rejected(self, labels):
        with pytest.raises(SteeringLabelError) as info:
            build_frame_3level(PSI_F, eigenvalues=labels)
        assert isinstance(info.value, QPhaseError)


class TestFrameGeneral:
    def test_recovers_orbit_frame(self, ladder_closure):
        m = build_frame_general(PSI_F, ladder_closure, rng=np.random.default_rng(4))
        mat = np.column_stack([f.amplitudes for f in m.frame])
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) < 1e-10
        for f, w in zip(m.frame, m.words):
            assert w.apply(f).fidelity(m.goal) >= 1 - 1e-9

    def test_controllable_closure_rejected(self):
        full = lie_closure(
            [
                Observable(np.eye(2, dtype=complex)),
                Observable(np.diag([1.0, -1.0])),
                Observable(np.array([[0, 1], [1, 0]], complex)),
            ]
        )
        with pytest.raises(FrameUnnecessaryError):
            build_frame_general(StateVector([1.0, 0]), full)

    def test_zero_budget_fails(self, ladder_closure):
        with pytest.raises(FrameSearchError):
            build_frame_general(PSI_F, ladder_closure, budget=0)

    @pytest.mark.parametrize("goal", [StateVector([1.0, 0.0]), StateVector([0.5, 0.5, 0.5, 0.5])])
    def test_goal_dimension_mismatch_before_search(self, ladder_closure, monkeypatch, goal):
        monkeypatch.setattr(qphase.steering, "least_squares", lambda *a, **k: pytest.fail("search started"))
        with pytest.raises(DimensionMismatchError):
            build_frame_general(goal, ladder_closure)


class TestSteer:
    def test_goal_input_stays(self, ladder_closure):
        m = build_frame_3level(PSI_F)
        for seed in range(20):
            tr = steer(to_phase(PSI_F), m, rng=np.random.default_rng(seed))
            assert tr.final_fidelity >= 1 - 1e-9

    def test_random_inputs_all_reach_goal(self):
        m = build_frame_3level(PSI_F)
        rng = np.random.default_rng(6)
        for _ in range(100):
            tr = steer(random_point(rng, 3), m, rng=rng)
            assert tr.final_fidelity >= 1 - 1e-9

    def test_orthogonal_branch_never_sampled(self):
        m = build_frame_3level(PSI_F)
        # start orthogonal to the first frame state
        x0 = to_phase(StateVector([1 / R2, 0, 1 / R2]))
        rng = np.random.default_rng(7)
        from qphase import branch_probabilities

        probs = branch_probabilities(x0, m.observable())
        branch1 = m.observable().branch_index(m.eigenvalues[0])
        assert probs[branch1] < 1e-15
        for _ in range(2000):
            tr = steer(x0, m, rng=rng)
            assert tr.steps[0].detail["value"] != pytest.approx(m.eigenvalues[0])

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        for labels in ((1.0, 2.0, 3.0), (7.5, -2.0, 0.25), (-1.0, 4.0, 2.5)):
            m = build_frame_3level(PSI_F, eigenvalues=labels)
            for _ in range(30):
                tr = steer(random_point(rng, 3), m, rng=rng)
                assert tr.final_fidelity >= 1 - 1e-9

    def test_trace_exports_json_lines(self):
        import json

        m = build_frame_3level(PSI_F)
        tr = steer(to_phase(PSI_1), m, rng=np.random.default_rng(9))
        lines = tr.to_json_lines().strip().split("\n")
        assert len(lines) == len(tr.steps)
        for line in lines:
            assert "action" in json.loads(line)


class TestStabilize:
    def test_matches_the_phase_point_reference_exactly(self):
        gen = np.random.default_rng(21)
        for seed in range(12):
            x0 = random_point(gen, 3) if seed % 3 else to_phase(StateVector([0, 0, np.exp(0.3j)]))
            kwargs = dict(mu=float(gen.uniform(0.5, 2.0)), disturbance=0.1, n_periods=80)
            tr = stabilize_middle_level(x0, rng=stream(seed, 3), **kwargs)
            steps, fidelity, cycles, occupancy = stabilize_reference(x0, rng=stream(seed, 3), **kwargs)
            assert (tr.final_fidelity, tr.iterations, tr.occupancy) == (fidelity, cycles, occupancy)
            assert len(tr.steps) == len(steps)
            for got, (action, detail, state) in zip(tr.steps, steps):
                assert (got.action, got.detail) == (action, detail)
                assert got.state.q.tolist() == state.q.tolist() and got.state.p.tolist() == state.p.tolist()

    @pytest.mark.parametrize("start, kwargs", [
        pytest.param("extreme", dict(mu=-1.3, disturbance=0.1, n_periods=300), id="negative-mu-extreme"),
        pytest.param("general", dict(mu=-0.7, disturbance=0.2, n_periods=200), id="negative-mu-general"),
        pytest.param("general", dict(mu=0.8, disturbance=0.0, n_periods=200), id="never-disturbed"),
        pytest.param("general", dict(mu=1.7, disturbance=1.0, n_periods=200), id="always-disturbed"),
        pytest.param("middle", dict(mu=1.0, disturbance=0.0, n_periods=2000), id="middle-phase-2000-periods"),
        pytest.param("middle", dict(mu=1.2, disturbance=0.05, n_periods=300), id="middle-phase"),
        pytest.param("general", dict(mu=0.6, disturbance=0.02, n_periods=2000), id="general-2000-periods"),
    ])
    def test_certain_outcome_loop_matches_the_reference(self, start, kwargs):
        gen = np.random.default_rng(44)
        for seed in range(12):
            x0 = {
                "extreme": to_phase(StateVector([np.exp(1.1j), 0, 0])),
                "middle": to_phase(StateVector([0, np.exp(gen.uniform(0.0, 2.0 * np.pi) * 1j), 0])),
                "general": random_point(gen, 3),
            }[start]
            tr = stabilize_middle_level(x0, rng=stream(seed, 7), **kwargs)
            steps, fidelity, cycles, occupancy = stabilize_reference(x0, rng=stream(seed, 7), **kwargs)
            assert (tr.final_fidelity, tr.iterations, tr.occupancy) == (fidelity, cycles, occupancy)
            assert [(st.action, st.detail) for st in tr.steps] == [(a, d) for a, d, _ in steps]
            for got, (_, _, state) in zip(tr.steps, steps):
                assert got.state.q.tobytes() == state.q.tobytes() and got.state.p.tobytes() == state.p.tobytes()

    @pytest.mark.parametrize("mu", [0.5, 1.0, 1.3, 2.0, -1.0, -0.37, 1e-8, 7.7, 3e150])
    def test_ladder_eigenvectors_are_exact_unit_vectors(self, mu):
        # the certain-outcome loop relies on this: a level state has Born odds exactly one-hot
        obs = Observable(ladder_drift(mu))
        basis = np.hstack([obs.eigenspace_basis(a) for a in obs.eigenvalues])
        levels = [0, 1, 2] if mu > 0 else [2, 1, 0]
        assert basis.tobytes() == np.eye(3, dtype=complex)[:, levels].tobytes()

    def test_renormalization_rounds_as_collapse(self):
        # pins numpy's rounding of complex division by a real norm, which the loop reproduces
        rng = np.random.default_rng(45)
        n = 100_000
        phases = np.exp(rng.uniform(0.0, 2.0 * np.pi, n) * 1j) * (1.0 + rng.uniform(-4e-16, 4e-16, n))
        obs = Observable(ladder_drift(1.0))
        for level in range(3):
            for z in phases.tolist():
                want = qphase.steering.collapse(qphase.steering._level_state(level, z), obs, level)
                assert want.tobytes() == qphase.steering._level_state(level, qphase.steering._renormalized(z)).tobytes()

    def test_middle_level_terminates_immediately(self):
        tr = stabilize_middle_level(to_phase(PSI_1), rng=np.random.default_rng(1))
        assert tr.iterations == 0 and tr.final_fidelity == pytest.approx(1.0)

    def test_extreme_level_geometric_counts(self):
        rng = np.random.default_rng(12)
        x0 = to_phase(StateVector([1.0, 0, 0]))
        counts = [stabilize_middle_level(x0, rng=rng).iterations for _ in range(3000)]
        counts = np.asarray(counts)
        assert counts.min() >= 1
        # geometric with p = 1/2: mean 2, P(1) = 1/2
        assert abs(counts.mean() - 2.0) < 0.15
        assert abs(np.mean(counts == 1) - 0.5) < 0.03

    def test_unnormalized_state_rejected(self):
        with pytest.raises(NormalizationError):
            stabilize_middle_level(PhasePoint([1.0, 1.0, 0.0], [0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("mu", [0.0, 1e-10, -1e-9])
    def test_degenerate_drift_rejected(self, mu):
        # every level would read as the middle one: occupancy 1 at fidelity 0
        with pytest.raises(DegenerateBasisError):
            stabilize_middle_level(to_phase(StateVector([1.0, 0, 0])), mu=mu, disturbance=0.1, n_periods=50)

    def test_iteration_cap(self):
        # an extreme level is never the middle one, and no kick is allowed
        with pytest.raises(MaxIterationsError):
            stabilize_middle_level(to_phase(StateVector([1.0, 0, 0])), max_iters=0)

    def test_disturbed_occupancy_stays_high(self):
        tr = stabilize_middle_level(
            to_phase(PSI_1),
            disturbance=0.01,
            n_periods=1000,
            rng=np.random.default_rng(13),
        )
        assert tr.occupancy is not None and tr.occupancy >= 0.95
