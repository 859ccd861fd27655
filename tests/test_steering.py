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
    from_phase,
    lie_closure,
    measure_selective,
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

from conftest import random_point, random_state

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


def stabilize_reference(x0, mu=1.0, disturbance=None, n_periods=0, max_iters=10_000, rng=None):
    """Phase-point reference for ``stabilize_middle_level``: one
    ``measure_selective`` call (``Generator.choice``) per measurement."""
    obs = Observable(ladder_drift(mu))
    kick = SteeringWord.from_h_steps((("h2", np.pi / 2),))
    steps = []

    def acquire(state):
        cycles = 0
        while True:
            out = measure_selective(state, obs, rng)
            steps.append(("measure", {"value": out.value}, out.post_state))
            state = out.post_state
            if abs(out.value) < 1e-12:
                return state, cycles
            if cycles >= max_iters:
                raise MaxIterationsError("cap")
            state = to_phase(kick.apply(from_phase(state)))
            steps.append(("evolve", {"word": kick.describe()}, state))
            cycles += 1

    state, cycles = acquire(x0)
    occupancy = None
    if disturbance is not None and n_periods > 0:
        hits = 0
        for _ in range(n_periods):
            if rng.random() < disturbance:
                level = int(rng.integers(0, 3))
                amps = np.zeros(3, dtype=complex)
                amps[level] = 1.0
                state = PhasePoint(amps.real, amps.imag)
                steps.append(("disturb", {"level": level}, state))
            out = measure_selective(state, obs, rng)
            state = out.post_state
            if abs(out.value) < 1e-12:
                hits += 1
            else:
                state, _ = acquire(state)
        occupancy = hits / n_periods
    return steps, from_phase(state).fidelity(PSI_1), cycles, occupancy


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
