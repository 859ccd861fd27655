"""Measurement-plus-evolution steering and middle-level stabilization."""

import numpy as np
import pytest
from scipy.linalg import block_diag

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
    ProtocolParameterError,
    QPhaseError,
    SteeringLabelError,
)
from qphase.controllability import VERDICT_NOT
from qphase.steering import (
    SteeringObservable,
    SteeringWord,
    h1_matrix,
    h2_matrix,
    h3_matrix,
    ladder_control,
    ladder_drift,
)

from qphase.measurement import born_weights, collapse, select_branches
from qphase.rng import stream

from conftest import random_hermitian, random_point, random_state, stabilize_reference

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

        from qphase.geometry import real_block

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

    def test_frame_is_checked_before_labels(self):
        m = build_frame_3level(PSI_F)
        with pytest.raises(FrameSearchError):
            SteeringObservable((1.0, 1.0, 3.0), (m.frame[0], m.frame[0], m.frame[2]), m.words, m.goal)

    def test_repeated_labels_on_a_partial_frame(self):
        """Two frame vectors in C^3 leave a branch at 0, so the branch count alone would not see (1, 1)."""
        m = build_frame_3level(PSI_F)
        with pytest.raises(SteeringLabelError):
            SteeringObservable((1.0, 1.0), m.frame[:2], m.words[:2], m.goal)


class TestFrameGeneral:
    def test_recovers_orbit_frame(self, ladder_closure):
        m = build_frame_general(PSI_F, ladder_closure, rng=np.random.default_rng(4))
        mat = np.column_stack([f.amplitudes for f in m.frame])
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) < 1e-10
        for f, w in zip(m.frame, m.words):
            assert w.apply(f).fidelity(m.goal) >= 1 - 1e-9

    def test_closure_word_describes_its_coefficients(self, ladder_closure):
        coeffs = np.linspace(-0.5, 0.5, ladder_closure.dimension)
        word = SteeringWord.from_closure(ladder_closure, coeffs)
        assert word.describe() == [{"family": "closure", "coefficients": coeffs.tolist()}]

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

    def test_dimension_zero_closure_fails_without_search(self, monkeypatch):
        monkeypatch.setattr(qphase.steering, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        with pytest.raises(FrameSearchError):
            build_frame_general(PSI_F, lie_closure([Observable(np.zeros((3, 3)))]))

    @pytest.mark.parametrize("goal", [StateVector([1.0, 0.0]), StateVector([0.5, 0.5, 0.5, 0.5])])
    def test_goal_dimension_mismatch_before_search(self, ladder_closure, monkeypatch, goal):
        monkeypatch.setattr(qphase.steering, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        with pytest.raises(DimensionMismatchError):
            build_frame_general(goal, ladder_closure)

    def test_non_finite_goal_raises_before_search(self, ladder_closure, monkeypatch):
        monkeypatch.setattr(qphase.steering, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        with pytest.raises(NormalizationError):
            build_frame_general(StateVector([np.nan, 0.0, 1.0]), ladder_closure)


    @pytest.mark.parametrize("seed", range(3))
    def test_block_diagonal_frame_at_population_half(self, seed):
        rng = np.random.default_rng(seed)
        closure = lie_closure([Observable(block_diag(random_hermitian(rng, 2), random_hermitian(rng, 2)))
                               for _ in range(2)])
        assert (closure.verdict, closure.dimension) == (VERDICT_NOT, 8)
        goal = StateVector(np.concatenate([random_state(rng, 2).amplitudes, random_state(rng, 2).amplitudes]) / R2)
        m = build_frame_general(goal, closure, rng=np.random.default_rng(seed))
        mat = np.column_stack([f.amplitudes for f in m.frame])
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(4))) < 1e-10
        for f, w in zip(m.frame, m.words):
            assert w.apply(f).fidelity(goal) >= 1 - 1e-9

    @pytest.mark.parametrize("budget", [True, -1, np.nan, 100.0, "100"])
    def test_invalid_budget_raises_before_search(self, ladder_closure, monkeypatch, budget):
        monkeypatch.setattr(qphase.steering, "_orbit_search", lambda *a, **k: pytest.fail("search started"))
        with pytest.raises(ProtocolParameterError, match="budget"):
            build_frame_general(PSI_F, ladder_closure, budget=budget)


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
            tr = stabilize_middle_level(x0, rng=stream(seed, 3), record_steps=True, **kwargs)
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
            tr = stabilize_middle_level(x0, rng=stream(seed, 7), record_steps=True, **kwargs)
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
                want = collapse(qphase.steering._level_state(level, z), obs, level)
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

    @pytest.mark.parametrize("q", [[np.nan, 0.0, 0.0], [0.0, 1.0, np.nan]])
    def test_nan_state_rejected(self, q):
        with pytest.raises(NormalizationError):
            stabilize_middle_level(PhasePoint(q, [0.0, 0.0, 0.0]), disturbance=0.5, n_periods=10)

    def test_born_odds_are_memoised_within_a_call(self, monkeypatch):
        # the benchmark's stabilize shape; after a disturbance the state is (level, 1+0j), so each
        # re-acquisition replays amplitude lists whose odds the call has already computed
        calls = [0]
        drift_cdf = qphase.steering._drift_cdf

        def counted(amps, levels):
            calls[0] += 1
            return drift_cdf(amps, levels)

        monkeypatch.setattr(qphase.steering, "_drift_cdf", counted)
        gen = np.random.default_rng(31)
        odds = measured = 0
        for seed in range(2):
            x0 = to_phase(StateVector(np.eye(3)[gen.choice([0, 2])] * np.exp(gen.uniform(0.0, 2.0 * np.pi) * 1j)))
            kwargs = dict(mu=float(gen.uniform(0.5, 2.0)), disturbance=0.05, n_periods=500)
            for k in range(20):
                before = calls[0]
                quiet = stabilize_middle_level(x0, rng=stream(seed, k), **kwargs)
                odds += calls[0] - before
                full = stabilize_middle_level(x0, rng=stream(seed, k), record_steps=True, **kwargs)
                measured += sum(st.action == "measure" for st in full.steps)
                assert (quiet.final_fidelity, quiet.iterations, quiet.occupancy) == (
                    full.final_fidelity, full.iterations, full.occupancy)
        assert 0 < odds <= measured / 4, f"{odds} Born odds computed for {measured} measurements"

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_non_three_level_state_rejected(self, n):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(DimensionMismatchError):
            stabilize_middle_level(to_phase(StateVector(np.eye(n)[0])), rng=rng, disturbance=0.1, n_periods=5)
        assert rng.bit_generator.state == before

    def test_first_measurement_matches_numpy(self):
        # a general x0 is measured by the same scalar odds and renormalisation as a kicked state
        gen = np.random.default_rng(51)
        n = 20_000
        psis = gen.normal(size=(n, 3)) + 1j * gen.normal(size=(n, 3))
        psis[1::3] = psis[1::3].real  # real states
        psis[2::3][gen.random(size=(len(psis[2::3]), 3)) < 0.4] = 0.0  # sparse states
        psis[np.all(psis == 0.0, axis=1), 1] = 1.0
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        ladders = [qphase.steering._ladder_stabilizer(mu) for mu in (1.3, -0.8)]
        for k, psi in enumerate(psis):
            obs, _, levels, _ = ladders[k % 2]
            amps = psi.tolist()
            edges = qphase.steering._drift_cdf(amps, levels)
            uniforms = [0.0, gen.random(), *np.nextafter(edges, 0.0).tolist(), *edges, *np.nextafter(edges, 1.0).tolist()]
            uniforms = [u for u in uniforms if 0.0 <= u < 1.0]
            branches = [(edges[0] <= u) + (edges[1] <= u) for u in uniforms]
            assert branches == select_branches(born_weights(psi, obs), uniforms).tolist()
            for branch in set(branches):
                level = levels[branch]
                got = qphase.steering._level_state(level, qphase.steering._renormalized(amps[level]))
                assert got.tobytes() == collapse(psi, obs, branch).tobytes()

    @pytest.mark.parametrize("mu", [0.0, 1e-10, -1e-9])
    def test_degenerate_drift_rejected(self, mu):
        # every level would read as the middle one: occupancy 1 at fidelity 0
        with pytest.raises(DegenerateBasisError):
            stabilize_middle_level(to_phase(StateVector([1.0, 0, 0])), mu=mu, disturbance=0.1, n_periods=50)

    def test_iteration_cap(self, monkeypatch):
        # an extreme level is never the middle one, and no kick is allowed
        monkeypatch.setattr(qphase.steering, "_MAX_KICKS", 0)
        with pytest.raises(MaxIterationsError, match="in 0 cycles"):
            stabilize_middle_level(to_phase(StateVector([1.0, 0, 0])))

    def test_disturbed_occupancy_stays_high(self):
        tr = stabilize_middle_level(
            to_phase(PSI_1),
            disturbance=0.01,
            n_periods=1000,
            rng=np.random.default_rng(13),
        )
        assert tr.occupancy is not None and tr.occupancy >= 0.95

    def test_steps_are_opt_in(self):
        gen = np.random.default_rng(48)
        for seed in range(6):
            x0 = random_point(gen, 3)
            kwargs = dict(mu=float(gen.uniform(0.5, 2.0)), disturbance=0.2, n_periods=100)
            quiet = stabilize_middle_level(x0, rng=stream(seed, 2), **kwargs)
            full = stabilize_middle_level(x0, rng=stream(seed, 2), record_steps=True, **kwargs)
            assert quiet.steps == () and len(full.steps) > 0
            assert (quiet.final_fidelity, quiet.iterations, quiet.occupancy) == (
                full.final_fidelity, full.iterations, full.occupancy)

    @pytest.mark.parametrize("kwargs", [
        dict(disturbance=float("nan"), n_periods=10),
        dict(disturbance=1.7, n_periods=10),
        dict(disturbance=-0.3, n_periods=10),
        dict(disturbance="often", n_periods=10),
        dict(disturbance=True, n_periods=10),
        dict(disturbance=0.1, n_periods=-5),
        dict(disturbance=0.1, n_periods=2.5),
        dict(disturbance=0.1, n_periods=True),
    ])
    def test_invalid_arguments_rejected(self, kwargs):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with pytest.raises(ProtocolParameterError):
            stabilize_middle_level(to_phase(PSI_1), rng=rng, **kwargs)
        assert rng.bit_generator.state == before
        assert issubclass(ProtocolParameterError, QPhaseError)

    def test_generator_without_64_bit_words_rejected(self):
        # MT19937 builds random() from two 32-bit outputs, which the block reads do not follow
        with pytest.raises(ProtocolParameterError, match="MT19937"):
            stabilize_middle_level(to_phase(PSI_1), rng=np.random.Generator(np.random.MT19937(1)))

    @pytest.mark.parametrize("make", [lambda k: stream(2**64 - 1, k), np.random.default_rng], ids=["philox", "pcg64"])
    def test_generator_ends_where_the_reference_leaves_it(self, make, monkeypatch):
        gen = np.random.default_rng(49)
        raised = 0
        for case in range(16):
            x0 = random_point(gen, 3) if case % 4 else to_phase(StateVector([0, 0, np.exp(2.0j)]))
            kwargs = dict(mu=float(gen.uniform(-2.0, 2.0)), disturbance=float(gen.uniform(0.0, 0.6)),
                          n_periods=int(gen.integers(0, 300)))
            cap = int(gen.integers(0, 3)) if case % 3 == 0 else 10_000
            monkeypatch.setattr(qphase.steering, "_MAX_KICKS", cap)
            rng, ref = make(case), make(case)
            if case % 2:  # start with a half of a word held by an earlier integers() call
                rng.integers(0, 3), ref.integers(0, 3)
            try:
                got = stabilize_middle_level(x0, rng=rng, **kwargs)
            except MaxIterationsError:
                got = None
            try:
                _, fidelity, cycles, occupancy = stabilize_reference(x0, rng=ref, max_iters=cap, **kwargs)
                want = (fidelity, cycles, occupancy)
            except MaxIterationsError:
                want = None
            assert (got and (got.final_fidelity, got.iterations, got.occupancy)) == want
            raised += want is None
            assert _state(rng) == _state(ref)
            assert (rng.integers(0, 3), rng.random()) == (ref.integers(0, 3), ref.random())
        assert 0 < raised < 16

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    @pytest.mark.parametrize("make", [lambda k: stream(7, k), np.random.default_rng], ids=["philox", "pcg64"])
    def test_bulk_skip_matches_the_reference_across_block_edges(self, monkeypatch, make, block):
        # small blocks make quiet runs straddle block edges
        monkeypatch.setattr(qphase.steering, "_MAX_BLOCK", block)
        gen = np.random.default_rng(53 + block)

        def prepared(case):
            g = make(case)
            if case % 2:  # a half of a word held by an earlier integers() call
                g.integers(0, 3)
            return g

        for case, disturbance in enumerate([0.0, 1e-4, 0.05, 0.5, 1.0, "edge"]):
            n_periods = 20_000 if (case, block) == (1, 64) else int(gen.integers(1, 400))
            x0 = random_point(gen, 3)
            if disturbance == "edge":
                # x0 on the middle level spends one word, so period k tests the uniform of word 1 + 2k; the
                # least of the first 40 is undisturbed at the strict <, and no period before it is disturbed
                x0 = to_phase(StateVector([0, np.exp(gen.uniform(0.0, 2.0 * np.pi) * 1j), 0]))
                words = prepared(case).bit_generator.random_raw(80)[1::2]
                disturbance = float(np.min((words >> 11) * 2.0**-53))
                n_periods = max(n_periods, 40)
            rng, ref = prepared(case), prepared(case)
            got = stabilize_middle_level(x0, disturbance=disturbance, n_periods=n_periods, rng=rng, record_steps=True)
            steps, fidelity, cycles, occupancy = stabilize_reference(x0, disturbance=disturbance, n_periods=n_periods, rng=ref)
            assert (got.final_fidelity, got.iterations, got.occupancy) == (fidelity, cycles, occupancy)
            assert [(st.action, st.detail) for st in got.steps] == [(a, d) for a, d, _ in steps]
            for st, (_, _, state) in zip(got.steps, steps):
                assert st.state.q.tobytes() == state.q.tobytes() and st.state.p.tobytes() == state.p.tobytes()
            assert _state(rng) == _state(ref)
            assert (rng.integers(0, 3), rng.random()) == (ref.integers(0, 3), ref.random())

    def test_bulk_renormalization_equals_repeated_scalar_steps(self):
        gen = np.random.default_rng(54)
        n = 20_000
        special = [1.0 + 0j, -1.0 + 0j, 1j, -1j, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0),
                   complex(-0.0, -1.0), complex(-1.0, 0.0), complex(0.0, -1.0)]
        phases = np.exp(gen.uniform(0.0, 2.0 * np.pi, n) * 1j)
        phases[::2] *= 1.0 + gen.uniform(-4e-16, 4e-16, n // 2)  # off the unit circle by an ulp or two
        phases = special + phases.tolist()
        chains = []
        for z in phases:
            chain = [z]
            for _ in range(8):
                chain.append(qphase.steering._renormalized(chain[-1]))
            chains.append(chain)
        for m in range(9):
            got = [qphase.steering._renormalized_times(z, m) for z in phases]
            assert np.array(got).tobytes() == np.array([chain[m] for chain in chains]).tobytes()
        # 501 and 502 steps by the same arithmetic on arrays, checked against the scalar chains first
        re, im = np.array([z.real for z in phases]), np.array([z.imag for z in phases])
        for m in range(1, 503):
            s = 1.0 / np.sqrt(re * re + im * im)
            re, im = re * s, im * s
            if m <= 8:
                assert re.tobytes() == np.array([chain[m].real for chain in chains]).tobytes()
                assert im.tobytes() == np.array([chain[m].imag for chain in chains]).tobytes()
            if m in (501, 502):
                got = np.array([qphase.steering._renormalized_times(z, m) for z in phases])
                assert got.real.tobytes() == re.tobytes() and got.imag.tobytes() == im.tobytes()
        # the sample holds phases that end on a fixed point and phases that end in a 2-cycle
        fixed = sum(_bits(chain[8]) == _bits(chain[7]) for chain in chains)
        cycles = sum(_bits(chain[8]) == _bits(chain[6]) != _bits(chain[7]) for chain in chains)
        assert fixed > 0 and cycles > 0 and fixed + cycles == len(chains)

    def test_scalar_kick_and_odds_match_numpy(self):
        gen = np.random.default_rng(50)
        n = 100_000
        special = [1.0, -1.0, 1j, -1j, complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0), complex(-0.0, -1.0)]
        phases = special + (np.exp(gen.uniform(0.0, 2.0 * np.pi, n - len(special)) * 1j)).tolist()
        ladders = [qphase.steering._ladder_stabilizer(mu) for mu in (1.3, -0.8)]
        for k, z in enumerate(phases):
            obs, kick, levels, columns = ladders[k % 2]
            level = k % 3
            psi = kick.unitary @ qphase.steering._level_state(level, z)
            amps = qphase.steering._kicked(columns[level], z)
            assert np.array(amps).tobytes() == psi.tobytes()
            edges = qphase.steering._drift_cdf(amps, levels)
            uniforms = [0.0, gen.random(), *np.nextafter(edges, 0.0).tolist(), *edges, *np.nextafter(edges, 1.0).tolist()]
            want = select_branches(born_weights(psi, obs), uniforms).tolist()
            assert [(edges[0] <= u) + (edges[1] <= u) for u in uniforms] == want

    def test_scalar_odds_of_a_level_state_are_certain(self):
        for mu in (1.3, -0.8):
            obs, _, levels, _ = qphase.steering._ladder_stabilizer(mu)
            for level in range(3):
                psi = qphase.steering._level_state(level, np.exp(0.4j))
                amps = psi.tolist()
                d0, d1 = qphase.steering._drift_cdf(amps, levels)
                for u in (0.0, 0.5, float(np.nextafter(1.0, 0.0))):
                    branch = (d0 <= u) + (d1 <= u)
                    assert levels[branch] == level == levels[int(select_branches(born_weights(psi, obs), u))]


def _bits(z: complex) -> bytes:
    """``z``'s two doubles as bytes, which tell -0.0 from 0.0."""
    return np.array([z.real, z.imag]).tobytes()


def _state(rng) -> dict:
    """A bit generator's state with its arrays as lists, comparable with ``==``."""
    def plain(node):
        if isinstance(node, dict):
            return {key: plain(value) for key, value in node.items()}
        return node.tolist() if isinstance(node, np.ndarray) else node
    return plain(rng.bit_generator.state)


class TestRawDraws:
    """Block reads of raw words against the scalar ``random()`` and ``integers(0, 3)`` calls."""

    @pytest.mark.parametrize("make", [
        lambda: stream(2**63 + 5, 9),
        lambda: stream(3, 0),
        lambda: np.random.default_rng(31),
        lambda: np.random.Generator(np.random.PCG64DXSM(32)),
        lambda: np.random.Generator(np.random.SFC64(33)),
    ], ids=["philox-high-seed", "philox", "pcg64", "pcg64dxsm", "sfc64"])
    @pytest.mark.parametrize("held", [False, True], ids=["no-half-held", "half-held"])
    @pytest.mark.parametrize("size", [3, 64, 5000])
    def test_mixed_draws_match_the_generator(self, make, held, size):
        plan = np.random.default_rng(size + 2 * held)
        rng, ref = make(), make()
        if held:
            rng.integers(0, 3), ref.integers(0, 3)
        draws = qphase.steering._RawDraws(rng, size)
        for op in plan.integers(0, 2, 8000).tolist():
            if op:
                assert draws.level() == ref.integers(0, 3)
            else:
                assert draws.uniform() == ref.random()
        draws.close()
        assert _state(rng) == _state(ref)
        assert (rng.integers(0, 3), rng.random()) == (ref.integers(0, 3), ref.random())

    @pytest.mark.parametrize("make", [lambda: stream(11, 4), lambda: np.random.default_rng(12)], ids=["philox", "pcg64"])
    def test_a_zero_half_is_drawn_again(self, make):
        # the one rejected 32-bit value of the integers(0, 3) draw
        rng, ref = make(), make()
        for g in (rng, ref):
            state = g.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            g.bit_generator.state = state
        draws = qphase.steering._RawDraws(rng, 4)
        assert [draws.level() for _ in range(5)] == [int(ref.integers(0, 3)) for _ in range(5)]
        draws.close()
        assert _state(rng) == _state(ref)
