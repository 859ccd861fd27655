"""Kicked torus dynamics, momentum measurement, and plan search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qphase import (
    CatMap,
    TorusState,
    apply_floquet_component,
    measure_momentum,
    plan_kicks,
    reach_state,
)
from qphase import torus
from qphase.errors import QPhaseError, TruncationOverflowError

R2 = np.sqrt(2.0)
moment = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


class TestCatMap:
    def test_default_inverse(self):
        cat = CatMap.default()
        assert cat.apply_inverse((1, 1)) == (0, 1)
        assert cat.apply(cat.apply_inverse((5, -3))) == (5, -3)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            CatMap(((2, 0), (0, 2)))

    def test_rejects_elliptic(self):
        with pytest.raises(ValueError):
            CatMap(((0, -1), (1, 0)))


class TestFloquetComponents:
    def test_cat_kick_relabels(self):
        s = TorusState.eigenstate((1, 1))
        out = apply_floquet_component(s, "U1")
        assert out.support[0][0] == (0, 1)

    def test_translation_lowers_k1(self):
        out = apply_floquet_component(TorusState.eigenstate((0, 0)), "U2")
        assert out.support[0][0] == (-1, 0)

    def test_free_propagation_pure_phase(self):
        s = TorusState.eigenstate((2, -1))
        out = apply_floquet_component(s, "U0", tau=0.8)
        amp = out.support[0][1]
        assert abs(amp - np.exp(-1j * 5 * 0.8 / 2)) < 1e-12

    def test_norm_preserved_on_superposition(self):
        s = TorusState((((0, 0), 0.6), ((1, 2), 0.8j)))
        for which in ("U0", "U1", "U2", "U3"):
            out = apply_floquet_component(s, which)
            assert abs(sum(abs(a) ** 2 for _, a in out.support) - 1.0) < 1e-12

    def test_u1_inverse_is_identity(self):
        s = TorusState((((3, -2), 1 / R2), ((0, 1), 1j / R2)))
        back = apply_floquet_component(apply_floquet_component(s, "U1"), "U1", sign=-1)
        assert back.support == s.support

    def test_truncation_overflow(self):
        s = TorusState.eigenstate((32, 0), radius=32)
        with pytest.raises(TruncationOverflowError):
            apply_floquet_component(s, "U2", sign=-1)


class TestMeasureMomentum:
    def test_eigenstate_certain(self, rng):
        k, post = measure_momentum(TorusState.eigenstate((4, -7)), rng)
        assert k == (4, -7) and post.support[0][0] == (4, -7)

    def test_equal_superposition(self):
        rng = np.random.default_rng(21)
        s = TorusState((((0, 0), 1 / R2), ((1, 0), 1 / R2)))
        hits = sum(measure_momentum(s, rng)[0] == (1, 0) for _ in range(20000))
        assert abs(hits / 20000 - 0.5) < 3 * np.sqrt(0.25 / 20000)

    def test_three_point_born_statistics(self):
        rng = np.random.default_rng(22)
        weights = {(0, 0): 0.5, (1, 2): 0.3, (-3, 1): 0.2}
        s = TorusState(tuple((k, np.sqrt(w)) for k, w in weights.items()))
        n = 100_000
        counts = {k: 0 for k in weights}
        for _ in range(n):
            counts[measure_momentum(s, rng)[0]] += 1
        for k, w in weights.items():
            assert abs(counts[k] / n - w) < 3 * np.sqrt(w * (1 - w) / n)


class TestPlanKicks:
    def test_manhattan_translations(self):
        plan = plan_kicks((0, 0), (2, -1), allow_cat_moves=False)
        assert len(plan) == 3
        assert plan.replay_labels(CatMap.default()) == (2, -1)

    def test_empty_plan(self):
        assert len(plan_kicks((3, 3), (3, 3))) == 0

    def test_single_cat_kick_distance(self):
        plan = plan_kicks((1, 1), (0, 1))
        assert len(plan) == 1

    @given(a=moment, b=moment)
    @settings(max_examples=120, deadline=None)
    def test_replay_reaches_target(self, a, b):
        cat = CatMap.default()
        plan = plan_kicks(a, b, cat)
        assert plan.replay_labels(cat) == b
        assert len(plan) <= abs(b[0] - a[0]) + abs(b[1] - a[1])

    def test_cat_plan_never_longer(self, rng):
        cat = CatMap.default()
        for _ in range(50):
            a = tuple(int(v) for v in rng.integers(-15, 16, 2))
            b = tuple(int(v) for v in rng.integers(-15, 16, 2))
            with_cat = plan_kicks(a, b, cat, allow_cat_moves=True)
            without = plan_kicks(a, b, cat, allow_cat_moves=False)
            assert len(with_cat) <= len(without)

    def test_unreplayable_plan_raises(self, monkeypatch):
        # a search result that misses the target must not be handed out
        monkeypatch.setattr(torus, "_bidirectional_bfs", lambda *args, **kwargs: ["U1"])
        with pytest.raises(QPhaseError, match="replays to"):
            plan_kicks((0, 0), (3, 2))

    def test_deterministic(self):
        p1 = plan_kicks((-7, 12), (4, -9))
        p2 = plan_kicks((-7, 12), (4, -9))
        assert p1.moves() == p2.moves()


class TestReachState:
    def test_already_at_target(self, rng):
        trace, final = reach_state(TorusState.eigenstate((2, 2)), (2, 2), rng=rng)
        assert trace.final_fidelity == 1.0
        assert trace.iterations == 0

    def test_random_superposition_reaches_target(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ks = set()
            while len(ks) < 5:
                ks.add(tuple(int(v) for v in rng.integers(-10, 11, 2)))
            amps = rng.normal(size=5) + 1j * rng.normal(size=5)
            amps /= np.linalg.norm(amps)
            s0 = TorusState(tuple(zip(ks, amps)))
            target = tuple(int(v) for v in rng.integers(-10, 11, 2))
            trace, final = reach_state(s0, target, rng=rng)
            assert trace.final_fidelity == 1.0
            assert final.support[0][0] == target

    def test_target_outside_box(self, rng):
        with pytest.raises(TruncationOverflowError):
            reach_state(TorusState.eigenstate((0, 0)), (99, 0), rng=rng)
