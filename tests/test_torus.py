"""Kicked torus dynamics, momentum measurement, and plan search."""

import functools
from collections import deque

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
from qphase.errors import NormalizationError, ProtocolParameterError, QPhaseError, TruncationOverflowError
from qphase.measurement import draw_branch

R2 = np.sqrt(2.0)
moment = st.tuples(st.integers(-20, 20), st.integers(-20, 20))


class TestTorusState:
    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError):
            TorusState((((0, 0), complex(np.nan, 0.0)),))


@pytest.mark.parametrize("call, error", [
    (lambda: CatMap(((2, 0), (0, 2))), ProtocolParameterError),
    (lambda: CatMap(((0, -1), (1, 0))), ProtocolParameterError),
    (lambda: torus.move_step("U4", (0, 0), CatMap.default()), ProtocolParameterError),
    (lambda: TorusState(()), ProtocolParameterError),
    (lambda: TorusState((((0, 0), 0.5),)), NormalizationError),
    (lambda: apply_floquet_component(TorusState.eigenstate((0, 0)), "U1", sign=2), ProtocolParameterError),
    (lambda: apply_floquet_component(TorusState.eigenstate((0, 0)), "U9"), ProtocolParameterError),
    # int() alone would read the first and the third as ((2, 1), (1, 1)) and (0, 0)
    (lambda: CatMap(((2, 1), (1, 1.5))), ProtocolParameterError),
    (lambda: CatMap(((2, 1, 0), (1, 1, 0), (0, 0, 1))), ProtocolParameterError),
    (lambda: CatMap(5), ProtocolParameterError),  # not iterable
    (lambda: TorusState((((0.5, 0), 1.0),)), ProtocolParameterError),
    (lambda: TorusState((((0, 0), 1 / R2), ((0, 0), 1j / R2))), ProtocolParameterError),
    (lambda: TorusState.eigenstate((0, 0), radius=2.5), ProtocolParameterError),
    (lambda: TorusState.eigenstate((0, 0), radius=True), ProtocolParameterError),
    (lambda: TorusState.eigenstate((0, 0), radius=-1), ProtocolParameterError),
    (lambda: plan_kicks((0, 0), (1, 2), radius=2.5), ProtocolParameterError),
])
def test_rejections_are_typed(call, error):
    # a QPhaseError that is also the ValueError callers caught before
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, ValueError)


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

    def test_default_is_one_shared_instance(self):
        assert CatMap.default() is CatMap.default()
        assert CatMap.default() == CatMap(torus.DEFAULT_CAT)


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
        out = apply_floquet_component(s, "U0")
        amp = out.support[0][1]
        assert abs(amp - np.exp(-1j * 5 / 2)) < 1e-12

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


@pytest.mark.parametrize("cat", [CatMap.default(), CatMap(((3, 2), (1, 1)))])
def test_relabelling_matches_the_checked_constructor(cat):
    """A U1/U2/U3 move skips the label, duplicate and norm checks; its state
    must equal the one ``TorusState`` builds from the moved support."""
    rng = np.random.default_rng(11)
    radius = 6
    for _ in range(40):
        n = int(rng.integers(1, 6))
        labels = {tuple(k) for k in rng.integers(-radius, radius + 1, (n, 2)).tolist()}
        amps = rng.normal(size=len(labels)) + 1j * rng.normal(size=len(labels))
        s = TorusState(tuple(zip(labels, amps / np.linalg.norm(amps))), radius)
        for which in ("U1", "U2", "U3"):
            for sign in (1, -1):
                move = which if sign == 1 else which + "^-1"
                moved = tuple((torus.move_step(move, k, cat), a) for k, a in s.support)
                if any(max(map(abs, k)) > radius for k, _ in moved):
                    with pytest.raises(TruncationOverflowError):
                        apply_floquet_component(s, which, sign, cat)
                    continue
                out = apply_floquet_component(s, which, sign, cat)
                assert out == TorusState(moved, radius)


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

    def test_draw_matches_generator_choice(self):
        # draw_branch is the rule of Generator.choice: same index, same stream state after
        weights = np.array([0.5, 0.0, 0.3, 0.2])
        s = TorusState(tuple(((j, -j), np.sqrt(w)) for j, w in enumerate(weights)))
        ks = [k for k, _ in s.support]
        probs = np.array([abs(a) ** 2 for _, a in s.support])
        probs = probs / probs.sum()
        for seed in range(2000):
            rng, ref, direct = (np.random.default_rng(seed) for _ in range(3))
            k, _ = measure_momentum(s, rng)
            want = int(ref.choice(len(ks), p=probs))
            assert k == ks[want]
            assert draw_branch(probs, direct) == want
            assert rng.bit_generator.state == ref.bit_generator.state == direct.bit_generator.state


class TestNeighbours:
    """The two-copy neighbour table against one scalar ``move_step`` per label and move."""

    @pytest.mark.parametrize("cat", [((2, 1), (1, 1)), ((3, 2), (1, 1)), ((1, 1), (1, 2))])
    @pytest.mark.parametrize("radius", [0, 1, 2, 5, 32])
    def test_matches_the_label_loop(self, cat, radius):
        cat = CatMap(cat)
        side = range(-radius, radius + 1)
        out = 2 * len(side) ** 2
        want = np.full((out, len(torus.MOVES)), out, dtype=np.intp)
        for k in ((k1, k2) for k1 in side for k2 in side):
            for j, move in enumerate(torus.MOVES):
                nxt = torus.move_step(move, k, cat)
                if max(abs(nxt[0]), abs(nxt[1])) <= radius:
                    for copy in (0, 1):  # start copy, target copy
                        want[2 * torus._index(k, radius) + copy, j] = 2 * torus._index(nxt, radius) + copy
        got = torus._neighbours(cat, radius)
        assert got.dtype == want.dtype and np.array_equal(got, want) and not got.flags.writeable
        assert torus._neighbours(CatMap(cat.m), radius) is got


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
        monkeypatch.setattr(torus, "_in_box_moves", lambda *args, **kwargs: ["U1"])
        with pytest.raises(QPhaseError, match="replays to"):
            plan_kicks((0, 0), (3, 2))

    def test_plan_leaving_the_box_raises(self, monkeypatch):
        # the unbounded minimal plan passes through (-4, -3), outside radius 3
        monkeypatch.setattr(torus, "_in_box_moves", lambda *args, **kwargs: ["U2", "U1"])
        with pytest.raises(QPhaseError, match="leaves"):
            plan_kicks((-3, -3), (-1, -2), radius=3)

    @pytest.mark.parametrize("start, target", [((33, 0), (0, 0)), ((0, 0), (0, -33))])
    def test_endpoint_outside_box_raises(self, start, target):
        for allow_cat_moves in (True, False):
            with pytest.raises(TruncationOverflowError):
                plan_kicks(start, target, allow_cat_moves=allow_cat_moves)

    @pytest.mark.parametrize("start, target", [
        ((1.5, 0), (3, 0)), ((0, 0), (3, 0.25)), ((np.nan, 0), (0, 0)), ((0, 0), (np.inf, 0)), (("1", 0), (3, 0)),
        ((0, 0, 0), (3, 0)), ((0, 0), (3,)),
    ])
    def test_non_integral_label_raises(self, start, target):
        # int() alone would truncate 1.5 to 1 and plan from (1, 0)
        with pytest.raises(ProtocolParameterError):
            plan_kicks(start, target)

    def test_integral_floats_and_numpy_integers_are_labels(self):
        plan = plan_kicks((1.0, np.int64(0)), (np.float64(3.0), 0))
        assert plan.steps == plan_kicks((1, 0), (3, 0)).steps

    def test_deterministic(self):
        p1 = plan_kicks((-7, 12), (4, -9))
        p2 = plan_kicks((-7, 12), (4, -9))
        assert p1.steps == p2.steps


def in_box_distances(target, cat, radius) -> dict:
    """Plain breadth-first search over the box: label -> distance to target."""
    dist, queue = {target: 0}, deque([target])
    while queue:
        k = queue.popleft()
        for move in torus.MOVES:
            nxt = torus.move_step(move, k, cat)
            if max(abs(nxt[0]), abs(nxt[1])) <= radius and nxt not in dist:
                dist[nxt] = dist[k] + 1
                queue.append(nxt)
    return dist


@pytest.mark.parametrize("radius", [4, 5])
def test_plans_match_in_box_oracle(radius):
    """Every pair in the box: minimal in-box length, the lexicographically
    first minimal plan, ties to the translation plan, no label outside."""
    cat = CatMap.default()
    side = range(-radius, radius + 1)
    labels = [(k1, k2) for k1 in side for k2 in side]
    rank = {move: i for i, move in enumerate(torus.MOVES)}
    for target in labels:
        dist = in_box_distances(target, cat, radius)
        assert len(dist) == len(labels)
        for start in labels:
            moves = plan_kicks(start, target, cat, radius=radius).steps
            translation = plan_kicks(start, target, cat, allow_cat_moves=False, radius=radius).steps
            assert len(moves) == dist[start]
            if dist[start] == len(translation):
                assert moves == translation
                continue
            k = start
            for move in moves:
                # no move ranked before the chosen one also lies on a minimal path
                for earlier in torus.MOVES[: rank[move]]:
                    alt = torus.move_step(earlier, k, cat)
                    assert dist.get(alt, -1) != dist[k] - 1
                nxt = torus.move_step(move, k, cat)
                assert max(abs(nxt[0]), abs(nxt[1])) <= radius
                assert dist[nxt] == dist[k] - 1
                k = nxt
            assert k == target


@functools.lru_cache(maxsize=4)
def one_copy_table(cat, radius) -> np.ndarray:
    """Row ``_index(k)``: the index of k's neighbour under each move in
    MOVES, or -1 outside the box, one scalar ``move_step`` at a time."""
    side = range(-radius, radius + 1)
    table = np.full((len(side) ** 2, len(torus.MOVES)), -1)
    for k in ((k1, k2) for k1 in side for k2 in side):
        for j, move in enumerate(torus.MOVES):
            nxt = torus.move_step(move, k, cat)
            if max(abs(nxt[0]), abs(nxt[1])) <= radius:
                table[torus._index(k, radius), j] = torus._index(nxt, radius)
    return table


def fancy_index_moves(k_start, k_target, cat, radius) -> list:
    """A one-sided search from the target with fancy indexing, an int64
    level array and a ``>= 0`` filter on its own table's out-of-box
    entries; the walk down takes the first move in MOVES order that lowers
    the distance.  The reference for the two-sided search."""
    table = one_copy_table(cat, radius)
    start, target = torus._index(k_start, radius), torus._index(k_target, radius)
    dist = np.full(len(table), -1)
    dist[target] = 0
    frontier, level = np.array([target]), 0
    while dist[start] < 0:
        level += 1
        reached = table[frontier].ravel()
        reached = reached[reached >= 0]
        dist[reached[dist[reached] < 0]] = level
        frontier = np.flatnonzero(dist == level)
    moves, node = [], start
    while node != target:
        j = next(j for j, nxt in enumerate(table[node]) if nxt >= 0 and dist[nxt] == dist[node] - 1)
        moves.append(torus.MOVES[j])
        node = table[node, j]
    return moves


@pytest.mark.parametrize("cat, radius, n_targets", [
    (((2, 1), (1, 1)), 32, 20), (((3, 1), (2, 1)), 10, 5), (((2, 1), (1, 1)), 1, 3), (((2, 1), (1, 1)), 0, 1),
])
def test_search_matches_reference_at_large_radius(cat, radius, n_targets):
    """Seeded pairs, eleven starts per target, with box corners and edge
    labels (where several moves leave the box) among both and the target
    itself among the starts: the same moves as the reference search, and
    as many as the plain breadth-first distance.  The two sides meet at
    equal labels for an even distance and at labels one apart for an odd
    one; both occur."""
    cat, r = CatMap(cat), radius
    rng = np.random.default_rng(radius)
    boundary = [(r, r), (-r, -r), (r, -r), (-r, r), (r, 3), (-5, -r), (-r, 7), (2, r)]
    boundary = [(max(-r, min(r, k1)), max(-r, min(r, k2))) for k1, k2 in boundary]  # in a small box

    def draw():
        return tuple(int(v) for v in rng.integers(-r, r + 1, 2))

    targets = boundary[:n_targets] + [draw() for _ in range(n_targets - len(boundary))]
    lengths = set()
    for i, target in enumerate(targets):
        dist = in_box_distances(target, cat, r)
        starts = [target, boundary[i % 8], boundary[(i + 3) % 8]] + [draw() for _ in range(8)]
        for start in starts:
            moves = torus._in_box_moves(start, target, cat, r)
            assert moves == fancy_index_moves(start, target, cat, r), (start, target)
            assert len(moves) == dist[start]
            lengths.add(len(moves))
    assert 0 in lengths
    assert r == 0 or {d % 2 for d in lengths} == {0, 1}


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

    def test_unbounded_plan_would_leave_the_box(self, rng):
        # the minimal plan without the box, U2 then U1, passes through (-4, -3)
        s0 = TorusState.eigenstate((-3, -3), radius=3)
        trace, final = reach_state(s0, (-1, -2), rng=rng)
        assert trace.final_fidelity == 1.0
        assert final.support[0][0] == (-1, -2) and final.radius == 3
        assert trace.iterations == len(plan_kicks((-3, -3), (-1, -2), radius=3))

    def test_non_integral_target_raises(self, rng):
        with pytest.raises(ProtocolParameterError):
            reach_state(TorusState.eigenstate((0, 0)), (1.5, 2), rng=rng)

    def test_target_outside_box(self, rng):
        with pytest.raises(TruncationOverflowError):
            reach_state(TorusState.eigenstate((0, 0)), (99, 0), rng=rng)
