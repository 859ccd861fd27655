"""Controlled kicked dynamics on the 2-torus in a truncated momentum basis.

States are sparse maps from integer momentum pairs to amplitudes.  The
Floquet components are: free propagation (a pure phase per momentum), a
hyperbolic cat-map relabeling of the momentum lattice, and two unit
translations of the momentum components.  Plans are integer-exact move
sequences, inside the truncation box, from a measured momentum to a target
eigenstate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ProtocolParameterError, QPhaseError, TruncationOverflowError
from .geometry import PhasePoint
from .measurement import draw_branch
from .rng import _index as _count
from .steering import ProtocolStep, ProtocolTrace

DEFAULT_CAT = ((2, 1), (1, 1))
DEFAULT_RADIUS = 32

# lexicographic move order used for deterministic tie-breaking
MOVES = ("U2^-1", "U2", "U3^-1", "U3", "U1^-1", "U1")


@dataclass(frozen=True)
class CatMap:
    """Integer 2x2 hyperbolic matrix with determinant one."""

    m: tuple

    def __post_init__(self):
        try:
            rows = tuple(self.m)
        except TypeError:
            rows = ()
        m = tuple(_label(row, "cat map row") for row in rows)
        if len(m) != 2:
            raise ProtocolParameterError(f"cat map {self.m!r} is not a 2x2 integer matrix")
        (a, b), (c, d) = m
        if a * d - b * c != 1:
            raise ProtocolParameterError("cat map must have determinant 1")
        if abs(a + d) <= 2:
            raise ProtocolParameterError("cat map must be hyperbolic (|trace| > 2)")
        object.__setattr__(self, "m", m)

    def apply(self, k) -> tuple:
        (a, b), (c, d) = self.m
        return (a * k[0] + b * k[1], c * k[0] + d * k[1])

    def apply_inverse(self, k) -> tuple:
        (a, b), (c, d) = self.m  # adjugate; det = 1
        return (d * k[0] - b * k[1], -c * k[0] + a * k[1])

    @classmethod
    def default(cls) -> "CatMap":
        """The map of ``DEFAULT_CAT``, one shared instance."""
        return _DEFAULT_CAT_MAP


def _label(k, what: str = "momentum label") -> tuple:
    """A pair of ints; anything else, a non-integral entry included, raises.

    Integral floats and NumPy integers are accepted; ``int()`` alone would
    truncate 1.5 to 1.
    """
    try:
        items = tuple(k)
        label = tuple(int(x) for x in items)
        integral = label == items and len(label) == 2
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ProtocolParameterError(f"{what} {k!r} is not a pair of integers")
    return label


_DEFAULT_CAT_MAP = CatMap(DEFAULT_CAT)


def _outside(k, radius: int) -> bool:
    return max(abs(k[0]), abs(k[1])) > radius


def move_step(move: str, k: tuple, cat: CatMap) -> tuple:
    """Apply one plan move to a momentum label, or elementwise to a pair of label arrays."""
    if move == "U1":
        return cat.apply_inverse(k)
    if move == "U1^-1":
        return cat.apply(k)
    if move == "U2":
        return (k[0] - 1, k[1])
    if move == "U2^-1":
        return (k[0] + 1, k[1])
    if move == "U3":
        return (k[0], k[1] - 1)
    if move == "U3^-1":
        return (k[0], k[1] + 1)
    raise ProtocolParameterError(f"unknown move {move!r}")


@dataclass(frozen=True)
class TorusState:
    """Sparse normalized superposition of momentum eigenstates."""

    support: tuple  # ((k1, k2), complex amplitude) pairs
    radius: int = DEFAULT_RADIUS

    def __post_init__(self):
        radius = _count(self.radius, "box radius")
        amplitudes = {}
        for k, a in self.support:
            k = _label(k)
            if k in amplitudes:
                raise ProtocolParameterError(f"momentum {k} appears twice in the support")
            amplitudes[k] = complex(a)
        items = tuple(sorted(amplitudes.items()))  # labels are distinct: no amplitudes are compared
        if not items:
            raise ProtocolParameterError("state must have non-empty support")
        for k, _ in items:
            if _outside(k, radius):
                raise TruncationOverflowError(f"momentum {k} outside |k_i| <= {radius}")
        nrm = np.sqrt(sum(abs(a) ** 2 for _, a in items))
        if not abs(nrm - 1.0) <= 1e-12:
            raise NormalizationError("state must be normalized within 1e-12")
        object.__setattr__(self, "support", items)
        object.__setattr__(self, "radius", radius)

    @classmethod
    def eigenstate(cls, k, radius: int = DEFAULT_RADIUS) -> "TorusState":
        return cls(((tuple(k), 1.0 + 0.0j),), radius)

    @classmethod
    def _relabelled(cls, s: "TorusState", move: str, cat: CatMap) -> "TorusState":
        """``s`` with every label sent through ``move``, each checked against the box.

        A move is a bijection of integer labels that keeps the amplitudes, so
        the labels of a valid state stay distinct pairs of ints and the norm
        stays 1: only the box check and the sort of ``__post_init__`` remain.
        """
        relabelled = []
        for k, a in s.support:
            k2 = move_step(move, k, cat)
            if _outside(k2, s.radius):
                raise TruncationOverflowError(f"{move} sends {k} to {k2}, outside the box")
            relabelled.append((k2, a))
        out = object.__new__(cls)
        object.__setattr__(out, "support", tuple(sorted(relabelled)))  # labels are distinct
        object.__setattr__(out, "radius", s.radius)
        return out


def apply_floquet_component(
    s: TorusState,
    which: str,
    sign: int = 1,
    cat: CatMap | None = None,
) -> TorusState:
    """One Floquet factor: 'U0' free phase, 'U1' cat kick, 'U2'/'U3' shifts.

    'U0' is the free evolution over one period, the phase ``exp(-i |k|^2 / 2)``
    on label k.  sign -1 applies the inverse factor.  Relabelings that would
    leave the truncation box raise rather than clip.
    """
    if sign not in (1, -1):
        raise ProtocolParameterError("sign must be +1 or -1")
    if which == "U0":
        items = tuple(
            (k, a * np.exp(-1j * sign * (k[0] ** 2 + k[1] ** 2) / 2))
            for k, a in s.support
        )
        return TorusState(items, s.radius)
    if which in ("U1", "U2", "U3"):
        move = which if sign == 1 else which + "^-1"
        return TorusState._relabelled(s, move, CatMap.default() if cat is None else cat)
    raise ProtocolParameterError(f"unknown Floquet component {which!r}")


def measure_momentum(
    s: TorusState, rng: np.random.Generator
) -> tuple[tuple, TorusState]:
    """Born-sample a momentum; the state collapses onto that eigenstate."""
    ks = [k for k, _ in s.support]
    probs = np.array([abs(a) ** 2 for _, a in s.support])
    idx = draw_branch(probs / probs.sum(), rng)
    return ks[idx], TorusState.eigenstate(ks[idx], s.radius)


@dataclass(frozen=True)
class KickPlan:
    """Move sequence with integer-exact replay."""

    steps: tuple  # moves, in the order they are applied
    k_start: tuple
    k_target: tuple

    def __len__(self) -> int:
        return len(self.steps)

    def replay_labels(self, cat: CatMap) -> tuple:
        k = self.k_start
        for move in self.steps:
            k = move_step(move, k, cat)
        return k

    def to_json_dict(self) -> dict:
        return {
            "k_start": list(self.k_start),
            "k_target": list(self.k_target),
            "moves": list(self.steps),
            "length": len(self),
        }


# (Floquet component, sign) of each move, as apply_floquet_component takes them
_FACTORS = {move: (move[:2], -1 if move.endswith("^-1") else 1) for move in MOVES}


def _translation_moves(k_start, k_target) -> list:
    d1 = k_target[0] - k_start[0]
    d2 = k_target[1] - k_start[1]
    moves = []
    # canonical order follows the lexicographic move ranking
    moves += ["U2^-1"] * max(d1, 0)
    moves += ["U2"] * max(-d1, 0)
    moves += ["U3^-1"] * max(d2, 0)
    moves += ["U3"] * max(-d2, 0)
    return moves


def _index(k, radius: int) -> int:
    return (k[0] + radius) * (2 * radius + 1) + k[1] + radius


@functools.lru_cache(maxsize=8)
def _neighbours(cat: CatMap, radius: int) -> np.ndarray:
    """The box twice, once for each side of the search.

    Row ``2 * i`` is the start copy of the label with box index
    ``i = _index(k)`` and row ``2 * i + 1`` its target copy.  Column j holds
    the neighbour under ``MOVES[j]`` on the same copy, ``2 * _index(nxt) +
    side``, or ``2 * len(box)``, the slot past both copies, for a move that
    leaves the box.  Each column is one ``move_step`` on the arrays of all
    labels in index order.  The entries stay ``intp``: a narrower table costs
    an index cast in every ``take``.  Read-only, as it is shared between calls.
    """
    side = np.arange(-radius, radius + 1, dtype=np.intp)
    k = (np.repeat(side, side.size), np.tile(side, side.size))
    out = 2 * side.size**2
    table = np.full((out, len(MOVES)), out, dtype=np.intp)
    start = table[0::2]
    for j, move in enumerate(MOVES):
        nxt = move_step(move, k, cat)
        inside = np.maximum(abs(nxt[0]), abs(nxt[1])) <= radius
        start[inside, j] = 2 * _index(nxt, radius)[inside]
    table[1::2] = np.minimum(start + 1, out)
    table.flags.writeable = False
    return table


def _in_box_moves(k_start, k_target, cat: CatMap, radius: int) -> list:
    """Lexicographically first minimal move sequence that stays in the box.

    A breadth-first search runs from both ends at once, the start's on the
    start copy of the box and the target's on the target copy (every move's
    inverse is a move, so one neighbour table serves both): each pass
    gathers the rows of both frontiers with one ``take``, so it covers a
    level on each side.  The search stops at the first level L at which a
    node is labelled on both copies.  No node was labelled on both after
    level L - 1, so the distance d is ``L + base``, where ``base`` (L - 1 or
    L) is the least partner label over the level-L frontier.

    The walk from the start takes, at each step, the first move in MOVES
    order whose neighbour lies on a minimal path, as a one-sided search
    from the target would.  From step ``base`` on, that neighbour is one
    whose distance to the target, labelled exactly up to L, is one below
    the node's.  Before it, the nodes on minimal paths are Python sets,
    layer k holding those at distance k from the start, propagated back
    from the nodes at ``base`` from the start and L from the target.

    Levels are ``int32``, the type's maximum while unlabelled: the
    translations alone join any two labels inside the box, so no in-box
    distance exceeds the Manhattan bound 4 * radius.  A pass labels what it
    reaches with one ``np.minimum`` against the level, which leaves a
    labelled node, always at a lower level, as it was.  ``dist`` has one
    trailing slot past both copies, preset to -1, and the table's entry for
    a move leaving the box indexes it: the minimum keeps it at -1, so the
    search never takes it into a frontier and the walk never finds it on a
    minimal path.  An unlabelled partner reads as the maximum, so the least
    partner label exceeds the level until the two sides meet.
    """
    table = _neighbours(cat, radius)
    start, target = 2 * _index(k_start, radius), 2 * _index(k_target, radius) + 1
    dist = np.full(len(table) + 1, np.iinfo(np.int32).max, dtype=np.int32)
    dist[-1] = -1
    dist[start] = dist[target] = 0
    frontier, level = np.array([start, target]), 0
    partner = dist.take(frontier ^ 1)
    while partner.min() > level:
        level += 1
        reached = table.take(frontier, axis=0)
        dist[reached] = np.minimum(dist.take(reached), level)
        frontier = (dist == level).nonzero()[0]
        partner = dist.take(frontier ^ 1)
    base = int(partner.min())
    d = level + base
    # on_path[k]: target copies of the nodes k moves from the start on a minimal path
    on_path = [None] * base
    if base > 1:
        layer = {v for v in frontier[partner == base].tolist() if v & 1}
        for k in range(base - 1, 0, -1):
            layer = on_path[k] = {u + 1 for v in layer for u in table[v - 1].tolist() if dist.item(u) == k}
    moves, node = [], start + 1
    for k in range(1, d + 1):
        row = table[node].tolist()
        if k < base:
            j = next(j for j, nxt in enumerate(row) if nxt in on_path[k])
        else:
            j = next(j for j, nxt in enumerate(row) if dist.item(nxt) == d - k)
        moves.append(MOVES[j])
        node = row[j]
    return moves


def plan_kicks(k_start, k_target, cat: CatMap | None = None, allow_cat_moves: bool = True,
               radius: int = DEFAULT_RADIUS) -> KickPlan:
    """Move sequence from one momentum label to another in the box |k_i| <= radius.

    Every label the plan passes through stays in the box.  Without cat moves
    the plan is the translation sequence of Manhattan length; with them it is
    the lexicographically first (in MOVES order) minimal-length sequence, and
    ties resolve to the translation plan (fewer cat kicks).  A label that is
    not a pair of integers, or a radius that is not an integer >= 0, raises
    ``ProtocolParameterError``.
    """
    k_start, k_target, radius = _label(k_start), _label(k_target), _count(radius, "box radius")
    for k in (k_start, k_target):
        if _outside(k, radius):
            raise TruncationOverflowError(f"endpoint {k} outside |k_i| <= {radius}")
    cat = CatMap.default() if cat is None else cat
    moves = _translation_moves(k_start, k_target)
    if allow_cat_moves and moves:
        # min keeps the first of equal lengths, the translation plan
        moves = min(moves, _in_box_moves(k_start, k_target, cat, radius), key=len)
    k = k_start
    for move in moves:
        k = move_step(move, k, cat)
        if _outside(k, radius):
            raise TruncationOverflowError(f"plan from {k_start} leaves |k_i| <= {radius} at {k}")
    if k != k_target:
        raise QPhaseError(f"plan from {k_start} replays to {k}, not to the target {k_target}")
    return KickPlan(tuple(moves), k_start, k_target)


# the placeholder point of every reach_state step: PhasePoint is frozen and its arrays are read-only
_NO_POINT = PhasePoint([0.0], [0.0])


def reach_state(
    s0: TorusState,
    k_target,
    rng: np.random.Generator | None = None,
) -> tuple[ProtocolTrace, TorusState]:
    """Measure momentum, plan from the recorded outcome under ``CatMap.default()``, replay the plan.

    A non-integral entry of ``k_target`` raises ``ProtocolParameterError``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    cat = CatMap.default()
    k_target = _label(k_target)
    k0, state = measure_momentum(s0, rng)
    plan = plan_kicks(k0, k_target, cat, radius=s0.radius)
    steps = [ProtocolStep("measure", {"k": list(k0)}, _NO_POINT)]
    for move in plan.steps:
        which, sign = _FACTORS[move]
        state = apply_floquet_component(state, which, sign=sign, cat=cat)
        steps.append(ProtocolStep("evolve", {"move": move}, _NO_POINT))
    final_k = state.support[0][0]
    fidelity = 1.0 if final_k == k_target and len(state.support) == 1 else 0.0
    return ProtocolTrace(tuple(steps), final_fidelity=fidelity, iterations=len(plan)), state
