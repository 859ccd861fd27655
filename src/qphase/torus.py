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
        m = tuple(tuple(int(x) for x in row) for row in self.m)
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
        return cls(DEFAULT_CAT)


def _label(k) -> tuple:
    """A momentum label as a tuple of ints; a non-integral entry raises.

    Integral floats and NumPy integers are accepted; ``int()`` alone would
    truncate 1.5 to 1.
    """
    try:
        items = tuple(k)
        label = tuple(int(x) for x in items)
        integral = label == items
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ProtocolParameterError(f"momentum label {k!r} is not a sequence of integers")
    return label


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
        items = tuple(sorted(((tuple(int(x) for x in k), complex(a)) for k, a in self.support)))
        if not items:
            raise ProtocolParameterError("state must have non-empty support")
        for k, _ in items:
            if _outside(k, self.radius):
                raise TruncationOverflowError(f"momentum {k} outside |k_i| <= {self.radius}")
        nrm = np.sqrt(sum(abs(a) ** 2 for _, a in items))
        if not abs(nrm - 1.0) <= 1e-12:
            raise NormalizationError("state must be normalized within 1e-12")
        object.__setattr__(self, "support", items)

    @classmethod
    def eigenstate(cls, k, radius: int = DEFAULT_RADIUS) -> "TorusState":
        return cls(((tuple(k), 1.0 + 0.0j),), radius)


def apply_floquet_component(
    s: TorusState,
    which: str,
    sign: int = 1,
    tau: float = 1.0,
    cat: CatMap | None = None,
) -> TorusState:
    """One Floquet factor: 'U0' free phase, 'U1' cat kick, 'U2'/'U3' shifts.

    sign -1 applies the inverse factor.  Relabelings that would leave the
    truncation box raise rather than clip.
    """
    if sign not in (1, -1):
        raise ProtocolParameterError("sign must be +1 or -1")
    if which == "U0":
        items = tuple(
            (k, a * np.exp(-1j * sign * (k[0] ** 2 + k[1] ** 2) * tau / 2))
            for k, a in s.support
        )
        return TorusState(items, s.radius)
    if which in ("U1", "U2", "U3"):
        move = which if sign == 1 else which + "^-1"
        cat = CatMap.default() if cat is None else cat
        relabeled = []
        for k, a in s.support:
            k2 = move_step(move, k, cat)
            if _outside(k2, s.radius):
                raise TruncationOverflowError(f"{move} sends {k} to {k2}, outside the box")
            relabeled.append((k2, a))
        return TorusState(tuple(relabeled), s.radius)
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

    def moves(self) -> list:
        return list(self.steps)

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
            "moves": self.moves(),
            "length": len(self),
        }


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
    """Row ``_index(k)``: the box index of k's neighbour under each move in
    MOVES, or -1 outside the box.  Each column is one ``move_step`` on the
    arrays of all labels in index order.  Read-only, as it is shared between
    calls."""
    side = np.arange(-radius, radius + 1, dtype=np.intp)
    k = (np.repeat(side, side.size), np.tile(side, side.size))
    table = np.full((side.size**2, len(MOVES)), -1, dtype=np.intp)
    for j, move in enumerate(MOVES):
        nxt = move_step(move, k, cat)
        inside = np.maximum(abs(nxt[0]), abs(nxt[1])) <= radius
        table[inside, j] = _index(nxt, radius)[inside]
    table.flags.writeable = False
    return table


def _in_box_moves(k_start, k_target, cat: CatMap, radius: int) -> list:
    """Lexicographically first minimal move sequence that stays in the box.

    A breadth-first search from the target labels the box with distances
    until the start has one (every move's inverse is a move, so distances
    are symmetric); the walk down from the start takes the first move in
    MOVES order that lowers the distance.

    Levels are ``int32``, -1 while unlabelled: the translations alone join
    any two labels inside the box, so no in-box distance exceeds the
    Manhattan bound 4 * radius.  ``dist`` has one trailing slot past the
    box, preset to the type's maximum, and the table's -1 (a move leaving
    the box) indexes it: the search reads it as already labelled, and the
    walk never finds it one below a node's distance.
    """
    table = _neighbours(cat, radius)
    start, target = _index(k_start, radius), _index(k_target, radius)
    dist = np.full(len(table) + 1, -1, dtype=np.int32)
    dist[-1] = np.iinfo(np.int32).max
    dist[target] = 0
    frontier, level = np.array([target]), 0
    while dist[start] < 0:
        level += 1
        reached = table.take(frontier, axis=0)
        dist[reached[dist.take(reached) < 0]] = level
        frontier = (dist == level).nonzero()[0]
    dist = dist.tolist()
    moves, node = [], start
    while node != target:
        row = table[node].tolist()
        j = next(j for j, nxt in enumerate(row) if dist[nxt] == dist[node] - 1)
        moves.append(MOVES[j])
        node = row[j]
    return moves


def plan_kicks(k_start, k_target, cat: CatMap | None = None, allow_cat_moves: bool = True,
               radius: int = DEFAULT_RADIUS) -> KickPlan:
    """Move sequence from one momentum label to another in the box |k_i| <= radius.

    Every label the plan passes through stays in the box.  Without cat moves
    the plan is the translation sequence of Manhattan length; with them it is
    the lexicographically first (in MOVES order) minimal-length sequence, and
    ties resolve to the translation plan (fewer cat kicks).  A non-integral
    label entry raises ``ProtocolParameterError``.
    """
    k_start, k_target = _label(k_start), _label(k_target)
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


def reach_state(
    s0: TorusState,
    k_target,
    cat: CatMap | None = None,
    rng: np.random.Generator | None = None,
    allow_cat_moves: bool = True,
) -> tuple[ProtocolTrace, TorusState]:
    """Measure momentum, plan from the recorded outcome, replay the plan.

    A non-integral entry of ``k_target`` raises ``ProtocolParameterError``.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    cat = CatMap.default() if cat is None else cat
    k_target = _label(k_target)
    k0, state = measure_momentum(s0, rng)
    plan = plan_kicks(k0, k_target, cat, allow_cat_moves, s0.radius)
    # one placeholder point for every step: PhasePoint is frozen and its arrays are read-only
    point = PhasePoint([0.0], [0.0])
    steps = [ProtocolStep("measure", {"k": list(k0)}, point)]
    for move in plan.steps:
        which = move.split("^")[0]
        sign = -1 if move.endswith("^-1") else 1
        state = apply_floquet_component(state, which, sign=sign, cat=cat)
        steps.append(ProtocolStep("evolve", {"move": move}, point))
    final_k = state.support[0][0]
    fidelity = 1.0 if final_k == k_target and len(state.support) == 1 else 0.0
    return ProtocolTrace(tuple(steps), final_fidelity=fidelity, iterations=len(plan)), state
