"""Controlled kicked dynamics on the 2-torus in a truncated momentum basis.

States are sparse maps from integer momentum pairs to amplitudes.  The
Floquet components are: free propagation (a pure phase per momentum), a
hyperbolic cat-map relabeling of the momentum lattice, and two unit
translations of the momentum components.  Plans are integer-exact move
sequences from a measured momentum to a target eigenstate.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import QPhaseError, TruncationOverflowError
from .geometry import PhasePoint
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
            raise ValueError("cat map must have determinant 1")
        if abs(a + d) <= 2:
            raise ValueError("cat map must be hyperbolic (|trace| > 2)")
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


def move_step(move: str, k: tuple, cat: CatMap) -> tuple:
    """Apply one plan move to a momentum label."""
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
    raise ValueError(f"unknown move {move!r}")


@dataclass(frozen=True)
class TorusState:
    """Sparse normalized superposition of momentum eigenstates."""

    support: tuple  # ((k1, k2), complex amplitude) pairs
    radius: int = DEFAULT_RADIUS

    def __post_init__(self):
        items = tuple(sorted(((tuple(int(x) for x in k), complex(a)) for k, a in self.support)))
        if not items:
            raise ValueError("state must have non-empty support")
        for k, _ in items:
            if max(abs(k[0]), abs(k[1])) > self.radius:
                raise TruncationOverflowError(f"momentum {k} outside |k_i| <= {self.radius}")
        nrm = np.sqrt(sum(abs(a) ** 2 for _, a in items))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError("state must be normalized within 1e-12")
        object.__setattr__(self, "support", items)

    @classmethod
    def eigenstate(cls, k, radius: int = DEFAULT_RADIUS) -> "TorusState":
        return cls(((tuple(k), 1.0 + 0.0j),), radius)

    def amplitudes(self) -> dict:
        return dict(self.support)

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "support": {f"{k[0]},{k[1]}": [a.real, a.imag] for k, a in self.support},
        }


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
        raise ValueError("sign must be +1 or -1")
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
            if max(abs(k2[0]), abs(k2[1])) > s.radius:
                raise TruncationOverflowError(f"{move} sends {k} to {k2}, outside the box")
            relabeled.append((k2, a))
        return TorusState(tuple(relabeled), s.radius)
    raise ValueError(f"unknown Floquet component {which!r}")


def measure_momentum(
    s: TorusState, rng: np.random.Generator
) -> tuple[tuple, TorusState]:
    """Born-sample a momentum; the state collapses onto that eigenstate."""
    ks = [k for k, _ in s.support]
    probs = np.array([abs(a) ** 2 for _, a in s.support])
    probs = probs / probs.sum()
    idx = int(rng.choice(len(ks), p=probs))
    return ks[idx], TorusState.eigenstate(ks[idx], s.radius)


@dataclass(frozen=True)
class KickPlan:
    """Run-length encoded move sequence with integer-exact replay."""

    steps: tuple  # (move, count) pairs
    k_start: tuple
    k_target: tuple

    def moves(self) -> list:
        out = []
        for move, count in self.steps:
            out.extend([move] * count)
        return out

    def __len__(self) -> int:
        return sum(c for _, c in self.steps)

    def replay_labels(self, cat: CatMap) -> tuple:
        k = self.k_start
        for move in self.moves():
            k = move_step(move, k, cat)
        return k

    def to_json_dict(self) -> dict:
        return {
            "k_start": list(self.k_start),
            "k_target": list(self.k_target),
            "moves": self.moves(),
            "length": len(self),
        }


def _run_length(moves) -> tuple:
    steps = []
    for move in moves:
        if steps and steps[-1][0] == move:
            steps[-1] = (move, steps[-1][1] + 1)
        else:
            steps.append((move, 1))
    return tuple(steps)


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


def _bidirectional_bfs(k_start, k_target, cat: CatMap, depth_cap: int) -> list | None:
    """Minimal move sequence of length < depth_cap, or None.

    Deterministic meet-in-the-middle search; expansion follows the
    lexicographic move order.
    """
    if depth_cap <= 0:
        return None
    inverse = {"U1": "U1^-1", "U1^-1": "U1", "U2": "U2^-1", "U2^-1": "U2",
               "U3": "U3^-1", "U3^-1": "U3"}
    fwd = {k_start: None}  # node -> (parent, move)
    bwd = {k_target: None}
    fwd_frontier = [k_start]
    bwd_frontier = [k_target]
    depth = 0

    def path_from(side: dict, node) -> list:
        moves = []
        while side[node] is not None:
            parent, move = side[node]
            moves.append(move)
            node = parent
        moves.reverse()
        return moves

    meet = k_start if k_start in bwd else None
    while meet is None and depth < depth_cap and fwd_frontier and bwd_frontier:
        if len(fwd_frontier) <= len(bwd_frontier):
            side, other, frontier, forward = fwd, bwd, fwd_frontier, True
        else:
            side, other, frontier, forward = bwd, fwd, bwd_frontier, False
        new_frontier = []
        for node in frontier:
            for move in MOVES:
                nxt = move_step(move, node, cat)
                if nxt in side:
                    continue
                side[nxt] = (node, move)
                new_frontier.append(nxt)
                if nxt in other:
                    meet = nxt
                    break
            if meet is not None:
                break
        if forward:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier
        depth += 1
    if meet is None:
        return None
    fwd_moves = path_from(fwd, meet)
    bwd_moves = [inverse[m] for m in reversed(path_from(bwd, meet))]
    moves = fwd_moves + bwd_moves
    return moves if len(moves) < depth_cap else None


def plan_kicks(k_start, k_target, cat: CatMap | None = None, allow_cat_moves: bool = True) -> KickPlan:
    """Move sequence from one momentum label to another.

    Without cat moves the plan is the canonical translation sequence of
    Manhattan length.  With cat moves a minimal-length plan is searched;
    ties between cat and translation plans resolve to the translation plan
    (fewer cat kicks).
    """
    k_start = tuple(int(x) for x in k_start)
    k_target = tuple(int(x) for x in k_target)
    cat = CatMap.default() if cat is None else cat
    translation = _translation_moves(k_start, k_target)
    moves = translation
    if allow_cat_moves and translation:
        shorter = _bidirectional_bfs(k_start, k_target, cat, depth_cap=len(translation))
        if shorter is not None:
            moves = shorter
    plan = KickPlan(_run_length(moves), k_start, k_target)
    reached = plan.replay_labels(cat)
    if reached != k_target:
        raise QPhaseError(f"plan from {k_start} replays to {reached}, not to the target {k_target}")
    return plan


def reach_state(
    s0: TorusState,
    k_target,
    cat: CatMap | None = None,
    rng: np.random.Generator | None = None,
    allow_cat_moves: bool = True,
) -> tuple[ProtocolTrace, TorusState]:
    """Measure momentum, plan from the recorded outcome, replay the plan."""
    rng = np.random.default_rng(0) if rng is None else rng
    cat = CatMap.default() if cat is None else cat
    k_target = tuple(int(x) for x in k_target)
    if max(abs(k_target[0]), abs(k_target[1])) > s0.radius:
        raise TruncationOverflowError(f"target {k_target} outside the truncation box")
    k0, state = measure_momentum(s0, rng)
    plan = plan_kicks(k0, k_target, cat, allow_cat_moves)
    steps = [ProtocolStep("measure", {"k": list(k0)}, PhasePoint([0.0], [0.0]))]
    for move in plan.moves():
        which = move.split("^")[0]
        sign = -1 if move.endswith("^-1") else 1
        state = apply_floquet_component(state, which, sign=sign, cat=cat)
        steps.append(ProtocolStep("evolve", {"move": move}, PhasePoint([0.0], [0.0])))
    final_k = state.support[0][0]
    fidelity = 1.0 if final_k == k_target and len(state.support) == 1 else 0.0
    return ProtocolTrace(tuple(steps), final_fidelity=fidelity, iterations=len(plan)), state
