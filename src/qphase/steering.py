"""Control by measurement plus evolution.

A steering observable is built from an orthonormal frame inside the orbit
of the goal state.  Measuring it projects any state onto the frame; the
recorded outcome selects a precompiled group word that carries the frame
state to the goal.  Also contains the repeated measure-and-kick stabilizer
for the middle level of the three-level ladder system.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .controllability import LieClosureReport, VERDICT_NOT, group_element
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    FrameSearchError,
    FrameUnnecessaryError,
    MaxIterationsError,
    NormalizationError,
    SteeringLabelError,
)
from .geometry import (
    DEGENERACY_RTOL,
    Observable,
    PhasePoint,
    StateVector,
    from_phase,
    real_block,
    to_phase,
)
from .measurement import (
    MeasurementOutcome,
    born_weights,
    collapse,
    draw_branch,
    measure_selective,
)


def ladder_drift(mu: float = 1.0) -> np.ndarray:
    """Three-level drift diag(-mu, 0, mu)."""
    return mu * np.diag([-1.0, 0.0, 1.0]).astype(complex)


def ladder_control(d: float = 1.0) -> np.ndarray:
    """Three-level nearest-neighbour coupling."""
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = m[1, 0] = m[1, 2] = m[2, 1] = d
    return m


def _h1(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    a, b, k = (c + 1) / 2, (c - 1) / 2, 1j * (s / np.sqrt(2.0))
    return np.array([[a, k, b], [k, c, k], [b, k, a]])


def _h2(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    a, b, k = (c + 1) / 2, (1 - c) / 2, s / np.sqrt(2.0)
    return np.array([[a, -k, b], [k, c, -k], [b, k, a]], dtype=complex)


def _h3(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.diag([complex(c, -s), 1.0, complex(c, s)])


def h1_matrix(theta: float) -> np.ndarray:
    """First one-parameter subgroup of the ladder control group (6x6)."""
    return real_block(_h1(theta))


def h2_matrix(theta: float) -> np.ndarray:
    """Second subgroup: a real rotation acting identically on q and p."""
    return real_block(_h2(theta))


def h3_matrix(theta: float) -> np.ndarray:
    """Third subgroup, diag(e^{-i theta}, 1, e^{i theta}): free ladder evolution at theta = -mu t."""
    return real_block(_h3(theta))


# complex 3 x 3 forms of the subgroups, which the matrices above read in (q, p)
_H_FAMILIES = {"h1": _h1, "h2": _h2, "h3": _h3}


@dataclass(frozen=True)
class SteeringWord:
    """Finite control word, stored with its compiled complex unitary.

    Steps are (family, parameter) pairs: either one of the ladder
    subgroups ('h1'|'h2'|'h3', angle) or ('closure', coefficient vector)
    over a Lie-closure basis.
    """

    steps: tuple
    unitary: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "SteeringWord":
        return cls(steps=(), unitary=np.eye(n, dtype=complex))

    @classmethod
    def from_h_steps(cls, steps) -> "SteeringWord":
        u = np.eye(3, dtype=complex)
        for family, angle in steps:
            u = _H_FAMILIES[family](angle) @ u
        return cls(steps=tuple(steps), unitary=u)

    @classmethod
    def from_closure(cls, report: LieClosureReport, coeffs: np.ndarray) -> "SteeringWord":
        coeffs = np.asarray(coeffs, dtype=float)
        return cls(steps=(("closure", tuple(coeffs)),), unitary=group_element(report, coeffs))

    def apply(self, psi: StateVector) -> StateVector:
        return StateVector(self.unitary @ psi.amplitudes)

    def describe(self) -> list:
        out = []
        for family, par in self.steps:
            if family == "closure":
                out.append({"family": family, "coefficients": list(par)})
            else:
                out.append({"family": family, "angle": float(par)})
        return out


@dataclass(frozen=True)
class SteeringObservable:
    """Orthonormal frame in the goal orbit with per-outcome steering words."""

    eigenvalues: tuple
    frame: tuple
    words: tuple
    goal: StateVector

    def __post_init__(self):
        labels = np.asarray(self.eigenvalues, dtype=float)
        if labels.shape != (len(self.frame),) or not np.all(np.isfinite(labels)):
            raise SteeringLabelError(
                f"need one finite eigenvalue per frame vector ({len(self.frame)}), "
                f"got {list(self.eigenvalues)!r}"
            )
        # labels the Observable would merge into one branch are duplicates
        gaps = np.diff(np.sort(labels))
        if np.any(gaps <= DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(labels))))):
            raise SteeringLabelError(f"steering eigenvalues must be distinct, got {list(self.eigenvalues)!r}")
        mats = np.column_stack([f.amplitudes for f in self.frame])
        gram = mats.conj().T @ mats
        if not np.max(np.abs(gram - np.eye(len(self.frame)))) <= 1e-10:
            raise FrameSearchError("frame is not orthonormal within 1e-10")
        for f, w in zip(self.frame, self.words):
            if w.apply(f).fidelity(self.goal) < 1.0 - 1e-9:
                raise FrameSearchError("steering word does not reach the goal")
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for a, f in zip(self.eigenvalues, self.frame):
            m = m + a * np.outer(f.amplitudes, f.amplitudes.conj())
        object.__setattr__(self, "_observable", Observable(m))

    @property
    def dim(self) -> int:
        return self.goal.dim

    def observable(self) -> Observable:
        """sum_k eigenvalues[k] |frame[k]><frame[k]|, built once with the frame."""
        return self._observable


@dataclass(frozen=True)
class ProtocolStep:
    action: str  # 'measure' | 'evolve' | 'disturb'
    detail: object
    state: PhasePoint


@dataclass(frozen=True)
class ProtocolTrace:
    steps: tuple
    final_fidelity: float
    iterations: int = 0
    occupancy: float | None = None

    def to_json_lines(self) -> str:
        lines = []
        for s in self.steps:
            lines.append(
                json.dumps(
                    {
                        "action": s.action,
                        "detail": s.detail,
                        "q": list(s.state.q),
                        "p": list(s.state.p),
                    }
                )
            )
        return "\n".join(lines) + "\n"


def build_frame_3level(psi_f: StateVector, eigenvalues=(1.0, 2.0, 3.0)) -> SteeringObservable:
    """Frame for the three-level ladder built from the explicit subgroups.

    Applies h1(-pi/2) and h2(pi/2) h1(-pi/2) to the goal; the steering
    words are the inverse group elements.
    """
    if not psi_f.is_normalized(1e-9):
        raise NormalizationError("goal state must be normalized")
    if psi_f.dim != 3:
        raise DimensionMismatchError("explicit frame construction is three-level only")
    to_phi1 = SteeringWord.from_h_steps((("h1", -np.pi / 2),))
    to_phi2 = SteeringWord.from_h_steps((("h1", -np.pi / 2), ("h2", np.pi / 2)))
    phi1 = to_phi1.apply(psi_f)
    phi2 = to_phi2.apply(psi_f)
    w1 = SteeringWord.from_h_steps((("h1", np.pi / 2),))
    w2 = SteeringWord.from_h_steps((("h2", -np.pi / 2), ("h1", np.pi / 2)))
    w3 = SteeringWord.identity(3)
    return SteeringObservable(
        eigenvalues=tuple(eigenvalues),
        frame=(phi1, phi2, psi_f),
        words=(w1, w2, w3),
        goal=psi_f,
    )


def build_frame_general(
    psi_f: StateVector,
    closure: LieClosureReport,
    budget: int = 50000,
    rng: np.random.Generator | None = None,
    eigenvalues=None,
) -> SteeringObservable:
    """Greedy search of the goal orbit for an orthonormal steering frame.

    Repeatedly optimizes exponential coordinates so the candidate orbit
    point is orthogonal to the frame built so far.
    """
    if closure.verdict != VERDICT_NOT:
        raise FrameUnnecessaryError(
            "system is fully controllable; any basis steers by unitary control alone"
        )
    n = closure.basis[0].shape[0]
    if psi_f.dim != n:
        raise DimensionMismatchError(f"goal of dimension {psi_f.dim} against a closure of dimension {n}")
    rng = np.random.default_rng(0) if rng is None else rng
    goal = psi_f.normalized().amplitudes
    d = closure.dimension

    frame = [goal]
    params = [np.zeros(d)]
    evals = 0

    def residuals(theta):
        u = group_element(closure, theta)
        phi = u @ goal
        r = []
        for f in frame:
            ov = np.vdot(f, phi)
            r.extend([ov.real, ov.imag])
        return np.asarray(r)

    while len(frame) < n and evals < budget:
        found = False
        while evals < budget:
            theta0 = rng.uniform(-np.pi, np.pi, d)
            res = least_squares(
                residuals,
                theta0,
                method="trf",
                xtol=3e-16,
                ftol=3e-16,
                gtol=3e-16,
                max_nfev=min(budget - evals, 300 * d),
            )
            evals += res.nfev * (d + 1)
            if np.max(np.abs(res.fun)) < 1e-11:
                frame.append(group_element(closure, res.x) @ goal)
                params.append(res.x)
                found = True
                break
        if not found:
            break

    if len(frame) < n:
        raise FrameSearchError(f"no orthonormal frame found within budget ({evals} evaluations)")
    eigenvalues = tuple(range(1, n + 1)) if eigenvalues is None else tuple(eigenvalues)
    states = tuple(StateVector(f) for f in frame[::-1])  # goal last
    words = tuple(SteeringWord.from_closure(closure, -th) for th in params[::-1])
    return SteeringObservable(eigenvalues, states, words, StateVector(goal))


def steer(
    x0: PhasePoint,
    m: SteeringObservable,
    rng: np.random.Generator | None = None,
) -> ProtocolTrace:
    """Measure the steering observable, then run the outcome's word."""
    rng = np.random.default_rng(0) if rng is None else rng
    return steer_outcome(m, measure_selective(x0, m.observable(), rng))


def steer_outcome(m: SteeringObservable, outcome: MeasurementOutcome) -> ProtocolTrace:
    """Run the steering word of a measured outcome of ``m.observable()``."""
    idx = int(np.argmin(np.abs(np.asarray(m.eigenvalues) - outcome.value)))
    word = m.words[idx]
    post = word.apply(from_phase(outcome.post_state))
    fidelity = post.normalized().fidelity(m.goal)
    steps = (
        ProtocolStep("measure", {"branch": idx, "value": outcome.value}, outcome.post_state),
        ProtocolStep("evolve", {"word": word.describe()}, to_phase(post)),
    )
    return ProtocolTrace(steps=steps, final_fidelity=fidelity, iterations=1)


@functools.lru_cache
def _ladder_stabilizer(mu: float) -> tuple:
    """The drift observable and the h2(pi/2) kick of the stabilizer, built once per ``mu``."""
    obs = Observable(ladder_drift(mu))
    if not obs.is_nondegenerate():
        raise DegenerateBasisError(f"mu = {mu!r} merges the three ladder levels into one measurement branch")
    kick = SteeringWord.from_h_steps((("h2", np.pi / 2),))
    kick.unitary.flags.writeable = False  # shared by every call with this mu
    return obs, kick


def _renormalized(z: complex) -> complex:
    """The phase of ``collapse(e_b z, obs, b)[b]``, rounded as numpy rounds it.

    numpy divides by the real norm as a product with its reciprocal, so
    ``z / abs(z)`` would differ from it in the last bit on many phases.
    """
    s = 1.0 / math.sqrt(z.real * z.real + z.imag * z.imag)
    return complex(z.real * s, z.imag * s)


def _level_state(level: int, z: complex = 1.0) -> np.ndarray:
    psi = np.zeros(3, dtype=complex)
    psi[level] = z
    return psi


def stabilize_middle_level(
    x0: PhasePoint,
    mu: float = 1.0,
    disturbance: float | None = None,
    n_periods: int = 0,
    max_iters: int = 10_000,
    rng: np.random.Generator | None = None,
) -> ProtocolTrace:
    """Measure-and-kick stabilizer for the middle ladder level.

    Measures the drift energy; an extreme outcome triggers the h2(pi/2)
    kick, which leaves Born weight 1/2 on the middle level, and the cycle
    repeats.  With a disturbance rate set, maintenance measurements run for
    ``n_periods`` periods and the occupancy of the middle level is recorded.
    A maintenance period finds the state on one level, where the outcome is
    certain: it draws the measurement's uniform and renormalises the phase
    without a Born measurement.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    obs, kick = _ladder_stabilizer(mu)
    steps = []
    psi = x0.amplitudes
    middle = StateVector(_level_state(1))

    def measure(psi):
        branch = draw_branch(born_weights(psi, obs), rng)
        return obs.eigenvalues[branch], collapse(psi, obs, branch)

    def acquire(psi, iter_budget):
        cycles = 0
        while True:
            value, psi = measure(psi)
            steps.append(ProtocolStep("measure", {"value": value}, PhasePoint.from_amplitudes(psi)))
            if abs(value) < 1e-12:
                return psi, cycles
            if cycles >= iter_budget:
                raise MaxIterationsError(f"no middle-level projection in {iter_budget} cycles")
            psi = kick.unitary @ psi
            steps.append(ProtocolStep("evolve", {"word": kick.describe()}, PhasePoint.from_amplitudes(psi)))
            cycles += 1

    psi, cycles = acquire(psi, max_iters)
    occupancy = None
    if disturbance is not None and n_periods > 0:
        # Between disturbances the state is e_level z.  The drift's
        # eigenvectors are exact unit vectors, so its measurement lands on
        # ``level`` whatever the uniform and only renormalises z.
        level, z = 1, complex(psi[1])
        hits = 0
        for _ in range(n_periods):
            if rng.random() < disturbance:
                level, z = int(rng.integers(0, 3)), 1.0 + 0.0j
                steps.append(ProtocolStep("disturb", {"level": level}, PhasePoint.from_amplitudes(_level_state(level))))
            rng.random()  # the measurement's uniform
            z = _renormalized(z)
            if level == 1:
                hits += 1
            else:
                psi, _ = acquire(_level_state(level, z), max_iters)
                level, z = 1, complex(psi[1])
        occupancy = hits / n_periods
        psi = _level_state(level, z)
    fidelity = StateVector(psi).fidelity(middle)
    return ProtocolTrace(
        steps=tuple(steps), final_fidelity=fidelity, iterations=cycles, occupancy=occupancy
    )
