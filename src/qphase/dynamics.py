"""Hamiltonian phase-space flow for finite-level systems with bilinear control.

Per interval of constant control the flow is the exact exponential of the
linear Hamiltonian field, so norm and energy are conserved to rounding.  All
intervals are diagonalized in one batched eigendecomposition
(``interval_propagators``), the only propagator path; states move as complex
amplitudes and ``real_block`` gives the (q, p) matrix at the public edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# expm is unused here but stays importable: the benchmark's tracer
# (perfbench/tracing.py) looks it up by name and raises if it is missing
from scipy.linalg import expm  # noqa: F401

from .errors import DimensionMismatchError, ScheduleCoverageError
from .geometry import Observable, PhasePoint, _readonly, hermitian, real_block


def _as_hermitian(m) -> np.ndarray:
    return m.matrix if isinstance(m, Observable) else hermitian(m)


def check_grid(grid) -> np.ndarray:
    """``grid`` as a 1-d float array of >= 2 finite, strictly increasing points."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2 or not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
        raise ValueError("grid must be a strictly increasing array of >= 2 finite points")
    return g


@dataclass(frozen=True)
class ClassicalHamiltonian:
    """The classical Hamiltonian induced by a Hermitian matrix (hbar = 1)."""

    h_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_matrix", _readonly(_as_hermitian(self.h_matrix)))

    def value(self, x: PhasePoint) -> float:
        """Energy at a phase point; equals <psi|H|psi>/2 in this convention."""
        if x.dim != self.h_matrix.shape[0]:
            raise DimensionMismatchError("phase point and Hamiltonian dimensions differ")
        psi = x.amplitudes
        return 0.5 * float(np.real(np.vdot(psi, self.h_matrix @ psi)))


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control amplitudes on a strictly increasing grid.

    ``grid`` has m+1 breakpoints; ``values`` has shape (m, r) with one row
    per interval and one column per channel.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = check_grid(self.grid)
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if v.shape[0] != g.size - 1:
            raise ValueError("values must have one row per grid interval")
        if not np.all(np.isfinite(v)):
            raise ValueError("control values must be finite")
        object.__setattr__(self, "grid", _readonly(g))
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def covers(self, t0: float, t1: float) -> bool:
        eps = 1e-12 * max(1.0, abs(t0), abs(t1))
        return self.grid[0] <= t0 + eps and t1 <= self.grid[-1] + eps

    def value_at(self, t: float) -> np.ndarray:
        k = int(np.clip(np.searchsorted(self.grid, t, side="right") - 1, 0, len(self.values) - 1))
        return self.values[k]

    def segments(self, t0: float, t1: float):
        """Yield (ta, tb, u) covering [t0, t1] with constant control per piece."""
        if not self.covers(t0, t1):
            raise ScheduleCoverageError(
                f"schedule [{self.grid[0]}, {self.grid[-1]}] does not cover [{t0}, {t1}]"
            )
        cuts = [t0] + [float(t) for t in self.grid if t0 < t < t1] + [t1]
        for ta, tb in zip(cuts[:-1], cuts[1:]):
            yield ta, tb, self.value_at(0.5 * (ta + tb))

    @classmethod
    def constant(cls, u, t0: float, t1: float) -> "ControlSchedule":
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return cls(np.array([t0, t1]), u[None, :])


@dataclass(frozen=True)
class ControlledHamiltonian:
    """Drift plus bilinearly controlled Hamiltonian H(t) = H0 + sum u_j(t) H_j."""

    drift: np.ndarray
    controls: tuple = ()
    schedule: ControlSchedule | None = None

    def __post_init__(self):
        h0 = _readonly(_as_hermitian(self.drift))
        hs = tuple(_readonly(_as_hermitian(h)) for h in self.controls)
        for h in hs:
            if h.shape != h0.shape:
                raise DimensionMismatchError("control matrices must match drift dimension")
        if hs and self.schedule is not None and self.schedule.n_channels != len(hs):
            raise DimensionMismatchError("schedule channel count must match controls")
        object.__setattr__(self, "drift", h0)
        object.__setattr__(self, "controls", hs)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def matrix_for(self, u: np.ndarray) -> np.ndarray:
        h = np.array(self.drift)
        for uj, hj in zip(np.atleast_1d(u), self.controls):
            h = h + uj * hj
        return h

    def _segments(self, t0: float, t1: float):
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if t1 == t0:
            return
        if not self.controls or self.schedule is None:
            if self.controls:
                raise ScheduleCoverageError("controlled Hamiltonian has no schedule")
            yield t0, t1, np.zeros(0)
        else:
            yield from self.schedule.segments(t0, t1)

    @classmethod
    def drift_only(cls, h0) -> "ControlledHamiltonian":
        return cls(drift=h0)


def interval_propagators(plant: ControlledHamiltonian, u, dts):
    """Exact propagators of piecewise-constant controls, one batched eigh.

    Stacks H_k = H0 + sum_j u[k, j] H_j over the intervals, diagonalizes
    them together as H_k = V_k diag(w_k) V_k^H and returns ``(props, w, v)``
    with props[k] = exp(-i H_k dts[k]) = V_k diag(exp(-i w_k dts[k])) V_k^H.
    """
    dts = np.asarray(dts, dtype=float)
    u = np.asarray(u, dtype=float)
    n, r = plant.dim, len(plant.controls)
    if dts.ndim != 1 or u.shape != (dts.size, r):
        raise DimensionMismatchError("need one row of control values per interval")
    hs = np.asarray(plant.controls, dtype=complex).reshape(r, n, n)
    w, v = np.linalg.eigh(plant.drift + np.einsum("kj,jab->kab", u, hs))
    props = (v * np.exp(-1j * w * dts[:, None])[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return props, w, v


def evolve_unitary(h: ControlledHamiltonian, t0: float, t1: float) -> np.ndarray:
    """Complex N x N propagator of the Schroedinger flow over [t0, t1]."""
    segments = list(h._segments(t0, t1))
    u = np.eye(h.dim, dtype=complex)
    if segments:
        values = np.array([uval for _, _, uval in segments])
        props, _, _ = interval_propagators(h, values, [tb - ta for ta, tb, _ in segments])
        for prop in props:
            u = prop @ u
    return u


def evolve(h: ControlledHamiltonian, x0: PhasePoint, t0: float, t1: float) -> PhasePoint:
    """Advance a phase point along Hamilton's equations from t0 to t1."""
    if x0.dim != h.dim:
        raise DimensionMismatchError("phase point and Hamiltonian dimensions differ")
    return PhasePoint.from_amplitudes(evolve_unitary(h, t0, t1) @ x0.amplitudes)


def evolve_block(h: ControlledHamiltonian, t0: float, t1: float) -> np.ndarray:
    """Real 2N x 2N phase-space propagator over [t0, t1]."""
    return real_block(evolve_unitary(h, t0, t1))


@dataclass(frozen=True)
class PhaseEnsemble:
    """Weighted finite collection of phase points (atomic phase-space density)."""

    weights: np.ndarray
    points: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        pts = tuple(self.points)
        if w.ndim != 1 or w.size != len(pts):
            raise ValueError("one weight per point required")
        if not np.all(w > 0):
            raise ValueError("weights must be positive")
        if not abs(w.sum() - 1.0) <= 1e-10:
            raise ValueError("weights must sum to 1 within 1e-10")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def transport_ensemble(
    h: ControlledHamiltonian, e: PhaseEnsemble, t0: float, t1: float
) -> PhaseEnsemble:
    """Advance every member point; weights are Liouville-invariant."""
    u = evolve_unitary(h, t0, t1)
    return PhaseEnsemble(e.weights, tuple(PhasePoint.from_amplitudes(u @ x.amplitudes) for x in e.points))
