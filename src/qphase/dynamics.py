"""Hamiltonian phase-space flow for finite-level systems with bilinear control.

Per interval of constant control the flow is the exact exponential of the
linear Hamiltonian field, so norm and energy are conserved to rounding.  All
intervals are diagonalized in one batched eigendecomposition
(``interval_propagators``), the only propagator path, and ``forward_states``
is the one loop that carries a state through them; states move as complex
amplitudes and ``real_block`` gives the (q, p) matrix at the public edge.
``sample_trajectory`` samples a whole trajectory in one such pass: one cut of
the time axis, one batched eigendecomposition, one forward loop and one
energy contraction.  ``overlap_gradient`` differentiates a pass exactly.
The module's ``expm`` is a name for the benchmark's tracer, never called.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._solvers import never_called
from .errors import DimensionMismatchError, NormalizationError, ScheduleCoverageError
from .geometry import Observable, PhasePoint, _readonly, hermitian, real_block

expm = never_called  # the benchmark's tracer looks ``expm`` up here by name


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

    def value_at(self, t) -> np.ndarray:
        """Control row in force at t: right-continuous, clipped to the grid's ends.

        An array of times gives one row per time.
        """
        k = np.clip(np.searchsorted(self.grid, t, side="right") - 1, 0, len(self.values) - 1)
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
    """Drift plus bilinearly controlled Hamiltonian H(t) = H0 + sum u_j(t) H_j.

    ``hamiltonians`` is the read-only ``(1 + r, N, N)`` stack [H0; H1; ...; Hr],
    built once; ``drift`` and the ``controls`` tuple are views of it.
    """

    drift: np.ndarray
    controls: tuple = ()
    schedule: ControlSchedule | None = None
    hamiltonians: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h0 = _as_hermitian(self.drift)
        hs = [_as_hermitian(h) for h in self.controls]
        for h in hs:
            if h.shape != h0.shape:
                raise DimensionMismatchError("control matrices must match drift dimension")
        if hs and self.schedule is not None and self.schedule.n_channels != len(hs):
            raise DimensionMismatchError("schedule channel count must match controls")
        stack = _readonly(np.stack([h0, *hs]))
        object.__setattr__(self, "hamiltonians", stack)
        object.__setattr__(self, "drift", stack[0])
        object.__setattr__(self, "controls", tuple(stack[1:]))

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def matrix_for(self, u: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(u)
        if u.shape != (len(self.controls),):
            raise DimensionMismatchError("need one control value per channel")
        return self.drift + np.einsum("j,jab->ab", u, self.hamiltonians[1:])

    def _pieces(self, times: np.ndarray):
        """Cut [times[0], times[-1]] at the times and at the grid points between them.

        Returns the sorted cut points and, for each piece between two of
        them, its constant control row and its length.  A drift-only plant is
        cut at the times alone.
        """
        t0, t1 = times[0], times[-1]
        inside = np.empty(0)
        if self.controls:
            if self.schedule is None:
                raise ScheduleCoverageError("controlled Hamiltonian has no schedule")
            grid = self.schedule.grid
            if not self.schedule.covers(t0, t1):
                raise ScheduleCoverageError(f"schedule [{grid[0]}, {grid[-1]}] does not cover [{t0}, {t1}]")
            inside = grid[(grid > t0) & (grid < t1)]
        cuts = np.sort(np.concatenate([times, inside]))
        cuts = cuts[np.diff(cuts, prepend=-np.inf) > 0]  # distinct; np.unique would load numpy.ma
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        values = self.schedule.value_at(mids) if self.controls else np.zeros((mids.size, 0))
        return cuts, values, np.diff(cuts)

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
    if dts.ndim != 1 or u.shape != (dts.size, len(plant.controls)):
        raise DimensionMismatchError("need one row of control values per interval")
    w, v = np.linalg.eigh(plant.drift + np.einsum("kj,jab->kab", u, plant.hamiltonians[1:]))
    props = (v * np.exp(-1j * w * dts[:, None])[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return props, w, v


def overlap_gradient(plant: ControlledHamiltonian, w, v, dts, psis, lams) -> np.ndarray:
    """Exact d Re<lam_m|psi_m> / d u[k, j] from the eigendata (w, v) of ``interval_propagators``.

    psis[k] enters interval k; lams[k], lam_m carried back by the adjoint
    propagators, leaves it.  U_k = exp(-i H_k dt_k) moves along -i H_j dt_k by
    the Daleckii-Krein form V_k (F_k o (V_k^H (-i H_j dt_k) V_k)) V_k^H, F_k the
    divided differences of exp over -i w_k dt_k (exact GRAPE gradients; de
    Fouquieres et al., J. Magn. Reson. 212, 412 (2011)).
    """
    vh = v.conj().transpose(0, 2, 1)
    a = np.einsum("kab,kb->ka", vh, lams)
    b = np.einsum("kab,kb->ka", vh, psis)
    # (e^x - e^y)/(x - y) at x, y = -i w dt: exp of the mean times sinc of the
    # half difference, which also covers equal eigenvalues (F = e^x there)
    half = 0.5 * dts[:, None, None]
    wa, wb = w[:, :, None], w[:, None, :]
    f = np.exp(-1j * (wa + wb) * half) * np.sinc((wa - wb) * half / np.pi)
    h_eig = np.einsum("kxa,jxy,kyb->kjab", v.conj(), plant.hamiltonians[1:], v)
    # Re(a^H (F o (-i dt V^H H_j V)) b) = dt Im(a^H (F o V^H H_j V) b)
    return dts[:, None] * np.einsum("kab,kjab->kj", a.conj()[:, :, None] * f * b[:, None, :], h_eig).imag


def forward_states(props: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States psi_0 .. psi_m through the propagators, psi_{k+1} = U_k psi_k."""
    psis = np.empty((len(props) + 1, psi0.size), dtype=complex)
    psis[0] = psi0
    for k, prop in enumerate(props):
        psis[k + 1] = prop @ psis[k]
    return psis


def _finite_amplitudes(h: ControlledHamiltonian, x0: PhasePoint) -> np.ndarray:
    if x0.dim != h.dim:
        raise DimensionMismatchError("phase point and Hamiltonian dimensions differ")
    psi0 = x0.amplitudes
    if not np.all(np.isfinite(psi0)):
        raise NormalizationError("phase point has non-finite amplitudes")
    return psi0


def evolve_unitary(h: ControlledHamiltonian, t0: float, t1: float) -> np.ndarray:
    """Complex N x N propagator of the Schroedinger flow over [t0, t1]."""
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    u = np.eye(h.dim, dtype=complex)
    if t1 > t0:
        _, values, dts = h._pieces(np.array([t0, t1], dtype=float))
        for prop in interval_propagators(h, values, dts)[0]:
            u = prop @ u
    return u


def evolve(h: ControlledHamiltonian, x0: PhasePoint, t0: float, t1: float) -> PhasePoint:
    """Advance a phase point along Hamilton's equations from t0 to t1.

    Non-finite amplitudes raise ``NormalizationError``.
    """
    psi0 = _finite_amplitudes(h, x0)
    return PhasePoint.from_amplitudes(evolve_unitary(h, t0, t1) @ psi0)


def sample_trajectory(h: ControlledHamiltonian, x0: PhasePoint, times) -> tuple[np.ndarray, np.ndarray]:
    """Phase points and energies along the flow from x0 at times[0].

    ``times`` is a non-decreasing 1-d array of finite sample times.  The
    time axis is cut once at the samples and at the grid points between
    them, every piece is diagonalized in one ``interval_propagators`` call,
    and one ``forward_states`` pass gives the states.  Returns ``(points,
    energies)``: row i of ``points`` is the flat (q, p) vector at times[i],
    and energies[i] is ``ClassicalHamiltonian(H(times[i])).value`` of it,
    with the control in force at times[i] (``ControlSchedule.value_at``:
    right-continuous, clipped to the grid's ends).  Non-finite amplitudes
    raise ``NormalizationError``.
    """
    psi0 = _finite_amplitudes(h, x0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or not np.all(np.isfinite(times)) or np.any(np.diff(times) < 0):
        raise ValueError("times must be a non-decreasing 1-d array of finite sample times")
    cuts, values, dts = h._pieces(times)
    psis = forward_states(interval_propagators(h, values, dts)[0], psi0)[np.searchsorted(cuts, times)]
    coeffs = np.ones((times.size, 1 + len(h.controls)))
    if h.controls:
        coeffs[:, 1:] = h.schedule.value_at(times)
    energies = 0.5 * np.einsum("ia,ij,ajk,ik->i", coeffs, psis.conj(), h.hamiltonians, psis).real
    return np.concatenate([psis.real, psis.imag], axis=1), energies


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
