"""Projective and Gaussian generalized measurement as phase-space operations.

Selective projective measurement jumps the phase point onto the closest
point of the eigenspace in the G metric; non-selective measurement in a
nondegenerate basis produces an atomic phase-space density.  Continuous
observation integrates the double-commutator damping equation
``drho/dt = -i[H, rho] - (s/2)[L, [L, rho]]`` by classical RK4 with trace
renormalization, with the RK4 step precomputed once per call as one matrix
on the row-major ``vec(rho)``; a step outside RK4's stability region still
diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhaseEnsemble
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    NormalizationError,
    ZeroProbabilityBranchError,
)
from .geometry import Observable, PhasePoint, StateVector, _readonly, g_form, hermitian

_STATE_TOL = 1e-9
_ZERO_WEIGHT = 1e-14


def _positive(value) -> bool:
    """A finite number above 0; ``value <= 0`` alone lets NaN through."""
    return bool(np.isfinite(value) and value > 0)


def _require_normalized(x: PhasePoint):
    if not abs(x.norm_sq() - 1.0) <= _STATE_TOL:
        raise NormalizationError(f"phase point has squared norm {x.norm_sq()!r}, expected 1")


@dataclass(frozen=True)
class MeasurementOutcome:
    value: float
    probability: float
    post_state: PhasePoint
    branch: int = 0


def branch_probabilities(x: PhasePoint, a: Observable) -> np.ndarray:
    """Born weights ||P_a psi||^2 for every spectral branch."""
    return a.weights(x.amplitudes)


def born_weights(psi: np.ndarray, a: Observable) -> np.ndarray:
    """Odds of each spectral branch for the complex amplitudes psi.

    The Born weights scaled to sum 1; psi must be normalized, or
    ``NormalizationError`` is raised.
    """
    norm_sq = float(np.vdot(psi, psi).real)
    if not abs(norm_sq - 1.0) <= _STATE_TOL:
        raise NormalizationError(f"state has squared norm {norm_sq!r}, expected 1")
    probs = a.weights(psi)
    return probs / probs.sum()


def select_branches(probs: np.ndarray, uniforms) -> np.ndarray:
    """Branch index for each uniform in [0, 1), with odds ``probs``.

    The inverse-CDF rule of ``Generator.choice``; a zero-weight branch is
    never selected.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


def draw_branch(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Branch index drawn with odds ``probs`` from one uniform of ``rng``.

    Returns the same index as ``rng.choice(len(probs), p=probs)`` and leaves
    ``rng`` in the same state.
    """
    return int(select_branches(probs, rng.random()))


def collapse(psi: np.ndarray, a: Observable, branch: int) -> np.ndarray:
    """Normalized projection of the amplitudes psi onto one spectral branch."""
    post = a.project(psi, branch)
    return post / np.linalg.norm(post)


def branch_outcome(
    psi: np.ndarray, a: Observable, probs: np.ndarray, branch: int
) -> MeasurementOutcome:
    """Outcome of a measurement of psi that landed on ``branch``."""
    post = collapse(psi, a, branch)
    return MeasurementOutcome(
        value=a.eigenvalues[branch],
        probability=float(probs[branch]),
        post_state=PhasePoint.from_amplitudes(post),
        branch=branch,
    )


def measure_selective(
    x: PhasePoint, a: Observable, rng: np.random.Generator
) -> MeasurementOutcome:
    """Sample a projective outcome with Born statistics and jump the state."""
    psi = x.amplitudes
    probs = born_weights(psi, a)
    return branch_outcome(psi, a, probs, draw_branch(probs, rng))


def born_probability_via_metric(x: PhasePoint, a: Observable, eigenvalue: float) -> float:
    """Born weight computed from the G-metric distance to the projected state.

    Evaluates ``(1 - G(psi - psi_a, psi - psi_a)/2)^2`` where psi_a is the
    normalized projection onto the eigenspace; equals ||P_a psi||^2.
    """
    _require_normalized(x)
    ppsi = a.project(x.amplitudes, a.branch_index(eigenvalue))
    nrm = np.linalg.norm(ppsi)
    if nrm <= 1e-15:
        raise ZeroProbabilityBranchError("metric formula undefined on a zero-weight branch")
    d = x - PhasePoint.from_amplitudes(ppsi / nrm)
    return (1.0 - 0.5 * g_form(d, d)) ** 2


def closest_point_check(
    x: PhasePoint,
    a: Observable,
    eigenvalue: float,
    trials: int,
    rng: np.random.Generator,
) -> bool:
    """Verify the projected state minimizes the G distance over the eigenspace.

    Draws ``trials`` Haar-random normalized states in the eigenspace and
    checks none comes closer to x than the normalized projection.
    """
    basis = a.eigenspace_basis(eigenvalue)
    psi = x.amplitudes
    ppsi = basis @ (basis.conj().T @ psi)
    nrm = np.linalg.norm(ppsi)
    if nrm <= 1e-15:
        raise ZeroProbabilityBranchError("closest point undefined on a zero-weight branch")
    d = x - PhasePoint.from_amplitudes(ppsi / nrm)
    dist_min = g_form(d, d)
    # trial t draws its r real parts, then its r imaginary parts
    z = rng.normal(size=(trials, 2, basis.shape[1]))
    c = z[:, 0] + 1j * z[:, 1]
    phi = (c / np.linalg.norm(c, axis=1, keepdims=True)) @ basis.T
    dphi = psi - phi
    dist = np.sum(dphi.real**2 + dphi.imag**2, axis=1)
    return not np.any(dist < dist_min - 1e-12)


def measure_nonselective(x: PhasePoint, basis: Observable) -> PhaseEnsemble:
    """Atomic phase-space density after an unrecorded basis measurement.

    Each nonzero branch contributes an atom at the component-normalized
    basis direction with weight q_k^2 + p_k^2 (in the measured basis);
    zero-weight branches are omitted.
    """
    _require_normalized(x)
    if x.dim != basis.dim:
        raise DimensionMismatchError("state and basis dimensions differ")
    if not basis.is_nondegenerate():
        raise DegenerateBasisError(
            "coordinate-wise non-selective measurement needs a nondegenerate basis"
        )
    psi = x.amplitudes
    weights = basis.weights(psi)
    kept = np.flatnonzero(weights > _ZERO_WEIGHT)
    points = tuple(PhasePoint.from_amplitudes(collapse(psi, basis, b)) for b in kept)
    return PhaseEnsemble(weights[kept], points)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = hermitian(self.matrix, 1e-10)
        if not abs(np.trace(m).real - 1.0) <= 1e-10:
            raise ValueError("density matrix must have unit trace")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_state(cls, psi: StateVector) -> "DensityMatrix":
        a = psi.normalized().amplitudes
        return cls(np.outer(a, a.conj()))


@dataclass(frozen=True)
class GaussianMeasurement:
    """Finite-resolution measurement of an observable over a time step dt.

    ``strength`` is the resolution s; the readout density for a pure state
    is a mixture of Gaussians at the eigenvalues with variance 1/(4 s dt).
    """

    observable: Observable
    strength: float
    dt: float

    def __post_init__(self):
        if not (_positive(self.strength) and _positive(self.dt)):
            raise ValueError("strength and dt must be finite and positive")

    @property
    def readout_variance(self) -> float:
        return 1.0 / (4.0 * self.strength * self.dt)

    def readout_density(self, x: PhasePoint, alpha) -> np.ndarray:
        """Probability density of the readout alpha for state x."""
        alpha = np.asarray(alpha, dtype=float)[..., None]
        probs = branch_probabilities(x, self.observable)
        var = self.readout_variance
        kernels = np.exp(-((alpha - self.observable.eigenvalues) ** 2) / (2 * var))
        return kernels @ probs / np.sqrt(2 * np.pi * var)


def gaussian_apply(
    x: PhasePoint, m: GaussianMeasurement, rng: np.random.Generator
) -> tuple[float, PhasePoint]:
    """Selective generalized measurement: sample a readout, damp the state.

    The post state is exp(-s dt (Lambda - alpha)^2) psi renormalized; it is
    a projection only in the infinite-strength limit.
    """
    psi = x.amplitudes
    probs = born_weights(psi, m.observable)
    lam = m.observable.eigenvalues[draw_branch(probs, rng)]
    alpha = float(rng.normal(lam, np.sqrt(m.readout_variance)))
    sdt = m.strength * m.dt
    post = m.observable.apply(lambda val: np.exp(-sdt * (val - alpha) ** 2), psi)
    return alpha, PhasePoint.from_amplitudes(post / np.linalg.norm(post))


def _step_matrix(hm: np.ndarray, lam: np.ndarray, s: float, dt: float) -> np.ndarray:
    """One classical RK4 step of the master equation as an ``N^2 x N^2`` matrix.

    The equation is linear and time-independent, so the step is the fixed
    polynomial ``S = I + z + z^2/2 + z^3/6 + z^4/24`` in ``z = dt * F``, where
    F is the right-hand side as a linear map on the row-major ``vec(rho)``.
    Column j is the step of the j-th basis matrix; the four stages run on all
    ``N^2`` of them at once.
    """
    n = hm.shape[0]

    def rhs(rho):
        comm = hm @ rho - rho @ hm
        dbl = lam @ (lam @ rho - rho @ lam) - (lam @ rho - rho @ lam) @ lam
        return -1j * comm - 0.5 * s * dbl

    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    k1 = rhs(basis)
    k2 = rhs(basis + 0.5 * dt * k1)
    k3 = rhs(basis + 0.5 * dt * k2)
    k4 = rhs(basis + dt * k3)
    return (basis + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(n * n, n * n).T


def continuous_observe(
    rho0: DensityMatrix,
    h: Observable,
    m: GaussianMeasurement,
    t_final: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the non-selective continuous-observation master equation.

    Fixed-step classical RK4 with trace renormalization per step: the RK4
    step is built once as an ``N^2 x N^2`` matrix on the row-major
    ``vec(rho)``, and each step is one product with it followed by a
    division by the trace.  RK4 is only conditionally stable, so a step
    ``dt`` beyond its stability region still diverges (the renormalization
    does not stop that).  Returns (times, rhos) with rhos of shape
    (steps + 1, N, N).
    """
    if not _positive(t_final):
        raise ValueError("t_final must be finite and positive")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError("steps must be an integer >= 1")
    hm = h.matrix
    lam = m.observable.matrix
    if hm.shape != lam.shape or rho0.dim != hm.shape[0]:
        raise DimensionMismatchError("rho, H and Lambda dimensions differ")
    n = hm.shape[0]
    step = _step_matrix(hm, lam, m.strength, t_final / steps)
    times = np.linspace(0.0, t_final, steps + 1)
    rhos = np.empty((steps + 1,) + hm.shape, dtype=complex)
    vecs = rhos.reshape(steps + 1, n * n)
    vecs[0] = rho0.matrix.ravel()
    for k in range(steps):
        v = np.matmul(step, vecs[k], out=vecs[k + 1])
        v /= v[:: n + 1].sum().real
    return times, rhos
