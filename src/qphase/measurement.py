"""Projective measurement and continuous observation as phase-space operations.

Selective projective measurement jumps the phase point onto the closest
point of the eigenspace in the G metric; non-selective measurement in a
nondegenerate basis produces an atomic phase-space density.  Continuous
observation integrates the double-commutator damping equation
``drho/dt = -i[H, rho] - (s/2)[L, [L, rho]]`` by classical RK4 with trace
renormalization: the Liouvillian is assembled once per call on the
row-major ``vec(rho)``, the RK4 step S is its degree-4 polynomial, and the
path advances in blocks of the stacked powers of S.  A step outside RK4's
stability region still diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PhaseEnsemble
from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    NormalizationError,
    ProtocolParameterError,
    ZeroProbabilityBranchError,
)
from .geometry import Observable, PhasePoint, _readonly, g_form, hermitian
from .rng import _index

_STATE_TOL = 1e-9
_ZERO_WEIGHT = 1e-14


def _positive(value) -> bool:
    """A finite number above 0; ``value <= 0`` alone lets NaN through."""
    return bool(np.isfinite(value) and value > 0)


def _require_normalized(psi: np.ndarray):
    norm_sq = float(np.vdot(psi, psi).real)
    if not abs(norm_sq - 1.0) <= _STATE_TOL:
        raise NormalizationError(f"state has squared norm {norm_sq!r}, expected 1")


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
    _require_normalized(psi)
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
    """Normalized projection of the amplitudes psi onto one spectral branch.

    A projection of norm at most 1e-15 raises ``ZeroProbabilityBranchError``.
    """
    post = a.project(psi, branch)
    nrm = np.linalg.norm(post)
    if nrm <= 1e-15:
        raise ZeroProbabilityBranchError(f"branch {branch} has zero weight: nothing to collapse onto")
    return post / nrm


def branch_outcome(
    psi: np.ndarray, a: Observable, probs: np.ndarray, branch: int
) -> MeasurementOutcome:
    """Outcome of a measurement of psi that landed on ``branch``; a zero-weight branch raises as in ``collapse``."""
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
    _require_normalized(x.amplitudes)
    d = x - PhasePoint.from_amplitudes(collapse(x.amplitudes, a, a.branch_index(eigenvalue)))
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
    psi = x.amplitudes
    d = x - PhasePoint.from_amplitudes(collapse(psi, a, a.branch_index(eigenvalue)))
    dist_min = g_form(d, d)
    basis = a.eigenspace_basis(eigenvalue)
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
    _require_normalized(x.amplitudes)
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
            raise NormalizationError("density matrix must have unit trace")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ProtocolParameterError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GaussianMeasurement:
    """Finite-resolution measurement of an observable over a time step dt.

    ``strength`` is the resolution s, the rate of the double-commutator
    damping that ``continuous_observe`` integrates.
    """

    observable: Observable
    strength: float
    dt: float

    def __post_init__(self):
        if not (_positive(self.strength) and _positive(self.dt)):
            raise ProtocolParameterError("strength and dt must be finite and positive")


def _step_matrix(hm: np.ndarray, lam: np.ndarray, s: float, dt: float) -> np.ndarray:
    """One classical RK4 step of the master equation as an ``N^2 x N^2`` matrix.

    On the row-major ``vec(rho)``, ``vec(A rho B) = (A kron B^T) vec(rho)``,
    so the right-hand side is the Liouvillian
    ``F = -i(H kron I - I kron H^T) - (s/2)(L^2 kron I + I kron (L^2)^T - 2 L kron L^T)``.
    The equation is linear and time-independent, so the step is RK4's
    polynomial ``I + z + z^2/2 + z^3/6 + z^4/24`` in ``z = dt F``, evaluated
    by Horner as ``I + z(I + z/2(I + z/3(I + z/4)))``.
    """
    n = hm.shape[0]
    eye, lam2 = np.eye(n), lam @ lam
    z = (-1j * dt) * (np.kron(hm, eye) - np.kron(eye, hm.T))
    z -= (0.5 * s * dt) * (np.kron(lam2, eye) + np.kron(eye, lam2.T) - 2.0 * np.kron(lam, lam.T))
    step = z / 4.0
    for j in (3.0, 2.0, 1.0):
        step.flat[:: n * n + 1] += 1.0
        step = z @ step / j
    step.flat[:: n * n + 1] += 1.0
    return step


def continuous_observe(
    rho0: DensityMatrix,
    h: Observable,
    m: GaussianMeasurement,
    t_final: float,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the non-selective continuous-observation master equation.

    Fixed-step classical RK4 with trace renormalization per step.  The RK4
    step is built once as an ``N^2 x N^2`` matrix S on the row-major
    ``vec(rho)``.  S preserves the trace, so in exact arithmetic
    ``rho_{k+j} = S^j rho_k / tr(S^j rho_k)``: the stacked powers
    ``[S; S^2; ...; S^b]`` are built once, and each block of b steps is one
    ``(b N^2) x N^2`` product with ``vec(rho_k)`` followed by one division by
    the b traces.  The block length is ``b = min(steps, 64, max(1, 2**18 //
    N**4))``, which keeps the stacked powers under about 4 MB (b = 1, the
    plain step, once N >= 23).  RK4 is only conditionally stable, so a step
    ``dt`` beyond its stability region still diverges (the renormalization
    does not stop that).  Returns (times, rhos) with rhos of shape
    (steps + 1, N, N).
    """
    if not _positive(t_final):
        raise ProtocolParameterError("t_final must be finite and positive")
    steps = _index(steps, "steps", low=1)
    hm = h.matrix
    lam = m.observable.matrix
    if hm.shape != lam.shape or rho0.dim != hm.shape[0]:
        raise DimensionMismatchError("rho, H and Lambda dimensions differ")
    n = hm.shape[0]
    nn = n * n
    block = min(steps, 64, max(1, 2**18 // nn**2))
    powers = np.empty((block, nn, nn), dtype=complex)
    powers[0] = _step_matrix(hm, lam, m.strength, t_final / steps)
    for j in range(1, block):
        np.matmul(powers[0], powers[j - 1], out=powers[j])
    powers = powers.reshape(block * nn, nn)
    times = np.linspace(0.0, t_final, steps + 1)
    rhos = np.empty((steps + 1,) + hm.shape, dtype=complex)
    vecs = rhos.reshape(steps + 1, nn)
    vecs[0] = rho0.matrix.ravel()
    for k in range(0, steps, block):
        b = min(block, steps - k)
        out = vecs[k + 1 : k + 1 + b]
        np.matmul(powers[: b * nn], vecs[k], out=out.reshape(b * nn))
        out /= out[:, :: n + 1].sum(axis=1).real[:, None]
    return times, rhos
