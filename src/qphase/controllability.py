"""Lie-algebra closure of drift/control Hamiltonians and orbit search.

Unitary controllability of H(t) = H0 + sum u_j H_j is decided by the
dimension of the Lie algebra generated by {i H0, i H1, ...} inside u(N):
dimension N^2 means full u(N) control, N^2 - 1 with traceless generators
means su(N) (phases not controllable), anything smaller leaves the complex
sphere foliated into proper orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._solvers import minimize
from .dynamics import ControlledHamiltonian, interval_propagators
from .errors import DimensionMismatchError
from .geometry import Observable, PhasePoint, from_phase

VERDICT_U = "controllable-u(N)"
VERDICT_SU = "controllable-su(N)"
VERDICT_NOT = "not-controllable"

_FIDELITY_TOL = 1e-6  # orbit membership is accepted at fidelity >= 1 - this


def _vec(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    half = n * n
    return v[:half].reshape(n, n) + 1j * v[half:].reshape(n, n)


@dataclass(frozen=True)
class LieClosureReport:
    dimension: int
    basis: tuple
    verdict: str
    target_dims: tuple
    gram: np.ndarray

    @cached_property
    def _plant(self) -> ControlledHamiltonian:
        # exp(sum theta_m B_m) = exp(-i sum theta_m (i B_m)): the basis as
        # the Hermitian controls i B_m of a zero-drift plant
        n = self.basis[0].shape[0]
        return ControlledHamiltonian(np.zeros((n, n)), tuple(1j * b for b in self.basis))

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "verdict": self.verdict,
            "target_dims": list(self.target_dims),
            "gram": [[float(x) for x in row] for row in self.gram],
        }


def lie_closure(generators, tol: float = 1e-10) -> LieClosureReport:
    """Closure of {i H_k} under commutators, orthonormalized in HS norm."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    gens = [g if isinstance(g, Observable) else Observable(g) for g in generators]
    if not gens:
        raise ValueError("at least one generator required")
    n = gens[0].dim
    if any(g.dim != n for g in gens):
        raise DimensionMismatchError("generators must share one dimension")

    basis_vecs: list[np.ndarray] = []
    basis_mats: list[np.ndarray] = []

    def try_add(m: np.ndarray) -> bool:
        scale = np.linalg.norm(m)
        if scale <= tol:
            return False
        v = _vec(m / scale)
        for _ in range(2):  # re-orthogonalize for stability
            for b in basis_vecs:
                v = v - np.dot(v, b) * b
        nv = np.linalg.norm(v)
        if nv <= tol:
            return False
        v = v / nv
        basis_vecs.append(v)
        basis_mats.append(_unvec(v, n))
        return True

    for g in gens:
        try_add(1j * g.matrix)
    frontier = list(basis_mats)
    max_dim = n * n
    for _ in range(max_dim):
        if len(basis_mats) >= max_dim or not frontier:
            break
        new = []
        snapshot = list(basis_mats)
        for a in snapshot:
            for b in frontier:
                c = a @ b - b @ a
                if try_add(c):
                    new.append(basis_mats[-1])
                    if len(basis_mats) >= max_dim:
                        break
            if len(basis_mats) >= max_dim:
                break
        frontier = new

    dim = len(basis_mats)
    traceless = all(g.is_traceless() for g in gens)
    if dim == max_dim:
        verdict = VERDICT_U
    elif traceless and dim == max_dim - 1:
        verdict = VERDICT_SU
    else:
        verdict = VERDICT_NOT
    gram = np.array([[np.dot(u, v) for v in basis_vecs] for u in basis_vecs])
    return LieClosureReport(
        dimension=dim,
        basis=tuple(basis_mats),
        verdict=verdict,
        target_dims=(max_dim, max_dim - 1),
        gram=gram,
    )


@dataclass(frozen=True)
class OrbitMembership:
    """Search result; a False verdict means 'not found within budget' only."""

    found: bool
    certificate: np.ndarray | None
    fidelity: float
    evaluations: int

    def __bool__(self) -> bool:
        return self.found


def group_element(report: LieClosureReport, params: np.ndarray) -> np.ndarray:
    """exp(sum_m params_m B_m) over the closure basis, one coefficient per element."""
    params = np.atleast_1d(params)
    if params.shape != (report.dimension,):
        raise DimensionMismatchError(
            f"{report.dimension} coefficients expected for a closure of dimension {report.dimension}, "
            f"got {params.size}"
        )
    props, _, _ = interval_propagators(report._plant, params[None, :], [1.0])
    return props[0]


def orbit_membership(
    report: LieClosureReport,
    x: PhasePoint,
    y: PhasePoint,
    budget: int = 20000,
    rng: np.random.Generator | None = None,
) -> OrbitMembership:
    """Search products exp(sum theta_m B_m) mapping x exactly onto y.

    Membership is phase-exact: the generated group supplies a global phase
    only when the closure contains one, so a state and its phase-rotated
    copies may sit on different fibers.  Random-restart local optimization
    over exponential coordinates; the budget counts objective evaluations.
    """
    n = report._plant.dim
    if not x.dim == y.dim == n:
        raise DimensionMismatchError(f"states of dimensions {x.dim}, {y.dim} against a closure on C^{n}")
    rng = np.random.default_rng(0) if rng is None else rng
    psi_x = from_phase(x).normalized().amplitudes
    psi_y = from_phase(y).normalized().amplitudes
    d = report.dimension
    threshold = np.sqrt(1.0 - _FIDELITY_TOL)

    def aligned_overlap(theta: np.ndarray) -> float:
        u = group_element(report, theta)
        return float(np.real(np.vdot(psi_y, u @ psi_x)))

    if np.real(np.vdot(psi_y, psi_x)) >= threshold:
        return OrbitMembership(True, np.zeros(0), abs(np.vdot(psi_y, psi_x)) ** 2, 0)

    evals = 0
    best_ov, best_theta = -2.0, None
    while evals < budget:
        theta0 = rng.uniform(-np.pi, np.pi, d)
        res = minimize(
            lambda t: 1.0 - aligned_overlap(t),
            theta0,
            method="Nelder-Mead",
            options={
                "maxfev": min(budget - evals, 400 * d),
                "xatol": 1e-12,
                "fatol": 1e-14,
            },
        )
        evals += res.nfev
        ov = 1.0 - res.fun
        if ov > best_ov:
            best_ov, best_theta = ov, res.x
        if best_ov >= threshold:
            return OrbitMembership(True, best_theta, best_ov**2, evals)
    return OrbitMembership(False, None, max(best_ov, 0.0) ** 2, evals)
