"""Lie-algebra closure of drift/control Hamiltonians and orbit search.

Unitary controllability of H(t) = H0 + sum u_j H_j is decided by the
dimension of the Lie algebra generated by {i H0, i H1, ...} inside u(N):
dimension N^2 means full u(N) control, N^2 - 1 with traceless generators
means su(N) (phases not controllable), anything smaller leaves the complex
sphere foliated into proper orbits.  The closure basis is one stacked
array, orthonormalised by classical Gram-Schmidt with re-orthogonalisation
under a fixed tolerance; a closure of dimension 0 still knows N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._solvers import minimize_box
from .dynamics import ControlledHamiltonian, _as_hermitian, interval_propagators, overlap_gradient
from .errors import DimensionMismatchError, ProtocolParameterError
from .geometry import PhasePoint, from_phase
from .rng import _index

VERDICT_U = "controllable-u(N)"
VERDICT_SU = "controllable-su(N)"
VERDICT_NOT = "not-controllable"

_FIDELITY_TOL = 1e-6  # orbit membership is accepted at fidelity >= 1 - this
_CLOSURE_TOL = 1e-10


@dataclass(frozen=True)
class LieClosureReport:
    """Read-only ``(d, N, N)`` stack of skew-Hermitian B_m, orthonormal in
    Re tr(A^H B) (``gram``); every size is read from its shape, also at d = 0."""

    basis: np.ndarray
    verdict: str
    gram: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    @property
    def target_dims(self) -> tuple:
        n = self.basis.shape[1]
        return (n * n, n * n - 1)

    @cached_property
    def _plant(self) -> ControlledHamiltonian:
        # exp(sum theta_m B_m) = exp(-i sum theta_m (i B_m)): the basis as
        # the Hermitian controls i B_m of a zero-drift plant
        n = self.basis.shape[1]
        return ControlledHamiltonian(np.zeros((n, n)), 1j * self.basis)

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "verdict": self.verdict,
            "target_dims": list(self.target_dims),
            "gram": self.gram.tolist(),
        }


def lie_closure(generators) -> LieClosureReport:
    """Closure of {i H_k} under commutators, orthonormalized in HS norm.

    Row k of one ``(N^2, N^2)`` array is basis element k, flattened.  Each
    candidate (the generators, then [B_a, B_b] for b among the last round's
    additions and a before them) is scaled to unit norm and projected off
    the rows twice (classical Gram-Schmidt with re-orthogonalisation in
    Re(a^H b)); it is kept unless either norm is at most ``_CLOSURE_TOL``,
    1e-10.  Rounds stop at N^2 or when one adds nothing.  Each generator
    is a Hermitian matrix or an ``Observable``, checked without an
    eigendecomposition; H is traceless when |tr H| <= 1e-10 max(1, max|H_ij|).
    """
    gens = [_as_hermitian(g) for g in generators]
    if not gens:
        raise ProtocolParameterError("at least one generator required")
    n = gens[0].shape[0]
    if any(g.shape[0] != n for g in gens):
        raise DimensionMismatchError("generators must share one dimension")

    max_dim = n * n
    q = np.zeros((max_dim, max_dim), dtype=complex)
    qc = np.zeros_like(q)  # qc[:d] == q[:d].conj(), written as each row is accepted
    d = 0

    def try_add(m: np.ndarray) -> None:
        nonlocal d
        scale = np.linalg.norm(m)
        if scale <= _CLOSURE_TOL:
            return
        v = m.ravel() / scale
        for _ in range(2):  # re-orthogonalize for stability
            v -= np.real(qc[:d] @ v) @ q[:d]
        nv = np.linalg.norm(v)
        if nv > _CLOSURE_TOL:
            q[d] = v / nv
            np.conjugate(q[d], out=qc[d])
            d += 1

    for g in gens:
        try_add(1j * g)
    basis = q.reshape(max_dim, n, n)
    lo, hi = 0, d
    while lo < hi and d < max_dim:
        for a, b in itertools.product(range(hi), range(lo, hi)):
            try_add(basis[a] @ basis[b] - basis[b] @ basis[a])
            if d == max_dim:
                break
        lo, hi = hi, d

    traceless = all(abs(np.trace(g)) <= 1e-10 * max(1.0, np.max(np.abs(g))) for g in gens)
    if d == max_dim:
        verdict = VERDICT_U
    elif traceless and d == max_dim - 1:
        verdict = VERDICT_SU
    else:
        verdict = VERDICT_NOT
    q.flags.writeable = False
    return LieClosureReport(q[:d].reshape(d, n, n), verdict, np.real(qc[:d] @ q[:d].T))


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
    """exp(sum_m params_m B_m) over the closure basis, one finite coefficient per element."""
    params = np.atleast_1d(params)
    if params.shape != (report.dimension,):
        raise DimensionMismatchError(
            f"{report.dimension} coefficients expected for a closure of dimension {report.dimension}, "
            f"got {params.size}"
        )
    if not np.all(np.isfinite(params)):
        raise ProtocolParameterError(f"closure coefficients must be finite, got {params.tolist()}")
    props, _, _ = interval_propagators(report._plant, params[None, :], [1.0])
    return props[0]


def _orbit_search(report: LieClosureReport, psi: np.ndarray, terminal, goal: float, budget: int, rng):
    """Random restarts of ``minimize_box`` over theta for value(exp(sum theta_m B_m) psi) <= goal.

    ``terminal(phi)`` is ``(value, lam)`` with d value = Re<lam|d phi>, whose
    exact theta gradient is ``dynamics.overlap_gradient``.  Restarts draw theta
    from U[-pi, pi]^d while the budget lasts, each objective call charged d + 1
    evaluations (value and gradient), so the last may overrun it.  Returns
    ``(theta, value, evaluations)``: the first theta at the goal, or None and the best value.
    """
    d, plant, unit = report.dimension, report._plant, np.ones(1)
    bound = np.full(d, np.inf)

    def objective(theta):
        props, w, v = interval_propagators(plant, theta[None], unit)
        value, lam = terminal(props[0] @ psi)
        return value, overlap_gradient(plant, w, v, unit, psi[None], lam[None])[0]

    evals, best = 0, np.inf
    while evals < budget:
        res = minimize_box(objective, rng.uniform(-np.pi, np.pi, d), lower=-bound, upper=bound, ftol=0.0, gtol=1e-13)
        evals += res.nfev * (d + 1)
        if res.fun <= goal:
            return res.x, res.fun, evals
        best = min(best, res.fun)
    return None, best, evals


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
    copies may sit on different fibers.  ``_orbit_search`` minimises
    1 - Re<y|U(theta)x> to fidelity 1 - 1e-6; ``budget``, a non-negative
    integer, counts d + 1 evaluations per objective call of a closure of
    dimension d, and the last restart may overrun it.
    """
    n = report._plant.dim
    if not x.dim == y.dim == n:
        raise DimensionMismatchError(f"states of dimensions {x.dim}, {y.dim} against a closure on C^{n}")
    _index(budget, "budget")
    rng = np.random.default_rng(0) if rng is None else rng
    psi_x = from_phase(x).normalized().amplitudes
    psi_y = from_phase(y).normalized().amplitudes
    d = report.dimension
    threshold = np.sqrt(1.0 - _FIDELITY_TOL)

    overlap = np.vdot(psi_y, psi_x)
    if np.real(overlap) >= threshold:
        return OrbitMembership(True, np.zeros(d), abs(overlap) ** 2, 0)
    if d == 0:  # the group is {1}: nothing to search
        return OrbitMembership(False, None, max(np.real(overlap), 0.0) ** 2, 0)

    theta, value, evals = _orbit_search(report, psi_x, lambda phi: (1.0 - np.vdot(psi_y, phi).real, -psi_y),
                                        1.0 - threshold, budget, rng)
    return OrbitMembership(theta is not None, theta, max(1.0 - value, 0.0) ** 2, evals)
