"""Optimal control of finite-level phase-space flows by the maximum principle.

The state is extended with a running cost coordinate x0; the control
Hamiltonian **H** = phi0 X0 + phi . L(u) z couples the adjoint phi to the cost
integrand X0 and to the linear Hamilton fields of the controlled plant.
The running cost is the control energy |u|^2 or the l1 norm sum |u_j|, and
for both the argmax of **H** over a box of controls is closed form.
The fixed terminal state is enforced by a quadratic penalty on the
phase-invariant infidelity, escalated geometrically: one damped
forward-backward argmax sweep, stopping at its first non-improving step,
warm-starts the solve, and each penalty round is a polish alone, bounded
quasi-Newton steps on exact discrete gradients.  For the l1 cost those
steps run on the split u = u+ - u- with u+, u- >= 0, where the running cost
sum(u+ + u-) is linear and the objective smooth, not on the kink of |u_j|
at 0.  Single shooting on the initial adjoint cross-checks the energy cost.

Internally states and adjoints are complex amplitudes psi = q + i p, and
every pass over the grid propagates with one batched eigendecomposition
(``dynamics.interval_propagators``) and the shared forward loop
(``dynamics.forward_states``); exact gradients come from Daleckii-Krein
divided differences in the same eigenbasis (``dynamics.overlap_gradient``).
Both solvers pose one ``_TransferProblem``, validated once.  The sweep keeps
the pass of the schedule it holds and runs the adjoint back over it; a
penalty round reads F from its polish's last pass, and propagates again only
when that pass was at a rejected trial.  Flat (q, p) coordinates appear only
at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._solvers import minimize_box as minimize  # tests and the benchmark's tracer hook this name
from ._solvers import never_called
from .dynamics import (ControlSchedule, ControlledHamiltonian, check_grid, forward_states, interval_propagators,
                       overlap_gradient)
from .errors import ControlDomainError, DimensionMismatchError, NormalizationError, ProtocolParameterError
from .geometry import PhasePoint, _readonly

expm = expm_frechet = never_called  # the benchmark's tracer looks these up here by name

COST_ENERGY = "control-energy"
COST_L1 = "control-l1"
COST_KINDS = (COST_ENERGY, COST_L1)

# the warm start makes at most _MAX_SWEEPS argmax sweeps damped by _DAMPING
# at the weight _PENALTY_WEIGHT, stopping at its first non-improving step or
# a step below _STEP_TOL; the weight then grows 4x per polish round, for at
# most _PENALTY_ROUNDS rounds, until the terminal fidelity reaches FIDELITY_GOAL
FIDELITY_GOAL = 0.999
_PENALTY_WEIGHT = 4.0
_PENALTY_ROUNDS = 6
_MAX_SWEEPS = 60
_DAMPING = 0.5
_STEP_TOL = 1e-6
_SQRT_EPS = np.sqrt(np.finfo(float).eps)  # relative step of the shooting Jacobian


@dataclass(frozen=True)
class ControlDomain:
    """Per-channel closed interval bounds on the control amplitudes."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ControlDomainError("lower and upper bounds must be 1-d and share a shape")
        if not np.all(lo <= hi):  # also false for a NaN bound
            raise ControlDomainError("each channel needs lower <= upper, neither NaN")
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(hi))

    @property
    def n_channels(self) -> int:
        return self.lower.size

    def contains(self, u) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != self.lower.shape:
            return False
        return bool(np.all(u >= self.lower - 1e-12) and np.all(u <= self.upper + 1e-12))

    def clip(self, u) -> np.ndarray:
        return np.clip(np.atleast_1d(np.asarray(u, dtype=float)), self.lower, self.upper)


@dataclass(frozen=True)
class CostIntegrand:
    """Running cost X0(u) >= 0: 'control-energy' is |u|^2, 'control-l1' is sum |u_j|.

    The one place that branches on the cost kind; every method works on the
    last axis of ``u``, so a whole schedule is costed at once.
    """

    kind: str = COST_ENERGY

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ProtocolParameterError(f"unknown cost kind {self.kind!r}, expected one of {COST_KINDS}")

    def rate(self, u) -> np.ndarray:
        """X0 of each row of ``u``."""
        u = np.asarray(u, dtype=float)
        return np.sum(u * u if self.kind == COST_ENERGY else np.abs(u), axis=-1)

    def _split(self, lower: np.ndarray, upper: np.ndarray):
        """Variables x of the quasi-Newton polish: (lift, x lower, x upper), u = x @ lift.

        The energy cost polishes u itself. The l1 cost polishes x = [u+, u-],
        u = u+ - u- with u+, u- >= 0, on which sum |u_j| becomes the linear
        sum(u+ + u-); the bounds also hold for boxes on one side of 0.
        """
        r = lower.size
        if self.kind == COST_ENERGY:
            return np.eye(r), lower, upper
        lift = np.vstack([np.eye(r), -np.eye(r)])
        return (lift, np.maximum(np.concatenate([lower, -upper]), 0.0),
                np.maximum(np.concatenate([upper, -lower]), 0.0))

    def _split_rate(self, x: np.ndarray):
        """Running cost of each row of polish variables ``x`` and its gradient."""
        if self.kind == COST_ENERGY:
            return self.rate(x), 2.0 * x
        return np.sum(x, axis=-1), np.ones_like(x)

    def vertex(self, slopes: np.ndarray, phi0: float) -> np.ndarray | None:
        """Stationary point of slopes . u + phi0 X0(u) where it is strictly concave, else None."""
        if self.kind == COST_ENERGY and phi0 < 0:
            return -slopes / (2.0 * phi0)
        return None


@dataclass(frozen=True)
class PmpState:
    """Extended state (x0; q; p) with an adjoint of equal dimension."""

    x: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        if x.ndim != 1 or x.shape != phi.shape or x.size < 3 or x.size % 2 == 0:
            raise DimensionMismatchError("extended state and adjoint must both have size 2N+1")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "phi", _readonly(phi))

    @property
    def dim(self) -> int:
        return (self.x.size - 1) // 2

    @property
    def point(self) -> PhasePoint:
        n = self.dim
        return PhasePoint(self.x[1 : 1 + n], self.x[1 + n :])


@dataclass(frozen=True)
class PmpSolution:
    schedule: ControlSchedule
    cost: float
    fidelity: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "grid": [float(t) for t in self.schedule.grid],
            "controls": [[float(u) for u in row] for row in self.schedule.values],
            "cost": self.cost,
            "fidelity": self.fidelity,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def control_hamiltonian(
    s: PmpState,
    u,
    plant: ControlledHamiltonian,
    cost: CostIntegrand,
    domain: ControlDomain | None = None,
) -> float:
    """**H**(x, phi, u) = phi0 X0(u) + phi_z . L(u) z, the coupling being Im(phi^H H(u) psi)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if domain is not None and not domain.contains(u):
        raise ControlDomainError(f"control {u} outside the domain")
    if s.dim != plant.dim:
        raise DimensionMismatchError("state and plant dimensions differ")
    psi, phi = s.point.amplitudes, PhasePoint.from_flat(s.phi[1:]).amplitudes
    return float(s.phi[0] * cost.rate(u) + np.vdot(phi, plant.matrix_for(u) @ psi).imag)


def _slopes(plant: ControlledHamiltonian, psis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coupling slopes c[k, j] = phi_k . L_j z_k = Im(phi_k^H H_j psi_k) for every row k."""
    return np.einsum("kx,jxy,ky->kj", phis.conj(), plant.hamiltonians[1:], psis).imag


def _maximize(slopes: np.ndarray, phi0: float, cost: CostIntegrand, domain: ControlDomain) -> np.ndarray:
    """Row-wise maximizer of phi0 X0(u) + slopes[k] . u over the box domain.

    Closed form for all rows at once: the clipped vertex where the function
    is strictly concave, else a bound or 0, ties resolving to the smallest
    |u|, then the smallest u.
    """
    vertex = cost.vertex(slopes, phi0)
    if vertex is not None:
        return np.clip(vertex, domain.lower, domain.upper)
    u = np.empty_like(slopes)
    for j, (lo, hi) in enumerate(zip(domain.lower, domain.upper)):
        # affine or convex along the channel: a bound or 0 maximizes; the
        # candidates are listed in tie-break order, so the first tie wins
        cands = np.array(sorted({lo, hi} | ({0.0} if lo <= 0.0 <= hi else set()), key=lambda v: (abs(v), v)))
        values = slopes[:, j, None] * cands + phi0 * cost.rate(cands[:, None])
        ties = values >= values.max(axis=1, keepdims=True) - 1e-15
        u[:, j] = cands[np.argmax(ties, axis=1)]
    return u


def argmax_control(
    s: PmpState,
    plant: ControlledHamiltonian,
    cost: CostIntegrand,
    domain: ControlDomain,
) -> np.ndarray:
    """Channel-wise maximizer of the control Hamiltonian over the box domain.

    For the bilinear plant the coupling is affine in u with slopes
    c_j = phi_z . L_j z, and the energy and l1 costs maximize in closed form.
    """
    if s.dim != plant.dim:
        raise DimensionMismatchError("state and plant dimensions differ")
    if len(plant.controls) != domain.n_channels:
        raise DimensionMismatchError("domain channel count must match the plant controls")
    psi, phi = s.point.amplitudes[None], PhasePoint.from_flat(s.phi[1:]).amplitudes[None]
    return _maximize(_slopes(plant, psi, phi), float(s.phi[0]), cost, domain)[0]


def _backward(props: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Adjoints lam_0 .. lam_m from lam_m = lam, lam_k = U_k^H lam_{k+1}."""
    return forward_states(props.conj().transpose(0, 2, 1)[::-1], lam)[::-1]


def _propagate(plant, u: np.ndarray, psi0: np.ndarray, goal: np.ndarray, dts: np.ndarray):
    """One pass of the schedule u: (props, w, v) of ``interval_propagators``, the states and <goal|psi(T)>."""
    props, w, v = interval_propagators(plant, u, dts)
    psis = forward_states(props, psi0)
    return props, w, v, psis, np.vdot(goal, psis[-1])


class _TransferProblem:
    """The discrete problem psi0 -> goal on the grid, validated and normalised by its constructor alone."""

    def __init__(self, plant, x_init, x_goal, cost, domain, grid):
        self.grid = check_grid(grid)
        for name, x in (("x_init", x_init), ("x_goal", x_goal)):
            if x.dim != plant.dim:
                raise DimensionMismatchError(f"{name} has dimension {x.dim}, the plant {plant.dim}")
            if not x.norm_sq() > 0:
                raise NormalizationError(f"{name} cannot be normalized (|x|^2 = {x.norm_sq()})")
        if domain.n_channels != len(plant.controls):
            raise DimensionMismatchError("domain channel count must match the plant controls")
        self.psi0, self.goal = (x.amplitudes / np.sqrt(x.norm_sq()) for x in (x_init, x_goal))
        self.plant, self.cost = plant, cost
        self.dts = np.diff(self.grid)
        self.lift, self.x_lower, self.x_upper = cost._split(domain.lower, domain.upper)
        self._last = (None, None)  # (u, pass) of the latest objective evaluation, for score to reuse

    def score(self, u):
        """The pass of the schedule u (the latest objective pass if it was at u), its fidelity and its running cost."""
        last_u, propagated = self._last
        if not np.array_equal(last_u, u):
            propagated = _propagate(self.plant, u, self.psi0, self.goal, self.dts)
        return propagated, float(abs(propagated[4]) ** 2), float(self.cost.rate(u) @ self.dts)

    def objective(self, x_flat, weight):
        """Penalized objective of the polish variables x, u = x @ lift, and its exact gradient."""
        x = x_flat.reshape(self.dts.size, -1)
        u = x @ self.lift
        self._last = u, _propagate(self.plant, u, self.psi0, self.goal, self.dts)
        props, w, v, psis, overlap = self._last[1]
        rate, rate_grad = self.cost._split_rate(x)
        value = float(rate @ self.dts) + weight * (1.0 - abs(overlap) ** 2)
        lams = _backward(props, -2.0 * weight * overlap * self.goal)  # d(penalty)/dpsi_T
        grad = overlap_gradient(self.plant, w, v, self.dts, psis[:-1], lams[1:]) @ self.lift.T  # d/du to d/dx
        grad += rate_grad * self.dts[:, None]
        return value, grad.ravel()

    def polish(self, u, weight):
        """One penalty round at weight w from u: the polished schedule, its score and ``nit``."""
        m = self.dts.size
        x0 = np.clip(u @ self.lift.T, self.x_lower, self.x_upper).ravel()  # for l1, [u, -u] clipped is [u+, u-]
        res = minimize(self.objective, x0, args=(weight,), lower=np.tile(self.x_lower, m),
                       upper=np.tile(self.x_upper, m))
        u = res.x.reshape(m, -1) @ self.lift  # x @ lift over the split box lies in the domain: no clip
        return u, self.score(u), int(res.nit)

    def solution(self, u, fid, run_cost, iterations) -> PmpSolution:
        return PmpSolution(ControlSchedule(self.grid, u), run_cost, fid, iterations, fid >= FIDELITY_GOAL)


def forward_backward_sweep(
    plant: ControlledHamiltonian,
    x_init: PhasePoint,
    x_goal: PhasePoint,
    cost: CostIntegrand,
    domain: ControlDomain,
    grid: np.ndarray,
    rng: np.random.Generator | None = None,
) -> PmpSolution:
    """Penalized maximum-principle solve on the control grid ``grid``.

    The warm start runs the damped argmax sweep once, at the first penalty
    weight, up to its first non-improving step.  Each penalty round then
    polishes from the schedule the last stage left, on exact discrete
    gradients with the bound-constrained quasi-Newton solver
    ``_solvers.minimize_box``; the weight escalates geometrically until the
    fidelity reaches ``FIDELITY_GOAL`` or the round budget runs out.
    The polish works on the variables of ``CostIntegrand._split``, u or for
    the l1 cost [u+, u-]; u+ - u- already lies in the domain, and the
    reported cost is sum X0(u) dt of that schedule.

    The solution's ``iterations`` counts the warm start's argmax sweeps,
    the non-improving one included, plus the accepted quasi-Newton steps
    (``nit``) of every polish; it does not count objective evaluations or
    rejected line-search trials.
    """
    problem = _TransferProblem(plant, x_init, x_goal, cost, domain, grid)
    rng = np.random.default_rng(0) if rng is None else rng
    r, m = len(plant.controls), problem.dts.size

    best_u = np.tile(domain.clip(np.zeros(r)), (m, 1))
    _, best_fid, best_cost = problem.score(best_u)
    weight = _PENALTY_WEIGHT

    if best_fid >= FIDELITY_GOAL or np.allclose(domain.lower, domain.upper) or r == 0:
        return problem.solution(best_u, best_fid, best_cost, 0)

    # warm start: damped argmax sweeps at the first weight from a deterministic
    # non-zero start; u = 0 is a stationary saddle whenever the drift image of
    # the start is orthogonal to the goal
    u = rng.uniform(-0.5, 0.5, size=(m, r)) * (domain.upper - domain.lower) / 2.0
    u = np.clip(u, domain.lower, domain.upper)
    current, fid, run_cost = problem.score(u)
    value = run_cost + weight * (1.0 - fid)
    for iterations in range(1, _MAX_SWEEPS + 1):
        props, _, _, psis, overlap = current
        # the adjoint starts at the gradient of -w(1 - |<goal|psi(T)>|^2)
        phis = _backward(props, 2.0 * weight * overlap * problem.goal)
        u_star = _maximize(_slopes(plant, psis[:-1], phis[:-1]), -1.0, cost, domain)
        u_new = np.clip((1.0 - _DAMPING) * u + _DAMPING * u_star, domain.lower, domain.upper)
        current, new_fid, new_cost = problem.score(u_new)
        new_value = new_cost + weight * (1.0 - new_fid)
        if new_value > value + 1e-12:
            break  # the first non-improving step hands the solve to the polish
        step = float(np.max(np.abs(u_new - u)))  # r = 0 returned above, so u is not empty
        u, value = u_new, new_value
        if step < _STEP_TOL:
            break

    # penalty rounds: polish only, each from the schedule the last one left
    for _round in range(_PENALTY_ROUNDS):
        u, (_, fid, run_cost), nit = problem.polish(u, weight)
        iterations += nit
        if fid >= best_fid - 1e-12:
            best_fid, best_cost, best_u = fid, run_cost, np.array(u)
        if best_fid >= FIDELITY_GOAL:
            break
        weight *= 4.0

    return problem.solution(best_u, best_fid, best_cost, iterations)


def solve_shooting(
    plant: ControlledHamiltonian,
    x_init: PhasePoint,
    x_goal: PhasePoint,
    cost: CostIntegrand,
    domain: ControlDomain,
    grid: np.ndarray,
) -> PmpSolution:
    """Cross-check mode: single shooting on the initial adjoint.

    The control on each interval is the argmax for the current (state,
    adjoint) pair at the interval start; the residual r is the phase-aligned
    terminal state mismatch.  ``minimize_box``, unbounded, minimises |r|^2 / 2
    from the adjoint goal - psi0 on the gradient J^T r, J the forward-difference
    Jacobian with the steps sqrt(eps) max(1, |x_i|) signed as x_i, so each
    evaluation costs 1 + 2N rollouts.  The solution's ``iterations`` counts
    those evaluations.  The l1 cost raises ``ProtocolParameterError``.
    """
    if cost.kind == COST_L1:
        raise ProtocolParameterError("solve_shooting needs the energy cost: the l1 argmax is bang-off-bang, so "
                                     "the terminal residual is piecewise constant in the adjoint and has no slope")
    problem = _TransferProblem(plant, x_init, x_goal, cost, domain, grid)
    psi0, goal, dts = problem.psi0, problem.goal, problem.dts

    def rollout(phi_flat):
        psi, phi = psi0, PhasePoint.from_flat(phi_flat).amplitudes
        u = np.empty((dts.size, len(plant.controls)))
        for k in range(dts.size):
            u[k] = _maximize(_slopes(plant, psi[None], phi[None]), -1.0, cost, domain)[0]
            prop = interval_propagators(plant, u[k : k + 1], dts[k : k + 1])[0][0]
            # the generator is anti-Hermitian, so the adjoint shares the flow
            psi, phi = prop @ psi, prop @ phi
        return psi, u

    def residual(phi_flat):
        psi_final, _ = rollout(phi_flat)
        overlap = np.vdot(goal, psi_final)
        nrm = abs(overlap)
        aligned = goal if nrm <= 1e-15 else overlap / nrm * goal
        return PhasePoint.from_amplitudes(psi_final - aligned).flat()

    def objective(phi_flat):
        """|r|^2 / 2 and its gradient J^T r, J the forward-difference Jacobian of r."""
        r = residual(phi_flat)
        steps = _SQRT_EPS * np.where(phi_flat >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(phi_flat))
        shifted = phi_flat + np.diag(steps)  # row i moves entry i alone
        jac = np.stack([residual(x) - r for x in shifted], axis=1) / (shifted.diagonal() - phi_flat)
        return 0.5 * float(r @ r), r @ jac

    guess = PhasePoint.from_amplitudes(goal - psi0).flat()
    res = minimize(objective, guess, lower=-np.inf, upper=np.inf, ftol=0.0, gtol=1e-15)
    _, u = rollout(res.x)
    return problem.solution(u, *problem.score(u)[1:], int(res.nfev))
