"""Optimal control of finite-level phase-space flows by the maximum principle.

The state is extended with a running cost coordinate x0; the control
Hamiltonian **H** = phi0 X0 + phi . L(u) z couples the adjoint phi to the cost
integrand X0 and to the linear Hamilton fields of the controlled plant.
The running cost is the control energy |u|^2 or the l1 norm sum |u_j|, and
for both the argmax of **H** over a box of controls is closed form.
The fixed terminal state is enforced by a quadratic penalty on the
phase-invariant infidelity, escalated geometrically; a forward-backward
argmax sweep is refined by bounded quasi-Newton steps on exact discrete
gradients.  For the l1 cost those steps run on the split u = u+ - u- with
u+, u- >= 0, where the running cost sum(u+ + u-) is linear and the
objective smooth, instead of on the kink of |u_j| at 0.  Single shooting
on the initial adjoint is provided as a cross-check.

Internally states and adjoints are complex amplitudes psi = q + i p, and
every pass over the grid propagates with one batched eigendecomposition
(``dynamics.interval_propagators``); exact gradients come from
Daleckii-Krein divided differences in the same eigenbasis.  Flat (q, p)
coordinates appear only at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# expm and expm_frechet are unused here but stay importable: the benchmark's
# tracer (perfbench/tracing.py) looks them up by name and raises if missing
from scipy.linalg import expm, expm_frechet  # noqa: F401
from scipy.optimize import least_squares, minimize

from .dynamics import ControlSchedule, ControlledHamiltonian, check_grid, interval_propagators
from .errors import ControlDomainError, DimensionMismatchError, NormalizationError
from .geometry import PhasePoint, _readonly, real_block

COST_ENERGY = "control-energy"
COST_L1 = "control-l1"
COST_KINDS = (COST_ENERGY, COST_L1)

# the sweep's penalty weight starts at _PENALTY_WEIGHT and grows 4x per
# round, for at most _PENALTY_ROUNDS rounds of at most _MAX_SWEEPS damped
# argmax sweeps, until the terminal fidelity reaches FIDELITY_GOAL
FIDELITY_GOAL = 0.999
_PENALTY_WEIGHT = 4.0
_PENALTY_ROUNDS = 6
_MAX_SWEEPS = 60
_DAMPING = 0.5
_STEP_TOL = 1e-6


@dataclass(frozen=True)
class ControlDomain:
    """Per-channel closed interval bounds on the control amplitudes."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper bounds must be 1-d and share a shape")
        if not np.all(lo <= hi):  # also false for a NaN bound
            raise ValueError("each channel needs lower <= upper, neither NaN")
        object.__setattr__(self, "lower", _readonly(lo))
        object.__setattr__(self, "upper", _readonly(hi))

    @property
    def n_channels(self) -> int:
        return self.lower.size

    def contains(self, u, tol: float = 1e-12) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != self.lower.shape:
            return False
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

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
            raise ValueError(f"unknown cost kind {self.kind!r}, expected one of {COST_KINDS}")

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

    def evaluate(self, x: PhasePoint, u, t: float = 0.0) -> float:
        """X0(u); x and t complete the signature X0(x, u, t) of a running cost."""
        return float(self.rate(np.atleast_1d(u)))


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


def _flow_generator(plant: ControlledHamiltonian, u) -> np.ndarray:
    """Real 2N x 2N generator of Hamilton's equations at control u."""
    return real_block(-1j * plant.matrix_for(np.atleast_1d(u)))


def control_hamiltonian(
    s: PmpState,
    u,
    plant: ControlledHamiltonian,
    cost: CostIntegrand,
    domain: ControlDomain | None = None,
) -> float:
    """**H**(x, phi, u) = phi0 X0(x, u) + phi_z . L(u) z."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if domain is not None and not domain.contains(u):
        raise ControlDomainError(f"control {u} outside the domain")
    if s.dim != plant.dim:
        raise DimensionMismatchError("state and plant dimensions differ")
    z = s.x[1:]
    return float(s.phi[0] * cost.evaluate(s.point, u) + s.phi[1:] @ (_flow_generator(plant, u) @ z))


def _slopes(plant: ControlledHamiltonian, psis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coupling slopes c[k, j] = phi_k . L_j z_k = Im(phi_k^H H_j psi_k) for every row k."""
    hs = np.asarray(plant.controls, dtype=complex).reshape(-1, plant.dim, plant.dim)
    return np.einsum("kx,jxy,ky->kj", phis.conj(), hs, psis).imag


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


def _penalty_terms(z_final: np.ndarray, z_goal: np.ndarray):
    """Overlap components (a, b) = (Re, Im) of <goal|psi(T)> in flat coordinates."""
    n = z_goal.size // 2
    jz_goal = np.concatenate([-z_goal[n:], z_goal[:n]])
    return float(z_goal @ z_final), float(jz_goal @ z_final), jz_goal


def _forward(props: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States psi_0 .. psi_m at the grid points, psi_{k+1} = U_k psi_k."""
    psis = np.empty((len(props) + 1, psi0.size), dtype=complex)
    psis[0] = psi0
    for k, prop in enumerate(props):
        psis[k + 1] = prop @ psis[k]
    return psis


def _backward(props: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Adjoints lam_0 .. lam_m from lam_m = lam, lam_k = U_k^H lam_{k+1}."""
    adjoints = props.conj().transpose(0, 2, 1)
    lams = np.empty((len(props) + 1, lam.size), dtype=complex)
    lams[-1] = lam
    for k in range(len(props) - 1, -1, -1):
        lams[k] = adjoints[k] @ lams[k + 1]
    return lams


def _evaluate(plant, cost: CostIntegrand, u: np.ndarray, psi0: np.ndarray, goal: np.ndarray, dts: np.ndarray):
    """(terminal fidelity, running cost) of a schedule."""
    psis = _forward(interval_propagators(plant, u, dts)[0], psi0)
    return float(abs(np.vdot(goal, psis[-1])) ** 2), float(cost.rate(u) @ dts)


def _objective(u_flat, plant, cost, psi0, goal, dts, weight) -> float:
    """Penalized objective sum X0 dt + w(1-|<goal|psi(T)>|^2)."""
    fid, run_cost = _evaluate(plant, cost, u_flat.reshape(dts.size, -1), psi0, goal, dts)
    return run_cost + weight * (1.0 - fid)


def _objective_and_gradient(x_flat, plant, cost, lift, psi0, goal, dts, weight):
    """Penalized objective of the polish variables x, u = x @ lift, with its exact discrete gradient.

    The running cost is ``CostIntegrand._split_rate`` of x, and the penalty
    gradient in u is chained to x by lift^T.  The derivative of
    U_k = exp(-i H_k dt_k) along -i H_j dt_k is the Daleckii-Krein form
    V_k (F_k o (V_k^H (-i H_j dt_k) V_k)) V_k^H, where F_k holds the divided
    differences of exp over the eigenvalues -i w_k dt_k (exact GRAPE
    gradients in the eigenbasis).
    """
    x = x_flat.reshape(dts.size, -1)
    props, w, v = interval_propagators(plant, x @ lift, dts)
    psis = _forward(props, psi0)
    overlap = np.vdot(goal, psis[-1])
    rate, rate_grad = cost._split_rate(x)
    value = float(rate @ dts) + weight * (1.0 - abs(overlap) ** 2)
    lams = _backward(props, -2.0 * weight * overlap * goal)  # d(penalty)/dpsi_T
    vh = v.conj().transpose(0, 2, 1)
    a = np.einsum("kab,kb->ka", vh, lams[1:])
    b = np.einsum("kab,kb->ka", vh, psis[:-1])
    # (e^x - e^y)/(x - y) at x, y = -i w dt: exp of the mean times sinc of the
    # half difference, which also covers equal eigenvalues (F = e^x there)
    half = 0.5 * dts[:, None, None]
    wa, wb = w[:, :, None], w[:, None, :]
    f = np.exp(-1j * (wa + wb) * half) * np.sinc((wa - wb) * half / np.pi)
    hs = np.asarray(plant.controls, dtype=complex)
    h_eig = np.einsum("kxa,jxy,kyb->kjab", v.conj(), hs, v)
    # Re(a^H (F o (-i dt V^H H_j V)) b) = dt Im(a^H (F o V^H H_j V) b)
    grad = (dts[:, None] * np.einsum("kab,kjab->kj", a.conj()[:, :, None] * f * b[:, None, :], h_eig).imag) @ lift.T
    grad += rate_grad * dts[:, None]
    return value, grad.ravel()


def _unit_amplitudes(plant: ControlledHamiltonian, x: PhasePoint, name: str) -> np.ndarray:
    """Normalized amplitudes of an endpoint state of the plant."""
    if x.dim != plant.dim:
        raise DimensionMismatchError(f"{name} has dimension {x.dim}, the plant {plant.dim}")
    norm_sq = x.norm_sq()
    if not norm_sq > 0:
        raise NormalizationError(f"{name} cannot be normalized (|x|^2 = {norm_sq})")
    return x.amplitudes / np.sqrt(norm_sq)


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

    Each round runs the damped argmax sweep with monotone acceptance, then
    polishes the same penalized objective with L-BFGS-B on exact discrete
    gradients; the penalty weight escalates geometrically until the
    terminal fidelity reaches ``FIDELITY_GOAL`` or the round budget runs out.
    The polish works on the variables of ``CostIntegrand._split``: u itself
    for the energy cost, the split [u+, u-] for the l1 cost, whose running
    cost sum(u+ + u-) is linear and has no kink; the polished schedule is
    u+ - u- clipped to the domain, and the reported cost is always
    sum X0(u) dt of that schedule.
    """
    grid = check_grid(grid)
    psi0, goal = _unit_amplitudes(plant, x_init, "x_init"), _unit_amplitudes(plant, x_goal, "x_goal")
    rng = np.random.default_rng(0) if rng is None else rng
    r = len(plant.controls)
    if domain.n_channels != r:
        raise DimensionMismatchError("domain channel count must match the plant controls")
    m = grid.size - 1
    dts = np.diff(grid)
    singleton = np.allclose(domain.lower, domain.upper)
    lift, x_lower, x_upper = cost._split(domain.lower, domain.upper)
    x_bounds = list(zip(np.tile(x_lower, m), np.tile(x_upper, m)))

    u = np.tile(domain.clip(np.zeros(r)), (m, 1))
    best_fid, best_cost = _evaluate(plant, cost, u, psi0, goal, dts)
    best_u = np.array(u)
    iterations = 0
    weight = _PENALTY_WEIGHT

    if best_fid >= FIDELITY_GOAL or singleton or r == 0:
        schedule = ControlSchedule(grid, best_u)
        return PmpSolution(schedule, best_cost, best_fid, 0, best_fid >= FIDELITY_GOAL)

    # a deterministic non-zero start; u = 0 is a stationary saddle whenever
    # the drift image of the start is orthogonal to the goal
    u = rng.uniform(-0.5, 0.5, size=(m, r)) * (domain.upper - domain.lower) / 2.0
    u = np.clip(u, domain.lower, domain.upper)

    for _round in range(_PENALTY_ROUNDS):
        value = _objective(u.ravel(), plant, cost, psi0, goal, dts, weight)
        beta = _DAMPING
        for _ in range(_MAX_SWEEPS):
            iterations += 1
            props, _, _ = interval_propagators(plant, u, dts)
            psis = _forward(props, psi0)
            # the adjoint starts at the gradient of -w(1 - |<goal|psi(T)>|^2)
            phis = _backward(props, 2.0 * weight * np.vdot(goal, psis[-1]) * goal)
            u_star = _maximize(_slopes(plant, psis[:-1], phis[:-1]), -1.0, cost, domain)
            u_new = np.clip((1.0 - beta) * u + beta * u_star, domain.lower, domain.upper)
            step = float(np.max(np.abs(u_new - u))) if u_new.size else 0.0
            new_value = _objective(u_new.ravel(), plant, cost, psi0, goal, dts, weight)
            if new_value <= value + 1e-12:
                u, value = u_new, new_value
                beta = _DAMPING
            else:
                beta *= 0.5  # monotone acceptance: shrink toward the old schedule
                if beta < 1e-3:
                    break
            if step < _STEP_TOL:
                break

        res = minimize(
            _objective_and_gradient,
            np.clip(u @ lift.T, x_lower, x_upper).ravel(),  # for l1, [u, -u] clipped is [u+, u-]
            args=(plant, cost, lift, psi0, goal, dts, weight),
            method="L-BFGS-B",
            jac=True,
            bounds=x_bounds,
            options={"maxiter": 400, "ftol": 1e-14, "gtol": 1e-12},
        )
        iterations += int(res.nit)
        u = np.clip(res.x.reshape(m, -1) @ lift, domain.lower, domain.upper)

        fid, run_cost = _evaluate(plant, cost, u, psi0, goal, dts)
        if fid >= best_fid - 1e-12:
            best_fid, best_cost, best_u = fid, run_cost, np.array(u)
        if best_fid >= FIDELITY_GOAL:
            break
        weight *= 4.0

    schedule = ControlSchedule(grid, best_u)
    return PmpSolution(schedule, best_cost, best_fid, iterations, best_fid >= FIDELITY_GOAL)


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
    adjoint) pair at the interval start; the residual is the phase-aligned
    terminal state mismatch; the search starts from the adjoint goal - psi0.
    """
    grid = check_grid(grid)
    psi0, goal = _unit_amplitudes(plant, x_init, "x_init"), _unit_amplitudes(plant, x_goal, "x_goal")
    dts = np.diff(grid)

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

    guess = PhasePoint.from_amplitudes(goal - psi0).flat()
    res = least_squares(residual, guess, xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
    _, u = rollout(res.x)
    fid, run_cost = _evaluate(plant, cost, u, psi0, goal, dts)
    schedule = ControlSchedule(grid, u)
    return PmpSolution(schedule, run_cost, fid, int(res.nfev), fid >= FIDELITY_GOAL)
