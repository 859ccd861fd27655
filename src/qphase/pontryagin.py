"""Optimal control of finite-level phase-space flows by the maximum principle.

The state is extended with a running cost coordinate x0; the control
Hamiltonian **H** = sum_i phi_i X_i couples the adjoint phi to the cost
integrand X0 and to the linear Hamilton fields of the controlled plant.
The fixed terminal state is enforced by a quadratic penalty on the
phase-invariant infidelity, escalated geometrically; a forward-backward
argmax sweep is refined by bounded quasi-Newton steps on exact discrete
gradients.  Single shooting on the initial adjoint is provided as a
cross-check.

Internally states and adjoints are complex amplitudes psi = q + i p, and
every pass over the grid propagates with one batched eigendecomposition
(``dynamics.interval_propagators``); exact gradients come from
Daleckii-Krein divided differences in the same eigenbasis.  Flat (q, p)
coordinates appear only at the public boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
# expm and expm_frechet are unused here but stay importable: the benchmark's
# tracer (perfbench/tracing.py) looks them up by name and raises if missing
from scipy.linalg import expm, expm_frechet  # noqa: F401
from scipy.optimize import least_squares, minimize

from .dynamics import ControlSchedule, ControlledHamiltonian, interval_propagators, real_block
from .errors import ControlDomainError, DimensionMismatchError, MaxIterationsError
from .geometry import PhasePoint, _readonly

COST_ENERGY = "control-energy"
COST_L1 = "control-l1"
COST_CUSTOM = "custom"

_BRACKET_TOL = 1e-6


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
        if np.any(lo > hi):
            raise ValueError("each channel needs lower <= upper")
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

    @classmethod
    def box(cls, bound: float, n_channels: int = 1) -> "ControlDomain":
        b = abs(float(bound))
        return cls(-b * np.ones(n_channels), b * np.ones(n_channels))


@dataclass(frozen=True)
class CostIntegrand:
    """Running cost X0(x, u, t) >= 0.

    kind 'control-energy' is |u|^2, 'control-l1' is sum |u_j|, and 'custom'
    delegates to the supplied evaluator.
    """

    kind: str = COST_ENERGY
    evaluator: object = None

    def __post_init__(self):
        if self.kind not in (COST_ENERGY, COST_L1, COST_CUSTOM):
            raise ValueError(f"unknown cost kind {self.kind!r}")
        if self.kind == COST_CUSTOM and not callable(self.evaluator):
            raise ValueError("custom cost needs a callable evaluator")

    def evaluate(self, x: PhasePoint, u, t: float = 0.0) -> float:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self.kind == COST_ENERGY:
            return float(np.dot(u, u))
        if self.kind == COST_L1:
            return float(np.sum(np.abs(u)))
        val = float(self.evaluator(x, u, t))
        if val < 0 or not np.isfinite(val):
            raise ValueError("cost integrand must be finite and non-negative")
        return val


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
    def cost_so_far(self) -> float:
        return float(self.x[0])

    @property
    def point(self) -> PhasePoint:
        n = self.dim
        return PhasePoint(self.x[1 : 1 + n], self.x[1 + n :])

    @classmethod
    def initial(cls, x0: PhasePoint, phi: np.ndarray | None = None) -> "PmpState":
        z = np.concatenate([[0.0], x0.flat()])
        return cls(z, np.zeros_like(z) if phi is None else phi)


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


def _amplitudes(z: np.ndarray) -> np.ndarray:
    """Complex amplitudes q + i p of flat phase-space coordinates (q, p)."""
    n = z.size // 2
    return z[:n] + 1j * z[n:]


def _flat(psi: np.ndarray) -> np.ndarray:
    """Flat phase-space coordinates (q, p) of complex amplitudes q + i p."""
    return np.concatenate([psi.real, psi.imag])


def _unit_amplitudes(x: PhasePoint) -> np.ndarray:
    return (x.q + 1j * x.p) / np.sqrt(x.norm_sq())


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


def _tie_break(candidates, values) -> float:
    """Among maximizers, prefer the smallest |u|, then the smallest u."""
    best = max(values)
    ties = [u for u, v in zip(candidates, values) if v >= best - 1e-15]
    ties.sort(key=lambda u: (abs(u), u))
    return ties[0]


def _golden_argmax(f, lo: float, hi: float) -> float:
    """Golden-section maximization to a bracket of width _BRACKET_TOL."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > _BRACKET_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    candidates = [lo, 0.5 * (a + b), hi]
    candidates = [u for u in candidates if lo <= u <= hi]
    return _tie_break(candidates, [f(u) for u in candidates])


def _slopes(plant: ControlledHamiltonian, psis: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Coupling slopes c[k, j] = phi_k . L_j z_k = Im(phi_k^H H_j psi_k) for every row k."""
    hs = np.asarray(plant.controls, dtype=complex).reshape(-1, plant.dim, plant.dim)
    return np.einsum("kx,jxy,ky->kj", phis.conj(), hs, psis).imag


def _maximize(slopes: np.ndarray, phi0: float, cost: CostIntegrand, domain: ControlDomain, psis) -> np.ndarray:
    """Row-wise maximizer of phi0 X0(psi_k, u) + slopes[k] . u over the box domain.

    Energy and l1 costs maximize in closed form for all rows at once, ties
    resolving to the smallest |u|, then the smallest u; custom costs refine
    each row by a coordinate pass of golden-section searches.
    """
    u = np.tile(domain.clip(np.zeros(domain.n_channels)), (slopes.shape[0], 1))
    if cost.kind == COST_CUSTOM:
        for k, (c, psi) in enumerate(zip(slopes, psis)):
            point = PhasePoint(psi.real, psi.imag)
            for j, (lo, hi) in enumerate(zip(domain.lower, domain.upper)):
                others = np.array(u[k])  # coordinate pass: frozen other channels

                def along(v, j=j, others=others, c=c, point=point):
                    trial = np.array(others)
                    trial[j] = v
                    return phi0 * cost.evaluate(point, trial) + float(c @ trial)

                u[k, j] = lo if lo == hi else _golden_argmax(along, lo, hi)
        return u
    for j, (lo, hi) in enumerate(zip(domain.lower, domain.upper)):
        c = slopes[:, j]
        if cost.kind == COST_ENERGY and phi0 < 0:
            # concave quadratic: clipped vertex
            u[:, j] = np.clip(-c / (2.0 * phi0), lo, hi)
            continue
        # affine or convex along the channel: a bound or 0 maximizes; the
        # candidates are listed in tie-break order, so the first tie wins
        cands = np.array(sorted({lo, hi} | ({0.0} if lo <= 0.0 <= hi else set()), key=lambda v: (abs(v), v)))
        scale = cands * cands if cost.kind == COST_ENERGY else np.abs(cands)
        values = c[:, None] * cands + phi0 * scale
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
    c_j = phi_z . L_j z, so energy and l1 costs maximize in closed form;
    custom costs fall back to golden-section refinement per channel.
    """
    if s.dim != plant.dim:
        raise DimensionMismatchError("state and plant dimensions differ")
    if len(plant.controls) != domain.n_channels:
        raise DimensionMismatchError("domain channel count must match the plant controls")
    psi, phi = _amplitudes(s.x[1:])[None], _amplitudes(s.phi[1:])[None]
    return _maximize(_slopes(plant, psi, phi), float(s.phi[0]), cost, domain, psi)[0]


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


def _running_cost(cost: CostIntegrand, u: np.ndarray, psis: np.ndarray, dts: np.ndarray) -> float:
    """sum_k X0(psi_k, u_k) dt_k over the grid."""
    if cost.kind == COST_ENERGY:
        return float(np.sum(u * u, axis=1) @ dts)
    if cost.kind == COST_L1:
        return float(np.sum(np.abs(u), axis=1) @ dts)
    return float(sum(cost.evaluate(PhasePoint(psi.real, psi.imag), row) * dt for psi, row, dt in zip(psis, u, dts)))


def _running_cost_gradient(cost: CostIntegrand, u: np.ndarray, psis: np.ndarray, dts: np.ndarray) -> np.ndarray:
    if cost.kind == COST_ENERGY:
        return 2.0 * u * dts[:, None]
    if cost.kind == COST_L1:
        return np.sign(u) * dts[:, None]
    grad = np.empty_like(u)
    eps = 1e-7
    for k, (psi, row, dt) in enumerate(zip(psis, u, dts)):
        x_k = PhasePoint(psi.real, psi.imag)
        for j in range(row.size):
            up, dn = np.array(row), np.array(row)
            up[j] += eps
            dn[j] -= eps
            grad[k, j] = (cost.evaluate(x_k, up) - cost.evaluate(x_k, dn)) / (2 * eps) * dt
    return grad


def _evaluate(plant, cost: CostIntegrand, u: np.ndarray, psi0: np.ndarray, goal: np.ndarray, dts: np.ndarray):
    """(terminal fidelity, running cost) of a schedule."""
    psis = _forward(interval_propagators(plant, u, dts)[0], psi0)
    return float(abs(np.vdot(goal, psis[-1])) ** 2), _running_cost(cost, u, psis, dts)


def _objective(u_flat, plant, cost, psi0, goal, dts, weight) -> float:
    """Penalized objective sum X0 dt + w(1-|<goal|psi(T)>|^2)."""
    fid, run_cost = _evaluate(plant, cost, u_flat.reshape(dts.size, -1), psi0, goal, dts)
    return run_cost + weight * (1.0 - fid)


def _objective_and_gradient(u_flat, plant, cost, psi0, goal, dts, weight):
    """Penalized objective with its exact discrete gradient.

    The derivative of U_k = exp(-i H_k dt_k) along -i H_j dt_k is the
    Daleckii-Krein form V_k (F_k o (V_k^H (-i H_j dt_k) V_k)) V_k^H, where
    F_k holds the divided differences of exp over the eigenvalues
    -i w_k dt_k (exact GRAPE gradients in the eigenbasis).
    """
    u = u_flat.reshape(dts.size, -1)
    props, w, v = interval_propagators(plant, u, dts)
    psis = _forward(props, psi0)
    overlap = np.vdot(goal, psis[-1])
    value = _running_cost(cost, u, psis, dts) + weight * (1.0 - abs(overlap) ** 2)
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
    grad = dts[:, None] * np.einsum("kab,kjab->kj", a.conj()[:, :, None] * f * b[:, None, :], h_eig).imag
    grad += _running_cost_gradient(cost, u, psis, dts)
    return value, grad.ravel()


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be a strictly increasing array of >= 2 finite points")
    return grid


def forward_backward_sweep(
    plant: ControlledHamiltonian,
    x_init: PhasePoint,
    x_goal: PhasePoint,
    cost: CostIntegrand,
    domain: ControlDomain,
    grid: np.ndarray,
    penalty_weight: float = 4.0,
    max_iters: int = 60,
    tol: float = 1e-6,
    fidelity_goal: float = 0.999,
    damping: float = 0.5,
    max_penalty_rounds: int = 6,
    rng: np.random.Generator | None = None,
) -> PmpSolution:
    """Penalized maximum-principle solve on the control grid ``grid``.

    Each round runs the damped argmax sweep with monotone acceptance, then
    polishes the same penalized objective with bounded quasi-Newton steps on
    exact discrete gradients; the penalty weight escalates geometrically
    until the terminal fidelity goal is met or the round budget runs out.
    """
    grid = _check_grid(grid)
    if penalty_weight <= 0:
        raise ValueError("penalty weight must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    r = len(plant.controls)
    if domain.n_channels != r:
        raise DimensionMismatchError("domain channel count must match the plant controls")
    m = grid.size - 1
    psi0, goal = _unit_amplitudes(x_init), _unit_amplitudes(x_goal)
    dts = np.diff(grid)
    singleton = np.allclose(domain.lower, domain.upper)

    u = np.tile(domain.clip(np.zeros(r)), (m, 1))
    best_fid, best_cost = _evaluate(plant, cost, u, psi0, goal, dts)
    best_u = np.array(u)
    iterations = 0
    weight = penalty_weight

    if best_fid >= fidelity_goal or singleton or r == 0:
        schedule = ControlSchedule(grid, best_u)
        return PmpSolution(schedule, best_cost, best_fid, 0, best_fid >= fidelity_goal)

    # a deterministic non-zero start; u = 0 is a stationary saddle whenever
    # the drift image of the start is orthogonal to the goal
    u = rng.uniform(-0.5, 0.5, size=(m, r)) * (domain.upper - domain.lower) / 2.0
    u = np.clip(u, domain.lower, domain.upper)

    for _round in range(max_penalty_rounds):
        value = _objective(u.ravel(), plant, cost, psi0, goal, dts, weight)
        beta = damping
        for _ in range(max_iters):
            iterations += 1
            props, _, _ = interval_propagators(plant, u, dts)
            psis = _forward(props, psi0)
            # the adjoint starts at the gradient of -w(1 - |<goal|psi(T)>|^2)
            phis = _backward(props, 2.0 * weight * np.vdot(goal, psis[-1]) * goal)
            u_star = _maximize(_slopes(plant, psis[:-1], phis[:-1]), -1.0, cost, domain, psis[:-1])
            u_new = np.clip((1.0 - beta) * u + beta * u_star, domain.lower, domain.upper)
            step = float(np.max(np.abs(u_new - u))) if u_new.size else 0.0
            new_value = _objective(u_new.ravel(), plant, cost, psi0, goal, dts, weight)
            if new_value <= value + 1e-12:
                u, value = u_new, new_value
                beta = damping
            else:
                beta *= 0.5  # monotone acceptance: shrink toward the old schedule
                if beta < 1e-3:
                    break
            if step < tol:
                break

        res = minimize(
            _objective_and_gradient,
            u.ravel(),
            args=(plant, cost, psi0, goal, dts, weight),
            method="L-BFGS-B",
            jac=True,
            bounds=[(lo, hi) for lo, hi in zip(np.tile(domain.lower, m), np.tile(domain.upper, m))],
            options={"maxiter": 400, "ftol": 1e-14, "gtol": 1e-12},
        )
        iterations += int(res.nit)
        u = np.clip(res.x.reshape(m, r), domain.lower, domain.upper)

        fid, run_cost = _evaluate(plant, cost, u, psi0, goal, dts)
        if fid >= best_fid - 1e-12:
            best_fid, best_cost, best_u = fid, run_cost, np.array(u)
        if best_fid >= fidelity_goal:
            break
        weight *= 4.0

    schedule = ControlSchedule(grid, best_u)
    return PmpSolution(schedule, best_cost, best_fid, iterations, best_fid >= fidelity_goal)


def solve_shooting(
    plant: ControlledHamiltonian,
    x_init: PhasePoint,
    x_goal: PhasePoint,
    cost: CostIntegrand,
    domain: ControlDomain,
    grid: np.ndarray,
    phi_guess: np.ndarray | None = None,
    fidelity_goal: float = 0.999,
) -> PmpSolution:
    """Cross-check mode: single shooting on the initial adjoint.

    The control on each interval is the argmax for the current (state,
    adjoint) pair at the interval start; the residual is the phase-aligned
    terminal state mismatch.
    """
    grid = _check_grid(grid)
    psi0, goal = _unit_amplitudes(x_init), _unit_amplitudes(x_goal)
    dts = np.diff(grid)

    def rollout(phi_flat):
        psi, phi = psi0, _amplitudes(np.asarray(phi_flat, dtype=float))
        u = np.empty((dts.size, len(plant.controls)))
        for k in range(dts.size):
            u[k] = _maximize(_slopes(plant, psi[None], phi[None]), -1.0, cost, domain, psi[None])[0]
            prop = interval_propagators(plant, u[k : k + 1], dts[k : k + 1])[0][0]
            # the generator is anti-Hermitian, so the adjoint shares the flow
            psi, phi = prop @ psi, prop @ phi
        return psi, u

    def residual(phi_flat):
        psi_final, _ = rollout(phi_flat)
        overlap = np.vdot(goal, psi_final)
        nrm = abs(overlap)
        aligned = goal if nrm <= 1e-15 else overlap / nrm * goal
        return _flat(psi_final - aligned)

    guess = np.zeros(2 * psi0.size) if phi_guess is None else np.asarray(phi_guess, dtype=float)
    if not np.any(guess):
        guess = _flat(goal - psi0)
    res = least_squares(residual, guess, xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
    _, u = rollout(res.x)
    fid, run_cost = _evaluate(plant, cost, u, psi0, goal, dts)
    schedule = ControlSchedule(grid, u)
    return PmpSolution(schedule, run_cost, fid, int(res.nfev), fid >= fidelity_goal)
