"""Maximum-principle control synthesis on the bilinear two-level plant."""

import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from qphase import (
    ControlDomain,
    ControlSchedule,
    ControlledHamiltonian,
    CostIntegrand,
    PhasePoint,
    PmpState,
    StateVector,
    argmax_control,
    control_hamiltonian,
    evolve,
    forward_backward_sweep,
    solve_shooting,
    to_phase,
)
from qphase.dynamics import real_block
from qphase.errors import ControlDomainError
from qphase.pontryagin import (
    _amplitudes,
    _flow_generator,
    _maximize,
    _objective,
    _objective_and_gradient,
    _penalty_terms,
    _slopes,
)

from conftest import random_hermitian, random_point

H0 = np.diag([1.0, -1.0]).astype(complex)
H1 = np.array([[0, 1], [1, 0]], complex)


def two_level_plant():
    return ControlledHamiltonian(H0, (H1,))


def bang_bang_oracle(plant, z0, zg, t_final=np.pi, n_grid=100):
    """Exhaustive bang-bang search: at most 3 switches on a uniform grid.

    Every candidate alternates u = +/-1 on segments [0,i), [i,j), [j,k),
    [k,n).  Returns (best fidelity, cost); |u| = 1 throughout so the cost
    of every candidate is t_final.
    """
    dt = t_final / n_grid
    e_plus = expm(_flow_generator(plant, [1.0]) * dt)
    e_minus = expm(_flow_generator(plant, [-1.0]) * dt)
    n = z0.size // 2
    jzg = np.concatenate([-zg[n:], zg[:n]])

    def powers(m):
        out = [np.eye(z0.size)]
        for _ in range(n_grid):
            out.append(m @ out[-1])
        return np.array(out)

    best = -1.0
    for a, b in ((e_plus, e_minus), (e_minus, e_plus)):
        apow, bpow = powers(a), powers(b)
        # rows: goal components propagated backward through the last segment
        c1 = np.einsum("d,mde->me", zg, bpow)
        c2 = np.einsum("d,mde->me", jzg, bpow)
        seg1 = apow @ z0  # (i+1) states after the first segment
        for i in range(n_grid + 1):
            seg2 = bpow[: n_grid - i + 1] @ seg1[i]  # indexed by j - i
            for j in range(i, n_grid + 1):
                v = apow[: n_grid - j + 1] @ seg2[j - i]  # indexed by k - j
                ks = np.arange(j, n_grid + 1)
                fid = (
                    np.einsum("ke,ke->k", c1[n_grid - ks], v[ks - j]) ** 2
                    + np.einsum("ke,ke->k", c2[n_grid - ks], v[ks - j]) ** 2
                )
                best = max(best, float(fid.max()))
    return best, t_final


def reference_objective_and_gradient(u_flat, plant, cost, z0, z_goal, grid, weight):
    """Per-interval real-block reference: one expm per interval, one
    expm_frechet per interval and channel, in flat (q, p) coordinates."""
    m, r = grid.size - 1, len(plant.controls)
    n = z0.size // 2
    u = u_flat.reshape(m, r)
    ljs = [real_block(-1j * h) for h in plant.controls]
    dts = np.diff(grid)
    props, zs, run_cost = [], [z0], 0.0
    for k in range(m):
        gen = _flow_generator(plant, u[k])
        e = expm(gen * dts[k])
        props.append((gen, e))
        zs.append(e @ zs[-1])
        run_cost += cost.evaluate(PhasePoint(zs[k][:n], zs[k][n:]), u[k]) * dts[k]
    a, b, jz_goal = _penalty_terms(zs[-1], z_goal)
    value = run_cost + weight * (1.0 - a * a - b * b)
    grad = np.zeros((m, r))
    lam = -weight * (2.0 * a * z_goal + 2.0 * b * jz_goal)
    for k in range(m - 1, -1, -1):
        gen, e = props[k]
        for j in range(r):
            _, de = expm_frechet(gen * dts[k], ljs[j] * dts[k])
            grad[k, j] = lam @ (de @ zs[k])
        grad[k] += 2.0 * u[k] * dts[k] if cost.kind == "control-energy" else np.sign(u[k]) * dts[k]
        lam = e.T @ lam
    return value, grad.ravel()


def reference_argmax(c, phi0, kind, lo, hi):
    """Scalar closed-form maximizer of c u + phi0 X0(u) on [lo, hi]."""
    if kind == "control-energy" and phi0 < 0:
        return min(max(-c / (2.0 * phi0), lo), hi)
    cands = sorted({lo, hi} | ({0.0} if lo <= 0.0 <= hi else set()))
    vals = [c * v + phi0 * (v * v if kind == "control-energy" else abs(v)) for v in cands]
    ties = [v for v, f in zip(cands, vals) if f >= max(vals) - 1e-15]
    return min(ties, key=lambda v: (abs(v), v))


def unit_flat(rng, n):
    z = rng.normal(size=2 * n)
    return z / np.linalg.norm(z)


class TestSpectralObjective:
    def _check(self, plant, u, grid, z0, zg, weight=3.0):
        dts = np.diff(grid)
        psi0, goal = _amplitudes(z0), _amplitudes(zg)
        for kind in ("control-energy", "control-l1"):
            cost = CostIntegrand(kind)
            want_v, want_g = reference_objective_and_gradient(u.ravel(), plant, cost, z0, zg, grid, weight)
            got_v, got_g = _objective_and_gradient(u.ravel(), plant, cost, psi0, goal, dts, weight)
            assert abs(got_v - want_v) < 1e-12
            assert np.max(np.abs(got_g - want_g)) < 1e-12
            assert abs(_objective(u.ravel(), plant, cost, psi0, goal, dts, weight) - want_v) < 1e-12

    def test_three_level_two_channels(self, rng):
        plant = ControlledHamiltonian(
            random_hermitian(rng, 3), (random_hermitian(rng, 3), random_hermitian(rng, 3))
        )
        for _ in range(5):
            grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 12))])
            u = rng.uniform(-1.5, 1.5, size=(12, 2))
            self._check(plant, u, grid, unit_flat(rng, 3), unit_flat(rng, 3))

    @pytest.mark.parametrize("drift", [np.zeros((3, 3)), 1.5 * np.eye(3)])
    def test_degenerate_spectrum(self, rng, drift):
        # u = 0 leaves a fully degenerate H: every divided difference is e^lambda
        plant = ControlledHamiltonian(drift.astype(complex), (random_hermitian(rng, 3),))
        grid = np.array([0.0, 0.3, 1.0, 1.2])
        self._check(plant, np.zeros((3, 1)), grid, unit_flat(rng, 3), unit_flat(rng, 3))


class TestControlDomain:
    def test_bounds_checked(self):
        d = ControlDomain([-1.0], [1.0])
        assert d.contains([0.5]) and not d.contains([1.5])
        assert d.clip([2.0])[0] == 1.0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            ControlDomain([1.0], [-1.0])


class TestControlHamiltonian:
    def test_zero_adjoint(self, rng):
        plant = two_level_plant()
        s = PmpState(np.array([0.0, 1, 0, 0, 0]), np.zeros(5))
        for u in (-1.0, 0.0, 0.7):
            assert control_hamiltonian(s, [u], plant, CostIntegrand()) == 0.0

    def test_cost_channel_only(self):
        plant = two_level_plant()
        phi = np.zeros(5)
        phi[0] = 1.0
        s = PmpState(np.array([0.0, 1, 0, 0, 0]), phi)
        assert control_hamiltonian(s, [0.8], plant, CostIntegrand()) == pytest.approx(0.64)

    def test_scalar_closed_form(self):
        # N=1 plant H = [u]: coupling slope is phi . L1 z, closed-form argmax
        plant = ControlledHamiltonian(np.zeros((1, 1), complex), (np.eye(1, dtype=complex),))
        z = np.array([1.0, 0.0])
        phi = np.array([-1.0, 0.0, 1.0])  # phi0 = -1
        s = PmpState(np.concatenate([[0.0], z]), phi)
        c = float(phi[1:] @ (_flow_generator(plant, [1.0]) - _flow_generator(plant, [0.0])) @ z)
        dom = ControlDomain([-1.0], [1.0])
        u = argmax_control(s, plant, CostIntegrand(), dom)[0]
        want = np.clip(c / 2.0, -1.0, 1.0)  # vertex of cu - u^2
        assert u == pytest.approx(want, abs=1e-12)
        values = [c * v - v * v for v in np.linspace(-1, 1, 20001)]
        assert c * u - u * u >= max(values) - 1e-8

    def test_domain_enforced(self):
        plant = two_level_plant()
        s = PmpState(np.array([0.0, 1, 0, 0, 0]), np.zeros(5))
        with pytest.raises(ControlDomainError):
            control_hamiltonian(s, [2.0], plant, CostIntegrand(), ControlDomain([-1.0], [1.0]))


class TestArgmax:
    def _state_with_slope(self, plant, target_slope):
        # pick phi so the coupling slope equals target_slope
        z = np.array([1.0, 0.0, 0.0, 0.0])
        lj = _flow_generator(plant, [1.0]) - _flow_generator(plant, [0.0])
        v = lj @ z
        phi_z = target_slope * v / np.dot(v, v)
        return PmpState(np.concatenate([[0.0], z]), np.concatenate([[0.0], phi_z]))

    def test_affine_positive_slope_bangs_high(self):
        plant = two_level_plant()
        s = self._state_with_slope(plant, 3.0)
        u = argmax_control(s, plant, CostIntegrand("control-l1"), ControlDomain([-1.0], [1.0]))
        assert u[0] == 1.0

    def test_quadratic_interior_vertex(self):
        plant = two_level_plant()
        s = self._state_with_slope(plant, 0.6)
        s = PmpState(s.x, np.concatenate([[-1.0], s.phi[1:]]))
        u = argmax_control(s, plant, CostIntegrand("control-energy"), ControlDomain([-1.0], [1.0]))
        assert u[0] == pytest.approx(0.3, abs=1e-12)

    def test_degenerate_tie_breaks_to_zero(self):
        plant = two_level_plant()
        s = PmpState(np.array([0.0, 1, 0, 0, 0]), np.zeros(5))
        for kind in ("control-l1", "control-energy"):
            u = argmax_control(s, plant, CostIntegrand(kind), ControlDomain([-1.0], [1.0]))
            assert u[0] == 0.0

    def test_custom_cost_grid_refinement(self):
        plant = two_level_plant()
        s = self._state_with_slope(plant, 1.0)
        s = PmpState(s.x, np.concatenate([[-1.0], s.phi[1:]]))
        quartic = CostIntegrand("custom", evaluator=lambda x, u, t: float(np.sum(u**4)))
        u = argmax_control(s, plant, quartic, ControlDomain([-1.0], [1.0]))
        # stationary point of u - u^4: u = (1/4)^(1/3)
        assert u[0] == pytest.approx(0.25 ** (1 / 3), abs=1e-5)


class TestVectorisedArgmax:
    def test_matches_scalar_closed_form(self, rng):
        plant = ControlledHamiltonian(
            random_hermitian(rng, 3), (random_hermitian(rng, 3), random_hermitian(rng, 3))
        )
        ljs = [real_block(-1j * h) for h in plant.controls]
        zs = np.array([unit_flat(rng, 3) for _ in range(40)])
        phis = rng.normal(size=(40, 6))
        phis[::7] = 0.0  # zero adjoint: every candidate ties
        psis, lams = zs[:, :3] + 1j * zs[:, 3:], phis[:, :3] + 1j * phis[:, 3:]
        domains = (
            ControlDomain([-1.0, -0.5], [1.0, 2.0]),
            ControlDomain([0.2, -2.0], [0.8, -0.3]),
            ControlDomain([-1.0, 0.0], [1.0, 0.0]),
        )
        for dom in domains:
            for kind in ("control-energy", "control-l1"):
                for phi0 in (-1.0, -0.3, 0.0, 0.6):
                    got = _maximize(_slopes(plant, psis, lams), phi0, CostIntegrand(kind), dom, psis)
                    for k in range(40):
                        for j in range(2):
                            c = float(phis[k] @ (ljs[j] @ zs[k]))
                            want = reference_argmax(c, phi0, kind, dom.lower[j], dom.upper[j])
                            assert got[k, j] == pytest.approx(want, abs=1e-12)
                        s = PmpState(np.concatenate([[0.0], zs[k]]), np.concatenate([[phi0], phis[k]]))
                        assert np.array_equal(argmax_control(s, plant, CostIntegrand(kind), dom), got[k])

    def test_zero_adjoint_ties_to_zero(self):
        plant = ControlledHamiltonian(H0, (H1, H1))
        psis = np.array([[1.0, 0.0], [0.6, 0.8j]])
        slopes = _slopes(plant, psis, np.zeros_like(psis))
        for kind in ("control-energy", "control-l1"):
            u = _maximize(slopes, 0.0, CostIntegrand(kind), ControlDomain([-1.0, -2.0], [1.0, 0.5]), psis)
            assert np.array_equal(u, np.zeros((2, 2)))


class TestAdjointConsistency:
    def test_gradient_matches_finite_differences(self, rng):
        plant = two_level_plant()
        cost = CostIntegrand("control-energy")
        dom = ControlDomain([-1.0], [1.0])
        for _ in range(10):
            z = random_point(rng, 2).flat()
            phi = rng.normal(size=4)
            u = rng.uniform(-1, 1, 1)
            s = PmpState(np.concatenate([[0.0], z]), np.concatenate([[-1.0], phi]))
            # -d**H**/dz from the linear structure: -L(u)^T phi
            lz = _flow_generator(plant, u)
            got = -lz.T @ phi
            eps = 1e-6
            fd = np.empty(4)
            for i in range(4):
                zp, zm = np.array(z), np.array(z)
                zp[i] += eps
                zm[i] -= eps
                sp = PmpState(np.concatenate([[0.0], zp]), s.phi)
                sm = PmpState(np.concatenate([[0.0], zm]), s.phi)
                fd[i] = (
                    control_hamiltonian(sp, u, plant, cost)
                    - control_hamiltonian(sm, u, plant, cost)
                ) / (2 * eps)
            assert np.max(np.abs(got + fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestSweep:
    def test_drift_already_solves(self):
        plant = two_level_plant()
        x0 = to_phase(StateVector([1.0, 0]))
        goal = PhasePoint.from_flat(
            expm(_flow_generator(plant, [0.0]) * 1.0) @ x0.flat()
        )
        sol = forward_backward_sweep(
            plant, x0, goal, CostIntegrand(), ControlDomain([-1.0], [1.0]),
            grid=np.linspace(0, 1.0, 51),
        )
        assert sol.converged and sol.cost == pytest.approx(0.0)
        assert np.max(np.abs(sol.schedule.values)) == 0.0

    def test_no_authority_reports_drift_fidelity(self):
        plant = two_level_plant()
        x0 = to_phase(StateVector([0, 1.0]))
        goal = to_phase(StateVector([1.0, 0]))
        sol = forward_backward_sweep(
            plant, x0, goal, CostIntegrand(), ControlDomain([0.0], [0.0]),
            grid=np.linspace(0, np.pi, 51),
        )
        assert not sol.converged
        drift_final = evolve(ControlledHamiltonian.drift_only(H0), x0, 0, np.pi)
        from qphase import from_phase

        want = from_phase(drift_final).fidelity(from_phase(goal))
        assert sol.fidelity == pytest.approx(want, abs=1e-12)

    def test_two_level_flip_beats_oracle(self):
        plant = two_level_plant()
        x0 = to_phase(StateVector([0, 1.0]))
        goal = to_phase(StateVector([1.0, 0]))
        sol = forward_backward_sweep(
            plant, x0, goal, CostIntegrand(), ControlDomain([-1.0], [1.0]),
            grid=np.linspace(0, np.pi, 301), rng=np.random.default_rng(1),
        )
        assert sol.converged and sol.fidelity >= 0.999
        oracle_fid, oracle_cost = bang_bang_oracle(plant, x0.flat(), goal.flat())
        assert oracle_fid >= 0.999
        assert sol.cost <= 1.02 * oracle_cost

    def test_schedule_respects_domain(self):
        plant = two_level_plant()
        x0 = to_phase(StateVector([0, 1.0]))
        goal = to_phase(StateVector([1.0, 0]))
        sol = forward_backward_sweep(
            plant, x0, goal, CostIntegrand(), ControlDomain([-0.8], [0.8]),
            grid=np.linspace(0, np.pi, 121), rng=np.random.default_rng(2),
            max_penalty_rounds=3,
        )
        assert np.max(np.abs(sol.schedule.values)) <= 0.8 + 1e-12


class TestGrid:
    """The horizon comes only from the grid: no integer shorthand, no default."""

    def _args(self):
        x0 = to_phase(StateVector([0, 1.0]))
        goal = to_phase(StateVector([1.0, 0]))
        return two_level_plant(), x0, goal, CostIntegrand(), ControlDomain([-1.0], [1.0])

    @pytest.mark.parametrize("solver", [forward_backward_sweep, solve_shooting])
    @pytest.mark.parametrize("grid", [8, [0.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan]])
    def test_rejects_bad_grid(self, solver, grid):
        with pytest.raises(ValueError, match="grid"):
            solver(*self._args(), grid=grid)

    @pytest.mark.parametrize("solver", [forward_backward_sweep, solve_shooting])
    def test_grid_is_required(self, solver):
        with pytest.raises(TypeError):
            solver(*self._args())


class TestShooting:
    def test_cross_check_two_level(self):
        plant = two_level_plant()
        x0 = to_phase(StateVector([0, 1.0]))
        goal = to_phase(StateVector([1.0, 0]))
        sol = solve_shooting(
            plant, x0, goal, CostIntegrand(), ControlDomain([-1.0], [1.0]),
            grid=np.linspace(0, np.pi, 151),
        )
        assert sol.fidelity >= 0.99
