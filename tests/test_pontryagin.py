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
from qphase.errors import ControlDomainError, DimensionMismatchError, NormalizationError
from qphase.pontryagin import (
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
    expm_frechet per interval and channel, in flat (q, p) coordinates.

    The gradient is taken in the polish variables: u for the energy cost,
    [u+, u-] for the l1 cost, whose running cost sum(u+ + u-) has slope dt.
    """
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
        lam = e.T @ lam
    if cost.kind == "control-energy":
        return value, (grad + 2.0 * u * dts[:, None]).ravel()
    return value, np.hstack([grad + dts[:, None], dts[:, None] - grad]).ravel()


def split_variables(cost, u):
    """Polish variables of a schedule, written out by hand: u, or [u+, u-] for l1."""
    if cost.kind == "control-energy":
        return u
    return np.hstack([np.maximum(u, 0.0), np.maximum(-u, 0.0)])


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
        psi0, goal = PhasePoint.from_flat(z0).amplitudes, PhasePoint.from_flat(zg).amplitudes
        wide = np.full(u.shape[1], 2.0)
        for kind in ("control-energy", "control-l1"):
            cost = CostIntegrand(kind)
            lift, _, _ = cost._split(-wide, wide)
            x = split_variables(cost, u)
            want_v, want_g = reference_objective_and_gradient(u.ravel(), plant, cost, z0, zg, grid, weight)
            got_v, got_g = _objective_and_gradient(x.ravel(), plant, cost, lift, psi0, goal, dts, weight)
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


def l1_inversion(phi=0.0, alpha=0.0, beta=0.0, channels=1, lower=-1.0, upper=1.0, intervals=8):
    """The benchmark's l1 problem |1> -> |0> under diag(1, -1) + u (cos phi X + sin phi Y), in a frame
    rotated about z by phi and with endpoint phases alpha and beta; a second channel is the
    orthogonal axis in the xy-plane."""
    sy = np.array([[0, -1j], [1j, 0]])
    axes = (np.cos(phi) * H1 + np.sin(phi) * sy, -np.sin(phi) * H1 + np.cos(phi) * sy)
    plant = ControlledHamiltonian(H0, axes[:channels])
    x0 = PhasePoint.from_amplitudes(np.exp(1j * alpha) * np.array([0.0, 1.0]))
    goal = PhasePoint.from_amplitudes(np.exp(1j * beta) * np.array([1.0, 0.0]))
    dom = ControlDomain([lower] * channels, [upper] * channels)
    grid = np.linspace(0.0, np.pi, intervals + 1)
    return forward_backward_sweep(plant, x0, goal, CostIntegrand("control-l1"), dom, grid), dom


class TestSplitPolish:
    """The l1 polish runs on x = [u+, u-], u = u+ - u-, where the running cost is linear."""

    @pytest.mark.parametrize(
        "lower, upper, x_lower, x_upper",
        [
            ([-1.0, -0.5], [1.0, 2.0], [0, 0, 0, 0], [1.0, 2.0, 1.0, 0.5]),
            ([0.2], [0.8], [0.2, 0], [0.8, 0]),
            ([-2.0], [-0.3], [0, 0.3], [0, 2.0]),
        ],
    )
    def test_bounds(self, lower, upper, x_lower, x_upper):
        lift, lo, hi = CostIntegrand("control-l1")._split(np.array(lower), np.array(upper))
        assert np.array_equal(lo, x_lower) and np.array_equal(hi, x_upper)
        r = len(lower)
        assert np.array_equal(lift, np.vstack([np.eye(r), -np.eye(r)]))
        # u+ - u- over the split box spans exactly the control box
        assert np.allclose(np.array(lower), lo[:r] - hi[r:]) and np.allclose(np.array(upper), hi[:r] - lo[r:])

    def test_split_objective_oracle(self, rng):
        plant = ControlledHamiltonian(random_hermitian(rng, 3), (random_hermitian(rng, 3), random_hermitian(rng, 3)))
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 6))])
        dts = np.diff(grid)
        psi0, goal = (PhasePoint.from_flat(unit_flat(rng, 3)).amplitudes for _ in range(2))
        cost = CostIntegrand("control-l1")
        lift, _, _ = cost._split(np.full(2, -1.5), np.full(2, 1.5))
        for _ in range(5):
            u = rng.uniform(-1.5, 1.5, size=(6, 2))
            u[rng.random(size=u.shape) < 0.3] = 0.0  # some controls at the kink
            x = split_variables(cost, u).ravel()
            value, grad = _objective_and_gradient(x, plant, cost, lift, psi0, goal, dts, 3.0)
            assert abs(value - _objective(u.ravel(), plant, cost, psi0, goal, dts, 3.0)) < 1e-14
            eps = 1e-6
            fd = np.empty_like(x)
            for i in range(x.size):
                xp, xm = np.array(x), np.array(x)
                xp[i] += eps
                xm[i] -= eps
                fd[i] = (
                    _objective_and_gradient(xp, plant, cost, lift, psi0, goal, dts, 3.0)[0]
                    - _objective_and_gradient(xm, plant, cost, lift, psi0, goal, dts, 3.0)[0]
                ) / (2 * eps)
            assert np.max(np.abs(grad - fd)) < 1e-7

    def test_benchmark_scenario(self):
        sol, _ = l1_inversion()
        assert sol.converged and sol.fidelity >= 0.999
        assert abs(sol.cost - 1.913203) < 1e-5

    def test_rotated_frames_take_the_same_work(self):
        # the same problem in six frames rotated about z, with random endpoint phases
        sols = [l1_inversion(*np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 3))[0] for seed in range(100, 106)]
        iterations = [sol.iterations for sol in sols]
        assert max(iterations) <= 1.25 * min(iterations)
        costs = [sol.cost for sol in sols]
        assert max(costs) - min(costs) < 1e-6
        assert all(sol.converged for sol in sols)

    @pytest.mark.parametrize(
        "lower, upper, channels", [(0.2, 0.8, 1), (-2.0, -0.3, 1), (-1.0, 1.0, 2)]
    )
    def test_controls_stay_in_the_box(self, lower, upper, channels):
        sol, dom = l1_inversion(channels=channels, lower=lower, upper=upper)
        u = sol.schedule.values
        assert all(dom.contains(row, tol=0.0) for row in u)
        assert sol.cost == CostIntegrand("control-l1").rate(u) @ np.diff(sol.schedule.grid)


class TestControlDomain:
    def test_bounds_checked(self):
        d = ControlDomain([-1.0], [1.0])
        assert d.contains([0.5]) and not d.contains([1.5])
        assert d.clip([2.0])[0] == 1.0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            ControlDomain([1.0], [-1.0])

    @pytest.mark.parametrize("lower, upper", [([np.nan], [1.0]), ([-1.0], [np.nan])])
    def test_rejects_nan_bound(self, lower, upper):
        with pytest.raises(ValueError):
            ControlDomain(lower, upper)


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
                    got = _maximize(_slopes(plant, psis, lams), phi0, CostIntegrand(kind), dom)
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
            u = _maximize(slopes, 0.0, CostIntegrand(kind), ControlDomain([-1.0, -2.0], [1.0, 0.5]))
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


class TestEndpoints:
    """Both solvers validate the endpoint states before normalizing them."""

    def _args(self, which, state):
        ends = {"x_init": to_phase(StateVector([0, 1.0])), "x_goal": to_phase(StateVector([1.0, 0]))}
        ends[which] = state
        return (two_level_plant(), ends["x_init"], ends["x_goal"], CostIntegrand(),
                ControlDomain([-1.0], [1.0]), np.linspace(0, np.pi, 9))

    @pytest.mark.parametrize("solver", [forward_backward_sweep, solve_shooting])
    @pytest.mark.parametrize("which", ["x_init", "x_goal"])
    def test_dimension_mismatch(self, solver, which):
        with pytest.raises(DimensionMismatchError, match=which):
            solver(*self._args(which, to_phase(StateVector([1.0, 0, 0]))))

    @pytest.mark.parametrize("solver", [forward_backward_sweep, solve_shooting])
    @pytest.mark.parametrize("which", ["x_init", "x_goal"])
    def test_zero_state(self, solver, which):
        with pytest.raises(NormalizationError, match=which):
            solver(*self._args(which, PhasePoint(np.zeros(2), np.zeros(2))))


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
