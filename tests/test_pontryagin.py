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
from qphase.dynamics import forward_states, interval_propagators
from qphase.errors import (ControlDomainError, DimensionMismatchError, NormalizationError, ProtocolParameterError,
                           QPhaseError)
from qphase.geometry import real_block
import qphase.pontryagin
from qphase.pontryagin import _TransferProblem, _backward, _maximize, _propagate, _slopes

from conftest import random_hermitian, random_point, restacked_propagators

H0 = np.diag([1.0, -1.0]).astype(complex)
H1 = np.array([[0, 1], [1, 0]], complex)


def two_level_plant():
    return ControlledHamiltonian(H0, (H1,))


def _flow_generator(plant, u) -> np.ndarray:
    """Real 2N x 2N generator of Hamilton's equations at control u."""
    return real_block(-1j * plant.matrix_for(np.atleast_1d(u)))


def _penalty_terms(z_final: np.ndarray, z_goal: np.ndarray):
    """Overlap components (a, b) = (Re, Im) of <goal|psi(T)> in flat coordinates."""
    n = z_goal.size // 2
    jz_goal = np.concatenate([-z_goal[n:], z_goal[:n]])
    return float(z_goal @ z_final), float(jz_goal @ z_final), jz_goal


def penalized_objective(plant, cost, u, psi0, goal, dts, weight) -> float:
    """sum X0 dt + w(1 - |<goal|psi(T)>|^2) of the schedule u, from one pass of ``_propagate``."""
    overlap = _propagate(plant, u, psi0, goal, dts)[4]
    return float(cost.rate(u) @ dts) + weight * (1.0 - float(abs(overlap) ** 2))


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
    u = u_flat.reshape(m, r)
    ljs = [real_block(-1j * h) for h in plant.controls]
    dts = np.diff(grid)
    props, zs, run_cost = [], [z0], 0.0
    for k in range(m):
        gen = _flow_generator(plant, u[k])
        e = expm(gen * dts[k])
        props.append((gen, e))
        zs.append(e @ zs[-1])
        run_cost += cost.rate(u[k]) * dts[k]
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


def restacked_objective_and_gradient(x_flat, plant, cost, lift, psi0, goal, dts, weight):
    """``_TransferProblem.objective`` with the control tuple re-stacked on every call."""
    x = x_flat.reshape(dts.size, -1)
    props, w, v = restacked_propagators(plant, x @ lift, dts)
    psis = forward_states(props, psi0)
    overlap = np.vdot(goal, psis[-1])
    rate, rate_grad = cost._split_rate(x)
    value = float(rate @ dts) + weight * (1.0 - abs(overlap) ** 2)
    lams = _backward(props, -2.0 * weight * overlap * goal)
    vh = v.conj().transpose(0, 2, 1)
    a = np.einsum("kab,kb->ka", vh, lams[1:])
    b = np.einsum("kab,kb->ka", vh, psis[:-1])
    half = 0.5 * dts[:, None, None]
    wa, wb = w[:, :, None], w[:, None, :]
    f = np.exp(-1j * (wa + wb) * half) * np.sinc((wa - wb) * half / np.pi)
    hs = np.asarray(plant.controls, dtype=complex)
    h_eig = np.einsum("kxa,jxy,kyb->kjab", v.conj(), hs, v)
    grad = (dts[:, None] * np.einsum("kab,kjab->kj", a.conj()[:, :, None] * f * b[:, None, :], h_eig).imag) @ lift.T
    grad += rate_grad * dts[:, None]
    return value, grad.ravel()


class TestStackInPlace:
    """The sweep's kernels read the plant's stack, with the re-stacked tuple's bits."""

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (4, 3)])
    def test_slopes(self, rng, n, r):
        plant = ControlledHamiltonian(random_hermitian(rng, n), tuple(random_hermitian(rng, n) for _ in range(r)))
        psis = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        phis = rng.normal(size=(7, n)) + 1j * rng.normal(size=(7, n))
        hs = np.asarray(plant.controls, dtype=complex).reshape(-1, n, n)
        want = np.einsum("kx,jxy,ky->kj", phis.conj(), hs, psis).imag
        assert np.array_equal(_slopes(plant, psis, phis), want)

    @pytest.mark.parametrize("kind", ["control-energy", "control-l1"])
    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2)])
    def test_objective_and_gradient(self, rng, kind, n, r):
        plant = ControlledHamiltonian(random_hermitian(rng, n), tuple(random_hermitian(rng, n) for _ in range(r)))
        cost, grid = CostIntegrand(kind), np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 10))])
        x = split_variables(cost, rng.uniform(-1, 1, size=(10, r))).ravel()
        problem = _TransferProblem(plant, random_point(rng, n), random_point(rng, n), cost,
                                   ControlDomain(-np.ones(r), np.ones(r)), grid)
        args = (plant, cost, problem.lift, problem.psi0, problem.goal, problem.dts, 3.0)
        got_v, got_g = problem.objective(x, 3.0)
        want_v, want_g = restacked_objective_and_gradient(x, *args)
        assert got_v == want_v and np.array_equal(got_g, want_g)


class TestSpectralObjective:
    def _check(self, plant, u, grid, z0, zg, weight=3.0):
        dts = np.diff(grid)
        psi0, goal = PhasePoint.from_flat(z0).amplitudes, PhasePoint.from_flat(zg).amplitudes
        wide = np.full(u.shape[1], 2.0)
        for kind in ("control-energy", "control-l1"):
            cost = CostIntegrand(kind)
            problem = _TransferProblem(plant, PhasePoint.from_flat(z0), PhasePoint.from_flat(zg), cost,
                                       ControlDomain(-wide, wide), grid)
            x = split_variables(cost, u)
            want_v, want_g = reference_objective_and_gradient(u.ravel(), plant, cost, z0, zg, grid, weight)
            got_v, got_g = problem.objective(x.ravel(), weight)
            assert abs(got_v - want_v) < 1e-12
            assert np.max(np.abs(got_g - want_g)) < 1e-12
            assert abs(penalized_objective(plant, cost, u, psi0, goal, dts, weight) - want_v) < 1e-12

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
    return inversion("control-l1", phi, alpha, beta, channels, lower, upper, intervals)


def inversion(kind, phi=0.0, alpha=0.0, beta=0.0, channels=1, lower=-1.0, upper=1.0, intervals=8):
    """``l1_inversion`` with the running cost ``kind``."""
    sy = np.array([[0, -1j], [1j, 0]])
    axes = (np.cos(phi) * H1 + np.sin(phi) * sy, -np.sin(phi) * H1 + np.cos(phi) * sy)
    plant = ControlledHamiltonian(H0, axes[:channels])
    x0 = PhasePoint.from_amplitudes(np.exp(1j * alpha) * np.array([0.0, 1.0]))
    goal = PhasePoint.from_amplitudes(np.exp(1j * beta) * np.array([1.0, 0.0]))
    dom = ControlDomain([lower] * channels, [upper] * channels)
    grid = np.linspace(0.0, np.pi, intervals + 1)
    return forward_backward_sweep(plant, x0, goal, CostIntegrand(kind), dom, grid), dom


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
        x_init, x_goal = (PhasePoint.from_flat(unit_flat(rng, 3)) for _ in range(2))
        psi0, goal = x_init.amplitudes, x_goal.amplitudes
        cost = CostIntegrand("control-l1")
        problem = _TransferProblem(plant, x_init, x_goal, cost, ControlDomain(np.full(2, -1.5), np.full(2, 1.5)), grid)
        for _ in range(5):
            u = rng.uniform(-1.5, 1.5, size=(6, 2))
            u[rng.random(size=u.shape) < 0.3] = 0.0  # some controls at the kink
            x = split_variables(cost, u).ravel()
            value, grad = problem.objective(x, 3.0)
            assert abs(value - penalized_objective(plant, cost, u, psi0, goal, dts, 3.0)) < 1e-14
            eps = 1e-6
            fd = np.empty_like(x)
            for i in range(x.size):
                xp, xm = np.array(x), np.array(x)
                xp[i] += eps
                xm[i] -= eps
                fd[i] = (
                    problem.objective(xp, 3.0)[0] - problem.objective(xm, 3.0)[0]
                ) / (2 * eps)
            assert np.max(np.abs(grad - fd)) < 1e-7

    def test_benchmark_scenario(self):
        sol, _ = l1_inversion()
        assert sol.converged and sol.fidelity >= 0.999
        assert abs(sol.cost - 1.9099665) < 1e-5
        assert sol.cost < 1.913203  # the sweep that backtracked before the polish stopped at this cost

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
        assert np.all(u >= dom.lower) and np.all(u <= dom.upper)
        assert sol.cost == CostIntegrand("control-l1").rate(u) @ np.diff(sol.schedule.grid)


class TestControlDomain:
    def test_bounds_checked(self):
        d = ControlDomain([-1.0], [1.0])
        assert d.contains([0.5]) and not d.contains([1.5]) and not d.contains([0.5, 0.5])
        assert d.clip([2.0])[0] == 1.0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            ControlDomain([1.0], [-1.0])

    @pytest.mark.parametrize("lower, upper", [([np.nan], [1.0]), ([-1.0], [np.nan])])
    def test_rejects_nan_bound(self, lower, upper):
        with pytest.raises(ValueError):
            ControlDomain(lower, upper)

    @pytest.mark.parametrize(
        "lower, upper", [([1.0], [-1.0]), ([np.nan], [1.0]), ([-1.0, 0.0], [1.0]), ([[-1.0]], [[1.0]])]
    )
    def test_rejection_is_a_qphase_error(self, lower, upper):
        with pytest.raises(ControlDomainError) as info:
            ControlDomain(lower, upper)
        assert isinstance(info.value, QPhaseError) and isinstance(info.value, ValueError)


def test_unknown_cost_kind_is_a_qphase_error():
    with pytest.raises(ProtocolParameterError, match="unknown cost kind") as info:
        CostIntegrand("control-l2")
    assert isinstance(info.value, QPhaseError) and isinstance(info.value, ValueError)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_passes_match_the_assigning_loop_bit_for_bit(self, rng, n):
        """``forward_states`` writes each product into its row; the states and adjoints keep the bits of
        the loop that assigned ``psis[k + 1] = U_k @ psis[k]``, the adjoints run on the reversed U_k^H."""
        def assigning_loop(props, psi0):
            psis = np.empty((len(props) + 1, psi0.size), dtype=complex)
            psis[0] = psi0
            for k, prop in enumerate(props):
                psis[k + 1] = prop @ psis[k]
            return psis

        plant = ControlledHamiltonian(random_hermitian(rng, n), (random_hermitian(rng, n), random_hermitian(rng, n)))
        for m in (1, 2, 9):
            props = interval_propagators(plant, rng.uniform(-2.0, 2.0, (m, 2)), rng.uniform(0.05, 0.8, m))[0]
            psi0, lam = random_point(rng, n).amplitudes, random_point(rng, n).amplitudes
            assert forward_states(props, psi0).tobytes() == assigning_loop(props, psi0).tobytes()
            old_adjoints = assigning_loop(props.conj().transpose(0, 2, 1)[::-1], lam)[::-1]
            assert _backward(props, lam).tobytes() == old_adjoints.tobytes()


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


class TestPropagationCount:
    """The solve propagates each schedule once: u = 0, the random start, every
    warm-start candidate and every polish evaluation.  A polished schedule is
    propagated again only when its polish did not end on an evaluation at its
    result; otherwise the round reads F from that evaluation's pass."""

    CASES = [
        ("control-energy", 1, 8, 1.0, 1),
        ("control-energy", 1, 16, 1.0, 2),
        ("control-energy", 2, 8, 1.0, 3),
        ("control-l1", 1, 8, 1.0, 4),
        ("control-l1", 2, 12, 1.0, 5),
        ("control-energy", 1, 4, 0.05, 6),  # out of reach: every penalty round runs
    ]

    def _counted(self, monkeypatch):
        """The ``interval_propagators`` calls, and per polish (nfev, nit, whether its last evaluation was at
        ``res.x``, the calls when it started, the calls when it returned)."""
        calls, rounds = [0], []
        propagators, minimize = qphase.pontryagin.interval_propagators, qphase.pontryagin.minimize

        def counted(*args, **kwargs):
            calls[0] += 1
            return propagators(*args, **kwargs)

        def recorded(fun, x0, args=(), **kwargs):
            start, last = calls[0], []

            def seen(x, *more):
                last[:] = [np.array(x)]
                return fun(x, *more)

            res = minimize(seen, x0, args, **kwargs)
            rounds.append((int(res.nfev), int(res.nit), np.array_equal(last[0], res.x), start, calls[0]))
            return res

        monkeypatch.setattr(qphase.pontryagin, "interval_propagators", counted)
        monkeypatch.setattr(qphase.pontryagin, "minimize", recorded)
        return calls, rounds

    def _solve(self, monkeypatch, kind, channels, intervals, bound, seed):
        sy = np.array([[0, -1j], [1j, 0]])
        plant = ControlledHamiltonian(H0, (H1, sy)[:channels])
        x0, goal = to_phase(StateVector([0, 1.0])), to_phase(StateVector([1.0, 0]))
        dom = ControlDomain([-bound] * channels, [bound] * channels)
        calls, rounds = self._counted(monkeypatch)
        sol = forward_backward_sweep(plant, x0, goal, CostIntegrand(kind), dom,
                                     grid=np.linspace(0.0, np.pi, intervals + 1), rng=np.random.default_rng(seed))
        return sol, calls[0], rounds

    @pytest.mark.parametrize("kind, channels, intervals, bound, seed", CASES)
    def test_each_schedule_propagated_once(self, monkeypatch, kind, channels, intervals, bound, seed):
        sol, calls, rounds = self._solve(monkeypatch, kind, channels, intervals, bound, seed)
        sweeps = sol.iterations - sum(nit for _, nit, *_ in rounds)
        assert len(rounds) > 1 and sweeps > 0
        repropagated = sum(not at_result for _, _, at_result, *_ in rounds)
        assert calls == 2 + sweeps + sum(nfev for nfev, *_ in rounds) + repropagated

    @pytest.mark.parametrize("kind, channels, intervals, bound, seed", CASES)
    def test_polished_pass_reused(self, monkeypatch, kind, channels, intervals, bound, seed):
        """After a polish whose last evaluation was at its result, no pass runs before the next round
        starts or the solve returns; after any other polish, exactly one."""
        sol, calls, rounds = self._solve(monkeypatch, kind, channels, intervals, bound, seed)
        starts = [start for *_, start, _ in rounds[1:]] + [calls]  # the next round's start, or the solve's end
        after = [start - end for (*_, end), start in zip(rounds, starts)]
        assert after == [int(not at_result) for _, _, at_result, *_ in rounds]
        assert any(at_result for _, _, at_result, *_ in rounds)
        if bound == 0.05:
            assert len(rounds) == 6 and after == [0] * 6 and not sol.converged

    @pytest.mark.parametrize("case", ["goal-met", "singleton"])
    def test_early_return_propagates_once(self, monkeypatch, case):
        plant = two_level_plant()
        x0 = to_phase(StateVector([0, 1.0]))
        goal = x0 if case == "goal-met" else to_phase(StateVector([1.0, 0]))
        dom = ControlDomain([-1.0], [1.0]) if case == "goal-met" else ControlDomain([0.3], [0.3])
        calls, rounds = self._counted(monkeypatch)
        sol = forward_backward_sweep(plant, x0, goal, CostIntegrand(), dom, grid=np.linspace(0, 1.0, 9))
        assert sol.iterations == 0 and sol.converged == (case == "goal-met")
        assert calls[0] == 1 and rounds == []


class TestSweepWork:
    """The warm-start sweep runs once, stops at its first non-improving step, and each penalty round is polish alone.

    On the four benchmark shapes, the sigma_x inversion with 1 channel at m = 8 and m = 16, 2 channels
    at m = 8, and ``l1_inversion()``, a sweep that retried each rejected step with the damping halved,
    down to 1e-3, made 675 ``_propagate`` passes (179, 192, 215 and 89) and reached the energy costs
    ``HALVING_COSTS``; three quarters of its sweep passes were rejected.
    """

    SHAPES = [("control-energy", 1, 8), ("control-energy", 1, 16), ("control-energy", 2, 8), ("control-l1", 1, 8)]
    HALVING_PASSES = 675
    HALVING_COSTS = {(1, 8): 1.6460172358, (1, 16): 1.5839190199, (2, 8): 0.8191148448}

    def _run(self, monkeypatch, kind, channels, intervals):
        """The solution, its ``_propagate`` passes, its polishes and the warm start's rejected sweep passes.

        Each later round is a polish alone (``test_no_sweep_after_the_first_polish``), so only the
        passes before the first polish are sweep passes.
        """
        passes, warm, polishes, rejected = [0], [], [0], [0]
        propagate, minimize = qphase.pontryagin._propagate, qphase.pontryagin.minimize

        def counted(plant, u, psi0, goal, dts):
            passes[0] += 1
            out = propagate(plant, u, psi0, goal, dts)
            if not polishes[0]:
                warm.append((float(CostIntegrand(kind).rate(u) @ dts), abs(out[4]) ** 2))
            return out

        def polish(fun, x0, args=(), **kwargs):
            if not polishes[0]:
                # the warm start passed u = 0, then the seeded start and its sweep steps
                weight = args[-1]
                values = [run_cost + weight * (1.0 - fid) for run_cost, fid in warm[1:]]
                held = values[0]
                for value in values[1:]:
                    if value > held + 1e-12:
                        rejected[0] += 1
                    else:
                        held = value
            polishes[0] += 1
            return minimize(fun, x0, args, **kwargs)

        monkeypatch.setattr(qphase.pontryagin, "_propagate", counted)
        monkeypatch.setattr(qphase.pontryagin, "minimize", polish)
        sol, _ = inversion(kind, channels=channels, intervals=intervals)
        return sol, passes[0], polishes[0], rejected[0]

    def test_half_the_passes_at_no_extra_cost(self, monkeypatch):
        total = 0
        for kind, channels, intervals in self.SHAPES:
            sol, passes, polishes, rejected = self._run(monkeypatch, kind, channels, intervals)
            assert sol.converged and polishes > 1
            assert rejected <= 1, f"{kind} {channels} ch m = {intervals}: {rejected} rejected warm-start passes"
            if kind == "control-energy":
                assert sol.cost <= self.HALVING_COSTS[channels, intervals] + 1e-7
            total += passes
        assert total < self.HALVING_PASSES / 2

    @pytest.mark.parametrize("kind, channels, intervals", SHAPES)
    def test_no_sweep_after_the_first_polish(self, monkeypatch, kind, channels, intervals):
        sweeps, nits = [0, 0], []
        maximize, minimize = qphase.pontryagin._maximize, qphase.pontryagin.minimize

        def counted(*args):
            sweeps[len(nits) > 0] += 1  # [before the first polish, after it]
            return maximize(*args)

        def polish(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nits.append(int(res.nit))
            return res

        monkeypatch.setattr(qphase.pontryagin, "_maximize", counted)
        monkeypatch.setattr(qphase.pontryagin, "minimize", polish)
        sol, _ = inversion(kind, channels=channels, intervals=intervals)
        assert sol.converged and sweeps[0] > 0 and sweeps[1] == 0
        assert sol.iterations == sweeps[0] + sum(nits)


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

    @pytest.mark.parametrize("solver", [forward_backward_sweep, solve_shooting])
    @pytest.mark.parametrize("channels, controls", [(1, 2), (2, 1)])
    def test_channel_count_mismatch(self, solver, channels, controls):
        """A 1-channel box on a 2-control plant once lent channel 0's bounds to both channels in shooting,
        and a 2-channel box on a 1-control plant let NumPy's broadcast error escape."""
        plant = ControlledHamiltonian(H0, (H1, np.array([[0, -1j], [1j, 0]]))[:controls])
        with pytest.raises(DimensionMismatchError, match="channel count"):
            solver(plant, to_phase(StateVector([0, 1.0])), to_phase(StateVector([1.0, 0])), CostIntegrand(),
                   ControlDomain([-1.0] * channels, [1.0] * channels), np.linspace(0, np.pi, 11))


class TestShooting:
    def test_cross_check_two_level(self):
        plant = two_level_plant()
        x0 = to_phase(StateVector([0, 1.0]))
        goal = to_phase(StateVector([1.0, 0]))
        domain, grid = ControlDomain([-1.0], [1.0]), np.linspace(0, np.pi, 151)
        sol = solve_shooting(plant, x0, goal, CostIntegrand(), domain, grid=grid)
        assert sol.fidelity >= 0.99
        # the reported schedule is admissible and the reported cost is its own
        assert all(domain.contains(u) for u in sol.schedule.values)
        assert sol.cost == pytest.approx(float(np.sum(sol.schedule.values ** 2 * np.diff(grid)[:, None])), rel=1e-12)
        assert sol.iterations > 0

    @pytest.mark.parametrize("m", [10, 40, 150])
    @pytest.mark.parametrize("t_final", [np.pi, 4.0], ids=["pi", "4"])
    def test_energy_grids(self, m, t_final):
        sol = solve_shooting(
            two_level_plant(), to_phase(StateVector([0, 1.0])), to_phase(StateVector([1.0, 0])),
            CostIntegrand(), ControlDomain([-1.0], [1.0]), grid=np.linspace(0, t_final, m + 1),
        )
        assert sol.fidelity >= 0.999
        assert sol.converged

    @pytest.mark.parametrize("m", [10, 40])
    def test_rejects_the_l1_cost(self, monkeypatch, m):
        """The bang-off-bang argmax leaves the residual no slope, so the l1 cost is refused before any rollout."""
        monkeypatch.setattr(qphase.pontryagin, "minimize", None)
        with pytest.raises(ProtocolParameterError, match="piecewise constant"):
            solve_shooting(two_level_plant(), to_phase(StateVector([0, 1.0])), to_phase(StateVector([1.0, 0])),
                           CostIntegrand("control-l1"), ControlDomain([-1.0], [1.0]), grid=np.linspace(0, np.pi, m + 1))
