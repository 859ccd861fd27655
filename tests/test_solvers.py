"""``_solvers.minimize_box`` against SciPy's L-BFGS-B on convex quadratics in a
box, its behaviour on objectives that are not finite everywhere, and its
iterates against the concatenating implementation it replaced, bit for bit."""

import numpy as np
import pytest
from scipy.optimize import minimize

import qphase.pontryagin
from qphase import ControlDomain, ControlledHamiltonian, CostIntegrand, StateVector, forward_backward_sweep, to_phase
from qphase._solvers import _ARMIJO, _MAX_TRIALS, _MEMORY, BoxResult, minimize_box

# only the projected-gradient test stops these runs, so both solvers go all the way
FTOL, GTOL, MAXITER = 0.0, 1e-12, 400


def box_quadratic(rng, n, active, fixed):
    """A strictly convex quadratic, its box and its minimiser x*.

    x* is built to meet the KKT conditions: ``active`` entries sit on a
    bound the gradient pushes against, ``fixed`` ones have lower == upper,
    the rest are interior with zero gradient.  f is shifted so that
    f(x*) = 0, which keeps its rounding near the minimiser at the scale of
    f itself.
    """
    q = rng.normal(size=(n, n))
    a = q @ q.T / n + np.eye(n)
    x_star = rng.uniform(-1.0, 1.0, n)
    g_star = np.where(active, rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n), 0.0)
    # a positive gradient holds x* on its lower bound, a negative one on its upper
    lower = np.where(active & (g_star > 0), x_star, x_star - rng.uniform(0.5, 2.0, n))
    upper = np.where(active & (g_star < 0), x_star, x_star + rng.uniform(0.5, 2.0, n))
    lower = np.where(fixed, x_star, lower)
    upper = np.where(fixed, x_star, upper)

    def fun(x):
        d = x - x_star
        return 0.5 * d @ a @ d + g_star @ d, a @ d + g_star

    return fun, lower, upper, x_star


CASES = {
    "none-active": lambda n, rng: (np.zeros(n, bool), np.zeros(n, bool)),
    "some-active": lambda n, rng: (rng.random(n) < 0.5, np.zeros(n, bool)),
    "all-active": lambda n, rng: (np.ones(n, bool), np.zeros(n, bool)),
    "some-fixed": lambda n, rng: (rng.random(n) < 0.3, np.arange(n) % 3 == 0),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (5, 2), (12, 3), (40, 4)])
def test_matches_lbfgsb_on_box_quadratics(case, n, seed):
    rng = np.random.default_rng(seed)
    fun, lower, upper, x_star = box_quadratic(rng, n, *CASES[case](n, rng))
    x0 = rng.uniform(lower, upper)
    calls = [0]

    def counted(x):
        calls[0] += 1
        return fun(x)

    res = minimize_box(counted, x0, lower=lower, upper=upper, maxiter=MAXITER, ftol=FTOL, gtol=GTOL)
    ref = minimize(fun, x0, method="L-BFGS-B", jac=True, bounds=list(zip(lower, upper)),
                   options={"maxiter": MAXITER, "ftol": FTOL, "gtol": GTOL})
    assert np.max(np.abs(res.x - ref.x)) <= 1e-8
    assert np.max(np.abs(res.x - x_star)) <= 1e-8
    assert np.all(lower <= res.x) and np.all(res.x <= upper)
    _, g = fun(res.x)
    if res.nit < MAXITER:
        assert np.max(np.abs(res.x - np.clip(res.x - g, lower, upper))) <= GTOL
    assert res.nfev == calls[0]
    assert res.fun == fun(res.x)[0]


def test_linear_objective_goes_to_the_vertex():
    """A linear objective has y = 0 for every step, so no pair is ever used."""
    c = np.array([1.0, -2.0, 0.5, 0.0])
    lower, upper = np.array([-1.0, -1.0, 0.0, 2.0]), np.array([1.0, 3.0, 0.5, 2.0])
    res = minimize_box(lambda x: (c @ x, c), [0.3, 0.1, 0.2, 2.0], lower=lower, upper=upper)
    assert np.array_equal(res.x, [-1.0, 3.0, 0.0, 2.0]) and res.fun == c @ res.x


def lbfgsb(fun, x0, args=(), *, lower, upper, maxiter=400, ftol=1e-14, gtol=1e-12):
    """SciPy's L-BFGS-B with ``minimize_box``'s call signature, as the synthesis polish called it."""
    return minimize(fun, x0, args=args, method="L-BFGS-B", jac=True, bounds=list(zip(lower, upper)),
                    options={"maxiter": maxiter, "ftol": ftol, "gtol": gtol})


def test_synthesis_polish_needs_fewer_evaluations_than_lbfgsb(monkeypatch):
    """On two-level inversions like the benchmark's, the polish reaches L-BFGS-B's solutions with at most
    three quarters of its objective calls (233 against 415 when written), which is what keeps synthesis's
    wall time from rising now that the solver's own arithmetic runs in Python."""
    sy = np.array([[0, -1j], [1j, 0]])
    x0, goal = to_phase(StateVector([0, 1.0])), to_phase(StateVector([1.0, 0]))
    nfev = {}
    for name, solver in (("box", minimize_box), ("lbfgsb", lbfgsb)):
        rounds = []

        def counted(*args, solver=solver, **kwargs):
            res = solver(*args, **kwargs)
            rounds.append(res.nfev)
            return res

        monkeypatch.setattr(qphase.pontryagin, "minimize", counted)
        sols = [forward_backward_sweep(ControlledHamiltonian(np.diag([1.0, -1.0]), (np.array([[0, 1], [1, 0]]), sy)[:ch]),
                                       x0, goal, CostIntegrand(kind), ControlDomain([-1.0] * ch, [1.0] * ch),
                                       grid=np.linspace(0.0, np.pi, m + 1))
                for kind, ch, m in [("control-energy", 1, 8), ("control-energy", 1, 16),
                                    ("control-energy", 2, 8), ("control-l1", 1, 8)]]
        nfev[name] = sum(rounds)
        if name == "box":
            box_sols = sols
    for a, b in zip(box_sols, sols):
        assert a.converged and b.converged
        assert abs(a.cost - b.cost) <= 1e-6 and abs(a.fidelity - b.fidelity) <= 1e-8
    assert nfev["box"] <= 0.75 * nfev["lbfgsb"]


def test_maxiter_bounds_the_accepted_steps():
    rng = np.random.default_rng(5)
    fun, lower, upper, _ = box_quadratic(rng, 30, rng.random(30) < 0.5, np.zeros(30, bool))
    res = minimize_box(fun, rng.uniform(lower, upper), lower=lower, upper=upper, maxiter=3, ftol=FTOL, gtol=GTOL)
    assert res.nit == 3


class TestNonFinite:
    """A value or gradient that is not finite never becomes the returned point."""

    CENTRE, RADIUS = np.array([0.0, 0.0]), 1.0
    LOWER, UPPER = np.array([-3.0, -3.0]), np.array([3.0, 3.0])

    def objective(self, bad):
        """(x - 2)^2 summed, whose minimiser (2, 2) lies outside the unit ball where ``bad`` applies."""
        evaluated = []

        def fun(x):
            evaluated.append(np.array(x))
            value, grad = float(np.sum((x - 2.0) ** 2)), 2.0 * (x - 2.0)
            if np.linalg.norm(x - self.CENTRE) <= self.RADIUS:
                return value, grad
            if bad == "nan":
                return np.nan, grad
            if bad == "-inf":
                return -np.inf, grad
            return value, np.full_like(grad, np.inf)

        return fun, evaluated

    @pytest.mark.parametrize("bad", ["nan", "-inf", "inf-gradient"])
    def test_stops_inside_the_finite_region(self, bad):
        fun, evaluated = self.objective(bad)
        res = minimize_box(fun, [0.1, -0.2], lower=self.LOWER, upper=self.UPPER)
        assert np.all(np.isfinite(res.x)) and np.isfinite(res.fun)
        assert np.linalg.norm(res.x - self.CENTRE) <= self.RADIUS
        assert res.fun < fun(np.array([0.1, -0.2]))[0]  # it still made progress inside the ball
        assert res.nfev == len(evaluated) - 1  # the call above is the test's own
        assert all(np.all(np.isfinite(x)) for x in evaluated)

    def test_non_finite_start_is_returned_unchanged(self):
        fun, evaluated = self.objective("nan")
        res = minimize_box(fun, [2.5, 2.5], lower=self.LOWER, upper=self.UPPER)
        assert np.array_equal(res.x, [2.5, 2.5]) and np.isnan(res.fun)
        assert (res.nit, res.nfev) == (0, 1) and len(evaluated) == 1

    def test_start_outside_the_box_is_clipped(self):
        fun, evaluated = self.objective("nan")
        res = minimize_box(fun, [-5.0, 0.5], lower=[-0.5, -3.0], upper=[3.0, 3.0])
        assert np.array_equal(evaluated[0], [-0.5, 0.5])
        assert np.all(res.x >= [-0.5, -3.0]) and np.linalg.norm(res.x) <= self.RADIUS


def reference_minimize_box(fun, x0, args=(), *, lower, upper, maxiter=400, ftol=1e-14, gtol=1e-12) -> BoxResult:
    """``minimize_box`` as it was before the pair buffer: new (s, y) arrays by concatenation each step."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    fixed, eps_cap = lower == upper, 1e-3 * (upper - lower)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g = reference_evaluate(fun, x, args)
    nit, nfev = 0, 1
    s = y = np.empty((0, x.size))
    scale = 1.0
    while nit < maxiter and not np.isnan(f):
        pg = x - np.clip(x - g, lower, upper)
        if not np.any(np.abs(pg) > gtol):
            break
        eps = np.minimum(np.sqrt(pg @ pg), eps_cap)
        active = fixed | ((x <= lower + eps) & (g > 0)) | ((x >= upper - eps) & (g < 0))
        d = -np.where(active, g, reference_lbfgs_direction(np.where(active, 0.0, g), s, y, ~active, scale))
        floor = ftol * max(abs(f), 1.0)
        lam, accepted = 1.0, False
        for _ in range(_MAX_TRIALS):
            xt = np.clip(x + lam * d, lower, upper)
            decrease = float(g @ (x - xt))
            if not decrease > floor:
                break
            ft, gt = reference_evaluate(fun, xt, args)
            nfev += 1
            if np.isnan(ft):
                lam *= 0.1
            elif ft <= f - _ARMIJO * decrease:
                accepted = True
                break
            else:
                lam *= min(max(0.5 * decrease / (ft - f + decrease), 0.1), 0.5)
        if not accepted:
            if len(s):
                sy = float(s[-1] @ y[-1])
                scale = sy / float(y[-1] @ y[-1]) if sy > 0 else 1.0
                s = y = s[:0]
                continue
            break
        s, y = np.concatenate((s, [xt - x]))[-_MEMORY:], np.concatenate((y, [gt - g]))[-_MEMORY:]
        nit += 1
        reduced = f - ft <= ftol * max(abs(f), abs(ft), 1.0)
        x, f, g = xt, ft, gt
        if reduced:
            break
    return BoxResult(x, f, nit, nfev)


def reference_evaluate(fun, x, args):
    f, g = fun(x, *args)
    f, g = float(f), np.asarray(g, dtype=float)
    return (f if np.isfinite(f) and np.isfinite(g).all() else np.nan), g


def reference_lbfgs_direction(q, s, y, free, scale):
    """The compact-form direction with ``np.triu`` and ``np.diag`` temporaries."""
    s, y = s * free, y * free
    sy, yy = s @ y.T, y @ y.T
    keep = sy.diagonal() > 1e-12 * yy.diagonal()
    if not keep.all():
        return reference_lbfgs_direction(q, s[keep], y[keep], free, scale)
    k = len(s)
    if k == 0:
        return scale * q
    gamma = sy[-1, -1] / yy[-1, -1]
    inv_m = np.zeros((2 * k, 2 * k))
    inv_m[:k, k:] = -np.triu(sy)
    inv_m[k:, :k] = inv_m[:k, k:].T
    inv_m[k:, k:] = -gamma * yy - np.diag(sy.diagonal())
    w = np.concatenate((s, gamma * y))
    return gamma * q + np.linalg.solve(inv_m, w @ q) @ w


def rosenbrock(x):
    """Non-convex, so a step's curvature s . y on the free variables can be negative."""
    d, e = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * d - 2.0 * e
    g[1:] += 200.0 * d
    return float(100.0 * d @ d + e @ e), g


def oracle_runs():
    """(name, fun, x0, keyword arguments) of runs that cover every branch of the pair bookkeeping."""
    runs = []
    for case in sorted(CASES):
        for n, seed in [(2, 1), (5, 2), (12, 3), (40, 4)]:
            rng = np.random.default_rng(seed)
            fun, lower, upper, _ = box_quadratic(rng, n, *CASES[case](n, rng))
            runs.append((f"{case}-{n}", fun, rng.uniform(lower, upper),
                         dict(lower=lower, upper=upper, ftol=FTOL, gtol=GTOL)))
    rng = np.random.default_rng(6)
    for n in (4, 10):
        runs.append((f"rosenbrock-box-{n}", rosenbrock, rng.uniform(-2.0, 2.0, n),
                     dict(lower=np.full(n, -1.5), upper=np.r_[np.full(n - 1, 2.0), 0.7], ftol=FTOL, gtol=GTOL)))
        # solve_shooting's call: scalar infinite bounds
        runs.append((f"rosenbrock-free-{n}", rosenbrock, rng.uniform(-2.0, 2.0, n),
                     dict(lower=-np.inf, upper=np.inf, ftol=0.0, gtol=1e-15)))
    for bad in ("nan", "-inf", "inf-gradient"):
        fun, _ = TestNonFinite().objective(bad)
        runs.append((f"disc-{bad}", fun, [0.1, -0.2], dict(lower=TestNonFinite.LOWER, upper=TestNonFinite.UPPER)))
    return runs


RUNS = oracle_runs()


@pytest.mark.parametrize("name, fun, x0, kwargs", RUNS, ids=[run[0] for run in RUNS])
def test_iterates_match_the_concatenating_reference_bit_for_bit(name, fun, x0, kwargs):
    res, ref = minimize_box(fun, x0, **kwargs), reference_minimize_box(fun, x0, **kwargs)
    assert res.x.tobytes() == ref.x.tobytes()
    assert np.float64(res.fun).tobytes() == np.float64(ref.fun).tobytes()
    assert (res.nit, res.nfev) == (ref.nit, ref.nfev)


def test_oracle_runs_wrap_the_buffer_and_drop_pairs(monkeypatch):
    """The sweep above fills all 20 pair slots and leaves out pairs of non-positive restricted curvature."""
    seen = {"full": 0, "dropped": 0}

    def counted(q, s, y, free, scale):
        seen["full"] += len(s) == _MEMORY
        sy = np.einsum("ij,ij->i", s * free, y * free)
        seen["dropped"] += bool(np.any(sy <= 1e-12 * np.einsum("ij,ij->i", y * free, y * free)))
        return direction(q, s, y, free, scale)

    direction = reference_lbfgs_direction
    monkeypatch.setitem(globals(), "reference_lbfgs_direction", counted)
    for _, fun, x0, kwargs in RUNS:
        reference_minimize_box(fun, x0, **kwargs)
    assert seen["full"] > 0 and seen["dropped"] > 0
