"""Numerical solvers: a NumPy bound-constrained quasi-Newton method, and SciPy's
least squares imported on its first call, not when qphase is imported.

``minimize_box`` polishes maximum-principle synthesis (``pontryagin``) and runs
the orbit and frame searches (``controllability._orbit_search``).  SciPy serves
only the shooting cross-check (``pontryagin.solve_shooting``); loading
``scipy.optimize`` and ``scipy.linalg`` at import would cost every process
about half a second.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_ARMIJO = 1e-4  # sufficient-decrease fraction of the projected linear decrease
_MEMORY = 20  # (s, y) pairs kept by minimize_box
_MAX_TRIALS = 20  # objective evaluations per line search


class BoxResult(NamedTuple):
    """The last accepted point, its objective value, the accepted steps and the objective calls."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int


def minimize_box(fun, x0, args=(), *, lower, upper, maxiter=400, ftol=1e-14, gtol=1e-12) -> BoxResult:
    """Minimise ``fun`` over the box lower <= x <= upper by projected L-BFGS.

    ``fun(x, *args)`` returns the value and the gradient.  Each iteration
    splits the variables by an eps-active set: those within eps of a bound
    that the gradient pushes against take a projected gradient step, and the
    free ones a limited-memory BFGS step (the last 20 pairs) restricted to
    the free set.  eps is the norm of the projected gradient, capped at 1e-3 of
    each variable's box width.  Steps are Armijo backtracks along the
    projection arc x(lam) = P(x + lam d), the decrease measured by
    g . (x - x(lam)) (Bertsekas, SIAM J. Control Optim. 20, 221 (1982);
    Kelley, Iterative Methods for Optimization, SIAM 1999, 5.5), each
    backtrack the minimiser of the quadratic through the last trial, kept
    within [0.1, 0.5] of it.

    The stopping rules are those of L-BFGS-B (Byrd, Lu, Nocedal and Zhu,
    SIAM J. Sci. Comput. 16, 1190 (1995)): ``maxiter`` accepted steps, a
    relative reduction (f - f+) / max(|f|, |f+|, 1) <= ``ftol``, or a largest
    projected-gradient entry |x - P(x - g)| <= ``gtol``.  A trial whose
    largest possible decrease g . (x - x(lam)) is below ftol max(|f|, 1)
    is not evaluated.  A start outside the box is clipped into it.  A
    non-finite value or gradient is never accepted: the line search cuts
    the step tenfold from it.  A search that finds no decrease drops the
    BFGS pairs and retries once along -gamma g, gamma = s . y / y . y of the
    newest pair; a second failure stops at the last accepted point, or at
    the start if its own value or gradient is not finite (``fun`` is then
    NaN).  ``nfev`` counts every call of ``fun``.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    fixed, eps_cap = lower == upper, 1e-3 * (upper - lower)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    f, g = _evaluate(fun, x, args)
    nit, nfev = 0, 1
    s = y = np.empty((0, x.size))  # steps and gradient changes of the last accepted steps
    scale = 1.0  # the inverse Hessian without pairs is scale I
    while nit < maxiter and not np.isnan(f):
        pg = x - np.clip(x - g, lower, upper)
        if not np.any(np.abs(pg) > gtol):
            break
        eps = np.minimum(np.sqrt(pg @ pg), eps_cap)
        active = fixed | ((x <= lower + eps) & (g > 0)) | ((x >= upper - eps) & (g < 0))
        d = -np.where(active, g, _lbfgs_direction(np.where(active, 0.0, g), s, y, ~active, scale))
        floor = ftol * max(abs(f), 1.0)
        lam, accepted = 1.0, False
        for _ in range(_MAX_TRIALS):
            xt = np.clip(x + lam * d, lower, upper)
            decrease = float(g @ (x - xt))
            if not decrease > floor:  # also a NaN step
                break
            ft, gt = _evaluate(fun, xt, args)
            nfev += 1
            if np.isnan(ft):
                lam *= 0.1
            elif ft <= f - _ARMIJO * decrease:
                accepted = True
                break
            else:  # the minimiser of the quadratic with slope -decrease/lam at 0 through ft
                lam *= min(max(0.5 * decrease / (ft - f + decrease), 0.1), 0.5)
        if not accepted:
            if len(s):  # no decrease along the BFGS direction: once more along -gamma g
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


def _evaluate(fun, x, args):
    """fun(x, *args) as (float value, float gradient); the value is NaN if either is not finite."""
    f, g = fun(x, *args)
    f, g = float(f), np.asarray(g, dtype=float)
    return (f if np.isfinite(f) and np.isfinite(g).all() else np.nan), g


def _lbfgs_direction(q: np.ndarray, s: np.ndarray, y: np.ndarray, free: np.ndarray, scale: float) -> np.ndarray:
    """H q for the L-BFGS inverse Hessian H of the pairs (rows of s, y) restricted to the free variables.

    The compact form of Byrd, Nocedal and Schnabel (Math. Program. 63, 129
    (1994), eq. 3.1): H = gamma I + W M W^T with W = [s^T, gamma y^T], gamma =
    s . y / y . y of the newest pair, and M the inverse of
    [[0, -R], [-R^T, -(D + gamma y y^T)]], R the upper triangle of s y^T and
    D its diagonal.  Pairs whose restricted curvature s . y is not positive
    are left out; with none left, H = scale I.
    """
    s, y = s * free, y * free
    sy, yy = s @ y.T, y @ y.T
    keep = sy.diagonal() > 1e-12 * yy.diagonal()
    if not keep.all():
        return _lbfgs_direction(q, s[keep], y[keep], free, scale)
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


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call."""
    from scipy.optimize import least_squares

    return least_squares(*args, **kwargs)


def linalg_names(module: str, names: tuple):
    """A module ``__getattr__`` (PEP 562) that serves ``scipy.linalg.<name>``.

    qphase calls none of them, but the benchmark's tracer
    (``perfbench/tracing.py``) looks them up by name in ``module`` and
    raises if one is missing; each is imported only when asked for.
    """

    def __getattr__(name: str):
        if name in names:
            import scipy.linalg

            return getattr(scipy.linalg, name)
        raise AttributeError(f"module {module!r} has no attribute {name!r}")

    return __getattr__
