"""Numerical solvers: one NumPy bound-constrained quasi-Newton method.

``minimize_box`` polishes maximum-principle synthesis (``pontryagin``), runs
the shooting cross-check (``pontryagin.solve_shooting``) and the orbit and
frame searches (``controllability._orbit_search``).  qphase needs only NumPy.
Most of its problems are small (8 to 16 variables in a synthesis polish), so
a step costs NumPy calls more than arithmetic: the (s, y) pairs live in one
preallocated buffer, shifted in place, and the compact-form matrix is filled
in place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_ARMIJO = 1e-4  # sufficient-decrease fraction of the projected linear decrease
_MEMORY = 20  # (s, y) pairs kept by minimize_box
_MAX_TRIALS = 20  # objective evaluations per line search
_STRICT_LOWER = np.tri(_MEMORY, k=-1, dtype=bool)


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
    free ones a limited-memory BFGS step restricted to the free set, from the
    last 20 (s, y) pairs, held in a preallocated buffer that drops its oldest
    pair when full.  eps is the norm of the projected gradient, capped at 1e-3 of
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
    x = np.asarray(x0, dtype=float).clip(lower, upper)
    f, g = _evaluate(fun, x, args)
    nit, nfev, k = 0, 1, 0
    s, y = np.empty((2, _MEMORY, x.size))  # rows :k: the last k accepted steps and gradient changes, oldest first
    scale = 1.0  # the inverse Hessian without pairs is scale I
    while nit < maxiter and not math.isnan(f):
        pg = x - (x - g).clip(lower, upper)
        if not (np.abs(pg) > gtol).any():
            break
        eps = np.minimum(math.sqrt(pg @ pg), eps_cap)
        active = fixed | ((x <= lower + eps) & (g > 0)) | ((x >= upper - eps) & (g < 0))
        d = -np.where(active, g, _lbfgs_direction(np.where(active, 0.0, g), s[:k], y[:k], ~active, scale))
        floor = ftol * max(abs(f), 1.0)
        lam, accepted = 1.0, False
        for _ in range(_MAX_TRIALS):
            xt = (x + lam * d).clip(lower, upper)
            decrease = float(g @ (x - xt))
            if not decrease > floor:  # also a NaN step
                break
            ft, gt = _evaluate(fun, xt, args)
            nfev += 1
            if math.isnan(ft):
                lam *= 0.1
            elif ft <= f - _ARMIJO * decrease:
                accepted = True
                break
            else:  # the minimiser of the quadratic with slope -decrease/lam at 0 through ft
                lam *= min(max(0.5 * decrease / (ft - f + decrease), 0.1), 0.5)
        if not accepted:
            if k:  # no decrease along the BFGS direction: once more along -gamma g
                sy = float(s[k - 1] @ y[k - 1])
                scale = sy / float(y[k - 1] @ y[k - 1]) if sy > 0 else 1.0
                k = 0
                continue
            break
        if k == _MEMORY:  # full: drop the oldest pair
            s[:-1], y[:-1] = s[1:], y[1:]
        k = min(k + 1, _MEMORY)
        s[k - 1], y[k - 1] = xt - x, gt - g
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
    return (f if math.isfinite(f) and np.isfinite(g).all() else math.nan), g


def _lbfgs_direction(q: np.ndarray, s: np.ndarray, y: np.ndarray, free: np.ndarray, scale: float) -> np.ndarray:
    """H q for the L-BFGS inverse Hessian H of the pairs (rows of s, y) restricted to the free variables.

    The compact form of Byrd, Nocedal and Schnabel (Math. Program. 63, 129
    (1994), eq. 3.1): H = gamma I + W M W^T with W = [s^T, gamma y^T], gamma =
    s . y / y . y of the newest pair, and M the inverse of
    [[0, -R], [-R^T, -(D + gamma y y^T)]], R the upper triangle of s y^T and
    D its diagonal.  Pairs whose restricted curvature s . y is not positive
    are left out; with none left, H = scale I.
    """
    k = len(s)
    if k == 0:
        return scale * q
    if not free.all():  # with every variable free the restriction is the identity
        s, y = s * free, y * free
    sy, yy = s @ y.T, y @ y.T
    keep = sy.diagonal() > 1e-12 * yy.diagonal()
    if not keep.all():
        return _lbfgs_direction(q, s[keep], y[keep], free, scale)
    gamma = sy[-1, -1] / yy[-1, -1]
    inv_m = np.zeros((2 * k, 2 * k))  # filled in place, with the bits of -triu(sy) and -gamma yy - diag(sy)
    inv_m[:k, k:] = -sy
    inv_m[:k, k:][_STRICT_LOWER[:k, :k]] = -0.0  # -R: R is zero below the diagonal
    inv_m[k:, :k] = inv_m[:k, k:].T
    np.multiply(yy, -gamma, out=inv_m[k:, k:])
    inv_m.reshape(-1)[(2 * k + 1) * k :: 2 * k + 1] -= sy.diagonal()  # the diagonal of -(D + gamma y y^T)
    w = np.concatenate((s, gamma * y))
    return gamma * q + np.linalg.solve(inv_m, w @ q) @ w


def never_called(*args, **kwargs):
    """The ``expm`` names that the benchmark's tracer (``perfbench/tracing.py``) wraps; qphase calls none."""
    raise NotImplementedError("qphase propagates with dynamics.interval_propagators, never with expm")
