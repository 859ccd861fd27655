"""SciPy, imported where qphase calls it and not when qphase is imported.

Only maximum-principle synthesis (``pontryagin``) and the orbit and frame
searches (``controllability.orbit_membership``,
``steering.build_frame_general``) use SciPy's optimisers; measurement,
evolution, closure and torus planning are NumPy alone.  Loading
``scipy.optimize`` and ``scipy.linalg`` at import would cost every process
about half a second, so the wrappers here import on their first call.
"""

from __future__ import annotations


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call."""
    from scipy.optimize import minimize

    return minimize(*args, **kwargs)


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
