"""States, phase coordinates, the (J, G, Omega) forms and observables.

A pure state with amplitudes ``psi_k`` is identified with the real phase
point ``q_k = Re psi_k``, ``p_k = Im psi_k``.  With this convention
``G = Re<.|.>`` and ``Omega = Im<.|.>``, so a normalized state satisfies
``sum(q^2 + p^2) = 1`` and the Born probability of a projection is exactly
``(1 - G(psi - psi_a, psi - psi_a)/2)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, HermiticityError, NormalizationError

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
DEGENERACY_RTOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


def hermitian(matrix, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """``matrix`` as a non-empty complex square array, finite and Hermitian within ``tol``.

    ``max|m - m^H| > tol`` alone lets NaN through, so finiteness is checked.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise HermiticityError("matrix must be square and non-empty")
    if not (np.all(np.isfinite(m)) and np.max(np.abs(m - m.conj().T)) <= tol):
        raise HermiticityError(f"matrix is not finite and Hermitian within {tol:g}")
    return m


@dataclass(frozen=True)
class StateVector:
    """Finite sequence of complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionMismatchError("amplitudes must be a non-empty 1-d sequence")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(np.sum(np.abs(self.amplitudes) ** 2) - 1.0) <= tol

    def normalized(self) -> "StateVector":
        """The state scaled to unit norm; a zero or non-finite state raises ``NormalizationError``.

        The squares of a finite state can overflow to an infinite norm or
        underflow to a zero one; such a state is first divided by its
        largest real or imaginary part, which brings its norm into
        [1, sqrt(2 dim)].  The parts are divided as reals: a largest modulus
        could overflow too, and a complex division by a subnormal overflows.
        """
        amps = self.amplitudes
        with np.errstate(over="ignore"):
            n = self.norm()
        if not (np.isfinite(n) and n > 0.0):
            parts = amps.view(float)  # Re and Im of each amplitude
            top = float(np.max(np.abs(parts)))
            if not (np.isfinite(top) and top > 0.0):
                raise NormalizationError(f"cannot normalize a vector of norm {n!r}")
            amps = (parts / top).view(complex)
            n = float(np.linalg.norm(amps))
        return StateVector(amps / n)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2


@dataclass(frozen=True)
class PhasePoint:
    """Paired real coordinate/momentum sequences (q, p)."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if q.ndim != 1 or p.ndim != 1 or q.size != p.size:
            raise DimensionMismatchError("q and p must be 1-d of equal length")
        object.__setattr__(self, "q", _readonly(q))
        object.__setattr__(self, "p", _readonly(p))

    @property
    def dim(self) -> int:
        return self.q.size

    def norm_sq(self) -> float:
        return float(np.sum(self.q**2 + self.p**2))

    @property
    def amplitudes(self) -> np.ndarray:
        """Complex amplitudes psi_k = q_k + i p_k of this phase point."""
        return self.q + 1j * self.p

    @classmethod
    def from_amplitudes(cls, psi) -> "PhasePoint":
        """Phase point q = Re psi, p = Im psi of complex amplitudes."""
        psi = np.asarray(psi)
        return cls(psi.real, psi.imag)

    def flat(self) -> np.ndarray:
        """Concatenated (q_1..q_N, p_1..p_N) vector."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_flat(cls, v: np.ndarray) -> "PhasePoint":
        v = np.asarray(v, dtype=float)
        n = v.size // 2
        return cls(v[:n], v[n:])

    def __sub__(self, other: "PhasePoint") -> "PhasePoint":
        return PhasePoint(self.q - other.q, self.p - other.p)


def real_block(u: np.ndarray) -> np.ndarray:
    """Real 2N x 2N matrix, layout (q, p), of a complex-linear map on amplitudes."""
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def to_phase(psi: StateVector) -> PhasePoint:
    """Split amplitudes into real/imaginary phase coordinates."""
    return PhasePoint.from_amplitudes(psi.amplitudes)


def from_phase(x: PhasePoint) -> StateVector:
    """Reassemble amplitudes psi_k = q_k + i p_k."""
    return StateVector(x.amplitudes)


def g_form(x: PhasePoint, y: PhasePoint) -> float:
    """Riemannian metric G(x, y) = Re<x|y>."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dims {x.dim} != {y.dim}")
    return float(np.dot(x.q, y.q) + np.dot(x.p, y.p))


def omega_form(x: PhasePoint, y: PhasePoint) -> float:
    """Symplectic form Omega(x, y) = Im<x|y>."""
    if x.dim != y.dim:
        raise DimensionMismatchError(f"dims {x.dim} != {y.dim}")
    return float(np.dot(x.q, y.p) - np.dot(x.p, y.q))


def complex_structure(x: PhasePoint) -> PhasePoint:
    """J: (q, p) -> (-p, q), multiplication of the amplitudes by i."""
    return PhasePoint(-x.p, x.q)


class Observable:
    """Hermitian matrix with a cached, degeneracy-grouped spectral decomposition.

    One ``eigh`` gives the eigenvector matrix V, columns in ascending order
    of eigenvalue; eigenvalues closer than ``DEGENERACY_RTOL`` (relative,
    floored at 1) form one branch, a contiguous range of columns.  Every
    measurement formula is a product with V: the Born weights and the
    projection onto a branch.
    """

    def __init__(self, matrix):
        m = hermitian(matrix)
        self.matrix = _readonly(m)
        vals, vecs = np.linalg.eigh(m)
        scale = max(1.0, float(np.max(np.abs(vals))))
        starts = [0]
        for i in range(1, vals.size):
            if vals[i] - vals[starts[-1]] > DEGENERACY_RTOL * scale:
                starts.append(i)
        bounds = starts + [vals.size]
        # branch b is the columns bounds[b]:bounds[b + 1] of V
        self._columns = tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
        self._starts = np.array(starts)
        self._vecs = _readonly(vecs)
        self.eigenvalues = tuple(float(np.mean(vals[c])) for c in self._columns)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_nondegenerate(self) -> bool:
        return len(self.eigenvalues) == self.dim

    def branch_index(self, a: float) -> int:
        """Index of the spectral branch whose eigenvalue is closest to ``a``."""
        vals = np.asarray(self.eigenvalues)
        return int(np.argmin(np.abs(vals - a)))

    def _branch_vectors(self, branch: int) -> np.ndarray:
        return self._vecs[:, self._columns[branch]]

    def _check_dim(self, psi: np.ndarray):
        if psi.shape[-1] != self.dim:
            raise DimensionMismatchError("state and observable dimensions differ")

    def weights(self, psi: np.ndarray) -> np.ndarray:
        """Born weights ||P_b psi||^2 of every branch: |V^H psi|^2 summed per branch."""
        self._check_dim(psi)
        return np.add.reduceat(np.abs(self._vecs.conj().T @ psi) ** 2, self._starts)

    def project(self, psi: np.ndarray, branch: int) -> np.ndarray:
        """P_b psi = V_b (V_b^H psi), the (unnormalized) projection onto a branch."""
        self._check_dim(psi)
        v = self._branch_vectors(branch)
        return v @ (v.conj().T @ psi)

    @cached_property
    def spectrum(self) -> tuple:
        """(eigenvalue, projector) pairs in ascending order, built on first use."""
        pairs = []
        for branch, a in enumerate(self.eigenvalues):
            v = self._branch_vectors(branch)
            pairs.append((a, _readonly(v @ v.conj().T)))
        return tuple(pairs)

    def eigenspace_basis(self, a: float) -> np.ndarray:
        """Orthonormal column basis of the eigenspace of ``a``."""
        return self._branch_vectors(self.branch_index(a))

