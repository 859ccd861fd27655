"""States, phase coordinates, the (J, G, Omega) forms and canonical generators.

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
    """``matrix`` as a complex square array, finite and Hermitian within ``tol``.

    ``max|m - m^H| > tol`` alone lets NaN through, so finiteness is checked.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise HermiticityError("matrix must be square")
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
            raise ValueError("amplitudes must be a non-empty 1-d sequence")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(np.sum(np.abs(self.amplitudes) ** 2) - 1.0) <= tol

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)

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

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

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
    measurement formula is a product with V: the Born weights, the
    projection onto a branch and a spectral function of the matrix.
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
        # each column's branch eigenvalue, the argument of spectral functions
        self._levels = np.repeat(self.eigenvalues, np.diff(bounds))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_nondegenerate(self) -> bool:
        return len(self.eigenvalues) == self.dim

    def is_traceless(self, tol: float = 1e-10) -> bool:
        return abs(np.trace(self.matrix)) <= tol * max(1.0, np.max(np.abs(self.matrix)))

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

    def apply(self, f, psi: np.ndarray) -> np.ndarray:
        """f(A) psi = V f(Lambda) V^H psi, f called on each column's branch eigenvalue."""
        self._check_dim(psi)
        return self._vecs @ (f(self._levels) * (self._vecs.conj().T @ psi))

    @cached_property
    def spectrum(self) -> tuple:
        """(eigenvalue, projector) pairs in ascending order, built on first use."""
        pairs = []
        for branch, a in enumerate(self.eigenvalues):
            v = self._branch_vectors(branch)
            pairs.append((a, _readonly(v @ v.conj().T)))
        return tuple(pairs)

    def projector(self, a: float) -> np.ndarray:
        return self.spectrum[self.branch_index(a)][1]

    def eigenspace_basis(self, a: float) -> np.ndarray:
        """Orthonormal column basis of the eigenspace of ``a``."""
        return self._branch_vectors(self.branch_index(a))


_GENERATOR_KINDS = ("qq-rotation", "qp-rotation", "phase-rotation")


@dataclass(frozen=True)
class CanonicalGenerator:
    """One-parameter canonical subgroup element acting on (q, p).

    ``qq-rotation`` mixes channels i and j identically in q and in p,
    ``qp-rotation`` mixes q_i with p_j (and q_j with p_i),
    ``phase-rotation`` rotates the single (q_i, p_i) plane.
    """

    kind: str
    i: int
    j: int
    theta: float

    def __post_init__(self):
        if self.kind not in _GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind != "phase-rotation" and self.i == self.j:
            raise ValueError("two-channel generators need distinct indices")

    def matrix(self, n: int) -> np.ndarray:
        """The complex n x n unitary as a 2n x 2n real matrix, layout (q_1..q_n, p_1..p_n)."""
        for idx in (self.i, self.j):
            if not 0 <= idx < n:
                raise IndexError(f"channel index {idx} out of range for dimension {n}")
        c, s = np.cos(self.theta), np.sin(self.theta)
        u = np.eye(n, dtype=complex)
        i, j = self.i, self.j
        if self.kind == "qq-rotation":
            u[i, i], u[i, j], u[j, i], u[j, j] = c, s, -s, c
        elif self.kind == "qp-rotation":
            u[i, i], u[i, j], u[j, i], u[j, j] = c, 1j * s, 1j * s, c
        else:  # phase-rotation on channel i: e^{i theta}
            u[i, i] = complex(c, s)
        return real_block(u)


def canonical_apply(g: CanonicalGenerator, x: PhasePoint) -> PhasePoint:
    """Apply the generator's explicit matrix to a phase point."""
    return PhasePoint.from_flat(g.matrix(x.dim) @ x.flat())
