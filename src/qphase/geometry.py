"""States, phase coordinates, the (J, G, Omega) forms and canonical generators.

A pure state with amplitudes ``psi_k`` is identified with the real phase
point ``q_k = Re psi_k``, ``p_k = Im psi_k``.  With this convention
``G = Re<.|.>`` and ``Omega = Im<.|.>``, so a normalized state satisfies
``sum(q^2 + p^2) = 1`` and the Born probability of a projection is exactly
``(1 - G(psi - psi_a, psi - psi_a)/2)^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, HermiticityError, NormalizationError

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
DEGENERACY_RTOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.setflags(write=False)
    return a


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
    return PhasePoint(psi.amplitudes.real, psi.amplitudes.imag)


def from_phase(x: PhasePoint) -> StateVector:
    """Reassemble amplitudes psi_k = q_k + i p_k."""
    return StateVector(x.q + 1j * x.p)


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

    Eigenvalues closer than ``degeneracy_rtol`` (relative, floored at 1) are
    merged into a single projector.  The spectrum is listed in ascending
    order of eigenvalue.
    """

    def __init__(self, matrix, degeneracy_rtol: float = DEGENERACY_RTOL):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("observable matrix must be square")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise HermiticityError("matrix is not Hermitian within 1e-12")
        self.matrix = _readonly(m)
        vals, vecs = np.linalg.eigh(m)
        scale = max(1.0, float(np.max(np.abs(vals))))
        groups: list[list[int]] = [[0]]
        for i in range(1, vals.size):
            if vals[i] - vals[groups[-1][0]] <= degeneracy_rtol * scale:
                groups[-1].append(i)
            else:
                groups.append([i])
        spectrum = []
        eigenvectors = []
        for idx in groups:
            v = vecs[:, idx]
            spectrum.append((float(np.mean(vals[idx])), _readonly(v @ v.conj().T)))
            eigenvectors.append(_readonly(v))
        self.spectrum = tuple(spectrum)
        self._eigenvectors = tuple(eigenvectors)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def eigenvalues(self) -> tuple:
        return tuple(a for a, _ in self.spectrum)

    def is_nondegenerate(self) -> bool:
        return len(self.spectrum) == self.dim

    def is_traceless(self, tol: float = 1e-10) -> bool:
        return abs(np.trace(self.matrix)) <= tol * max(1.0, np.max(np.abs(self.matrix)))

    def branch_index(self, a: float) -> int:
        """Index of the spectral branch whose eigenvalue is closest to ``a``."""
        vals = np.asarray(self.eigenvalues)
        return int(np.argmin(np.abs(vals - a)))

    def projector(self, a: float) -> np.ndarray:
        return self.spectrum[self.branch_index(a)][1]

    def eigenspace_basis(self, a: float) -> np.ndarray:
        """Orthonormal column basis of the eigenspace of ``a``."""
        return self._eigenvectors[self.branch_index(a)]

    def expectation(self, psi: StateVector) -> float:
        if psi.dim != self.dim:
            raise DimensionMismatchError(f"dims {psi.dim} != {self.dim}")
        a = psi.amplitudes
        return float(np.real(np.vdot(a, self.matrix @ a)))


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
