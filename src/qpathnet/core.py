"""Finite-dimensional states, observables and unitary time evolution.

Everything here is plain dense complex linear algebra on small Hilbert
spaces (dim of order 2..16).  Values are immutable after construction and
safe to share across threads.  Dataclasses in this package that hold arrays
(directly or through another such class) compare and hash by identity
(`eq=False`): generated field-wise equality would compare arrays elementwise
and raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Construction-time tolerances vs tolerances on derived identities.
TOL_CONSTRUCT = 1e-12
TOL_DERIVED = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.flags.writeable = False
    return out


def _fix_column_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero component is real positive.

    Makes eigenbases reproducible across runs and platforms.
    """
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of a dim-dimensional system, stored as complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 2:
            raise ValueError("state dimension must be at least 2")
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @classmethod
    def from_components(cls, components) -> "StateVector":
        return cls(np.asarray(components, dtype=complex))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= TOL_CONSTRUCT

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def orthonormal_completion(state: StateVector) -> tuple[StateVector, ...]:
    """dim-1 orthonormal vectors spanning the complement of `state`.

    Deterministic (SVD null space with fixed column phases).
    """
    phi = state.normalized().amplitudes
    _, _, vh = np.linalg.svd(phi[None, :].conj())
    basis = _fix_column_phases(vh[1:].conj().T)
    return tuple(StateVector(basis[:, j]) for j in range(basis.shape[1]))


def _check_hermitian(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    if not np.isfinite(scale):
        raise ValueError(f"{what} must be finite, not of norm {scale}")
    if np.linalg.norm(m - m.conj().T) > TOL_CONSTRUCT * max(scale, 1.0):
        raise ValueError(f"{what} is not Hermitian")
    return m


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with its spectral decomposition.

    `eigenvectors[:, i]` is the eigenstate paired with `eigenvalues[i]`; the
    column order defines the path index used throughout the package.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(np.asarray(self.matrix, dtype=complex)))
        object.__setattr__(self, "eigenvalues", _readonly(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _readonly(np.asarray(self.eigenvectors, dtype=complex)))
        if not all(np.isfinite(a).all() for a in (self.matrix, self.eigenvalues, self.eigenvectors)):
            raise ValueError("observable matrix, eigenvalues and eigenvectors must be finite")
        v = self.eigenvectors
        gram = v.conj().T @ v
        if np.linalg.norm(gram - np.eye(self.dim)) > TOL_DERIVED:
            raise ValueError("eigenvectors are not orthonormal")
        rebuilt = (v * self.eigenvalues) @ v.conj().T
        if np.linalg.norm(rebuilt - self.matrix) > TOL_DERIVED * max(np.linalg.norm(self.matrix), 1.0):
            raise ValueError("eigendecomposition does not reconstruct the matrix")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, matrix) -> "Observable":
        """Diagonalize a Hermitian matrix; eigenvalues ascending, phases fixed."""
        m = _check_hermitian(matrix, "observable")
        vals, vecs = np.linalg.eigh(m)
        return cls(m, vals, _fix_column_phases(vecs))

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenvectors) -> "Observable":
        """Build from explicit eigenpairs, keeping the given order."""
        vals = np.asarray(eigenvalues, dtype=float)
        vecs = np.asarray(eigenvectors, dtype=complex)
        if vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvectors must be square with one column per eigenvalue")
        with np.errstate(invalid="ignore"):  # inf times 0: the constructor refuses what is not finite
            matrix = (vecs * vals) @ vecs.conj().T
        return cls(matrix, vals, vecs)

    def eigenstate(self, index: int) -> StateVector:
        return StateVector(self.eigenvectors[:, index])

    def expectation(self, state: StateVector) -> float:
        if state.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {state.dim}")
        val = np.vdot(state.amplitudes, self.matrix @ state.amplitudes)
        return float(val.real)


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary evolution U(t) = exp(-i H t) from a time-independent Hamiltonian.

    U(t) is computed through the spectral decomposition of H, which is exact
    for Hermitian H and stable at the small dimensions used here.
    """

    hamiltonian: np.ndarray
    _eigenvalues: np.ndarray = field(init=False, repr=False)
    _eigenvectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        h = _check_hermitian(self.hamiltonian, "hamiltonian")
        object.__setattr__(self, "hamiltonian", _readonly(h))
        vals, vecs = np.linalg.eigh(h)
        object.__setattr__(self, "_eigenvalues", vals)
        object.__setattr__(self, "_eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @classmethod
    def free(cls, dim: int) -> "Propagator":
        """Zero Hamiltonian: U(t) = I for all t."""
        return cls(np.zeros((dim, dim), dtype=complex))

    def unitary(self, t: float) -> np.ndarray:
        t = float(t)
        if not np.isfinite(t):
            raise ValueError("time must be finite")
        v = self._eigenvectors
        return _readonly((v * np.exp(-1j * self._eigenvalues * t)) @ v.conj().T)


def robertson_check(state: StateVector, a: Observable, b: Observable) -> tuple[float, float]:
    """Standard-deviation product bound for two observables in a pure state.

    Returns (sigma_a * sigma_b, |<[A,B]>| / 2); the first is never below the
    second for any normalized state.
    """
    if not (state.dim == a.dim == b.dim):
        raise ValueError("state and observables must share one dimension")
    psi = state.amplitudes

    def variance(op: Observable) -> float:
        mean = op.expectation(state)
        second = np.vdot(psi, op.matrix @ (op.matrix @ psi)).real
        return max(float(second - mean**2), 0.0)

    lhs = float(np.sqrt(variance(a)) * np.sqrt(variance(b)))
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    rhs = float(abs(np.vdot(psi, comm @ psi)) / 2.0)
    return lhs, rhs

