"""Truncated Fock space: ladder matrices, the harmonic generator, the mode
generators and their shared eigenbasis.

All matrices act on the basis ``psi_0 ... psi_{n_max}``.  The top ``guard``
rows/columns are considered unreliable; every scalar reported by higher
modules is extracted from the ``(dim - guard)`` corner.  The ladder sign
convention is fixed once (charge sign +1); the opposite sign enters only
through the quantization phases in :mod:`magbloch.quantize`.

Every mode generator ``I_{n,m} = alpha a + conj(alpha) a_dag`` is a phase
conjugate of one real matrix: ``I = |alpha| D J D^*`` with the Hermite
Jacobi matrix ``J = a + a_dag`` and ``D = diag(e^{-i k arg alpha})``.  By
the Golub-Welsch identity the eigenvalues of ``J`` are the Gauss-Hermite
nodes (roots of the probabilists' Hermite polynomial He_dim).  Its
eigendecomposition is computed once per basis size and cached, and
:func:`_mode_eigenbasis` phases it into the eigenbasis of ``t I_{n,m}``
for any mode and time: every function of a mode generator (the Taylor
tails of :mod:`magbloch.symbols`) reuses it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import TruncationError, _is_integer
from .lattice import Lattice2D

__all__ = [
    "FockTruncation",
    "ladder",
    "xi_matrix",
    "I_generator",
    "alpha_coefficient",
    "band_projector_matrix",
]


@dataclass(frozen=True)
class FockTruncation:
    """Basis size ``n_max + 1`` with a guard band of untrusted top rows."""

    n_max: int
    guard: int = 6

    def __post_init__(self):
        if not _is_integer(self.n_max, 1):
            raise TruncationError("n_max must be an integer >= 1")
        if not (_is_integer(self.guard, 0) and self.guard <= self.n_max):
            raise TruncationError("guard must be an integer in [0, n_max]")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def corner_dim(self) -> int:
        return self.dim - self.guard

    def require(self, order: int, max_band: int) -> None:
        """Check n_max >= 2*order + max_band + guard, of integers >= 0."""
        if not (_is_integer(order, 0) and _is_integer(max_band, 0)):
            raise TruncationError(f"order {order!r} and max_band {max_band!r} "
                                  "must be integers >= 0")
        need = 2 * order + max_band + self.guard
        if self.n_max < need:
            raise TruncationError(
                f"n_max={self.n_max} too small: order {order} on band "
                f"{max_band} with guard {self.guard} needs n_max >= {need}")


def ladder(T: FockTruncation):
    """Lowering/raising pair: a[n-1, n] = sqrt(n), a_dag = a^T conj."""
    n = np.arange(1, T.dim)
    a = np.zeros((T.dim, T.dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    return a, a.conj().T


def xi_matrix(T: FockTruncation) -> np.ndarray:
    """Harmonic generator diag(n + 1/2); equals a_dag a + 1/2 exactly."""
    return np.diag(np.arange(T.dim) + 0.5).astype(complex)


def _quadrature_diagonals(z: complex, T: FockTruncation):
    """The upper and lower off-diagonals of (z a + conj(z) a_dag)/sqrt(2),
    its only nonzero entries: z sqrt(k)/sqrt(2) at [k-1, k] and
    conj(z) sqrt(k)/sqrt(2) at [k, k-1]."""
    k = np.arange(1, T.dim)
    return (z * np.sqrt(k) / math.sqrt(2.0),
            z.conjugate() * np.sqrt(k) / math.sqrt(2.0))


def alpha_coefficient(n: int, m: int, L: Lattice2D) -> complex:
    """Ladder coefficient alpha_{n,m} = (n z_b - m z_a)/sqrt(2)."""
    return (n * L.z_b - m * L.z_a) / math.sqrt(2.0)


def I_generator(n: int, m: int, L: Lattice2D, T: FockTruncation) -> np.ndarray:
    """Hermitian generator alpha a + conj(alpha) a_dag of the mode (n, m):
    alpha sqrt(k) at [k-1, k] and conj(alpha) sqrt(k) at [k, k-1]."""
    alpha = alpha_coefficient(n, m, L)
    k = np.arange(1, T.dim)
    I = np.zeros((T.dim, T.dim), dtype=complex)
    I[k - 1, k] = alpha * np.sqrt(k)
    I[k, k - 1] = alpha.conjugate() * np.sqrt(k)
    return I


@functools.lru_cache(maxsize=8)
def _hermite_jacobi_eigh(dim: int):
    """Read-only (x, U) with J = U diag(x) U^T for the Hermite Jacobi matrix
    J = a + a_dag of size dim; x are the Gauss-Hermite nodes."""
    x, U = scipy.linalg.eigh_tridiagonal(np.zeros(dim),
                                         np.sqrt(np.arange(1.0, dim)))
    x.setflags(write=False)
    U.setflags(write=False)
    return x, U


def _mode_eigenbasis(t: float, n: int, m: int, L: Lattice2D,
                     T: FockTruncation):
    """(lam, U, d) with ``t I_{n,m} = D U diag(lam) U^T D^*``, D = diag(d).

    With ``I = |alpha| D J D^*``, ``D = diag(e^{-i k arg alpha})`` and the
    cached ``J = U diag(x) U^T`` (real U), ``lam = t |alpha| x``.  The
    zero generator (alpha = 0, the constant mode) has the trivial basis:
    zeros, the identity and ones, so a function f of it is f(0) times the
    identity exactly.
    """
    alpha = alpha_coefficient(n, m, L)
    if alpha == 0:
        return (np.zeros(T.dim), np.eye(T.dim),
                np.ones(T.dim, dtype=complex))
    x, U = _hermite_jacobi_eigh(T.dim)
    d = np.exp(-1j * cmath.phase(alpha) * np.arange(T.dim))
    return t * abs(alpha) * x, U, d


def band_projector_matrix(T: FockTruncation, band_set) -> np.ndarray:
    """Diagonal projector onto the Hermite states listed in band_set."""
    P = np.zeros((T.dim, T.dim), dtype=complex)
    for k in band_set:
        P[k, k] = 1.0
    return P
