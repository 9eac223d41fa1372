"""Independent references that tests compare the library against.

None of these is library code: each takes its own path to a quantity the
library computes another way.
"""

import math

import numpy as np

from magbloch.fock import FockTruncation, _mode_eigenbasis, ladder
from magbloch.lattice import Lattice2D
from magbloch.symbols import OperatorSymbol, eval_mode_map


def quadrature(z: complex, T: FockTruncation) -> np.ndarray:
    """(z a + conj(z) a_dag)/sqrt(2) from the dense ladder pair: the fast
    position at ``z = L.z_a``, the fast momentum at ``z = L.z_b``."""
    a, ad = ladder(T)
    return (z * a + z.conjugate() * ad) / math.sqrt(2.0)


def displacement_exp(t: float, n: int, m: int, L: Lattice2D,
                     T: FockTruncation) -> np.ndarray:
    """exp(i t I_{n,m}) on the mode's eigenbasis (:func:`_mode_eigenbasis`):

        exp(i t I) = D [U diag(cos(lam)) U^T + i U diag(sin(lam)) U^T] D^*,

    two real matrix products and a diagonal phase scaling per call.
    Unconditionally stable in t, unitary on the truncated space by
    construction; the guard band controls the distance to the
    untruncated operator.
    """
    theta, U, d = _mode_eigenbasis(t, n, m, L, T)
    E = (U * np.cos(theta)) @ U.T + 1j * ((U * np.sin(theta)) @ U.T)
    return E * np.outer(d, d.conj())


def eval_symbol(sym: OperatorSymbol, point, delta: float) -> np.ndarray:
    """sum_j delta^j (grade-j evaluation) at the phase-space point."""
    out = np.zeros((sym.truncation.dim, sym.truncation.dim), dtype=complex)
    for j, mm in sym.grades.items():
        out += (delta ** j) * eval_mode_map(mm, point)
    return out
