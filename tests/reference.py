"""Independent references that tests compare the library against, and the
series operations only tests use.

None of these is library code: each takes its own path to a quantity the
library computes another way, or serves a test alone.
"""

import cmath
import math

import numpy as np

from magbloch.fock import FockTruncation, _mode_eigenbasis, ladder
from magbloch.lattice import (TWO_PI, FourierSeries2D, Lattice2D,
                              _mode_multiplied)
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


def eval_series(F: FourierSeries2D, x1: float, x2: float):
    """Evaluate ``F`` at ``(x1, x2)``; real output for real-valued series.

    For ``is_real`` series the imaginary residue is checked against 1e-12
    (relative to the coefficient scale) before being discarded.
    """
    total = 0j
    for (n, m), c in F.coeffs.items():
        total += c * cmath.exp(1j * TWO_PI * (n * x1 + m * x2))
    if F.is_real:
        scale = max(F.max_abs(), 1.0)
        if abs(total.imag) > 1e-12 * scale:
            raise ValueError(
                f"imaginary residue {total.imag} on declared-real series")
        return total.real
    return total


def directional_derivative_Dz(F: FourierSeries2D, L: Lattice2D) -> FourierSeries2D:
    """First-order operator z_a d/dx - z_b d/dp, coefficientwise
    ``i 2 pi (m z_a - n z_b)``."""
    return _mode_multiplied(F, lambda n, m: 1j * TWO_PI * (m * L.z_a - n * L.z_b))


def directional_derivative_Dzbar(F: FourierSeries2D, L: Lattice2D) -> FourierSeries2D:
    """Conjugate-frame companion of :func:`directional_derivative_Dz`."""
    return _mode_multiplied(
        F, lambda n, m: 1j * TWO_PI * (m * L.z_a.conjugate() - n * L.z_b.conjugate()))
