"""Strong-field Hamiltonian symbols on the truncated Fock space.

An operator-valued symbol is stored as a grading

    ``{j: {(n, m): C}}``  meaning  ``sum_j delta^j sum_{n,m} e^{i 2 pi (n p + m x)} C``

with ``C`` a Fock matrix.  Grade 0 is the harmonic generator; the expansion
terms are homogeneous polynomials in the ladder operators multiplying the
Fourier modes of the scalar potential and of the periodic vector potential.
The exact symbol carries displacement factors instead of their polynomial
truncations; the difference is the remainder whose scaling orders are
measured here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import FockTruncation, corner_norm
from .lattice import (FourierSeries2D, Lattice2D, PeriodicVectorPotential,
                      TWO_PI)

__all__ = [
    "OperatorSymbol",
    "V_term",
    "W_term",
    "assemble_truncated",
    "eval_mode_map",
    "eval_symbol",
    "exact_symbol",
    "eval_exact",
    "remainder_matrix",
    "remainder_norm",
    "mode_dagger",
    "symbol_hermiticity_residual",
    "default_points",
]

# ---------------------------------------------------------------------------
# mode-map helpers (shared with the star-product module)

ModeMap = dict


def mode_add(A: ModeMap, B: ModeMap) -> ModeMap:
    """A + B as a new map.  A mode held by one side only keeps that side's
    array uncopied, so a returned mode map's arrays are never written in
    place."""
    out = dict(A)
    for nm, M in B.items():
        out[nm] = out[nm] + M if nm in out else M
    return out


def mode_scale(A: ModeMap, s: complex) -> ModeMap:
    return {nm: s * M for nm, M in A.items()}


def mode_dagger(A: ModeMap) -> ModeMap:
    """Pointwise adjoint of the symbol: (n,m) -> conj-transpose at (-n,-m)."""
    return {(-n, -m): M.conj().T for (n, m), M in A.items()}


def mode_max_norm(A: ModeMap, T: FockTruncation) -> float:
    """Max over modes of the entrywise max-norm on the guard corner."""
    c = T.corner_dim
    best = 0.0
    for M in A.values():
        best = max(best, float(np.max(np.abs(M[:c, :c]))) if c else 0.0)
    return best


def mode_hermiticity_defect(A: ModeMap, T: FockTruncation) -> float:
    """mode_max_norm of A - mode_dagger(A): the symbol's Hermiticity
    defect."""
    return mode_max_norm(mode_add(A, mode_scale(mode_dagger(A), -1.0)), T)


def eval_mode_map(A: ModeMap, point) -> np.ndarray:
    p, x = point
    dim = next(iter(A.values())).shape[0] if A else 1
    out = np.zeros((dim, dim), dtype=complex)
    for (n, m), M in A.items():
        out += cmath.exp(1j * TWO_PI * (n * p + m * x)) * M
    return out


@dataclass(frozen=True)
class OperatorSymbol:
    """delta-graded, Fourier-mode-indexed family of truncated Fock matrices."""

    grades: dict
    truncation: FockTruncation
    lattice: Lattice2D
    natural: int | None = None

    def grade(self, j: int) -> ModeMap:
        return self.grades.get(j, {})


def V_term(j: int, V: FourierSeries2D, L: Lattice2D, T: FockTruncation) -> ModeMap:
    """Scalar-potential expansion term of total grade j (j >= 2):
    mode matrix ``(i 2 pi)^(j-2)/(j-2)! * I_{n,m}^(j-2) * v_{n,m}``."""
    if j < 2:
        raise ValueError("scalar-potential terms start at grade 2")
    k = j - 2
    pref = (1j * TWO_PI) ** k / math.factorial(k)
    eye = np.eye(T.dim, dtype=complex)
    out: ModeMap = {}
    for (n, m), v in V.coeffs.items():
        if v == 0:
            continue
        if k == 0:
            out[(n, m)] = (pref * v) * eye
        else:
            out[(n, m)] = (pref * v) * np.linalg.matrix_power(
                fock.I_generator(n, m, L, T), k)
    return out


def _lin(A: PeriodicVectorPotential | None, L: Lattice2D,
         T: FockTruncation) -> ModeMap:
    """The upper and lower off-diagonals of the nonzero ``f1 Q_f + f2 P_f``
    of each mode of A, its only nonzero entries, in the iteration order of
    ``set(A.f1.coeffs) | set(A.f2.coeffs)``; empty without A."""
    if A is None or A.is_zero():
        return {}
    q_up, q_lo = fock._quadrature_diagonals(L.z_a, T)
    p_up, p_lo = fock._quadrature_diagonals(L.z_b, T)
    out: ModeMap = {}
    for (n, m) in set(A.f1.coeffs) | set(A.f2.coeffs):
        f1, f2 = A.f1[(n, m)], A.f2[(n, m)]
        up, lo = f1 * q_up + f2 * p_up, f1 * q_lo + f2 * p_lo
        if np.any(up) or np.any(lo):
            out[(n, m)] = up, lo
    return out


def W_term(j: int, A: PeriodicVectorPotential, L: Lattice2D,
           T: FockTruncation) -> ModeMap:
    """Vector-potential expansion term of total grade j (j >= 1):
    mode matrix ``(i 2 pi)^(j-1)/(j-1)! * I_{n,m}^(j-1) (f1 Q_f + f2 P_f)``.

    Grades 1 and 2 enter the assembled models; the remainder takes the
    whole Taylor tail in closed form (:func:`remainder_matrix`).
    """
    if j < 1:
        raise ValueError("vector-potential terms start at grade 1")
    k = j - 1
    pref = (1j * TWO_PI) ** k / math.factorial(k)
    out: ModeMap = {}
    for (n, m), (up, lo) in _lin(A, L, T).items():
        lin = np.diag(up, 1) + np.diag(lo, -1)
        if k == 0:
            out[(n, m)] = pref * lin
        else:
            out[(n, m)] = pref * (
                np.linalg.matrix_power(fock.I_generator(n, m, L, T), k) @ lin)
    return out


def _natural(A: PeriodicVectorPotential | None) -> int:
    """The natural order: 1 without a vector potential, 0 with one."""
    return 1 if A is None or A.is_zero() else 0


def _top_grade(A: PeriodicVectorPotential | None) -> int:
    """The Taylor cut: the truncated symbol keeps grades up to
    ``2 (1 + natural)``, so the powers of ``I_{n,m}`` up to two below it
    with V (``V_term``) and up to one below it with ``f1 Q_f + f2 P_f``
    (``W_term``)."""
    return 2 * (1 + _natural(A))


def assemble_truncated(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                       L: Lattice2D, T: FockTruncation) -> OperatorSymbol:
    """Polynomially truncated symbol up to grade :func:`_top_grade`.

    ``natural`` is 1 without a vector potential (grades {0, 2, 3, 4}, grade 1
    empty) and 0 with one (grades {0, 1, 2}).
    """
    grades: dict[int, ModeMap] = {0: {(0, 0): fock.xi_matrix(T)}}
    for j in range(1, _top_grade(A) + 1):
        term: ModeMap = {}
        if A is not None and not A.is_zero():
            term = mode_add(term, W_term(j, A, L, T))
        if j >= 2:
            term = mode_add(term, V_term(j, V, L, T))
        if term:
            grades[j] = term
    return OperatorSymbol(grades=grades, truncation=T, lattice=L,
                          natural=_natural(A))


def eval_symbol(sym: OperatorSymbol, point, delta: float) -> np.ndarray:
    """sum_j delta^j (grade-j evaluation) at the phase-space point."""
    out = np.zeros((sym.truncation.dim, sym.truncation.dim), dtype=complex)
    for j, mm in sym.grades.items():
        out += (delta ** j) * eval_mode_map(mm, point)
    return out


def symbol_hermiticity_residual(sym: OperatorSymbol, T: FockTruncation) -> float:
    """Mode-reflection conjugation defect, max over grades and modes."""
    return max((mode_hermiticity_defect(mm, T) for mm in sym.grades.values()),
               default=0.0)


def _check_delta(delta: float) -> None:
    if not math.isfinite(delta) or delta < 0:
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")


def _times_conjugated(M: np.ndarray, lin, d: np.ndarray) -> np.ndarray:
    """M @ (D^* lin D) with D = diag(d), for a lin given by its upper and
    lower off-diagonals (:func:`_lin`); O(dim^2)."""
    up, lo = lin
    up = up * (d[:-1].conj() * d[1:])
    lo = lo * (d[1:].conj() * d[:-1])
    out = np.zeros(M.shape, dtype=complex)
    out[:, 1:] = M[:, :-1] * up
    out[:, :-1] += M[:, 1:] * lo
    return out


def _mode_shares(V, A, L, T: FockTruncation, delta: float, f, point):
    """Each mode's phased share of a function of the displacement generators.

    On the mode's eigenbasis ``2 pi delta I_{n,m} = D U diag(z) U^T D^*``
    (:func:`fock._mode_eigenbasis`), the mode (n, m) of A and V yields

        phase D U [diag(f(z, 0)) delta^2 v U^T
                   + diag(f(z, 1)) delta U^T D^* lin D] D^*,

    with ``phase = e^{i 2 pi (n p + m x)}`` at the point (p, x) and ``lin =
    f1 Q_f + f2 P_f``.  With ``f = e^{iz}`` this is the mode's part of the
    exact symbol, ``delta^2 v E + delta E lin`` with ``E = exp(i 2 pi delta
    I_{n,m})``.  ``U^T D^* lin D`` costs O(dim^2), as ``lin`` has only two
    off-diagonals, so each mode costs one real-by-complex product.
    """
    lins = _lin(A, L, T)
    pots = {nm: v for nm, v in V.coeffs.items() if v != 0}
    for (n, m) in dict.fromkeys([*lins, *pots]):
        z, U, d = fock._mode_eigenbasis(TWO_PI * delta, n, m, L, T)
        B = np.zeros((T.dim, T.dim), dtype=complex)
        if (n, m) in pots:
            B += ((delta ** 2) * pots[(n, m)] * f(z, 0))[:, None] * U.T
        if (n, m) in lins:
            B += ((delta * f(z, 1))[:, None]
                  * _times_conjugated(U.T, lins[(n, m)], d))
        share = (U @ B.view(float)).view(complex)
        phase = cmath.exp(1j * TWO_PI * (n * point[0] + m * point[1]))
        yield (n, m), (phase * d)[:, None] * share * d.conj()


def exact_symbol(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                 L: Lattice2D, T: FockTruncation, delta: float) -> ModeMap:
    """Mode map of the exact symbol: the harmonic generator at (0, 0) and,
    at each mode of A and V, ``delta E lin + delta^2 v E`` with the
    displacement exponential ``E = exp(i 2 pi delta I_{n,m})``, each the
    share of :func:`_mode_shares` with ``f = e^{iz}``."""
    _check_delta(delta)
    shares = _mode_shares(V, A, L, T, delta, lambda z, j: np.exp(1j * z),
                          (0.0, 0.0))
    return mode_add({(0, 0): fock.xi_matrix(T)}, dict(shares))


def eval_exact(V: FourierSeries2D, A: PeriodicVectorPotential | None,
               L: Lattice2D, T: FockTruncation, delta: float,
               point) -> np.ndarray:
    """Exact symbol at one point; Hermitian inside the guard band when the
    gauge condition holds."""
    return eval_mode_map(exact_symbol(V, A, L, T, delta), point)


# Horner terms of the tail of rho_K where |z| < 1: the first omitted term is
# at most 1/(_RHO_TERMS + 1)! of the first kept one, below the rounding unit.
_RHO_TERMS = 20


def _rho(z: np.ndarray, K: int) -> np.ndarray:
    """rho_K(z) = e^{iz} - sum_{k<=K} (iz)^k/k! of a real array z.

    Where |z| < 1 the tail sum_{k>K} (iz)^k/k! is summed from its first
    term (Horner, ``_RHO_TERMS`` terms), so no two O(1) numbers cancel;
    elsewhere, where rho_K is no longer small, it is taken as written."""
    iz = 1j * np.asarray(z, dtype=float)
    out = np.exp(iz)
    for k in range(K + 1):
        out -= iz ** k / math.factorial(k)
    small = np.abs(iz) < 1
    w = iz[small]
    s = np.ones_like(w)
    for j in range(K + _RHO_TERMS, K + 1, -1):
        s = 1 + (w / j) * s
    out[small] = w ** (K + 1) / math.factorial(K + 1) * s
    return out


def remainder_matrix(V, A, L, T: FockTruncation, delta: float, point) -> np.ndarray:
    """Exact symbol minus the evaluated truncated symbol at one point.

    The truncation keeps the powers of ``I_{n,m}`` up to ``K = top - 2``
    with V and ``K + 1`` with lin (``top`` from :func:`_top_grade`), so the
    difference is the sum of the shares of :func:`_mode_shares` with
    ``f(z, j) = rho_{K+j}(z)``, the tail of ``e^{iz}``.  The constant mode's
    truncation is exact: its ``z`` is 0, where every ``rho_K`` is 0.  No
    matrix power is formed, and no two O(1) matrices are subtracted.
    """
    _check_delta(delta)
    K = _top_grade(A) - 2
    R = np.zeros((T.dim, T.dim), dtype=complex)
    for _, share in _mode_shares(V, A, L, T, delta,
                                 lambda z, j: _rho(z, K + j), point):
        R += share
    return R


def remainder_norm(V, A, L, T: FockTruncation, delta: float, point,
                   projector_band=None) -> float:
    """Guard-corner spectral norm of the remainder, optionally compressed
    onto a finite family of Hermite states.

    With ``projector_band`` given the reported quantity is ``|R P_band|``
    (the remainder tested against band states); this is the object whose
    scaling order improves by one power over the unprojected norm.  Every
    band index must be an integer in the guard corner ``[0, T.corner_dim)``.
    """
    _check_delta(delta)
    if projector_band is not None:
        bands = [projector_band] if np.ndim(projector_band) == 0 else list(projector_band)
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                   and 0 <= k < T.corner_dim for k in bands):
            raise ValueError(f"projector_band {projector_band} is not a set of "
                             f"integers in the guard corner [0, {T.corner_dim})")
    R = remainder_matrix(V, A, L, T, delta, point)
    if projector_band is None:
        return corner_norm(R, T)
    # R P_band is zero outside the band columns: take the norm of those alone
    cols = sorted(set(map(int, bands)))
    if not cols:
        return 0.0
    return float(np.linalg.norm(R[:T.corner_dim, cols], 2))


def default_points(k: int = 4):
    """k x k evaluation grid on [0,1)^2."""
    return [(i / k, j / k) for i in range(k) for j in range(k)]
