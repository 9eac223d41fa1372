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
from .errors import _is_integer, _is_real
from .fock import FockTruncation
from .lattice import (FourierSeries2D, Lattice2D, PeriodicVectorPotential,
                      TWO_PI)

__all__ = [
    "OperatorSymbol",
    "assemble_truncated",
    "eval_mode_map",
    "exact_symbol",
    "remainder_map",
    "remainder_norm",
    "mode_add",
    "mode_scale",
    "mode_dagger",
    "mode_max_norm",
    "mode_hermiticity_defect",
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
        best = max(best, float(np.max(np.abs(M[:c, :c]))))
    return best


def mode_hermiticity_defect(A: ModeMap, T: FockTruncation) -> float:
    """mode_max_norm of A - mode_dagger(A): the symbol's Hermiticity
    defect."""
    return mode_max_norm(mode_add(A, mode_scale(mode_dagger(A), -1.0)), T)


def eval_mode_map(A: ModeMap, point) -> np.ndarray:
    """``sum_{n,m} e^{i 2 pi (n p + m x)} C_{n,m}`` at the point (p, x): the
    one place where a point enters a mode map.  The mode matrices may be
    rectangular; an empty map evaluates to the 1 x 1 zero."""
    p, x = point
    out = np.zeros(next(iter(A.values())).shape if A else (1, 1),
                   dtype=complex)
    for (n, m), M in A.items():
        out += cmath.exp(1j * TWO_PI * (n * p + m * x)) * M
    return out


@dataclass(frozen=True)
class OperatorSymbol:
    """delta-graded, Fourier-mode-indexed family of truncated Fock matrices."""

    grades: dict
    truncation: FockTruncation
    natural: int | None = None


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


def _natural(A: PeriodicVectorPotential | None) -> int:
    """The natural order: 1 without a vector potential, 0 with one."""
    return 1 if A is None or A.is_zero() else 0


def _top_grade(A: PeriodicVectorPotential | None) -> int:
    """The Taylor cut: the truncated symbol keeps grades up to
    ``2 (1 + natural)``, so the powers of ``I_{n,m}`` up to two below it
    with V and up to one below it with ``f1 Q_f + f2 P_f``
    (:func:`assemble_truncated`)."""
    return 2 * (1 + _natural(A))


def assemble_truncated(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                       L: Lattice2D, T: FockTruncation) -> OperatorSymbol:
    """Polynomially truncated symbol up to grade :func:`_top_grade`.

    Grade j holds the Taylor terms of the displacement factor with
    ``pref_k = (i 2 pi)^k / k!``: each mode of A adds ``pref_k I_{n,m}^k
    lin`` with k = j - 1 and ``lin = f1 Q_f + f2 P_f``, and each mode of V
    adds ``pref_k v I_{n,m}^k`` with k = j - 2, in that order.  ``natural``
    is 1 without a vector potential (grades {0, 2, 3, 4}, grade 1 empty)
    and 0 with one (grades {0, 1, 2}).  Grades 1 and 2 enter the assembled
    models; the remainder takes the whole Taylor tail in closed form
    (:func:`remainder_map`).
    """
    top = _top_grade(A)
    pref = [(1j * TWO_PI) ** k / math.factorial(k) for k in range(top)]
    lins = {nm: np.diag(up, 1) + np.diag(lo, -1)
            for nm, (up, lo) in _lin(A, L, T).items()}
    pots = {nm: v for nm, v in V.coeffs.items() if v != 0}
    eye = np.eye(T.dim, dtype=complex)

    def power(nm, k):
        return np.linalg.matrix_power(fock.I_generator(*nm, L, T), k)

    grades: dict[int, ModeMap] = {0: {(0, 0): fock.xi_matrix(T)}}
    for j in range(1, top + 1):
        k = j - 1
        term = {nm: pref[k] * (lin if k == 0 else power(nm, k) @ lin)
                for nm, lin in lins.items()}
        if j >= 2:
            k = j - 2
            term = mode_add(term, {
                nm: (pref[k] * v) * (eye if k == 0 else power(nm, k))
                for nm, v in pots.items()})
        if term:
            grades[j] = term
    return OperatorSymbol(grades=grades, truncation=T, natural=_natural(A))


def _check_delta(delta: float) -> None:
    if not (_is_real(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and non-negative, got {delta!r}")


def _add_times_conjugated(out: np.ndarray, S: np.ndarray, lin,
                          d: np.ndarray) -> None:
    """Add ``S @ (D^* lin D)``, D = diag(d), on the columns of out into out,
    for a lin given by its upper and lower off-diagonals (:func:`_lin`) and
    S given on one more column where the basis has it: column c reads
    columns c - 1 and c + 1 of S; O(rows x cols)."""
    cols = out.shape[1]
    right = min(cols, len(d) - 1)  # the columns with a right neighbour
    up, lo = lin
    up = up * (d[:-1].conj() * d[1:])
    lo = lo * (d[1:].conj() * d[:-1])
    out[:, 1:] += S[:, :cols - 1] * up[:cols - 1]
    out[:, :right] += S[:, 1:right + 1] * lo[:right]


def _matrix_function(U: np.ndarray, values: np.ndarray, rows: int,
                     cols: int) -> np.ndarray:
    """Rows ``[0, rows)`` and columns ``[0, cols)`` of ``U diag(values)
    U^T`` for a real U and complex values: one real-by-complex product."""
    B = np.multiply(values[:, None], U.T[:, :cols], order="C")
    return (U[:rows] @ B.view(float)).view(complex)


def _mode_shares(V, A, L, T: FockTruncation, delta: float, f, rows: int,
                 cols: int) -> ModeMap:
    """Point-free mode map of a function of the displacement generators:
    each mode's share on the rows ``[0, rows)`` and the columns ``[0,
    cols)``.

    On the mode's eigenbasis ``2 pi delta I_{n,m} = D U diag(lam) U^T D^*``
    (:func:`fock._mode_eigenbasis`), with ``S_j = U diag(f(lam, j)) U^T``,
    the mode (n, m) of A and V has the share

        D [delta^2 v S_0 + delta S_1 D^* lin D] D^*,

    with ``lin = f1 Q_f + f2 P_f``; a point (p, x) adds only the phase
    ``e^{i 2 pi (n p + m x)}``, in :func:`eval_mode_map`.  With ``f =
    e^{iz}`` this is the mode's part of the exact symbol, ``delta^2 v E +
    delta E lin`` with ``E = exp(i 2 pi delta I_{n,m})``.  ``S_j`` depends
    on the mode only through ``(lam, U)``: modes whose ``lam`` are bitwise
    equal on the same ``U`` form one group (a real V's +- pairs; on the
    square lattice all four nearest-neighbour modes; the zero generator,
    with its trivial basis, is a group of its own), and each group forms
    each ``S_j`` it needs once (:func:`_matrix_function`), on the rows and,
    with A, on one more column where the basis has it, as ``lin`` has only
    two off-diagonals and column c reads columns c +- 1 of ``S_1``.  An
    empty map is returned as the zero (0, 0) mode, so that it evaluates to
    a rows x cols zero.
    """
    lins = {nm: (delta * up, delta * lo)
            for nm, (up, lo) in _lin(A, L, T).items()}
    pots = {nm: v for nm, v in V.coeffs.items() if v != 0}
    modes = list(dict.fromkeys([*lins, *pots]))
    bases = [fock._mode_eigenbasis(TWO_PI * delta, n, m, L, T)
             for n, m in modes]
    width = min(cols + 1, T.dim) if lins else cols
    S = {}  # one S_j per group and j; bases holds every U, so ids stay unique

    def group_function(lam, U, j):
        key = (id(U), lam.tobytes(), j)
        if key not in S:
            S[key] = _matrix_function(U, f(lam, j), rows, width)
        return S[key]

    out: ModeMap = {}
    for (n, m), (lam, U, d) in zip(modes, bases):
        if (n, m) in pots:
            share = ((delta ** 2) * pots[(n, m)]
                     * group_function(lam, U, 0)[:, :cols])
        else:
            share = np.zeros((rows, cols), dtype=complex)
        if (n, m) in lins:
            _add_times_conjugated(share, group_function(lam, U, 1),
                                  lins[(n, m)], d)
        share *= d[:rows, None]
        share *= d[:cols].conj()
        out[(n, m)] = share
    return out or {(0, 0): np.zeros((rows, cols), dtype=complex)}


def exact_symbol(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                 L: Lattice2D, T: FockTruncation, delta: float) -> ModeMap:
    """Mode map of the exact symbol: the harmonic generator at (0, 0) and,
    at each mode of A and V, ``delta E lin + delta^2 v E`` with the
    displacement exponential ``E = exp(i 2 pi delta I_{n,m})``, each the
    share of :func:`_mode_shares` with ``f = e^{iz}``.  Its value at a point
    (:func:`eval_mode_map`) is Hermitian inside the guard band when the
    gauge condition holds."""
    _check_delta(delta)
    shares = _mode_shares(V, A, L, T, delta, lambda z, j: np.exp(1j * z),
                          T.dim, T.dim)
    return mode_add({(0, 0): fock.xi_matrix(T)}, shares)


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


def _remainder_shares(V, A, L, T: FockTruncation, delta: float, rows: int,
                      cols: int) -> ModeMap:
    """Point-free mode map of the exact symbol minus the truncated symbol,
    on the rows ``[0, rows)`` and the column prefix ``[0, cols)``: the one
    builder behind :func:`remainder_map` and :func:`remainder_norm`.

    :func:`assemble_truncated` keeps the powers of ``I_{n,m}`` up to ``K =
    top - 2`` with V and ``K + 1`` with lin (``top`` from
    :func:`_top_grade`), so the difference is the sum of the shares of
    :func:`_mode_shares` with ``f(z, j) = rho_{K+j}(z)``, the tail of
    ``e^{iz}``.  The constant mode's
    truncation is exact: its ``z`` is 0, where every ``rho_K`` is 0.  No
    matrix power is formed, and no two O(1) matrices are subtracted.
    """
    K = _top_grade(A) - 2
    return _mode_shares(V, A, L, T, delta, lambda z, j: _rho(z, K + j), rows,
                        cols)


def remainder_map(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                  L: Lattice2D, T: FockTruncation, delta: float) -> ModeMap:
    """Point-free mode map of the exact symbol minus the truncated symbol:
    the shares of :func:`_remainder_shares` on the whole truncation, whose
    value at a point :func:`eval_mode_map` gives."""
    _check_delta(delta)
    return _remainder_shares(V, A, L, T, delta, T.dim, T.dim)


# The share map remainder_norm used last, under its key: at most one entry.
# Callers sweep the points of one delta, and each point needs the same map.
_SHARE_MEMO: dict = {}


def _memo_remainder_shares(V, A, L, T: FockTruncation, delta: float,
                           cols: int) -> ModeMap:
    """:func:`_remainder_shares` on the guard-corner rows and the column
    prefix ``[0, cols)``, taken from a one-entry memo.

    The key holds the values of everything the map depends on: the
    coefficients of V and of A's ``f1`` and ``f2`` (None for no A) in their
    dict order, which sets the map's mode order and so the summation order
    at a point; the lattice generators; the truncation; delta and the
    column prefix.  A series' dict can change in place, so no ``id()``
    enters it.  A miss drops the old entry; the memo's arrays are
    read-only."""
    key = (tuple(V.coeffs.items()),
           None if A is None else (tuple(A.f1.coeffs.items()),
                                   tuple(A.f2.coeffs.items())),
           L.a.tobytes(), L.b.tobytes(), T, delta, cols)
    shares = _SHARE_MEMO.get(key)
    if shares is None:
        _SHARE_MEMO.clear()  # before the build, so two maps are never held
        shares = _remainder_shares(V, A, L, T, delta, T.corner_dim, cols)
        for M in shares.values():
            M.flags.writeable = False
        _SHARE_MEMO[key] = shares
    return shares


def _check_point(point) -> None:
    try:
        p, x = point
    except (TypeError, ValueError):
        p = x = None
    if not (_is_real(p) and _is_real(x)):
        raise ValueError(f"point must be two finite real numbers, got {point!r}")


def _spectral_norm(R: np.ndarray) -> float:
    """Largest singular value of R: the vector 2-norm of one column, else
    the square root of the top eigenvalue of the Hermitian Gram matrix
    ``R^H R``, which is exact up to rounding for the largest value."""
    if R.shape[1] == 1:
        return float(np.linalg.norm(R[:, 0]))
    top = np.linalg.eigvalsh(R.conj().T @ R)[-1]
    return math.sqrt(max(float(top), 0.0))


def remainder_norm(V, A, L, T: FockTruncation, delta: float, point,
                   projector_band=None) -> float:
    """Guard-corner spectral norm of the remainder, optionally compressed
    onto a finite family of Hermite states.

    With ``projector_band`` given the reported quantity is ``|R P_band|``
    (the remainder tested against band states); this is the object whose
    scaling order improves by one power over the unprojected norm.  Every
    band index must be an integer in the guard corner ``[0, T.corner_dim)``,
    and the point two finite real numbers.
    Only the corner rows and the column prefix up to the highest band are
    formed, once per delta and prefix while the other inputs stay the same
    (:func:`_memo_remainder_shares`); the norm is taken of the band
    columns, as ``R P_band`` is zero outside them, or of all corner columns
    when unprojected (:func:`_spectral_norm`).  An unprojected norm can move
    in its last bits with the BLAS thread count (up to 1.5e-15 relative
    between one and two OpenBLAS threads at ``n_max`` 200); a projected
    norm kept its bits in the same cases.
    """
    _check_delta(delta)
    _check_point(point)
    cols = np.arange(T.corner_dim)
    if projector_band is not None:
        bands = [projector_band] if np.ndim(projector_band) == 0 else list(projector_band)
        if not all(_is_integer(k, 0) and k < T.corner_dim for k in bands):
            raise ValueError(f"projector_band {projector_band} is not a set of "
                             f"integers in the guard corner [0, {T.corner_dim})")
        cols = np.unique(np.array(bands, dtype=int))
        if not len(cols):
            return 0.0
    R = eval_mode_map(_memo_remainder_shares(V, A, L, T, delta,
                                             int(cols[-1]) + 1), point)
    return _spectral_norm(R[:, cols])


def default_points(k: int = 4):
    """k x k evaluation grid on [0,1)^2, for an integer k >= 1."""
    if not _is_integer(k, 1):
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return [(i / k, j / k) for i in range(k) for j in range(k)]
