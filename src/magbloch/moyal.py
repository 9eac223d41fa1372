"""Formal star-product calculus on graded operator symbols, and the
recursive block-diagonalization built on it: the projection series pi, the
intertwiner series u, and the band-block effective symbols h_j.

The star product of two mode sums is computed in closed form.  For single
modes, every derivative pairing collapses to a power of the mode Poisson
bracket:

    [A # B]_k at modes (n1,m1),(n2,m2)
        = (2 i pi^2 (m1 n2 - n1 m2))^k / k! * A_(n1,m1) B_(n2,m2)

with the product landing on mode (n1+n2, m1+m2).  Each derivative pair
carries one grade of the adiabatic parameter, the expansion bookkeeping used
to derive the recursions: the grade-n piece of a product of grades r and l
is the (n - r - l)-th correction.

The recursions take a truncated symbol H with constant principal part and a
set of contiguous fast-space levels, and produce order by order:

* ``pi_n = pi_n^D + pi_n^OD`` where the block-diagonal part is
  ``-P G_n P + (1-P) G_n (1-P)`` with ``G_n = [pi # pi - pi]_n`` (the sign on
  the P-block is forced by the defect equation ``P pi_n P = -P G_n P``), and
  the block-off-diagonal part solves ``[H_0, pi_n^OD] = -F_n`` by diagonal
  resolvent inversion on the orthogonal complement;
* ``u_n = a_n + b_n`` with ``a_n = -A_n/2``, ``b_n = [P, B_n]``;
* ``chi_m = [u # H - sum_{j<m} chi_j # u]_m`` and ``h_m = P chi_m P``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import TruncationError
from .fock import FockTruncation, band_projector_matrix
from .symbols import (ModeMap, OperatorSymbol, mode_add, mode_dagger,
                      mode_hermiticity_defect, mode_max_norm, mode_scale)

__all__ = [
    "MoyalSeries",
    "moyal_term",
    "star_grade",
    "build_projection",
    "build_intertwiner",
    "effective_symbol",
    "projection_residuals",
    "intertwiner_residuals",
]


@dataclass(frozen=True)
class MoyalSeries:
    """Graded symbol with the highest trusted grade recorded."""

    grades: dict
    order_built: int
    truncation: FockTruncation
    band_set: tuple = ()
    # (pi, grades 0 .. order_built - 1 of u # pi) of build_intertwiner's u,
    # which intertwiner_residuals reads instead of recomputing them
    _times_pi: tuple = field(default=(None, None), compare=False,
                             repr=False)

    def grade(self, j: int) -> ModeMap:
        return self.grades.get(j, {})


# The edges of a trimmed product's row and column ranges are rounded out to
# this grid, which the GEMM tiles of OpenBLAS's kernels share, so each kept
# entry is accumulated by the same kernel, in the same order, as in the full
# product.  The tests hold the trimmed products equal to the full ones, entry
# for entry.  From a width of about 150, where GEMM blocks the full product
# differently, an entry may differ from it by a rounding.
_TILE = 8


class _Box(NamedTuple):
    """Bounding box ``[r0, r1) x [c0, c1)`` of a matrix's nonzero entries,
    with its row and column ranges rounded out to the tile grid."""

    r0: int
    r1: int
    c0: int
    c1: int
    rows: slice
    cols: slice


def _tile_slice(lo: int, hi: int, size: int) -> slice:
    """[lo, hi) rounded out to the tile grid, and at least two wide when the
    axis is: a single row or column takes a vector kernel."""
    lo -= lo % _TILE
    hi = min(size, hi + -hi % _TILE)
    if hi - lo == 1 and lo:
        lo -= _TILE
    return slice(lo, hi)


def _box(M: np.ndarray) -> _Box | None:
    """The nonzero block of M, None for a zero matrix."""
    rows = np.flatnonzero(M.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(M.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    return _Box(r0, r1, c0, c1, _tile_slice(r0, r1, M.shape[0]),
                _tile_slice(c0, c1, M.shape[1]))


class _Stored(dict):
    """Mode map that also holds ``boxes``, the nonzero block of each mode's
    matrix.  The builders wrap each mode map once, when they store it, so no
    star product scans a matrix."""

    __slots__ = ("boxes",)

    def __init__(self, mm: ModeMap, boxes: dict | None = None):
        super().__init__(mm)
        self.boxes = ({nm: _box(M) for nm, M in mm.items()}
                      if boxes is None else boxes)


def _stored_grades(grades: dict) -> dict:
    return {j: mm if isinstance(mm, _Stored) else _Stored(mm)
            for j, mm in grades.items()}


def _dagger(mm: _Stored) -> _Stored:
    """mode_dagger, with the boxes transposed instead of rescanned."""
    return _Stored(mode_dagger(mm),
                   {(-n, -m): box and _Box(box.c0, box.c1, box.r0, box.r1,
                                           box.cols, box.rows)
                    for (n, m), box in mm.boxes.items()})


def moyal_term(A: ModeMap, B: ModeMap, k: int) -> ModeMap:
    """k-th star-product correction of two mode maps (k = 0 is the
    mode-convolution product).

    Each mode-pair product multiplies only the nonzero blocks,
    ``MA[rows_A, inner] @ MB[inner, cols_B]`` with ``inner`` the overlap of
    A's nonzero columns and B's nonzero rows; every mode pair still lands
    in a dense matrix of its mode.
    """
    out: ModeMap = {}
    if not A or not B:
        return out
    boxes_a = A.boxes if isinstance(A, _Stored) else _Stored(A).boxes
    boxes_b = B.boxes if isinstance(B, _Stored) else _Stored(B).boxes
    dtype = np.result_type(*{M.dtype for M in A.values()},
                           *{M.dtype for M in B.values()}, 1j if k else 1.0)
    coefs: dict[int, complex] = {}
    for (n1, m1), MA in A.items():
        box_a = boxes_a[(n1, m1)]
        for (n2, m2), MB in B.items():
            if k > 0:
                br = m1 * n2 - n1 * m2
                if br == 0:
                    continue
            key = (n1 + n2, m1 + m2)
            acc = out.get(key)
            if acc is None:
                acc = out[key] = np.zeros((MA.shape[0], MB.shape[1]), dtype)
            box_b = boxes_b[(n2, m2)]
            if box_a is None or box_b is None:
                continue
            lo, hi = max(box_a.c0, box_b.r0), min(box_a.c1, box_b.r1)
            if lo >= hi:
                continue
            if hi - lo == 1 and MA.shape[1] > 1:
                # an inner extent of one takes another kernel too
                lo, hi = (lo, hi + 1) if hi < MA.shape[1] else (lo - 1, hi)
            rows, cols = box_a.rows, box_b.cols
            term = MA[rows, lo:hi] @ MB[lo:hi, cols]
            if k > 0:
                coef = coefs.get(br)
                if coef is None:
                    coef = coefs[br] = ((2j * math.pi ** 2 * br) ** k
                                        / math.factorial(k))
                np.multiply(coef, term, out=term)
            acc[rows, cols] += term
    return out


def star_grade(A_grades: dict, B_grades: dict, n: int) -> ModeMap:
    """Grade-n piece of the star product of two graded symbols."""
    out: ModeMap = {}
    for r, Ar in A_grades.items():
        for l, Bl in B_grades.items():
            rem = n - r - l
            if rem < 0:
                continue
            for key, M in moyal_term(Ar, Bl, rem).items():
                if key in out:
                    out[key] += M    # moyal_term's arrays, never an input
                else:
                    out[key] = M
    return out


def _check_bands(band_set) -> tuple:
    """The levels of band_set, sorted: non-negative integers (a bool or a
    float is no level index), each once, and contiguous."""
    band_set = list(band_set)
    if not band_set or not all(isinstance(k, (int, np.integer))
                               and not isinstance(k, bool) and k >= 0
                               for k in band_set):
        raise ValueError(f"band_set must be non-empty, non-negative "
                         f"integers, got {band_set!r}")
    bands = tuple(sorted(int(k) for k in band_set))
    if len(set(bands)) < len(bands):
        raise ValueError(f"band_set {band_set!r} repeats a level")
    if any(b - a != 1 for a, b in zip(bands, bands[1:])):
        raise ValueError("band_set must be contiguous")
    return bands


def _block_masks(T: FockTruncation, bands) -> tuple:
    """Entrywise masks for the band projector P = diag(p), p the 0/1 band
    indicator: ``M * S = -P M P + (1-P) M (1-P)``; ``X = M * W`` solves
    ``[Xi, X] = -M`` on the two block-off-diagonal blocks
    (``W[i, j] = 1/(level_j - level_i)`` there, 0 elsewhere); ``M * D = [P, M]``.
    """
    p = band_projector_matrix(T, bands).diagonal().real
    D = p[:, None] - p[None, :]
    S = np.outer(1.0 - p, 1.0 - p) - np.outer(p, p)
    levels = np.arange(T.dim) + 0.5
    with np.errstate(divide="ignore"):
        W = np.where(D != 0, 1.0 / (levels[None, :] - levels[:, None]), 0.0)
    return S, W, D


def build_projection(H: OperatorSymbol, band_set, order: int) -> MoyalSeries:
    """Recursive projection series onto a family of contiguous levels.

    The principal part is the spectral projector of the constant grade-0
    symbol; the constant gap between consecutive levels makes the resolvent
    inversion on the complement unconditionally well posed.
    """
    T = H.truncation
    bands = _check_bands(band_set)
    T.require(order, bands[-1])

    S, W, _ = _block_masks(T, bands)
    Hg = _stored_grades(H.grades)
    pi_grades: dict[int, ModeMap] = {
        0: _Stored({(0, 0): band_projector_matrix(T, bands)})}
    for n in range(1, order + 1):
        # [pi # pi - pi]_n; the linear term has no grade-n piece yet
        G = star_grade(pi_grades, pi_grades, n)
        piD = _Stored({nm: M * S for nm, M in G.items()})
        partial = dict(pi_grades)
        if piD:
            partial[n] = piD
        F = star_grade(Hg, partial, n)
        F = mode_add(F, mode_scale(star_grade(partial, Hg, n), -1.0))
        piOD = {nm: M * W for nm, M in F.items()}
        pi_n = mode_add(piD, piOD)
        if pi_n:
            pi_grades[n] = _Stored(pi_n)
    return MoyalSeries(grades=pi_grades, order_built=order, truncation=T,
                       band_set=bands)


def build_intertwiner(pi: MoyalSeries, order: int) -> MoyalSeries:
    """Unitarizing series u with u_0 = 1, fixed by the canonical choice
    ``a_n = -A_n/2``, ``b_n = [P, B_n]`` (the series is not unique)."""
    if pi.order_built < order:
        raise TruncationError("projection series built to lower order than requested")
    T = pi.truncation
    _, _, D = _block_masks(T, pi.band_set)
    pig = _stored_grades(pi.grades)
    u_grades: dict[int, ModeMap] = {0: _Stored({(0, 0): np.eye(T.dim, dtype=complex)})}
    u_dag = {0: _dagger(u_grades[0])}
    upi: dict[int, ModeMap] = {}    # [u # pi]_j of the finished grades of u
    for n in range(1, order + 1):
        A_n = star_grade(u_grades, u_dag, n)
        a_n = _Stored(mode_scale(A_n, -0.5))
        w, w_dag = dict(u_grades), dict(u_dag)
        if a_n:
            w[n] = a_n
            w_dag[n] = _dagger(a_n)
        # [w # pi # w_dag]_n, associating left to right; grades below n of
        # w # pi are those of u # pi, and grade n - 1 of u is final now
        upi[n - 1] = _Stored(star_grade(u_grades, pig, n - 1))
        wpi = dict(upi)
        wpi[n] = _Stored(star_grade(w, pig, n))
        B_n = star_grade(wpi, w_dag, n)
        b_n = {nm: M * D for nm, M in B_n.items()}
        u_n = mode_add(a_n, b_n)
        if u_n:
            u_grades[n] = _Stored(u_n)
            u_dag[n] = _dagger(u_grades[n])
    return MoyalSeries(grades=u_grades, order_built=order, truncation=T,
                       band_set=pi.band_set, _times_pi=(pi, upi))


def effective_symbol(H: OperatorSymbol, pi: MoyalSeries, u: MoyalSeries,
                     order: int) -> list:
    """Band-block effective symbols h_0..h_order.

    Each h_j is returned as a mode map of (len(band_set) x len(band_set))
    blocks, the compression of chi_j onto the level family.
    """
    if pi.order_built < order or u.order_built < order:
        raise TruncationError("series not built to the requested order")
    bands = list(u.band_set)
    idx = np.ix_(bands, bands)
    Hg, ug = _stored_grades(H.grades), _stored_grades(u.grades)
    chi: dict[int, ModeMap] = {}
    out = []
    for m in range(order + 1):
        correction = star_grade(chi, ug, m)
        chi_m = mode_add(star_grade(ug, Hg, m), mode_scale(correction, -1.0))
        chi[m] = _Stored(chi_m)
        out.append({nm: M[idx] for nm, M in chi_m.items()})
    return out


def projection_residuals(H: OperatorSymbol, pi: MoyalSeries, order: int) -> dict:
    """Gradewise defects of the defining properties of the projection:
    idempotency, symbol Hermiticity, commutation with H."""
    T = pi.truncation
    Hg, pig = _stored_grades(H.grades), _stored_grades(pi.grades)
    idem, herm, comm = [], [], []
    for j in range(order + 1):
        pp = star_grade(pig, pig, j)
        d = mode_add(pp, mode_scale(pi.grade(j), -1.0))
        idem.append(mode_max_norm(d, T))
        herm.append(mode_hermiticity_defect(pi.grade(j), T))
        c = star_grade(Hg, pig, j)
        c = mode_add(c, mode_scale(star_grade(pig, Hg, j), -1.0))
        comm.append(mode_max_norm(c, T))
    return {"idempotency": idem, "hermiticity": herm, "commutator": comm}


def intertwiner_residuals(pi: MoyalSeries, u: MoyalSeries, order: int) -> dict:
    """Gradewise defects of unitarity and of u # pi # u_dag = P.  The
    grades of u # pi that :func:`build_intertwiner` formed from this pi are
    reused; they are the same products, so the bits are the same."""
    T = u.truncation
    P = band_projector_matrix(T, u.band_set)
    ug, pig = _stored_grades(u.grades), _stored_grades(pi.grades)
    u_dag = {j: _dagger(mm) for j, mm in ug.items()}
    built_pi, built = u._times_pi
    upi: dict[int, ModeMap] = dict(built) if built_pi is pi else {}
    unit, intw = [], []
    for j in range(order + 1):
        uu = star_grade(ug, u_dag, j)
        if j == 0:
            uu = mode_add(uu, {(0, 0): -np.eye(T.dim, dtype=complex)})
        unit.append(mode_max_norm(uu, T))
        if j not in upi:
            upi[j] = _Stored(star_grade(ug, pig, j))
        s = star_grade(upi, u_dag, j)
        if j == 0:
            s = mode_add(s, {(0, 0): -P})
        intw.append(mode_max_norm(s, T))
    return {"unitarity": unit, "intertwining": intw}
