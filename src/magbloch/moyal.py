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
  ``-P G_n P + (1-P) G_n (1-P)`` with ``G_n = [pi # pi - pi]_n`` of the
  grades below n (the sign on the P-block is forced by the defect equation
  ``P pi_n P = -P G_n P``), and the block-off-diagonal part solves
  ``[H_0, pi_n^OD] = -F_n``, ``F_n = [H, pi]_n`` with ``pi_n^D`` for
  ``pi_n``, by diagonal resolvent inversion on the orthogonal complement;
* ``u_n = a_n + b_n`` with ``a_n = -A_n/2``, ``A_n = [u # u^dag]_n`` of the
  grades below n, and ``b_n = [P, B_n]``;
* ``chi_m = [u # H - sum_{j<m} chi_j # u]_m`` and ``h_m = P chi_m P``.

Each builder also forms, from the products its loop holds, the gradewise
defects of the defining properties of its series, and carries them as
``MoyalSeries.residuals``: idempotency, Hermiticity and commutation with H
for pi; unitarity and the intertwining ``u # pi # u^dag = P`` for u.
"""

from __future__ import annotations

import itertools
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
]


@dataclass(frozen=True)
class MoyalSeries:
    """Graded symbol with the highest trusted grade recorded, and the
    gradewise defects of its defining properties that its build formed,
    ``residuals``: name -> [grades 0 .. order_built]."""

    grades: dict
    order_built: int
    truncation: FockTruncation
    band_set: tuple = ()
    residuals: dict = field(default_factory=dict, compare=False)

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


# Extents of a zero matrix: no column range of it overlaps a row range, and
# no row range a column range.
_EMPTY = _Box(0, 0, 0, 0, slice(0, 0), slice(0, 0))


def _tile_slice(lo: int, hi: int, size: int) -> slice:
    """[lo, hi) rounded out to the tile grid, and at least two wide when the
    axis is: a single row or column takes a vector kernel."""
    lo -= lo % _TILE
    hi = min(size, hi + -hi % _TILE)
    if hi - lo == 1 and lo:
        lo -= _TILE
    return slice(lo, hi)


def _box(M: np.ndarray) -> _Box:
    """The nonzero block of M, :data:`_EMPTY` for a zero matrix."""
    rows = np.flatnonzero(M.any(axis=1))
    if not rows.size:
        return _EMPTY
    cols = np.flatnonzero(M.any(axis=0))
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    return _Box(r0, r1, c0, c1, _tile_slice(r0, r1, M.shape[0]),
                _tile_slice(c0, c1, M.shape[1]))


class _Stored(dict):
    """Mode map that also holds, aligned with its insertion order, each
    mode's matrix (``mats``) and nonzero block (``boxes``), and as integer
    arrays the mode indices ``n``, ``m`` and the block extents ``r0, r1,
    c0, c1``.  The builders wrap each mode map once, when they store it, so
    no star product scans a matrix."""

    __slots__ = ("mats", "boxes", "n", "m", "r0", "r1", "c0", "c1", "dtype")

    def __init__(self, mm: ModeMap, boxes: list | None = None):
        super().__init__(mm)
        self.mats = list(mm.values())
        self.boxes = [_box(M) for M in self.mats] if boxes is None else boxes
        self.n, self.m = np.array(list(mm), dtype=np.int64).reshape(-1, 2).T
        ext = np.array([box[:4] for box in self.boxes], dtype=np.int64)
        self.r0, self.r1, self.c0, self.c1 = ext.reshape(-1, 4).T
        self.dtype = (np.result_type(*{M.dtype for M in self.mats})
                      if self.mats else None)


def _stored(mm: ModeMap) -> _Stored:
    return mm if isinstance(mm, _Stored) else _Stored(mm)


def _stored_grades(grades: dict) -> dict:
    return {j: _stored(mm) for j, mm in grades.items()}


def _dagger(mm: _Stored) -> _Stored:
    """mode_dagger, with the boxes transposed instead of rescanned."""
    return _Stored(mode_dagger(mm),
                   [_Box(b.c0, b.c1, b.r0, b.r1, b.cols, b.rows)
                    for b in mm.boxes])


def _add_term(out: dict, A: ModeMap, B: ModeMap, k: int) -> None:
    """Add ``[A # B]_k`` into ``out``, mode by mode.

    ``out`` maps a mode to its accumulated matrix, or to the ``(shape,
    dtype)`` of a mode that has had no product yet; :func:`_finish` makes
    those zero matrices.  Every mode that a pair with a nonzero bracket
    (any pair when k = 0) lands on is entered, in the order of the double
    loop over A's modes and then B's.  One broadcast comparison finds the
    pairs that multiply something: a nonzero bracket when k > 0, and an
    overlap of A's nonzero columns with B's nonzero rows.  Each such pair
    multiplies only the nonzero blocks, ``MA[rows_A, inner] @ MB[inner,
    cols_B]``, in the loop's order.  A mode's first products are summed on
    its own zeroed matrix; later, a single product is added to it in place,
    and several are summed on a zeroed matrix of their own first.  These
    are the bits of the dense double loop, which sums each term on zeros:
    adding a ``+0.0`` is exact, and no accumulated entry is ``-0.0``.
    """
    if not A or not B:
        return
    A, B = _stored(A), _stored(B)
    br = np.multiply.outer(A.m, B.n) - np.multiply.outer(A.n, B.m)
    hit = np.maximum.outer(A.c0, B.r0) < np.minimum.outer(A.c1, B.r1)
    keys_a, keys_b = list(A), list(B)
    modes = [(n1 + n2, m1 + m2) for n1, m1 in keys_a for n2, m2 in keys_b]
    if k > 0:
        landed = br != 0
        hit &= landed
        modes = itertools.compress(modes, landed.ravel().tolist())
    blank = ((A.mats[0].shape[0], B.mats[0].shape[1]),
             np.result_type(A.dtype, B.dtype, 1j if k else 1.0))
    for nm in modes:
        if nm not in out:
            out[nm] = blank
    pairs: dict[tuple, list] = {}
    coefs: dict[int, complex] = {}
    for i, j in zip(*(ix.tolist() for ix in np.nonzero(hit))):
        (n1, m1), (n2, m2) = keys_a[i], keys_b[j]
        pairs.setdefault((n1 + n2, m1 + m2), []).append(
            (i, j, m1 * n2 - n1 * m2))
    for nm, terms in pairs.items():
        acc = out[nm]
        if isinstance(acc, tuple):
            acc = part = out[nm] = np.zeros(*acc)
        elif len(terms) == 1:
            part = acc
        else:
            # this pair of maps' products, summed apart before they join
            # the earlier ones
            part = np.zeros(acc.shape, blank[1])
        for i, j, b in terms:
            MA, MB, box_a, box_b = A.mats[i], B.mats[j], A.boxes[i], B.boxes[j]
            lo, hi = max(box_a.c0, box_b.r0), min(box_a.c1, box_b.r1)
            if hi - lo == 1 and MA.shape[1] > 1:
                # an inner extent of one takes another kernel too
                lo, hi = (lo, hi + 1) if hi < MA.shape[1] else (lo - 1, hi)
            term = MA[box_a.rows, lo:hi] @ MB[lo:hi, box_b.cols]
            if k > 0:
                coef = coefs.get(b)
                if coef is None:
                    coef = coefs[b] = ((2j * math.pi ** 2 * b) ** k
                                       / math.factorial(k))
                np.multiply(coef, term, out=term)
            view = part[box_a.rows, box_b.cols]
            view += term    # ``part[...] += term`` would also copy back
        if part is not acc:
            acc += part


def _finish(out: dict) -> ModeMap:
    """The accumulated mode map, a zero matrix for each mode that received
    no product."""
    return {nm: np.zeros(*M) if isinstance(M, tuple) else M
            for nm, M in out.items()}


def moyal_term(A: ModeMap, B: ModeMap, k: int) -> ModeMap:
    """k-th star-product correction of two mode maps (k = 0 is the
    mode-convolution product).

    The result holds every mode that a mode pair lands on: all pairs when
    k = 0, the pairs with a nonzero bracket when k > 0.  Each pair whose
    nonzero blocks overlap adds ``MA[rows_A, inner] @ MB[inner, cols_B]``,
    with ``inner`` the overlap of A's nonzero columns and B's nonzero rows,
    into a dense matrix of its mode; a mode that receives no product is a
    zero matrix.  The bits are those of the dense double loop.
    """
    out: dict = {}
    _add_term(out, A, B, k)
    return _finish(out)


def star_grade(A_grades: dict, B_grades: dict, n: int) -> ModeMap:
    """Grade-n piece of the star product of two graded symbols: the sum of
    ``moyal_term(A_r, B_l, n - r - l)`` over the grade pairs, in their
    order, with the modes and bits of that sum.  Each term is added in
    place, and a mode that receives no product becomes one zero matrix.
    The result's arrays are new, never an input's."""
    out: dict = {}
    for r, Ar in A_grades.items():
        for l, Bl in B_grades.items():
            rem = n - r - l
            if rem >= 0:
                _add_term(out, Ar, Bl, rem)
    return _finish(out)


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


def _corner(mm: ModeMap, nm, c: int):
    """Guard-corner block ``[:c, :c]`` of mode nm of mm, 0.0 if mm lacks
    it."""
    return mm[nm][:c, :c] if nm in mm else 0.0


def _max_norm(blocks) -> float:
    """Largest entry modulus over blocks that a generator forms and drops
    one at a time: :func:`mode_max_norm` of a defect map that is never
    held whole."""
    return max((float(np.max(np.abs(d))) for d in blocks), default=0.0)


def build_projection(H: OperatorSymbol, band_set, order: int) -> MoyalSeries:
    """Recursive projection series onto a family of contiguous levels.

    The principal part is the spectral projector of the constant grade-0
    symbol; the constant gap between consecutive levels makes the resolvent
    inversion on the complement unconditionally well posed.

    The loop also forms, from the products it holds, each grade's defects
    of idempotency and of commutation with H, mode by mode on the guard
    corner (``G_n``, ``F_n``: module docstring):

        [pi # pi - pi]_n = G_n + P pi_n + pi_n P - pi_n,
        [H, pi]_n        = F_n + H_0 pi_n^OD - pi_n^OD H_0,

    and each grade's Hermiticity defect, and the series carries the floats
    as its ``residuals``.  ``P = diag(p)`` and ``H_0 = diag(h)`` are
    diagonal, so each product with them is an entrywise weight: ``(p_i +
    p_j - 1) X_ij`` and ``(h_i - h_j) X_ij``.
    """
    T = H.truncation
    bands = _check_bands(band_set)
    T.require(order, bands[-1])

    S, W, _ = _block_masks(T, bands)
    Hg = _stored_grades(H.grades)
    P = band_projector_matrix(T, bands)
    pi_grades: dict[int, ModeMap] = {0: _Stored({(0, 0): P})}
    c = T.corner_dim
    p, h = P.diagonal()[:c].real, Hg[0][(0, 0)].diagonal()[:c].real
    idem_w = p[:, None] + p[None, :] - 1.0   # P X + X P - X
    comm_w = h[:, None] - h[None, :]         # H_0 X - X H_0
    idem, comm = [0.0], [0.0]    # pi_0 = P, a projector that commutes with H_0
    herm = [mode_hermiticity_defect(pi_grades[0], T)]
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
        idem.append(_max_norm(_corner(G, nm, c) + M[:c, :c] * idem_w
                              for nm, M in pi_n.items()))
        comm.append(_max_norm(F[nm][:c, :c] + M[:c, :c] * comm_w
                              for nm, M in piOD.items()))
        herm.append(mode_hermiticity_defect(pi_n, T))
        if pi_n:
            pi_grades[n] = _Stored(pi_n)
    return MoyalSeries(grades=pi_grades, order_built=order, truncation=T,
                       band_set=bands,
                       residuals={"idempotency": idem, "hermiticity": herm,
                                  "commutator": comm})


def build_intertwiner(pi: MoyalSeries, order: int) -> MoyalSeries:
    """Unitarizing series u with u_0 = 1, fixed by the canonical choice
    ``a_n = -A_n/2``, ``b_n = [P, B_n]`` (the series is not unique).

    The loop also forms each grade's unitarity defect from the product it
    holds, mode by mode on the guard corner, ``[u # u^dag - 1]_n = A_n +
    u_n + u_n^dag`` with ``A_n = -2 a_n``.  Once grade n is final it forms
    ``[u # pi]_n``, which the next grade reads, and from it the grade's
    intertwining defect ``[u # pi # u^dag - P]_n``.  The series carries the
    floats as its ``residuals``.
    """
    if pi.order_built < order:
        raise TruncationError("projection series built to lower order than requested")
    T = pi.truncation
    c = T.corner_dim
    _, _, D = _block_masks(T, pi.band_set)
    pig = _stored_grades(pi.grades)
    u_grades: dict[int, ModeMap] = {0: _Stored({(0, 0): np.eye(T.dim, dtype=complex)})}
    u_dag = {0: _dagger(u_grades[0])}
    # [u # pi]_j of the finished grades of u
    upi: dict[int, ModeMap] = {0: _Stored(star_grade(u_grades, pig, 0))}
    unit = [0.0]    # u_0 u_0^dag = 1 exactly
    P = pig[0][(0, 0)]    # pi_0
    intw = [mode_max_norm(mode_add(star_grade(upi, u_dag, 0), {(0, 0): -P}),
                          T)]
    for n in range(1, order + 1):
        # A_n is held only as a_n = -A_n/2, which is exact: one map fewer
        # at the loop's peak memory
        a_n = _Stored(mode_scale(star_grade(u_grades, u_dag, n), -0.5))
        w, w_dag = dict(u_grades), dict(u_dag)
        if a_n:
            w[n] = a_n
            w_dag[n] = _dagger(a_n)
        # [w # pi # w_dag]_n, associating left to right; grades below n of
        # w # pi are those of u # pi
        wpi = dict(upi)
        wpi[n] = _Stored(star_grade(w, pig, n))
        B_n = star_grade(wpi, w_dag, n)
        b_n = {nm: M * D for nm, M in B_n.items()}
        u_n = mode_add(a_n, b_n)
        if u_n:
            u_grades[n] = _Stored(u_n)
            u_dag[n] = _dagger(u_grades[n])
        ud_n = u_dag.get(n, {})
        unit.append(_max_norm(
            _corner(u_n, nm, c) + _corner(ud_n, nm, c)
            - 2.0 * _corner(a_n, nm, c)
            for nm in a_n.keys() | u_n.keys() | ud_n.keys()))
        # grade n of u is final; the step's maps go before the products
        # below, which would otherwise raise the loop's peak memory
        del a_n, w, w_dag, wpi, B_n, b_n, u_n, ud_n
        upi[n] = _Stored(star_grade(u_grades, pig, n))
        intw.append(mode_max_norm(star_grade(upi, u_dag, n), T))
    return MoyalSeries(grades=u_grades, order_built=order, truncation=T,
                       band_set=pi.band_set,
                       residuals={"unitarity": unit, "intertwining": intw})


def effective_symbol(H: OperatorSymbol, u: MoyalSeries, order: int) -> list:
    """Band-block effective symbols h_0..h_order.

    Each h_j is returned as a mode map of (len(band_set) x len(band_set))
    blocks, the compression of chi_j onto the level family.
    """
    if u.order_built < order:
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
