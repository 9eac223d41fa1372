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

``star_grade`` is the one star-product path.  Each grade pair makes all its
mode products in one stacked GEMM, on the pairs' nonzero blocks cut to their
union box, rounded out to the GEMM tile grid.  The union box is
tile-aligned, so each kept entry still sees the full product's kernel, and
the sums keep the order of the dense double loop: the result has its bits.

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

import numpy as np

from .errors import TruncationError, _is_integer
from .fock import FockTruncation, band_projector_matrix
from .symbols import (ModeMap, OperatorSymbol, mode_add, mode_dagger,
                      mode_hermiticity_defect, mode_max_norm, mode_scale)

__all__ = [
    "MoyalSeries",
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


# The edges of a trimmed product's row and column ranges are rounded out to
# this grid, which the GEMM tiles of OpenBLAS's kernels share, so each kept
# entry is accumulated by the same kernel, in the same order, as in the full
# product.  The products of one grade pair share one box, the union of their
# nonzero blocks rounded out to the grid: it is tile-aligned too, so each
# pair's kept entries still see the full product's kernel, and its other
# entries are exact zeros.  The tests hold the trimmed products equal to the
# full ones, entry for entry.  From a width of about 150, where GEMM blocks
# the full product differently, an entry may differ from it by a rounding.
_TILE = 8


def _tile_slice(lo: int, hi: int, size: int) -> slice:
    """[lo, hi) rounded out to the tile grid, and at least two wide when the
    axis is: a single row or column takes a vector kernel."""
    lo -= lo % _TILE
    hi = min(size, hi + -hi % _TILE)
    if hi - lo == 1 and lo:
        lo -= _TILE
    return slice(lo, hi)


def _spans(nz: np.ndarray) -> tuple:
    """First and one-past-last True index along the last axis of nz, both
    0 where there is none."""
    lo = nz.argmax(axis=-1)
    hi = nz.shape[-1] - nz[..., ::-1].argmax(axis=-1)
    none = ~nz[np.arange(len(nz)), lo]
    lo[none] = 0
    hi[none] = 0
    return lo, hi


# A mode (n, m) as the integer n 2^32 + m: the code of the mode a pair lands
# on is the sum of the pair's codes.
_SHIFT = 32


def _modes(codes: np.ndarray) -> list:
    """The modes (n, m) of codes."""
    n = (codes + (1 << (_SHIFT - 1))) >> _SHIFT
    return list(zip(n.tolist(), (codes - (n << _SHIFT)).tolist()))


class _Stored(dict):
    """Mode map that also holds, aligned with its insertion order, each
    mode's matrix (``mats``), and as integer arrays the mode indices ``n``,
    ``m``, the mode codes ``code`` and each matrix's nonzero block ``[r0,
    r1) x [c0, c1)`` (``ext``, one row of four per mode, all 0 for a zero
    matrix).  The builders wrap each mode map once, when they store it, and
    its matrices are scanned then, in one pass, so no star product scans a
    matrix."""

    __slots__ = ("mats", "n", "m", "code", "ext", "dtype")

    def __init__(self, mm: ModeMap, ext: np.ndarray | None = None):
        super().__init__(mm)
        self.mats = list(mm.values())
        self.n, self.m = np.array(list(mm), dtype=np.int64).reshape(-1, 2).T
        self.code = (self.n << _SHIFT) + self.m
        if ext is None:
            ext = np.zeros((len(mm), 4), np.int64)
            if mm:
                # a stack of bools, not a copy of the matrices
                nz = np.array([M != 0 for M in self.mats])
                ext[:, 0], ext[:, 1] = _spans(nz.any(axis=2))
                ext[:, 2], ext[:, 3] = _spans(nz.any(axis=1))
        self.ext = ext
        self.dtype = (np.result_type(*{M.dtype for M in self.mats})
                      if self.mats else None)


def _stored(mm: ModeMap) -> _Stored:
    return mm if isinstance(mm, _Stored) else _Stored(mm)


def _stored_grades(grades: dict) -> dict:
    return {j: _stored(mm) for j, mm in grades.items()}


def _dagger(mm: _Stored) -> _Stored:
    """mode_dagger, with the blocks transposed instead of rescanned."""
    return _Stored(mode_dagger(mm), mm.ext[:, [2, 3, 0, 1]])


def star_grade(A_grades: dict, B_grades: dict, n: int) -> ModeMap:
    """Grade-n piece of the star product of two graded symbols: the sum
    over the grade pairs (r, l), in their order, of the k-th star-product
    correction ``[A_r # B_l]_k``, k = n - r - l.

    For single modes (module docstring) the correction of ``A_(n1,m1)``
    and ``B_(n2,m2)`` is ``(2 i pi^2 b)^k / k! A_(n1,m1) B_(n2,m2)``, b the
    bracket ``m1 n2 - n1 m2``, on mode ``(n1+n2, m1+m2)``.  The result holds
    every mode that a mode pair lands on, in the order of first landing: all
    pairs when k = 0, the pairs with a nonzero bracket when k > 0.  A pair
    multiplies only when A's nonzero columns overlap B's nonzero rows
    (:func:`_add_products`).  A mode that receives no product is a zero
    matrix.  The dtype is complex when any k > 0.  The result's arrays are
    new, never an input's.
    """
    if not B_grades:
        return {}
    As = [_stored(Ar) for Ar in A_grades.values()]
    Bs = [_stored(Bl) for Bl in B_grades.values()]
    grades_b = list(B_grades)
    # B's modes, all grades in a row: grade, place among the grades, and
    # the modes' indices, codes and blocks
    size_b = [len(B) for B in Bs]
    grade_b = np.repeat(grades_b, size_b)
    place_b = np.repeat(np.arange(len(Bs)), size_b)
    n_b, m_b, code_b, ext_b = (np.concatenate([getattr(B, x) for B in Bs])
                               for x in ("n", "m", "code", "ext"))
    codes, dtypes, hits = [], [], []
    offset = landed = 0
    for p, (r, A) in enumerate(zip(A_grades, As)):
        cols = np.flatnonzero(grade_b <= n - r)
        if A and cols.size:
            br = (np.multiply.outer(A.m, n_b[cols])
                  - np.multiply.outer(A.n, m_b[cols]))
            pair = np.flatnonzero((br != 0) | (grade_b[cols] == n - r))
            # the landing pairs in the order of the loop over B's grades,
            # and in each over A's modes and then B's
            i, c = np.divmod(pair, cols.size)
            o = np.argsort(place_b[cols[c]], kind="stable")
            pair, i, j = pair[o], i[o], cols[c[o]]
            codes.append(A.code[i] + code_b[j])
            for q in np.unique(place_b[j]).tolist():
                dtypes.append(np.result_type(
                    A.dtype, Bs[q].dtype, 1j if n - r - grades_b[q] else 1.0))
                shape = (A.mats[0].shape[0], A.mats[0].shape[1],
                         Bs[q].mats[0].shape[1])
            h = np.flatnonzero(np.maximum(A.ext[i, 2], ext_b[j, 0])
                               < np.minimum(A.ext[i, 3], ext_b[j, 1]))
            i, j = i[h], j[h]
            hits.append((landed + h, p * len(Bs) + place_b[j], i + offset, j,
                         br.ravel()[pair[h]], n - r - grade_b[j]))
            landed += pair.size
        offset += len(A)
    if not landed:
        return {}
    codes = np.concatenate(codes)
    # the landed modes in the order of first landing, and each one's slot
    _, first, inverse = np.unique(codes, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    out = np.zeros((order.size, shape[0], shape[2]), np.result_type(*dtypes))
    at, gp, ia, jb, br, k = (np.concatenate(x) for x in zip(*hits))
    if at.size:
        _add_products(out, gp, slot[inverse[at]], ia, jb, br, k,
                      [M for A in As for M in A.mats],
                      np.concatenate([A.ext for A in As]),
                      [M for B in Bs for M in B.mats], ext_b, shape)
    return dict(zip(_modes(codes[first[order]]), out))


def _add_products(out, g, s, ia, jb, br, k, mats_a, ext_a, mats_b, ext_b,
                  shape) -> None:
    """Add to ``out`` the products of the multiplying mode pairs, in the
    order of the double loop: of grade pair ``g`` (ascending, any labels),
    with slot ``s``, modes ``mats_a[ia]`` and ``mats_b[jb]``, bracket
    ``br`` and grade ``k``.

    Each grade pair makes all its products in one stacked GEMM, on its
    modes' blocks cut to one box (:func:`_union_box`).  The bits are those
    of the dense double loop, which sums a grade pair's products on a mode
    in pair order, and then adds that sum to the earlier grade pairs' sum.
    So a grade pair's products are laid out rank by rank: the first product
    of each slot it reaches, then the second of each slot that has one, and
    so on, with the slots of more products first, so that each rank's slots
    are a prefix of the first rank's.  They are summed one rank at a time
    on the first rank, and each sum is added to its slot.
    """
    g = np.unique(g, return_inverse=True)[1]
    # runs of one slot's products within a grade pair, in pair order
    o = np.lexsort((s, g))
    gs, ss = g[o], s[o]
    head = np.ones(o.size, bool)
    head[1:] = (gs[1:] != gs[:-1]) | (ss[1:] != ss[:-1])
    heads = np.flatnonzero(head)
    run = np.cumsum(head) - 1
    rank = np.arange(o.size) - heads[run]
    count = np.diff(np.append(heads, o.size))[run]
    q = np.lexsort((ss, -count, rank, gs))
    o, rank = o[q], rank[q]
    s, ia, jb, br, k = s[o], ia[o], jb[o], br[o], k[o]
    pairs, ranks = int(g[-1]) + 1, int(rank.max()) + 1
    runs = np.bincount(g * ranks + rank, minlength=pairs * ranks)
    runs = runs.reshape(pairs, ranks).tolist()
    bounds = np.searchsorted(g, np.arange(pairs + 1)).tolist()
    # the coefficient (2 i pi^2 b)^k / k! of each distinct (b, k)
    base = int(k.max()) + 1
    key, at = np.unique(br * base + k, return_inverse=True)
    coefs = np.array([(2j * math.pi ** 2 * b) ** kb / math.factorial(kb)
                      for b, kb in zip(*(x.tolist()
                                         for x in np.divmod(key, base)))])[at]
    a_ext = _unions(ext_a[ia], bounds[:-1])
    b_ext = _unions(ext_b[jb], bounds[:-1])
    ia, jb = ia.tolist(), jb.tolist()
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        rows, inner, cols = _union_box(a_ext[i], b_ext[i], shape)
        terms = (np.array([mats_a[j][rows, inner] for j in ia[lo:hi]])
                 @ np.array([mats_b[j][inner, cols] for j in jb[lo:hi]]))
        if k[lo] > 0:
            c = coefs[lo:hi]
            terms = terms.astype(np.result_type(terms, c), copy=False)
            if terms[0].size > 1:
                np.multiply(c[:, None, None], terms, out=terms)
            else:
                # one entry a product: the loop a single product takes
                for ci, t in zip(c, terms):
                    np.multiply(ci, t, out=t)
        part, at = terms[:runs[i][0]], runs[i][0]
        for width in itertools.takewhile(bool, runs[i][1:]):
            part[:width] += terms[at:at + width]
            at += width
        out[s[lo:lo + part.shape[0]], rows, cols] += part


def _unions(ext: np.ndarray, starts: list) -> list:
    """Per segment of the blocks ``ext`` that begins at ``starts``, their
    union ``[r0, r1, c0, c1]``: the least r0 and c0, the greatest r1 and
    c1."""
    lo, hi = np.minimum.reduceat(ext, starts), np.maximum.reduceat(ext, starts)
    return np.stack([lo[:, 0], hi[:, 1], lo[:, 2], hi[:, 3]], 1).tolist()


def _union_box(ea: list, eb: list, shape: tuple) -> tuple:
    """The (rows, inner, cols) box of a grade pair's products, from the
    unions ``[r0, r1, c0, c1]`` of the nonzero blocks of its modes of A
    (``ea``) and of B (``eb``): A's rows and B's columns rounded out to the
    tile grid, and A's columns that meet B's rows.  Outside a pair's own
    block the box holds exact zeros."""
    rows = _tile_slice(ea[0], ea[1], shape[0])
    cols = _tile_slice(eb[2], eb[3], shape[2])
    lo, hi = max(ea[2], eb[0]), min(ea[3], eb[1])
    if hi - lo == 1 and shape[1] > 1:
        # an inner extent of one takes another kernel too
        lo, hi = (lo, hi + 1) if hi < shape[1] else (lo - 1, hi)
    return rows, slice(lo, hi), cols


def _check_bands(band_set) -> tuple:
    """The levels of band_set, sorted: non-negative integers (a bool or a
    float is no level index), each once, and contiguous."""
    band_set = list(band_set)
    if not band_set or not all(_is_integer(k, 0) for k in band_set):
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
