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
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fock import FockTruncation, band_projector_matrix
from .lattice import Lattice2D
from .symbols import (ModeMap, OperatorSymbol, mode_add, mode_dagger,
                      mode_max_norm, mode_scale)

__all__ = [
    "MoyalSeries",
    "moyal_term",
    "star_grade",
    "build_projection",
    "build_intertwiner",
    "effective_symbol",
    "projection_residuals",
    "intertwiner_residuals",
    "band_projector_matrix",
]


@dataclass(frozen=True)
class MoyalSeries:
    """Graded symbol with the highest trusted grade recorded."""

    grades: dict
    order_built: int
    truncation: FockTruncation
    lattice: Lattice2D
    band_set: tuple = ()

    def grade(self, j: int) -> ModeMap:
        return self.grades.get(j, {})


def moyal_term(A: ModeMap, B: ModeMap, k: int) -> ModeMap:
    """k-th star-product correction of two mode maps (k = 0 is the
    mode-convolution product)."""
    out: ModeMap = {}
    if not A or not B:
        return out
    for (n1, m1), MA in A.items():
        for (n2, m2), MB in B.items():
            if k > 0:
                br = m1 * n2 - n1 * m2
                if br == 0:
                    continue
                coef = (2j * math.pi ** 2 * br) ** k / math.factorial(k)
            else:
                coef = 1.0
            key = (n1 + n2, m1 + m2)
            term = coef * (MA @ MB)
            if key in out:
                out[key] += term    # an array created here, never an input
            else:
                out[key] = term
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
    bands = tuple(sorted(int(k) for k in band_set))
    if not bands or any(k < 0 for k in bands):
        raise ValueError("band_set must be non-empty, non-negative")
    if any(b - a != 1 for a, b in zip(bands, bands[1:])):
        raise ValueError("band_set must be contiguous")
    return bands


def _block_masks(T: FockTruncation, bands) -> tuple:
    """Entrywise masks for the band projector P = diag(p), p the 0/1 band
    indicator: ``M * S = -P M P + (1-P) M (1-P)``; ``X = M * W`` solves
    ``[Xi, X] = -M`` on the two block-off-diagonal blocks
    (``W[i, j] = 1/(level_j - level_i)`` there, 0 elsewhere); ``M * D = [P, M]``.
    """
    p = np.isin(np.arange(T.dim), bands).astype(float)
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
    pi_grades: dict[int, ModeMap] = {0: {(0, 0): band_projector_matrix(T, bands)}}
    for n in range(1, order + 1):
        # [pi # pi - pi]_n; the linear term has no grade-n piece yet
        G = star_grade(pi_grades, pi_grades, n)
        piD = {nm: M * S for nm, M in G.items()}
        partial = dict(pi_grades)
        if piD:
            partial[n] = piD
        F = star_grade(H.grades, partial, n)
        F = mode_add(F, mode_scale(star_grade(partial, H.grades, n), -1.0))
        piOD = {nm: M * W for nm, M in F.items()}
        pi_n = mode_add(piD, piOD)
        if pi_n:
            pi_grades[n] = pi_n
    return MoyalSeries(grades=pi_grades, order_built=order, truncation=T,
                       lattice=H.lattice, band_set=bands)


def build_intertwiner(pi: MoyalSeries, order: int) -> MoyalSeries:
    """Unitarizing series u with u_0 = 1, fixed by the canonical choice
    ``a_n = -A_n/2``, ``b_n = [P, B_n]`` (the series is not unique)."""
    if pi.order_built < order:
        raise TruncationError("projection series built to lower order than requested")
    T = pi.truncation
    _, _, D = _block_masks(T, pi.band_set)
    eye = np.eye(T.dim, dtype=complex)
    u_grades: dict[int, ModeMap] = {0: {(0, 0): eye}}
    for n in range(1, order + 1):
        u_dag = {j: mode_dagger(mm) for j, mm in u_grades.items()}
        A_n = star_grade(u_grades, u_dag, n)
        a_n = mode_scale(A_n, -0.5)
        w = dict(u_grades)
        if a_n:
            w[n] = a_n
        w_dag = {j: mode_dagger(mm) for j, mm in w.items()}
        # [w # pi # w_dag]_n, associating left to right
        upi = {j: star_grade(w, pi.grades, j) for j in range(n + 1)}
        B_n = star_grade(upi, w_dag, n)
        b_n = {nm: M * D for nm, M in B_n.items()}
        u_n = mode_add(a_n, b_n)
        if u_n:
            u_grades[n] = u_n
    return MoyalSeries(grades=u_grades, order_built=order, truncation=T,
                       lattice=pi.lattice, band_set=pi.band_set)


def effective_symbol(H: OperatorSymbol, pi: MoyalSeries, u: MoyalSeries,
                     order: int) -> list:
    """Band-block effective symbols h_0..h_order.

    Each h_j is returned as a mode map of (len(band_set) x len(band_set))
    blocks, the compression of chi_j onto the level family.
    """
    if pi.order_built < order or u.order_built < order:
        raise TruncationError("series not built to the requested order")
    T = u.truncation
    bands = list(u.band_set)
    idx = np.ix_(bands, bands)
    uH = {j: star_grade(u.grades, H.grades, j) for j in range(order + 1)}
    chi: dict[int, ModeMap] = {}
    out = []
    for m in range(order + 1):
        correction = star_grade(chi, u.grades, m)
        chi_m = mode_add(uH.get(m, {}), mode_scale(correction, -1.0))
        chi[m] = chi_m
        h_m = {}
        for nm, M in chi_m.items():
            blk = M[idx]
            h_m[nm] = blk
        out.append(h_m)
    return out


def projection_residuals(H: OperatorSymbol, pi: MoyalSeries, order: int) -> dict:
    """Gradewise defects of the defining properties of the projection:
    idempotency, symbol Hermiticity, commutation with H."""
    T = pi.truncation
    idem, herm, comm = [], [], []
    for j in range(order + 1):
        pp = star_grade(pi.grades, pi.grades, j)
        d = mode_add(pp, mode_scale(pi.grade(j), -1.0))
        idem.append(mode_max_norm(d, T))
        dag = mode_dagger(pi.grade(j))
        herm.append(mode_max_norm(mode_add(dag, mode_scale(pi.grade(j), -1.0)), T))
        c = star_grade(H.grades, pi.grades, j)
        c = mode_add(c, mode_scale(star_grade(pi.grades, H.grades, j), -1.0))
        comm.append(mode_max_norm(c, T))
    return {"idempotency": idem, "hermiticity": herm, "commutator": comm}


def intertwiner_residuals(pi: MoyalSeries, u: MoyalSeries, order: int) -> dict:
    """Gradewise defects of unitarity and of u # pi # u_dag = P."""
    T = u.truncation
    P = band_projector_matrix(T, u.band_set)
    u_dag = {j: mode_dagger(mm) for j, mm in u.grades.items()}
    unit, intw = [], []
    for j in range(order + 1):
        uu = star_grade(u.grades, u_dag, j)
        if j == 0:
            uu = mode_add(uu, {(0, 0): -np.eye(T.dim, dtype=complex)})
        unit.append(mode_max_norm(uu, T))
        upi = {k: star_grade(u.grades, pi.grades, k) for k in range(j + 1)}
        s = star_grade(upi, u_dag, j)
        if j == 0:
            s = mode_add(s, {(0, 0): -P})
        intw.append(mode_max_norm(s, T))
    return {"unitarity": unit, "intertwining": intw}
