"""Brute-force ground truth for the strong-field regime.

The full Hamiltonian is quantized on (periodic slow grid) x (truncated fast
basis).  Slow translations are realized pseudospectrally: at flux
theta = p/q = delta^2 the elementary translation moves the grid by an exact
number of sites whenever q divides the per-cell resolution, so the slow
Weyl factors are exact circular shifts times diagonal phases.  The fast
blocks are the modes of :func:`symbols.exact_symbol`, the displacement
exponentials of the truncated ladder algebra taken on each mode's Hermite
Jacobi eigenbasis.  The charge sign
is +1 throughout: the Fock factors carry that sign, so the slow factors
carry it too.

A uniform field is odd under time reversal and under a mirror, so complex
conjugation combined with the reflection (n, m) -> (n, -m) can be a
symmetry.  The slow factors satisfy ``conj(W_{n,m}) = W_{n,-m}``; the fast
blocks satisfy ``conj(B_{n,-m}) = B_{n,m}`` when the frame has ``z_a`` real
and ``z_b`` imaginary (``a = (a1, 0)``, ``b = (0, b2)``) and the symbol
passes the reflection rule :func:`_reflection_even`.  The matrix is then
real symmetric, and :func:`build_full_matrix` returns it so, which lets
:func:`level_cluster` run in real arithmetic; other symbols keep the
complex matrix.

The inversion ``r -> -r`` can be a symmetry as well.  With the slow index
outermost (``i = j d + n``, d the Fock dimension), the parity
``Pi = (slow j -> -j mod N) (x) (-1)^n`` commutes with the oracle matrix
when the symbol passes the inversion rule :func:`_inversion_even`, on any
lattice.  Both rules are decided exactly, in their one home
:func:`lattice._coefficients_reflect`.  Three facts make it exact:
``alpha_{-n,-m} = -alpha_{n,m}`` bit for bit, so ``I_{-n,-m} = -I_{n,m}``;
the Fock parity ``F a F = -a`` maps ``E_{n,m}`` to ``E_{-n,-m}`` and
``Q_f, P_f`` to ``-Q_f, -P_f``; and the slow reflection inverts both the
clock and the shift.  So Pi maps the term of ``(n, m)`` onto the term of
``(-n, -m)``, and :func:`level_cluster`, which applies the rule itself,
solves a level's cluster in the two parity sectors of
:func:`_level_sectors`, one after the other.

The oracle matrix stays in the d x d block form of its slow quantizer (a
BSR matrix), and every check and sector is formed from those blocks: the
Hermiticity and parity defects block against block, and each sector
straight into LAPACK band storage, its slow points (or parity pairs)
ordered by reverse Cuthill-McKee of the block graph, so that one banded LU
factor serves every shift-invert solve of the sector.

Effective models are re-quantized on the *same* slow grid by the same
quantizer (:func:`quantize_on_grid`), so oracle/model eigenvalue comparisons
sample identical Bloch phases and the measured distance isolates the model
error.

The module also carries the linear-symplectic bookkeeping of the fast/slow
variable maps: commutator tables in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from . import symbols
from .effective import delta_from_flux
from .errors import (CommensurabilityError, GapClosedError, NumericError,
                     ResourceCapError, _is_integer)
from .fock import FockTruncation
from .lattice import (FourierSeries2D, Lattice2D, PeriodicVectorPotential,
                      TWO_PI, _coefficients_reflect)
from .quantize import (RationalFlux, _as_blocks, _check_defect, _phase,
                       _weyl_terms, sorted_list_distance)

__all__ = [
    "OracleBasis",
    "build_full_matrix",
    "quantize_on_grid",
    "band_cluster",
    "level_cluster",
    "oracle_eigenvalues",
    "OrderFit",
    "order_fit",
    "log_slope",
    "LinearCanonicalMap",
    "ccr_table",
    "fast_slow_variable_map",
    "landau_variable_map",
    "default_delta_sweep",
]

# Largest oracle dimension (slow grid size times Fock dimension) accepted.
DIM_BUDGET = 6000
# A level cluster is the eigenvalues within HALF_GAP of the level; it must
# stay narrower than HALF_GAP, half the unit gap between Landau levels less
# a margin.
HALF_GAP = 0.45
# level_cluster asks for _CLUSTER_MARGIN eigenvalues beyond the cluster, at a
# shift _SHIFT_OFFSET from the level: at V = 0 every level sits exactly at
# n + 1/2, where the shifted matrix would be singular.
_CLUSTER_MARGIN = 4
_SHIFT_OFFSET = 1e-3


# A slow grid resolves a potential when it has at least this many points
# per period for each unit of the largest mode number.
_POINTS_PER_MODE = 4


def _max_mode(V: FourierSeries2D, A: PeriodicVectorPotential | None) -> int:
    """Largest |n| or |m| over the modes of V and of A's components; 0
    without modes."""
    series = (V,) if A is None else (V, A.f1, A.f2)
    return max((max(abs(n), abs(m)) for F in series for (n, m) in F.coeffs),
               default=0)


@dataclass(frozen=True)
class OracleBasis:
    """Slow periodic grid (n_cells periods, n_grid points per period)
    tensored with a Fock truncation."""

    n_cells: int
    n_grid: int
    fock: FockTruncation

    def __post_init__(self):
        if not (_is_integer(self.n_cells, 1) and _is_integer(self.n_grid, 4)):
            raise ValueError("need integers n_cells >= 1 and n_grid >= 4")
        if self.slow_dim * self.fock.dim > DIM_BUDGET:
            raise ResourceCapError(
                f"oracle dimension {self.slow_dim * self.fock.dim} exceeds "
                f"budget {DIM_BUDGET}")

    @classmethod
    def resolving(cls, V: FourierSeries2D, A: PeriodicVectorPotential | None,
                  flux: RationalFlux, fock: FockTruncation,
                  n_cells: int = 1) -> "OracleBasis":
        """The basis whose per-cell grid is the smallest multiple of q with
        ``_POINTS_PER_MODE`` points per unit of the largest mode number of
        V and A (counted as at least 1): the coarsest grid commensurate
        with the flux that :meth:`check_resolves` accepts."""
        need = _POINTS_PER_MODE * max(1, _max_mode(V, A))
        return cls(n_cells=n_cells, n_grid=flux.q * -(-need // flux.q),
                   fock=fock)

    @property
    def slow_dim(self) -> int:
        return self.n_cells * self.n_grid

    def check_resolves(self, V: FourierSeries2D,
                       A: PeriodicVectorPotential | None) -> None:
        top = _max_mode(V, A)
        if self.n_grid < _POINTS_PER_MODE * top:
            raise ValueError(
                f"n_grid={self.n_grid} under-resolves modes up to {top}; "
                f"need n_grid >= {_POINTS_PER_MODE * top}")


def _slow_quantize(modes, basis: OracleBasis, flux: RationalFlux):
    """sum over ``modes`` of (slow Weyl factor of (n, m)) x (block), as a
    ``scipy.sparse`` BSR matrix of d x d blocks with the slow index
    outermost.

    The slow factors are the strong-field monomials of :func:`_weyl_terms`
    for the slow clock u_j = e^{i 2 pi x_j} and the translation
    (V psi)[j] = psi[j + s], which moves the grid by s = p n_grid / q
    sites; mode (0, 0) is the identity, which every grid carries.  Each
    factor is a weighted cyclic shift, so the sum is a set of block
    diagonals: each term is added, in order, into the ``(N, d, d)``
    diagonal of its shift mod N, where ``diagonal[j]`` is the block at
    (block row (j + shift) mod N, block column j).  Only those diagonals
    are stored, one block per slow point and shift.
    """
    import scipy.sparse

    if (flux.p * basis.n_grid) % flux.q and any(nm != (0, 0) for nm in modes):
        raise CommensurabilityError(
            f"flux {flux.p}/{flux.q} incommensurate with n_grid={basis.n_grid}: "
            f"q must divide the per-cell resolution")
    N = basis.slow_dim
    d = next(iter(modes.values())).shape[0]
    u = np.exp(1j * TWO_PI * (np.arange(N) / basis.n_grid))
    terms = _weyl_terms(
        [(n, m, _phase("harper", 1, flux.theta, n, m)) for n, m in modes],
        "harper", u, 1.0, -((flux.p * basis.n_grid) // flux.q))
    diagonals = {}
    for block, (shift, w) in zip(modes.values(), terms):
        diag = diagonals.setdefault(shift % N, np.zeros((N, d, d), dtype=complex))
        diag += w[:, None, None] * block
    # block row a holds diagonal s at block column (a - s) mod N
    shifts = np.array(sorted(diagonals))
    cols = (np.arange(N)[:, None] - shifts) % N
    blocks = np.stack([diagonals[s] for s in shifts])[np.arange(len(shifts)), cols]
    return scipy.sparse.bsr_matrix(
        (blocks.reshape(-1, d, d), cols.ravel(), np.arange(N + 1) * len(shifts)),
        shape=(N * d, N * d))


def _block_rows(H) -> np.ndarray:
    """The block row of each stored block of the BSR matrix H."""
    return np.repeat(np.arange(len(H.indptr) - 1), np.diff(H.indptr))


def _blocks_at(H, rows, cols) -> np.ndarray:
    """The blocks of the BSR matrix H at block places ``(rows[k],
    cols[k])``, stacked; a zero block where H stores none."""
    N = len(H.indptr) - 1
    keys = _block_rows(H) * N + H.indices
    order = np.argsort(keys)
    want = rows * N + cols
    k = order[np.minimum(np.searchsorted(keys, want, sorter=order),
                         keys.size - 1)]
    return np.where((keys[k] == want)[:, None, None], H.data[k], 0)


def _require_block_hermitian(H, what: str):
    """The BSR matrix H of :func:`_slow_quantize`, after checking block by
    block that ``max|B(J, J') - B(J', J)^dag|`` (a missing block reading as
    zero) is at most ``1e-10 max(1, max|H|)``."""
    _check_defect(
        np.max(np.abs(H.data - _blocks_at(H, H.indices, _block_rows(H))
                      .conj().swapaxes(1, 2))),
        lambda: np.max(np.abs(H.data)), 1e-10,
        f"{what} lost Hermiticity: residual ")
    return H


def _reflection_even(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                     L: Lattice2D) -> bool:
    """Whether the oracle matrix is real: ``L.z_a`` real, ``L.z_b``
    imaginary, and ``V_{n,-m} == conj(V_{n,m})``, ``f1_{n,-m} ==
    conj(f1_{n,m})`` and ``f2_{n,-m} == -conj(f2_{n,m})`` by the exact rule
    :func:`lattice._coefficients_reflect` (:func:`build_full_matrix`)."""
    series = [(V, 1)] + ([] if A is None else [(A.f1, 1), (A.f2, -1)])
    return (L.z_a.imag == 0 and L.z_b.real == 0
            and all(_coefficients_reflect(F.coeffs, lambda n, m: (n, -m),
                                          lambda n, m, c: sign * c.conjugate())
                    for F, sign in series))


def build_full_matrix(V: FourierSeries2D, A: PeriodicVectorPotential | None,
                      L: Lattice2D, basis: OracleBasis,
                      flux: RationalFlux):
    """Hermitian matrix of the full strong-field Hamiltonian on slow grid x
    Fock basis, at delta = sqrt(theta), as the ``scipy.sparse`` BSR matrix
    of d x d blocks of :func:`_slow_quantize`: the slow quantization of
    :func:`symbols.exact_symbol`, its Hermiticity checked block by block
    (:func:`_require_block_hermitian`).

    The matrix is real symmetric, and returned as such, when the symbol is
    even under complex conjugation combined with the reflection (n, m) ->
    (n, -m) (:func:`_reflection_even`).  The slow factors satisfy
    ``conj(W_{n,m}) = W_{n,-m}``, so H is real when each block satisfies
    ``conj(B_{n,-m}) = B_{n,m}``; with ``z_a`` real and ``z_b`` imaginary,
    ``alpha_{n,-m} = -conj(alpha_{n,m})``, hence ``E_{n,-m} =
    conj(E_{n,m})`` and ``lin_{n,-m} = conj(lin_{n,m})`` under the rule.
    The imaginary part it drops is rounding, checked against ``1e-10
    max(1, max|H|)`` like the Hermiticity defect; a larger one is a
    :class:`NumericError`.
    """
    basis.check_resolves(V, A)
    H = _require_block_hermitian(_slow_quantize(
        symbols.exact_symbol(V, A, L, basis.fock, delta_from_flux(flux)),
        basis, flux), "oracle matrix")
    if not _reflection_even(V, A, L):
        return H
    # read the stored entries, each held once: scipy's H.imag is a view that
    # abs() would sort in place, scrambling the imaginary parts of H
    _check_defect(np.max(np.abs(H.data.imag)), lambda: np.max(np.abs(H.data)),
                  1e-10, "reflection-even oracle matrix has imaginary part ")
    return H.real.copy()   # H.real's data is a strided view of H's


def quantize_on_grid(blocks, basis: OracleBasis, flux: RationalFlux) -> np.ndarray:
    """Quantize an effective symbol on the oracle's slow grid.

    ``blocks`` is a symbol as :func:`quantize.quantize_series` takes it, a
    real series or an m x m nested list of series (``None`` for a zero
    block); block (i, k) of the dense result is the slow quantization of
    series (i, k).  Using the same grid operators as the oracle means both
    spectra sample identical Bloch phases, and the model's Hermiticity is
    checked as the oracle's is.
    """
    blocks = _as_blocks(blocks)
    m = len(blocks)
    N = basis.slow_dim
    # the m x m coefficient matrix of each mode; (0, 0) keeps an empty
    # symbol's map non-empty
    modes = {(0, 0): np.zeros((m, m), dtype=complex)}
    for i, row in enumerate(blocks):
        for k, F in enumerate(row):
            for nm, c in (F.coeffs.items() if F is not None else ()):
                if c != 0:
                    modes.setdefault(nm, np.zeros((m, m), dtype=complex))[i, k] = c
    # slow-outermost order to block (i, k) at rows i*N:(i+1)*N
    H = _require_block_hermitian(_slow_quantize(modes, basis, flux),
                                 "quantized model").toarray()
    return H.reshape(N, m, N, m).transpose(1, 0, 3, 2).reshape(m * N, m * N)


def oracle_eigenvalues(H) -> np.ndarray:
    """Full spectrum of a Hermitian matrix, dense or ``scipy.sparse`` (which
    is densified): the reference for :func:`level_cluster`."""
    if not isinstance(H, np.ndarray):
        H = H.toarray()
    return scipy.linalg.eigvalsh(H, check_finite=False)


def _inversion_even(V: FourierSeries2D,
                    A: PeriodicVectorPotential | None) -> bool:
    """Whether the parity Pi commutes with the oracle matrix:
    ``V_{-n,-m} == V_{n,m}``, ``f1_{-n,-m} == -f1_{n,m}`` and ``f2_{-n,-m}
    == -f2_{n,m}`` by the exact rule :func:`lattice._coefficients_reflect`,
    on any lattice (:func:`level_cluster`)."""
    series = [(V, 1)] + ([] if A is None else [(A.f1, -1), (A.f2, -1)])
    return all(_coefficients_reflect(F.coeffs, lambda n, m: (-n, -m),
                                     lambda n, m, c: sign * c)
               for F, sign in series)


def level_cluster(H, V: FourierSeries2D, A: PeriodicVectorPotential | None,
                  basis: OracleBasis, level: int) -> np.ndarray:
    """The cluster of Landau level ``level``: the ``basis.slow_dim``
    eigenvalues near ``level + 1/2`` of the oracle matrix H of (V, A) on
    ``basis`` (the BSR matrix of :func:`build_full_matrix`), by
    shift-invert Lanczos (ARPACK) on banded LU factors, one sector of
    :func:`_level_sectors` at a time; the merged cluster is returned
    sorted, through :func:`band_cluster` once more.  A symbol that passes
    :func:`_inversion_even` is solved in its two parity sectors, any other
    symbol in one sector, the whole space.

    ``eigsh`` dispatches on the dtype: a real symmetric H (a
    reflection-even symbol, :func:`build_full_matrix`) runs real symmetric
    Lanczos on a real band LU, a complex H complex Arnoldi (``eigs``); the
    sector coefficients are real, so each sector keeps the dtype, and the
    dense fallback follows it too.  At most D - 2 eigenvalues of a sector
    of size D are asked for: ``eigs`` needs k < D - 1, which meets real
    ``eigsh``'s k < D as well.

    In each sector the ``count + _CLUSTER_MARGIN`` eigenvalues nearest the
    shift are computed from a fixed start vector of the sector's size, so
    the result is reproducible bit for bit; the shifted sector ``Hs -
    sigma`` is factored once by LAPACK ``?gbtrf`` (:func:`_band_factor`, an
    exact zero pivot raising :class:`NumericError`), and each shift-invert
    product is one ``?gbtrs`` solve.  They hold every eigenvalue
    within ``HALF_GAP`` of the level only if the farthest of them lies
    beyond it; otherwise neighbouring levels have merged and
    :class:`GapClosedError` is raised, as it is for a cluster that
    :func:`band_cluster` rejects.  A sector too small to leave an
    eigenvalue beyond its cluster is densified and solved by
    :func:`oracle_eigenvalues`.  A Krylov space grown from one vector can
    hold fewer copies of an exactly degenerate level than the level has,
    so a cluster short of ``count`` is taken from the dense solve of the
    sector as well; if that one does not hold ``count`` levels either,
    :class:`GapClosedError` is raised.  ARPACK failures raise
    :class:`NumericError`.
    """
    lam_star = level + 0.5
    parts = [_sector_cluster(Hs, lam_star, count)
             for Hs, count in _level_sectors(H, basis, level,
                                            _inversion_even(V, A))]
    return band_cluster(np.concatenate(parts), lam_star)


def _level_sectors(H, basis: OracleBasis, level: int, split: bool) -> list:
    """The sectors in which :func:`level_cluster` solves the cluster of
    Landau level ``level`` of the BSR oracle matrix H on ``basis``, N slow
    points x d Fock states: ``(Hs, count)`` pairs, Hs the sector's matrix
    in band form (:func:`_banded_sector`) and count its share of the
    cluster.

    Unsplit, the one sector is the whole space, each slow point a group of
    its own, and holds all N levels.  Split, the parity ``Pi = (slow j ->
    -j mod N) (x) S``, ``S = diag((-1)^n)``, is checked first, block by
    block: ``max|B(J, J') - S B(-J, -J') S|`` over the stored blocks must
    be at most ``1e-10 max(1, max|H|)``, else :class:`NumericError` is
    raised.  Sector ``t = +-1`` then holds, for each slow pair ``j != -j``,
    ``(e_j (x) |n> + t (-1)^n e_{-j} (x) |n>)/sqrt 2`` for every n, and for
    each fixed point ``2 j = 0 mod N`` the states ``e_j (x) |n>`` with
    ``(-1)^n = t``.  The level's states ``e_j (x) |level>`` fill the
    sectors as the V = 0 cluster does, which parity keeps while the gaps
    stay open: with f fixed slow points (1 for odd N, 2 for even N), the
    even sector holds ``(N + f)/2`` of the N levels and the odd one ``(N -
    f)/2`` for an even level, and the counts swap for an odd one.
    """
    N, d = basis.slow_dim, basis.fock.dim
    if not split:
        return [(_banded_sector(H, np.arange(N), np.ones((N, d)),
                                np.ones((N, d), dtype=bool)), N)]
    rows, cols = _block_rows(H), H.indices
    sign = np.where(np.arange(d) % 2, -1.0, 1.0)
    _check_defect(np.max(np.abs(H.data - np.outer(sign, sign)
                            * _blocks_at(H, -rows % N, -cols % N))),
                  lambda: np.max(np.abs(H.data)), 1e-10,
                  "oracle matrix breaks the inversion parity by ")
    j = np.arange(N)
    fixed = (j == -j % N)[:, None]
    upper = (j > -j % N)[:, None]   # the second point of its pair
    f = 1 if N % 2 else 2
    counts = ((N + f) // 2, (N - f) // 2)
    if level % 2:
        counts = counts[::-1]
    return [(_banded_sector(
        H, np.minimum(j, -j % N),
        np.where(fixed, 1.0, math.sqrt(0.5)) * np.where(upper, t * sign, 1.0),
        ~fixed | (sign == t)), count)
        for t, count in zip((1.0, -1.0), counts)]


def _banded_sector(H, group: np.ndarray, coef: np.ndarray, keep: np.ndarray):
    """One sector of the BSR matrix H on N slow points x d Fock states, as
    a ``scipy.sparse`` DIA matrix whose ``data`` is LAPACK general band
    storage (:func:`_level_sectors`).

    Slow point J belongs to the group ``group[J]`` (the groups numbered
    from 0) and adds ``coef[J, n]`` of ``e_J (x) |n>`` to the group's state
    n, which the sector holds where ``keep[J, n]`` (the same for every
    point of a group).  The entry at states (g, n), (g', n') is the sum of
    ``coef[J, n] B(J, J')[n, n'] coef[J', n']`` over the stored blocks
    with J in g and J' in g', so each block of the sector comes from its 1
    to 4 blocks of H.  The groups are ordered by reverse Cuthill-McKee of
    the group graph, each group's kept states following ascending n, so
    the half bandwidth b, taken from the offsets of the groups of every
    stored block and never from numeric zeros, stays a few groups wide.
    Row k of ``data`` holds the diagonal at offset ``b - k``, that is
    ``data[b + i - j, j] = Hs[i, j]``.
    """
    import scipy.sparse
    import scipy.sparse.csgraph

    rows, cols = _block_rows(H), H.indices
    G = group.max() + 1
    graph = scipy.sparse.csr_matrix(
        (np.ones(rows.size), (group[rows], group[cols])), shape=(G, G))
    order = scipy.sparse.csgraph.reverse_cuthill_mckee(graph,
                                                       symmetric_mode=False)
    size = np.zeros(G, dtype=int)
    size[group] = keep.sum(axis=1)
    start = np.zeros(G, dtype=int)
    start[order] = np.cumsum(size[order]) - size[order]
    first = start[group]
    last = first + size[group] - 1
    b = int(max(np.max(last[rows] - first[cols]),
                np.max(last[cols] - first[rows])))
    D = int(size.sum())
    pos = np.where(keep, first[:, None] + np.cumsum(keep, axis=1) - 1, -1)
    i, k = pos[rows][:, :, None], pos[cols][:, None, :]
    inside = (i >= 0) & (k >= 0)
    flat = ((b + i - k) * D + k)[inside]
    vals = (coef[rows][:, :, None] * H.data * coef[cols][:, None, :])[inside]
    band = np.bincount(flat, vals.real, (2 * b + 1) * D)
    if np.iscomplexobj(vals):
        band = band + 1j * np.bincount(flat, vals.imag, (2 * b + 1) * D)
    return scipy.sparse.dia_matrix(
        (band.reshape(2 * b + 1, D), np.arange(b, -b - 1, -1)), shape=(D, D))


def _band_factor(Hs, sigma: float):
    """``(Hs - sigma)^-1`` of a sector Hs of :func:`_banded_sector`, as a
    ``scipy.sparse.linalg.LinearOperator``: ``Hs - sigma`` is factored once
    by LAPACK ``?gbtrf``, and each product is one ``?gbtrs`` solve.  An
    exact zero pivot (``info > 0``) raises :class:`NumericError`."""
    import scipy.sparse.linalg

    b = int(Hs.offsets[0])
    D = Hs.shape[0]
    gbtrf, gbtrs = scipy.linalg.lapack.get_lapack_funcs(("gbtrf", "gbtrs"),
                                                        (Hs.data,))
    # ?gbtrf needs b more rows above the band for the fill-in of pivoting
    ab = np.zeros((3 * b + 1, D), dtype=Hs.dtype)
    ab[b:] = Hs.data
    ab[2 * b] -= sigma
    lu, piv, info = gbtrf(ab, b, b, overwrite_ab=True)
    if info > 0:
        raise NumericError(f"shift-invert factor at {sigma} is singular: "
                           f"zero pivot {info}")
    return scipy.sparse.linalg.LinearOperator(
        (D, D), matvec=lambda x: gbtrs(lu, b, b, x, piv)[0], dtype=Hs.dtype)


def _sector_cluster(Hs, lam_star: float, count: int) -> np.ndarray:
    """The ``count`` eigenvalues of one sector Hs of :func:`_level_sectors`
    within ``HALF_GAP`` of ``lam_star`` (:func:`level_cluster`)."""
    import scipy.sparse.linalg

    D = Hs.shape[0]
    # eigs, which eigsh calls for complex Hs, needs k < D - 1; k <= count
    # leaves no eigenvalue to reach past the cluster
    k = min(count + _CLUSTER_MARGIN, D - 2)
    if k <= count:
        return _dense_cluster(Hs, lam_star, count)
    sigma = lam_star + _SHIFT_OFFSET
    solve = _band_factor(Hs, sigma)
    v0 = np.random.default_rng(0).standard_normal(D).astype(Hs.dtype)
    try:
        eigs = scipy.sparse.linalg.eigsh(Hs, k=k, sigma=sigma, v0=v0,
                                         OPinv=solve,
                                         return_eigenvectors=False)
    except RuntimeError as exc:  # ArpackError
        raise NumericError(f"shift-invert solve at {sigma} failed: {exc}") from exc
    # the k nearest the shift fill [sigma - r, sigma + r], r the largest
    # distance; that holds the HALF_GAP window only if r > HALF_GAP + offset
    if np.max(np.abs(eigs - sigma)) <= HALF_GAP + _SHIFT_OFFSET:
        raise GapClosedError(
            f"the {k} eigenvalues nearest {lam_star} all lie within "
            f"{HALF_GAP} of it: neighbouring levels have merged")
    cluster = band_cluster(eigs, lam_star)
    if cluster.size != count:
        return _dense_cluster(Hs, lam_star, count)
    return cluster


def _dense_cluster(H, lam_star: float, count: int) -> np.ndarray:
    """The cluster of one sector's H around ``lam_star`` from its full
    spectrum; :class:`GapClosedError` unless it holds ``count`` levels."""
    cluster = band_cluster(oracle_eigenvalues(H), lam_star)
    if cluster.size != count:
        raise GapClosedError(f"level {lam_star} has {cluster.size} eigenvalues "
                             f"within {HALF_GAP}, not {count}")
    return cluster


def band_cluster(eigs, lam_star: float) -> np.ndarray:
    """Eigenvalues within ``HALF_GAP`` of the target level.

    Raises :class:`GapClosedError` when the cluster diameter reaches
    ``HALF_GAP``, i.e. when neighbouring level clusters have merged.
    """
    eigs = np.asarray(eigs, dtype=float)
    sel = eigs[np.abs(eigs - lam_star) <= HALF_GAP]
    if sel.size == 0:
        raise GapClosedError(f"no eigenvalues within {HALF_GAP} of {lam_star}")
    if sel.max() - sel.min() >= HALF_GAP:
        raise GapClosedError(
            f"gap closed at this delta: cluster diameter "
            f"{sel.max() - sel.min():.3g} >= half gap {HALF_GAP}")
    return np.sort(sel)


@dataclass(frozen=True)
class OrderFit:
    slope: float
    residual: float
    deltas: tuple
    distances: tuple
    censored: tuple


CENSOR_FLOOR = 1e-12


def log_slope(deltas, dists):
    """(slope, rms residual) of the least-squares line through
    (log delta, log dist) over the distances at or above ``CENSOR_FLOOR``,
    or None when they hold fewer than two distinct deltas, which fix no
    line."""
    pts = [(d, e) for d, e in zip(deltas, dists) if e >= CENSOR_FLOOR]
    if len({d for d, _ in pts}) < 2:
        return None
    lx, ly = np.log([d for d, _ in pts]), np.log([e for _, e in pts])
    coef, res, *_ = np.polyfit(lx, ly, 1, full=True)
    residual = float(math.sqrt(res[0] / len(lx))) if res.size else 0.0
    return float(coef[0]), residual


def order_fit(model_spectra, oracle_spectra, delta_list) -> OrderFit:
    """Least-squares slope of log(distance) against log(delta).

    Distances are sup distances of sorted spectra (set Hausdorff when the
    counts differ); values below ``CENSOR_FLOOR`` are censored from the fit
    (see :func:`log_slope`).
    """
    deltas = [float(d) for d in delta_list]
    if len(deltas) < 3:
        raise ValueError("order fit needs at least 3 delta values")
    if not len(model_spectra) == len(oracle_spectra) == len(deltas):
        raise ValueError(f"order fit needs one model and one oracle spectrum "
                         f"per delta, got {len(model_spectra)} and "
                         f"{len(oracle_spectra)} for {len(deltas)} deltas")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("delta list must be strictly decreasing")
    dists = [sorted_list_distance(mod, orc)
             for mod, orc in zip(model_spectra, oracle_spectra)]
    fit = log_slope(deltas, dists)
    if fit is None:
        raise NumericError("too few uncensored distances for a slope fit")
    return OrderFit(slope=fit[0], residual=fit[1], deltas=tuple(deltas),
                    distances=tuple(dists),
                    censored=tuple(e < CENSOR_FLOOR for e in dists))


def default_delta_sweep():
    """Rational-flux sweep with delta close to {0.25, 0.18, 0.125, 0.09}:
    theta = delta^2 in {1/16, 1/31, 1/64, 1/123}."""
    return [RationalFlux(1, 16), RationalFlux(1, 31),
            RationalFlux(1, 64), RationalFlux(1, 123)]


# ---------------------------------------------------------------------------
# linear symplectic variable maps, exact arithmetic

@dataclass(frozen=True)
class LinearCanonicalMap:
    """Four operators (K1, K2, G1, G2) as rational linear combinations of
    (Q1, Q2, P1, P2); rows store (q1, q2, p1, p2) coefficients."""

    rows: tuple          # 4 rows of 4 Fractions
    labels: tuple = ("K1", "K2", "G1", "G2")

    @classmethod
    def from_frame(cls, v, w, alpha_beta, beta_sq) -> "LinearCanonicalMap":
        """Fast/slow map for a frame (v, w) with parameter products
        alpha*beta and beta^2 (all exact rationals):

            K1 = -(ab/2b2) v.Q - ab w*.P      G1 = (1/2) v.Q - b2 w*.P
            K2 = +(ab/2b2) w.Q - ab v*.P      G2 = (1/2) w.Q + b2 v*.P
        """
        v = [Fraction(c) for c in v]
        w = [Fraction(c) for c in w]
        ab = Fraction(alpha_beta)
        b2 = Fraction(beta_sq)
        det = v[0] * w[1] - v[1] * w[0]
        if det == 0:
            raise ValueError("frame vectors must be linearly independent")
        v_star = [w[1] / det, -w[0] / det]
        w_star = [-v[1] / det, v[0] / det]
        half = Fraction(1, 2)
        rows = (
            (-ab / (2 * b2) * v[0], -ab / (2 * b2) * v[1], -ab * w_star[0], -ab * w_star[1]),
            (+ab / (2 * b2) * w[0], +ab / (2 * b2) * w[1], -ab * v_star[0], -ab * v_star[1]),
            (half * v[0], half * v[1], -b2 * w_star[0], -b2 * w_star[1]),
            (half * w[0], half * w[1], +b2 * v_star[0], +b2 * v_star[1]),
        )
        return cls(rows=rows)


def ccr_table(cmap: LinearCanonicalMap):
    """4 x 4 table of commutator coefficients: entry (i, j) is the exact
    rational c with [X_i, X_j] = i c, from the bilinear rule
    [a.Q + b.P, c.Q + d.P] = i (a.d - b.c)."""
    rows = cmap.rows
    table = []
    for i in range(4):
        qi = rows[i][:2]
        pi = rows[i][2:]
        line = []
        for j in range(4):
            qj = rows[j][:2]
            pj = rows[j][2:]
            c = (qi[0] * pj[0] + qi[1] * pj[1]) - (pi[0] * qj[0] + pi[1] * qj[1])
            line.append(c)
        table.append(tuple(line))
    return tuple(table)


def fast_slow_variable_map(a, b, iota: int, delta) -> LinearCanonicalMap:
    """Fast/slow map of the strong-field regime: frame (b*, a*) of a rational
    lattice with alpha^2 = iota, beta^2 = iota delta^2."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    area = a[0] * b[1] - a[1] * b[0]
    if area <= 0:
        raise ValueError("lattice must be positively oriented")
    a_star = [b[1] / area, -b[0] / area]
    b_star = [-a[1] / area, a[0] / area]
    d = Fraction(delta)
    return LinearCanonicalMap.from_frame(
        v=b_star, w=a_star, alpha_beta=Fraction(iota) * d,
        beta_sq=Fraction(iota) * d * d)


def landau_variable_map() -> LinearCanonicalMap:
    """Kinetic-momentum choice: v = v* = (0,-1), w = w* = (-1,0),
    alpha = beta = 1."""
    return LinearCanonicalMap.from_frame(
        v=[0, -1], w=[-1, 0], alpha_beta=Fraction(1), beta_sq=Fraction(1))
