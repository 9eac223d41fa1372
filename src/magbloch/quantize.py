"""Finite quantization at rational flux.

At flux theta = p/q the two unitaries generating the magnetic algebra admit
q-dimensional clock-and-shift representations labelled by Bloch phases
(beta1, beta2).  One fixed representation convention is used (clock diagonal
for U, cyclic shift carrying beta2 for V) and the commutation relation
``U V = exp(-i 2 pi iota theta) V U`` is asserted by the test suite rather
than trusted.

Two symmetrized power-series quantizations of a real periodic function are
provided: the strong-field form (phase ``exp(-i pi n m iota theta)``,
ordering V^n U^m) and the weak-field form (phase ``exp(+i pi n m iota
theta)``, ordering U^n V^m).  They act at reciprocal deformation parameters;
when their theta values coincide the band sets coincide, which is the guard
against misreading the phase bookkeeping.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import NumericError, ResourceCapError, _is_integer, _is_real
from .lattice import FourierSeries2D, _coefficients_reflect

__all__ = [
    "RationalFlux",
    "reduced_fractions",
    "clock_shift",
    "quantize_series",
    "MagneticBlochFamily",
    "SpectrumReport",
    "spectrum",
    "butterfly",
    "almost_mathieu_spectrum",
    "hausdorff_distance",
    "sorted_list_distance",
]


@dataclass(frozen=True)
class RationalFlux:
    """Reduced fraction p/q with q >= 1."""

    p: int
    q: int

    def __post_init__(self):
        if not (_is_integer(self.p) and _is_integer(self.q, 1)):
            raise ValueError("flux needs an integer p and an integer q >= 1")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"flux {self.p}/{self.q} is not reduced")

    @property
    def theta(self) -> float:
        return self.p / self.q

    @classmethod
    def from_fraction(cls, f) -> "RationalFlux":
        f = Fraction(f)
        return cls(f.numerator, f.denominator)


def reduced_fractions(q_max: int):
    """All reduced p/q with q <= q_max, ordered by (q, p); includes 0/1."""
    if not _is_integer(q_max, 1):
        raise ValueError(f"q_max must be an integer >= 1, got {q_max!r}")
    out = []
    for q in range(1, q_max + 1):
        for p in range(q):
            if math.gcd(p, q) == 1:
                out.append(RationalFlux(p, q))
    return out


def _clock_angle(flux: RationalFlux, iota: int, j: np.ndarray) -> np.ndarray:
    """2 pi iota theta j reduced mod 2 pi through the exact integer residue
    (iota p j) mod q, so its rounding does not grow with j."""
    return 2.0 * math.pi * ((iota * flux.p * j) % flux.q) / flux.q


def clock_shift(flux: RationalFlux, iota: int, beta1: float, beta2: float):
    """Clock/shift pair at Bloch phases (beta1, beta2):

    U = diag(exp(-i(beta1 + 2 pi iota theta j))),  V e_j = e^{-i beta2} e_{j+1 mod q};
    then U V = exp(-i 2 pi iota theta) V U exactly.  The diagonal of U and
    the phase of V are the (u, v) of :func:`_bloch_clock`.  An iota that
    fails :func:`_is_iota` is a ValueError.
    """
    if not _is_iota(iota):
        raise ValueError(f"iota must be 1 or -1, not {iota!r}")
    u, v = _bloch_clock(flux, iota, beta1, beta2)
    j = np.arange(flux.q)
    V = np.zeros((flux.q, flux.q), dtype=complex)
    V[(j + 1) % flux.q, j] = v
    return np.diag(u), V


@dataclass(frozen=True)
class MagneticBlochFamily:
    """q*m x q*m Hermitian-matrix-valued function of the Bloch phases: block
    (i, k) is the Weyl sum of ``modes`` for each (i, k, modes) in
    ``block_modes``, and every other block is zero."""

    flux: RationalFlux
    iota: int
    convention: str
    dim: int
    block_modes: tuple = field(repr=False)

    def matrix_at(self, beta1, beta2) -> np.ndarray:
        """The matrix at a Bloch point; the (*S, dim, dim) stack at arrays."""
        q = self.flux.q
        H = np.zeros(np.broadcast(beta1, beta2).shape + (self.dim, self.dim),
                     dtype=complex)
        for i, k, modes in self.block_modes:
            H[..., i * q:(i + 1) * q, k * q:(k + 1) * q] = _weyl_sum(
                modes, self.flux, self.iota, self.convention, beta1, beta2)
        return _require_hermitian(H, 1e-12, "quantized family")

    def _shifts(self) -> list:
        """(i, k, shift) of every monomial of every block."""
        return [(i, k, _weyl_shift(self.convention, n, m))
                for i, k, modes in self.block_modes for n, m, _ in modes]

    def _terms_at(self, beta1, beta2) -> list:
        """(i, k, :func:`_weyl_terms` of the block) for every block."""
        u, v = _bloch_clock(self.flux, self.iota, beta1, beta2)
        return [(i, k, _weyl_terms(modes, self.convention, u, v))
                for i, k, modes in self.block_modes]


def _require_hermitian(H, rtol: float, what: str):
    """H itself, after checking max|H - H^dag| <= rtol * max(1, max|H|) for
    the array H or each matrix of a stack."""
    resid = np.max(np.abs(H - H.conj().swapaxes(-1, -2)), axis=(-2, -1))
    _check_defect(resid, lambda: np.max(np.abs(H), axis=(-2, -1)), rtol,
                  f"{what} lost Hermiticity: residual ")
    return H


def _check_defect(defect, scale, rtol: float, message: str) -> None:
    """The one rule of every numeric invariant: raise NumericError, with
    ``message`` and the largest defect, where a defect exceeds ``rtol *
    max(1, scale())``; a scale of 0 leaves the absolute bound ``rtol``."""
    # the scale matters only once a defect exceeds rtol itself
    if (np.any(defect > rtol)
            and np.any(defect > rtol * np.maximum(1.0, scale()))):
        raise NumericError(f"{message}{np.max(defect)}")


def _phase(convention: str, iota: int, theta: float, n: int, m: int) -> complex:
    if convention == "harper":
        return np.exp(-1j * math.pi * n * m * iota * theta)
    return np.exp(+1j * math.pi * n * m * iota * theta)


def _power(z, k: int):
    """z**k for unimodular z; negative powers conjugate, which is exact.
    ``**`` would square an array as z * z, rounded unlike a scalar power."""
    return np.power(z, k) if k >= 0 else np.power(np.conj(z), -k)


def _weyl_modes(F: FourierSeries2D, flux: RationalFlux, iota: int,
                convention: str) -> list:
    """(n, m, f_{n,m} * symmetrization phase) of the non-zero modes of F,
    in sorted mode order."""
    return [(n, m, c * _phase(convention, iota, flux.theta, n, m))
            for (n, m), c in sorted(F.coeffs.items()) if c != 0]


def _weyl_shift(convention: str, n: int, m: int) -> int:
    """The cyclic shift of the monomial of mode (n, m): V^n shifts by n,
    and U^n V^m by m."""
    return n if convention == "harper" else m


def _bloch_clock(flux: RationalFlux, iota: int, beta1, beta2):
    """(u, v) of :func:`clock_shift` at Bloch phases: the clock diagonal u
    of shape (q, *S) and the shift phase v of shape S, for phase arrays of
    shape S."""
    beta1, beta2 = np.broadcast_arrays(beta1, beta2)
    # j runs along the first axis of u, the points after it
    j = np.arange(flux.q).reshape((flux.q,) + (1,) * beta1.ndim)
    return (np.exp(-1j * (beta1 + _clock_angle(flux, iota, j))),
            np.exp(-1j * beta2))


def _weyl_terms(modes, convention: str, u, v, step: int = 1):
    """(shift, weights) of each monomial w * V^n U^m ("harper") or
    w * U^n V^m ("hofstadter") of ``modes`` from :func:`_weyl_modes`, in
    their order, for the clock/shift pair U = diag(u_j), V e_j = v
    e_{j+step} on the cyclic index j of u's first axis: the monomial is the
    weighted cyclic shift [j + shift, j] = weights[j], with the weights
    shaped like u.

    V^n U^m has entries [j + n step, j] = v^n u_j^m and U^n V^m has
    entries [j + m step, j] = u_{j+m step}^n v^m.  This is the one place a
    mode becomes a weighted shift: the Bloch families take (u, v) from
    :func:`_bloch_clock`, the oracle its slow clock and translation.
    """
    for n, m, w in modes:
        shift = _weyl_shift(convention, n, m) * step
        if convention == "harper":
            yield shift, w * (_power(v, n) * _power(u, m))
        else:
            yield shift, w * (np.roll(_power(u, n), -shift, axis=0)
                              * _power(v, m))


def _weyl_sum(modes, flux: RationalFlux, iota: int, convention: str,
              beta1, beta2) -> np.ndarray:
    """Sum of the monomials of :func:`_weyl_terms` at Bloch phases, in
    their order: one q x q matrix, or the (*S, q, q) stack for phase arrays
    of shape S."""
    u, v = _bloch_clock(flux, iota, beta1, beta2)
    q = flux.q
    H = np.zeros(u.shape[1:] + (q, q), dtype=complex)
    Hj = np.moveaxis(H, (-2, -1), (0, 1))   # matrix axes first
    j = np.arange(q)
    for shift, weights in _weyl_terms(modes, convention, u, v):
        Hj[(j + shift) % q, j] += weights
    return H


def _twisted_square(F: FourierSeries2D, flux: RationalFlux,
                    iota: int) -> FourierSeries2D:
    """The real series S with Op(S) = Op(F) Op(F)^dag, where Op is the
    strong-field quantization of :func:`quantize_series`:

        S_{a-b} = sum f_a conj(f_b) exp(-i pi iota theta (n_a m_b - m_a n_b))

    over pairs of modes a = (n_a, m_a), b = (n_b, m_b).  The phase comes
    from the exact residue (iota p k) mod 2q of k = n_a m_b - m_a n_b, as
    in :func:`_clock_angle`.
    """
    S = {}
    for (na, ma), fa in sorted(F.coeffs.items()):
        for (nb, mb), fb in sorted(F.coeffs.items()):
            r = (iota * flux.p * (na * mb - ma * nb)) % (2 * flux.q)
            key = (na - nb, ma - mb)
            S[key] = S.get(key, 0j) + fa * fb.conjugate() * cmath.exp(
                -1j * math.pi * r / flux.q)
    return FourierSeries2D(S, is_real=True)


def _is_iota(iota) -> bool:
    """Whether ``iota`` is the integer 1 or -1 (a bool is not one)."""
    return _is_integer(iota) and iota in (1, -1)


def _as_blocks(symbol) -> list:
    """The m x m nested list of series (``None`` for a zero block) of a
    symbol, a real series being the 1 x 1 list.  An empty, ragged or
    non-square list, or an entry that is neither a series nor ``None``, is
    a ValueError naming the shape."""
    if isinstance(symbol, FourierSeries2D):
        if not symbol.is_real:
            raise ValueError("a single-series symbol must be real-valued")
        return [[symbol]]
    if not isinstance(symbol, (list, tuple)):
        raise ValueError(f"a symbol must be a real FourierSeries2D or an "
                         f"m x m list of series, not {type(symbol).__name__}")
    lengths = [len(row) if isinstance(row, (list, tuple)) else None
               for row in symbol]
    if not symbol or any(n != len(symbol) for n in lengths):
        raise ValueError(f"a block symbol must be a non-empty m x m list, "
                         f"got {len(symbol)} rows of lengths {lengths}")
    for i, row in enumerate(symbol):
        for k, B in enumerate(row):
            if not (B is None or isinstance(B, FourierSeries2D)):
                raise ValueError(
                    f"block ({i}, {k}) of the {len(symbol)} x {len(symbol)} "
                    f"symbol is a {type(B).__name__}, not a series or None")
    return symbol


def quantize_series(F, flux: RationalFlux, iota: int = -1,
                    convention: str = "harper") -> MagneticBlochFamily:
    """Symmetrized power series in the clock/shift pair.

    strong-field ("harper"):    sum f_{n,m} e^{-i pi n m iota theta} V^n U^m
    weak-field ("hofstadter"):  sum f_{n,m} e^{+i pi n m iota theta} U^n V^m

    of a real series, or blockwise of an m x m symbol (:func:`_as_blocks`)
    into an (m q) x (m q) family; a bad iota or convention is a ValueError.
    """
    if not _is_iota(iota):
        raise ValueError(f"iota must be 1 or -1, not {iota!r}")
    if convention not in ("harper", "hofstadter"):
        raise ValueError(f"unknown convention {convention!r}")
    blocks = _as_blocks(F)
    modes = tuple((i, k, _weyl_modes(B, flux, iota, convention))
                  for i, row in enumerate(blocks)
                  for k, B in enumerate(row) if B is not None)
    return MagneticBlochFamily(flux=flux, iota=iota, convention=convention,
                               dim=len(blocks) * flux.q, block_modes=modes)


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue samples of a Bloch family and the merged band intervals."""

    flux: RationalFlux
    bands: list           # [(E_min, E_max)] sorted, non-overlapping
    samples: np.ndarray   # (n_points, dim) sorted eigenvalues per point
    metadata: dict


def _merge_branches(samples: np.ndarray, tol: float | None = None):
    """Band intervals of the sorted eigenvalue branches (columns of
    ``samples``) and the merge tolerance used.

    Branches overlapping by more than ``tol`` (default 1e-6 of the spectral
    width), or contained in the previous one at that resolution, join into
    one interval; bands merely touching at a point stay distinct.
    """
    if tol is None:
        width = float(samples.max() - samples.min()) if samples.size else 1.0
        tol = 1e-6 * max(width, 1e-300)
    merged = []
    for lo, hi in sorted(zip(samples.min(axis=0).tolist(),
                             samples.max(axis=0).tolist())):
        if merged and (lo < merged[-1][1] - tol or hi <= merged[-1][1] + tol):
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged], tol


# Bytes per stack of Bloch points, of the two (b + 1) x dim bands of each
# point: 182 points of a nearest-neighbour family at q = 30 (b = 2), so a
# butterfly grid is one stack, and 32 of the two-band family at 2q = 254
# (b = 1).
_STACK_BYTES = 512 * 1024

_ZHBEVD = scipy.linalg.get_lapack_funcs("hbevd", dtype=complex)


def _fold(q: int) -> np.ndarray:
    """Position of each clock index j in the band layout 0, q-1, 1, q-2, ...,
    where j and (j + s) mod q lie within 2|s| of each other."""
    j = np.arange(q)
    return np.where(2 * j < q, 2 * j, 2 * (q - j) - 1)


@functools.lru_cache(maxsize=1024)
def _band_slots(q: int, m: int, i: int, k: int, shift: int):
    """Where block (i, k)'s entries [(j + shift) mod q, j] lie in the band
    layout of m interleaved q x q blocks, pos(i, j) = fold(j) * m + i.

    Returns (j, d, c) for the entries on or below the diagonal, stored at
    band[d, c] (LAPACK's lower band storage: row c + d, column c), and the
    same for the entries on or above it, stored at mirror[d, c] (row c,
    column c + d); diagonal entries go to both.
    """
    f = _fold(q) * m
    j = np.arange(q)
    row = f[(j + shift) % q] + i
    col = f + k
    lower, upper = row >= col, row <= col
    slots = ((j[lower], (row - col)[lower], col[lower]),
             (j[upper], (col - row)[upper], row[upper]))
    for a in slots[0] + slots[1]:
        a.setflags(write=False)
    return slots


def _bandwidth(q: int, dim: int, shifts) -> int:
    """Half bandwidth of the band layout for the (i, k, shift) table: it
    comes from where the monomials lie, never from their values."""
    return max((int(d.max(initial=0)) for i, k, s in shifts
                for _, d, _ in _band_slots(q, dim // q, i, k, s)), default=0)


def _band_stack(q: int, dim: int, b: int, blocks, points: int):
    """(band, mirror), each (points, b + 1, dim), of the Hermitian matrices
    with blocks (i, k) the sums of the weighted shifts (shift, weights) of
    each (i, k, terms) of ``blocks``, laid out as in :func:`_band_slots`
    with half bandwidth b.  Each entry has the bits of the dense matrix:
    the same terms are summed in the same order."""
    band = np.zeros((points, b + 1, dim), dtype=complex)
    mirror = np.zeros_like(band)
    # band axes first, for the fancy indexing below
    band_j, mirror_j = np.moveaxis(band, 0, -1), np.moveaxis(mirror, 0, -1)
    for i, k, terms in blocks:
        for shift, weights in terms:
            (jl, dl, cl), (ju, du, cu) = _band_slots(q, dim // q, i, k, shift)
            band_j[dl, cl] += weights[jl]
            mirror_j[du, cu] += weights[ju]
    return band, mirror


def _band_eigvalsh(q: int, dim: int, b: int, blocks, beta1,
                   beta2) -> np.ndarray:
    """Sorted eigenvalues at 1-D phase arrays of the matrices of
    :func:`_band_stack`, after the Hermiticity check of
    :func:`_require_hermitian` on the band and its mirror, by LAPACK zhbevd
    at each point."""
    band, mirror = _band_stack(q, dim, b, blocks, len(beta1))

    def size():
        return np.maximum(np.max(np.abs(band), axis=(-2, -1)),
                          np.max(np.abs(mirror), axis=(-2, -1)))

    _check_defect(np.max(np.abs(band - mirror.conj()), axis=(-2, -1)),
                  size, 1e-12, "quantized family lost Hermiticity: residual ")
    out = np.empty((len(beta1), dim))
    for s in range(len(beta1)):
        out[s], _, info = _ZHBEVD(band[s], compute_v=0, lower=1)
        if info != 0:
            raise NumericError(f"banded eigensolver failed at beta=("
                               f"{beta1[s]}, {beta2[s]}): LAPACK info {info}")
    return out


def _inversion_even(fam: MagneticBlochFamily) -> bool:
    """Whether every block's weight at (-n, -m) is its weight at (n, m),
    by the exact rule :func:`lattice._coefficients_reflect`.

    The parity P e_j = e_{-j mod q} gives P U(beta) P = U(-beta)^-1 and
    P V(beta) P = V(-beta)^-1, so it maps the monomial of (n, m) at beta to
    that of (-n, -m) at -beta, in either convention; the symmetrization
    phase is the same at (n, m) and (-n, -m).  So then P H(beta) P =
    H(-beta), and the spectra at beta and -beta agree up to the rounding of
    the phases.  A real series with real coefficients (Harper) passes."""
    return all(_coefficients_reflect(w, lambda n, m: (-n, -m),
                                     lambda n, m, c: c)
               for w in _block_weights(fam))


def _flip_even(fam: MagneticBlochFamily) -> bool:
    """Whether every block's weight at (n, -m) ("harper") or (-n, m)
    ("hofstadter") is the conjugate of its weight at (n, m), by the exact
    rule :func:`lattice._coefficients_reflect`.

    Complex conjugation gives conj U(beta1) = U(beta1)^-1 and
    conj V(beta2) = V(-beta2), so it maps the monomial of (n, m) at
    (beta1, beta2) to that of the reflected mode at (beta1, -beta2), its
    weight conjugated.  So then conj H(beta1, beta2) = H(beta1, -beta2)
    (block by block, as the blocks of a block symbol sit at real places),
    and the spectra at the two points agree up to rounding.
    Harper passes, and so does any real series with f_{n,-m} ==
    conj f_{n,m} (harper) or f_{-n,m} == conj f_{n,m} (hofstadter)."""
    mode = ((lambda n, m: (n, -m)) if fam.convention == "harper"
            else (lambda n, m: (-n, m)))
    return all(_coefficients_reflect(w, mode, lambda n, m, c: c.conjugate())
               for w in _block_weights(fam))


def _beta2_free(fam: MagneticBlochFamily) -> bool:
    """Whether no monomial of ``fam`` carries the shift phase v: a
    monomial's power of v is its shift (:func:`_weyl_shift`), so every
    mode has n == 0 ("harper", V^0 U^m) or m == 0 ("hofstadter", U^n V^0).

    The block table holds only non-zero weights, and ``_power(v, 0)`` is
    exactly 1, so then the family is the same matrix, bit for bit, at
    every beta2, and its spectrum at (beta1, beta2) is the one at
    (beta1, 0)."""
    return all(shift == 0 for _, _, shift in fam._shifts())


def _block_weights(fam: MagneticBlochFamily):
    """The ``{(n, m): weight}`` map of each block, its weights phased and
    non-zero (:func:`_weyl_modes`)."""
    for _, _, modes in fam.block_modes:
        yield {(n, m): c for n, m, c in modes}


def _reflected_points(grid) -> np.ndarray:
    """Flat index of the point (-i mod n1, -k mod n2) for each point (i, k)
    of the n1 x n2 grid of :func:`spectrum`: the point at -beta,
    since every clock/shift family is 2 pi/q-periodic in beta1 (and 2
    pi-periodic in beta2)."""
    n1, n2 = grid
    i, k = np.divmod(np.arange(n1 * n2), n2)
    return (-i % n1) * n2 + (-k % n2)


def _orbit_sources(grid, inversion: bool, flip: bool,
                   beta2_free: bool) -> np.ndarray:
    """Flat index of the representative of each point's orbit on the
    n1 x n2 grid of :func:`spectrum`, under the inversion
    :func:`_reflected_points` when ``inversion``, the flip (i, k) ->
    (i, -k mod n2) (beta2 -> -beta2) when ``flip``, and their product when
    both: the lowest flat index of the orbit, so point 0 stays its own.
    With ``beta2_free`` every point (i, k) takes the representative of
    (i, 0), which lies in column 0, as both rules map that column to
    itself."""
    n1, n2 = grid
    points = np.arange(n1 * n2)
    source = np.minimum(points, _reflected_points(grid)) if inversion else points
    i, k = np.divmod(points, n2)
    if flip:
        source = np.minimum(source, source[i * n2 + (-k % n2)])
    return source[i * n2] if beta2_free else source


# The modes of a scalar family that obeys Chambers' relation.
_CHAMBERS_MODES = frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})


def _chambers(fam: MagneticBlochFamily) -> bool:
    """Whether ``fam`` is one block whose modes all lie in
    ``_CHAMBERS_MODES`` with real phased weights, compared exactly.

    Then det(E - H(beta)) = P(E) - A cos(q beta1) - B cos(q beta2) with
    real A and B (Chambers 1965), so every sorted eigenvalue is a monotone
    function of c = A cos(q beta1) + B cos(q beta2), and its least and
    greatest value over a grid lie where cos(q beta1) and cos(q beta2)
    take theirs (:func:`_chambers_points`).  A complex weight shifts the
    cosines' phases, and any other mode adds terms to the relation."""
    return len(fam.block_modes) == 1 and all(
        (n, m) in _CHAMBERS_MODES and w.imag == 0
        for n, m, w in fam.block_modes[0][2])


def _chambers_points(q: int, grid) -> np.ndarray:
    """Flat indices, ascending, of the points of the n1 x n2 grid of
    :func:`spectrum` where cos(q beta1) and cos(q beta2) each take
    their greatest and their least value over the grid: at most four.

    At point (i, k), q beta1 = 2 pi i / n1 and q beta2 = 2 pi r / n2 with
    r = (q k) mod n2, so each cosine falls as the exact integer distance
    of i, or of r, from the nearest multiple of n1, or of n2, grows.  Both
    are greatest at i = k = 0; cos(q beta1) is least at i = floor(n1 / 2),
    and cos(q beta2) at the lowest k whose r lies farthest."""
    n1, n2 = grid
    k = max(range(n2), key=lambda j: min(q * j % n2, -q * j % n2))
    half = n1 // 2 * n2
    return np.array(sorted({0, k, half, half + k}))


def _grid_phases(q: int, grid, points):
    """(beta1, beta2), the phase arrays at the flat indices ``points`` of
    the n1 x n2 grid of :func:`spectrum`."""
    n1, n2 = grid
    i, k = np.divmod(points, n2)
    return 2.0 * math.pi / q * i / n1, 2.0 * math.pi * k / n2


# Largest n1 * n2 * dim of a grid of :func:`spectrum`: 32 MB of eigenvalue
# samples, some 60 times the largest benchmark grid (two-band at 2q = 254 on
# 16 x 16).
SAMPLES_BUDGET = 4_000_000


def _is_grid(grid) -> bool:
    """Whether ``grid`` is a pair of integers >= 8 (a bool is not one)."""
    return (isinstance(grid, (tuple, list)) and len(grid) == 2
            and all(_is_integer(n, 8) for n in grid))


def _is_tol_band(tol) -> bool:
    """Whether ``tol`` is None or a finite number >= 0 (a bool is not one)."""
    return tol is None or (_is_real(tol) and tol >= 0)


def spectrum(fam: MagneticBlochFamily, grid=(16, 16),
             tol_band: float | None = None, *, energies=None,
             edges_only: bool = False) -> SpectrumReport:
    """Report of the sorted eigenvalues of ``fam``, mapped through
    ``energies`` when given, on the n1 x n2 grid over [0, 2 pi / q) x
    [0, 2 pi), beta1-major, and of their band intervals: branches closer
    than ``tol_band`` (default 1e-6 of the spectral width) merge into one.
    The metadata names the grid, that tolerance, the family's ``iota`` and
    ``convention``, the eigensolver (``lapack-banded``) and the half
    bandwidth b (:func:`_bandwidth`).  This is the one-family form of
    :func:`_spectra`, which solves it.  A grid that fails :func:`_is_grid`
    or a ``tol_band`` that fails :func:`_is_tol_band` raises
    ``ValueError``, and a grid of more than ``SAMPLES_BUDGET`` samples
    n1 n2 dim :class:`ResourceCapError`, before anything is allocated.

    With ``edges_only``, a family that passes the exact Chambers rule
    (:func:`_chambers`) is solved only at its at most four points
    :func:`_chambers_points`, which hold every branch's least and greatest
    value over the grid; ``samples`` then holds their rows, in ascending
    flat order, and ``metadata["chambers_points"]`` their [beta1, beta2].

    Otherwise ``samples`` holds every point of the grid, and three exact
    rules, each decided once from the block table, say where the spectrum
    repeats: for an inversion-even family (:func:`_inversion_even`) the
    spectrum at beta is the one at -beta, the point
    :func:`_reflected_points`; for a flip-even one (:func:`_flip_even`)
    the spectrum at (beta1, beta2) is the one at (beta1, -beta2), the point
    (i, -k mod n2); for a beta2-free one (:func:`_beta2_free`) it is the
    one at (beta1, 0), the point (i, 0).  Only the representative of each
    orbit of the rules the family passes (:func:`_orbit_sources`, its
    lowest flat index) is solved, in ascending flat order (point 0 first),
    and every other row is a copy.  With inversion and flip an 8 x 16 grid
    takes 45 solves, 16 x 16 81; with inversion alone (n1 n2 + f) / 2, f
    the points that are their own partner (4 on an even grid); a
    beta2-free family with inversion takes column 0's n1 // 2 + 1 (5 of
    128 on 8 x 16, 9 of 256 on 16 x 16).  A family that passes none, even
    one that misses a rule by rounding, is solved at every point."""
    return _spectra([fam], grid, tol_band, energies=energies,
                    edges_only=edges_only)[0]


def _joined_terms(tables):
    """The (i, k, terms) table of :meth:`MagneticBlochFamily._terms_at`
    for the points of several tables of one (i, k, shift) layout, each
    term's weights joined along the point axis in table order."""
    for blocks in zip(*tables):
        i, k, _ = blocks[0]
        yield i, k, ((pairs[0][0], np.concatenate([w for _, w in pairs],
                                                  axis=-1))
                     for pairs in zip(*(terms for _, _, terms in blocks)))


def _spectra(fams, grid, tol_band: float | None = None, *, energies=None,
             edges_only: bool = False) -> list:
    """The :func:`spectrum` report of each family of ``fams``, in order:
    the one Bloch-grid solver.  The families share q, dim, iota,
    convention and the (i, k, shift) table of
    :meth:`MagneticBlochFamily._shifts`, and any other list (an empty one
    too) is a ValueError, after the grid and ``tol_band`` checks and
    before any solve.

    The half bandwidth, the Chambers points and the orbit sources of each
    set of rules are found once per call; each family keeps its own rule
    decisions, rows, merge and metadata.  The solved points of all
    families, in family order, are cut into stacks of at most
    ``_STACK_BYTES`` (or of one point) for :func:`_band_eigvalsh`, and a
    stack may span families: each family's weights come from its own
    ``_terms_at`` on its own points and are joined along the point axis
    (:func:`_joined_terms`).  So every point is assembled from the same
    terms in the same order, and solved by the same call, as when its
    family is solved alone."""
    if not _is_grid(grid):
        raise ValueError(f"grid must be two integers >= 8, got {grid!r}")
    if not _is_tol_band(tol_band):
        raise ValueError(f"tol_band must be None or a finite number >= 0, "
                         f"got {tol_band!r}")
    if not fams:
        raise ValueError("_spectra needs at least one family")
    layout = [(f.flux.q, f.dim, f.iota, f.convention, f._shifts())
              for f in fams]
    if any(key != layout[0] for key in layout):
        raise ValueError("_spectra needs families that share q, dim, iota, "
                         "convention and (i, k, shift) table")
    q, dim, _, _, shifts = layout[0]
    n1, n2 = grid
    if n1 * n2 * dim > SAMPLES_BUDGET:
        raise ResourceCapError(
            f"grid {n1} x {n2} at dimension {dim} needs {n1 * n2 * dim} "
            f"eigenvalue samples, over the budget {SAMPLES_BUDGET}")
    b = _bandwidth(q, dim, shifts)
    # rule key (None for the Chambers points, else (inversion, flip,
    # beta2_free)) -> (solved flat indices, row of each report row, beta1,
    # beta2)
    plans, keys = {}, []
    for fam in fams:
        key = (None if edges_only and _chambers(fam)
               else (_inversion_even(fam), _flip_even(fam), _beta2_free(fam)))
        if key not in plans:
            if key is None:
                solved = _chambers_points(q, grid)
                rows = np.arange(solved.size)
            else:
                source = _orbit_sources(grid, *key)
                solved = np.flatnonzero(source == np.arange(n1 * n2))
                rows = np.searchsorted(solved, source)
            plans[key] = (solved, rows, *_grid_phases(q, grid, solved))
        keys.append(key)
    picks = [plans[key] for key in keys]
    # family f holds the points starts[f]:starts[f + 1] of the whole list
    starts = np.cumsum([0] + [pick[0].size for pick in picks]).tolist()
    step = max(1, _STACK_BYTES // (32 * (b + 1) * dim))
    lams = [[] for _ in fams]
    for s in range(0, starts[-1], step):
        e = min(s + step, starts[-1])
        # (f, lo, hi): family f's own points lo:hi lie in the stack
        parts = [(f, max(s, a) - a, min(e, z) - a)
                 for f, (a, z) in enumerate(zip(starts, starts[1:]))
                 if a < e and z > s]
        phases = [(picks[f][2][lo:hi], picks[f][3][lo:hi])
                  for f, lo, hi in parts]
        tables = [fams[f]._terms_at(s1, s2)
                  for (f, _, _), (s1, s2) in zip(parts, phases)]
        if len(parts) == 1:
            (s1, s2), = phases
            blocks = tables[0]
        else:
            s1, s2 = (np.concatenate(a) for a in zip(*phases))
            blocks = _joined_terms(tables)
        lam = _band_eigvalsh(q, dim, b, blocks, s1, s2)
        if energies is not None:
            lam = energies(lam)
        at = 0
        for f, lo, hi in parts:
            lams[f].append(lam[at:at + hi - lo])
            at += hi - lo
    reports = []
    for fam, key, (_, rows, b1, b2), lam in zip(fams, keys, picks, lams):
        samples = np.concatenate(lam)[rows]
        bands, tol = _merge_branches(samples, tol_band)
        metadata = {"grid": [n1, n2], "tol_band": tol, "iota": fam.iota,
                    "convention": fam.convention}
        if key is None:
            metadata["chambers_points"] = np.column_stack((b1, b2)).tolist()
        metadata.update(eigensolver="lapack-banded", bandwidth=b)
        reports.append(SpectrumReport(flux=fam.flux, bands=bands,
                                      samples=samples, metadata=metadata))
    return reports


def _mirror_even(F: FourierSeries2D, iota: int) -> bool:
    """Whether f_{n,m} == (-1)^(n m iota) conj(f_{n,m}) for every mode, by
    the exact rule :func:`lattice._coefficients_reflect` with the identity
    mode map.  Then conj H_{p/q}(beta) = H_{(q-p)/q}(-beta) up to the
    rounding of the phases, so the two fluxes share their spectra."""
    return _coefficients_reflect(
        F.coeffs, lambda n, m: (n, m),
        lambda n, m, c: (-1) ** (n * m * iota % 2) * c.conjugate())


def _mirrored(twin: SpectrumReport, flux: RationalFlux, reflected,
              chambers) -> SpectrumReport:
    """The report at ``flux`` = (q-p)/q from the report of its twin p/q.
    Its spectrum at beta is the twin's at -beta, the point ``reflected``
    (:func:`_reflected_points` of the grid of :func:`spectrum`); a twin
    sampled at its Chambers points lends its rows to their reflections,
    whose [beta1, beta2] ``chambers`` holds and the report names as its
    own ``chambers_points``.  The report shares no list or array with its
    twin, nor with ``chambers``."""
    metadata = {**twin.metadata, "grid": list(twin.metadata["grid"]),
                "mirror_of": [twin.flux.p, twin.flux.q]}
    if "chambers_points" in metadata:
        metadata["chambers_points"] = [list(point) for point in chambers]
        reflected = np.arange(len(twin.samples))
    return SpectrumReport(flux=flux, bands=list(twin.bands),
                          samples=twin.samples[reflected], metadata=metadata)


def butterfly(F: FourierSeries2D, q_max: int, iota: int = -1, grid=(8, 16),
              tol_band: float | None = None) -> list:
    """One strong-field spectrum report per reduced flux p/q with
    q <= q_max, deterministically ordered by (q, p); ``grid`` and
    ``tol_band`` as in :func:`spectrum`.

    Only the band edges are wanted, so a flux whose family passes the
    Chambers rule (:func:`_chambers`: F on the modes (0, 0), (+-1, 0) and
    (0, +-1) with real weights, Harper among them) is solved at its at most
    four Chambers points, and its ``samples`` are their rows
    (:func:`spectrum` with ``edges_only``); every other flux keeps the
    whole grid.

    When F is mirror-even (:func:`_mirror_even`), each (q-p)/q with
    p < q/2 is the reflected report of its twin p/q (:func:`_mirrored`),
    whose metadata it carries with ``"mirror_of": [p, q]``; every other
    flux is solved directly, those of one q in one :func:`_spectra`
    call."""
    mirror = _mirror_even(F, iota)
    reflected, reports = None, []
    for q, group in itertools.groupby(reduced_fractions(q_max),
                                      lambda fx: fx.q):
        group = list(group)
        direct = [fx for fx in group if not (mirror and 2 * fx.p > q)]
        solved = dict(zip((fx.p for fx in direct), _spectra(
            [quantize_series(F, fx, iota=iota) for fx in direct], grid,
            tol_band, edges_only=True)))
        chambers = None
        if len(direct) < len(group):
            # once per call, after _spectra has checked the grid and its size
            if reflected is None:
                reflected = _reflected_points(grid)
            # a twin's Chambers points are _chambers_points at q and grid
            chambers = np.column_stack(_grid_phases(
                q, grid, reflected[_chambers_points(q, grid)])).tolist()
        reports += [solved[fx.p] if fx.p in solved
                    else _mirrored(solved[q - fx.p], fx, reflected, chambers)
                    for fx in group]
    return reports


def almost_mathieu_spectrum(flux: RationalFlux, beta: float, N: int) -> np.ndarray:
    """Eigenvalues of the N-site periodic difference operator
    ``u_{n-1} + u_{n+1} + 2 cos(2 pi theta n + beta) u_n``."""
    if not _is_integer(N, 3 * flux.q):
        raise ValueError("N must be an integer of at least 3q")
    n = np.arange(N)
    H = np.zeros((N, N))
    H[n, n] = 2.0 * np.cos(2.0 * math.pi * flux.theta * n + beta)
    H[n[:-1], n[:-1] + 1] = 1.0
    H[n[:-1] + 1, n[:-1]] = 1.0
    H[0, N - 1] = 1.0
    H[N - 1, 0] = 1.0
    return np.linalg.eigvalsh(H)


def _one_sided(A: np.ndarray, B: np.ndarray) -> float:
    """max over a in A of the distance from a to the set B (both sorted)."""
    if B.size == 1:
        return float(np.max(np.abs(A - B[0])))
    i = np.clip(np.searchsorted(B, A), 1, B.size - 1)
    d = np.minimum(np.abs(A - B[i - 1]), np.abs(A - B[i]))
    return float(d.max())


def hausdorff_distance(A, B) -> float:
    """Hausdorff distance between two finite point sets on the line."""
    A = np.sort(np.asarray(A, dtype=float).ravel())
    B = np.sort(np.asarray(B, dtype=float).ravel())
    if A.size == 0 or B.size == 0:
        raise ValueError("empty spectrum in Hausdorff distance")
    return max(_one_sided(A, B), _one_sided(B, A))


def sorted_list_distance(A, B) -> float:
    """Sup distance of sorted eigenvalue lists truncated to matching counts.

    Equal-length lists compare entry by entry; otherwise the comparison
    falls back to the set Hausdorff distance.
    """
    A = np.sort(np.asarray(A, dtype=float).ravel())
    B = np.sort(np.asarray(B, dtype=float).ravel())
    if A.size == B.size:
        return float(np.max(np.abs(A - B))) if A.size else 0.0
    return hausdorff_distance(A, B)
