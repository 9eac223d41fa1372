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
import copy
import functools
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
    the phase of V are the (u, v) of :func:`_bloch_clock`.
    """
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
    symbol, a real series being the 1 x 1 list."""
    if not isinstance(symbol, FourierSeries2D):
        return symbol
    if not symbol.is_real:
        raise ValueError("a single-series symbol must be real-valued")
    return [[symbol]]


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


def _orbit_sources(grid, inversion: bool, flip: bool) -> np.ndarray:
    """Flat index of the representative of each point's orbit on the
    n1 x n2 grid of :func:`spectrum`, under the inversion
    :func:`_reflected_points` when ``inversion``, the flip (i, k) ->
    (i, -k mod n2) (beta2 -> -beta2) when ``flip``, and their product when
    both: the lowest flat index of the orbit, so point 0 stays its own."""
    n1, n2 = grid
    points = np.arange(n1 * n2)
    source = np.minimum(points, _reflected_points(grid)) if inversion else points
    if flip:
        i, k = np.divmod(points, n2)
        source = np.minimum(source, source[i * n2 + (-k % n2)])
    return source


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
    bandwidth b (:func:`_bandwidth`); each stack of at most
    ``_STACK_BYTES`` (or of one point) goes to :func:`_band_eigvalsh`.  A
    grid that fails :func:`_is_grid` or a ``tol_band`` that fails
    :func:`_is_tol_band` raises ``ValueError``, and a grid of more than
    ``SAMPLES_BUDGET`` samples n1 n2 dim :class:`ResourceCapError`, before
    anything is allocated.

    With ``edges_only``, a family that passes the exact Chambers rule
    (:func:`_chambers`) is solved only at its at most four points
    :func:`_chambers_points`, which hold every branch's least and greatest
    value over the grid; ``samples`` then holds their rows, in ascending
    flat order, and ``metadata["chambers_points"]`` their [beta1, beta2].

    Otherwise ``samples`` holds every point of the grid, and two exact
    rules, each decided once from the block table, say where the spectrum
    repeats: for an inversion-even family (:func:`_inversion_even`) the
    spectrum at beta is the one at -beta, the point
    :func:`_reflected_points`; for a flip-even one (:func:`_flip_even`)
    the spectrum at (beta1, beta2) is the one at (beta1, -beta2), the point
    (i, -k mod n2).  Only the representative of each orbit of the rules the
    family passes (:func:`_orbit_sources`, its lowest flat index) is
    solved, in ascending flat order (point 0 first), and every other row
    is a copy.  With both rules an 8 x 16 grid takes 45 solves, 16 x 16
    81; with inversion alone (n1 n2 + f) / 2, f the points that are their
    own partner (4 on an even grid).  A family that passes neither, even
    one that misses a rule by rounding, is solved at every point."""
    if not _is_grid(grid):
        raise ValueError(f"grid must be two integers >= 8, got {grid!r}")
    if not _is_tol_band(tol_band):
        raise ValueError(f"tol_band must be None or a finite number >= 0, "
                         f"got {tol_band!r}")
    n1, n2 = grid
    q, dim = fam.flux.q, fam.dim
    if n1 * n2 * dim > SAMPLES_BUDGET:
        raise ResourceCapError(
            f"grid {n1} x {n2} at dimension {dim} needs {n1 * n2 * dim} "
            f"eigenvalue samples, over the budget {SAMPLES_BUDGET}")
    b = _bandwidth(q, dim, fam._shifts())
    metadata = {"iota": fam.iota, "convention": fam.convention}
    if edges_only and _chambers(fam):
        solved = _chambers_points(q, grid)
        rows = np.arange(solved.size)
        metadata["chambers_points"] = np.column_stack(
            _grid_phases(q, grid, solved)).tolist()
    else:
        source = _orbit_sources(grid, _inversion_even(fam), _flip_even(fam))
        solved = np.flatnonzero(source == np.arange(n1 * n2))
        rows = np.searchsorted(solved, source)
    b1, b2 = _grid_phases(q, grid, solved)
    step = max(1, _STACK_BYTES // (32 * (b + 1) * dim))
    lams = []
    for s in range(0, b1.size, step):
        s1, s2 = b1[s:s + step], b2[s:s + step]
        lam = _band_eigvalsh(q, dim, b, fam._terms_at(s1, s2), s1, s2)
        lams.append(lam if energies is None else energies(lam))
    samples = np.concatenate(lams)[rows]
    bands, tol_band = _merge_branches(samples, tol_band)
    return SpectrumReport(flux=fam.flux, bands=bands, samples=samples,
                          metadata={"grid": [n1, n2], "tol_band": tol_band,
                                    **metadata, "eigensolver": "lapack-banded",
                                    "bandwidth": b})


def _mirror_even(F: FourierSeries2D, iota: int) -> bool:
    """Whether f_{n,m} == (-1)^(n m iota) conj(f_{n,m}) for every mode, by
    the exact rule :func:`lattice._coefficients_reflect` with the identity
    mode map.  Then conj H_{p/q}(beta) = H_{(q-p)/q}(-beta) up to the
    rounding of the phases, so the two fluxes share their spectra."""
    return _coefficients_reflect(
        F.coeffs, lambda n, m: (n, m),
        lambda n, m, c: (-1) ** (n * m * iota % 2) * c.conjugate())


def _mirrored(twin: SpectrumReport, flux: RationalFlux, grid) -> SpectrumReport:
    """The report at ``flux`` = (q-p)/q from the report of its twin p/q.
    Its spectrum at beta is the twin's at -beta, the point
    :func:`_reflected_points` of the grid of :func:`spectrum`; a
    twin sampled at its Chambers points lends its rows to their
    reflections, which the report names as its own ``chambers_points``."""
    reflected = _reflected_points(grid)
    metadata = {**copy.deepcopy(twin.metadata),
                "mirror_of": [twin.flux.p, twin.flux.q]}
    if "chambers_points" in metadata:
        # the twin's points are _chambers_points at the same q and grid
        metadata["chambers_points"] = np.column_stack(_grid_phases(
            flux.q, grid, reflected[_chambers_points(flux.q, grid)])).tolist()
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
    flux is solved directly."""
    fluxes = reduced_fractions(q_max)
    mirror = _mirror_even(F, iota)
    solved = {}   # (p, q) -> report; (q, p) order solves each twin first
    for fx in fluxes:
        twin = solved.get((fx.q - fx.p, fx.q)) if mirror else None
        if twin is not None:
            solved[fx.p, fx.q] = _mirrored(twin, fx, grid)
        else:
            fam = quantize_series(F, fx, iota=iota)
            solved[fx.p, fx.q] = spectrum(fam, grid, tol_band,
                                          edges_only=True)
    return list(solved.values())


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
