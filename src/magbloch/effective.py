"""Closed-form effective Hamiltonians as finite matrices.

The adiabatic parameter is tied to rational flux through theta = delta^2,
so every quantized model is an exactly finite q x q (or 2q x 2q) Bloch
family.  Energies are expressed in cyclotron units (the rescaled strong
field scale); a conversion factor back to the bare lattice energy unit is
1/delta^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (FourierSeries2D, Lattice2D, PeriodicVectorPotential,
                      laplacian_DzDzbar)
from .quantize import (MagneticBlochFamily, RationalFlux, SpectrumReport,
                       _check_defect, _twisted_square, quantize_blocks,
                       quantize_series, spectrum)

__all__ = [
    "EffectiveModel",
    "closed_form_grades",
    "single_band_model",
    "two_band_model",
    "spectrum_via_GGdag",
    "delta_from_flux",
]


def delta_from_flux(flux: RationalFlux) -> float:
    """delta = sqrt(theta); the flux fraction is the squared adiabatic
    parameter."""
    return math.sqrt(flux.theta)


@dataclass(frozen=True)
class EffectiveModel:
    delta: float
    blocks: list                       # m x m nested list of FourierSeries2D
    family: MagneticBlochFamily


def closed_form_grades(V: FourierSeries2D, L: Lattice2D,
                       lam_star: float) -> dict:
    """The closed-form symbol of one level lam* by grade:
    ``{0: lam*, 2: V, 4: (lam*/2) |D_z|^2 V}``, real series; grades 1 and 3
    vanish.  The recursion (``moyal.effective_symbol``) reproduces them."""
    return {0: FourierSeries2D({(0, 0): lam_star}, is_real=True),
            2: V,
            4: FourierSeries2D(laplacian_DzDzbar(V, L).coeffs, is_real=True)
            .scaled(lam_star / 2.0)}


def single_band_model(V: FourierSeries2D, L: Lattice2D, lam_star: float,
                      flux: RationalFlux, iota: int = 1,
                      order: int = 4) -> EffectiveModel:
    """Single-level model lam* + d^2 V + d^4 (lam*/2) |D_z|^2 V (the
    :func:`closed_form_grades`), quantized as a strong-field power series
    at theta = d^2.

    ``order`` (0, 2 or 4) keeps the grades up to it: 0 is the bare level,
    2 drops the d^4 term (useful for order fits).
    """
    if order not in (0, 2, 4):
        raise ValueError(f"order must be 0, 2 or 4, not {order}")
    delta = delta_from_flux(flux)
    h = closed_form_grades(V, L, lam_star)
    symbol = h[0]
    for j in range(2, order + 1, 2):
        symbol = symbol.plus(h[j].scaled(delta ** j))
    return EffectiveModel(delta=delta, blocks=[[symbol]],
                          family=quantize_series(symbol, flux, iota=iota))


def two_band_model(A: PeriodicVectorPotential, L: Lattice2D, n_star: int,
                   flux: RationalFlux, iota: int = 1) -> EffectiveModel:
    """Two contiguous levels {n*, n*+1} coupled at first order by the
    complexified vector potential g.

    Block layout is ascending in the level index, so the level splitting is
    diag(n*+1/2, n*+3/2) and the coupling sits in the (0,1) block as
    d sqrt(n*+1) g (conjugate-reflected series in the (1,0) block).
    """
    if A.is_zero():
        raise ValueError("two_band_model needs a non-zero vector potential; "
                         "with A = 0 the levels decouple")
    delta = delta_from_flux(flux)
    c = delta * math.sqrt(n_star + 1.0)
    b00 = FourierSeries2D({(0, 0): n_star + 0.5}, is_real=True)
    b11 = FourierSeries2D({(0, 0): n_star + 1.5}, is_real=True)
    b01 = A.g.scaled(c)
    b10 = b01.conj_reflect()
    blocks = [[b00, b01], [b10, b11]]
    fam = quantize_blocks(blocks, flux, iota=iota)
    return EffectiveModel(delta=delta, blocks=blocks, family=fam)


def spectrum_via_GGdag(A: PeriodicVectorPotential, L: Lattice2D, n_star: int,
                       flux: RationalFlux, grid=(16, 16),
                       iota: int = 1) -> SpectrumReport:
    """Spectrum of the two-level model through the reduced q x q problem.

    At every Bloch point the eigenvalues are (n*+1) +/- sqrt(1/4 +
    d^2 (n*+1) lam) over lam in the spectrum of G G^dag, which is positive
    semidefinite; a negative lam beyond roundoff signals a Hermiticity bug
    and raises :class:`NumericError`.

    G is the strong-field quantization of g, so G G^dag is the quantization
    of the twisted square of g (:func:`quantize._twisted_square`): an
    ordinary Bloch family, solved banded like every other, with no dense
    product, and at one point of each orbit of the grid under beta ->
    -beta and beta2 -> -beta2, as far as its weights pass the exact
    inversion and flip rules (:func:`quantize.spectrum`); G G^dag of
    a g on the modes (0, +-1) passes both.  The twisted square sums the
    pairs of k and -k in different orders, so a G G^dag of several modes
    can miss a rule by rounding, and a missed rule is not used.
    """
    if A.is_zero():
        raise ValueError("spectrum_via_GGdag needs a non-zero vector potential")
    delta = delta_from_flux(flux)

    def energies(lam):
        # an absolute bound (scale 0) on -min lam, printed as min lam
        _check_defect(-lam.min(), lambda: 0.0, 1e-10,
                      "G G^dag not positive semidefinite: min eigenvalue -")
        lam = np.clip(lam, 0.0, None)
        root = np.sqrt(0.25 + (delta ** 2) * (n_star + 1.0) * lam)
        return np.sort(np.concatenate([(n_star + 1.0) - root,
                                       (n_star + 1.0) + root], axis=-1))

    fam = quantize_series(_twisted_square(A.g, flux, iota), flux, iota=iota)
    return spectrum(fam, grid, energies=energies)
