"""Bravais lattice geometry and Z^2-periodic functions as finite Fourier series.

Conventions used throughout the library:

* a lattice is spanned by generators ``a``, ``b`` with positive oriented area
  ``area = a1*b2 - a2*b1 > 0``; the dual generators satisfy
  ``a_star . a = b_star . b = 1`` and ``a_star . b = b_star . a = 0``;
* a periodic function is a finite sum
  ``F(p, x) = sum_{n,m} c_{n,m} exp(i 2 pi (n p + m x))``
  stored sparsely as ``{(n, m): c}``.  The first slot of the argument pair is
  the momentum-like variable, the second the position-like one; every
  derivative multiplier below is derived from this single convention.
  A series declares no mode cutoff: whatever samples it on a grid checks
  the modes it actually holds;
* the complexified frame ``z_a = (a1 - i a2)/ell``, ``z_b = (b1 - i b2)/ell``
  with ``ell = sqrt(area)`` satisfies ``|Im(z_a conj(z_b))| = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GaugeError, GeometryError

TWO_PI = 2.0 * math.pi

__all__ = [
    "Lattice2D",
    "FourierSeries2D",
    "PeriodicVectorPotential",
    "make_lattice",
    "laplacian_DzDzbar",
    "harper_potential",
]


@dataclass(frozen=True)
class Lattice2D:
    """Geometry of a 2-D Bravais lattice and its dual. Immutable."""

    a: np.ndarray
    b: np.ndarray
    area: float
    a_star: np.ndarray
    b_star: np.ndarray
    ell: float
    z_a: complex
    z_b: complex


def make_lattice(a, b) -> Lattice2D:
    """Build a :class:`Lattice2D` from the two generators.

    Raises :class:`GeometryError` when the generators are degenerate
    (zero or negative oriented area).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (2,) or b.shape != (2,):
        raise GeometryError("lattice generators must be real 2-vectors")
    area = a[0] * b[1] - a[1] * b[0]
    if not area > 0.0:
        raise GeometryError(
            f"degenerate lattice: oriented area {area} must be positive"
        )
    a_star = np.array([b[1], -b[0]]) / area
    b_star = np.array([-a[1], a[0]]) / area
    ell = math.sqrt(area)
    z_a = complex(a[0], -a[1]) / ell
    z_b = complex(b[0], -b[1]) / ell
    lat = Lattice2D(a=a, b=b, area=area, a_star=a_star, b_star=b_star,
                    ell=ell, z_a=z_a, z_b=z_b)
    a.setflags(write=False)
    b.setflags(write=False)
    a_star.setflags(write=False)
    b_star.setflags(write=False)
    return lat


@dataclass(frozen=True)
class FourierSeries2D:
    """Finite Fourier series ``sum c_{n,m} exp(i 2 pi (n p + m x))``.

    ``is_real`` declares that the series represents a real-valued function;
    the constructor then symmetrizes the coefficients,
    ``c_{n,m} <- (c_{n,m} + conj(c_{-n,-m}))/2``, so the reality invariant
    holds exactly afterwards.
    """

    coeffs: dict = field(default_factory=dict)
    is_real: bool = False

    def __post_init__(self):
        clean: dict[tuple[int, int], complex] = {}
        for (n, m), c in self.coeffs.items():
            n, m = int(n), int(m)
            clean[(n, m)] = clean.get((n, m), 0j) + complex(c)
        if self.is_real:
            sym = {}
            for (n, m) in set(clean) | {(-n, -m) for (n, m) in clean}:
                c = clean.get((n, m), 0j)
                cr = clean.get((-n, -m), 0j)
                sym[(n, m)] = 0.5 * (c + cr.conjugate())
            clean = sym
        object.__setattr__(self, "coeffs", clean)

    def __getitem__(self, key) -> complex:
        return self.coeffs.get(tuple(key), 0j)

    def conj_reflect(self) -> "FourierSeries2D":
        """Series of the complex-conjugate function: c_{n,m} -> conj(c_{-n,-m})."""
        return FourierSeries2D(
            {(-n, -m): c.conjugate() for (n, m), c in self.coeffs.items()},
            is_real=self.is_real)

    def scaled(self, s: complex) -> "FourierSeries2D":
        real = self.is_real and complex(s).imag == 0.0
        return FourierSeries2D(
            {nm: s * c for nm, c in self.coeffs.items()},
            is_real=real)

    def plus(self, other: "FourierSeries2D") -> "FourierSeries2D":
        out = dict(self.coeffs)
        for nm, c in other.coeffs.items():
            out[nm] = out.get(nm, 0j) + c
        return FourierSeries2D(out, is_real=self.is_real and other.is_real)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)


def _coefficients_reflect(coeffs: dict, mode, weight) -> bool:
    """Whether ``coeffs[mode(n, m)] == weight(n, m, c)`` for every stored
    ``(n, m): c``, compared exactly; a missing mode reads as zero.

    The one home of the exact reflection rules: each symmetry fast path
    (the Bloch grid's inversion and flip, the butterfly mirror, the real
    and the parity-split oracle) is one call of it, with its own mode map
    and weight."""
    return all(coeffs.get(mode(n, m), 0j) == weight(n, m, c)
               for (n, m), c in coeffs.items())


def _mode_multiplied(F: FourierSeries2D, mult) -> FourierSeries2D:
    return FourierSeries2D(
        {(n, m): mult(n, m) * c for (n, m), c in F.coeffs.items()},
        is_real=False)


def laplacian_DzDzbar(F: FourierSeries2D, L: Lattice2D) -> FourierSeries2D:
    """Second-order operator D_z D_zbar, coefficientwise
    ``-(2 pi)^2 / area * (|a|^2 m^2 - 2 (a.b) n m + |b|^2 n^2)``.

    Maps real series to real series.
    """
    aa = float(L.a @ L.a)
    bb = float(L.b @ L.b)
    ab = float(L.a @ L.b)
    out = _mode_multiplied(
        F,
        lambda n, m: -(TWO_PI ** 2) / L.area * (aa * m * m - 2.0 * ab * n * m + bb * n * n),
    )
    return FourierSeries2D(out.coeffs, is_real=F.is_real)


@dataclass(frozen=True)
class PeriodicVectorPotential:
    """Dimensionless periodic vector potential in Coulomb gauge.

    ``f1`` and ``f2`` are the real Z^2-periodic components; the constructor
    enforces the Fourier form of the gauge condition,
    ``n*f1_{n,m} + m*f2_{n,m} = 0`` at every stored mode, and derives the
    complexified component ``g = (z_a f1 + z_b f2)/sqrt(2)``.
    """

    f1: FourierSeries2D
    f2: FourierSeries2D
    lattice: Lattice2D
    g: FourierSeries2D = field(init=False)

    def __post_init__(self):
        if not (self.f1.is_real and self.f2.is_real):
            raise GaugeError("vector potential components must be real-valued series")
        scale = max(self.f1.max_abs(), self.f2.max_abs(), 1.0)
        for (n, m) in set(self.f1.coeffs) | set(self.f2.coeffs):
            resid = n * self.f1[(n, m)] + m * self.f2[(n, m)]
            if abs(resid) > 1e-13 * scale:
                raise GaugeError(
                    f"gauge condition violated at mode {(n, m)}: "
                    f"n*f1+m*f2 = {resid}")
        g = {}
        for (n, m) in set(self.f1.coeffs) | set(self.f2.coeffs):
            g[(n, m)] = (self.lattice.z_a * self.f1[(n, m)]
                         + self.lattice.z_b * self.f2[(n, m)]) / math.sqrt(2.0)
        object.__setattr__(self, "g", FourierSeries2D(g, is_real=False))

    def is_zero(self) -> bool:
        return self.f1.max_abs() == 0.0 and self.f2.max_abs() == 0.0


def harper_potential() -> FourierSeries2D:
    """The standard potential 2 cos(2 pi p) + 2 cos(2 pi x)."""
    return FourierSeries2D(
        {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}, is_real=True)
