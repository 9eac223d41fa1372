"""Exception hierarchy shared across the library.

Every raised error names the invariant that failed so callers (and the CLI)
can act on it without string matching; every input check reads the value
rules :func:`_is_integer` and :func:`_is_real`.
"""

import math
import numbers

__all__ = [
    "MagblochError",
    "GeometryError",
    "GaugeError",
    "TruncationError",
    "CommensurabilityError",
    "GapClosedError",
    "ResourceCapError",
    "ConfigError",
    "NumericError",
]


class MagblochError(Exception):
    """Base class for library errors."""


class GeometryError(MagblochError):
    """Degenerate lattice: zero or negative cell area."""


class GaugeError(MagblochError):
    """Fourier divergence-free condition n*f1 + m*f2 = 0 violated."""


class TruncationError(MagblochError):
    """Fock truncation too small for the requested order/bands/guard."""


class CommensurabilityError(MagblochError):
    """Flux not commensurate with the periodic slow grid."""


class GapClosedError(MagblochError):
    """Eigenvalue clusters around neighbouring Landau levels overlap."""


class ResourceCapError(MagblochError):
    """A configured resource cap (q_max, matrix dimension) was exceeded."""


class ConfigError(MagblochError):
    """Malformed or unknown configuration input."""


class NumericError(MagblochError):
    """A numerical invariant failed (non-convergence, lost Hermiticity)."""


def _is_integer(x, lo=None) -> bool:
    """Whether ``x`` is an integer, and at least ``lo`` when given; a numpy
    integer is one, a bool is not."""
    return (isinstance(x, numbers.Integral) and not isinstance(x, bool)
            and (lo is None or x >= lo))


def _is_real(x) -> bool:
    """Whether ``x`` is a finite real number; a numpy scalar is one, a bool
    is not."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))
