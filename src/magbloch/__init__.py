"""Magnetic Bloch bands at rational flux.

Numerical library for a 2-D lattice electron in a uniform magnetic field:
clock-and-shift quantization of periodic band functions, truncated
Landau-level symbol calculus with its recursive block-diagonalization,
closed-form effective models, and a brute-force oracle that measures the
predicted error orders.
"""

from .errors import (CommensurabilityError, ConfigError, GapClosedError,
                     GaugeError, GeometryError, MagblochError, NumericError,
                     ResourceCapError, TruncationError)
from .lattice import (FourierSeries2D, Lattice2D, PeriodicVectorPotential,
                      harper_potential, laplacian_DzDzbar, make_lattice)
from .fock import FockTruncation, I_generator, ladder, xi_matrix
from .symbols import (OperatorSymbol, assemble_truncated, exact_symbol,
                      remainder_map, remainder_norm)
from .moyal import (MoyalSeries, build_intertwiner, build_projection,
                    effective_symbol)
from .quantize import (MagneticBlochFamily, RationalFlux, SpectrumReport,
                       almost_mathieu_spectrum, butterfly, clock_shift,
                       hausdorff_distance, quantize_series, spectrum)
from .effective import single_band_model, spectrum_via_GGdag, two_band_model
from .oracle import (LinearCanonicalMap, OracleBasis, band_cluster,
                     build_full_matrix, ccr_table, landau_variable_map,
                     level_cluster, order_fit, fast_slow_variable_map,
                     quantize_on_grid)

__version__ = "0.1.0"
