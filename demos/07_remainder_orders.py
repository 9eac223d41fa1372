"""Scaling orders of the symbol remainder.

The polynomially truncated symbol differs from the exact one by a
remainder whose guard-corner norm scales like the square of the truncation
order budget; compressing onto a single level buys one extra power.
"""

from magbloch import FockTruncation
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              harper_potential, make_lattice)
from magbloch.oracle import log_slope
from magbloch.symbols import default_points, remainder_norm

L = make_lattice([1, 0], [0, 1])
V = harper_potential()
f1 = FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5}, is_real=True)
A = PeriodicVectorPotential(f1, FourierSeries2D({}, is_real=True), L)

T = FockTruncation(n_max=200, guard=6)
deltas = [0.2, 0.1, 0.05]
points = default_points(4)

for label, Aarg, proj in [("no vector potential", None, None),
                          ("no vector potential, level-projected", None, 0),
                          ("with vector potential", A, None),
                          ("with vector potential, level-projected", A, 0)]:
    ds = [max(remainder_norm(V, Aarg, L, T, d, pt, projector_band=proj)
              for pt in points) for d in deltas]
    slope, _ = log_slope(deltas, ds)
    print(f"{label}: norms " + "  ".join(f"{x:.3e}" for x in ds)
          + f"   slope {slope:.2f}")
