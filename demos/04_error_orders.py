"""Measure how fast the effective single-level models converge to the
brute-force spectrum as the flux shrinks.

Three models are compared against the eigenvalue cluster of the full
quantization around the lowest level: the bare level, the level plus the
second-order potential term, and the full fourth-order model.  The printed
log-log slopes are the observed convergence orders (about 2, 4, and 6; the
n-th odd correction vanishes by ladder parity, so the fourth-order model
gains two full orders over the second-order one).
"""

from magbloch import FockTruncation, OracleBasis, build_full_matrix
from magbloch.effective import delta_from_flux, single_band_model
from magbloch.lattice import harper_potential, make_lattice
from magbloch.oracle import (default_delta_sweep, level_cluster, order_fit,
                             oracle_eigenvalues, quantize_on_grid)

L = make_lattice([1, 0], [0, 1])
V = harper_potential()
LAM = 0.5
T = FockTruncation(n_max=30, guard=6)

deltas, clusters = [], []
# the grades of the closed form that each model keeps
ORDERS = {"level only": 0, "second order": 2, "fourth order": 4}
models = {kind: [] for kind in ORDERS}
for fx in default_delta_sweep():
    d = delta_from_flux(fx)
    deltas.append(d)
    basis = OracleBasis.resolving(V, None, fx, T)
    Hf = build_full_matrix(V, None, L, basis, fx)
    clusters.append(level_cluster(Hf, V, None, basis, 0))
    for kind, order in ORDERS.items():
        series = single_band_model(V, L, LAM, fx, order=order)
        models[kind].append(
            oracle_eigenvalues(quantize_on_grid(series, basis, fx)))
    print(f"theta = 1/{fx.q}  (delta = {d:.4f}): cluster of "
          f"{clusters[-1].size} states computed")

print()
for kind, specs in models.items():
    fit = order_fit(specs, clusters, deltas)
    print(f"{kind:>13}: distances "
          + "  ".join(f"{x:.3e}" for x in fit.distances)
          + f"   slope {fit.slope:.2f}")
