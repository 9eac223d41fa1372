"""Brute-force quantization of the free strong-field Hamiltonian.

With no potentials the fast generator is the whole story: eigenvalues pile
up at half-integers, one copy per slow grid point, independent of the
flux.  Switching the potential on splits each pile into a narrow band.
"""

import numpy as np

from magbloch import FockTruncation, OracleBasis, RationalFlux, build_full_matrix
from magbloch.lattice import FourierSeries2D, harper_potential, make_lattice
from magbloch.oracle import band_cluster, oracle_eigenvalues

L = make_lattice([1, 0], [0, 1])
T = FockTruncation(n_max=40, guard=6)
basis = OracleBasis(n_cells=1, n_grid=16, fock=T)
flux = RationalFlux(1, 16)

H0 = build_full_matrix(FourierSeries2D({}, is_real=True), None, L, basis, flux)
eigs = oracle_eigenvalues(H0)
print("free case: lowest clusters")
for n in range(5):
    cluster = eigs[np.abs(eigs - (n + 0.5)) < 0.4]
    print(f"  level {n}: {cluster.size} states, "
          f"max |E - (n+1/2)| = {np.max(np.abs(cluster - (n + 0.5))):.2e}")

HV = build_full_matrix(harper_potential(), None, L, basis, flux)
cluster = band_cluster(oracle_eigenvalues(HV), 0.5)
print(f"\nwith the 2cos+2cos potential at theta=1/16:")
print(f"  lowest cluster spans [{cluster.min():.6f}, {cluster.max():.6f}]"
      f"  (width {cluster.max() - cluster.min():.6f})")
