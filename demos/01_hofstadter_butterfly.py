"""Sweep the band structure of the quantized 2cos+2cos potential over all
reduced fluxes p/q up to q_max and print the band intervals per flux.

The union of the printed intervals over theta is the classic recursive
band picture; pipe the CSV into any plotting tool, e.g.

    python demos/01_hofstadter_butterfly.py > butterfly.csv
"""

from magbloch import butterfly, harper_potential

Q_MAX = 12

reports = butterfly(harper_potential(), Q_MAX, grid=(8, 16))
print("p,q,theta,band_index,E_min,E_max")
for rep in reports:
    for k, (lo, hi) in enumerate(rep.bands):
        print(f"{rep.flux.p},{rep.flux.q},{rep.flux.theta:.17g},{k},"
              f"{lo:.17g},{hi:.17g}")
