"""Run the recursive block-diagonalization to fourth order on one Landau
level and print the effective symbols it produces.

Expected outcome: the odd orders vanish identically, the second order
returns the bare potential, and the fourth order is the frame Laplacian of
the potential scaled by half the level energy.
"""

from magbloch import FockTruncation
from magbloch.effective import closed_form_grades
from magbloch.lattice import harper_potential, make_lattice
from magbloch.moyal import (build_intertwiner, build_projection,
                            effective_symbol)
from magbloch.symbols import assemble_truncated, mode_max_norm

L = make_lattice([1, 0], [0, 1])
V = harper_potential()
T = FockTruncation(n_max=24, guard=6)

H = assemble_truncated(V, None, L, T)
pi = build_projection(H, [0], 4)
u = build_intertwiner(pi, 4)
hs = effective_symbol(H, u, 4)

print("gradewise residuals of the defining properties:")
for label, series in (("pi", pi), ("u", u)):
    for name, vals in series.residuals.items():
        print(f"  {label} {name}: {[f'{v:.1e}' for v in vals]}")

print("\nband-block symbols:")
for j, h in enumerate(hs):
    print(f"  order {j}: sup norm {mode_max_norm(h, T):.3e}")

h4 = closed_form_grades(V, L, 0.5)[4]
worst = max(abs(hs[4][nm][0, 0] - h4[nm]) for nm in h4.coeffs)
print(f"\nfourth order vs (level/2) * frame Laplacian of V: "
      f"max coefficient difference {worst:.2e}")
