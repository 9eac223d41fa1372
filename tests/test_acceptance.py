"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is asserted exactly as stated; runtimes are measured and
asserted against the stated budgets.  Run with ``pytest -s`` to see the
per-criterion lines interleaved.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from magbloch import effective, moyal, oracle, quantize, symbols
from magbloch.fock import FockTruncation
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              harper_potential, laplacian_DzDzbar,
                              make_lattice)
from magbloch.quantize import RationalFlux

SQUARE = make_lattice([1.0, 0.0], [0.0, 1.0])
HARPER = harper_potential()


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _one_mode_A():
    f1 = FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5}, is_real=True)
    f2 = FourierSeries2D({}, is_real=True)
    return PeriodicVectorPotential(f1, f2, SQUARE)


def test_criterion_1_landau_levels():
    t0 = time.time()
    T = FockTruncation(n_max=40, guard=6)
    basis = oracle.OracleBasis(n_cells=1, n_grid=8, fock=T)
    H = oracle.build_full_matrix(FourierSeries2D({}, is_real=True), None,
                                 SQUARE, basis, RationalFlux(1, 16))
    eigs = oracle.oracle_eigenvalues(H)
    dev = 0.0
    counts_ok = True
    for n in range(11):
        cluster = eigs[np.abs(eigs - (n + 0.5)) < 0.4]
        counts_ok &= cluster.size == basis.slow_dim
        dev = max(dev, float(np.max(np.abs(cluster - (n + 0.5)))))
    elapsed = time.time() - t0
    ok = counts_ok and dev < 1e-8 and elapsed < 10.0
    assert _report(1, ok, f"level clusters n<=10, max deviation {dev:.2e}, "
                          f"{elapsed:.1f}s")


def test_criterion_2_closed_forms():
    t0 = time.time()
    T = FockTruncation(n_max=24, guard=6)
    H = symbols.assemble_truncated(HARPER, None, SQUARE, T)
    pi = moyal.build_projection(H, [0], 4)
    u = moyal.build_intertwiner(pi, 4)
    hs = moyal.effective_symbol(H, u, 4)
    lam = 0.5
    h1 = symbols.mode_max_norm(hs[1], T)
    h3 = symbols.mode_max_norm(hs[3], T)
    d2 = max(abs(hs[2].get(nm, np.zeros((1, 1)))[0, 0] - c)
             for nm, c in HARPER.coeffs.items())
    Y = laplacian_DzDzbar(HARPER, SQUARE)
    d4 = max(abs(hs[4].get(nm, np.zeros((1, 1)))[0, 0] - lam / 2 * Y[nm])
             for nm in set(Y.coeffs) | set(hs[4]))
    elapsed = time.time() - t0
    ok = h1 < 1e-12 and h3 < 1e-12 and d2 < 1e-10 and d4 < 1e-10 \
        and elapsed < 5.0
    assert _report(2, ok, f"|h1|={h1:.1e} |h3|={h3:.1e} |h2-V|={d2:.1e} "
                          f"|h4-closed|={d4:.1e}, {elapsed:.1f}s")


def test_criterion_3_error_orders():
    t0 = time.time()
    lam = 0.5
    T = FockTruncation(n_max=30, guard=6)
    sweeps = {"order0": [], "order2": [], "full": []}
    clusters = []
    deltas = []
    for fx in oracle.default_delta_sweep():
        delta = effective.delta_from_flux(fx)
        deltas.append(delta)
        basis = oracle.OracleBasis(n_cells=1, n_grid=fx.q, fock=T)
        Hf = oracle.build_full_matrix(HARPER, None, SQUARE, basis, fx)
        clusters.append(oracle.level_cluster(Hf, HARPER, None, basis, 0))
        for kind in sweeps:
            if kind == "order0":
                series = FourierSeries2D({(0, 0): lam}, is_real=True)
            elif kind == "order2":
                series = FourierSeries2D({(0, 0): lam}, is_real=True).plus(
                    HARPER.scaled(delta ** 2))
            else:
                series = effective.single_band_model(HARPER, SQUARE, lam, fx)
            Hm = oracle.quantize_on_grid(series, basis, fx)
            sweeps[kind].append(oracle.oracle_eigenvalues(Hm))
    slopes = {}
    for kind, specs in sweeps.items():
        slopes[kind] = oracle.order_fit(specs, clusters, deltas).slope
    elapsed = time.time() - t0
    windows = {"order0": (1.5, 2.5), "order2": (3.5, 4.5), "full": (4.5, 5.7)}
    oks = {k: windows[k][0] <= slopes[k] <= windows[k][1] for k in slopes}
    ok = all(oks.values()) and elapsed < 600.0
    assert _report(3, ok, "slopes " + ", ".join(
        f"{k}={slopes[k]:.2f} (want {windows[k]})" for k in sorted(slopes))
        + f", {elapsed:.0f}s")


def test_criterion_4_remainder_orders():
    t0 = time.time()
    A = _one_mode_A()
    T = FockTruncation(n_max=200, guard=6)
    deltas = [0.2, 0.1, 0.05]
    pts = symbols.default_points(4)
    cases = [("nat1", None, None, 4.0), ("nat1-proj", None, 0, 5.0),
             ("nat0", A, None, 2.0), ("nat0-proj", A, 0, 3.0)]
    results = {}
    for name, Aarg, proj, want in cases:
        ds = [max(symbols.remainder_norm(HARPER, Aarg, SQUARE, T, d, pt,
                                         projector_band=proj) for pt in pts)
              for d in deltas]
        slope = float(np.polyfit(np.log(deltas), np.log(ds), 1)[0])
        results[name] = (slope, want)
    elapsed = time.time() - t0
    ok = all(abs(s - w) < 0.5 for s, w in results.values()) and elapsed < 120.0
    assert _report(4, ok, ", ".join(
        f"{k}: {s:.2f} (want {w}+-0.5)" for k, (s, w) in results.items())
        + f", {elapsed:.0f}s")


def test_criterion_5_two_band_reduction():
    t0 = time.time()
    A = _one_mode_A()
    n_star = 0
    worst = 0.0
    for q in (2, 3, 5):
        fx = RationalFlux(1, q)
        symbol = effective.two_band_model(A, SQUARE, n_star, fx)
        rep = quantize.spectrum(quantize.quantize_series(symbol, fx, iota=1),
                                grid=(8, 8))
        via = effective.spectrum_via_GGdag(A, SQUARE, n_star, fx, grid=(8, 8))
        worst = max(worst, float(np.max(np.abs(
            np.sort(rep.samples, axis=1) - np.sort(via.samples, axis=1)))))
    identity_ok = worst < 1e-10

    T = FockTruncation(n_max=16, guard=6)
    V0 = FourierSeries2D({}, is_real=True)
    fluxes = [RationalFlux(1, 64), RationalFlux(1, 123), RationalFlux(1, 256)]
    deltas, model_specs, clusters = [], [], []
    for fx in fluxes:
        deltas.append(effective.delta_from_flux(fx))
        basis = oracle.OracleBasis(n_cells=1, n_grid=fx.q, fock=T)
        Hf = oracle.build_full_matrix(V0, A, SQUARE, basis, fx)
        eigs = oracle.oracle_eigenvalues(Hf)
        clusters.append(eigs[np.abs(eigs - (n_star + 1.0)) <= 0.95])
        Hm = oracle.quantize_on_grid(
            effective.two_band_model(A, SQUARE, n_star, fx), basis, fx)
        model_specs.append(oracle.oracle_eigenvalues(Hm))
    fit = oracle.order_fit(model_specs, clusters, deltas)
    elapsed = time.time() - t0
    slope_ok = fit.slope >= 2.0
    ok = identity_ok and slope_ok and elapsed < 300.0
    assert _report(5, ok, f"reduction identity max discrepancy {worst:.2e}, "
                          f"oracle slope {fit.slope:.3f} (want >= 2), "
                          f"{elapsed:.0f}s")


def test_criterion_6_rotation_algebra():
    rng = np.random.default_rng(0)
    worst_comm = 0.0
    count = 0
    while count < 50:
        q = int(rng.integers(1, 120))
        p = int(rng.integers(0, q))
        if math.gcd(p, q) != 1:
            continue
        count += 1
        fx = RationalFlux(p, q)
        iota = int(rng.choice([1, -1]))
        b1, b2 = rng.uniform(0, 2 * math.pi, 2)
        U, V = quantize.clock_shift(fx, iota, b1, b2)
        phase = np.exp(-2j * math.pi * iota * fx.theta)
        worst_comm = max(worst_comm, float(np.max(np.abs(
            U @ V - phase * V @ U))))
    fam = quantize.quantize_series(HARPER, RationalFlux(2, 7), iota=-1)
    base = np.linalg.eigvalsh(fam.matrix_at(0.31, 1.7))
    sh1 = np.linalg.eigvalsh(fam.matrix_at(0.31 + 2 * math.pi / 7, 1.7))
    sh2 = np.linalg.eigvalsh(fam.matrix_at(0.31, 1.7 + 2 * math.pi / 7))
    inv = max(float(np.max(np.abs(base - sh1))),
              float(np.max(np.abs(base - sh2))))
    ok = worst_comm < 5e-13 and inv < 1e-10
    assert _report(6, ok, f"50 random commutators max residual "
                          f"{worst_comm:.1e}, translation invariance {inv:.1e}")


def test_criterion_7_almost_mathieu_union():
    t0 = time.time()
    worst = 0.0
    for p, q in [(1, 2), (1, 3), (2, 5)]:
        fx = RationalFlux(p, q)
        N = 4 * q
        betas = [2 * math.pi * i / 64 for i in range(64)]
        union = np.concatenate(
            [quantize.almost_mathieu_spectrum(fx, b, N) for b in betas])
        fam = quantize.quantize_series(HARPER, fx, iota=1)
        vals = np.concatenate(
            [np.linalg.eigvalsh(fam.matrix_at(b1, -2 * math.pi * l / N))
             for b1 in betas for l in range(N)])
        worst = max(worst, quantize.hausdorff_distance(union, vals))
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 60.0
    assert _report(7, ok, f"worst Hausdorff over theta in "
                          f"{{1/2,1/3,2/5}}: {worst:.2e}, {elapsed:.0f}s")


def test_criterion_8_zero_flux_limit():
    fam = quantize.quantize_series(HARPER, RationalFlux(0, 1), iota=-1,
                                   convention="hofstadter")
    rep = quantize.spectrum(fam, grid=(64, 64))
    lo, hi = rep.bands[0]
    samples = np.sort(rep.samples.ravel())
    grid_vals = [4.0 * math.cos(2 * math.pi * k / 64) for k in range(64)]
    dev = max(abs(lo + 4.0), abs(hi - 4.0))
    inside = samples.min() >= -4.0 - 1e-12 and samples.max() <= 4.0 + 1e-12
    ok = dev < 1e-6 and inside and len(rep.bands) == 1
    assert _report(8, ok, f"band [{lo:.8f}, {hi:.8f}] vs [-4, 4], "
                          f"edge deviation {dev:.1e}")
    del grid_vals


def test_criterion_9_ccr_tables():
    checks = []
    for iota in (1, -1):
        delta = Fraction(1, 3)
        tab = oracle.ccr_table(
            oracle.fast_slow_variable_map([1, 0], [0, 1], iota, delta))
        checks.append(tab[0][1] == iota)
        checks.append(tab[2][3] == iota * delta * delta)
        checks.append(all(tab[i][j] == 0 for i in (0, 1) for j in (2, 3)))
    tab = oracle.ccr_table(oracle.landau_variable_map())
    checks.append(tab[0][1] == 1 and tab[2][3] == 1)
    checks.append(all(tab[i][j] == 0 for i in (0, 1) for j in (2, 3)))
    ok = all(checks)
    assert _report(9, ok, "fast/slow and kinetic-momentum commutator tables "
                          "exact in rational arithmetic")
