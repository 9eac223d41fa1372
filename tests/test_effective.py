import math

import numpy as np
import pytest

from magbloch.effective import (delta_from_flux, single_band_model,
                                spectrum_via_GGdag, two_band_model)
from magbloch.fock import FockTruncation
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              laplacian_DzDzbar)
from magbloch.moyal import build_intertwiner, build_projection, effective_symbol
from magbloch.quantize import RationalFlux, quantize_series, spectrum
from magbloch.symbols import assemble_truncated


def test_zero_flux_constant_spectrum(square, harper):
    fx = RationalFlux(0, 1)
    symbol = single_band_model(FourierSeries2D({}, is_real=True), square, 0.5,
                               fx)
    rep = spectrum(quantize_series(symbol, fx, iota=1), grid=(8, 8))
    assert rep.bands == [(pytest.approx(0.5), pytest.approx(0.5))]


def test_single_band_harper_coefficients(square, harper):
    # on the square lattice the curvature term is a multiple of the
    # potential itself, so the model collapses to
    # lam + (d^2 - 2 pi^2 lam d^4) V
    fx = RationalFlux(1, 4)
    d = delta_from_flux(fx)
    lam = 0.5
    series = single_band_model(harper, square, lam, fx)
    for nm, c in harper.coeffs.items():
        want = (d ** 2 - 2 * math.pi ** 2 * lam * d ** 4) * c
        assert series[nm] == pytest.approx(want)
    assert series[(0, 0)] == pytest.approx(lam)


def test_fourth_order_term_scales_band_edges(square, harper):
    # with and without the fourth-order term the quantized operators are
    # scalar multiples of the same matrix family
    fx = RationalFlux(1, 3)
    d = delta_from_flux(fx)
    lam = 0.5
    on = single_band_model(harper, square, lam, fx, order=4)
    off = single_band_model(harper, square, lam, fx, order=2)
    factor = 1.0 - 2 * math.pi ** 2 * lam * d ** 2
    rep_on = spectrum(quantize_series(on, fx, iota=1), grid=(12, 12))
    rep_off = spectrum(quantize_series(off, fx, iota=1), grid=(12, 12))
    dev_on = np.sort(rep_on.samples - lam, axis=1)
    dev_off = np.sort(factor * (rep_off.samples - lam), axis=1)
    assert np.max(np.abs(dev_on - dev_off)) < 1e-12


def test_single_band_order_keeps_grades_up_to_it(square, harper):
    # order 0 is the bare level; only the even orders 0, 2, 4 exist
    fx = RationalFlux(1, 3)
    bare = single_band_model(harper, square, 0.5, fx, order=0)
    assert bare.coeffs == {(0, 0): 0.5}
    for order in (-2, 1, 3, 6):
        with pytest.raises(ValueError, match="order must be 0, 2 or 4"):
            single_band_model(harper, square, 0.5, fx, order=order)


def test_two_band_zero_flux_levels(square, one_mode_potential):
    fx = RationalFlux(0, 1)
    symbol = two_band_model(one_mode_potential, square, 0, fx)
    rep = spectrum(quantize_series(symbol, fx, iota=1), grid=(8, 8))
    vals = np.unique(np.round(rep.samples, 12))
    assert np.allclose(vals, [0.5, 1.5])


def test_two_band_rejects_zero_potential(square):
    zero = PeriodicVectorPotential(FourierSeries2D({}, is_real=True),
                                   FourierSeries2D({}, is_real=True), square)
    with pytest.raises(ValueError):
        two_band_model(zero, square, 0, RationalFlux(1, 2))


def test_two_band_constant_coupling_closed_form(square):
    # constant g: the 2x2 closed form is exact at every Bloch point
    f1 = FourierSeries2D({(0, 0): 0.6}, is_real=True)
    f2 = FourierSeries2D({(0, 0): -0.2}, is_real=True)
    A = PeriodicVectorPotential(f1, f2, square)
    gamma = A.g[(0, 0)]
    n_star = 1
    fx = RationalFlux(1, 3)
    d = delta_from_flux(fx)
    fam = quantize_series(two_band_model(A, square, n_star, fx), fx, iota=1)
    root = math.sqrt(0.25 + d * d * (n_star + 1) * abs(gamma) ** 2)
    want = np.sort([n_star + 1 - root] * 3 + [n_star + 1 + root] * 3)
    for b1 in (0.0, 0.4):
        for b2 in (0.0, 2.2):
            got = np.linalg.eigvalsh(fam.matrix_at(b1, b2))
            assert np.max(np.abs(got - want)) < 1e-12


def test_two_band_hermitian(square, one_mode_potential):
    fx = RationalFlux(2, 5)
    symbol = two_band_model(one_mode_potential, square, 0, fx)
    H = quantize_series(symbol, fx, iota=1).matrix_at(0.3, 0.9)
    assert H.shape == (10, 10)
    assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_block_square_identity(square, one_mode_potential):
    # (H - (n*+1))^2 = 1/4 + d^2 (n*+1) blockdiag(GG+, G+G)
    from magbloch.quantize import _weyl_modes, _weyl_sum
    n_star = 0
    fx = RationalFlux(1, 5)
    d = delta_from_flux(fx)
    fam = quantize_series(two_band_model(one_mode_potential, square, n_star,
                                         fx), fx, iota=1)
    modes = _weyl_modes(one_mode_potential.g, fx, 1, "harper")
    q = fx.q
    for b1, b2 in [(0.0, 0.0), (0.3, 1.1), (1.0, 4.4)]:
        H = fam.matrix_at(b1, b2)
        B = H - (n_star + 1.0) * np.eye(2 * q)
        G = d * math.sqrt(n_star + 1.0) * _weyl_sum(modes, fx, 1, "harper", b1, b2)
        block = np.zeros_like(H)
        block[:q, :q] = G @ G.conj().T
        block[q:, q:] = G.conj().T @ G
        want = 0.25 * np.eye(2 * q) + (n_star + 1.0) * block
        assert np.max(np.abs(B @ B - want)) < 1e-10


def test_ggdag_route_matches_direct(square, one_mode_potential):
    n_star = 0
    for q in (2, 3, 5):
        fx = RationalFlux(1, q)
        symbol = two_band_model(one_mode_potential, square, n_star, fx)
        rep_direct = spectrum(quantize_series(symbol, fx, iota=1), grid=(8, 8))
        rep_via = spectrum_via_GGdag(one_mode_potential, square, n_star, fx,
                                     grid=(8, 8))
        assert np.max(np.abs(np.sort(rep_direct.samples, axis=1)
                             - np.sort(rep_via.samples, axis=1))) < 1e-10


def test_ggdag_monotonicity():
    lam = np.linspace(0.0, 3.0, 30)
    n_star = 2
    d = 0.3
    plus = (n_star + 1) + np.sqrt(0.25 + d * d * (n_star + 1) * lam)
    minus = (n_star + 1) - np.sqrt(0.25 + d * d * (n_star + 1) * lam)
    assert np.all(np.diff(plus) > 0)
    assert np.all(np.diff(minus) < 0)
    assert plus[0] == pytest.approx(n_star + 1.5)
    assert minus[0] == pytest.approx(n_star + 0.5)


def test_effective_matches_recursion_single_band(square, harper):
    # the closed-form model and the recursive derivation agree
    # coefficientwise
    fx = RationalFlux(1, 9)
    d = delta_from_flux(fx)
    lam = 0.5
    series = single_band_model(harper, square, lam, fx)
    T = FockTruncation(n_max=24, guard=6)
    H = assemble_truncated(harper, None, square, T)
    pi = build_projection(H, [0], 4)
    u = build_intertwiner(pi, 4)
    hs = effective_symbol(H, u, 4)
    modes = set(series.coeffs)
    for h in hs:
        modes |= set(h)
    for nm in modes:
        want = sum((d ** j) * hs[j].get(nm, np.zeros((1, 1)))[0, 0]
                   for j in range(5))
        assert abs(series[nm] - want) < 1e-10


def test_effective_matches_recursion_two_band(square, one_mode_potential):
    fx = RationalFlux(1, 7)
    d = delta_from_flux(fx)
    n_star = 0
    blocks = two_band_model(one_mode_potential, square, n_star, fx)
    T = FockTruncation(n_max=24, guard=6)
    H = assemble_truncated(FourierSeries2D({}, is_real=True),
                           one_mode_potential, square, T)
    pi = build_projection(H, [0, 1], 1)
    u = build_intertwiner(pi, 1)
    hs = effective_symbol(H, u, 1)
    modes = set(hs[0]) | set(hs[1])
    for nm in modes:
        want = hs[0].get(nm, np.zeros((2, 2))) + d * hs[1].get(nm, np.zeros((2, 2)))
        got = np.array([[blocks[i][k][nm] for k in range(2)]
                        for i in range(2)])
        assert np.max(np.abs(got - want)) < 1e-10
