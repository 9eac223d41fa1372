import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbloch.errors import TruncationError
from magbloch.fock import FockTruncation, xi_matrix
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              laplacian_DzDzbar)
from magbloch.moyal import (_block_masks, band_projector_matrix,
                            build_intertwiner, build_projection,
                            effective_symbol, intertwiner_residuals,
                            moyal_term, projection_residuals, star_grade)
from magbloch.symbols import assemble_truncated, mode_max_norm

T = FockTruncation(n_max=24, guard=6)


def _sapt(square, V, A, bands, order):
    H = assemble_truncated(V, A, square, T)
    pi = build_projection(H, bands, order)
    u = build_intertwiner(pi, order)
    return H, pi, u


def test_moyal_zeroth_is_convolution():
    I2 = np.eye(2, dtype=complex)
    A = {(1, 0): 2.0 * I2, (0, 1): 1.0 * I2}
    B = {(1, 1): 3.0 * I2}
    out = moyal_term(A, B, 0)
    assert set(out) == {(2, 1), (1, 2)}
    assert np.allclose(out[(2, 1)], 6.0 * I2)


def test_moyal_constant_symbols_have_no_corrections():
    X = xi_matrix(T)
    A = {(0, 0): X}
    for k in (1, 2, 3):
        assert moyal_term(A, A, k) == {}


def test_moyal_first_order_single_modes():
    # first correction of e^{i2 pi p} # e^{i2 pi x}: with the derivative
    # pairing (d_x A)(d_p B) - (d_p A)(d_x B) weighted by 1/(2i),
    # the coefficient is (1/2i)(0 - (i2pi)(i2pi)) = -2 i pi^2
    I2 = np.eye(2, dtype=complex)
    A = {(1, 0): I2}
    B = {(0, 1): I2}
    out = moyal_term(A, B, 1)
    dxA_dpB = 0.0
    dpA_dxB = (1j * 2 * math.pi) * (1j * 2 * math.pi)
    want = (dxA_dpB - dpA_dxB) / 2j
    assert np.allclose(out[(1, 1)], want * I2)
    assert want == pytest.approx(-2j * math.pi ** 2)
    # antisymmetry of the bracket
    out_ba = moyal_term(B, A, 1)
    assert np.allclose(out_ba[(1, 1)], -want * I2)


def test_single_band_low_orders_vanish(square, harper):
    H, pi, u = _sapt(square, harper, None, [0], 4)
    for series, name in ((pi, "pi"), (u, "u")):
        for j in (1, 2):
            assert mode_max_norm(series.grade(j), T) < 1e-14, (name, j)


def test_projection_properties_single_band(square, harper):
    H, pi, u = _sapt(square, harper, None, [0], 4)
    res = projection_residuals(H, pi, 4)
    for vals in res.values():
        assert max(vals) < 1e-10
    ures = intertwiner_residuals(pi, u, 4)
    for vals in ures.values():
        assert max(vals) < 1e-10


def test_projection_properties_two_band(square, harper, one_mode_potential):
    H, pi, u = _sapt(square, harper, one_mode_potential, [0, 1], 3)
    res = projection_residuals(H, pi, 3)
    for vals in res.values():
        assert max(vals) < 1e-10
    ures = intertwiner_residuals(pi, u, 3)
    for vals in ures.values():
        assert max(vals) < 1e-10


def test_two_band_first_order_nonzero(square, harper, one_mode_potential):
    H, pi, u = _sapt(square, harper, one_mode_potential, [0, 1], 2)
    assert mode_max_norm(pi.grade(1), T) > 1e-3
    # compression of u_1 onto the band space vanishes
    P = band_projector_matrix(T, pi.band_set)
    for M in u.grade(1).values():
        assert np.max(np.abs(P @ M @ P)) < 1e-14


def test_effective_single_band_closed_forms(square, harper):
    H, pi, u = _sapt(square, harper, None, [0], 4)
    hs = effective_symbol(H, pi, u, 4)
    lam = 0.5
    assert hs[0][(0, 0)][0, 0] == pytest.approx(lam)
    assert mode_max_norm(hs[1], T) < 1e-12
    assert mode_max_norm(hs[3], T) < 1e-12
    for nm, c in harper.coeffs.items():
        assert abs(hs[2][nm][0, 0] - c) < 1e-12
    Y = laplacian_DzDzbar(harper, square)
    for nm in set(Y.coeffs) | set(hs[4]):
        got = hs[4].get(nm, np.zeros((1, 1)))[0, 0]
        assert abs(got - lam / 2.0 * Y[nm]) < 1e-10


def test_effective_two_band_closed_forms(square, harper, one_mode_potential):
    H, pi, u = _sapt(square, harper, one_mode_potential, [0, 1], 1)
    hs = effective_symbol(H, pi, u, 1)
    n_star = 0
    h0 = hs[0][(0, 0)]
    assert np.allclose(h0, np.diag([n_star + 0.5, n_star + 1.5]), atol=1e-13)
    g = one_mode_potential.g
    gbar = g.conj_reflect()
    c = math.sqrt(n_star + 1.0)
    for nm in g.coeffs:
        blk = hs[1][nm]
        assert blk[0, 1] == pytest.approx(c * g[nm])
        assert blk[1, 0] == pytest.approx(c * gbar[nm])
        assert blk[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert blk[1, 1] == pytest.approx(0.0, abs=1e-13)


def test_free_landau_has_no_corrections(square):
    empty = FourierSeries2D({}, is_real=True)
    H, pi, u = _sapt(square, empty, None, [1], 4)
    hs = effective_symbol(H, pi, u, 4)
    assert hs[0][(0, 0)][0, 0] == pytest.approx(1.5)
    for j in range(1, 5):
        assert mode_max_norm(hs[j], T) < 1e-14


def test_order_too_high_rejected(square, harper):
    H = assemble_truncated(harper, None, square, FockTruncation(n_max=8, guard=4))
    with pytest.raises(TruncationError):
        build_projection(H, [0], 4)


def test_band_set_validation(square, harper):
    H = assemble_truncated(harper, None, square, T)
    with pytest.raises(ValueError):
        build_projection(H, [0, 2], 2)
    with pytest.raises(ValueError):
        build_projection(H, [], 2)


def test_odd_orders_vanish_without_vector_potential(square, harper):
    # ladder parity: without a vector potential every odd-order band-block
    # symbol is identically zero, so the first correction beyond the
    # fourth-order model enters two grades higher
    Tb = FockTruncation(n_max=30, guard=6)
    H = assemble_truncated(harper, None, square, Tb)
    pi = build_projection(H, [0], 6)
    u = build_intertwiner(pi, 6)
    hs = effective_symbol(H, pi, u, 6)
    for j in (1, 3, 5):
        assert mode_max_norm(hs[j], Tb) < 1e-12
    assert mode_max_norm(hs[6], Tb) > 1.0


@given(st.integers(2, 12).flatmap(
           lambda n_max: st.tuples(st.just(n_max), st.integers(0, n_max - 1),
                                   st.integers(1, 2))),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_block_masks_match_projector_products(shape, seed):
    # each mask against the dense products of P, 1 - P, the complement
    # resolvents R_k and the unit matrices e_k
    n_max, first, count = shape
    Tm = FockTruncation(n_max=n_max, guard=0)
    bands = list(range(first, first + count))
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(Tm.dim, Tm.dim)) + 1j * rng.normal(size=(Tm.dim, Tm.dim))
    P = band_projector_matrix(Tm, bands)
    Q = np.eye(Tm.dim) - P
    levels = np.arange(Tm.dim) + 0.5
    want_od = np.zeros_like(M)
    for k in bands:
        R = np.diag([0.0 if i in bands else 1.0 / (levels[i] - levels[k])
                     for i in range(Tm.dim)])
        ek = np.zeros((Tm.dim, Tm.dim))
        ek[k, k] = 1.0
        want_od += ek @ M @ (R @ Q) - (Q @ R) @ M @ ek
    S, W, D = _block_masks(Tm, bands)
    assert np.max(np.abs(M * S - (-P @ M @ P + Q @ M @ Q))) < 1e-13
    assert np.max(np.abs(M * W - want_od)) < 1e-13
    assert np.max(np.abs(M * D - (P @ M - M @ P))) < 1e-13


def _moyal_reference(A, B, k):
    """moyal_term written out as the double loop over mode pairs."""
    out = {}
    for (n1, m1), MA in A.items():
        for (n2, m2), MB in B.items():
            br = m1 * n2 - n1 * m2
            if k > 0 and br == 0:
                continue
            coef = (2j * math.pi ** 2 * br) ** k / math.factorial(k) if k else 1.0
            key = (n1 + n2, m1 + m2)
            if key in out:
                out[key] = out[key] + coef * (MA @ MB)
            else:
                out[key] = coef * (MA @ MB)
    return out


_mode_keys = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                      min_size=1, max_size=6, unique=True)


def _modes(seed, keys, dim=5):
    rng = np.random.default_rng(seed)
    return {nm: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for nm in keys}


def _snapshot(graded):
    return {j: {nm: M.copy() for nm, M in mm.items()} for j, mm in graded.items()}


def _assert_unchanged(graded, snap):
    assert set(graded) == set(snap)
    for j, mm in graded.items():
        assert set(mm) == set(snap[j])
        for nm, M in mm.items():
            assert np.array_equal(M, snap[j][nm])


@given(_mode_keys, _mode_keys, st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_moyal_term_matches_double_loop(keys_a, keys_b, k, seed):
    A = _modes(seed, keys_a)
    B = _modes(seed + 1, keys_b)
    snap = _snapshot({0: A, 1: B})
    got = moyal_term(A, B, k)
    want = _moyal_reference(A, B, k)
    assert set(got) == set(want)
    for key in want:
        assert got[key].tobytes() == want[key].tobytes()
    _assert_unchanged({0: A, 1: B}, snap)


@given(st.lists(_mode_keys, min_size=3, max_size=3), st.integers(0, 4),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_star_grade_leaves_inputs_alone(keys, n, seed):
    # grades 0..2 on both sides, the same graded symbol on both sides too
    A = {j: _modes(seed + j, kk) for j, kk in enumerate(keys)}
    B = {j: _modes(seed + 7 + j, kk) for j, kk in enumerate(keys)}
    snap_a, snap_b = _snapshot(A), _snapshot(B)
    for left, right in ((A, B), (A, A)):
        out = star_grade(left, right, n)
        for M in out.values():
            M *= 0.0    # writing the result must not reach an input either
    _assert_unchanged(A, snap_a)
    _assert_unchanged(B, snap_b)
