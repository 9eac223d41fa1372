import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbloch import moyal
from magbloch.errors import TruncationError
from magbloch.fock import FockTruncation, band_projector_matrix, xi_matrix
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              laplacian_DzDzbar)
from magbloch.moyal import (_block_masks, _dagger, _Stored, build_intertwiner,
                            build_projection, effective_symbol, star_grade)
from magbloch.symbols import (assemble_truncated, mode_add, mode_dagger,
                              mode_hermiticity_defect, mode_max_norm,
                              mode_scale)

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
    out = star_grade({0: A}, {0: B}, 0)
    assert set(out) == {(2, 1), (1, 2)}
    assert np.allclose(out[(2, 1)], 6.0 * I2)


def test_moyal_constant_symbols_have_no_corrections():
    X = xi_matrix(T)
    A = {(0, 0): X}
    for k in (1, 2, 3):
        assert star_grade({0: A}, {0: A}, k) == {}


def test_moyal_first_order_single_modes():
    # first correction of e^{i2 pi p} # e^{i2 pi x}: with the derivative
    # pairing (d_x A)(d_p B) - (d_p A)(d_x B) weighted by 1/(2i),
    # the coefficient is (1/2i)(0 - (i2pi)(i2pi)) = -2 i pi^2
    I2 = np.eye(2, dtype=complex)
    A = {(1, 0): I2}
    B = {(0, 1): I2}
    out = star_grade({0: A}, {0: B}, 1)
    dxA_dpB = 0.0
    dpA_dxB = (1j * 2 * math.pi) * (1j * 2 * math.pi)
    want = (dxA_dpB - dpA_dxB) / 2j
    assert np.allclose(out[(1, 1)], want * I2)
    assert want == pytest.approx(-2j * math.pi ** 2)
    # antisymmetry of the bracket
    out_ba = star_grade({0: B}, {0: A}, 1)
    assert np.allclose(out_ba[(1, 1)], -want * I2)


def test_single_band_low_orders_vanish(square, harper):
    H, pi, u = _sapt(square, harper, None, [0], 4)
    for series, name in ((pi, "pi"), (u, "u")):
        for j in (1, 2):
            assert mode_max_norm(series.grades.get(j, {}), T) < 1e-14, (name, j)


def test_projection_properties_single_band(square, harper):
    H, pi, u = _sapt(square, harper, None, [0], 4)
    for vals in (*pi.residuals.values(), *u.residuals.values()):
        assert len(vals) == 5 and max(vals) < 1e-10


def test_projection_properties_two_band(square, harper, one_mode_potential):
    H, pi, u = _sapt(square, harper, one_mode_potential, [0, 1], 3)
    for vals in (*pi.residuals.values(), *u.residuals.values()):
        assert len(vals) == 4 and max(vals) < 1e-10


def test_two_band_first_order_nonzero(square, harper, one_mode_potential):
    H, pi, u = _sapt(square, harper, one_mode_potential, [0, 1], 2)
    assert mode_max_norm(pi.grades.get(1, {}), T) > 1e-3
    # compression of u_1 onto the band space vanishes
    P = band_projector_matrix(T, pi.band_set)
    for M in u.grades.get(1, {}).values():
        assert np.max(np.abs(P @ M @ P)) < 1e-14


def test_effective_single_band_closed_forms(square, harper):
    H, pi, u = _sapt(square, harper, None, [0], 4)
    hs = effective_symbol(H, u, 4)
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
    hs = effective_symbol(H, u, 1)
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
    hs = effective_symbol(H, u, 4)
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
    # a non-integer or bool index is not rounded or read as a level
    for bands in ([0.7], [True], [0, False], [1.0]):
        with pytest.raises(ValueError, match="integers"):
            build_projection(H, bands, 2)
    with pytest.raises(ValueError, match="repeats"):
        build_projection(H, [0, 0, 1], 2)
    assert build_projection(H, [np.int64(1), 0], 1).band_set == (0, 1)


def test_odd_orders_vanish_without_vector_potential(square, harper):
    # ladder parity: without a vector potential every odd-order band-block
    # symbol is identically zero, so the first correction beyond the
    # fourth-order model enters two grades higher
    Tb = FockTruncation(n_max=30, guard=6)
    H = assemble_truncated(harper, None, square, Tb)
    pi = build_projection(H, [0], 6)
    u = build_intertwiner(pi, 6)
    hs = effective_symbol(H, u, 6)
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
    """star_grade of one grade pair written out as the double loop over
    mode pairs."""
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
    got = star_grade({0: A}, {0: B}, k)
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


# --- trimmed products against the dense double loop -------------------------

@st.composite
def _block_modes(draw, dim):
    """Mode map whose matrices are nonzero, sparsely, inside one random
    block each; an empty block gives an all-zero matrix."""
    keys = draw(_mode_keys)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = {}
    for nm in keys:
        r0 = draw(st.integers(0, dim))
        r1 = draw(st.integers(r0, dim))
        c0 = draw(st.integers(0, dim))
        c1 = draw(st.integers(c0, dim))
        shape = (r1 - r0, c1 - c0)
        M = np.zeros((dim, dim), dtype=complex)
        M[r0:r1, c0:c1] = ((rng.normal(size=shape) + 1j * rng.normal(size=shape))
                           * (rng.random(shape) < draw(st.sampled_from([0.3, 1.0]))))
        out[nm] = M
    return out


def _star_reference(A_grades, B_grades, n):
    """star_grade on the dense double loop."""
    out = {}
    for r, Ar in A_grades.items():
        for l, Bl in B_grades.items():
            if n - r - l >= 0:
                for key, M in _moyal_reference(Ar, Bl, n - r - l).items():
                    out[key] = out[key] + M if key in out else M
    return out


def _assert_modes_equal(got, want):
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def _assert_graded_equal(got, want):
    assert list(got) == list(want)
    for j in want:
        _assert_modes_equal(got[j], want[j])


_block_pair = st.integers(1, 40).flatmap(
    lambda dim: st.tuples(_block_modes(dim), _block_modes(dim)))


@given(_block_pair, st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_trimmed_moyal_term_matches_dense_loop(pair, k):
    A, B = pair
    want = _moyal_reference(A, B, k)
    # plain maps, maps carrying their boxes, and adjoints with transposed boxes
    _assert_modes_equal(star_grade({0: A}, {0: B}, k), want)
    _assert_modes_equal(star_grade({0: _Stored(A)}, {0: _Stored(B)}, k),
                        want)
    Ad, Bd = mode_dagger(A), mode_dagger(B)
    _assert_modes_equal(
        star_grade({0: _dagger(_Stored(B))}, {0: _dagger(_Stored(A))}, k),
        _moyal_reference(Bd, Ad, k))


@given(st.integers(1, 30).flatmap(
           lambda dim: st.lists(_block_modes(dim), min_size=3, max_size=3)),
       st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_trimmed_star_grade_matches_dense_loop(maps, n):
    A = {0: _Stored(maps[0]), 1: _Stored(maps[1])}
    B = {0: maps[2], 2: _dagger(_Stored(maps[1]))}
    _assert_modes_equal(star_grade(A, B, n), _star_reference(A, B, n))


def test_trimmed_products_without_overlap_keep_their_modes():
    # A's nonzero columns and B's nonzero rows are disjoint, one matrix is
    # zero: every product vanishes but each mode pair still lands somewhere
    dim = 12
    MA = np.zeros((dim, dim), dtype=complex)
    MA[2:5, 0:3] = 1.0 + 2.0j
    MB = np.zeros((dim, dim), dtype=complex)
    MB[6:9, 4:11] = 3.0 - 1.0j
    A = {(1, 0): MA, (0, 0): np.zeros((dim, dim), dtype=complex)}
    B = {(0, 1): MB, (1, 1): MB}
    for k in (0, 1):
        got = star_grade({0: _Stored(A)}, {0: _Stored(B)}, k)
        _assert_modes_equal(got, _moyal_reference(A, B, k))
        assert all(not M.any() for M in got.values())


def test_star_grade_keeps_modes_that_receive_no_product():
    # mode (1, 1) is landed on by two pairs, and neither multiplies
    # anything, since A's nonzero columns miss B's nonzero rows; MC's pairs
    # have a zero bracket, so land nowhere at k = 1; (2, 1) gets products
    # from both grade pairs
    dim = 24
    rng = np.random.default_rng(5)
    MA = np.zeros((dim, dim), dtype=complex)
    MA[2:5, 0:3] = rng.normal(size=(3, 3))
    MB = np.zeros((dim, dim), dtype=complex)
    MB[6:9, 4:11] = rng.normal(size=(3, 7))
    MC = np.zeros((dim, dim), dtype=complex)
    MC[0:12, 3:20] = rng.normal(size=(12, 17)) + 1j * rng.normal(size=(12, 17))
    A = {0: _Stored({(1, 0): MA, (0, 0): MC}), 1: _Stored({(1, 0): MA})}
    B = {0: _Stored({(0, 1): MB, (1, 1): MC})}
    got = star_grade(A, B, 1)
    want = _star_reference(A, B, 1)
    assert list(want) == [(1, 1), (2, 1)]
    _assert_modes_equal(got, want)
    assert not got[(1, 1)].any() and got[(2, 1)].any()
    assert got[(1, 1)].dtype == want[(1, 1)].dtype


def test_star_grade_sums_each_grade_pair_apart():
    # mode (1, 1) gets one product from the grade pair (0, 1) and then two
    # from (1, 0); those two are summed on their own before they join the
    # first, as the dense loop sums each grade pair's products
    rng = np.random.default_rng(11)
    M = [rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
         for _ in range(6)]
    A = {0: _Stored({(1, 1): M[0]}), 1: _Stored({(1, 0): M[1], (0, 1): M[2]})}
    B = {0: _Stored({(0, 1): M[3], (1, 0): M[4]}), 1: _Stored({(0, 0): M[5]})}
    _assert_modes_equal(star_grade(A, B, 1), _star_reference(A, B, 1))


def _as_complex(mm):
    return {key: M.astype(complex) for key, M in mm.items()}


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_star_products_of_real_maps(k):
    # real float64 matrices: a product with k > 0 takes a complex bracket
    # coefficient, so the result is complex; a grade pair with k = 0 keeps
    # its products real, and with one of k > 0 they join a complex result
    rng = np.random.default_rng(3 + k)
    X, Z = rng.normal(size=(2, 4, 4))
    got = star_grade({0: {(1, 0): X}}, {0: {(0, 1): Z}}, k)
    assert got[(1, 1)].dtype == (complex if k else float)
    _assert_modes_equal(_as_complex(got), _as_complex(
        _moyal_reference({(1, 0): X}, {(0, 1): Z}, k)))
    keys = [(1, 0), (0, 1), (1, 1), (-1, 2)]
    A = {nm: rng.normal(size=(4, 4)) for nm in keys}
    B = {nm: rng.normal(size=(4, 4)) for nm in keys[::-1]}
    _assert_modes_equal(_as_complex(star_grade({0: A}, {0: B}, k)),
                        _as_complex(_moyal_reference(A, B, k)))
    got = star_grade({0: A, 1: B}, {0: B, 1: A}, k + 1)
    assert {M.dtype for M in got.values()} == {np.dtype(complex)}
    _assert_modes_equal(got, _as_complex(
        _star_reference({0: A, 1: B}, {0: B, 1: A}, k + 1)))


def _assert_same_bits(got, want):
    """The same modes, and matrices of the same bits; adding 0.0 maps a
    -0.0, which a zero block of the dense products may hold, to 0.0."""
    assert list(got) == list(want)
    for key in want:
        assert (got[key] + 0.0).tobytes() == (want[key] + 0.0).tobytes(), key


def test_many_products_on_one_mode_keep_the_dense_bits():
    # the pairs (j, j) of A's modes (j, 1 - j) and B's (3 - j, j) all land
    # on mode (3, 1), ten products of one grade pair, with nonzero brackets
    # 3 - 4j; the blocks have several shapes and offsets
    rng = np.random.default_rng(23)
    dim = 20

    def block(r0, r1, c0, c1):
        M = np.zeros((dim, dim), dtype=complex)
        M[r0:r1, c0:c1] = (rng.normal(size=(r1 - r0, c1 - c0))
                           + 1j * rng.normal(size=(r1 - r0, c1 - c0)))
        return M

    A0 = {(j, 1 - j): block(j, j + 9, 2 * j % 7, 2 * j % 7 + 10)
          for j in range(10)}
    B0 = {(3 - j, j): block(j % 4, j % 4 + 12, j, j + 8) for j in range(10)}
    assert [m1 * n2 - n1 * m2 for (n1, m1), (n2, m2) in zip(A0, B0)
            if (n1 + n2, m1 + m2) == (3, 1)] == [3 - 4 * j for j in range(10)]
    _assert_same_bits(star_grade({0: A0}, {0: B0}, 1),
                      _moyal_reference(A0, B0, 1))
    # then from several grade pairs, ten products each: (0, 0), (0, 2),
    # (1, 0) and (1, 2) at n = 3; B's grade 1 lands elsewhere
    A = {0: _Stored(A0), 1: {nm: 0.5 * M for nm, M in A0.items()}}
    B = {0: B0, 1: _dagger(_Stored(B0)),
         2: {nm: M.conj() for nm, M in B0.items()}}
    for n in (1, 2, 3):
        _assert_same_bits(star_grade(A, B, n), _star_reference(A, B, n))


def _intertwiner_reference(pi, order):
    """build_intertwiner as it was: dense products, and every grade of
    w # pi and every adjoint recomputed at every step."""
    _, _, D = _block_masks(pi.truncation, pi.band_set)
    u = {0: {(0, 0): np.eye(pi.truncation.dim, dtype=complex)}}
    for n in range(1, order + 1):
        u_dag = {j: mode_dagger(mm) for j, mm in u.items()}
        a_n = mode_scale(_star_reference(u, u_dag, n), -0.5)
        w = dict(u)
        if a_n:
            w[n] = a_n
        w_dag = {j: mode_dagger(mm) for j, mm in w.items()}
        upi = {j: _star_reference(w, pi.grades, j) for j in range(n + 1)}
        b_n = {nm: M * D for nm, M in _star_reference(upi, w_dag, n).items()}
        u_n = mode_add(a_n, b_n)
        if u_n:
            u[n] = u_n
    return u


def _intertwining_reference(pi, u, order):
    P = band_projector_matrix(u.truncation, u.band_set)
    u_dag = {j: mode_dagger(mm) for j, mm in u.grades.items()}
    out = []
    for j in range(order + 1):
        upi = {k: _star_reference(u.grades, pi.grades, k) for k in range(j + 1)}
        s = _star_reference(upi, u_dag, j)
        if j == 0:
            s = mode_add(s, {(0, 0): -P})
        out.append(mode_max_norm(s, u.truncation))
    return out


@pytest.mark.parametrize("bands", [(0, 1), (3, 4)])
def test_recursion_matches_dense_reference(square, harper, one_mode_potential,
                                           bands, monkeypatch):
    # order 5 lands up to five products of one grade pair on one mode,
    # order 3 two
    order = 5
    H = assemble_truncated(harper, one_mode_potential, square, T)
    pi = build_projection(H, bands, order)
    u = build_intertwiner(pi, order)
    hs = effective_symbol(H, u, order)
    _assert_graded_equal(u.grades, _intertwiner_reference(pi, order))
    assert u.residuals["intertwining"] == _intertwining_reference(pi, u, order)

    # the builders' every star product on the dense double loop; the
    # residuals they carry come from the reference products too
    monkeypatch.setattr(moyal, "star_grade", _star_reference)
    pi_ref = build_projection(H, bands, order)
    u_ref = build_intertwiner(pi, order)
    _assert_graded_equal(pi.grades, pi_ref.grades)
    _assert_graded_equal(u.grades, u_ref.grades)
    for got, want in zip(hs, effective_symbol(H, u, order), strict=True):
        _assert_modes_equal(got, want)
    assert pi_ref.residuals == pi.residuals
    assert u_ref.residuals == u.residuals


def _residuals_from_star_products(H, pi, u, order):
    """The five defects of the defining properties, each from whole star
    products of the finished series."""
    T = pi.truncation
    u_dag = {j: mode_dagger(mm) for j, mm in u.grades.items()}
    out = {"idempotency": [], "hermiticity": [], "commutator": [],
           "unitarity": [],
           "intertwining": _intertwining_reference(pi, u, order)}
    for j in range(order + 1):
        d = mode_add(star_grade(pi.grades, pi.grades, j),
                     mode_scale(pi.grades.get(j, {}), -1.0))
        out["idempotency"].append(mode_max_norm(d, T))
        out["hermiticity"].append(
            mode_hermiticity_defect(pi.grades.get(j, {}), T))
        c = mode_add(star_grade(H.grades, pi.grades, j),
                     mode_scale(star_grade(pi.grades, H.grades, j), -1.0))
        out["commutator"].append(mode_max_norm(c, T))
        uu = star_grade(u.grades, u_dag, j)
        if j == 0:
            uu = mode_add(uu, {(0, 0): -np.eye(T.dim, dtype=complex)})
        out["unitarity"].append(mode_max_norm(uu, T))
    return out


@pytest.mark.parametrize("bands", [(0, 1), (3, 4)])
@pytest.mark.parametrize("with_a", [False, True], ids=["V", "V+A"])
def test_carried_residuals_match_the_star_products(square, harper,
                                                   one_mode_potential, bands,
                                                   with_a):
    order = 5
    H, pi, u = _sapt(square, harper, one_mode_potential if with_a else None,
                     bands, order)
    hs = effective_symbol(H, u, order)
    carried = {**pi.residuals, **u.residuals}
    old_residuals = _residuals_from_star_products(H, pi, u, order)
    assert carried.keys() == old_residuals.keys()
    # these two are formed from the same products as the reference's
    for name in ("hermiticity", "intertwining"):
        assert carried[name] == old_residuals[name], name
    for name, old in old_residuals.items():
        assert len(carried[name]) == len(old) == order + 1
        for j, pair in enumerate(zip(carried[name], old)):
            tol = 1e-10 * max([1.0] + [float(np.max(np.abs(M)))
                                       for M in hs[j].values()])
            assert max(pair) <= tol, (name, j, pair)


@pytest.mark.parametrize("mask, name", [(0, "idempotency"), (1, "commutator")],
                         ids=["S", "W"])
def test_carried_residuals_see_a_wrong_block_mask(square, harper,
                                                  one_mode_potential,
                                                  monkeypatch, mask, name):
    # a sign-flipped S breaks pi_n^D, a sign-flipped W breaks pi_n^OD; the
    # carried defect of the property each one enforces is of order one
    block_masks = moyal._block_masks

    def flipped(T, bands):
        masks = list(block_masks(T, bands))
        masks[mask] = -masks[mask]
        return tuple(masks)

    H = assemble_truncated(harper, one_mode_potential, square, T)
    good = build_projection(H, [0, 1], 3).residuals
    monkeypatch.setattr(moyal, "_block_masks", flipped)
    bad = build_projection(H, [0, 1], 3).residuals
    assert max(good[name]) < 1e-12
    assert max(bad[name]) > 0.1


def test_carried_intertwining_sees_a_wrong_off_diagonal_mask(
        square, harper, one_mode_potential, monkeypatch):
    # a sign-flipped D turns b_n = [P, B_n] into -b_n: u stays unitary, since
    # b_n is anti-Hermitian, but no longer intertwines pi with P from grade 1
    block_masks = moyal._block_masks

    def flipped(T, bands):
        S, W, D = block_masks(T, bands)
        return S, W, -D

    H = assemble_truncated(harper, one_mode_potential, square, T)
    pi = build_projection(H, [0, 1], 3)
    good = build_intertwiner(pi, 3).residuals
    monkeypatch.setattr(moyal, "_block_masks", flipped)
    bad = build_intertwiner(pi, 3).residuals
    # grade 0 is u_0 pi_0 u_0^dag - P = 0 to the bit
    assert good["intertwining"][0] == 0.0
    assert max(good["intertwining"]) < 1e-12
    assert max(good["unitarity"]) < 1e-12 and max(bad["unitarity"]) < 1e-12
    assert bad["intertwining"][0] == 0.0
    assert min(bad["intertwining"][1:]) > 0.1


def test_series_built_to_lower_order_rejected(square, harper):
    # the intertwiner needs pi to its order, and the effective symbol needs
    # u to its order; u's order is the only check left on the sapt chain
    H, pi, u = _sapt(square, harper, None, [0], 2)
    with pytest.raises(TruncationError, match="projection series"):
        build_intertwiner(pi, 3)
    with pytest.raises(TruncationError, match="requested order"):
        effective_symbol(H, u, 3)
    assert len(effective_symbol(H, u, 2)) == 3
