import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from magbloch import symbols
from magbloch.fock import FockTruncation, I_generator, ladder, xi_matrix
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              make_lattice)
from magbloch.symbols import (_rho, assemble_truncated, default_points,
                              eval_mode_map, exact_symbol, mode_add,
                              mode_hermiticity_defect, mode_max_norm,
                              mode_scale, remainder_map, remainder_norm)
from reference import (directional_derivative_Dz,
                       directional_derivative_Dzbar, displacement_exp,
                       eval_symbol, quadrature)

T = FockTruncation(n_max=20, guard=6)
SKEWED = make_lattice([1.0, 0.0], [0.35, 1.2])
EMPTY = FourierSeries2D({}, is_real=True)




def test_V2_is_potential_times_identity(square, harper):
    mm = assemble_truncated(harper, None, square, T).grades[2]
    for nm, c in harper.coeffs.items():
        assert np.allclose(mm[nm], c * np.eye(T.dim))


def test_V3_matches_first_derivative_form(square, harper):
    # independent construction path through the frame derivative:
    # -(1/sqrt2) (DzV a + DzbarV ad) mode by mode
    mm = assemble_truncated(harper, None, square, T).grades[3]
    a, ad = ladder(T)
    dz = directional_derivative_Dz(harper, square)
    dzb = directional_derivative_Dzbar(harper, square)
    for nm in harper.coeffs:
        want = -(dz[nm] * a + dzb[nm] * ad) / math.sqrt(2)
        assert np.max(np.abs(mm[nm] - want)) < 1e-12


def test_V_term_zero_mode_only():
    const = FourierSeries2D({(0, 0): 3.0}, is_real=True)
    from magbloch.lattice import make_lattice
    L = make_lattice([1, 0], [0, 1])
    sym = assemble_truncated(const, None, L, T)
    for j in (3, 4):
        assert mode_max_norm(sym.grades[j], T) == 0.0


def test_W1_matches_complexified_component(square, one_mode_potential):
    mm = assemble_truncated(EMPTY, one_mode_potential, square, T).grades[1]
    a, ad = ladder(T)
    g = one_mode_potential.g
    gbar = g.conj_reflect()
    for nm in mm:
        want = g[nm] * a + gbar[nm] * ad
        assert np.max(np.abs(mm[nm] - want)) < 1e-13


def test_W2_matches_closed_form(square, one_mode_potential):
    # grade-2 piece against -sqrt2 Dz(gbar) Xi - (1/sqrt2)(Dz(g) a^2 +
    # Dzbar(gbar) ad^2), built through the series-derivative path
    A = one_mode_potential
    mm = assemble_truncated(EMPTY, A, square, T).grades[2]
    a, ad = ladder(T)
    X = xi_matrix(T)
    g = A.g
    gbar = g.conj_reflect()
    dz_g = directional_derivative_Dz(g, square)
    dzb_gbar = directional_derivative_Dzbar(gbar, square)
    dz_gbar = directional_derivative_Dz(gbar, square)
    for nm in mm:
        want = (-math.sqrt(2) * dz_gbar[nm] * X
                - (dz_g[nm] * a @ a + dzb_gbar[nm] * ad @ ad) / math.sqrt(2))
        assert np.max(np.abs((mm[nm] - want)[:T.corner_dim, :T.corner_dim])) < 1e-12


def test_W_zero_potential(square):
    A0 = PeriodicVectorPotential(EMPTY, EMPTY, square)
    assert sorted(assemble_truncated(EMPTY, A0, square, T).grades) == [0]


def test_assemble_grades(square, harper, one_mode_potential):
    empty = FourierSeries2D({}, is_real=True)
    sym = assemble_truncated(empty, None, square, T)
    assert sorted(sym.grades) == [0]
    sym = assemble_truncated(harper, None, square, T)
    assert sorted(sym.grades) == [0, 2, 3, 4]
    assert sym.natural == 1
    sym = assemble_truncated(harper, one_mode_potential, square, T)
    assert sorted(sym.grades) == [0, 1, 2]
    assert sym.natural == 0


def test_symbol_hermiticity(square, harper, one_mode_potential):
    for A in (None, one_mode_potential):
        sym = assemble_truncated(harper, A, square, T)
        assert max(mode_hermiticity_defect(mm, T)
                   for mm in sym.grades.values()) < 1e-12


def test_eval_definition_consistency(square, harper):
    sym = assemble_truncated(harper, None, square, T)
    delta = 0.17
    pt = (0.3, 0.15)
    total = np.zeros((T.dim, T.dim), dtype=complex)
    for j in sorted(sym.grades):
        total += delta ** j * eval_mode_map(sym.grades[j], pt)
    assert np.max(np.abs(total - eval_symbol(sym, pt, delta))) == 0.0


def test_eval_exact_delta0_and_hermitian(square, harper, one_mode_potential):
    out = eval_mode_map(exact_symbol(harper, None, square, T, 0.0), (0.2, 0.9))
    assert np.max(np.abs(out - xi_matrix(T))) < 1e-14
    rng = np.random.default_rng(11)
    for _ in range(6):
        pt = tuple(rng.uniform(0, 1, 2))
        d = rng.uniform(0, 0.3)
        M = eval_mode_map(
            exact_symbol(harper, one_mode_potential, square, T, d), pt)
        c = T.corner_dim
        assert np.max(np.abs((M - M.conj().T)[:c, :c])) < 1e-10


def _eval_exact_two_loops(V, A, L, T, delta, point):
    """The exact symbol at a point, summed by one loop over the modes of A
    and another over the modes of V."""
    p, x = point
    H = xi_matrix(T)
    if A is not None and not A.is_zero():
        for (n, m) in set(A.f1.coeffs) | set(A.f2.coeffs):
            lin = (A.f1[(n, m)] * quadrature(L.z_a, T)
                   + A.f2[(n, m)] * quadrature(L.z_b, T))
            if not np.any(lin):
                continue
            E = displacement_exp(2 * math.pi * delta, n, m, L, T)
            H = H + delta * cmath.exp(2j * math.pi * (n * p + m * x)) * (E @ lin)
    for (n, m), v in V.coeffs.items():
        if v == 0:
            continue
        E = displacement_exp(2 * math.pi * delta, n, m, L, T)
        H = H + (delta ** 2) * v * cmath.exp(2j * math.pi * (n * p + m * x)) * E
    return H


@pytest.mark.parametrize("case", ["shared_modes", "constant_V", "A_none",
                                  "A_zero", "delta_0", "skewed",
                                  "constant_V_and_A"])
def test_eval_exact_matches_two_loops(square, harper, one_mode_potential,
                                      case):
    # the reference takes displacement_exp, on its own path, mode by mode
    L, V, A, deltas = square, harper, one_mode_potential, (0.3, 0.11)
    const_V = harper.plus(FourierSeries2D({(0, 0): 0.7}, is_real=True))
    if case == "constant_V":
        V = const_V
    elif case == "A_none":
        A = None
    elif case == "A_zero":
        zero = FourierSeries2D({(0, 1): 0.0, (0, -1): 0.0}, is_real=True)
        A = PeriodicVectorPotential(zero, FourierSeries2D({}, is_real=True),
                                    square)
    elif case == "delta_0":
        deltas = (0.0,)
    elif case == "skewed":
        # f1 depends on the second slot only: divergence-free on any lattice
        L = SKEWED
        A = PeriodicVectorPotential(A.f1, A.f2, L)
    elif case == "constant_V_and_A":
        # a constant mode meets the gauge condition whatever f1 and f2 are
        V = const_V
        A = PeriodicVectorPotential(
            A.f1.plus(FourierSeries2D({(0, 0): 0.4}, is_real=True)),
            FourierSeries2D({(0, 0): -0.25}, is_real=True), square)
    for d in deltas:
        for pt in [(0.0, 0.0), (0.3, 0.8), (0.55, 0.1)]:
            want = _eval_exact_two_loops(V, A, L, T, d, pt)
            got = eval_mode_map(exact_symbol(V, A, L, T, d), pt)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # the constant mode's exponential is the identity, exactly
        lin0 = 0.0
        if A is not None:
            lin0 = (A.f1[(0, 0)] * quadrature(L.z_a, T)
                    + A.f2[(0, 0)] * quadrature(L.z_b, T))
        want0 = xi_matrix(T) + ((d ** 2) * V[(0, 0)] * np.eye(T.dim)
                                + d * lin0)
        assert np.array_equal(exact_symbol(V, A, L, T, d)[(0, 0)], want0)


def test_eval_exact_landau_shift(square, harper):
    # dE/d(delta^2) -> sampled potential value, for every level in a
    # finite-difference window
    Tbig = FockTruncation(n_max=40, guard=8)
    d = 0.003
    E = np.sort(np.linalg.eigvalsh(
        eval_mode_map(exact_symbol(harper, None, square, Tbig, d),
                      (0.0, 0.0))))
    for n in range(8):
        fd = (E[n] - (n + 0.5)) / d ** 2
        assert abs(fd - 4.0) < 1e-2


def test_remainder_zero_at_zero(square, harper):
    assert remainder_norm(harper, None, square, T, 0.0, (0.1, 0.2)) == 0.0


def test_remainder_slope_natural1(square, harper):
    Tr = FockTruncation(n_max=120, guard=6)
    deltas = [0.2, 0.1, 0.05]
    pts = default_points(4)
    ds = [max(remainder_norm(harper, None, square, Tr, d, pt) for pt in pts)
          for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(ds), 1)[0]
    assert abs(slope - 4.0) < 0.5


def test_remainder_slope_natural1_projected(square, harper):
    Tr = FockTruncation(n_max=60, guard=6)
    deltas = [0.2, 0.1, 0.05]
    pts = default_points(4)
    ds = [max(remainder_norm(harper, None, square, Tr, d, pt, projector_band=0)
              for pt in pts) for d in deltas]
    slope = np.polyfit(np.log(deltas), np.log(ds), 1)[0]
    assert abs(slope - 5.0) < 0.5


def test_remainder_band_outside_corner_rejected(square, harper):
    # n_max 30, guard 6: the corner holds states 0..24; -1 (numpy would wrap
    # it to the top guard state), 29 (inside the guard) and 40 (outside the
    # basis) are all rejected, as is a non-integer index and a bool (True
    # would pass for band 1)
    Tb = FockTruncation(n_max=30, guard=6)
    for band in (-1, 29, 40, [0, 25], 0.5, True, False, [True], [0, True]):
        with pytest.raises(ValueError, match="projector_band"):
            remainder_norm(harper, None, square, Tb, 0.1, (0.1, 0.2),
                           projector_band=band)
    norms = [remainder_norm(harper, None, square, Tb, 0.1, (0.1, 0.2),
                            projector_band=band)
             for band in (24, np.int64(24), [24], (np.int64(24),))]
    assert norms[0] > 0.0 and len(set(norms)) == 1


@pytest.mark.parametrize("with_a", [False, True])
def test_projected_remainder_is_norm_of_band_columns(square, harper,
                                                     one_mode_potential, with_a):
    # the band columns alone against the whole masked corner, R * in_band
    A = one_mode_potential if with_a else None
    Tb = FockTruncation(n_max=40, guard=6)
    for band in (0, [0, 1], [2, 4, 4], (np.int64(3),), []):
        for delta, point in ((0.2, (0.1, 0.2)), (0.05, (0.5, 0.75))):
            R = eval_mode_map(remainder_map(harper, A, square, Tb, delta),
                              point)
            in_band = np.zeros(Tb.dim, dtype=bool)
            in_band[band] = True
            c = Tb.corner_dim
            want = np.linalg.norm((R * in_band)[:c, :c], 2)
            got = remainder_norm(harper, A, square, Tb, delta, point,
                                 projector_band=band)
            assert abs(got - want) <= 1e-13 * want, (band, delta)


@pytest.mark.parametrize("lattice", ["square", "skewed"])
@pytest.mark.parametrize("with_a", [False, True])
def test_norm_reads_corner_rows_and_band_columns(square, harper,
                                                 one_mode_potential, lattice,
                                                 with_a):
    # the norm forms only the corner rows and the columns it reads; the
    # lin neighbour of the last corner column lies in the guard (or, with
    # no guard, outside the basis), and column 0 has no left neighbour
    L = square if lattice == "square" else SKEWED
    A = PeriodicVectorPotential(one_mode_potential.f1, one_mode_potential.f2,
                                L) if with_a else None
    for Tb in (FockTruncation(n_max=40, guard=6),
               FockTruncation(n_max=40, guard=0)):
        c = Tb.corner_dim
        for delta, point in ((0.2, (0.1, 0.2)), (0.05, (0.55, 0.8))):
            R = eval_mode_map(remainder_map(harper, A, L, Tb, delta), point)
            want = np.linalg.norm(R[:c, :c], 2)
            got = remainder_norm(harper, A, L, Tb, delta, point)
            assert abs(got - want) <= 1e-13 * want, (c, delta)
            for band in (c - 1, [0, c - 1]):
                want = np.linalg.norm(R[:c, np.atleast_1d(band)], 2)
                got = remainder_norm(harper, A, L, Tb, delta, point,
                                     projector_band=band)
                assert abs(got - want) <= 1e-13 * want, (c, band, delta)


def test_remainder_norm_forms_one_function_per_group(square, harper,
                                                     one_mode_potential,
                                                     monkeypatch):
    # modes with bitwise-equal eigenvalues on the same basis share each
    # matrix function; a projected norm forms only the columns it reads
    shapes = []
    inner = symbols._matrix_function

    def counted(*args):
        out = inner(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(symbols, "_matrix_function", counted)
    Tr = FockTruncation(n_max=30, guard=6)
    c = Tr.corner_dim

    def formed(V, A, L, band=None):
        shapes.clear()
        assert remainder_norm(V, A, L, Tr, 0.1, (0.1, 0.2),
                              projector_band=band) > 0.0
        return list(shapes)

    # Harper's four modes share |alpha| on the square lattice, and the
    # one-mode A lies on two of them: S_0 alone, or S_0 and S_1 with A
    assert formed(harper, None, square) == [(c, c)]
    assert formed(harper, one_mode_potential, square) == [(c, c + 1)] * 2
    # projected: the column prefix up to the highest band, and with A the
    # lin neighbour of its last column too
    assert formed(harper, None, square, 0) == [(c, 1)]
    assert formed(harper, one_mode_potential, square, 0) == [(c, 2)] * 2
    assert formed(harper, one_mode_potential, square, [3, 7]) == [(c, 9)] * 2
    # on SKEWED the groups are the +- pairs (+-1, 0), (0, +-1), +-(1, 1) and
    # (0, +-2), and the constant mode; S_1 only where A has a mode
    V = harper.plus(FourierSeries2D({(0, 0): 0.4, (1, 1): 0.3, (-1, -1): 0.3},
                                    is_real=True))
    f1 = FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5, (0, 2): 0.2, (0, -2): 0.2},
                         is_real=True)
    A = PeriodicVectorPotential(f1, FourierSeries2D({}, is_real=True), SKEWED)
    assert formed(V, None, SKEWED) == [(c, c)] * 4
    assert formed(V, A, SKEWED) == [(c, c + 1)] * 6
    assert formed(V, A, SKEWED, 0) == [(c, 2)] * 6


def test_empty_remainder_map_keeps_the_matrix_shape(square):
    # no potential and no vector potential: no mode has a share, and the
    # remainder is the dim x dim zero, not the 1 x 1 zero of an empty map
    V = FourierSeries2D({}, is_real=True)
    R = eval_mode_map(remainder_map(V, None, square, T, 0.1), (0.1, 0.2))
    assert R.shape == (T.dim, T.dim) and not np.any(R)
    for band in (None, 0, [1, 2]):
        assert remainder_norm(V, None, square, T, 0.1, (0.1, 0.2),
                              projector_band=band) == 0.0


def _explicit_remainder(V, A, L, T, delta, point):
    """The exact symbol minus the truncated symbol, both evaluated at the
    point and subtracted as matrices."""
    return (eval_mode_map(exact_symbol(V, A, L, T, delta), point)
            - eval_symbol(assemble_truncated(V, A, L, T), point, delta))


@pytest.mark.parametrize("lattice", ["square", "skewed"])
@pytest.mark.parametrize("with_a", [False, True])
def test_remainder_matches_explicit_difference(square, harper, lattice, with_a):
    # V with a constant mode and a diagonal pair besides Harper's; A on a
    # mode pair that V shares and on one that V lacks (f1 depends on the
    # second slot only, so A is divergence-free on any lattice)
    L = square if lattice == "square" else SKEWED
    V = harper.plus(FourierSeries2D({(0, 0): 0.4, (1, 1): 0.3, (-1, -1): 0.3},
                                    is_real=True))
    f1 = FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5, (0, 2): 0.2, (0, -2): 0.2},
                         is_real=True)
    A = PeriodicVectorPotential(f1, FourierSeries2D({}, is_real=True), L) \
        if with_a else None
    Tr = FockTruncation(n_max=60, guard=6)
    c = Tr.corner_dim
    for delta in (0.2, 0.05, 0.01):
        for point in ((0.1, 0.2), (0.55, 0.8)):
            want = _explicit_remainder(V, A, L, Tr, delta, point)
            got = eval_mode_map(remainder_map(V, A, L, Tr, delta), point)
            tol = 1e-12 * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= tol, (delta, point)
            full = np.linalg.norm(want[:c, :c], 2)
            band = np.linalg.norm(want[:c, [0]], 2)
            assert abs(remainder_norm(V, A, L, Tr, delta, point) - full) <= tol
            assert abs(remainder_norm(V, A, L, Tr, delta, point,
                                      projector_band=0) - band) <= tol


def _rho_series(z: float, K: int, terms: int = 60) -> complex:
    """sum_{k>K} (iz)^k/k!, summed in exact rational arithmetic."""
    parts = [Fraction(0), Fraction(0)]   # real, imaginary
    for k in range(K + 1, K + 1 + terms):
        term = Fraction(z) ** k / math.factorial(k)
        parts[k % 2] += term if k % 4 < 2 else -term
    return complex(float(parts[0]), float(parts[1]))


@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_rho_matches_series_on_both_sides_of_the_switch(K):
    zs = [0.0, 1e-9, -3e-5, 0.2, -0.75, 0.999999, 1.0, -1.000001, 1.3, -2.5,
          4.0]
    got = _rho(np.array(zs), K)
    assert got[0] == 0.0
    for z, r in zip(zs[1:], got[1:]):
        want = _rho_series(z, K)
        assert abs(r - want) <= 1e-14 * abs(want), (z, r, want)


def test_remainder_norm_takes_no_matrix_power(square, harper,
                                              one_mode_potential, monkeypatch):
    calls = []

    def counting(name, inner):
        def counted(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return counted

    monkeypatch.setattr(symbols, "assemble_truncated",
                        counting("assemble_truncated", assemble_truncated))
    monkeypatch.setattr(np.linalg, "matrix_power",
                        counting("matrix_power", np.linalg.matrix_power))
    Tr = FockTruncation(n_max=30, guard=6)
    for A in (None, one_mode_potential):
        for band in (None, 0):
            assert remainder_norm(harper, A, square, Tr, 0.1, (0.1, 0.2),
                                  projector_band=band) > 0.0
    assert calls == []
    # the counters see the truncated assembly when it does run
    symbols.assemble_truncated(harper, None, square, Tr)
    assert "assemble_truncated" in calls and "matrix_power" in calls


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -0.1])
def test_non_finite_or_negative_delta_rejected(square, harper, delta):
    with pytest.raises(ValueError, match="delta"):
        remainder_norm(harper, None, square, T, delta, (0.1, 0.2))
    with pytest.raises(ValueError, match="delta"):
        exact_symbol(harper, None, square, T, delta)
    with pytest.raises(ValueError, match="delta"):
        remainder_map(harper, None, square, T, delta)


@pytest.mark.parametrize("point", [(math.nan, 0.1), (math.inf, 0.0),
                                   (0.1, -math.inf), (True, 0.2),
                                   (0.1, np.bool_(False)), (0.1 + 0j, 0.2),
                                   ("0.1", 0.2), (0.1,), (0.1, 0.2, 0.3),
                                   0.5, None])
def test_point_that_is_not_two_finite_reals_rejected(square, harper, point,
                                                     monkeypatch):
    # rejected before any share is built or looked up
    monkeypatch.setattr(symbols, "_remainder_shares", None)
    with pytest.raises(ValueError, match="point"):
        remainder_norm(harper, None, square, T, 0.1, point)


def test_integer_and_numpy_points_accepted(square, harper):
    want = remainder_norm(harper, None, square, T, 0.1, (0.0, 0.5))
    for point in ((0, 0.5), (np.float64(0.0), np.float32(0.5)),
                  np.array([0.0, 0.5]), [np.int64(0), 0.5]):
        assert remainder_norm(harper, None, square, T, 0.1, point) == want


@pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, True, "2", None])
def test_default_points_rejects_k_below_one_or_not_an_integer(k):
    with pytest.raises(ValueError, match="k must be"):
        default_points(k)


def test_default_points_grid():
    assert default_points(1) == [(0.0, 0.0)]
    assert default_points(np.int64(2)) == default_points(2) == [
        (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("with_a", [False, True])
def test_share_map_built_once_per_delta_and_columns(square, harper,
                                                    one_mode_potential,
                                                    monkeypatch, k, with_a):
    # the sweep order of the benchmark, criterion 4 and demo 07: the points
    # inside each delta
    calls = []
    inner = symbols._mode_shares

    def counted(*args):
        calls.append(args[4:])  # delta, f, rows, cols
        return inner(*args)

    monkeypatch.setattr(symbols, "_mode_shares", counted)
    A = one_mode_potential if with_a else None
    Tr = FockTruncation(n_max=30, guard=6)
    deltas = [0.2, 0.1, 0.05]
    for band in (None, 0, [1, 3], 3):
        calls.clear()
        for d in deltas:
            for pt in default_points(k):
                remainder_norm(harper, A, square, Tr, d, pt,
                               projector_band=band)
        assert [c[0] for c in calls] == deltas, band
    # bands 3 and [1, 3] read the same column prefix; band 0 does not
    calls.clear()
    for band in (0, [1, 3], 3, 3, None, None):
        remainder_norm(harper, A, square, Tr, 0.05, (0.1, 0.2),
                       projector_band=band)
    assert [c[3] for c in calls] == [1, 4, Tr.corner_dim]


def _cold_norm(*args, **kwargs):
    symbols._SHARE_MEMO.clear()
    return remainder_norm(*args, **kwargs)


@pytest.mark.parametrize("band", [None, 0, [0, 2]])
def test_memo_hit_is_bit_identical_to_cold_call(square, harper,
                                                one_mode_potential, band):
    Tr = FockTruncation(n_max=30, guard=6)
    for A in (None, one_mode_potential):
        pts = default_points(4)
        warm = [remainder_norm(harper, A, square, Tr, 0.1, pt,
                               projector_band=band) for pt in pts]
        cold = [_cold_norm(harper, A, square, Tr, 0.1, pt,
                           projector_band=band) for pt in pts]
        assert warm == cold and len(set(warm)) > 1


def test_changing_any_key_part_gives_the_cold_value(square, harper,
                                                    one_mode_potential):
    Tr = FockTruncation(n_max=30, guard=6)
    point = (0.1, 0.2)
    base = dict(V=harper, A=one_mode_potential, L=square, T=Tr, delta=0.1,
                band=None)
    bumped = FourierSeries2D({**harper.coeffs, (1, 0): 0.6, (-1, 0): 0.6},
                             is_real=True)
    variants = {
        "V coefficient": dict(V=bumped),
        "A absent": dict(A=None),
        "lattice": dict(L=SKEWED, A=PeriodicVectorPotential(
            one_mode_potential.f1, one_mode_potential.f2, SKEWED)),
        "n_max": dict(T=FockTruncation(n_max=32, guard=6)),
        "guard": dict(T=FockTruncation(n_max=30, guard=5)),
        "delta": dict(delta=0.11),
        "band": dict(band=0),
    }

    def norm(cfg):
        return remainder_norm(cfg["V"], cfg["A"], cfg["L"], cfg["T"],
                              cfg["delta"], point, projector_band=cfg["band"])

    want = norm(base)
    for name, change in variants.items():
        for before in (base, {**base, **change}):
            # from a memo that holds the base map and from one that holds
            # the variant's own map, and back
            norm(before)
            cfg = {**base, **change}
            got = norm(cfg)
            symbols._SHARE_MEMO.clear()
            assert got == norm(cfg) and got != want, name
            assert norm(base) == want, name


def test_series_changed_in_place_gives_the_cold_value(square, harper,
                                                      one_mode_potential):
    Tr = FockTruncation(n_max=30, guard=6)
    V = FourierSeries2D(dict(harper.coeffs), is_real=True)
    f1 = FourierSeries2D(dict(one_mode_potential.f1.coeffs), is_real=True)
    A = PeriodicVectorPotential(f1, one_mode_potential.f2, square)
    args = (square, Tr, 0.1, (0.1, 0.2))
    before = remainder_norm(V, A, *args)
    V.coeffs[(1, 0)] = V.coeffs[(-1, 0)] = 0.6 + 0j
    got = remainder_norm(V, A, *args)
    assert got != before and got == _cold_norm(V, A, *args)
    # f1 scaled on its modes (0, +-1) keeps the gauge condition
    f1.coeffs[(0, 1)] = f1.coeffs[(0, -1)] = 0.3 + 0j
    got = remainder_norm(V, A, *args)
    assert got != before and got == _cold_norm(V, A, *args)


def test_memo_arrays_read_only_and_remainder_map_arrays_fresh(square,
                                                              harper):
    Tr = FockTruncation(n_max=30, guard=6)
    want = remainder_norm(harper, None, square, Tr, 0.1, (0.1, 0.2))
    (memo,) = symbols._SHARE_MEMO.values()
    for M in memo.values():
        assert not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
    R = remainder_map(harper, None, square, Tr, 0.1)
    for M in R.values():
        assert M.flags.writeable
        assert not any(np.shares_memory(M, S) for S in memo.values())
        M[:] = 0.0
    assert remainder_map(harper, None, square, Tr, 0.1)[(1, 0)].any()
    assert remainder_norm(harper, None, square, Tr, 0.1, (0.1, 0.2)) == want


@pytest.mark.parametrize("with_a", [False, True])
@pytest.mark.parametrize("band", [None, 0])
def test_norm_matches_svd_at_the_benchmark_truncation(square, harper,
                                                      one_mode_potential,
                                                      with_a, band):
    # the four criterion-4 cases at n_max 200, against numpy's SVD norm of
    # the band columns of the corner
    A = one_mode_potential if with_a else None
    Tb = FockTruncation(n_max=200, guard=6)
    c = Tb.corner_dim
    cols = np.arange(c) if band is None else [band]
    for delta in (0.2, 0.05):
        shares = remainder_map(harper, A, square, Tb, delta)
        for point in ((0.0, 0.0), (0.25, 0.75)):
            R = eval_mode_map(shares, point)
            want = np.linalg.norm(R[:c, cols], 2)
            got = remainder_norm(harper, A, square, Tb, delta, point,
                                 projector_band=band)
            assert abs(got - want) <= 1e-13 * want, (delta, point)
    assert remainder_norm(harper, A, square, Tb, 0.05, (0.0, 0.0),
                          projector_band=[]) == 0.0


def _random_modes(rng, dim, keys):
    return {nm: rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            for nm in keys}


def test_mode_add_and_scale_leave_inputs_alone():
    rng = np.random.default_rng(5)
    A = _random_modes(rng, 4, [(0, 0), (1, 0), (0, -1)])
    B = _random_modes(rng, 4, [(1, 0), (2, 1)])
    before = {k: {nm: M.copy() for nm, M in X.items()}
              for k, X in (("A", A), ("B", B))}
    out = mode_add(A, B)
    assert set(out) == {(0, 0), (1, 0), (0, -1), (2, 1)}
    assert np.array_equal(out[(1, 0)], before["A"][(1, 0)] + before["B"][(1, 0)])
    mode_scale(out, -1.0)
    mode_add(out, mode_scale(A, 2.0))
    for k, X in (("A", A), ("B", B)):
        assert set(X) == set(before[k])
        for nm, M in X.items():
            assert np.array_equal(M, before[k][nm])
