import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magbloch import fock, oracle
from magbloch.errors import (CommensurabilityError, GapClosedError,
                             NumericError, ResourceCapError)
from magbloch.fock import FockTruncation, xi_matrix
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              make_lattice)
from magbloch.oracle import (LinearCanonicalMap, OracleBasis, _slow_quantize,
                             band_cluster, build_full_matrix, ccr_table,
                             landau_variable_map, level_cluster, log_slope,
                             oracle_eigenvalues, order_fit,
                             fast_slow_variable_map, quantize_on_grid)
from magbloch.quantize import RationalFlux
from magbloch.symbols import exact_symbol, remainder_map
from reference import displacement_exp, quadrature

EMPTY = FourierSeries2D({}, is_real=True)
NEAREST = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def _fock(n_max=30, guard=6):
    return FockTruncation(n_max=n_max, guard=guard)


def _whole_space(H, basis):
    """The one unsplit sector of H, the whole space, which holds every one
    of the level's ``basis.slow_dim`` states."""
    [(Hs, count)] = oracle._level_sectors(H, basis, 0, False)
    assert count == basis.slow_dim
    return Hs


def test_ccr_fast_slow_choice():
    for iota in (1, -1):
        for delta in (Fraction(1, 4), Fraction(2, 7)):
            cmap = fast_slow_variable_map([1, 0], [0, 1], iota, delta)
            tab = ccr_table(cmap)
            assert tab[0][1] == iota
            assert tab[2][3] == iota * delta * delta
            for i in (0, 1):
                for j in (2, 3):
                    assert tab[i][j] == 0
            for i in range(4):
                assert tab[i][i] == 0
                for j in range(4):
                    assert tab[i][j] == -tab[j][i]


def test_ccr_fast_slow_choice_oblique_lattice():
    # rational oblique lattice keeps the table exact
    cmap = fast_slow_variable_map([2, 1], [Fraction(1, 2), 3], 1, Fraction(1, 3))
    tab = ccr_table(cmap)
    assert tab[0][1] == 1
    assert tab[2][3] == Fraction(1, 9)
    assert all(tab[i][j] == 0 for i in (0, 1) for j in (2, 3))


def test_ccr_landau_choice():
    tab = ccr_table(landau_variable_map())
    assert tab[0][1] == 1
    assert tab[2][3] == 1
    assert all(tab[i][j] == 0 for i in (0, 1) for j in (2, 3))


def test_ccr_scaling_bilinearity():
    base = LinearCanonicalMap.from_frame([0, -1], [-1, 0], Fraction(1),
                                         Fraction(1))
    doubled = LinearCanonicalMap.from_frame([0, -1], [-1, 0], Fraction(2),
                                            Fraction(1))
    assert ccr_table(doubled)[0][1] == 4 * ccr_table(base)[0][1]


def test_landau_levels_degenerate(square):
    basis = OracleBasis(n_cells=1, n_grid=8, fock=_fock(40))
    H = build_full_matrix(EMPTY, None, square, basis, RationalFlux(1, 16))
    eigs = oracle_eigenvalues(H)
    for n in range(11):
        cluster = eigs[np.abs(eigs - (n + 0.5)) < 0.4]
        assert cluster.size == basis.slow_dim
        assert np.max(np.abs(cluster - (n + 0.5))) < 1e-10


def test_level_cluster_completes_degenerate_levels(square, monkeypatch):
    # at V = 0 each level is slow_dim-fold degenerate; one start vector can
    # leave the shift-invert solve short of copies, and the cluster must
    # still come out complete.  The V = 0 matrix is real; at 1/34, n_max 12
    # real Lanczos finds every copy under one and two BLAS threads, while
    # at 1/64, n_max 8 it comes up short at levels 1 and 3 under both, so
    # the dense fallback runs whatever the count
    dense = []
    real = oracle.oracle_eigenvalues
    monkeypatch.setattr(oracle, "oracle_eigenvalues",
                        lambda H: dense.append(H.shape) or real(H))
    for q, n_max in ((34, 12), (64, 8)):
        basis = OracleBasis(n_cells=1, n_grid=q, fock=_fock(n_max))
        H = build_full_matrix(EMPTY, None, square, basis, RationalFlux(1, q))
        for n in (0, 1, 3):
            cluster = oracle._sector_cluster(_whole_space(H, basis), n + 0.5,
                                             basis.slow_dim)
            assert cluster.size == basis.slow_dim
            assert np.max(np.abs(cluster - (n + 0.5))) < 1e-10
    assert H.shape in dense   # the 1/64 matrix took the dense fallback


def test_mean_level_shift(square, harper):
    # lowest cluster mean moves by delta^2 * (mean of the potential)
    V = harper.plus(FourierSeries2D({(0, 0): 1.0}, is_real=True))
    means = []
    fluxes = [RationalFlux(1, 16), RationalFlux(1, 64)]
    for fx in fluxes:
        basis = OracleBasis(n_cells=1, n_grid=fx.q, fock=_fock())
        H = build_full_matrix(V, None, square, basis, fx)
        cl = band_cluster(oracle_eigenvalues(H), 0.5)
        means.append(cl.mean())
    for fx, mean in zip(fluxes, means):
        assert abs((mean - 0.5) / fx.theta - 1.0) < 0.15


def test_oracle_hermitian(square, harper, one_mode_potential):
    basis = OracleBasis(n_cells=1, n_grid=16, fock=_fock(20))
    H = build_full_matrix(harper, one_mode_potential, square, basis,
                          RationalFlux(1, 16))
    H = H.toarray()
    assert np.max(np.abs(H - H.conj().T)) < 1e-10


def test_oracle_discretization_invariance(square, harper):
    # refined grids only add Bloch samples; existing cluster values persist
    fx = RationalFlux(1, 16)
    base = OracleBasis(n_cells=1, n_grid=16, fock=_fock(30))
    fine = OracleBasis(n_cells=1, n_grid=32, fock=_fock(30))
    deep = OracleBasis(n_cells=1, n_grid=16, fock=_fock(38))
    cl0 = band_cluster(oracle_eigenvalues(
        build_full_matrix(harper, None, square, base, fx)), 0.5)
    cl1 = band_cluster(oracle_eigenvalues(
        build_full_matrix(harper, None, square, fine, fx)), 0.5)
    cl2 = band_cluster(oracle_eigenvalues(
        build_full_matrix(harper, None, square, deep, fx)), 0.5)
    for v in cl0:
        assert np.min(np.abs(cl1 - v)) < 1e-8
    assert np.max(np.abs(np.sort(cl0) - np.sort(cl2))) < 1e-8


def test_mode_eigenbasis_once_per_mode(square, harper, one_mode_potential,
                                      monkeypatch):
    # V and A share the modes (0, +-1): 4 distinct modes, one eigenbasis each
    # for the exact symbol, the oracle matrix and the remainder alike
    calls = []
    inner = fock._mode_eigenbasis

    def counted(t, n, m, L, T):
        calls.append((n, m))
        return inner(t, n, m, L, T)

    monkeypatch.setattr(fock, "_mode_eigenbasis", counted)
    T = _fock(12)
    basis = OracleBasis(n_cells=1, n_grid=16, fock=T)
    for build in (
            lambda: exact_symbol(harper, one_mode_potential, square, T, 0.25),
            lambda: build_full_matrix(harper, one_mode_potential, square,
                                      basis, RationalFlux(1, 16)),
            lambda: remainder_map(harper, one_mode_potential, square, T,
                                  0.25)):
        calls.clear()
        build()
        assert sorted(calls) == sorted(harper.coeffs)


def test_commensurability_required(square, harper):
    basis = OracleBasis(n_cells=1, n_grid=12, fock=_fock(10))
    with pytest.raises(CommensurabilityError):
        build_full_matrix(harper, None, square, basis, RationalFlux(1, 16))


def test_dim_budget(square):
    with pytest.raises(ResourceCapError):
        OracleBasis(n_cells=10, n_grid=100, fock=_fock(40))


def test_grid_resolution_checked(square):
    V = FourierSeries2D({(2, 0): 1.0, (-2, 0): 1.0}, is_real=True)
    basis = OracleBasis(n_cells=1, n_grid=4, fock=_fock(10))
    with pytest.raises(ValueError):
        build_full_matrix(V, None, square, basis, RationalFlux(1, 2))


def test_band_cluster_exact_and_overlap(square, harper):
    eigs = np.array([0.5] * 5 + [1.5] * 5)
    cl = band_cluster(eigs, 0.5)
    assert np.allclose(cl, 0.5)
    # strong potential at large delta closes the gap
    fx = RationalFlux(4, 5)
    basis = OracleBasis(n_cells=1, n_grid=10, fock=_fock(40))
    strong = harper.scaled(3.0)
    H = build_full_matrix(strong, None, square, basis, fx)
    with pytest.raises(GapClosedError):
        band_cluster(oracle_eigenvalues(H), 0.5)
    with pytest.raises(GapClosedError):
        level_cluster(H, strong, None, basis, 0)


def test_cluster_width_tracks_model(square, harper):
    # delta = 0.2: cluster width matches the effective-model band width
    from magbloch.effective import single_band_model
    from magbloch.quantize import spectrum
    fx = RationalFlux(1, 25)
    basis = OracleBasis(n_cells=1, n_grid=25, fock=_fock(30))
    H = build_full_matrix(harper, None, square, basis, fx)
    cl = band_cluster(oracle_eigenvalues(H), 0.5)
    width = cl.max() - cl.min()
    Hm = quantize_on_grid(single_band_model(harper, square, 0.5, fx), basis,
                          fx)
    ms = oracle_eigenvalues(Hm)
    model_width = ms.max() - ms.min()
    assert abs(width - model_width) / model_width < 0.2
    # leading-order statement: width ~ delta^2 (maxV - minV) = 0.32
    assert width == pytest.approx(fx.theta * 8.0, rel=0.45)


def test_order_fit_synthetic():
    deltas = [0.2, 0.1, 0.05]
    model = [np.array([0.0]) for _ in deltas]
    orc = [np.array([d ** 3]) for d in deltas]
    fit = order_fit(model, orc, deltas)
    assert fit.slope == pytest.approx(3.0, abs=1e-9)
    assert fit.censored == (False, False, False)


def test_order_fit_censoring():
    deltas = [0.2, 0.1, 0.05]
    model = [np.array([0.0])] * 3
    orc = [np.array([0.2 ** 2]), np.array([0.1 ** 2]), np.array([1e-15])]
    fit = order_fit(model, orc, deltas)
    assert fit.censored == (False, False, True)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)


def test_order_fit_validation():
    with pytest.raises(ValueError):
        order_fit([np.array([1.0])] * 2, [np.array([1.0])] * 2, [0.2, 0.1])
    with pytest.raises(ValueError):
        order_fit([np.array([1.0])] * 3, [np.array([1.0])] * 3, [0.1, 0.2, 0.05])
    # a spectrum list shorter than the deltas is no pair to drop
    with pytest.raises(ValueError, match="per delta"):
        order_fit([np.array([0.0])] * 2,
                  [np.array([d ** 3]) for d in (0.3, 0.2, 0.1)], [0.3, 0.2, 0.1])


def test_log_slope_needs_two_distinct_deltas():
    # repeated deltas fix no line, however their distances differ
    assert log_slope([0.25, 0.25], [0.04, 0.05]) is None
    assert log_slope([0.25, 0.25, 0.1], [0.04, 0.05, 1e-15]) is None
    slope, residual = log_slope([0.25, 0.25, 0.1], [0.04, 0.04, 0.1 ** 2])
    assert slope == pytest.approx(math.log(0.04 / 0.01) / math.log(2.5))
    assert residual == pytest.approx(0.0, abs=1e-12)


def _fluxes(q_max):
    return st.integers(1, q_max).flatmap(
        lambda q: st.sampled_from([RationalFlux(p, q) for p in range(q)
                                   if math.gcd(p, q) == 1]))


def _dense_slow_factor(basis, fx, n, m):
    """The slow Weyl factor of mode (n, m) written out as an N x N matrix."""
    N = basis.slow_dim
    step = fx.p * basis.n_grid // fx.q
    out = np.zeros((N, N), dtype=complex)
    for j in range(N):
        src = (j + n * step) % N
        out[j, src] = (np.exp(-1j * math.pi * n * m * fx.theta)
                       * np.exp(2j * math.pi * m * src / basis.n_grid))
    return out


@given(_fluxes(12), st.integers(1, 3), st.integers(1, 2),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_slow_factor_is_weighted_permutation(fx, per_q, n_cells, n, m):
    n_grid = fx.q * max(per_q, -(-4 // fx.q))
    basis = OracleBasis(n_cells=n_cells, n_grid=n_grid,
                        fock=FockTruncation(n_max=1, guard=0))
    got = _slow_quantize({(n, m): np.ones((1, 1))}, basis, fx).toarray()
    assert np.max(np.abs(got - _dense_slow_factor(basis, fx, n, m))) < 1e-12


@given(_fluxes(40), st.integers(0, 5), st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_resolving_grid_is_the_coarsest_accepted(fx, top, n_cells):
    V = (FourierSeries2D({(top, -top // 2): 0.5}, is_real=True) if top
         else EMPTY)
    T = FockTruncation(n_max=1, guard=0)
    basis = OracleBasis.resolving(V, None, fx, T, n_cells)
    q = fx.q
    assert basis.n_cells == n_cells and basis.n_grid % q == 0
    assert basis.n_grid == q * max(1, -(-4 * max(1, top) // q))
    basis.check_resolves(V, None)
    # one q less is either below the minimum grid or under-resolves V
    with pytest.raises(ValueError):
        OracleBasis(n_cells=n_cells, n_grid=basis.n_grid - q,
                    fock=T).check_resolves(V, None)


MODES = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
AMPLITUDES = st.floats(-1.0, 1.0)


def _oracle_basis(fx, n_cells, n_max):
    return OracleBasis(n_cells=n_cells, n_grid=fx.q * max(1, -(-8 // fx.q)),
                       fock=FockTruncation(n_max=n_max, guard=0))


def _dense_reference(V, A, L, basis, fx):
    """The oracle matrix as a dense sum of (slow factor) x (Fock block) over
    the modes, each block from displacement_exp."""
    T = basis.fock
    delta = math.sqrt(fx.theta)
    terms = []
    if A is not None:
        for nm in sorted(set(A.f1.coeffs) | set(A.f2.coeffs)):
            lin = (A.f1[nm] * quadrature(L.z_a, T)
                   + A.f2[nm] * quadrature(L.z_b, T))
            E = displacement_exp(2 * math.pi * delta, *nm, L, T)
            terms.append((delta, nm, E @ lin))
    for nm, v in sorted(V.coeffs.items()):
        E = displacement_exp(2 * math.pi * delta, *nm, L, T)
        terms.append(((delta ** 2) * v, nm, E))
    want = np.kron(np.eye(basis.slow_dim), xi_matrix(T))
    for scalar, nm, F in terms:
        want += scalar * np.kron(_dense_slow_factor(basis, fx, *nm), F)
    return want


@given(_fluxes(6), st.integers(1, 2),
       st.lists(st.tuples(MODES, AMPLITUDES), min_size=1, max_size=3),
       st.none() | st.tuples(MODES.filter(lambda nm: nm != (0, 0)),
                             AMPLITUDES, AMPLITUDES))
@settings(max_examples=40, deadline=None)
def test_full_matrix_matches_kron_reference(fx, n_cells, v_modes, a_mode):
    square = make_lattice([1.0, 0.0], [0.0, 1.0])
    V = FourierSeries2D({nm: c for nm, c in v_modes}, is_real=True)
    A = None
    if a_mode is not None:
        # f1 = m c, f2 = -n c on the mode pair satisfies the gauge condition
        (n, m), re, im = a_mode
        c = complex(re, im)
        A = PeriodicVectorPotential(
            FourierSeries2D({(n, m): m * c, (-n, -m): -m * c.conjugate()},
                            is_real=True),
            FourierSeries2D({(n, m): -n * c, (-n, -m): n * c.conjugate()},
                            is_real=True), square)
    basis = _oracle_basis(fx, n_cells, 5)
    want = _dense_reference(V, A, square, basis, fx)
    got = build_full_matrix(V, A, square, basis, fx).toarray()
    assert np.max(np.abs(got - want)) < 1e-12 * max(1.0, np.max(np.abs(want)))


def _reflection_cases():
    """(V, A, lattice, real): the oracle matrix is real exactly when the
    frame has z_a real and z_b imaginary, V_{n,-m} = conj(V_{n,m}),
    f1_{n,-m} = conj(f1_{n,m}) and f2_{n,-m} = -conj(f2_{n,m})."""
    square = make_lattice([1.0, 0.0], [0.0, 1.0])
    harper = FourierSeries2D({nm: 1.0 for nm in NEAREST}, is_real=True)
    c = 0.8 * np.exp(0.6j)

    def series(coeffs):
        return FourierSeries2D(coeffs, is_real=True)

    def potential(f1, f2, L=square):
        return PeriodicVectorPotential(series(f1), series(f2), L)

    turn = 0.3
    return {
        "harper": (harper, None, square, True),
        "complex f01": (series({(0, 1): c, (1, 0): 1.0}), None, square, True),
        "even (1,+-1)": (series({(1, 1): c, (1, -1): c.conjugate()}), None,
                         square, True),
        "even (2,+-1)": (series({(2, 1): c, (2, -1): c.conjugate(),
                                 (0, 1): 1.0}), None, square, True),
        "A1 on (0,+-1)": (harper, potential({(0, 1): 0.5, (0, -1): 0.5}, {}),
                          square, True),
        "A2 sin": (harper, potential({}, {(1, 0): -0.25j, (-1, 0): 0.25j}),
                   square, True),
        "2x1 rectangle": (harper, None, make_lattice([2.0, 0.0], [0.0, 1.0]),
                          True),
        "complex f10": (series({(1, 0): c, (0, 1): 1.0}), None, square, False),
        "(1,1) alone": (series({(1, 1): c}), None, square, False),
        "stored zero (1,1)": (series({(1, 1): 0.0, (1, 0): 1.0, (0, 1): 1.0}),
                              None, square, True),
        "A2 cos": (harper, potential({}, {(1, 0): 0.25, (-1, 0): 0.25}),
                   square, False),
        "triangular": (harper, None,
                       make_lattice([1.0, 0.0], [0.5, math.sqrt(3) / 2]),
                       False),
        "rotated square": (harper, None, make_lattice(
            [math.cos(turn), math.sin(turn)],
            [-math.sin(turn), math.cos(turn)]), False),
    }


@pytest.mark.parametrize("name", list(_reflection_cases()))
def test_full_matrix_is_real_exactly_for_reflection_even_symbols(name):
    V, A, L, real = _reflection_cases()[name]
    fx = RationalFlux(2, 7)
    basis = OracleBasis.resolving(V, A, fx, FockTruncation(n_max=8, guard=0))
    H = build_full_matrix(V, A, L, basis, fx)
    assert np.isrealobj(H.data) == real
    want = _dense_reference(V, A, L, basis, fx)
    assert np.max(np.abs(H.toarray() - want)) < 1e-12 * np.max(np.abs(want))
    if not real:   # the complex matrix is complex by more than rounding
        assert np.max(np.abs(want.imag)) > 1e-3


# an empty diag_modes is an all-zero series (with the zero amplitudes, one
# whose stored coefficients are all zero); coupling_modes None leaves the
# off-diagonal blocks None
@given(_fluxes(6), st.integers(1, 2),
       st.lists(st.tuples(MODES, AMPLITUDES | st.just(0.0)), max_size=3),
       st.none() | st.lists(st.tuples(MODES, AMPLITUDES, AMPLITUDES),
                            max_size=2),
       st.booleans())
@example(RationalFlux(1, 4), 1, [], None, False)
@example(RationalFlux(1, 3), 2, [], None, True)
@example(RationalFlux(2, 5), 1, [((1, 0), 0.0)], None, True)
@settings(max_examples=40, deadline=None)
def test_quantize_on_grid_matches_dense_sum(fx, n_cells, diag_modes,
                                            coupling_modes, two_blocks):
    F = FourierSeries2D({nm: c for nm, c in diag_modes}, is_real=True)
    if two_blocks:
        G = None if coupling_modes is None else FourierSeries2D(
            {nm: complex(re, im) for nm, re, im in coupling_modes})
        blocks = [[F, G], [None if G is None else G.conj_reflect(),
                            F.scaled(-1.0)]]
    else:
        blocks = [[F]]
    basis = _oracle_basis(fx, n_cells, 1)
    N = basis.slow_dim
    want = np.block([[sum((c * _dense_slow_factor(basis, fx, *nm)
                           for nm, c in sorted(
                               (B.coeffs if B is not None else {}).items())),
                          np.zeros((N, N), dtype=complex))
                      for B in row] for row in blocks])
    got = quantize_on_grid(blocks if two_blocks else F, basis, fx)
    assert np.max(np.abs(got - want)) < 1e-12


@given(st.integers(2, 24), st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2),
       st.none() | st.floats(0.25, 0.75), st.integers(8, 12), st.integers(0, 1),
       st.just(0.0) | st.floats(0.3, 1.2))
@example(16, [1.0, 1.0], None, 10, 0, 0.7)
@settings(max_examples=30, deadline=None)
def test_level_cluster_matches_dense(q, amps, a, n_max, band, phase):
    # nearest-neighbour V, with or without the one-mode A; the shift-invert
    # cluster equals the dense one, or both find the gap closed.  A phase
    # on f_{1,0} makes the symbol reflection-odd, so H stays complex and
    # the cluster comes from complex Arnoldi
    square = make_lattice([1.0, 0.0], [0.0, 1.0])
    coeffs = {nm: amps[i // 2] for i, nm in enumerate(NEAREST)}
    coeffs[(1, 0)] *= np.exp(1j * phase)
    coeffs[(-1, 0)] *= np.exp(-1j * phase)
    V = FourierSeries2D(coeffs, is_real=True)
    A = None if a is None else PeriodicVectorPotential(
        FourierSeries2D({(0, 1): a, (0, -1): a}, is_real=True), EMPTY, square)
    fx = RationalFlux(1, q)
    basis = OracleBasis(n_cells=1, n_grid=q * max(1, -(-4 // q)),
                        fock=FockTruncation(n_max=n_max, guard=0))
    H = build_full_matrix(V, A, square, basis, fx)
    assert np.isrealobj(H.data) == (phase == 0.0)
    lam = band + 0.5
    try:
        want = band_cluster(oracle_eigenvalues(H.toarray()), lam)
    except GapClosedError:
        want = None
    Hs = _whole_space(H, basis)
    if want is None or want.size != basis.slow_dim:
        with pytest.raises(GapClosedError):
            oracle._sector_cluster(Hs, lam, basis.slow_dim)
        return
    got = oracle._sector_cluster(Hs, lam, basis.slow_dim)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12
    # the fixed start vector makes a repeated solve bit-identical
    assert oracle._sector_cluster(Hs, lam, basis.slow_dim).tobytes() \
        == got.tobytes()


def _inversion_cases():
    """(V, A, lattice, even): the parity Pi commutes with the oracle matrix
    exactly when V_{-n,-m} = V_{n,m}, f1_{-n,-m} = -f1_{n,m} and
    f2_{-n,-m} = -f2_{n,m}, on any lattice."""
    square = make_lattice([1.0, 0.0], [0.0, 1.0])
    harper = FourierSeries2D({nm: 1.0 for nm in NEAREST}, is_real=True)

    def series(coeffs):
        return FourierSeries2D(coeffs, is_real=True)

    def potential(f1):
        return PeriodicVectorPotential(series(f1), EMPTY, square)

    return {
        "harper": (harper, None, square, True),
        "harper oblique": (harper, None,
                           make_lattice([1.0, 0.0], [0.4, 1.1]), True),
        "real (+-1,+-1)": (series({(1, 1): 0.6, (1, -1): 0.4}), None, square,
                           True),
        "V = 0": (EMPTY, None, square, True),
        "odd A1": (harper, potential({(0, 1): -0.5j, (0, -1): 0.5j}), square,
                   True),
        "complex f10": (series({(1, 0): 0.9 * np.exp(0.7j), (0, 1): 1.0}),
                        None, square, False),
        "A1 cos": (harper, potential({(0, 1): 0.5, (0, -1): 0.5}), square,
                   False),
    }


def _dense_parity(basis):
    """Pi = (slow j -> -j mod N) (x) (-1)^n, written out entry by entry."""
    N, d = basis.slow_dim, basis.fock.dim
    P = np.zeros((N * d, N * d))
    for j in range(N):
        for n in range(d):
            P[(-j % N) * d + n, j * d + n] = (-1) ** n
    return P


@pytest.mark.parametrize("name", list(_inversion_cases()))
def test_parity_commutes_exactly_for_inversion_even_symbols(name, monkeypatch):
    V, A, L, even = _inversion_cases()[name]
    assert oracle._inversion_even(V, A) == even
    fx = RationalFlux(1, 16)
    basis = OracleBasis.resolving(V, A, fx, FockTruncation(n_max=8, guard=0))
    Hs = build_full_matrix(V, A, L, basis, fx)
    H = Hs.toarray()
    P = _dense_parity(basis)
    defect = np.max(np.abs(P @ H @ P - H))
    if even:
        assert defect < 1e-12
        # each sector is H on the t-eigenspace of the dense Pi
        w, U = np.linalg.eigh(P)
        for (sector, _), t in zip(oracle._level_sectors(Hs, basis, 0, True),
                                  (1.0, -1.0)):
            Q = U[:, np.abs(w - t) < 0.5]
            assert sector.shape[0] == Q.shape[1]
            assert np.max(np.abs(oracle_eigenvalues(sector)
                                 - oracle_eigenvalues(Q.T @ H @ Q))) < 1e-12
    else:   # the commutator is far above rounding
        assert defect > 1e-2
    # level_cluster splits exactly the inversion-even symbols into two
    # sectors, and the split cluster is the whole-space one
    calls = []
    solve = oracle._sector_cluster
    monkeypatch.setattr(oracle, "_sector_cluster",
                        lambda *a: calls.append(a) or solve(*a))
    got = level_cluster(Hs, V, A, basis, 0)
    assert len(calls) == (2 if even else 1)
    whole = solve(_whole_space(Hs, basis), 0.5, basis.slow_dim)
    assert got.shape == whole.shape
    assert np.max(np.abs(got - whole)) < 1e-12


@pytest.mark.parametrize("q, n_cells", [(7, 1), (8, 1), (7, 2), (16, 1)])
def test_sector_counts_match_dense_counts(square, harper, q, n_cells):
    # each sector holds (N +- f)/2 of the level's N states, f = 1 for odd N
    # and 2 for even N, the larger share in the even sector for an even level
    fx = RationalFlux(1, q)
    basis = OracleBasis(n_cells=n_cells, n_grid=q * -(-4 // q),
                        fock=_fock(16))
    V = harper.scaled(0.5)
    H = build_full_matrix(V, None, square, basis, fx)
    N = basis.slow_dim
    f = 2 - N % 2
    whole = oracle_eigenvalues(H)
    for level in range(4):
        sectors = oracle._level_sectors(H, basis, level, True)
        want = [(N + f) // 2, (N - f) // 2]
        if level % 2:
            want.reverse()
        assert [count for _, count in sectors] == want
        spectra = []
        for Hs, count in sectors:
            eigs = oracle_eigenvalues(Hs)
            spectra.append(eigs)
            assert np.sum(np.abs(eigs - (level + 0.5)) <= oracle.HALF_GAP) \
                == count
        # together the sectors are H in another orthonormal basis
        assert np.max(np.abs(np.sort(np.concatenate(spectra)) - whole)) \
            < 1e-12


@pytest.mark.parametrize("V, q, n_cells, n_max", [
    ("harper", 7, 1, 14),    # N = 7
    ("harper", 7, 2, 14),    # N = 14
    ("harper", 16, 1, 20),   # N = 16
    ("harper", 31, 1, 16),   # N = 31
    ("empty", 34, 1, 12),    # V = 0: slow_dim-fold degenerate levels
    ("empty", 64, 1, 8),
])
def test_split_cluster_matches_whole_space(square, harper, monkeypatch, V, q,
                                           n_cells, n_max):
    V = harper if V == "harper" else EMPTY
    fx = RationalFlux(1, q)
    basis = OracleBasis.resolving(V, None, fx, _fock(n_max, 0), n_cells)
    H = build_full_matrix(V, None, square, basis, fx)
    dense = []
    real = oracle.oracle_eigenvalues
    monkeypatch.setattr(oracle, "oracle_eigenvalues",
                        lambda H: dense.append(H.shape[0]) or real(H))
    for level in (0, 1, 3):
        whole = oracle._sector_cluster(_whole_space(H, basis), level + 0.5,
                                       basis.slow_dim)
        split = level_cluster(H, V, None, basis, level)
        assert split.shape == whole.shape == (basis.slow_dim,)
        assert np.all(np.diff(split) >= 0)
        assert np.max(np.abs(split - whole)) < 1e-12
    if q == 64:   # the degenerate sectors take the dense fallback
        assert any(D < H.shape[0] for D in dense)


@pytest.mark.parametrize("p, q, n_cells", [(7, 16, 1), (13, 27, 1),
                                           (31, 64, 1), (7, 16, 2)])
@pytest.mark.parametrize("with_a", [False, True],
                         ids=["parity-sectors", "whole-space"])
def test_wide_shift_sectors_stay_banded(square, harper, monkeypatch, p, q,
                                        n_cells, with_a):
    # the slow shift p n_grid / q lies far from +-1, so in plain pair order
    # neighbouring groups sit 7, 13 and 31 groups apart; reverse
    # Cuthill-McKee orders them along the shift's cycle, a path of pairs in
    # a parity sector and a cycle of points in the whole space (A1 =
    # cos(2 pi x)/2 misses the inversion rule)
    V = harper.scaled(0.2)
    A = PeriodicVectorPotential(
        FourierSeries2D({(0, 1): 0.25, (0, -1): 0.25}, is_real=True), EMPTY,
        square) if with_a else None
    fx = RationalFlux(p, q)
    basis = OracleBasis.resolving(V, A, fx, _fock(6, 0), n_cells)
    H = build_full_matrix(V, A, square, basis, fx)
    widths = []
    factor = oracle._band_factor
    monkeypatch.setattr(oracle, "_band_factor", lambda Hs, sigma: (
        widths.append(int(Hs.offsets[0])) or factor(Hs, sigma)))
    for level in (0, 1):
        want = band_cluster(oracle_eigenvalues(H), level + 0.5)
        assert want.size == basis.slow_dim
        got = level_cluster(H, V, A, basis, level)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12
    d = basis.fock.dim
    assert len(widths) == (2 if with_a else 4)
    assert max(widths) <= (3 * d - 1 if with_a else 2 * d - 1)


def test_band_factor_rejects_a_zero_pivot(square):
    # at V = 0 each level n + 1/2 is an exact diagonal entry of H, so the
    # factor of H - 1/2 meets an exact zero pivot; off the level it does not
    basis = OracleBasis(n_cells=1, n_grid=8, fock=_fock(6, 0))
    H = build_full_matrix(EMPTY, None, square, basis, RationalFlux(1, 8))
    Hs = _whole_space(H, basis)
    with pytest.raises(NumericError, match="singular"):
        oracle._band_factor(Hs, 0.5)
    sigma = 0.5 + oracle._SHIFT_OFFSET
    x = np.arange(1.0, Hs.shape[0] + 1)
    y = oracle._band_factor(Hs, sigma).matvec(x)
    assert np.max(np.abs(Hs @ y - sigma * y - x)) < 1e-9 * np.max(x)


def test_level_cluster_rejects_a_matrix_that_breaks_the_parity(
        square, harper, one_mode_potential):
    # the sectors of Harper alone, used on the matrix with A1 = cos 2 pi x
    fx = RationalFlux(1, 16)
    basis = OracleBasis.resolving(harper, one_mode_potential, fx, _fock(8, 0))
    H = build_full_matrix(harper, one_mode_potential, square, basis, fx)
    with pytest.raises(NumericError, match="inversion parity"):
        level_cluster(H, harper, None, basis, 0)



def _harper_with_defect(monkeypatch, harper, factor, add):
    """The oracle basis and flux of Harper at 1/8 (n_max 8), with
    ``oracle._slow_quantize`` applying ``add(data, diagonal, defect)`` to
    the blocks of its BSR result: ``diagonal`` marks the blocks on the
    block diagonal, and ``defect`` is ``factor`` times ``1e-10 max(1,
    max|H|)``, the bound of every oracle invariant."""
    real = oracle._slow_quantize

    def patched(modes, basis, flux):
        H = real(modes, basis, flux)
        add(H.data, oracle._block_rows(H) == H.indices,
            factor * 1e-10 * max(1.0, np.max(np.abs(H.data))))
        return H

    monkeypatch.setattr(oracle, "_slow_quantize", patched)
    fx = RationalFlux(1, 8)
    return OracleBasis.resolving(harper, None, fx, _fock(8, 0)), fx


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_oracle_matrix_checks_its_hermiticity(monkeypatch, square, harper,
                                              factor):
    def add(data, diagonal, defect):   # one entry of an off-diagonal block
        data[np.flatnonzero(~diagonal)[0], 0, 1] += defect

    basis, fx = _harper_with_defect(monkeypatch, harper, factor, add)
    if factor < 1:
        build_full_matrix(harper, None, square, basis, fx)
        return
    with pytest.raises(NumericError, match="oracle matrix lost Hermiticity"):
        build_full_matrix(harper, None, square, basis, fx)


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_reflection_even_oracle_matrix_checks_its_imaginary_part(
        monkeypatch, square, harper, factor):
    def add(data, diagonal, defect):   # Hermitian, imaginary, on the diagonal
        k = np.flatnonzero(diagonal)[0]
        data[k, 0, 1] += 1j * defect
        data[k, 1, 0] -= 1j * defect

    basis, fx = _harper_with_defect(monkeypatch, harper, factor, add)
    if factor < 1:
        H = build_full_matrix(harper, None, square, basis, fx)
        assert H.dtype == np.float64
        return
    with pytest.raises(NumericError, match="imaginary part"):
        build_full_matrix(harper, None, square, basis, fx)


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_quantized_model_checks_its_hermiticity(monkeypatch, harper, factor):
    def add(data, diagonal, defect):   # an off-diagonal 1 x 1 block
        data[np.flatnonzero(~diagonal)[0], 0, 0] += defect

    basis, fx = _harper_with_defect(monkeypatch, harper, factor, add)
    if factor < 1:
        quantize_on_grid(harper, basis, fx)
        return
    with pytest.raises(NumericError, match="quantized model lost Hermiticity"):
        quantize_on_grid(harper, basis, fx)
