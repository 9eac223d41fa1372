import copy
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbloch import quantize
from magbloch.effective import spectrum_via_GGdag, two_band_model
from magbloch.errors import NumericError
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              harper_potential, make_lattice)
from magbloch.quantize import (MagneticBlochFamily, RationalFlux,
                               _band_eigvalsh, _band_stack, _bandwidth,
                               _fold, _require_hermitian, _twisted_square,
                               _weyl_modes, _weyl_sum,
                               almost_mathieu_spectrum, butterfly,
                               clock_shift, hausdorff_distance,
                               quantize_blocks, quantize_series,
                               reduced_fractions, spectrum)

HARPER = harper_potential()


def test_flux_validation():
    with pytest.raises(ValueError):
        RationalFlux(2, 4)
    with pytest.raises(ValueError):
        RationalFlux(1, 0)
    assert RationalFlux(0, 1).theta == 0.0


def test_reduced_fractions_enumeration():
    fluxes = [(f.p, f.q) for f in reduced_fractions(4)]
    assert fluxes == [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]


@given(st.integers(1, 60), st.integers(0, 59), st.sampled_from([1, -1]),
       st.floats(0, 6.28), st.floats(0, 6.28))
@settings(max_examples=80, deadline=None)
def test_commutation_relation(q, p, iota, b1, b2):
    if math.gcd(p, q) != 1 or p >= q and q > 1:
        return
    if p >= q:
        p = 0
        q = 1
    fx = RationalFlux(p, q)
    U, V = clock_shift(fx, iota, b1, b2)
    phase = np.exp(-2j * math.pi * iota * fx.theta)
    assert np.max(np.abs(U @ V - phase * V @ U)) < 1e-13


def test_q1_commuting_phases():
    U, V = clock_shift(RationalFlux(0, 1), -1, 0.4, 1.3)
    assert U.shape == (1, 1) and V.shape == (1, 1)
    assert abs(U[0, 0]) == pytest.approx(1.0)
    assert np.allclose(U @ V, V @ U)


def test_clock_shift_powers_are_scalar():
    fx = RationalFlux(2, 5)
    U, V = clock_shift(fx, -1, 0.31, 0.77)
    Uq = np.linalg.matrix_power(U, 5)
    Vq = np.linalg.matrix_power(V, 5)
    for M in (Uq, Vq):
        assert np.allclose(M, M[0, 0] * np.eye(5))
        assert abs(abs(M[0, 0]) - 1.0) < 1e-12


def test_quantize_constant():
    F = FourierSeries2D({(0, 0): 2.5}, is_real=True)
    fam = quantize_series(F, RationalFlux(1, 3), iota=-1)
    H = fam.matrix_at(0.2, 1.0)
    assert np.allclose(H, 2.5 * np.eye(3))


def test_quantize_requires_real():
    F = FourierSeries2D({(1, 0): 1.0})
    with pytest.raises(ValueError):
        quantize_series(F, RationalFlux(1, 2))


def test_zero_flux_samples_the_range():
    fam = quantize_series(HARPER, RationalFlux(0, 1), iota=-1)
    rep = spectrum(fam, grid=(32, 32))
    assert rep.bands == [(pytest.approx(-4.0), pytest.approx(4.0))]


def test_half_flux_bands_against_site_truncation():
    # independent oracle: dense diagonalization of a 400-site truncation of
    # the translation-plus-cosine operator, swept over the boundary phase
    fx = RationalFlux(1, 2)
    fam = quantize_series(HARPER, fx, iota=1)
    rep = spectrum(fam, grid=(64, 64))
    edges = sorted(x for band in rep.bands for x in band)
    s = 2 * math.sqrt(2)
    assert np.allclose(edges, [-s, 0.0, 0.0, s], atol=1e-9)
    N = 400
    betas = [2 * math.pi * i / 64 for i in range(64)]
    site = np.concatenate([almost_mathieu_spectrum(fx, b, N) for b in betas])
    fam_vals = np.concatenate(
        [np.linalg.eigvalsh(fam.matrix_at(b1, -2 * math.pi * l / N))
         for b1 in betas for l in range(N)])
    assert hausdorff_distance(site, fam_vals) < 1e-12


def test_third_flux_three_bands(square):
    fam = quantize_series(HARPER, RationalFlux(1, 3), iota=-1)
    rep = spectrum(fam, grid=(24, 24))
    assert len(rep.bands) == 3
    mids = [0.5 * (lo + hi) for lo, hi in rep.bands]
    assert mids[1] == pytest.approx(0.0, abs=1e-9)
    assert rep.bands[0][0] == pytest.approx(-rep.bands[2][1])
    # brute-force 600-site truncation
    N = 600
    vals = np.concatenate([almost_mathieu_spectrum(RationalFlux(1, 3), b, N)
                           for b in np.linspace(0, 2 * math.pi, 48)])
    for lo, hi in rep.bands:
        inside = vals[(vals > lo - 1e-6) & (vals < hi + 1e-6)]
        assert inside.size > 0


def test_band_count_bounded_by_q():
    for p, q in [(1, 4), (3, 7), (2, 9)]:
        fam = quantize_series(HARPER, RationalFlux(p, q), iota=-1)
        rep = spectrum(fam, grid=(10, 10))
        assert len(rep.bands) <= q


def test_spectrum_grid_minimum():
    fam = quantize_series(HARPER, RationalFlux(1, 2), iota=-1)
    with pytest.raises(ValueError):
        spectrum(fam, grid=(4, 16))


def test_hermiticity_of_family():
    rng = np.random.default_rng(5)
    fam = quantize_series(HARPER, RationalFlux(3, 7), iota=-1)
    for _ in range(8):
        b1, b2 = rng.uniform(0, 2 * math.pi, 2)
        H = fam.matrix_at(b1, b2)
        assert np.max(np.abs(H - H.conj().T)) < 1e-12


def test_magnetic_translation_invariance():
    fam = quantize_series(HARPER, RationalFlux(2, 5), iota=-1)
    b1, b2 = 0.21, 1.07
    base = np.linalg.eigvalsh(fam.matrix_at(b1, b2))
    shift1 = np.linalg.eigvalsh(fam.matrix_at(b1 + 2 * math.pi / 5, b2))
    shift2 = np.linalg.eigvalsh(fam.matrix_at(b1, b2 + 2 * math.pi / 5))
    assert np.max(np.abs(base - shift1)) < 1e-10
    assert np.max(np.abs(base - shift2)) < 1e-10


def test_convention_duality_same_theta():
    # strong-field and weak-field conventions at the same reduced flux give
    # the same band set
    for p, q in [(1, 3), (2, 5), (3, 8)]:
        fx = RationalFlux(p, q)
        a = spectrum(quantize_series(HARPER, fx, -1, "harper"), grid=(16, 16))
        b = spectrum(quantize_series(HARPER, fx, -1, "hofstadter"), grid=(16, 16))
        assert hausdorff_distance(a.all_eigenvalues(), b.all_eigenvalues()) < 1e-10


def test_butterfly_ordering_and_symmetry():
    reports = butterfly(HARPER, 4, iota=-1, grid=(8, 16))
    keys = [(r.flux.q, r.flux.p) for r in reports]
    assert keys == sorted(keys)
    by_flux = {(r.flux.p, r.flux.q): r for r in reports}
    # theta -> 1 - theta spectral symmetry, against a direct solve at 1 - theta
    for (p, q) in [(1, 3), (1, 4)]:
        mirrored = by_flux[(q - p, q)]
        direct = spectrum(quantize_series(HARPER, RationalFlux(q - p, q),
                                          iota=-1), grid=(8, 16))
        assert mirrored.metadata["mirror_of"] == [p, q]
        assert np.allclose(mirrored.bands, direct.bands, rtol=0, atol=1e-12)
        # Harper is sampled at the reflections of its twin's Chambers points
        assert np.allclose(mirrored.samples,
                           direct.samples[_sampled_points(mirrored)], rtol=0,
                           atol=1e-12)
        # the twin's spectrum at beta is the direct one's at -beta
        twin = by_flux[(p, q)]
        reflected = quantize._reflected_points((8, 16))[_sampled_points(twin)]
        assert np.max(np.abs(twin.samples - direct.samples[reflected])) < 1e-8


def _sampled_points(rep):
    """Flat grid indices of a report's ``chambers_points``, read back from
    their phases beta1 = 2 pi i / (q n1) and beta2 = 2 pi k / n2."""
    n1, n2 = rep.metadata["grid"]
    beta = np.array(rep.metadata["chambers_points"])
    i = np.rint(beta[:, 0] * rep.flux.q * n1 / (2 * math.pi)).astype(int)
    k = np.rint(beta[:, 1] * n2 / (2 * math.pi)).astype(int)
    assert np.allclose(np.column_stack([2 * math.pi / rep.flux.q * i / n1,
                                        2 * math.pi * k / n2]), beta,
                       rtol=0, atol=1e-15)
    return i * n2 + k


def _random_mirror_even(seed):
    """A real series with a constant mode, real modes with n m even and
    imaginary modes with n m odd."""
    rng = np.random.default_rng(seed)
    coeffs = {(0, 0): rng.normal()}
    for n, m in [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, 2),
                 (3, 1)]:
        a = rng.normal()
        coeffs[n, m] = a if n * m % 2 == 0 else 1j * a
    return FourierSeries2D(coeffs, is_real=True)


@pytest.mark.parametrize("F, iota", [(HARPER, -1), (HARPER, 1),
                                     (_random_mirror_even(3), -1),
                                     (_random_mirror_even(4), 1)])
def test_butterfly_mirror_matches_direct_solves(F, iota):
    assert quantize._mirror_even(F, iota)
    reports = butterfly(F, 9, iota=iota, grid=(8, 16))
    mirrored = 0
    for rep in reports:
        p, q = rep.flux.p, rep.flux.q
        if 2 * p > q:
            assert rep.metadata.pop("mirror_of") == [q - p, q]
            mirrored += 1
        direct = spectrum(quantize_series(F, rep.flux, iota=iota),
                          grid=(8, 16))
        assert len(rep.bands) == len(direct.bands)
        assert np.allclose(rep.bands, direct.bands, rtol=0, atol=1e-12)
        # Harper passes the Chambers rule; the others have a (1, 1) mode
        chambers = F is HARPER
        points = _sampled_points(rep) if chambers else slice(None)
        assert np.allclose(rep.samples, direct.samples[points], rtol=0,
                           atol=1e-12)
        assert ("chambers_points" in rep.metadata) is chambers
        rep.metadata.pop("chambers_points", None)
        assert rep.metadata.keys() == direct.metadata.keys()
    assert mirrored == sum(1 for fx in reduced_fractions(9) if 2 * fx.p > fx.q)


_MIRROR_ODD = [
    # a real f_{1,1}: the spectra at p/q and (q-p)/q differ
    FourierSeries2D({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
                     (1, 1): 0.5, (-1, -1): 0.5}, is_real=True),
    FourierSeries2D({(1, 0): 0.9 * np.exp(0.7j), (0, 1): 1.1, (0, -1): 1.1},
                    is_real=True),
]


@pytest.mark.parametrize("F", _MIRROR_ODD)
def test_butterfly_solves_mirror_odd_symbols_directly(F):
    assert not quantize._mirror_even(F, -1)
    for rep in butterfly(F, 7, grid=(8, 16)):
        direct = spectrum(quantize_series(F, rep.flux), grid=(8, 16))
        assert "mirror_of" not in rep.metadata
        assert rep.metadata == direct.metadata
        assert rep.bands == direct.bands
        assert np.array_equal(rep.samples, direct.samples)


def test_real_f11_breaks_the_mirror():
    F = _MIRROR_ODD[0]
    a = spectrum(quantize_series(F, RationalFlux(1, 3)), grid=(8, 16))
    b = spectrum(quantize_series(F, RationalFlux(2, 3)), grid=(8, 16))
    assert np.max(np.abs(a.all_eigenvalues() - b.all_eigenvalues())) > 0.1


@pytest.mark.parametrize("F, calls, solves", [(HARPER, 24, 4),
                                               (_MIRROR_ODD[0], 46, 34)])
def test_butterfly_spectrum_calls(monkeypatch, F, calls, solves):
    # Harper: 24 direct fluxes, each solved at <= 4 Chambers points (2 at
    # q = 8, where every beta2 column has q beta2 = 0 mod 2 pi); the
    # real f_{1,1}: all 46 on the grid, 34 orbits of the inversion on 8 x 8
    counts = _count_solved_points(monkeypatch)
    real, seen = quantize.spectrum, []

    def counted(fam, *args, **kwargs):
        before = sum(counts)
        rep = real(fam, *args, **kwargs)
        seen.append(sum(counts) - before)
        return rep

    monkeypatch.setattr(quantize, "spectrum", counted)
    assert len(butterfly(F, 12, grid=(8, 8))) == 46
    assert len(seen) == calls
    assert max(seen) == solves


def _count_spectrum_calls(monkeypatch):
    """A list that gets the flux of every call of ``quantize.spectrum``,
    patched in each magbloch module that holds it, as the benchmark's
    tracer patches it."""
    real, fluxes = quantize.spectrum, []

    def counted(fam, *args, **kwargs):
        fluxes.append((fam.flux.p, fam.flux.q))
        return real(fam, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "magbloch" and vars(mod).get("spectrum") is real:
            monkeypatch.setattr(mod, "spectrum", counted)
    return fluxes


def test_every_grid_solve_goes_through_spectrum(monkeypatch):
    fluxes = _count_spectrum_calls(monkeypatch)
    L = make_lattice([1, 0], [0, 1])
    via = spectrum_via_GGdag(_a1_potential(L), L, 0, RationalFlux(2, 5),
                             grid=(8, 8), iota=-1)
    assert fluxes == [(2, 5)]
    assert (via.metadata["iota"], via.metadata["convention"]) == (-1, "harper")
    fluxes.clear()
    # Harper is mirror-even: only the 24 fluxes p/q with p <= q/2 are solved
    direct = [(r.flux.p, r.flux.q) for r in butterfly(HARPER, 12, grid=(8, 8))
              if "mirror_of" not in r.metadata]
    assert fluxes == direct and len(direct) == 24


_BAD_GRIDS = [(16.0, 16), (8, np.float64(8)), ("16", 16), (True, 16),
              (4, 16), (8, 8, 8), 16, None]
_BAD_TOL_BANDS = [-1.0, -1e-300, math.nan, math.inf, -math.inf, True, "0.1"]


@pytest.mark.parametrize("grid", _BAD_GRIDS, ids=repr)
def test_bad_grid_is_a_value_error_before_any_solve(monkeypatch, grid):
    counts = _count_solved_points(monkeypatch)
    L = make_lattice([1, 0], [0, 1])
    fam = quantize_series(HARPER, RationalFlux(1, 4))
    for solve in (lambda: spectrum(fam, grid=grid),
                  lambda: butterfly(HARPER, 3, grid=grid),
                  lambda: spectrum_via_GGdag(_a1_potential(L), L, 0,
                                             RationalFlux(1, 4), grid=grid)):
        with pytest.raises(ValueError, match="grid must be two integers"):
            solve()
    assert counts == []


@pytest.mark.parametrize("tol_band", _BAD_TOL_BANDS, ids=repr)
def test_bad_tol_band_is_a_value_error_before_any_solve(monkeypatch,
                                                        tol_band):
    # Harper at 1/4 has two central bands that touch at 0: a negative
    # tolerance would merge them into one
    counts = _count_solved_points(monkeypatch)
    fam = quantize_series(HARPER, RationalFlux(1, 4))
    for solve in (lambda: spectrum(fam, tol_band=tol_band),
                  lambda: butterfly(HARPER, 4, tol_band=tol_band)):
        with pytest.raises(ValueError, match="tol_band must be"):
            solve()
    assert counts == []


@pytest.mark.parametrize("tol_band", [0, 1e-9, np.float64(1e-9)])
def test_good_tol_band_keeps_the_touching_bands_apart(tol_band):
    rep = spectrum(quantize_series(HARPER, RationalFlux(1, 4)),
                   tol_band=tol_band)
    assert len(rep.bands) == 4
    assert rep.metadata["tol_band"] == tol_band


def test_mirrored_report_owns_its_data():
    twin, mirrored = butterfly(HARPER, 3, grid=(9, 13))[2:]
    assert mirrored.metadata["mirror_of"] == [1, 3]
    # i in {0, 4}, k in {0, 2} (3 k = 6 mod 13); each reflected,
    # (i, k) -> (-i mod 9, -k mod 13), row for row
    assert _sampled_points(twin).tolist() == [0, 2, 52, 54]
    assert _sampled_points(mirrored).tolist() == [0, 11, 65, 76]
    bands, metadata = list(twin.bands), copy.deepcopy(twin.metadata)
    samples = twin.samples.copy()
    mirrored.metadata["grid"].append(99)
    mirrored.metadata["chambers_points"][0][0] = 9.0
    mirrored.metadata["tol_band"] = 0.5
    mirrored.bands.append((9.0, 10.0))
    mirrored.samples[:] = 0.0
    assert twin.bands == bands and twin.metadata == metadata
    assert np.array_equal(twin.samples, samples)


def test_band_measure_decreases():
    reports = butterfly(HARPER, 2, iota=-1, grid=(32, 32))
    measure = {r.flux.q: sum(hi - lo for lo, hi in r.bands) for r in reports}
    assert measure[1] == pytest.approx(8.0)
    assert measure[2] < 8.0 - 1e-3


def test_almost_mathieu_zero_flux_circulant():
    fx = RationalFlux(0, 1)
    N = 16
    vals = np.sort(almost_mathieu_spectrum(fx, 0.0, N))
    want = np.sort(2.0 * np.cos(2 * math.pi * np.arange(N) / N) + 2.0)
    assert np.allclose(vals, want, atol=1e-12)


def test_almost_mathieu_norm_bound():
    rng = np.random.default_rng(2)
    for _ in range(5):
        q = int(rng.integers(2, 7))
        p = 1
        beta = float(rng.uniform(0, 2 * math.pi))
        vals = almost_mathieu_spectrum(RationalFlux(p, q), beta, 3 * q + 5)
        assert vals.min() >= -4.0 - 1e-12
        assert vals.max() <= 4.0 + 1e-12


def test_almost_mathieu_needs_enough_sites():
    with pytest.raises(ValueError):
        almost_mathieu_spectrum(RationalFlux(1, 5), 0.0, 10)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_almost_mathieu_union_matches_bands(q):
    # matched grids: the boundary phase of the N-site ring plays the role of
    # the second Bloch phase
    fx = RationalFlux(1, q)
    N = 4 * q
    betas = [2 * math.pi * i / 64 for i in range(64)]
    union = np.concatenate([almost_mathieu_spectrum(fx, b, N) for b in betas])
    fam = quantize_series(HARPER, fx, iota=1)
    fam_vals = np.concatenate(
        [np.linalg.eigvalsh(fam.matrix_at(b1, -2 * math.pi * l / N))
         for b1 in betas for l in range(N)])
    assert hausdorff_distance(union, fam_vals) < 1e-3


def test_zero_series_single_band():
    fam = quantize_series(FourierSeries2D({}, is_real=True), RationalFlux(1, 3))
    rep = spectrum(fam, grid=(8, 8))
    assert rep.bands == [(0.0, 0.0)]


def _dense_weyl_sum(F, fx, iota, convention, b1, b2):
    """Reference quantization: sum of c * phase * V^n U^m (or U^n V^m) with
    dense matrix powers of the clock/shift pair."""
    U, V = clock_shift(fx, iota, b1, b2)
    power = np.linalg.matrix_power
    sign = -1 if convention == "harper" else 1
    H = np.zeros((fx.q, fx.q), dtype=complex)
    for (n, m), c in F.coeffs.items():
        mono = power(V, n) @ power(U, m) if convention == "harper" \
            else power(U, n) @ power(V, m)
        H += c * np.exp(sign * 1j * math.pi * n * m * iota * fx.theta) * mono
    return H


def test_harper_family_matches_clock_shift_products_at_q97():
    # every mode |n|, |m| <= 3 of a real series: the clock phase of the
    # family and of clock_shift come from one exact residue, so the two
    # agree at roundoff even where 2 pi iota theta j reaches ~600
    F = FourierSeries2D({(n, m): 1.0 / (1 + abs(n) + 2 * abs(m))
                         for n in range(-3, 4) for m in range(-3, 4)},
                        is_real=True)
    for p, iota in ((1, -1), (35, 1), (96, -1)):
        fx = RationalFlux(p, 97)
        fam = quantize_series(F, fx, iota, "harper")
        for b1, b2 in ((0.0, 0.0), (0.4, 2.9), (5.1, 1.3)):
            want = _dense_weyl_sum(F, fx, iota, "harper", b1, b2)
            assert np.max(np.abs(fam.matrix_at(b1, b2) - want)) < 1e-14


_coeffs = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    max_size=6)
_fluxes = st.integers(1, 12).flatmap(
    lambda q: st.sampled_from([RationalFlux(p, q) for p in range(q)
                               if math.gcd(p, q) == 1]))
_phases = st.floats(0.0, 2.0 * math.pi)
_conventions = st.sampled_from(["harper", "hofstadter"])


@given(_coeffs, _fluxes, st.sampled_from([1, -1]), _conventions, _phases, _phases)
@settings(max_examples=150, deadline=None)
def test_weyl_kernel_matches_dense_powers(coeffs, fx, iota, convention, b1, b2):
    F = FourierSeries2D(coeffs)
    got = _weyl_sum(_weyl_modes(F, fx, iota, convention), fx, iota,
                    convention, b1, b2)
    want = _dense_weyl_sum(F, fx, iota, convention, b1, b2)
    assert np.max(np.abs(got - want)) < 1e-12


@given(_coeffs, _coeffs, _coeffs, _fluxes, st.sampled_from([1, -1]),
       _phases, _phases)
@settings(max_examples=75, deadline=None)
def test_block_family_matches_dense_powers(c00, c01, c11, fx, iota, b1, b2):
    b01 = FourierSeries2D(c01)
    blocks = [[FourierSeries2D(c00, is_real=True), b01],
              [b01.conj_reflect(), FourierSeries2D(c11, is_real=True)]]
    got = quantize_blocks(blocks, fx, iota).matrix_at(b1, b2)
    want = np.block([[_dense_weyl_sum(F, fx, iota, "harper", b1, b2)
                      for F in row] for row in blocks])
    assert np.max(np.abs(got - want)) < 1e-12


def test_hermiticity_check_reads_every_slice():
    # the scale and the residual come from the whole matrix, its last row
    # included
    n = 296
    H = np.zeros((n, n), dtype=complex)
    H[n - 1, n - 1] = 1e6
    H[n - 1, 3] = 1e-7
    assert _require_hermitian(H, 1e-12, "matrix") is H
    H[n - 1, n - 1] = 1.0
    with pytest.raises(NumericError, match="residual 1e-07"):
        _require_hermitian(H, 1e-12, "matrix")


@given(_coeffs, _coeffs, _coeffs, _fluxes, st.sampled_from([1, -1]),
       _conventions, st.lists(st.tuples(_phases, _phases), min_size=1,
                              max_size=6))
@settings(max_examples=75, deadline=None)
def test_stack_matches_single_points(c00, c01, c11, fx, iota, convention,
                                     points):
    b01 = FourierSeries2D(c01)
    blocks = [[FourierSeries2D(c00, is_real=True), b01],
              [b01.conj_reflect(), FourierSeries2D(c11, is_real=True)]]
    b1, b2 = np.array(points).T
    for fam in (quantize_series(blocks[0][0], fx, iota, convention),
                quantize_blocks(blocks, fx, iota)):
        stack = fam.matrix_at(b1, b2)
        assert stack.shape == (len(points), fam.dim, fam.dim)
        for H, (a, b) in zip(stack, points):
            assert np.max(np.abs(H - fam.matrix_at(a, b))) < 1e-12


def test_hermiticity_check_scales_each_matrix_of_a_stack():
    H = np.zeros((3, 4, 4), dtype=complex)
    H[0, 0, 0] = 1e6
    H[0, 1, 2] = 1e-7   # within rtol of max|H| of its own matrix
    assert _require_hermitian(H, 1e-12, "stack") is H
    H[2, 1, 2] = 1e-7   # the same residual in a matrix of norm below 1
    with pytest.raises(NumericError, match="residual 1e-07"):
        _require_hermitian(H, 1e-12, "stack")


def test_spectrum_does_not_depend_on_the_stack_size(monkeypatch):
    fx = RationalFlux(2, 7)
    L = make_lattice([1, 0], [0, 1])
    A = _a1_potential(L)
    fams = [quantize_series(F, fx, iota=-1) for F in (HARPER, _MIRROR_ODD[1])]
    one = [spectrum(fam, grid=(8, 16)) for fam in fams]
    one_via = spectrum_via_GGdag(A, L, 0, fx, grid=(8, 16))
    # 5 points per stack of Harper and of the reflection-odd complex
    # f_{1,0} (b = 2): Harper's 45 solved points in 9 stacks and all 128
    # points of the other in 26, the last one short; 15 per stack of
    # G G^dag (b = 0), its 45 solved points in 3 stacks
    monkeypatch.setattr(quantize, "_STACK_BYTES", 32 * 3 * 7 * 5)
    many = [spectrum(fam, grid=(8, 16)) for fam in fams]
    many_via = spectrum_via_GGdag(A, L, 0, fx, grid=(8, 16))
    for a, b in zip(one + [one_via], many + [many_via]):
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.bands == b.bands


@pytest.mark.parametrize("grid", [(8, 16), (16, 16)])
@pytest.mark.parametrize("p, q", [(1, 3), (2, 7), (3, 11)])
def test_band_edges_lie_at_chambers_points(p, q, grid):
    # Chambers' relation: the characteristic polynomial of Harper depends on
    # the phases only through cos(q beta1) + cos(q beta2), so every band edge
    # lies at q beta1, q beta2 in {0, pi}; an even grid samples them at odd q
    fam = quantize_series(HARPER, RationalFlux(p, q), iota=-1)
    rep = spectrum(fam, grid=grid)
    corners = np.array([np.linalg.eigvalsh(fam.matrix_at(b1, b2))
                        for b1 in (0.0, math.pi / q) for b2 in (0.0, math.pi / q)])
    assert len(rep.bands) == q
    edges = np.array([corners.min(axis=0), corners.max(axis=0)]).T
    assert np.max(np.abs(np.array(rep.bands) - edges)) < 1e-13


_CHAMBERS_SETS = [
    FourierSeries2D({(1, 0): 0.93, (-1, 0): 0.93, (0, 1): 1.17,
                     (0, -1): 1.17}, is_real=True),
    FourierSeries2D({(1, 0): -0.8, (-1, 0): -0.8, (0, 1): 1.3,
                     (0, -1): 1.3}, is_real=True),
    FourierSeries2D({(0, 0): 0.4, (1, 0): 1.1, (-1, 0): 1.1, (0, 1): -0.6,
                     (0, -1): -0.6}, is_real=True),
]


@pytest.mark.parametrize("grid", [(8, 16), (9, 13), (16, 16)])
@pytest.mark.parametrize("iota", [1, -1])
@pytest.mark.parametrize("F", _CHAMBERS_SETS,
                         ids=["real", "negative-f10", "with-f00"])
def test_butterfly_at_chambers_points_keeps_the_grid_bands(F, iota, grid):
    # every reduced p/q with q <= 20, the mirrored ones among them
    reports = butterfly(F, 20, iota=iota, grid=grid)
    assert len(reports) == len(reduced_fractions(20))
    for rep in reports:
        direct = spectrum(quantize_series(F, rep.flux, iota=iota), grid=grid)
        assert len(rep.bands) == len(direct.bands)
        assert np.max(np.abs(np.array(rep.bands) - direct.bands)) <= 1e-12
        assert 2 <= len(rep.samples) <= 4
        assert np.max(np.abs(
            rep.samples - direct.samples[_sampled_points(rep)])) <= 1e-12


@pytest.mark.parametrize("grid", [(8, 8), (8, 16), (9, 13), (16, 16)])
def test_chambers_points_hold_the_cosine_extremes(grid):
    n1, n2 = grid
    for q in range(1, 41):
        points = quantize._chambers_points(q, grid)
        assert np.all(np.diff(points) > 0) and points.size <= 4
        i, k = np.divmod(points, n2)
        for index, n, r in ((i, n1, np.arange(n1)),
                            (k, n2, q * np.arange(n2))):
            cos = np.cos(2 * math.pi * r / n)
            # the lowest index of the greatest and of the least cosine
            assert set(index.tolist()) == {
                int(np.flatnonzero(cos >= cos.max() - 1e-12)[0]),
                int(np.flatnonzero(cos <= cos.min() + 1e-12)[0])}


def _random_series(rng, modes, real=True):
    """A series on +-pairs of ``modes`` (conjugate amplitudes when real)."""
    coeffs = {(0, 0): rng.normal()}
    for n, m in modes:
        c = complex(rng.normal(), rng.normal())
        coeffs[(n, m)] = c
        coeffs[(-n, -m)] = c.conjugate() if real else complex(rng.normal(),
                                                              rng.normal())
    return FourierSeries2D(coeffs, is_real=real)


def _random_blocks(rng, m, modes):
    """A Hermitian m x m block symbol: real diagonal series, each upper
    block reflected into the lower one."""
    blocks = [[None] * m for _ in range(m)]
    for i in range(m):
        blocks[i][i] = _random_series(rng, modes)
        for k in range(i + 1, m):
            blocks[i][k] = _random_series(rng, modes, real=False)
            blocks[k][i] = blocks[i][k].conj_reflect()
    return blocks


_NEAR = [(1, 0), (0, 1)]
_WIDE = [(1, 0), (0, 1), (3, 2), (2, -3), (-1, 3)]


def _families():
    rng = np.random.default_rng(11)
    for q in (1, 2, 3, 16, 50):
        fx = RationalFlux(1 if q > 1 else 0, q)
        for convention in ("harper", "hofstadter"):
            for modes in (_NEAR, _WIDE):
                yield quantize_series(_random_series(rng, modes), fx, -1,
                                      convention)
        for m in (2, 3):
            yield quantize_blocks(_random_blocks(rng, m, _NEAR), fx, 1)
    # a wide band: the hofstadter shifts +-3 of a q = 40 family
    yield quantize_series(_random_series(rng, [(1, 3), (2, 1)]),
                          RationalFlux(3, 40), 1, "hofstadter")


def _family_id(fam):
    return (f"{fam.convention}-q{fam.flux.q}-dim{fam.dim}"
            f"-modes{sum(len(t[2]) for t in fam.block_modes)}")


@pytest.mark.parametrize("fam", list(_families()), ids=_family_id)
def test_band_path_matches_dense(fam):
    q, dim = fam.flux.q, fam.dim
    b1 = np.array([0.0, 0.3, 1.7, 5.9])
    b2 = np.array([0.0, 2.2, 4.1, 0.8])
    b = _bandwidth(q, dim, fam._shifts())
    dense = fam.matrix_at(b1, b2)
    # the band and its mirror hold the dense entries bit for bit
    band, mirror = _band_stack(q, dim, b, fam._terms_at(b1, b2), len(b1))
    m = dim // q
    orig = np.empty(dim, dtype=int)        # original index at each position
    i, j = np.divmod(np.arange(dim), q)
    orig[_fold(q)[j] * m + i] = np.arange(dim)
    for d in range(b + 1):
        c = np.arange(dim - d)
        assert np.array_equal(band[:, d, c], dense[:, orig[c + d], orig[c]])
        assert np.array_equal(mirror[:, d, c], dense[:, orig[c], orig[c + d]])
        assert not band[:, d, dim - d:].any() and not mirror[:, d, dim - d:].any()
    want = np.linalg.eigvalsh(dense)
    got = _band_eigvalsh(q, dim, b, fam._terms_at(b1, b2), b1, b2)
    assert np.max(np.abs(got - want)) < 1e-12
    # spectrum solves every family on the band path
    rep = spectrum(fam, grid=(8, 8))
    assert rep.metadata["eigensolver"] == "lapack-banded"
    assert rep.metadata["bandwidth"] == b
    n1, n2 = 8, 8
    g1 = np.repeat(2.0 * math.pi / q * np.arange(n1) / n1, n2)
    g2 = np.tile(2.0 * math.pi * np.arange(n2) / n2, n1)
    assert np.max(np.abs(rep.samples
                         - np.linalg.eigvalsh(fam.matrix_at(g1, g2)))) < 1e-12


@pytest.mark.parametrize("fam", list(_families()), ids=_family_id)
def test_spectrum_is_2pi_over_q_periodic_in_both_phases(fam):
    # a shift of beta1 or beta2 by 2 pi/q is a conjugation by a power of
    # the shift or of the clock; the grid and its beta -> -beta map
    # (_reflected_points) rely on it
    q = fam.flux.q
    b1 = np.array([0.0, 0.3, 1.7, 5.9])
    b2 = np.array([0.0, 2.2, 4.1, 0.8])
    want = np.linalg.eigvalsh(fam.matrix_at(b1, b2))
    step = 2.0 * math.pi / q
    for s1, s2 in ((step, 0.0), (0.0, step)):
        got = np.linalg.eigvalsh(fam.matrix_at(b1 + s1, b2 + s2))
        assert np.max(np.abs(got - want)) < 1e-12


def _grid_phases(q, grid):
    """The Bloch phases of the n1 x n2 grid of ``spectrum``, beta1-major."""
    n1, n2 = grid
    return (np.repeat(2.0 * math.pi / q * np.arange(n1) / n1, n2),
            np.tile(2.0 * math.pi * np.arange(n2) / n2, n1))


def _even_series(rng, modes):
    """A real series with real amplitudes, so c_{-n,-m} == c_{n,m}."""
    coeffs = {(0, 0): rng.normal()}
    for n, m in modes:
        coeffs[(n, m)] = coeffs[(-n, -m)] = rng.normal()
    return FourierSeries2D(coeffs, is_real=True)


def _inversion_cases():
    """(family, inversion-even) pairs: real symmetric series in both
    conventions, an even 2 x 2 block family with a complex coupling, and
    the complex f_{1,0} and f_{1,1} that break the rule."""
    rng = np.random.default_rng(23)
    for q in (1, 2, 3, 16, 50):
        fx = RationalFlux(1 if q > 1 else 0, q)
        for convention in ("harper", "hofstadter"):
            yield quantize_series(_even_series(rng, _WIDE), fx, -1,
                                  convention), True
    c = 0.3 - 0.4j
    g = FourierSeries2D({(1, 0): c, (-1, 0): c, (0, 1): 0.2j, (0, -1): 0.2j})
    blocks = [[_even_series(rng, _NEAR), g],
              [g.conj_reflect(), _even_series(rng, _NEAR)]]
    yield quantize_blocks(blocks, RationalFlux(2, 7)), True
    yield quantize_series(_MIRROR_ODD[1], RationalFlux(2, 7)), False
    f11 = 0.5 * np.exp(0.3j)
    F = FourierSeries2D({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0,
                         (1, 1): f11, (-1, -1): f11.conjugate()}, is_real=True)
    yield quantize_series(F, RationalFlux(3, 11)), False


def _count_solved_points(monkeypatch):
    """A list that gets the number of points of every call of
    ``_band_eigvalsh``."""
    real, counts = quantize._band_eigvalsh, []

    def counted(*args):
        counts.append(len(args[4]))
        return real(*args)

    monkeypatch.setattr(quantize, "_band_eigvalsh", counted)
    return counts


def _expected_solves(grid, inversion, flip=False):
    """The number of orbits of the grid under the reflections a family
    passes, by Burnside's count: the mean number of points each group
    element fixes.  i == -i mod n1 at f1 indices (0 and, on an even axis,
    n1 / 2), k == -k mod n2 at f2."""
    n1, n2 = grid
    f1, f2 = 2 - n1 % 2, 2 - n2 % 2
    fixed = [n1 * n2]
    if inversion:
        fixed.append(f1 * f2)
    if flip:
        fixed.append(n1 * f2)
    if inversion and flip:
        fixed.append(f1 * n2)
    return sum(fixed) // len(fixed)


_GRIDS = [(8, 8), (8, 16), (9, 11)]
_INVERSION_CASES = list(_inversion_cases())


@pytest.mark.parametrize("grid", _GRIDS)
@pytest.mark.parametrize("fam, even", _INVERSION_CASES, ids=[
    f"{_family_id(fam)}-{'even' if even else 'odd'}"
    for fam, even in _INVERSION_CASES])
def test_spectrum_solves_one_point_per_inversion_pair(monkeypatch, fam, even,
                                                      grid):
    assert quantize._inversion_even(fam) is even
    assert quantize._flip_even(fam) is False
    counts = _count_solved_points(monkeypatch)
    rep = spectrum(fam, grid=grid)
    assert sum(counts) == _expected_solves(grid, even)
    q, dim = fam.flux.q, fam.dim
    g1, g2 = _grid_phases(q, grid)
    assert rep.samples.shape == (g1.size, dim)
    dense = np.linalg.eigvalsh(fam.matrix_at(g1, g2))
    assert np.max(np.abs(rep.samples - dense)) < 1e-12
    if not even:
        # the full solve, every point in one stack, keeps its bits
        b = _bandwidth(q, dim, fam._shifts())
        full = _band_eigvalsh(q, dim, b, fam._terms_at(g1, g2), g1, g2)
        assert rep.samples.tobytes() == full.tobytes()


@pytest.mark.parametrize("grid", _GRIDS)
def test_ggdag_solves_one_point_per_inversion_pair(monkeypatch, grid):
    L = make_lattice([1, 0], [0, 1])
    A = _a1_potential(L)
    fx = RationalFlux(2, 7)
    counts = _count_solved_points(monkeypatch)
    via = spectrum_via_GGdag(A, L, 1, fx, grid=grid)
    # G G^dag of g on (0, +-1) passes both reflections: 25, 45, 30 solves
    assert sum(counts) == _expected_solves(grid, True, True)
    g1, g2 = _grid_phases(fx.q, grid)
    dense = np.linalg.eigvalsh(two_band_model(A, L, 1, fx).family.matrix_at(
        g1, g2))
    assert np.max(np.abs(via.samples - dense)) < 1e-12


def test_band_layout_bounds_a_shift():
    # a shift by s moves a clock index at most 2|s| positions in the fold
    for q in (1, 2, 5, 16, 17):
        f = _fold(q)
        assert sorted(f) == list(range(q))
        j = np.arange(q)
        for s in range(-3, 4):
            assert np.max(np.abs(f[(j + s) % q] - f)) <= 2 * abs(s)


def test_band_path_rejects_a_non_hermitian_block_table():
    fx = RationalFlux(1, 50)
    c = FourierSeries2D({(0, 0): 1.0}, is_real=True)
    g = FourierSeries2D({(0, 1): 0.5j, (0, -1): 0.25})
    fam = quantize_blocks([[c, g], [g, c]], fx)   # (1, 0) should reflect g
    with pytest.raises(NumericError, match="lost Hermiticity"):
        spectrum(fam, grid=(8, 8))


def test_band_solver_failure_names_the_bloch_point(monkeypatch):
    fam = quantize_series(HARPER, RationalFlux(1, 16), iota=-1)
    monkeypatch.setattr(quantize, "_ZHBEVD", lambda ab, compute_v, lower: (
        np.zeros(ab.shape[1]), None, 3))
    with pytest.raises(NumericError, match=r"beta=\(0.0, 0.0\).*info 3"):
        spectrum(fam, grid=(8, 8))


def _a1_potential(L):
    """f1 = cos(2 pi x): g has the modes (0, +-1), so G does not shift."""
    return PeriodicVectorPotential(
        FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5}, is_real=True),
        FourierSeries2D({}, is_real=True), L)


def _a2_potential(L):
    """f2 = cos(2 pi y): g has the modes (+-1, 0), so G shifts by +-1."""
    return PeriodicVectorPotential(
        FourierSeries2D({}, is_real=True),
        FourierSeries2D({(1, 0): 0.5, (-1, 0): 0.5}, is_real=True), L)


def _reflection_cases():
    """(name, family, inversion-even, flip-even) of reflection-even
    families, and of reflection-odd ones, which may still be
    inversion-even."""
    L = make_lattice([1, 0], [0, 1])
    fx = RationalFlux(2, 7)
    imag_f01 = FourierSeries2D({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.4j,
                                (0, -1): -0.4j}, is_real=True)
    f10 = 0.9 * np.exp(0.7j)
    complex_f10 = FourierSeries2D({(1, 0): f10, (-1, 0): f10.conjugate(),
                                   (0, 1): 1.1, (0, -1): 1.1}, is_real=True)
    A = _a1_potential(L)
    for iota in (1, -1):
        yield "harper-real", quantize_series(HARPER, fx, iota), True, True
        yield ("harper-imaginary-f01", quantize_series(imag_f01, fx, iota),
               False, True)
        yield ("hofstadter-complex-f10",
               quantize_series(complex_f10, fx, iota, "hofstadter"),
               False, True)
        yield "two-band", two_band_model(A, L, 1, fx, iota).family, True, True
        yield ("ggdag", quantize_series(_twisted_square(A.g, fx, iota), fx,
                                        iota), True, True)
        yield ("harper-complex-f10", quantize_series(complex_f10, fx, iota),
               False, False)
        yield ("hofstadter-imaginary-f01",
               quantize_series(imag_f01, fx, iota, "hofstadter"), False, False)
        for convention in ("harper", "hofstadter"):
            yield (f"{convention}-real-f11", quantize_series(
                _MIRROR_ODD[0], fx, iota, convention), True, False)


_REFLECTION_CASES = list(_reflection_cases())
_REFLECTION_IDS = [f"{name}-iota{fam.iota}"
                   for name, fam, _, _ in _REFLECTION_CASES]


def _chambers_cases():
    """(family, whether it passes the Chambers rule)."""
    fx = RationalFlux(2, 7)
    L = make_lattice([1, 0], [0, 1])
    imag_f01 = FourierSeries2D({(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.4j,
                                (0, -1): -0.4j}, is_real=True)
    rounded = FourierSeries2D({(1, 0): 1 + 1e-17j, (-1, 0): 1 - 1e-17j,
                               (0, 1): 1.0, (0, -1): 1.0}, is_real=True)
    for iota in (1, -1):
        for convention in ("harper", "hofstadter"):
            yield quantize_series(HARPER, fx, iota, convention), True
            yield quantize_series(_CHAMBERS_SETS[2], fx, iota, convention), True
            for F in _MIRROR_ODD + [imag_f01, rounded]:
                yield quantize_series(F, fx, iota, convention), False
        yield two_band_model(_a1_potential(L), L, 1, fx, iota).family, False


@pytest.mark.parametrize("fam, chambers", list(_chambers_cases()))
def test_only_chambers_families_leave_the_grid(fam, chambers):
    # a (1, 1) mode, a complex weight (even by rounding) or a second block
    # keeps the whole grid, bit for bit as spectrum has it
    assert quantize._chambers(fam) is chambers
    rep = quantize.spectrum(fam, (8, 16), edges_only=True)
    direct = spectrum(fam, grid=(8, 16))
    assert ("chambers_points" in rep.metadata) is chambers
    if chambers:
        assert len(rep.samples) == 4
        assert np.allclose(rep.bands, direct.bands, rtol=0, atol=1e-12)
    else:
        assert rep.bands == direct.bands
        assert np.array_equal(rep.samples, direct.samples)


@pytest.mark.parametrize("name, fam, inversion, flip", _REFLECTION_CASES,
                         ids=_REFLECTION_IDS)
def test_conjugation_flips_beta2_exactly_for_flip_even_families(
        name, fam, inversion, flip):
    # conj U(beta1) = U(beta1)^-1 and conj V(beta2) = V(-beta2), so a
    # flip-even family has conj H(beta1, beta2) = H(beta1, -beta2) bit for
    # bit; a flip-odd one does not
    assert quantize._inversion_even(fam) is inversion
    assert quantize._flip_even(fam) is flip
    rng = np.random.default_rng(5)
    b1, b2 = rng.uniform(0.0, 2.0 * math.pi, (2, 6))
    assert np.array_equal(np.conj(fam.matrix_at(b1, b2)),
                          fam.matrix_at(b1, -b2)) is flip


@pytest.mark.parametrize("grid", _GRIDS + [(16, 16)])
@pytest.mark.parametrize("name, fam, inversion, flip", _REFLECTION_CASES,
                         ids=_REFLECTION_IDS)
def test_spectrum_solves_one_point_per_reflection_orbit(
        monkeypatch, name, fam, inversion, flip, grid):
    counts = _count_solved_points(monkeypatch)
    rep = spectrum(fam, grid=grid)
    assert sum(counts) == _expected_solves(grid, inversion, flip)
    g1, g2 = _grid_phases(fam.flux.q, grid)
    dense = np.linalg.eigvalsh(fam.matrix_at(g1, g2))
    assert np.max(np.abs(rep.samples - dense)) < 1e-12


def test_orbit_counts_match_burnside():
    for grid in _GRIDS + [(16, 16)]:
        points = np.arange(grid[0] * grid[1])
        for inversion in (False, True):
            for flip in (False, True):
                source = quantize._orbit_sources(grid, inversion, flip)
                assert source[0] == 0
                assert np.all(source <= points)
                assert (np.count_nonzero(source == points)
                        == _expected_solves(grid, inversion, flip))
    assert [_expected_solves(g, True, True) for g in _GRIDS + [(16, 16)]] \
        == [25, 45, 30, 81]


@pytest.mark.parametrize("q", [3, 5, 40])
def test_ggdag_with_shifting_G_matches_dense_two_band(q):
    L = make_lattice([1, 0], [0, 1])
    A = _a2_potential(L)
    fx = RationalFlux(1, q)
    via = spectrum_via_GGdag(A, L, 1, fx, grid=(8, 8))
    # G G^dag shifts by 0 and +-2: band width 4, solved banded at every q
    assert via.metadata["eigensolver"] == "lapack-banded"
    fam = two_band_model(A, L, 1, fx).family
    b1 = np.repeat(2.0 * math.pi / q * np.arange(8) / 8, 8)
    b2 = np.tile(2.0 * math.pi * np.arange(8) / 8, 8)
    dense = np.linalg.eigvalsh(fam.matrix_at(b1, b2))
    assert np.max(np.abs(via.samples - dense)) < 1e-12


def _skewed_potential(L):
    """f1 = m c, f2 = -n c on each +-mode pair (the gauge condition), on
    the modes (0, 1), (1, 1) and (2, -1)."""
    f1, f2 = {}, {}
    for (n, m), c in (((0, 1), 0.4), ((1, 1), 0.3 - 0.2j), ((2, -1), 0.1j)):
        f1[(n, m)], f1[(-n, -m)] = m * c, m * c.conjugate()
        f2[(n, m)], f2[(-n, -m)] = -n * c, -n * c.conjugate()
    return PeriodicVectorPotential(FourierSeries2D(f1, is_real=True),
                                   FourierSeries2D(f2, is_real=True), L)


SKEWED_LATTICES = [make_lattice([1, 0], [0.35, 1.2]),
                   make_lattice([1.3, 0.2], [-0.4, 0.9])]


@pytest.mark.parametrize("L", SKEWED_LATTICES)
@pytest.mark.parametrize("iota", [1, -1])
@pytest.mark.parametrize("p, q", [(1, 3), (2, 7), (1, 40), (3, 11)])
def test_twisted_square_quantizes_G_G_dag(L, iota, p, q):
    fx = RationalFlux(p, q)
    g = _skewed_potential(L).g
    b1 = np.array([0.0, 0.4, 5.1, 2.2])
    b2 = np.array([0.0, 2.9, 1.3, 6.0])
    G = _weyl_sum(_weyl_modes(g, fx, iota, "harper"), fx, iota, "harper",
                  b1, b2)
    want = G @ G.conj().swapaxes(-1, -2)
    got = quantize_series(_twisted_square(g, fx, iota), fx, iota).matrix_at(
        b1, b2)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("L", SKEWED_LATTICES)
@pytest.mark.parametrize("p, q", [(2, 7), (3, 11)])
def test_ggdag_of_several_modes_matches_dense_two_band(L, p, q):
    A = _skewed_potential(L)
    fx = RationalFlux(p, q)
    via = spectrum_via_GGdag(A, L, 1, fx, grid=(8, 8))
    fam = two_band_model(A, L, 1, fx).family
    b1 = np.repeat(2.0 * math.pi / q * np.arange(8) / 8, 8)
    b2 = np.tile(2.0 * math.pi * np.arange(8) / 8, 8)
    dense = np.linalg.eigvalsh(fam.matrix_at(b1, b2))
    assert np.max(np.abs(via.samples - dense)) < 1e-12


def test_ggdag_negative_eigenvalue_is_a_numeric_error(monkeypatch):
    L = make_lattice([1, 0], [0, 1])
    real = quantize._band_eigvalsh
    monkeypatch.setattr(quantize, "_band_eigvalsh",
                        lambda *args: real(*args) - 1.0)
    with pytest.raises(NumericError, match="not positive semidefinite"):
        spectrum_via_GGdag(_a2_potential(L), L, 0, RationalFlux(1, 40),
                           grid=(8, 8))
