import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbloch.errors import GaugeError, GeometryError
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              harper_potential, laplacian_DzDzbar,
                              make_lattice)
from reference import (directional_derivative_Dz,
                       directional_derivative_Dzbar, eval_series)


def test_square_duals(square):
    assert np.allclose(square.a_star, [1, 0])
    assert np.allclose(square.b_star, [0, 1])
    assert square.area == 1.0


def test_rectangular_duals():
    L = make_lattice([2, 0], [0, 1])
    assert np.allclose(L.a_star, [0.5, 0])
    assert np.allclose(L.b_star, [0, 1])
    assert L.area == 2.0


def test_hexagonal_duals(hexagonal):
    # derived by the duality relations themselves
    for u, v, want in [(hexagonal.a_star, hexagonal.a, 1.0),
                       (hexagonal.a_star, hexagonal.b, 0.0),
                       (hexagonal.b_star, hexagonal.b, 1.0),
                       (hexagonal.b_star, hexagonal.a, 0.0)]:
        assert abs(float(u @ v) - want) < 1e-12
    assert np.allclose(hexagonal.a_star, [1, -1 / math.sqrt(3)])
    assert np.allclose(hexagonal.b_star, [0, 2 / math.sqrt(3)])


def test_degenerate_rejected():
    with pytest.raises(GeometryError):
        make_lattice([1, 0], [2, 0])
    with pytest.raises(GeometryError):
        make_lattice([0, 1], [1, 0])  # negative orientation


@given(st.tuples(*[st.floats(-3, 3) for _ in range(4)]))
@settings(max_examples=150, deadline=None)
def test_duality_and_frame_properties(vec):
    a1, a2, b1, b2 = vec
    area = a1 * b2 - a2 * b1
    if area <= 1e-3:
        return
    L = make_lattice([a1, a2], [b1, b2])
    assert abs(L.a_star @ L.a - 1) < 1e-12
    assert abs(L.b_star @ L.b - 1) < 1e-12
    assert abs(L.a_star @ L.b) < 1e-12
    assert abs(L.b_star @ L.a) < 1e-12
    # unimodular complexified frame
    assert abs(abs((L.z_a.conjugate() * L.z_b).imag) - 1.0) < 1e-12
    # Lagrange identity |z_a|^2 |z_b|^2 - Re(z_a conj z_b)^2 = 1, evaluated
    # exactly on the stored floats: in floating point the two terms are of
    # size ~1/area^2 and their difference loses ~eps/area^2 to cancellation.
    xa, ya, xb, yb = (Fraction(c) for c in (L.z_a.real, L.z_a.imag,
                                            L.z_b.real, L.z_b.imag))
    q = (xa * xa + ya * ya) * (xb * xb + yb * yb) - (xa * xb + ya * yb) ** 2
    assert abs(float(q) - 1.0) < 1e-9


def test_eval_constant():
    F = FourierSeries2D({(0, 0): 1.0}, is_real=True)
    for pt in [(0.0, 0.0), (0.3, 0.7), (-1.2, 2.4)]:
        assert eval_series(F, *pt) == pytest.approx(1.0)


def test_eval_harper(harper):
    assert eval_series(harper, 0.0, 0.0) == pytest.approx(4.0)
    # 2 cos(pi/2) + 2 cos(pi)
    assert eval_series(harper, 0.25, 0.5) == pytest.approx(-2.0)


def test_real_series_real_values(harper):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = eval_series(harper, *rng.uniform(0, 1, size=2))
        assert isinstance(x, float)


def test_real_symmetrization():
    F = FourierSeries2D({(1, 2): 1 + 1j}, is_real=True)
    assert F[(1, 2)] == pytest.approx(0.5 + 0.5j)
    assert F[(-1, -2)] == pytest.approx(0.5 - 0.5j)


def test_dz_constant_and_single_mode(square):
    const = FourierSeries2D({(0, 0): 2.0}, is_real=True)
    assert directional_derivative_Dz(const, square).max_abs() == 0.0
    F = FourierSeries2D({(0, 1): 1.0})
    out = directional_derivative_Dz(F, square)
    assert out[(0, 1)] == pytest.approx(2j * math.pi * square.z_a)


def test_laplacian_square_mode(square):
    F = FourierSeries2D({(1, 0): 1.0})
    out = laplacian_DzDzbar(F, square)
    assert out[(1, 0)] == pytest.approx(-4 * math.pi ** 2)


def test_laplacian_harper_square(square, harper):
    # second-order operator degenerates to a multiple of the identity here
    out = laplacian_DzDzbar(harper, square)
    for nm, c in harper.coeffs.items():
        assert out[nm] == pytest.approx(-4 * math.pi ** 2 * c)


def test_laplacian_hexagonal_mode(hexagonal):
    F = FourierSeries2D({(1, 1): 1.0})
    got = laplacian_DzDzbar(F, hexagonal)[(1, 1)]
    aa = hexagonal.a @ hexagonal.a
    bb = hexagonal.b @ hexagonal.b
    ab = hexagonal.a @ hexagonal.b
    want = -(2 * math.pi) ** 2 / hexagonal.area * (aa + bb - 2 * ab)
    assert got == pytest.approx(want)


@pytest.mark.parametrize("lat", ["square", "hexagonal"])
def test_dz_composition_matches_laplacian(lat, request, harper):
    L = request.getfixturevalue(lat)
    one = directional_derivative_Dzbar(directional_derivative_Dz(harper, L), L)
    two = laplacian_DzDzbar(harper, L)
    for nm in set(one.coeffs) | set(two.coeffs):
        assert abs(one[nm] - two[nm]) < 1e-12


def test_gauge_condition_enforced(square):
    f1 = FourierSeries2D({(1, 1): 0.5, (-1, -1): 0.5}, is_real=True)
    f2 = FourierSeries2D({}, is_real=True)
    with pytest.raises(GaugeError):
        PeriodicVectorPotential(f1, f2, square)
    # compensating second component restores the gauge: n*f1 + m*f2 = 0
    f2_ok = FourierSeries2D({(1, 1): -0.5, (-1, -1): -0.5}, is_real=True)
    A = PeriodicVectorPotential(f1, f2_ok, square)
    for nm in A.f1.coeffs:
        n, m = nm
        assert abs(n * A.f1[nm] + m * A.f2[nm]) < 1e-15


def test_g_component(one_mode_potential, square):
    A = one_mode_potential
    want = square.z_a * 0.5 / math.sqrt(2)
    assert A.g[(0, 1)] == pytest.approx(want)
    assert A.g[(0, -1)] == pytest.approx(want)
