import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magbloch import fock
from magbloch.errors import TruncationError
from magbloch.fock import (FockTruncation, I_generator, _hermite_jacobi_eigh,
                           alpha_coefficient, ladder, xi_matrix)
from magbloch.lattice import make_lattice
from magbloch.quantize import _require_hermitian
from reference import displacement_exp

SKEWED = make_lattice([1.0, 0.0], [0.35, 1.2])


def test_ladder_small():
    T = FockTruncation(n_max=1, guard=0)
    a, ad = ladder(T)
    assert np.array_equal(a, [[0, 1], [0, 0]])
    assert np.array_equal(ad, a.conj().T)


def test_ladder_commutator():
    T = FockTruncation(n_max=9, guard=2)
    a, ad = ladder(T)
    comm = a @ ad - ad @ a
    want = np.eye(T.dim)
    want[-1, -1] = -T.n_max
    assert np.allclose(comm, want, atol=1e-14)
    e0 = np.zeros(T.dim)
    e0[0] = 1.0
    assert np.allclose(comm @ e0, e0)


def test_xi_matrix():
    T = FockTruncation(n_max=8, guard=2)
    X = xi_matrix(T)
    assert X[0, 0] == 0.5
    assert X[3, 3] == 3.5
    a, ad = ladder(T)
    # defining identity, at the roundoff of sqrt(n)^2
    assert np.max(np.abs(X - (ad @ a + 0.5 * np.eye(T.dim)))) < 1e-12


def test_ladder_weyl_relation():
    # a Xi - Xi a = a exactly on the truncated space
    T = FockTruncation(n_max=14, guard=4)
    a, _ = ladder(T)
    X = xi_matrix(T)
    assert np.max(np.abs(a @ X - X @ a - a)) < 1e-12


def _from_diagonals(z, T):
    """The dense matrix of the two off-diagonals that
    ``fock._quadrature_diagonals`` gives, the ones ``symbols`` reads."""
    k = np.arange(1, T.dim)
    X = np.zeros((T.dim, T.dim), dtype=complex)
    X[k - 1, k], X[k, k - 1] = fock._quadrature_diagonals(z, T)
    return X


def test_fast_pair_commutator(square):
    T = FockTruncation(n_max=10, guard=2)
    Q, P = _from_diagonals(square.z_a, T), _from_diagonals(square.z_b, T)
    comm = Q @ P - P @ Q
    want = 1j * np.eye(T.dim)
    # truncation corrupts only the top diagonal entry
    assert np.max(np.abs((comm - want)[:-1, :-1])) < 1e-14


@pytest.mark.parametrize("n_max", [1, 2, 30, 200])
def test_fast_pair_has_the_bits_of_the_ladder_formula(n_max):
    T = FockTruncation(n_max=n_max, guard=0)
    n = np.arange(1, T.dim)
    a = np.zeros((T.dim, T.dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    ad = a.conj().T
    for L in (make_lattice([1, 0], [0, 1]), SKEWED,
              make_lattice([1, 0], [0.5, math.sqrt(3) / 2]),
              make_lattice([0, 1], [-1, 0])):
        for z in (L.z_a, L.z_b):
            want = (z * a + z.conjugate() * ad) / math.sqrt(2.0)
            assert _from_diagonals(z, T).tobytes() == want.tobytes()


def test_I_generator(square):
    T = FockTruncation(n_max=10, guard=2)
    assert np.max(np.abs(I_generator(0, 0, square, T))) == 0.0
    # square lattice mode (1, 0): alpha = z_b/sqrt(2) = -i/sqrt(2)
    a, ad = ladder(T)
    got = I_generator(1, 0, square, T)
    want = (-1j * a + 1j * ad) / math.sqrt(2)
    assert np.max(np.abs(got - want)) < 1e-14
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, m = rng.integers(-5, 6, size=2)
        _require_hermitian(I_generator(int(n), int(m), square, T), 1e-14,
                           "I generator")


def test_displacement_identity_cases(square):
    T = FockTruncation(n_max=12, guard=4)
    assert np.allclose(displacement_exp(0.0, 1, 0, square, T), np.eye(T.dim))
    assert np.allclose(displacement_exp(0.7, 0, 0, square, T), np.eye(T.dim))


def test_displacement_unitary(square):
    T = FockTruncation(n_max=30, guard=6)
    U = displacement_exp(1.3, 1, -2, square, T)
    assert np.max(np.abs(U @ U.conj().T - np.eye(T.dim))) < 1e-10


def test_displacement_gaussian_overlap(square):
    # <0|exp(it I)|0> = exp(-t^2 |alpha|^2 / 2); independent oracle: Taylor
    # summation of the exponential series at n_max = 80
    T = FockTruncation(n_max=80, guard=8)
    t = 0.9
    n, m = 1, 0
    alpha = alpha_coefficient(n, m, square)
    U = displacement_exp(t, n, m, square, T)
    want = math.exp(-t * t * abs(alpha) ** 2 / 2.0)
    assert U[0, 0] == pytest.approx(want, abs=1e-10)
    gen = I_generator(n, m, square, T)
    term = np.eye(T.dim, dtype=complex)
    taylor = np.eye(T.dim, dtype=complex)
    for k in range(1, 120):
        term = term @ (1j * t * gen) / k
        taylor += term
    assert abs(taylor[0, 0] - U[0, 0]) < 1e-10


@given(st.integers(-3, 3), st.integers(-3, 3), st.floats(0.0, math.pi),
       st.sampled_from([12, 40, 200]))
@settings(max_examples=40, deadline=None)
def test_displacement_matches_expm(n, m, t, n_max):
    # the Hermite-Jacobi route against a dense Pade exponential of the
    # complex generator, on a skewed lattice, over the whole matrix
    T = FockTruncation(n_max=n_max, guard=6)
    U = displacement_exp(t, n, m, SKEWED, T)
    want = scipy.linalg.expm(1j * t * I_generator(n, m, SKEWED, T))
    assert np.max(np.abs(U - want)) < 1e-12
    assert np.max(np.abs(U @ U.conj().T - np.eye(T.dim))) < 1e-12


def test_hermite_jacobi_nodes_are_gauss_hermite():
    x, U = _hermite_jacobi_eigh(60)
    nodes = np.polynomial.hermite_e.hermegauss(60)[0]
    # relative to the node: the outer nodes (|x| ~ 14) differ by 3 ulp
    assert np.all(np.abs(x - nodes) <= 5e-15 * np.maximum(1.0, np.abs(nodes)))
    J = np.diag(np.sqrt(np.arange(1.0, 60)), 1)
    J = J + J.T
    assert np.max(np.abs((U * x) @ U.T - J)) < 1e-12
    # one cached, read-only eigendecomposition per basis size
    assert _hermite_jacobi_eigh(60)[1] is U
    assert not x.flags.writeable and not U.flags.writeable


def test_truncation_stability(square):
    # scalars inside the guard band move by < 1e-8 when n_max grows by 8
    vals = {}
    for n_max in (40, 48):
        T = FockTruncation(n_max=n_max, guard=6)
        U = displacement_exp(1.1, 1, 1, square, T)
        vals[n_max] = U[2, 3]
    assert abs(vals[40] - vals[48]) < 1e-8


def test_truncation_guards():
    with pytest.raises(TruncationError):
        FockTruncation(n_max=0)
    with pytest.raises(TruncationError):
        FockTruncation(n_max=4, guard=5)
    T = FockTruncation(n_max=10, guard=4)
    with pytest.raises(TruncationError):
        T.require(order=4, max_band=1)
