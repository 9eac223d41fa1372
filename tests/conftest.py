import numpy as np
import pytest

from magbloch import symbols
from magbloch.lattice import (FourierSeries2D, PeriodicVectorPotential,
                              harper_potential, make_lattice)


@pytest.fixture(autouse=True)
def _empty_share_memo():
    """Each test starts with an empty remainder-share memo, so what a test
    counts does not depend on the tests that ran before it."""
    symbols._SHARE_MEMO.clear()


@pytest.fixture
def square():
    return make_lattice([1.0, 0.0], [0.0, 1.0])


@pytest.fixture
def hexagonal():
    return make_lattice([1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0])


@pytest.fixture
def harper():
    return harper_potential()


@pytest.fixture
def one_mode_potential(square):
    """f1 = cos(2 pi x), f2 = 0; divergence-free since f1 has no first-slot
    dependence."""
    f1 = FourierSeries2D({(0, 1): 0.5, (0, -1): 0.5}, is_real=True)
    f2 = FourierSeries2D({}, is_real=True)
    return PeriodicVectorPotential(f1, f2, square)
