import cmath
import math

import pytest

from cp1graft.moebius import INFINITY, cp1
from cp1graft.surface import FNCoordinates, GroupWord, fuchsian_from_fn, limit_set_sample
from cp1graft.grafting import GraftedStructure, WeightedMulticurve
from cp1graft.thurston import DiskComplementDomain

TWO_PI = 2.0 * math.pi


def limit_domain(gs):
    """The domain off the depth-4 limit-set sample of the structure's
    Fuchsian holonomy, which the covering checks keep their loops clear of."""
    return DiskComplementDomain(limit_set_sample(gs.hol, 4))


@pytest.fixture(scope="session")
def holonomy():
    return fuchsian_from_fn(FNCoordinates((2.0, 2.5, 1.7), (0.3, -0.8, 1.1)))


@pytest.fixture(scope="session")
def symmetric_holonomy():
    return fuchsian_from_fn(FNCoordinates((1.8, 1.8, 1.8)))


@pytest.fixture(scope="session")
def two_pi_structure(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), TWO_PI),))
    return GraftedStructure(holonomy, mc, depth=6)


@pytest.fixture(scope="session")
def half_pi_structure(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), math.pi / 2.0),))
    return GraftedStructure(holonomy, mc, depth=6)


@pytest.fixture(scope="session")
def tetrahedron_points():
    return [cp1(0), cp1(1), INFINITY, cp1(cmath.exp(1j * math.pi / 3.0))]
