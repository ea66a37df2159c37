import cmath
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cp1graft.moebius import INFINITY, cp1
from cp1graft.surface import FNCoordinates, GroupWord, fuchsian_from_fn, limit_set_sample
from cp1graft.grafting import GraftedStructure, WeightedMulticurve
from cp1graft.thurston import DiskComplementDomain

TWO_PI = 2.0 * math.pi
REPO = Path(__file__).resolve().parent.parent


def limit_domain(gs):
    """The domain off the depth-4 limit-set sample of the structure's
    Fuchsian holonomy, which the covering checks keep their loops clear of."""
    return DiskComplementDomain(limit_set_sample(gs.hol, 4))


def domain_round_sets(seed):
    """The benchmark's domain round: eight ideal sets drawn from the seed as
    ``bench/workloads.py`` draws them."""
    sys.path.insert(0, str(REPO / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "bench"))
    rng = np.random.default_rng(seed)
    turn = cmath.exp(2j * math.pi * rng.uniform())
    sets = [workloads._moved(p, turn, rng, 0.0) for p in workloads._fixed_sets()] + [
        workloads._moved(workloads._scattered_set(n, with_infinity=bool(i % 2)), turn, rng, 0.003)
        for i, n in enumerate(workloads.DOMAIN_SCATTERED_SIZES)
    ]
    return [[INFINITY if z == "inf" else cp1(complex(z)) for z in s] for s in sets]


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
