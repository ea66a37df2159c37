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


def bench_workloads():
    """The benchmark's ``bench/workloads.py`` module."""
    sys.path.insert(0, str(REPO / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "bench"))
    return workloads


def domain_round_sets(seed):
    """The benchmark's domain round: eight ideal sets drawn from the seed as
    ``bench/workloads.py`` draws them."""
    workloads = bench_workloads()
    rng = np.random.default_rng(seed)
    turn = cmath.exp(2j * math.pi * rng.uniform())
    sets = [workloads._moved(p, turn, rng, 0.0) for p in workloads._fixed_sets()] + [
        workloads._moved(workloads._scattered_set(n, with_infinity=bool(i % 2)), turn, rng, 0.003)
        for i, n in enumerate(workloads.DOMAIN_SCATTERED_SIZES)
    ]
    return [[INFINITY if z == "inf" else cp1(complex(z)) for z in s] for s in sets]


# The cube's vertices; its faces project to cocircular quadruples.
CUBE_VERTICES = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]


def projected(xyz) -> list:
    """Stereographic images of unit vectors; the north pole is omitted."""
    return [complex(x, y) / (1.0 - z) for x, y, z in xyz if z < 1.0 - 1e-12]


def turned(xyz, rng) -> np.ndarray:
    """Unit vectors in a random orientation."""
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v = np.asarray(xyz, dtype=float)
    return (v / np.linalg.norm(v, axis=1)[:, None]) @ q.T


def cocircular_rows(rng) -> tuple:
    """Twenty turned hexagons with their centre, every one cocircular, and
    seven of the eight projected vertices of twenty turned cubes, whose
    faces are cocircular quadruples."""
    hexagon = np.append(np.exp(2j * np.pi * np.arange(6) / 6), 0.0)
    hexagons = np.array([hexagon * cmath.exp(1j * t) for t in rng.uniform(0, 6, 20)])
    cubes = np.array([projected(turned(CUBE_VERTICES, rng))[:7] for _ in range(20)])
    return hexagons, cubes


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
