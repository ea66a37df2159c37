import cmath
import json
import math
import time

import numpy as np
import pytest

from cp1graft.cli import RunConfig
from cp1graft.grafting import GraftedStructure, WeightedMulticurve
from cp1graft.moebius import (
    INFINITY,
    DegenerateInputError,
    MoebiusMap,
    OrientedCircle,
    PointCP1,
    angle_between,
    apply,
    chordal_distance,
    cp1,
)
from cp1graft.hyperbolic import (
    GeodesicH3,
    PlaneH3,
    PointH3,
    apply_isometry,
    concircular,
    dome,
    euler_characteristic,
    h3_distance,
    nearest_point_projection,
    rotation_about_geodesic,
)
from cp1graft.surface import FNCoordinates, GroupWord, fuchsian_from_fn, limit_set_sample
from conftest import REPO, domain_round_sets
from oracles import dihedral_from_plane_normals, h3_distance_quadrature


def random_moebius(rng):
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) > 0.1:
            return MoebiusMap(m)


# ---------------------------------------------------------------------------
# distance


def test_h3_distance_same_point():
    p = PointH3(0.0j, 1.0)
    assert h3_distance(p, p) == 0.0


def test_h3_distance_vertical():
    assert h3_distance(PointH3(0j, 1.0), PointH3(0j, math.e)) == pytest.approx(1.0, abs=1e-14)


def test_h3_distance_quadrature_oracle():
    p, q = PointH3(0j, 1.0), PointH3(1 + 0j, 1.0)
    want = h3_distance_quadrature((0j, 1.0), (1 + 0j, 1.0))
    assert h3_distance(p, q) == pytest.approx(want, abs=1e-9)


def test_h3_distance_symmetric_and_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = PointH3(complex(rng.normal(), rng.normal()), rng.uniform(0.2, 3.0))
        q = PointH3(complex(rng.normal(), rng.normal()), rng.uniform(0.2, 3.0))
        assert h3_distance(p, q) == pytest.approx(h3_distance(q, p), abs=1e-13)
        m = random_moebius(rng)
        assert h3_distance(apply_isometry(m, p), apply_isometry(m, q)) == pytest.approx(
            h3_distance(p, q), rel=1e-9, abs=1e-9
        )


# ---------------------------------------------------------------------------
# rotation about a geodesic


def test_rotation_standard_axis():
    g = GeodesicH3(cp1(0), INFINITY)
    theta = 0.7
    m = rotation_about_geodesic(g, theta)
    want = MoebiusMap.from_entries(cmath.exp(1j * theta / 2), 0, 0, cmath.exp(-1j * theta / 2))
    assert m.proj_distance(want) < 1e-12


def test_rotation_full_turn_is_identity():
    g = GeodesicH3(cp1(-2 + 1j), cp1(3))
    m = rotation_about_geodesic(g, 2.0 * math.pi)
    assert m.is_identity(1e-10)


def test_rotation_conjugate_axis():
    g = GeodesicH3(cp1(-1), cp1(1))
    m = rotation_about_geodesic(g, math.pi / 2.0)
    assert m.trace_squared() == pytest.approx(2.0, abs=1e-12)
    for p in (cp1(-1), cp1(1)):
        assert chordal_distance(apply(m, p), p) < 1e-10


def test_rotation_composition_law():
    rng = np.random.default_rng(9)
    for _ in range(30):
        g = GeodesicH3(
            cp1(complex(rng.normal(), rng.normal())),
            cp1(complex(rng.normal(), rng.normal())),
        )
        t1, t2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        lhs = rotation_about_geodesic(g, t1) @ rotation_about_geodesic(g, t2)
        rhs = rotation_about_geodesic(g, t1 + t2)
        assert lhs.proj_distance(rhs) < 1e-10


# ---------------------------------------------------------------------------
# nearest-point projection


def test_projection_halfplane():
    plane = PlaneH3(OrientedCircle.real_line(disk_upper=True))
    for a, b in ((0.0, 1.0), (2.0, 0.5), (-1.3, 2.2)):
        q = nearest_point_projection(plane, cp1(complex(a, b)))
        assert q.z == pytest.approx(complex(a, 0.0), abs=1e-12)
        assert q.t == pytest.approx(b, abs=1e-12)


def test_projection_hemisphere_apex():
    plane = PlaneH3(OrientedCircle.from_center_radius(0, 1, disk_inside=True))
    q = nearest_point_projection(plane, cp1(0))
    assert abs(q.z) < 1e-12
    assert q.t == pytest.approx(1.0, abs=1e-12)


def test_projection_equivariance():
    rng = np.random.default_rng(4)
    plane = PlaneH3(OrientedCircle.from_center_radius(0.2 + 0.1j, 1.5))
    for _ in range(20):
        x = cp1(0.2 + 0.1j + 0.9 * complex(rng.normal(), rng.normal()) / 3.0)
        if not plane.boundary.contains_in_disk(x):
            continue
        m = random_moebius(rng)
        lhs = nearest_point_projection(plane.transform(m), apply(m, x))
        rhs = apply_isometry(m, nearest_point_projection(plane, x))
        assert np.linalg.norm(lhs.coords() - rhs.coords()) < 1e-8


def test_projection_outside_disk_rejected():
    plane = PlaneH3(OrientedCircle.from_center_radius(0, 1))
    with pytest.raises(DegenerateInputError):
        nearest_point_projection(plane, cp1(5.0))


def test_projection_lands_on_plane():
    plane = PlaneH3(OrientedCircle.from_center_radius(1 + 1j, 2.0))
    q = nearest_point_projection(plane, cp1(1 + 1j))
    assert plane.contains_point(q)


# ---------------------------------------------------------------------------
# dome


def test_dome_ideal_triangle_single_face(tetrahedron_points):
    mesh = dome(tetrahedron_points[:3])
    assert len(mesh.faces) == 1
    assert len(mesh.edges) == 0


def test_dome_concircular_square_flat():
    mesh = dome([cp1(1), cp1(1j), cp1(-1), cp1(-1j)])
    assert len(mesh.faces) == 1
    assert len(mesh.edges) == 0
    assert len(mesh.faces[0].vertex_ids) == 4


def test_dome_regular_tetrahedron(tetrahedron_points):
    mesh = dome(tetrahedron_points)
    assert len(mesh.faces) == 4
    assert len(mesh.edges) == 6
    assert euler_characteristic(mesh) == 2
    weights = [e.weight for e in mesh.edges]
    for w in weights:
        assert w == pytest.approx(weights[0], abs=1e-12)
    # Cross-check against the plane-normal dihedral oracle.
    zs = [0, 1, "inf", cmath.exp(1j * math.pi / 3.0)]
    e = mesh.edges[0]
    f1 = [zs[i] for i in mesh.faces[e.face_ids[0]].vertex_ids]
    f2 = [zs[i] for i in mesh.faces[e.face_ids[1]].vertex_ids]
    want = dihedral_from_plane_normals(f1, f2, zs)
    assert e.weight == pytest.approx(want, abs=1e-10)


def test_dome_face_vertices_on_circle():
    rng = np.random.default_rng(6)
    pts = [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(7)]
    mesh = dome(pts)
    for f in mesh.faces:
        for vid in f.vertex_ids:
            assert abs(f.plane.boundary.evaluate(mesh.vertices[vid])) < 1e-7


def test_dome_euler_general_position():
    rng = np.random.default_rng(14)
    for n in (5, 6, 9):
        pts = [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(n)]
        mesh = dome(pts)
        assert euler_characteristic(mesh) == 2


def test_dome_moebius_invariant_weights():
    rng = np.random.default_rng(21)
    pts = [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(6)]
    mesh = dome(pts)
    m = random_moebius(rng)
    moved = dome([apply(m, p) for p in pts])
    assert len(moved.edges) == len(mesh.edges)
    want = sorted(e.weight for e in mesh.edges)
    got = sorted(e.weight for e in moved.edges)
    assert np.allclose(want, got, atol=1e-7)


def test_dome_edges_shared_by_two_faces():
    rng = np.random.default_rng(30)
    pts = [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(8)]
    mesh = dome(pts)
    for e in mesh.edges:
        assert len(set(e.face_ids)) == 2
        assert 0.0 < e.weight < math.pi


def test_dome_too_few_points_rejected():
    with pytest.raises(DegenerateInputError):
        dome([cp1(0), cp1(1)])


# Meshes recorded from the loop-based dome that preceded the array passes
# (re-record with ``python tests/test_hyperbolic.py``): the benchmark's
# domain rounds at five seeds, the domains of ``configs/``, and limit-set
# samples of FN instance 0 of the acceptance suite, Fuchsian (flat) and
# bent along curve a.  At seeds 2 and 3 the cube and the hexagon have a
# vertex opposite the first one of a face, at the branch cut of the angular
# order, where a last-bit change of its sine reorders the face.
DOME_MESH_GOLDEN = REPO / "tests" / "data" / "dome_mesh_golden.json"


def dome_golden_sets() -> dict:
    sets = {f"seed{seed}-set{k}": pts
            for seed in (1, 2, 3, 7, 100) for k, pts in enumerate(domain_round_sets(seed))}
    for name in ("sixpoint_domain", "tetrahedron_dome"):
        sets[name] = list(RunConfig.load(str(REPO / "configs" / f"{name}.json")).domain_points)
    hol = fuchsian_from_fn(FNCoordinates((2.0, 2.5, 1.7), (0.3, -0.8, 1.1)))
    sets["fuchsian-d2"] = limit_set_sample(hol, 2)
    for weight, depth in ((1.3, 2), (0.5, 2), (1.3, 3)):
        gs = GraftedStructure(hol, WeightedMulticurve(((GroupWord.parse("a"), weight),)))
        sets[f"bent-a-{weight}-d{depth}"] = limit_set_sample(gs.rho_prime, depth)
    return sets


def mesh_record(mesh) -> dict:
    """Vertex ids of every face and edge, and the bits of every face
    Hermitian and edge weight."""
    return {
        "vertices": len(mesh.vertices),
        "faces": [list(f.vertex_ids) for f in mesh.faces],
        "hermitians": [[float.hex(float(x)) for h in f.plane.boundary.hermitian.ravel()
                        for x in (h.real, h.imag)] for f in mesh.faces],
        "edges": [[list(e.vertex_ids), list(e.face_ids), float.hex(e.weight)]
                  for e in mesh.edges],
    }


@pytest.fixture(scope="module")
def golden_sets():
    return dome_golden_sets()


def test_dome_meshes_match_golden(golden_sets):
    golden = json.loads(DOME_MESH_GOLDEN.read_text())
    assert sorted(golden_sets) == sorted(golden)
    for name, pts in golden_sets.items():
        assert mesh_record(dome(pts)) == golden[name], name


def test_dome_of_440_point_limit_sample_is_fast(golden_sets):
    pts = golden_sets["bent-a-1.3-d3"]
    assert len(pts) == 440
    start = time.perf_counter()
    dome(pts)
    assert time.perf_counter() - start <= 5.0


def test_concircular_predicate():
    assert concircular(cp1(1), cp1(1j), cp1(-1), cp1(-1j))
    assert concircular(cp1(0), cp1(1), cp1(2), INFINITY)
    assert not concircular(cp1(0), cp1(1), INFINITY, cp1(0.5 + 0.5j))


if __name__ == "__main__":
    rows = [f" {json.dumps(name)}: {json.dumps(mesh_record(dome(pts)))}"
            for name, pts in dome_golden_sets().items()]
    DOME_MESH_GOLDEN.write_text("{\n" + ",\n".join(rows) + "\n}\n")
