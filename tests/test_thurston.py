import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

import cp1graft.thurston as thurston
from cp1graft.moebius import (
    INFINITY,
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    OrientedCircle,
    PointCP1,
    RoundDisk,
    apply,
    chordal_distance,
    chordal_rows,
    cp1,
    inversive_product,
    minimal_enclosing_disk,
)
from cp1graft.cli import RunConfig
from cp1graft.hyperbolic import dome
from cp1graft.surface import GroupWord, fuchsian_from_fn, limit_set_sample
from cp1graft.grafting import (
    GraftedStructure,
    WeightedMulticurve,
    leaf_normalizer,
)
from cp1graft.thurston import (
    TOL_CONTACT,
    DiskComplementDomain,
    PreconditionError,
    dome_measure_report,
    face_core_point,
    maximal_disk_at,
    projection_psi,
    recover_weight_from_grafted,
    stratification_check,
    transverse_measure,
    verify_covering,
)
from conftest import REPO, domain_round_sets, limit_domain
from oracles import maximal_disk_support_search

TWO_PI = 2.0 * math.pi
OMEGA = cmath.exp(1j * math.pi / 3.0)


def real_line_domain(n=60):
    pts = [cp1(math.tan(math.pi * (k / n - 0.5))) for k in range(1, n)]
    return DiskComplementDomain.from_ideal_points(pts + [INFINITY])


# ---------------------------------------------------------------------------
# maximal disks


def test_maximal_disk_half_plane():
    dom = real_line_domain()
    rec = maximal_disk_at(dom, cp1(1j))
    assert rec.disk.circle.is_line
    assert rec.disk.contains(cp1(2j))
    assert not rec.disk.contains(cp1(-2j))
    # Dense contacts: all sampled complement points lie on the circle.
    assert len(rec.ideal_points) == len(dom.complement)
    assert rec.core.contains(cp1(1j))


def test_maximal_disk_three_points():
    # Queries inside the two ideal-triangle cores: one maximal disk per side.
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    up = maximal_disk_at(dom, cp1(0.5 + 0.9j))
    down = maximal_disk_at(dom, cp1(0.5 - 0.9j))
    assert up.disk.circle.is_line and down.disk.circle.is_line
    assert up.disk.contains(cp1(5j)) and down.disk.contains(cp1(-5j))
    assert len(up.ideal_points) == 3
    assert up.core.contains(cp1(0.5 + 0.9j))
    # Below the hull geodesic the disk belongs to a two-contact family.
    between = maximal_disk_at(dom, cp1(0.5 + 0.3j))
    assert len(between.ideal_points) == 2


def test_maximal_disk_query_near_complement_rejected():
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    with pytest.raises(PreconditionError):
        maximal_disk_at(dom, cp1(1e-10))


def test_maximal_disk_vs_support_oracle():
    rng = np.random.default_rng(19)
    zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
    dom = DiskComplementDomain.from_ideal_points([cp1(z) for z in zs])
    checked = 0
    for _ in range(100):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if not dom.contains(cp1(x), margin=1e-3):
            continue
        rec = maximal_disk_at(dom, cp1(x))
        oc, orad = maximal_disk_support_search(zs, x)
        assert abs(rec.normalized.center - oc) < 1e-8 * max(1.0, orad)
        assert abs(rec.normalized.radius - orad) < 1e-8 * max(1.0, orad)
        checked += 1
    assert checked > 50


def test_cores_partition_samples():
    # Samples in the same stratum get identical disks; cores contain their
    # own samples.
    dom = DiskComplementDomain.from_ideal_points(
        [cp1(0), cp1(1), INFINITY, cp1(OMEGA)]
    )
    a = maximal_disk_at(dom, cp1(0.4 - 0.9j))
    b = maximal_disk_at(dom, cp1(0.6 - 0.8j))
    assert a.same_disk(b)
    assert a.core.contains(cp1(0.4 - 0.9j))


def cube_points():
    """Cube vertices on the sphere, (1,1,1)/sqrt3 turned to the north pole
    (infinity); each face gives a cocircular quadruple."""
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    k = np.cross(u, [0.0, 0.0, 1.0])
    s, c = np.linalg.norm(k), u[2]
    k = k / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    rot = np.eye(3) + s * kx + (1 - c) * kx @ kx
    verts = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]) / math.sqrt(3.0)
    return [
        INFINITY if z > 1 - 1e-12 else cp1(complex(x, y) / (1.0 - z))
        for x, y, z in verts @ rot.T
    ]


def sample_queries(dom, count, seed, margin=1e-3):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        z = complex(*rng.uniform(-3, 3, 2))
        if dom.contains(cp1(z), margin=margin):
            out.append(z)
    return out


def test_contains_matches_scalar_metric():
    rng = np.random.default_rng(23)
    pts = [cp1(complex(*rng.uniform(-2, 2, 2))) for _ in range(9)] + [INFINITY]
    dom = DiskComplementDomain.from_ideal_points(pts)

    def reference(x, margin):
        return all(chordal_distance(x, p) > margin for p in pts)

    queries = [cp1(complex(*rng.uniform(-3, 3, 2))) for _ in range(300)]
    for margin in (TOL_GEO, 1e-3, 0.3, 0.8):
        want = [reference(x, margin) for x in queries]
        assert [dom.contains(x, margin) for x in queries] == want
        got = dom.contains(queries, margin)  # a list gets one decision per point
        assert got.dtype == bool and got.tolist() == want
    # Margins a few ulps either side of the nearest point's distance, where
    # a batched norm and chordal_distance can disagree in the last bit.
    flips = 0
    for _ in range(200):
        x = cp1(pts[rng.integers(len(pts) - 1)].as_complex() + 0.05 * complex(*rng.normal(size=2)))
        d = min(chordal_distance(x, p) for p in pts)
        for steps in range(-3, 4):
            margin = d
            for _ in range(abs(steps)):
                margin = np.nextafter(margin, 2.0 if steps > 0 else 0.0)
            want = reference(x, float(margin))
            assert dom.contains(x, float(margin)) == want
            assert dom.contains([queries[0], x], float(margin))[1] == want
            flips += want
    assert 0 < flips < 1400


def test_distances_match_per_point_norm(holonomy):
    """``distances`` is bit for bit the per-point minimum of np.linalg.norm
    over the complement's sphere coordinates, the minimum of the shared
    chordal-row expression, and the minimum of ``chordal_distance``: for a
    limit-set sample (one row per block) and for ideal sets (many rows per
    block)."""
    rng = np.random.default_rng(31)
    zs = [complex(*rng.uniform(-3, 3, 2)) for _ in range(400)]
    ideal = [cp1(complex(*rng.uniform(-2, 2, 2))) for _ in range(12)] + [INFINITY]
    for pts in (limit_set_sample(holonomy, 4), ideal, ideal[:4]):
        dom = DiskComplementDomain(pts)
        xyz = np.array([p.sphere_coords() for p in pts])
        ref = np.array([
            np.min(np.linalg.norm(xyz - PointCP1.from_complex(z).sphere_coords(), axis=1))
            for z in zs
        ])
        got = dom.distances(zs)
        assert got.tobytes() == ref.tobytes()
        rows = np.array([chordal_rows(dom.xyz, cp1(z).sphere_coords()).min() for z in zs[:40]])
        assert rows.tobytes() == got[:40].tobytes()
        scalar = np.array([min(chordal_distance(cp1(z), p) for p in pts) for z in zs[:40]])
        assert scalar.tobytes() == got[:40].tobytes()


def _reference_geodesic(u, v):
    denom = 1.0 + (u * np.conj(v)).real
    if abs(denom) < 1e-12:
        h = np.array([[0.0, 1j * u], [-1j * np.conj(u), 0.0]], dtype=complex)
        return OrientedCircle(h)
    m = (u + v) / denom
    r2 = abs(m) ** 2 - 1.0
    if r2 <= 0:
        raise DegenerateInputError("degenerate hull edge")
    return OrientedCircle.from_center_radius(m, math.sqrt(r2))


def eager_core_reference(dom, x):
    """The core built eagerly, point by point, as maximal_disk_at once did:
    (frame, boundary angles, edges)."""
    x = cp1(x)
    t = MoebiusMap(np.array([[0.0, 1.0], [1.0, -x.as_complex()]], dtype=complex))
    transported = [apply(t, p) for p in dom.complement]
    zs = [p.as_complex() for p in transported]
    med = minimal_enclosing_disk(zs)
    contacts = [
        i for i, z in enumerate(zs)
        if abs(abs(z - med.center) - med.radius) <= TOL_CONTACT * med.radius
    ]
    if len(contacts) < 2:
        contacts = sorted(set(contacts) | set(med.support))
    u = MoebiusMap(np.array([[0.0, med.radius], [1.0, -med.center]], dtype=complex))
    boundary = sorted(
        ((i, apply(u, transported[i]).as_complex()) for i in contacts),
        key=lambda iw: math.atan2(iw[1].imag, iw[1].real),
    )
    angles = tuple(math.atan2(w.imag, w.real) for _, w in boundary)
    ws = [w for _, w in boundary]
    k = len(ws)
    if k == 2:
        edges = [_reference_geodesic(ws[0] / abs(ws[0]), ws[1] / abs(ws[1]))]
    else:
        edges = []
        for j in range(k):
            edge = _reference_geodesic(ws[j] / abs(ws[j]), ws[(j + 1) % k] / abs(ws[(j + 1) % k]))
            if edge.evaluate(PointCP1.from_complex(ws[(j + 2) % k])) > 0:
                edge = edge.reversed()
            edges.append(edge)
    return (u @ t), angles, edges


@pytest.mark.parametrize("name", ["tetrahedron", "hexagon", "cube"])
def test_lazy_core_matches_eager_reference(name, tetrahedron_points):
    pts = {
        "tetrahedron": tetrahedron_points,
        "hexagon": [cp1(0)] + [cp1(cmath.exp(1j * math.pi * k / 3.0)) for k in range(6)],
        "cube": cube_points(),
    }[name]
    dom = DiskComplementDomain.from_ideal_points(pts)
    sizes = set()
    for z in sample_queries(dom, 60, seed=31):
        rec = maximal_disk_at(dom, cp1(z))
        frame, angles, edges = eager_core_reference(dom, z)
        core = rec.core
        assert core is rec.core  # built once
        assert core.frame.matrix.tobytes() == frame.matrix.tobytes()
        assert [a.hex() for a in core.boundary_angles] == [a.hex() for a in angles]
        assert [e.hermitian.tobytes() for e in core.edges] == [
            e.hermitian.tobytes() for e in edges
        ]
        sizes.add(len(angles))
    assert 2 in sizes and max(sizes) >= 3


# Five contacts 1e-8 apart near e^{0.5i}, three more on the unit circle and
# one point outside it.
DENSE_SET = (
    [cmath.exp(1j * t) for t in (2.0, 3.5, 5.0)]
    + [cmath.exp(1j * (0.5 + k * 1e-8)) for k in range(5)]
    + [3 + 0.5j]
)


def test_coincident_contacts_are_one_core_vertex():
    # Two copies of 1, or contacts 1e-8 apart, are one vertex of the core;
    # the record keeps every contact, and every query lies in its core.
    dup = DiskComplementDomain.from_ideal_points(
        [cp1(0), cp1(1), cp1(1), INFINITY, cp1(2j)]
    )
    for k in range(12):
        z = cp1(1 + 0.3 * cmath.exp(2j * math.pi * k / 12))
        assert maximal_disk_at(dup, z).core.contains(z)
    dense = DiskComplementDomain.from_ideal_points([cp1(p) for p in DENSE_SET])
    queries = [0, 0.2 + 0.1j, -0.3j, 0.1 + 0.4j]
    for z in queries:
        rec = maximal_disk_at(dense, cp1(z))
        assert len(rec.ideal_ids) == 8
        assert len(rec.core.boundary_angles) == 4
        assert rec.core.contains(cp1(z))
    assert stratification_check(dense, queries)["violations"] == []
    # Contacts that are all one vertex leave a core that contains nothing.
    lone = thurston._core_region(MoebiusMap.identity(), (1 + 0j, cmath.exp(1e-9j)))
    assert lone.edges == () and not lone.contains(cp1(0))


# ---------------------------------------------------------------------------
# stratification


def test_stratification_three_point_domain():
    # Samples inside the two triangle cores: one disk per side.
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    rng = np.random.default_rng(2)
    samples = [complex(rng.uniform(0.1, 0.9), rng.uniform(1.2, 3.0)) for _ in range(40)]
    samples += [complex(rng.uniform(0.1, 0.9), rng.uniform(-3.0, -1.2)) for _ in range(40)]
    report = stratification_check(dom, samples)
    assert all(c["passed"] for c in report["checks"])
    assert report["values"]["distinct_disks"] == 2


def test_stratification_without_samples_raises(tetrahedron_points):
    # Every check would pass over no samples at all.
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    with pytest.raises(DegenerateInputError):
        stratification_check(dom, [])


def test_stratification_tetrahedron(tetrahedron_points):
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    rng = np.random.default_rng(5)
    samples = []
    while len(samples) < 250:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if dom.contains(cp1(z), margin=1e-3):
            samples.append(z)
    report = stratification_check(dom, samples)
    assert not report["violations"]
    # Probes in the four face cores land in four distinct core classes.
    mesh = dome(tetrahedron_points)
    face_probes = [
        face_core_point(dom, f).as_complex() for f in mesh.faces
    ]
    probe_report = stratification_check(dom, face_probes)
    assert probe_report["values"]["distinct_disks"] == 4


def per_pair_stratification_reference(dom, samples):
    """stratification_check written pair by pair, as it once was: the
    reference for the batched grouping and pair tests."""
    records, failures = [], []
    for i, x in enumerate(samples):
        try:
            records.append((i, thurston.maximal_disk_at(dom, x)))
        except (PreconditionError, DegenerateInputError) as exc:
            failures.append({"sample": i, "error": str(exc)})
    groups = []
    for i, rec in records:
        for g in groups:
            if rec.same_disk(g["record"]):
                g["samples"].append(i)
                break
        else:
            groups.append({"record": rec, "samples": [i]})
    violations = [{"kind": "no-disk", **fail} for fail in failures]

    def same_ideal_sets(a, b):
        return len(a) == len(b) and all(
            any(chordal_distance(p, q) < 10 * TOL_GEO for q in b) for p in a
        )

    for g in groups:
        rec0 = g["record"]
        for i, rec in records:
            if i in g["samples"] and rec is not rec0:
                if not same_ideal_sets(rec.ideal_points, rec0.ideal_points):
                    violations.append({"kind": "ideal-point-mismatch", "sample": i})

    def nested(ra, rb):
        if abs(inversive_product(ra.disk.circle, rb.disk.circle)) <= 1.0 + TOL_GEO:
            return False
        pts = rb.disk.circle.boundary_points(3) + [rb.disk.circle.sample_disk_point()]
        return all(ra.disk.circle.evaluate(p) < -TOL_GEO for p in pts)

    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            ra, rb = groups[a]["record"], groups[b]["record"]
            if nested(ra, rb) or nested(rb, ra):
                violations.append({"kind": "nested-disks", "groups": [a, b]})
                continue
            s = ra.disk.circle.hermitian - rb.disk.circle.hermitian
            side = [
                [float((np.conj(v) @ s @ v).real) for v in (p.normalized().vector() for p in r.ideal_points)]
                for r in (ra, rb)
            ]
            worst_a, worst_b = max(side[0]), min(side[1])
            if worst_a > TOL_GEO or worst_b < -TOL_GEO:
                violations.append(
                    {"kind": "core-overlap", "groups": [a, b], "side_values": [worst_a, worst_b]}
                )
    kinds = [v["kind"] for v in violations]
    return {
        "checks": [
            {"name": "every-sample-assigned", "passed": not failures,
             "details": {"samples": len(samples), "assigned": len(records)}},
            {"name": "core-disjointness",
             "passed": "core-overlap" not in kinds and "nested-disks" not in kinds},
            {"name": "ideal-point-consistency", "passed": "ideal-point-mismatch" not in kinds},
        ],
        "violations": violations,
        "values": {"distinct_disks": len(groups)},
    }


def six_point_set():
    """The 6-point ideal set of acceptance criterion 3."""
    rng = np.random.default_rng(42)
    return [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(6)]


ACCEPTANCE_SETS = {
    "tetrahedron": [cp1(0), cp1(1), INFINITY, cp1(OMEGA)],
    "6-point": six_point_set(),
}


@pytest.mark.parametrize("name", sorted(ACCEPTANCE_SETS))
def test_stratification_matches_per_pair_reference(name):
    dom = DiskComplementDomain.from_ideal_points(ACCEPTANCE_SETS[name])
    samples = sample_queries(dom, 150, seed=8) + [0.5 + 1e-9j]
    report = stratification_check(dom, samples)
    assert report == per_pair_stratification_reference(dom, samples)
    assert report["values"]["distinct_disks"] > 10


def _plant(change, targets):
    """maximal_disk_at with the record at each target query replaced by
    change(record)."""

    def planted(dom, x):
        rec = maximal_disk_at(dom, x)
        return change(rec) if x in targets else rec

    return planted


def _moved_disk(rec):
    m = MoebiusMap(np.array([[1.05, 0.02], [0.0, 1.0]], dtype=complex))
    return dataclasses.replace(rec, disk=RoundDisk(rec.disk.circle.transform(m)))


def _shrunk_disk(rec):
    """The disk at half its radius about its center, or twice the radius
    for an exterior disk: nested in the true one."""
    circle = rec.disk.circle
    if circle.is_line:
        return rec
    c, r = circle.center_radius()
    if circle.hermitian[0, 0].real > 0:
        circle = OrientedCircle.from_center_radius(c, 0.5 * r)
    else:
        circle = OrientedCircle.from_center_radius(c, 2.0 * r, disk_inside=False)
    return dataclasses.replace(rec, disk=RoundDisk(circle))


def _ideal_point_dropped(rec):
    return dataclasses.replace(
        rec, ideal_points=rec.ideal_points[:-1], ideal_ids=rec.ideal_ids[:-1]
    )


def _nudged_disk(rec):
    """The disk's form moved by 0.9e-6 (Frobenius) along a direction that
    keeps det = -1 to first order: the same disk for same_disk."""
    h = rec.disk.circle.hermitian
    b = complex(h[0, 1])
    e = 1j * (b / abs(b) if abs(b) > 1e-9 else 1.0)
    step = np.array([[0.0, e], [np.conj(e), 0.0]]) * (0.9e-6 / math.sqrt(2.0))
    disk = RoundDisk(OrientedCircle(h + step))
    assert 0.8e-6 < disk.circle.proj_distance(rec.disk.circle) < 1e-6
    return dataclasses.replace(rec, disk=disk)


def test_stratification_groups_near_same_disk_threshold(monkeypatch):
    dom = DiskComplementDomain.from_ideal_points(ACCEPTANCE_SETS["6-point"])
    samples = sample_queries(dom, 120, seed=9)
    plain = stratification_check(dom, samples)
    monkeypatch.setattr(thurston, "maximal_disk_at", _plant(_nudged_disk, set(samples[::3])))
    report = stratification_check(dom, samples)
    assert report == per_pair_stratification_reference(dom, samples)
    assert report["values"] == plain["values"]


def test_stratification_nested_disks_with_small_side_values(monkeypatch):
    # A disk of radius 0.01 inside the unit disk, 5e-8 from touching it at
    # its one ideal point: the circles are apart (inversive product 1 + 5e-6)
    # but every side value is within TOL_GEO, so only nesting reports it.
    r, gap, turn = 0.01, 5e-8, cmath.exp(1j * math.pi / 3.0)
    touch = (1.0 - gap) * turn
    dom = DiskComplementDomain.from_ideal_points([cp1(1j), cp1(-1), cp1(-1j), cp1(touch)])
    outer = RoundDisk(OrientedCircle.from_center_radius(0.0, 1.0))
    inner = RoundDisk(OrientedCircle.from_center_radius((1.0 - r - gap) * turn, r))
    fakes = {
        0.2: dict(disk=outer, ideal_points=dom.complement[:3], ideal_ids=(0, 1, 2)),
        0.3: dict(disk=inner, ideal_points=dom.complement[3:], ideal_ids=(3,)),
    }

    def planted(d, x):
        return dataclasses.replace(maximal_disk_at(d, x), **fakes[x])

    monkeypatch.setattr(thurston, "maximal_disk_at", planted)
    report = stratification_check(dom, list(fakes))
    assert report == per_pair_stratification_reference(dom, list(fakes))
    assert report["violations"] == [{"kind": "nested-disks", "groups": [0, 1]}]


@pytest.mark.parametrize("change,kind,check", [
    (_moved_disk, "core-overlap", "core-disjointness"),
    (_shrunk_disk, "nested-disks", "core-disjointness"),
    (_ideal_point_dropped, "ideal-point-mismatch", "ideal-point-consistency"),
])
def test_stratification_planted_record_reported(monkeypatch, change, kind, check):
    dom = DiskComplementDomain.from_ideal_points(ACCEPTANCE_SETS["6-point"])
    samples = sample_queries(dom, 120, seed=9)
    monkeypatch.setattr(thurston, "maximal_disk_at", _plant(change, set(samples[3::7])))
    report = stratification_check(dom, samples)
    assert report == per_pair_stratification_reference(dom, samples)
    assert any(v["kind"] == kind for v in report["violations"])
    assert not next(c for c in report["checks"] if c["name"] == check)["passed"]


# ---------------------------------------------------------------------------
# transverse measure


def test_measure_zero_within_stratum(tetrahedron_points):
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    res = transverse_measure(dom, [0.3 - 0.9j, 0.55 - 0.75j])
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_measure_single_edge_crossing(tetrahedron_points):
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    res = transverse_measure(dom, [0.5 - 0.8j, 0.5 + 0.45j])
    assert res.converged
    assert res.value == pytest.approx(2.0 * math.pi / 3.0, abs=1e-5)


def test_measure_two_edge_additivity(tetrahedron_points):
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    res = transverse_measure(dom, [0.5 - 0.8j, 0.5 + 0.45j, 2.0 + 1.0j])
    assert res.value == pytest.approx(4.0 * math.pi / 3.0, abs=1e-5)


def test_measure_refinement_trace_monotone(tetrahedron_points):
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    res = transverse_measure(dom, [0.5 - 0.8j, 0.5 + 0.45j])
    diffs = [abs(a - b) for a, b in zip(res.trace, res.trace[1:])]
    if len(diffs) >= 3:
        assert diffs[-1] <= diffs[-3] + 1e-12


def test_dome_measure_report_tetrahedron(tetrahedron_points):
    report = dome_measure_report(tetrahedron_points)
    assert all(c["passed"] for c in report["checks"])
    for ev in report["values"]["edges"]:
        assert ev["error"] < 1e-5


def test_dome_measure_report_random_domain():
    rng = np.random.default_rng(12)
    pts = [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(6)]
    report = dome_measure_report(pts)
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize("where", ["appended", "inserted"])
def test_dome_measure_drops_near_duplicate_points(tetrahedron_points, where):
    """A point within TOL_GEO of an earlier one is dropped by the dome, and
    so from the measured domain: the report is the tetrahedron's."""
    pts = list(tetrahedron_points)
    if where == "appended":
        pts.append(cp1(1.0 + 1e-9))
    else:
        pts.insert(1, cp1(1e-9))
    want = dome_measure_report(tetrahedron_points)
    got = dome_measure_report(pts)
    assert got["violations"] == [] == want["violations"]
    assert got["values"]["faces"] == want["values"]["faces"]
    assert [float.hex(e["theta"]) for e in got["values"]["edges"]] == [
        float.hex(e["theta"]) for e in want["values"]["edges"]]


# The benchmark's domain round: eight ideal sets drawn from the seed as
# ``bench/workloads.py`` draws them, and the domains of ``configs/``.
DOME_GOLDEN = json.loads((REPO / "tests" / "data" / "dome_measure_golden.json").read_text())


@pytest.fixture(scope="module")
def dome_measure_runs():
    """dome_measure_report on every set of DOME_GOLDEN, recording each
    batch of probe labels (set name, strata, points, labels) and the probes
    sent to ``_classify_on_path``."""
    runs = [(f"seed{seed}-set{k}", pts, {})
            for seed in (1, 7, 100) for k, pts in enumerate(domain_round_sets(seed))]
    for name in ("sixpoint_domain", "tetrahedron_dome"):
        config = RunConfig.load(str(REPO / "configs" / f"{name}.json"))
        runs.append((name, list(config.domain_points),
                     {"tol": config.tol("measure")}))
    batches, fallbacks, reports = [], [], {}
    labels, classify = thurston._EdgeStrata.labels, thurston._classify_on_path
    current = []

    def recording(self, points):
        out = labels(self, points)
        batches.append((current[-1], self, list(points), out))
        return out

    def counting(*args, **kwargs):
        fallbacks.append(args[3])
        return classify(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thurston._EdgeStrata, "labels", recording)
        mp.setattr(thurston, "_classify_on_path", counting)
        for name, pts, kwargs in runs:
            current.append(name)
            reports[name] = dome_measure_report(pts, **kwargs)
    return reports, batches, fallbacks


def test_dome_measure_reports_match_golden(dome_measure_runs):
    """Reports recorded when every probe was labelled by maximal_disk_at:
    face count, violations and the bits of every edge's theta."""
    reports, _, _ = dome_measure_runs
    assert sorted(reports) == sorted(DOME_GOLDEN)
    for name, report in reports.items():
        got = {"faces": report["values"]["faces"], "violations": report["violations"],
               "theta": [float.hex(ev["theta"]) for ev in report["values"]["edges"]]}
        assert got == DOME_GOLDEN[name], name


def test_strata_labels_match_maximal_disk_labels(dome_measure_runs):
    """Every probe of every run gets the label of ``_classify_on_path``, and
    the closed form decides all but a few of them."""
    _, batches, fallbacks = dome_measure_runs
    probes = 0
    for name, strata, points, labels in batches:
        for z, label in zip(points, labels):
            probes += 1
            ref = thurston._classify_on_path(strata.dom, strata.mesh, strata.edge, z)
            assert label == ref, (name, z)
    assert probes > 10_000
    assert len(fallbacks) <= probes // 500


def test_strata_labels_on_a_face_with_clustered_vertices():
    """Three vertices 2e-5 apart on the unit circle are one vertex in their
    face's frame, so that face's core is no polygon: it certifies no probe,
    and every probe keeps the label of ``_classify_on_path``."""
    pts = [cp1(cmath.exp(1j * t)) for t in (0.0, 2e-5, 4e-5)]
    mesh = dome(pts + [cp1(z) for z in (3, 3j, -3, -3j, 2 + 2j)])
    dom = DiskComplementDomain(mesh.vertices)
    cores = [thurston._FaceCore(dom, f) for f in mesh.faces]
    assert any(c.edges is None for c in cores)
    for edge in mesh.edges:
        strata = thurston._EdgeStrata(dom, mesh, edge, cores)
        line = thurston._Polyline(next(thurston._edge_measure_paths(strata)))
        points = [line.at(line.total * k / thurston.PATH_PROBES, clamp=False)
                  for k in range(thurston.PATH_PROBES + 1)]
        assert strata.labels(points) == [
            thurston._classify_on_path(dom, mesh, edge, z) for z in points]


def test_maximal_disk_matches_two_inversions(dome_measure_runs):
    """The disk of maximal_disk_at is bit for bit the push-forward by
    ``t.inverse()`` through ``OrientedCircle.transform``, on every probe of
    the seed-7 round."""
    _, batches, _ = dome_measure_runs
    checked = 0
    for name, strata, points, _ in batches:
        if not name.startswith("seed7-"):
            continue
        for z in points:
            rec = maximal_disk_at(strata.dom, cp1(z))
            t = rec.frame_maps[1]
            med = rec.normalized
            circle = OrientedCircle.from_center_radius(med.center, med.radius, disk_inside=False)
            old = circle.transform(t.inverse()).hermitian
            assert rec.disk.circle.hermitian.tobytes() == old.tobytes(), z
            checked += 1
    assert checked > 3000


# ---------------------------------------------------------------------------
# projection


def test_projection_half_plane_formula():
    dom = real_line_domain()
    for a, b in ((0.0, 1.0), (0.7, 0.4), (-1.2, 2.0)):
        p = projection_psi(dom, cp1(complex(a, b)))
        assert p.z == pytest.approx(complex(a, 0.0), abs=1e-9)
        assert p.t == pytest.approx(b, abs=1e-9)


def test_projection_single_face_plane():
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    rec = maximal_disk_at(dom, cp1(0.3 + 0.8j))
    p = projection_psi(dom, cp1(0.3 + 0.8j))
    from cp1graft.hyperbolic import PlaneH3

    assert PlaneH3(rec.disk.circle).contains_point(p)


def test_projection_lands_on_dome(tetrahedron_points):
    # Psi images lie on the dome mesh: on some face's supporting plane.
    dom = DiskComplementDomain.from_ideal_points(tetrahedron_points)
    mesh = dome(tetrahedron_points)
    rng = np.random.default_rng(9)
    tested = 0
    for _ in range(200):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if not dom.contains(cp1(z), margin=1e-2):
            continue
        rec = maximal_disk_at(dom, cp1(z))
        if len(rec.ideal_points) < 3:
            continue  # bending-family points project to edge geodesics
        p = projection_psi(dom, cp1(z))
        assert any(f.plane.contains_point(p, tol=1e-6) for f in mesh.faces)
        tested += 1
        if tested >= 50:
            break
    assert tested >= 30


# ---------------------------------------------------------------------------
# weight recovery


def test_recover_weight_two_pi(two_pi_structure):
    got = recover_weight_from_grafted(two_pi_structure, GroupWord((1,)))
    assert got == pytest.approx(TWO_PI, abs=1e-6)


def test_recover_weight_four_pi(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), 2 * TWO_PI),))
    gs = GraftedStructure(holonomy, mc, depth=6)
    got = recover_weight_from_grafted(gs, GroupWord((1,)))
    assert got == pytest.approx(2 * TWO_PI, abs=1e-6)


def test_recover_weight_ungrafted_curve(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), 0.0),))
    gs = GraftedStructure(holonomy, mc, depth=5)
    assert recover_weight_from_grafted(gs, GroupWord((1,))) == 0.0


def test_recover_weight_missing_curve(two_pi_structure):
    with pytest.raises(PreconditionError):
        recover_weight_from_grafted(two_pi_structure, GroupWord((-4,)))


def test_recover_weight_accepts_string(two_pi_structure):
    got = recover_weight_from_grafted(two_pi_structure, "a")
    assert got == pytest.approx(TWO_PI, abs=1e-6)


# ---------------------------------------------------------------------------
# covering


def _circle_loop(c, r=0.1, n=20):
    return [c + r * np.exp(2j * math.pi * k / n) for k in range(n + 1)]


def _contractible_loops():
    rng = np.random.default_rng(3)
    return [
        _circle_loop(complex(rng.uniform(-1.5, 1.5), rng.uniform(0.6, 2.0)))
        for _ in range(6)
    ]


LOWER_HALF_PLANE_LOOP = _circle_loop(complex(0.4, -0.9), r=0.08)


@pytest.fixture(scope="module")
def three_cuff_structure(holonomy):
    """The three cuffs a1, a1^-1 b2, b2^-1, each grafted by 2 pi."""
    words = (GroupWord((1,)), GroupWord((-1, 4)), GroupWord((-4,)))
    return GraftedStructure(
        holonomy, WeightedMulticurve(tuple((w, TWO_PI) for w in words)), depth=4
    )


def test_covering_contractible_loops(two_pi_structure):
    loops = _contractible_loops()
    report = verify_covering(two_pi_structure, loops, limit_domain(two_pi_structure), margin=0.05)
    assert not report["violations"]
    assert report["values"]["closures"] == report["values"]["lifts_tested"]
    assert report["values"]["min_embedding_radius"] > 0


def test_covering_lower_half_plane_loop(two_pi_structure):
    report = verify_covering(
        two_pi_structure, [LOWER_HALF_PLANE_LOOP], limit_domain(two_pi_structure), margin=0.05
    )
    assert not report["violations"]
    assert report["values"]["lifts_tested"] > 0


# (lifts_tested, closures, min_embedding_radius as float.hex): recorded
# reports that the per-loop sample table must reproduce bit for bit.
COVERING_GOLDEN = {
    "contractible": (102, 102, "0x1.9da6cbe6f4e7ap-12"),
    "lower-half-plane": (16, 16, "0x1.96528f8210defp+0"),
    "three-cuff": (805, 805, "0x1.49b34aca8b7c9p-3"),
}


@pytest.mark.parametrize("case", sorted(COVERING_GOLDEN))
def test_covering_reports_match_golden(case, request):
    if case == "three-cuff":
        gs = request.getfixturevalue("three_cuff_structure")
        loops = [_circle_loop(-0.3 + 1.2j), _circle_loop(0.8 - 1.4j)]
    else:
        gs = request.getfixturevalue("two_pi_structure")
        loops = _contractible_loops() if case == "contractible" else [LOWER_HALF_PLANE_LOOP]
    report = verify_covering(gs, loops, limit_domain(gs), margin=0.05)
    values = report["values"]
    lifts, closures, radius = COVERING_GOLDEN[case]
    assert report["violations"] == []
    assert (values["lifts_tested"], values["closures"]) == (lifts, closures)
    assert float.hex(values["min_embedding_radius"]) == radius


def test_covering_coarse_steps_subdivide_and_close(three_cuff_structure, monkeypatch):
    """At two steps per loop edge, steps of the chord from -0.1 + 0.2i to
    1.9 + 0.2i cross two leaves at once, both in the stratum and when
    leaving a crescent; the subdivided lifts must still close."""
    midpoints = []

    class Recording(thurston._LoopSamples):
        def __init__(self, z, leaves):
            if len(z) == 1:
                midpoints.append(z[0])
            super().__init__(z, leaves)

    monkeypatch.setattr(thurston, "_LoopSamples", Recording)
    monkeypatch.setattr(thurston, "STEPS_PER_LOOP", 2)
    arc = [0.9 + 0.2j + np.exp(1j * math.pi * k / 200) for k in range(201)]
    report = verify_covering(
        three_cuff_structure, [[-0.1 + 0.2j] + arc], limit_domain(three_cuff_structure),
        margin=0.05,
    )
    assert midpoints
    assert report["violations"] == []
    assert report["values"]["closures"] == report["values"]["lifts_tested"] > 0


def test_covering_step_budget_reports_lift_failure(two_pi_structure, monkeypatch):
    monkeypatch.setattr(thurston, "MAX_STEPS", 10)
    report = verify_covering(
        two_pi_structure, [_circle_loop(0.3 + 1.2j)], limit_domain(two_pi_structure), margin=0.05
    )
    failures = [v for v in report["violations"] if v["kind"] == "lift-failure"]
    assert len(failures) == report["values"]["lifts_tested"] > 0
    assert failures[0]["detail"] == "step budget exceeded"
    assert not report["checks"][0]["passed"]


def _rotate_vertical_leaf_frame(monkeypatch):
    """Turn the frame of every vertical leaf by pi/2."""
    frame = thurston.leaf_normalizer
    turn = cmath.exp(0.25j * math.pi)
    quarter = MoebiusMap(np.diag([turn, 1.0 / turn]))

    def rotated(gs, leaf):
        vertical = leaf.geodesic.p.is_infinity or leaf.geodesic.q.is_infinity
        return quarter @ frame(gs, leaf) if vertical else frame(gs, leaf)

    monkeypatch.setattr(thurston, "leaf_normalizer", rotated)


def test_covering_detects_rotated_leaf_frame(two_pi_structure, monkeypatch):
    """Rotating the frame of the vertical leaf by pi/2 moves its crescent:
    a loop that starts left of the leaf and crosses it then cannot close."""
    loop = [0.03 + 1.2j - 0.1 * np.exp(2j * math.pi * k / 20) for k in range(21)]
    report = verify_covering(two_pi_structure, [loop], limit_domain(two_pi_structure), margin=0.05)
    assert report["violations"] == []

    _rotate_vertical_leaf_frame(monkeypatch)
    report = verify_covering(two_pi_structure, [loop], limit_domain(two_pi_structure), margin=0.05)
    assert {"kind": "no-closure", "loop": 0, "start": "stratum", "end": "crescent"} in (
        report["violations"]
    )
    assert not report["checks"][0]["passed"]


def test_covering_exit_side_detects_rotated_leaf_frame(two_pi_structure, monkeypatch):
    """A loop that starts right of the vertical leaf enters its crescent
    from the high side; under the rotated frame its lift leaves the crescent
    far from the leaf, on the side the forced sign does not give."""
    loop = [1j + 0.3 * np.exp(2j * math.pi * k / 20) for k in range(21)]
    report = verify_covering(two_pi_structure, [loop], limit_domain(two_pi_structure), margin=0.05)
    assert report["violations"] == []

    _rotate_vertical_leaf_frame(monkeypatch)
    report = verify_covering(two_pi_structure, [loop], limit_domain(two_pi_structure), margin=0.05)
    assert {"kind": "lift-failure", "loop": 0,
            "detail": "crescent exit on the wrong side of its leaf"} in report["violations"]
    assert not report["checks"][0]["passed"]


def test_low_sides_match_leaf_frames():
    """The low side of every positive-weight leaf, read off its endpoints,
    is the side of the point at angle pi/2 - 0.05 in the leaf's frame (the
    reference below): five FN instances, a1 alone and the three cuffs at
    2 pi, depth 5, leaves around the basepoint."""
    from test_acceptance import FN_INSTANCES

    low = cmath.exp(1j * (math.pi / 2.0 - 0.05))
    cuffs = (GroupWord((1,)), GroupWord((-1, 4)), GroupWord((-4,)))
    checked = 0
    for fn in FN_INSTANCES:
        hol = fuchsian_from_fn(fn)
        for words in (cuffs[:1], cuffs):
            gs = GraftedStructure(
                hol, WeightedMulticurve(tuple((w, TWO_PI) for w in words)), depth=5
            )
            table = gs.leaves_near([gs.basepoint])
            rows = np.nonzero(table.weight > 0.0)[0]
            ref = [
                bool(table.sides(leaf_normalizer(gs, table[r]).inverse()(low))[r] > 0)
                for r in rows
            ]
            assert thurston._low_sides(table, rows) == ref
            checked += len(rows)
    assert checked > 2000


def test_covering_margin_guard(two_pi_structure):
    loop = [complex(0.5, 0.001) + 0.01 * np.exp(2j * math.pi * k / 12) for k in range(13)]
    with pytest.raises(PreconditionError):
        verify_covering(two_pi_structure, [loop], limit_domain(two_pi_structure), margin=0.05)


def test_covering_degenerate_loops_raise(two_pi_structure):
    for loop in ([], [0.4 + 0.9j]):
        with pytest.raises(DegenerateInputError):
            verify_covering(two_pi_structure, [loop], limit_domain(two_pi_structure), margin=0.05)


def test_covering_without_loops_raises(two_pi_structure):
    with pytest.raises(DegenerateInputError):
        verify_covering(two_pi_structure, [], limit_domain(two_pi_structure), margin=0.05)


def test_covering_without_lifts_fails(holonomy):
    # Weight 0 leaves no crescent, and a lower half-plane loop no stratum
    # lift: all-lifts-close must not pass over no lift.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 0.0),)), depth=5)
    report = verify_covering(gs, [_circle_loop(0.2 - 1.0j)], limit_domain(gs), margin=0.05)
    assert report["values"]["lifts_tested"] == 0
    assert report["violations"] == [{"kind": "no-lifts-tested"}]
    assert not next(c for c in report["checks"] if c["name"] == "all-lifts-close")["passed"]


def test_covering_requires_two_pi_weights(half_pi_structure):
    loop = [complex(0.4, 0.9) + 0.05 * np.exp(2j * math.pi * k / 12) for k in range(13)]
    with pytest.raises(PreconditionError):
        verify_covering(half_pi_structure, [loop], limit_domain(half_pi_structure), margin=0.05)
