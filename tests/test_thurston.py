import cmath
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import cp1graft.moebius as moebius
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
    apply_stack,
    as_pairs,
    chordal_distance,
    chordal_rows,
    cp1,
    inversive_product,
    minimal_enclosing_disk,
    sphere_xyz,
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
    TOL_MEASURE,
    DiskComplementDomain,
    PreconditionError,
    dome_measure_report,
    face_core_point,
    maximal_disk_at,
    maximal_disks,
    projection_psi,
    recover_weight_from_grafted,
    stratification_check,
    transverse_measure,
    verify_covering,
)
from conftest import REPO, bench_workloads, domain_round_sets, limit_domain
from oracles import (
    lockstep_med_mismatches,
    maximal_disk_support_search,
    reference_classify_on_path,
    reference_edge_candidates,
    reference_edge_paths,
    reference_edge_strata,
    reference_core,
    reference_face_core_point,
    reference_geodesic,
    reference_maximal_disk,
    reference_single_edge_subpath,
    reference_transverse_measure,
)

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


def _fine_cli_loops(count: int, seed: int) -> list:
    """The fine samples that verify_covering's limit guard reads (505
    points a loop), on loops placed as ``cp1graft verify covering`` places
    them."""
    rng = np.random.default_rng(seed)
    sub = max(2, thurston.STEPS_PER_LOOP // 24)
    fine = []
    while len(fine) < count * (24 * sub + 1):
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.5, 2.5))
        if abs(c.imag) < 0.3:
            continue
        r = 0.08 + 0.1 * rng.random()
        loop = [c + r * np.exp(2j * math.pi * k / 24) for k in range(25)]
        fine += [a + (b - a) * k / sub for a, b in zip(loop, loop[1:]) for k in range(sub)]
        fine.append(loop[-1])
    return fine


def test_distances_match_per_point_norm(holonomy):
    """``distances`` is bit for bit the per-point minimum of np.linalg.norm
    over the complement's sphere coordinates, the minimum of the shared
    chordal-row expression, and the minimum of ``chordal_distance``: for a
    limit-set sample (one row per block) and for ideal sets (many rows per
    block).

    The Fuchsian sample lies on the great circle y = 0, where a query reads
    a band of sorted neighbours: it must give the full-row minimum on the
    guard's samples of 20 cli loops, on and within 1e-9 of the real line,
    at 0, infinity and within about 1e-12 of +-i (where the band does not
    suffice: distances there differ in the last bits only), and at
    the sample points themselves.  A rho' sample is off that circle and
    reads full rows.  The band settles every guard query."""
    rng = np.random.default_rng(31)
    zs = [complex(*rng.uniform(-3, 3, 2)) for _ in range(400)]
    ideal = [cp1(complex(*rng.uniform(-2, 2, 2))) for _ in range(12)] + [INFINITY]
    fuchsian = limit_set_sample(holonomy, 4)
    for pts in (fuchsian, ideal, ideal[:4]):
        dom = DiskComplementDomain(pts)
        xyz = np.array([p.sphere_coords() for p in dom.complement])
        ref = np.array([
            np.min(np.linalg.norm(xyz - PointCP1.from_complex(z).sphere_coords(), axis=1))
            for z in zs
        ])
        got = dom.distances(zs)
        assert got.tobytes() == ref.tobytes()
        rows = np.array([chordal_rows(dom.xyz, cp1(z).sphere_coords()).min() for z in zs[:40]])
        assert rows.tobytes() == got[:40].tobytes()
        scalar = np.array([
            min(chordal_distance(cp1(z), p) for p in dom.complement) for z in zs[:40]
        ])
        assert scalar.tobytes() == got[:40].tobytes()

    line = rng.uniform(-4, 4, 200)
    fine = _fine_cli_loops(20, seed=7)
    special = np.concatenate([as_pairs(
        fine
        + [complex(x, e) for x in line for e in (0.0, 1e-9, -1e-9, 3e-12)]
        + [0.0, INFINITY, 1j, -1j, 1.1j, 0.9j]
        + [t * 1j + complex(*rng.normal(0.0, 1e-12, 2)) for t in (1, -1) for _ in range(100)]
    ), fuchsian[::7]])
    queries = sphere_xyz(special)
    rho_prime = GraftedStructure(
        holonomy, WeightedMulticurve(((GroupWord((1,)), 1.3),)), depth=5
    ).rho_prime
    for pts, on_circle in ((fuchsian, True), (limit_set_sample(rho_prime, 3), False)):
        dom = DiskComplementDomain(pts)
        assert (dom._circle is not None) == on_circle
        ref = np.array([chordal_rows(dom.xyz, q).min() for q in queries])
        assert dom.distances(special).tobytes() == ref.tobytes()
    # The band settles every guard query: none needs a full row.
    dom = DiskComplementDomain(fuchsian)
    assert dom._screen(queries[: len(fine)], np.empty(len(fine))).all()


def test_limit_sample_to_distances_builds_no_points(holonomy, monkeypatch):
    """A limit sample goes to a domain, its distances and a maximal-disk
    batch as pair rows: no PointCP1 is built (counted as
    ``bench/layertrace.py`` counts them) until a record's query and ideal
    points, or the domain's complement, are read, each built once."""
    built = []
    post_init = PointCP1.__post_init__

    def counted(p):
        built.append(p)
        post_init(p)

    monkeypatch.setattr(PointCP1, "__post_init__", counted)
    rng = np.random.default_rng(5)
    queries = [complex(*rng.uniform(-3, 3, 2)) for _ in range(200)] + [0.0, "inf", 1j]
    dom = DiskComplementDomain(limit_set_sample(holonomy, 4))
    assert dom.distances(queries).shape == (203,)
    # Valid queries, and a complement point and one 1e-9 from it, rejected.
    z0, z1 = dom.rows[np.argmax(np.abs(dom.rows[:, 1]))].tolist()
    recs = maximal_disks(dom, queries[:200:20] + [z0 / z1, z0 / z1 + 1e-9j])
    assert built == []
    assert [isinstance(r, PreconditionError) for r in recs] == [False] * 10 + [True] * 2
    rec = recs[0]
    query, ideal = rec.query, rec.ideal_points
    assert len(built) == 1 + len(rec.ideal_ids)
    assert rec.query is query and rec.ideal_points is ideal and len(built) == 1 + len(rec.ideal_ids)
    assert [[p.z0, p.z1] for p in ideal] == dom.rows[list(rec.ideal_ids)].tolist()
    assert (query.z0, query.z1) == (queries[0], 1.0)
    built.clear()
    complement = dom.complement
    assert len(built) == len(complement) == len(dom.rows)
    # A second read builds nothing more.
    assert dom.complement is complement and len(built) == len(dom.rows)
    assert [[p.z0, p.z1] for p in complement] == dom.rows.tolist()


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
        edges = [reference_geodesic(ws[0] / abs(ws[0]), ws[1] / abs(ws[1]))]
    else:
        edges = []
        for j in range(k):
            edge = reference_geodesic(ws[j] / abs(ws[j]), ws[(j + 1) % k] / abs(ws[(j + 1) % k]))
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


def test_core_frame_faults_are_typed():
    """The core's frame steps reject their input with a DegenerateInputError:
    a normalized disk of radius below 1e-300 gives a singular frame, and
    one centred on a transported contact maps it to infinity."""
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    x = 0.5 + 0.5j
    rec = maximal_disk_at(dom, cp1(x))
    med = rec.normalized
    tiny = dataclasses.replace(rec, normalized=dataclasses.replace(med, radius=1e-310))
    with pytest.raises(DegenerateInputError, match="singular"):
        tiny.core
    # t takes the contact 0 to 1 / (0 - x).
    onto = dataclasses.replace(rec, normalized=dataclasses.replace(med, center=-1.0 / x))
    with pytest.raises(DegenerateInputError, match="at infinity"):
        onto.core


def record_bits(rec):
    """Every field of a maximal disk record as bits; an error as its type
    and message."""
    if isinstance(rec, Exception):
        return type(rec).__name__, str(rec)
    return (
        rec.disk.circle.hermitian.tobytes(), rec.ideal_ids,
        as_pairs(rec.ideal_points).tobytes(), rec.normalized, rec.query,
    )


def core_bits(frame, angles, edges):
    """A core's frame, boundary angles and edges as bits."""
    return (frame.matrix.tobytes(), [a.hex() for a in angles],
            [e.hermitian.tobytes() for e in edges])


def assert_matches_reference(dom, rec, want, where):
    """rec equals the oracle's record or error want, field for field, and
    its lazy core equals the core built point by point from want."""
    assert record_bits(rec) == record_bits(want), where
    if not isinstance(want, Exception):
        core = rec.core
        assert core_bits(core.frame, core.boundary_angles, core.edges) == core_bits(
            *reference_core(dom, want)), where


def identity_sets(group):
    """The ideal sets a batch is pinned on: the acceptance sets, the domain
    round's at a seed, or the domains of ``configs/``."""
    if group == "acceptance":
        return list(ACCEPTANCE_SETS.values())
    if group == "configs":
        return [list(RunConfig.load(str(REPO / "configs" / f"{name}.json")).domain_points)
                for name in ("sixpoint_domain", "tetrahedron_dome")]
    return domain_round_sets(int(group[len("seed"):]))


@pytest.mark.parametrize("group", ["acceptance", "seed1", "seed7", "seed100", "configs"])
def test_maximal_disks_match_per_point_reference(group):
    """maximal_disks keeps every bit of the per-point construction it
    replaced, on one mixed batch per set: samples, every complement point
    and a point within TOL_GEO of it, infinity, a point beyond 1 / TOL_GEO
    (at infinity for ``is_infinity``) and a NaN.  Each rejected query gets
    the reference's error at its own position, and every other query its
    record."""
    for k, pts in enumerate(identity_sets(group)):
        dom = DiskComplementDomain.from_ideal_points(pts)
        near = [p.as_complex() + 3e-8 for p in dom.complement if not p.is_infinity]
        queries = sample_queries(dom, 40, seed=k) + list(dom.complement) + near
        queries += [INFINITY, "inf", 1e8 + 1j, complex(math.nan, 0.0)]
        rng = np.random.default_rng(k)
        queries = [queries[i] for i in rng.permutation(len(queries))]

        def reference(x):
            try:
                return reference_maximal_disk(dom, x)
            except (PreconditionError, DegenerateInputError) as exc:
                return exc

        got = maximal_disks(dom, queries)
        assert len(got) == len(queries)
        for x, rec in zip(queries, got):
            assert_matches_reference(dom, rec, reference(x), (group, k, x))
        rejected = sum(isinstance(r, PreconditionError) for r in got)
        assert rejected >= 2 * len(near)
        assert maximal_disks(dom, []) == []


def test_maximal_disks_blocks_keep_positions(holonomy, monkeypatch):
    """Cut into blocks of a few queries, a batch gives each query the
    record or error it gets alone, in order."""
    dom = DiskComplementDomain(limit_set_sample(holonomy, 2))
    xs = np.sort([p.as_complex().real for p in dom.complement if not p.is_infinity])
    queries = [complex((a + b) / 2.0) for a, b in zip(xs[:12], xs[1:13])]
    queries += [0.3 + 0.7j, dom.complement[5], 1e-9 + xs[3]]
    monkeypatch.setattr(thurston, "DISK_BLOCK", 3 * len(dom.complement))
    got = maximal_disks(dom, queries)
    for x, rec in zip(queries, got):
        try:
            alone = maximal_disk_at(dom, x)
        except PreconditionError as exc:
            alone = exc
        assert record_bits(rec) == record_bits(alone), x
        try:
            want = reference_maximal_disk(dom, x)
        except PreconditionError as exc:
            want = exc
        assert_matches_reference(dom, rec, want, x)
    assert [isinstance(r, Exception) for r in got[-3:]] == [False, True, True]


def test_maximal_disks_take_a_huge_query_alone():
    """A query of 1e200, whose square overflows a float, is one query near
    infinity: it gets its PreconditionError, and the other query of its
    batch its record."""
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    rec, far = maximal_disks(dom, [0.5 + 0.5j, 1e200])
    assert_matches_reference(dom, rec, reference_maximal_disk(dom, 0.5 + 0.5j), "0.5+0.5j")
    assert record_bits(far) == ("PreconditionError", "query point is too close to the complement")


def test_distance_of_a_huge_query_is_finite():
    dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY])
    (d,) = dom.distances([1e200])
    assert math.isfinite(d) and d <= TOL_GEO


def test_maximal_disk_batches_stay_within_their_blocks(holonomy):
    """512 queries against the depth-4 Fuchsian limit sample (3,063 points)
    are taken in blocks of about DISK_BLOCK transported points: the memory a
    batch holds beyond the records it returns stays within a few blocks'
    arrays, where the whole batch at once would take 50 times as much.  A
    200-sample stratification adds only its pair test's C x G arrays (C
    contact points of G distinct disks, of which it holds about four at
    once)."""
    dom = DiskComplementDomain(limit_set_sample(holonomy, 4))
    n = len(dom.complement)
    xs = np.sort([p.as_complex().real for p in dom.complement if not p.is_infinity])
    gaps = np.sort(np.argsort(xs[:-1] - xs[1:])[:512])
    queries = [complex((xs[i] + xs[i + 1]) / 2.0) for i in gaps]
    block = max(1, thurston.DISK_BLOCK // n) * n * 32  # the transported pairs
    assert 512 * n * 32 > 40 * block

    def held(run):
        tracemalloc.start()
        try:
            out = run()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak - current

    recs, extra = held(lambda: maximal_disks(dom, queries))
    assert all(len(r.ideal_ids) == 2 for r in recs)
    assert extra < 8 * block
    report, extra = held(lambda: stratification_check(dom, queries[:200]))
    assert all(c["passed"] for c in report["checks"])
    contacts = len({i for r in recs[:200] for i in r.ideal_ids})
    forms = contacts * report["values"]["distinct_disks"] * 8
    assert extra < 8 * block + 4 * forms


def recorded_med_blocks(monkeypatch, run) -> list:
    """The (Q, N) stacks of points that ``run()`` hands to the lockstep
    minimal-disk kernel."""
    blocks = []
    kernel = thurston.minimal_enclosing_disks

    def record(z):
        blocks.append(np.array(z))
        return kernel(z)

    monkeypatch.setattr(thurston, "minimal_enclosing_disks", record)
    run()
    monkeypatch.setattr(thurston, "minimal_enclosing_disks", kernel)
    return blocks


def med_source(source, holonomy, tmp_path):
    """A run that builds maximal disks: a domain round of the benchmark at a
    seed, or 40 queries off a depth-3 Fuchsian or bent (curve a at 1.3)
    limit sample."""
    kind, seed = source.split("-")
    if kind == "domain":
        ops = bench_workloads().domain(int(seed), str(tmp_path))
        return lambda: [op.run() for op in ops]
    rep = holonomy if kind == "fuchsian" else GraftedStructure(
        holonomy, WeightedMulticurve(((GroupWord((1,)), 1.3),)), depth=5).rho_prime
    dom = DiskComplementDomain(limit_set_sample(rep, int(seed)))
    rng = np.random.default_rng(3)
    cand = rng.uniform(-2.0, 2.0, 200) + 1j * rng.uniform(-2.0, 2.0, 200)
    queries = list(cand[dom.distances(cand) > 1e-2][:40])
    return lambda: maximal_disks(dom, queries)


@pytest.mark.parametrize("source", ["domain-1", "domain-7", "fuchsian-3", "bent-3"])
def test_lockstep_disks_match_welzl_on_recorded_blocks(source, holonomy, monkeypatch, tmp_path):
    """Every block that the library hands to ``minimal_enclosing_disks`` in
    these runs gives Welzl's bits row by row, with the lockstep path taken
    for every block, small ones included."""
    blocks = recorded_med_blocks(monkeypatch, med_source(source, holonomy, tmp_path))
    assert sum(map(len, blocks)) >= 40
    assert [lockstep_med_mismatches(z) for z in blocks] == [[]] * len(blocks)


def test_most_rows_of_a_domain_round_finish_in_lockstep(monkeypatch, tmp_path):
    """Of the 1,891 rows of the seed-7 domain round, at most 15 % take a
    tie path (Welzl on the points of the circle, or on the whole row) when
    every block takes the lockstep path."""
    blocks = recorded_med_blocks(monkeypatch, med_source("domain-7", None, tmp_path))
    away = []
    band, scalar = moebius._welzl_on_band, moebius.minimal_enclosing_disk
    monkeypatch.setattr(moebius, "_welzl_on_band", lambda row, *a: away.append(1) or band(row, *a))
    monkeypatch.setattr(moebius, "minimal_enclosing_disk", lambda p: away.append(1) or scalar(p))
    monkeypatch.setattr(moebius, "_MED_LOCKSTEP_POINTS", 0)
    for z in blocks:
        moebius.minimal_enclosing_disks(z)
    rows = sum(map(len, blocks))
    assert rows == 1891 and 0 < len(away) <= 0.15 * rows


@pytest.mark.parametrize("name", ["tetrahedron", "cube"])
def test_records_with_support_contacts_keep_welzl_bits(name, tetrahedron_points, monkeypatch):
    """A record with fewer than two contacts takes its ideal points from
    the minimal disk's support.  No record of these cocircular sets has so
    few at TOL_CONTACT; with a band of zero, one in three to six does, and
    every record still equals the per-point reference built on Welzl,
    support and core included."""
    pts = tetrahedron_points if name == "tetrahedron" else [
        INFINITY if z == "inf" else cp1(complex(z)) for z in bench_workloads()._cube_points()]
    dom = DiskComplementDomain.from_ideal_points(pts)
    rng = np.random.default_rng(11)
    queries = [z for z in rng.uniform(-3, 3, 300) + 1j * rng.uniform(-3, 3, 300)
               if dom.contains(cp1(z), margin=1e-3)][:120]
    monkeypatch.setattr(thurston, "TOL_CONTACT", 0.0)
    monkeypatch.setattr(moebius, "_MED_LOCKSTEP_POINTS", 0)
    from_support = 0
    for x, rec in zip(queries, maximal_disks(dom, queries)):
        want = reference_maximal_disk(dom, x)
        assert_matches_reference(dom, rec, want, x)
        # The oracle's transported points, and those exactly on the circle.
        t = MoebiusMap(np.array([[0.0, 1.0], [1.0, -x]], dtype=complex))
        zs = [z0 / z1 for z0, z1 in apply_stack(t, dom.pairs).tolist()]
        med = want.normalized
        from_support += sum(abs(z - med.center) == med.radius for z in zs) < 2
    assert from_support >= 15


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
    """maximal_disks with the record at each target query replaced by
    change(record); ``planted.changed`` lists the queries it changed."""
    find = thurston.maximal_disks

    def planted(dom, points):
        points = list(points)
        recs = find(dom, points)
        hit = [x in targets and not isinstance(rec, Exception) for x, rec in zip(points, recs)]
        planted.changed += [x for x, h in zip(points, hit) if h]
        return [change(rec) if h else rec for h, rec in zip(hit, recs)]

    planted.changed = []
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
    return dataclasses.replace(rec, ideal_ids=rec.ideal_ids[:-1])


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
    planted = _plant(_nudged_disk, set(samples[::3]))
    monkeypatch.setattr(thurston, "maximal_disks", planted)
    report = stratification_check(dom, samples)
    assert report == per_pair_stratification_reference(dom, samples)
    assert report["values"] == plain["values"]
    # Both the batch and the reference's one-point calls got nudged disks.
    assert planted.changed == samples[::3] * 2


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
        0.2: dict(disk=outer, ideal_ids=(0, 1, 2)),
        0.3: dict(disk=inner, ideal_ids=(3,)),
    }

    find = thurston.maximal_disks

    def planted(d, points):
        points = list(points)
        return [dataclasses.replace(rec, **fakes[x]) for x, rec in zip(points, find(d, points))]

    monkeypatch.setattr(thurston, "maximal_disks", planted)
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
    planted = _plant(change, set(samples[3::7]))
    monkeypatch.setattr(thurston, "maximal_disks", planted)
    report = stratification_check(dom, samples)
    assert planted.changed[: len(samples[3::7])] == samples[3::7]
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


def measure_bits(res):
    """A measure result as bits, or an error as its type and message."""
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return res.value.hex(), [t.hex() for t in res.trace], res.levels, res.converged


def test_lockstep_measure_matches_one_path_at_a_time():
    """Paths measured together get, result for result, what each gets alone
    and what the lazy per-point refinement gave: a path whose level-0 disks
    do not intersect and that converges at level 2, paths that converge at
    level 1 and deeper, a path that reaches a complement point only at
    level 1 and raises there, one through a complement point at level 0,
    and a path of zero length."""
    pts = domain_round_sets(7)[7]
    dom = DiskComplementDomain(dome(pts).vertices)
    v = next(p for p in dom.complement if not p.is_infinity).as_complex()
    paths = [
        [-2.3233127080714753 + 0.8153759321775627j, 1.6429401431285169 - 0.013948267530939874j],
        [v - 1.0, v + 7.0],
        [0.4 + 2.5j, -1.2 - 2.7j],
        [v - 1j, v + 1j],
        [0.1 + 0.1j, 0.1 + 0.1j],
        [-2.742044610572318 + 0.17977995841637728j, -0.13695314458310648 + 1.9988239570986703j],
    ]
    got = thurston._measure_paths(dom, paths, TOL_MEASURE)

    def alone(measure, path):
        try:
            return measure(dom, path, TOL_MEASURE)
        except (PreconditionError, DegenerateInputError) as exc:
            return exc

    want = [alone(reference_transverse_measure, p) for p in paths]
    assert [measure_bits(r) for r in got] == [measure_bits(r) for r in want]
    assert [measure_bits(alone(transverse_measure, p)) for p in paths] == [
        measure_bits(r) for r in want]
    first = got[0]
    assert first.levels == 2 and len(first.trace) == 2 and first.converged
    assert max(r.levels for r in got if isinstance(r, thurston.MeasureResult)) >= 3
    assert [type(r).__name__ for r in got[1:5]] == [
        "PreconditionError", "MeasureResult", "PreconditionError", "DegenerateInputError"]
    with pytest.raises(PreconditionError):
        transverse_measure(dom, paths[1])


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


def dome_golden_sets():
    """(name, points, dome_measure_report keywords) of every DOME_GOLDEN set."""
    runs = [(f"seed{seed}-set{k}", pts, {})
            for seed in (1, 7, 100) for k, pts in enumerate(domain_round_sets(seed))]
    for name in ("sixpoint_domain", "tetrahedron_dome"):
        config = RunConfig.load(str(REPO / "configs" / f"{name}.json"))
        runs.append((name, list(config.domain_points),
                     {"tol": config.tol("measure")}))
    return runs


@pytest.fixture(scope="module")
def dome_measure_runs():
    """dome_measure_report on every set of DOME_GOLDEN, recording each
    candidate's probe labels from the label pass (set name, (domain, dome,
    edge), points, labels) and the probes sent to ``_disk_labels``."""
    batches, fallbacks, reports = [], [], {}
    labels, disk_labels = thurston._DomeStrata.labels, thurston._disk_labels
    current = []

    def recording(self, edges, probes):
        out = labels(self, edges, probes)
        for e, points, labs in zip(edges.tolist(), probes.tolist(), out):
            batches.append((current[-1], (self.dom, self.mesh, self.mesh.edges[e]), points, labs))
        return out

    def counting(strata, edges, points):
        fallbacks.extend(points)
        return disk_labels(strata, edges, points)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thurston._DomeStrata, "labels", recording)
        mp.setattr(thurston, "_disk_labels", counting)
        for name, pts, kwargs in dome_golden_sets():
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
    """Every probe of every run gets the label its maximal disk gives, one
    edge at a time (``reference_classify_on_path``), and the closed form
    decides all but a few of them."""
    _, batches, fallbacks = dome_measure_runs
    probes = 0
    for name, (dom, mesh, edge), points, labels in batches:
        refs = reference_classify_on_path(dom, mesh, edge, points)
        for z, label, ref in zip(points, labels, refs):
            probes += 1
            assert label == ref, (name, z)
    assert probes > 10_000
    assert len(fallbacks) <= probes // 500


def clustered_dome_points():
    """Three vertices 2e-5 apart on the unit circle, and five points around."""
    return ([cp1(cmath.exp(1j * t)) for t in (0.0, 2e-5, 4e-5)]
            + [cp1(z) for z in (3, 3j, -3, -3j, 2 + 2j)])


def test_strata_labels_on_a_face_with_clustered_vertices(monkeypatch):
    """Three vertices 2e-5 apart on the unit circle are one vertex in their
    face's frame, so that face's core is no polygon: it certifies no probe,
    and every probe of every round keeps the label its maximal disk gives.
    The first round probes every edge."""
    mesh = dome(clustered_dome_points())
    dom = DiskComplementDomain(mesh.vertices)
    strata = thurston._DomeStrata(dom, mesh)
    assert any(c.edges is None for c in strata.cores)
    rounds = []
    labels = thurston._DomeStrata.labels

    def recording(self, edges, probes):
        out = labels(self, edges, probes)
        rounds.append((edges.tolist(), probes.tolist(), out))
        return out

    monkeypatch.setattr(thurston._DomeStrata, "labels", recording)
    thurston._edge_paths(strata)
    assert rounds[0][0] == list(range(len(mesh.edges)))
    for edges, probes, out in rounds:
        for e, points, labs in zip(edges, probes, out):
            assert labs == reference_classify_on_path(dom, mesh, mesh.edges[e], points)


# Domes of the search's reference runs besides the DOME_GOLDEN sets: the
# clustered dome above, and two valid domes the report flags (CHANGES.md,
# FOUND lines of the dome-measure report): a path that backtracks in its
# edge's pencil, and an edge with no measure path.
EXTRA_DOMES = {
    "clustered": clustered_dome_points(),
    "backtracking": [cp1(z) for z in (-1.3221 + 1.1268j, -0.7037 - 0.5974j, 0.0998 - 1.0192j,
                                      1.8058 - 1.3833j, 0.5929 - 1.3157j)],
    "no-measure-path": [cp1(z) for z in (-0.07824 - 0.057123j, 0.031652 + 0.020803j,
                                         3.002232 + 0.005832j, 2.938316 - 0.032704j)],
}
# Edges all of whose candidates fail the walk.
NO_PATH_EDGES = {"clustered": [0, 1, 2, 4, 5, 7], "no-measure-path": [1]}


def path_bits(path):
    return None if path is None else [(float.hex(z.real), float.hex(z.imag)) for z in path]


# The strata table's columns, one row per edge, and the per-edge strata's
# values they hold.
STRATA_COLUMNS = ("n", "ninv", "bs", "sides", "phis", "turn", "stretch", "closed_form", "others")


def strata_row_bytes(values):
    """The bytes of each value, a map's or circle's by its matrix."""
    return [np.asarray(getattr(v, "matrix", v)).tobytes() for v in values]


@pytest.mark.parametrize("name", sorted(DOME_GOLDEN) + list(EXTRA_DOMES))
def test_edge_paths_match_per_edge_search(name):
    """The lockstep search finds, for every edge, the path of the per-edge
    search (``reference_edge_paths``) point for point, or None where it
    finds none; every row of the strata table holds, byte for byte, the
    values the per-edge strata (``reference_edge_strata``) build."""
    pts = EXTRA_DOMES.get(name) or {n: p for n, p, _ in dome_golden_sets()}[name]
    mesh = dome(pts)
    dom = DiskComplementDomain(mesh.vertices)
    cores = [thurston._FaceCore(dom, f) for f in mesh.faces]
    strata = thurston._DomeStrata(dom, mesh)
    assert [strata_row_bytes(getattr(strata, c)[e] for c in STRATA_COLUMNS)
            for e in range(len(mesh.edges))] == [
        strata_row_bytes(getattr(reference_edge_strata(dom, mesh, edge, cores), c)
                         for c in STRATA_COLUMNS)
        for edge in mesh.edges]
    got = thurston._edge_paths(strata)
    want = reference_edge_paths(dom, mesh, cores)
    assert [path_bits(p) for p in got] == [path_bits(p) for p in want]
    assert [e for e, p in enumerate(got) if p is None] == NO_PATH_EDGES.get(name, [])


@pytest.mark.parametrize("planted", [0, 3])
def test_edge_paths_take_the_next_candidate_in_a_later_round(tetrahedron_points, planted, monkeypatch):
    """When the walk fails on the first candidate of one edge, that edge
    gets the path of its next candidate that the per-edge search trims, in
    a later round; every other edge keeps its first-round path."""
    mesh = dome(tetrahedron_points)
    dom = DiskComplementDomain(mesh.vertices)
    cores = [thurston._FaceCore(dom, f) for f in mesh.faces]
    strata = reference_edge_strata(dom, mesh, mesh.edges[planted], cores)
    first, *rest = reference_edge_candidates(strata)
    crossing, failed = thurston._crossing, []

    def failing(line, labels):
        if line.pts == first:
            failed.append(line)
            return None
        return crossing(line, labels)

    monkeypatch.setattr(thurston, "_crossing", failing)
    got = thurston._edge_paths(thurston._DomeStrata(dom, mesh))
    want = reference_edge_paths(dom, mesh, cores)
    want[planted] = next(p for p in (reference_single_edge_subpath(strata, c) for c in rest)
                         if p is not None)
    assert len(failed) == 1
    assert [path_bits(p) for p in got] == [path_bits(p) for p in want]


def test_face_core_points_match_per_radius_search():
    """``face_core_point`` finds, on every face of every DOME_GOLDEN set,
    the point of the per-radius search bit for bit, or fails where it
    fails."""
    checked = 0
    for _, pts, _ in dome_golden_sets():
        mesh = dome(pts)
        dom = DiskComplementDomain(mesh.vertices)
        for face in mesh.faces:
            try:
                want = reference_face_core_point(dom, face).as_complex()
            except DegenerateInputError:
                with pytest.raises(DegenerateInputError):
                    face_core_point(dom, face)
                continue
            got = face_core_point(dom, face).as_complex()
            assert (float.hex(got.real), float.hex(got.imag)) == (
                float.hex(want.real), float.hex(want.imag))
            checked += 1
    assert checked == 240


def test_maximal_disk_matches_two_inversions(dome_measure_runs):
    """The disk of every maximal disk record is bit for bit the push-forward
    by ``t.inverse()`` through ``OrientedCircle.transform``, on every probe
    of the seed-7 round, taken as the batches the strata labelled."""
    _, batches, _ = dome_measure_runs
    checked = 0
    for name, (dom, _, _), points, _ in batches:
        if not name.startswith("seed7-"):
            continue
        for z, rec in zip(points, maximal_disks(dom, points)):
            # t as the per-point oracle builds it from the query.
            x = rec.query
            if x.is_infinity:
                t = MoebiusMap.identity()
            else:
                t = MoebiusMap(np.array([[0.0, 1.0], [1.0, -x.as_complex()]], dtype=complex))
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


def test_covering_runs_match_single_steps(two_pi_structure, three_cuff_structure, monkeypatch):
    """``_march_loop`` takes plain steps as runs (``stratum_run`` and
    ``crescent_run``).  With the runs switched off it takes every step by
    its step rule; each lift must end the same way, with the same radius
    bits: on seeded loops, on loops whose crescent exits overshoot the
    crescent's edge by about 1e-4 and on a chord that crosses two leaves,
    at 512 steps per loop, at two steps per loop edge (so that steps
    subdivide), and under a step budget that ends lifts part way."""
    ends = []
    march = thurston._march_loop

    def recorded(lift, path, weights, low_positive):
        end, radius, msg = march(lift, path, weights, low_positive)
        ends.append((None if end is None else (
            None if end[0] is None else end[0].tobytes(), end[1],
            None if end[2] is None else float.hex(end[2])), float.hex(radius), msg))
        return end, radius, msg

    monkeypatch.setattr(thurston, "_march_loop", recorded)
    rng = np.random.default_rng(18)
    limit = limit_domain(two_pi_structure)
    loops = []
    while len(loops) < 4:
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.5, 2.5))
        loop = _circle_loop(c, r=0.05 + 0.3 * rng.random(), n=int(rng.integers(3, 30)))
        if abs(c.imag) > 0.15 and limit.distances(loop).min() > 0.03:
            loops.append(loop)
    # Loops that cross the vertical leaf of the 2 pi structure (the
    # imaginary axis) and cross back with a step that ends 1e-4 past it.
    hairline = [-0.2 + 1.0j, 1e-4 + 1.0j, 0.2 + 1.0j, 0.2 + 1.3j, -1e-4 + 1.3j, -0.2 + 1.3j]
    # At two steps per edge, the chord from -0.1 + 0.2i crosses two of the
    # three cuffs' leaves in one step, which then subdivides.
    chord = [-0.1 + 0.2j] + [0.9 + 0.2j + cmath.exp(1j * math.pi * k / 40) for k in range(41)]
    cases = [
        (two_pi_structure, limit, loops + [hairline, hairline[::-1]]),
        (three_cuff_structure, limit_domain(three_cuff_structure), [chord]),
    ]

    def run_all():
        ends.clear()
        for gs, limit, loops in cases:
            for steps, budget in ((512, 100_000), (2, 100_000), (512, 300)):
                monkeypatch.setattr(thurston, "STEPS_PER_LOOP", steps)
                monkeypatch.setattr(thurston, "MAX_STEPS", budget)
                verify_covering(gs, loops, limit, margin=0.02)
        return list(ends)

    batched = run_all()
    samples = thurston._LoopSamples
    monkeypatch.setattr(samples, "stratum_run", lambda self, r, signs, limit: (0, math.inf))
    monkeypatch.setattr(
        samples, "crescent_run", lambda self, j, r, psi, theta, limit: (0, math.inf, psi)
    )
    single = run_all()
    assert batched == single
    assert sum(end[0] is None for end in single) > 0 and len(single) > 300


def test_covering_step_budget_reports_lift_failure(two_pi_structure, monkeypatch):
    monkeypatch.setattr(thurston, "MAX_STEPS", 10)
    report = verify_covering(
        two_pi_structure, [_circle_loop(0.3 + 1.2j)], limit_domain(two_pi_structure), margin=0.05
    )
    failures = [v for v in report["violations"] if v["kind"] == "lift-failure"]
    assert len(failures) == report["values"]["lifts_tested"] > 0
    assert failures[0]["detail"] == "step budget exceeded"
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
