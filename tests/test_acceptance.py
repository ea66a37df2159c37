"""Acceptance suite: numerical reproduction of the structural theorems at
desk scale.  Each criterion prints one PASS/FAIL line with its tolerance."""

import cmath
import math
import time

import numpy as np
import pytest

from cp1graft.moebius import (
    INFINITY,
    MoebiusMap,
    OrientedCircle,
    angle_between,
    apply,
    circle_through,
    cp1,
    minimal_enclosing_disk,
)
from cp1graft.hyperbolic import (
    GeodesicH3,
    PlaneH3,
    apply_isometry,
    dome,
    nearest_point_projection,
    rotation_about_geodesic,
)
from cp1graft.surface import FNCoordinates, GroupWord, fuchsian_from_fn
from cp1graft.grafting import (
    GraftedStructure,
    WeightedMulticurve,
    distance_to_leaf,
    embed_h3,
    pleated_surface,
)
from cp1graft.thurston import (
    DiskComplementDomain,
    dome_measure_report,
    maximal_disk_at,
    recover_weight_from_grafted,
    stratification_check,
    verify_covering,
)
from conftest import cocircular_rows, limit_domain
from oracles import (
    brute_force_minimal_disk,
    dihedral_from_plane_normals,
    maximal_disk_support_search,
)

TWO_PI = 2.0 * math.pi
OMEGA = cmath.exp(1j * math.pi / 3.0)

FN_INSTANCES = [
    FNCoordinates((2.0, 2.5, 1.7), (0.3, -0.8, 1.1)),
    FNCoordinates((1.6, 1.6, 1.6), (0.0, 0.0, 0.0)),
    FNCoordinates((2.8, 1.4, 2.1), (-0.5, 0.9, 0.2)),
    FNCoordinates((1.2, 2.9, 2.3), (1.4, -0.3, -1.0)),
    FNCoordinates((2.2, 2.2, 1.3), (0.6, 0.6, -0.6)),
]

# Multicurves over the cuff system: weights in {2 pi, 4 pi}.
MULTICURVES = [
    ((GroupWord((1,)), TWO_PI),),
    ((GroupWord((-4,)), 2 * TWO_PI),),
    ((GroupWord((1,)), TWO_PI), (GroupWord((-1, 4)), 2 * TWO_PI), (GroupWord((-4,)), TWO_PI)),
]


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {name}: {detail}")
    assert passed, f"criterion {num} failed: {detail}"


def two_pi_structures():
    """Every FN instance grafted along every multicurve, at depth 6."""
    out = []
    for fn in FN_INSTANCES:
        hol = fuchsian_from_fn(fn)
        for entries in MULTICURVES:
            out.append(GraftedStructure(hol, WeightedMulticurve(entries), depth=6))
    return out


@pytest.fixture(scope="module")
def grafted_structures():
    return two_pi_structures()


def criterion_1(structures):
    """Criterion 1 as (passed, detail): 2 pi-grafting leaves the holonomy
    of each structure unchanged."""
    t0 = time.time()
    worst = 0.0
    for gs in structures:
        rp = gs.rho_prime
        for before, after in zip(gs.hol.generators, rp.generators):
            worst = max(worst, after.proj_distance(before))
    elapsed = time.time() - t0
    return (
        worst < 1e-9 and elapsed < 30.0,
        f"max generator deviation {worst:.3e} (tol 1e-9), {len(structures)} "
        f"structures in {elapsed:.1f}s (budget 30s)",
    )


def test_criterion_1_two_pi_invariance(grafted_structures):
    """2 pi-grafting leaves the holonomy unchanged."""
    _report(1, "2pi-grafting holonomy invariance", *criterion_1(grafted_structures))


def test_criterion_2_goldman_recovery(grafted_structures):
    """Recovered grafting weights match the configuration and are 2 pi multiples."""
    t0 = time.time()
    worst_cfg = 0.0
    worst_mult = 0.0
    count = 0
    for gs in grafted_structures:
        for word, weight in gs.multicurve.entries:
            got = recover_weight_from_grafted(gs, word)
            worst_cfg = max(worst_cfg, abs(got - weight))
            k = got / TWO_PI
            worst_mult = max(worst_mult, abs(k - round(k)) * TWO_PI)
            count += 1
    elapsed = time.time() - t0
    _report(
        2, "Goldman weight recovery",
        worst_cfg < 1e-6 and worst_mult < 1e-6 and elapsed < 60.0,
        f"{count} weights recovered, max config error {worst_cfg:.3e}, max "
        f"2pi-multiple defect {worst_mult:.3e} (tol 1e-6), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_stratification():
    """Cores stratify the domain; maximal disks match the support oracle."""
    t0 = time.time()
    rng = np.random.default_rng(0)
    tetra = [0, 1, "inf", OMEGA]
    rng6 = np.random.default_rng(42)
    six = [complex(rng6.uniform(-2, 2), rng6.uniform(-2, 2)) for _ in range(6)]
    worst_oracle = 0.0
    all_ok = True
    details = []
    for name, zs in (("tetrahedron", tetra), ("6-point", six)):
        pts = [INFINITY if z == "inf" else cp1(z) for z in zs]
        dom = DiskComplementDomain.from_ideal_points(pts)
        samples = []
        while len(samples) < 500:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if dom.contains(cp1(z), margin=1e-3):
                samples.append(z)
        report = stratification_check(dom, samples)
        ok = not report["violations"] and all(c["passed"] for c in report["checks"])
        all_ok = all_ok and ok
        for z in samples:
            rec = maximal_disk_at(dom, cp1(z))
            oc, orad = maximal_disk_support_search(zs, z)
            scale = max(1.0, orad)
            worst_oracle = max(
                worst_oracle,
                abs(rec.normalized.center - oc) / scale,
                abs(rec.normalized.radius - orad) / scale,
            )
        details.append(f"{name}: {len(samples)} samples, violations "
                       f"{len(report['violations'])}")
    elapsed = time.time() - t0
    _report(
        3, "stratification by cores",
        all_ok and worst_oracle < 1e-8 and elapsed < 30.0,
        "; ".join(details) + f"; oracle disk error {worst_oracle:.3e} (tol 1e-8), "
        f"{elapsed:.1f}s (budget 30s)",
    )


def criterion_4():
    """Criterion 4 as (passed, detail): the transverse measure across each
    dome edge equals its dihedral angle."""
    t0 = time.time()
    tetra_pts = [cp1(0), cp1(1), INFINITY, cp1(OMEGA)]
    report = dome_measure_report(tetra_pts, tol=1e-5)
    worst = max(ev["error"] for ev in report["values"]["edges"])
    weights = [ev["dihedral"] for ev in report["values"]["edges"]]
    spread = max(weights) - min(weights)
    # Plane-normal oracle on one representative edge.
    mesh = dome(tetra_pts)
    zs = [0, 1, "inf", OMEGA]
    e = mesh.edges[0]
    oracle = dihedral_from_plane_normals(
        [zs[i] for i in mesh.faces[e.face_ids[0]].vertex_ids],
        [zs[i] for i in mesh.faces[e.face_ids[1]].vertex_ids],
        zs,
    )
    oracle_err = abs(e.weight - oracle)

    rng = np.random.default_rng(42)
    six = [cp1(complex(rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(6)]
    report6 = dome_measure_report(six, tol=1e-5)
    worst6 = max(ev["error"] for ev in report6["values"]["edges"])
    elapsed = time.time() - t0
    return (
        worst < 1e-5 and worst6 < 1e-5 and spread < 1e-8 and oracle_err < 1e-8
        and elapsed < 30.0,
        f"tetrahedron worst error {worst:.3e}, 6-point worst {worst6:.3e} (tol 1e-5); "
        f"weight spread {spread:.3e} (tol 1e-8); normal-oracle gap {oracle_err:.3e}; "
        f"{elapsed:.1f}s (budget 30s)",
    )


def test_criterion_4_measure_vs_dome():
    """Transverse measure across each dome edge equals its dihedral angle."""
    _report(4, "transverse measure vs dome dihedrals", *criterion_4())


def _left_of(p, q, x):
    """Whether the real point x (None for infinity) lies left of the
    geodesic through p and q, oriented from p to q.  Oriented from e- to
    e+, a half circle has on its left its outside when e- < e+ and its
    inside when e- > e+; an upward vertical line at c has x < c."""
    if p.real == q.real:
        if x is None:
            return None
        return x < p.real if q.imag > p.imag else x > p.real
    c = (abs(q) ** 2 - abs(p) ** 2) / (2.0 * (q.real - p.real))
    outside = x is None or abs(x - c) > abs(p - c)
    # Heading right along the half circle, e- = c - r lies below e+ = c + r.
    return outside if q.real > p.real else not outside


def _sign_mismatches(gs, z):
    """(crossings, mismatches) on [x0, z]: a crossing's sign must be +1
    exactly when its leaf's repelling endpoint lies left of the segment."""
    crossings = gs.crossings_to(z)
    wrong = 0
    for c in crossings:
        rep = c.leaf.geodesic.p
        left = _left_of(gs.basepoint, z, None if rep.is_infinity else rep.as_complex().real)
        wrong += left is None or c.sign != (1 if left else -1)
    return len(crossings), wrong


def criterion_5():
    """Criterion 5 as (passed, detail): beta(kappa(p)) = Psi_p(f(p)) and
    equivariance of the pleated surface on a pi/2 graft, and the bending
    direction: each crossing sign on the sampled segments [x0, z] against
    the side of the segment its leaf starts on, with at least one sign
    read."""
    t0 = time.time()
    hol = fuchsian_from_fn(FN_INSTANCES[0])
    mc = WeightedMulticurve(((GroupWord((1,)), math.pi / 2.0),))
    gs = GraftedStructure(hol, mc, depth=6)
    mesh = pleated_surface(hol, mc, depth=6, truncation_radius=2.0, structure=gs)
    rp = gs.rho_prime
    rng = np.random.default_rng(1)

    worst_psi = 0.0
    tested = signs = wrong = 0
    while tested < 100:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        if min(distance_to_leaf(z, lf.geodesic) for lf in gs.base_leaves) < 1e-4:
            continue
        bmap = gs.bending_map(z)
        plane = PlaneH3(OrientedCircle.real_line().transform(bmap))
        psi = nearest_point_projection(plane, gs.develop(z))
        beta = apply_isometry(bmap, embed_h3(z))
        worst_psi = max(worst_psi, float(np.linalg.norm(psi.coords() - beta.coords())))
        read, off = _sign_mismatches(gs, z)
        signs, wrong = signs + read, wrong + off
        tested += 1

    worst_eq = 0.0
    words = [GroupWord((l,)) for l in (1, 2, -3, 4)]
    for k in range(20):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.0))
        if min(distance_to_leaf(z, lf.geodesic) for lf in gs.base_leaves) < 1e-5:
            continue
        w = words[k % len(words)]
        for end in (z, hol.rho(w)(z)):
            read, off = _sign_mismatches(gs, end)
            signs, wrong = signs + read, wrong + off
        lhs = mesh.beta(hol.rho(w)(z))
        rhs = apply_isometry(rp.rho(w), mesh.beta(z))
        worst_eq = max(worst_eq, float(np.linalg.norm(lhs.coords() - rhs.coords())))
    elapsed = time.time() - t0
    return (
        worst_psi < 1e-6 and worst_eq < 1e-7 and wrong == 0 and signs > 0 and elapsed < 60.0,
        f"{tested} stratum samples, projection gap {worst_psi:.3e} (tol 1e-6), "
        f"equivariance residual {worst_eq:.3e} (tol 1e-7), "
        f"{wrong} of {signs} crossing signs against the left-of rule "
        f"(tol 0, at least one read), "
        f"{elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_pleated_relation():
    """beta(kappa(p)) = Psi_p(f(p)) and equivariance on a pi/2 graft."""
    _report(5, "pleated surface projection relation", *criterion_5())


def test_criterion_6_path_lifting():
    """Null-homotopic loops in the discontinuity domain lift and close."""
    t0 = time.time()
    hol = fuchsian_from_fn(FN_INSTANCES[0])
    mc = WeightedMulticurve(((GroupWord((1,)), TWO_PI),))
    gs = GraftedStructure(hol, mc, depth=6)
    rng = np.random.default_rng(7)
    limit = limit_domain(gs)
    loops = []
    while len(loops) < 50:
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.2, 2.2))
        if abs(c.imag) < 0.35:
            continue
        r = 0.06 + 0.08 * rng.random()
        loop = [c + r * np.exp(2j * math.pi * k / 24) for k in range(25)]
        if limit.distances(loop).min() > 0.075:
            loops.append(loop)
    report = verify_covering(gs, loops, limit, margin=0.05)
    failures = [v for v in report["violations"]]
    elapsed = time.time() - t0
    _report(
        6, "path lifting in the discontinuity domain",
        not failures
        and report["values"]["closures"] == report["values"]["lifts_tested"]
        and report["values"]["min_embedding_radius"] > 0.0
        and elapsed < 60.0,
        f"{len(loops)} loops, {report['values']['lifts_tested']} lifts, "
        f"{report['values']['closures']} closures, {len(failures)} failures, "
        f"min embedding radius {report['values'].get('min_embedding_radius', 0):.3e}, "
        f"{elapsed:.1f}s (budget 60s)",
    )


def criterion_7():
    """Criterion 7 as (passed, detail): minimal disks against brute force,
    circle transport against its definition, and rotation about a geodesic
    composed at complex angles theta + i l, which covers the translations
    of the twists too."""
    t0 = time.time()
    rng = np.random.default_rng(11)

    worst_med = 0.0
    for case in range(200):
        pts = [complex(rng.normal(), rng.normal()) for _ in range(10)]
        d = minimal_enclosing_disk(pts, seed=case)
        _, orad = brute_force_minimal_disk(pts)
        worst_med = max(worst_med, abs(d.radius - orad))
    # Cocircular hexagons and cube faces, on their own generator: points
    # on the running disk's circle, where the containment test decides.
    # Then the same rows with every nonzero point pushed out radially by a
    # factor 1 + U(0, 5e-4), on a generator of its own: points just outside
    # a running disk, which a containment slack takes in.
    cocircular = np.concatenate(cocircular_rows(np.random.default_rng(7)))
    pushed = cocircular * (1.0 + np.random.default_rng(8).uniform(0.0, 5e-4, cocircular.shape))
    for case, row in enumerate(np.concatenate([cocircular, pushed])):
        pts = row.tolist()
        d = minimal_enclosing_disk(pts, seed=case)
        _, orad = brute_force_minimal_disk(pts)
        worst_med = max(worst_med, abs(d.radius - orad))

    worst_nat = 0.0
    count = 0
    while count < 200:
        pts = [cp1(complex(rng.normal(), rng.normal())) for _ in range(3)]
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) < 0.1:
            continue
        try:
            circle = circle_through(*pts)
        except Exception:
            continue
        mm = MoebiusMap(m)
        lhs = circle.transform(mm).hermitian
        rhs = circle_through(*(apply(mm, p) for p in pts)).hermitian
        d = min(
            float(np.linalg.norm(lhs - rhs)), float(np.linalg.norm(lhs + rhs))
        )
        worst_nat = max(worst_nat, d)
        count += 1

    worst_rot = 0.0
    for _ in range(100):
        g = GeodesicH3(
            cp1(complex(rng.normal(), rng.normal())),
            cp1(complex(rng.normal(), rng.normal())),
        )
        t1, t2 = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2))
        lhs = rotation_about_geodesic(g, t1) @ rotation_about_geodesic(g, t2)
        rhs = rotation_about_geodesic(g, t1 + t2)
        worst_rot = max(worst_rot, lhs.proj_distance(rhs))
    elapsed = time.time() - t0
    worst = max(worst_med, worst_nat, worst_rot)
    return (
        worst < 1e-8 and elapsed < 10.0,
        f"minimal-disk {worst_med:.3e}, transport naturality {worst_nat:.3e}, "
        f"rotation composition {worst_rot:.3e} (tol 1e-8), {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_7_kernel_oracles():
    """Minimal disks, circle transport, and rotation composition vs oracles."""
    _report(7, "kernel oracle suite", *criterion_7())
