"""Inverse direction at desk scale: maximal disks via normalized minimal
enclosing disks, ideal points and cores, stratification checks, the
transverse bending measure, the nearest-point projection, recovery of
grafting weights, and path-lifting verification in the discontinuity domain.

Domains are finite-data models: the complement of a finite ideal set, or of
a limit-set sample, held once as arrays.  Ideal points of maximal disks are
realized as contact points of the transported complement with the minimal
enclosing circle.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .moebius import (
    TOL_GEO,
    DegenerateInputError,
    MinimalDisk,
    MoebiusMap,
    NoIntersectionError,
    OrientedCircle,
    PointCP1,
    RoundDisk,
    affine_stack,
    angle_between,
    apply,
    apply_stack,
    as_pairs,
    chordal_distance,
    chordal_rows,
    cp1,
    frobenius_rows,
    inversive_product,
    minimal_enclosing_disk,
    moebius_two_points,
    sphere_xyz,
    unit_pairs,
)
from .hyperbolic import PlaneH3, PointH3, dome, nearest_point_projection
from .surface import GroupWord, axis
from .grafting import (
    GraftedStructure,
    LiftedLeaf,
    leaf_normalizer,
)

TOL_CONTACT = 1e-6  # relative band for boundary-contact detection
TOL_MEASURE = 1e-5
TOL_SAME_DISK = 1e-6  # Frobenius distance of Hermitian forms of one disk
TOL_SAME_POINT = 10 * TOL_GEO  # chordal distance of one ideal point
# Relative band around a threshold inside which a batched value, which may
# differ from its scalar counterpart in the last bits, is not trusted.
BATCH_BAND = 1e-12


class PreconditionError(ValueError):
    """Input violates a stated precondition (guard, not a theorem failure)."""


class TransversalityError(RuntimeError):
    """Consecutive maximal disks failed to intersect at maximal refinement."""


# ---------------------------------------------------------------------------
# Domains


# Distances to a domain's complement are taken in blocks of about this many:
# one row per point for a limit-set sample, a whole batch for an ideal set.
ROW_BLOCK = 2048


@dataclass(frozen=True)
class DiskComplementDomain:
    """CP^1 minus a finite sample: the ideal set of a dome, or a limit-set
    sample standing for the limit set of the domain of discontinuity.

    The complement is also held as arrays from the pair-array kernel, whose
    bits are those of the per-point methods: ``pairs`` (N, 2), the
    normalized homogeneous pairs, and ``xyz`` (N, 3), the sphere
    coordinates.  Queries take one point or a sequence of points.
    """

    complement: tuple  # PointCP1
    pairs: np.ndarray = field(init=False, repr=False, compare=False)
    xyz: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = tuple(cp1(p) for p in self.complement)
        if len(pts) < 2:
            raise DegenerateInputError("complement must contain more than one point")
        object.__setattr__(self, "complement", pts)
        raw = as_pairs(pts)
        for name, arr in (("pairs", unit_pairs(raw)), ("xyz", sphere_xyz(raw))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @staticmethod
    def from_ideal_points(points) -> "DiskComplementDomain":
        return DiskComplementDomain(tuple(points))

    def distances(self, points) -> np.ndarray:
        """Least chordal distance from each point to the complement, from
        blocks of about ROW_BLOCK distances: the minimum of
        ``chordal_distance`` over the complement, bit for bit."""
        xyz = sphere_xyz(as_pairs(points))
        step = max(1, ROW_BLOCK // len(self.xyz))
        out = np.empty(len(xyz))
        for s in range(0, len(xyz), step):
            out[s : s + step] = chordal_rows(self.xyz, xyz[s : s + step, None]).min(axis=1)
        return out

    def contains(self, points, margin: float = TOL_GEO):
        """Whether a point is farther than margin from every complement
        point, in the chordal metric: a bool for one point, a bool array for
        a list, tuple or array of points."""
        if not isinstance(points, (list, tuple, np.ndarray)):
            # One point: its own sphere_coords, the bits of a sphere_xyz row.
            return bool(chordal_rows(self.xyz, cp1(points).sphere_coords()).min() > margin)
        return self.distances(points) > margin


# ---------------------------------------------------------------------------
# Maximal disks


@dataclass(frozen=True)
class CoreRegion:
    """Hyperbolic convex hull of the ideal points inside the maximal disk,
    represented in a unit-disk frame (query point at the origin).  With
    fewer than two distinct vertices it has no edges and contains nothing."""

    frame: MoebiusMap  # original coordinates -> unit disk, query -> 0
    boundary_angles: tuple  # distinct vertices as angles on the unit circle
    edges: tuple  # OrientedCircle per hull edge, core on the disk side

    def contains(self, p: PointCP1) -> bool:
        if not self.edges:
            return False
        q = apply(self.frame, cp1(p))
        if q.is_infinity or abs(q.as_complex()) >= 1.0:
            return False
        if len(self.boundary_angles) == 2:
            return abs(self.edges[0].evaluate(q)) < TOL_GEO
        return all(e.evaluate(q) < TOL_GEO for e in self.edges)


@dataclass(frozen=True)
class MaximalDiskRecord:
    disk: RoundDisk  # oriented: disk side is the maximal disk
    ideal_points: tuple  # contact points of the complement, original coords
    ideal_ids: tuple  # their indices in the domain's complement
    normalized: MinimalDisk  # enclosing disk of the transported complement
    query: PointCP1
    frame_maps: tuple = field(repr=False, compare=False)  # (unit-disk map, normalizer)
    boundary: tuple = field(repr=False, compare=False)  # ideal points in the unit-disk frame

    @cached_property
    def core(self) -> CoreRegion:
        """The core, built on first access."""
        u, t = self.frame_maps
        return _core_region(u @ t, self.boundary)

    def same_disk(self, other: "MaximalDiskRecord") -> bool:
        return self.disk.circle.proj_distance(other.disk.circle) < TOL_SAME_DISK


def _normalizer_to_infinity(x: PointCP1) -> MoebiusMap:
    if x.is_infinity:
        return MoebiusMap.identity()
    return MoebiusMap(np.array([[0.0, 1.0], [1.0, -x.as_complex()]], dtype=complex))


def _geodesic_center(u: complex, v: complex):
    """Center and squared radius of the circle orthogonal to the unit circle
    through boundary points u, v; None when the geodesic is a diameter."""
    denom = 1.0 + (u * np.conj(v)).real
    if abs(denom) < 1e-12:
        return None
    m = (u + v) / denom
    return m, abs(m) ** 2 - 1.0


def _poincare_geodesic(u: complex, v: complex) -> OrientedCircle:
    """Geodesic of the unit disk between boundary points u, v, as the circle
    orthogonal to the unit circle (or a diameter)."""
    geo = _geodesic_center(u, v)
    if geo is None:
        # Diameter through u and -u: the line through the origin.
        h = np.array([[0.0, 1j * u], [-1j * np.conj(u), 0.0]], dtype=complex)
        return OrientedCircle(h)
    m, r2 = geo
    return OrientedCircle.from_center_radius(m, math.sqrt(r2))


# Squared radius of a hull geodesic below which its two ends are one core
# vertex.  Above it the circle's own det < 0 check cannot fail: det comes out
# as -r2 within 1e-14 * (1 + r2).
TINY_EDGE = 1e-9


def _core_region(frame: MoebiusMap, ws: tuple) -> CoreRegion:
    """The core from the ideal points ws in the unit-disk frame, in angular
    order.  A point whose geodesic to the previous one (cyclically) has a
    squared radius below TINY_EDGE is the same vertex.  On the k distinct
    vertices the core is one geodesic for k = 2, else the k hull edges, each
    oriented with the next vertex on its disk side; k < 2 gives no edge."""
    units = [w / abs(w) for w in ws]
    geos = [_geodesic_center(units[j - 1], units[j]) for j in range(len(ws))]
    vs = [j for j, geo in enumerate(geos) if geo is None or geo[1] >= TINY_EDGE]
    k = len(vs)
    edges = []
    for j in range(k if k > 2 else k // 2):
        edge = _poincare_geodesic(units[vs[j]], units[vs[(j + 1) % k]])
        if k > 2 and edge.evaluate(PointCP1.from_complex(ws[vs[(j + 2) % k]])) > 0:
            edge = edge.reversed()
        edges.append(edge)
    angles = tuple(math.atan2(ws[j].imag, ws[j].real) for j in vs)
    return CoreRegion(frame=frame, boundary_angles=angles, edges=tuple(edges))


def maximal_disk_at(dom: DiskComplementDomain, x) -> MaximalDiskRecord:
    """The maximal disk whose core contains x: normalize x to infinity, take
    the minimal enclosing disk of the transported complement, and return its
    complement; ideal points are the boundary contacts.  The record's core is
    built on first access."""
    x = cp1(x)
    if not dom.contains(x):
        raise PreconditionError("query point is too close to the complement")
    t = _normalizer_to_infinity(x)
    transported = apply_stack(t, dom.pairs)
    zs = affine_stack(transported)
    med = minimal_enclosing_disk(zs)
    contacts = [
        i for i, z in enumerate(zs)
        if abs(abs(z - med.center) - med.radius) <= TOL_CONTACT * med.radius
    ]
    if len(contacts) < 2:
        contacts = sorted(set(contacts) | set(med.support))
    circle_norm = OrientedCircle.from_center_radius(med.center, med.radius, disk_inside=False)
    # The push-forward by t^-1 is t* H t.  t has det -1 exactly, so the
    # double inversion inside ``transform(t.inverse())`` gives back t's
    # entries (up to the signs of zeros) and this form has the same bits.
    m = t.matrix
    disk = RoundDisk(OrientedCircle(m.conj().T @ circle_norm.hermitian @ m))

    # Unit-disk frame: z -> radius / (z - center) maps the exterior (with
    # the query at infinity) onto the unit disk with the query at 0.
    u = MoebiusMap(np.array([[0.0, med.radius], [1.0, -med.center]], dtype=complex))
    boundary = sorted(
        ((i, apply(u, PointCP1(*transported[i].tolist())).as_complex()) for i in contacts),
        key=lambda iw: math.atan2(iw[1].imag, iw[1].real),
    )
    ws = tuple(w for _, w in boundary)
    ids = tuple(i for i, _ in boundary)
    return MaximalDiskRecord(
        disk=disk, ideal_points=tuple(dom.complement[i] for i in ids), ideal_ids=ids,
        normalized=med, query=x, frame_maps=(u, t), boundary=ws,
    )


# ---------------------------------------------------------------------------
# Stratification


def stratification_check(dom: DiskComplementDomain, samples) -> dict:
    """Check the stratification by cores over the given sample points:
    every sample gets a disk, distinct disks have disjoint cores (tested by
    sides of the separating circle H1 - H2 through the lens), and samples
    sharing a disk share the ideal point set.  Needs at least one sample."""
    samples = list(samples)
    if not samples:
        raise DegenerateInputError("stratification check needs at least one sample")
    records = []
    failures = []
    for i, x in enumerate(samples):
        try:
            records.append((i, maximal_disk_at(dom, x)))
        except (PreconditionError, DegenerateInputError) as exc:
            failures.append({"sample": i, "error": str(exc)})

    groups = _group_by_disk(records)
    violations = [{"kind": "no-disk", **fail} for fail in failures]

    # (iii) identical disks share ideal points (as sets; the stored cyclic
    # order depends on the query frame).
    for members in groups:
        rec0 = members[0][1]
        for i, rec in members[1:]:
            if not _same_ideal_sets(rec, rec0):
                violations.append({"kind": "ideal-point-mismatch", "sample": i})

    # (ii) distinct disks: no nesting (which would contradict maximality),
    # and cores on opposite sides of the separating form H1 - H2.  The side
    # test holds whether or not the disks intersect: an ideal point of D1
    # lies on its own circle and outside the open D2, so its H1 - H2 value
    # is nonpositive, and symmetrically for D2.
    firsts = [members[0][1] for members in groups]
    for a, b in _pairs_to_test(dom, firsts):
        _check_pair(firsts[a], firsts[b], a, b, violations)

    return {
        "checks": [
            {"name": "every-sample-assigned", "passed": not failures,
             "details": {"samples": len(samples), "assigned": len(records)}},
            {"name": "core-disjointness", "passed": not any(
                v["kind"] in ("core-overlap", "nested-disks") for v in violations)},
            {"name": "ideal-point-consistency", "passed": not any(
                v["kind"] == "ideal-point-mismatch" for v in violations)},
        ],
        "violations": violations,
        "values": {"distinct_disks": len(groups)},
    }


def _group_by_disk(records) -> list:
    """(sample, record) pairs grouped by disk, groups in order of first
    appearance: a record joins the first group whose first record is its
    ``same_disk``, tested against a stack of all groups at once by the
    same Frobenius-row expression."""
    groups = []
    stack = np.empty((len(records), 4), dtype=complex)
    for i, rec in records:
        h = rec.disk.circle.hermitian.ravel()
        same = np.flatnonzero(frobenius_rows(stack[: len(groups)], h) < TOL_SAME_DISK)
        if len(same):
            groups[same[0]].append((i, rec))
        else:
            stack[len(groups)] = h
            groups.append([(i, rec)])
    return groups


def _same_ideal_sets(a: MaximalDiskRecord, b: MaximalDiskRecord) -> bool:
    if len(a.ideal_points) != len(b.ideal_points):
        return False
    # A complement point is at chordal distance 0 from itself.
    if set(a.ideal_ids) == set(b.ideal_ids):
        return True
    return all(
        any(chordal_distance(p, q) < TOL_SAME_POINT for q in b.ideal_points)
        for p in a.ideal_points
    )


def _form_values(pairs: np.ndarray, a, b, d) -> np.ndarray:
    """v* H v for every normalized pair v (rows) and every Hermitian form
    H = [[a, b], [conj b, d]] (columns)."""
    p0, p1 = pairs[:, 0], pairs[:, 1]
    q = np.conj(p0) * p1
    return (
        np.outer(np.abs(p0) ** 2, a) + np.outer(np.abs(p1) ** 2, d)
        + 2.0 * (np.outer(q.real, b.real) - np.outer(q.imag, b.imag))
    )


def _pairs_to_test(dom: DiskComplementDomain, recs: list) -> np.ndarray:
    """Pairs (a, b), a < b in lexicographic order, of disks that ``_check_pair``
    might report; every other pair is nested in neither order and has both
    side values within their bounds.  All pairs are tested at once: the
    inversive products as one matrix, the side values from one matrix of
    complement points x disks.  A value within a relative BATCH_BAND of a
    threshold counts as crossing it."""
    h = np.array([r.disk.circle.hermitian for r in recs]).reshape(len(recs), 4)
    a, b, d = h[:, 0].real, h[:, 1], h[:, 3].real
    # A form of det -1 has scale >= 2, and its values at unit vectors round
    # by less than scale * 1e-15, so this band covers every rounding below.
    scale = np.abs(a) + 2.0 * np.abs(b) + np.abs(d)
    band = BATCH_BAND * np.outer(scale, scale)

    # Nesting needs disjoint circles, |inversive product| > 1 + TOL_GEO,
    # and every test point of the inner disk inside the outer one; the
    # first boundary point is one of them.
    ip = np.outer(b.real, b.real) + np.outer(b.imag, b.imag)
    ip -= (np.outer(a, d) + np.outer(d, a)) / 2.0
    nests = np.abs(ip) > 1.0 + TOL_GEO - band  # nests[outer, inner]
    inner = np.flatnonzero(nests.any(axis=0))
    if len(inner):
        probe = unit_pairs(as_pairs([recs[j].disk.circle.boundary_points(1)[0] for j in inner]))
        nests[:, inner] &= _form_values(probe, a, b, d).T < -TOL_GEO + band[:, inner]

    # worst[a, b]: the largest H_a - H_b value over the ideal points of a,
    # which is the scalar test's worst_a; its worst_b is -worst[b, a].
    forms = _form_values(dom.pairs, a, b, d)
    worst = np.empty_like(band)
    for k, r in enumerate(recs):
        rows = forms[list(r.ideal_ids)]
        worst[k] = (rows[:, k : k + 1] - rows).max(axis=0)
    overlap = worst > TOL_GEO - band
    return np.argwhere(np.triu(nests | nests.T | overlap | overlap.T, 1))


def _nested(ra: MaximalDiskRecord, rb: MaximalDiskRecord) -> bool:
    """Whether rb's disk lies inside ra's.  Only circles that do not meet
    can nest; then rb is inside ra iff its boundary and its disk sample are."""
    if abs(inversive_product(ra.disk.circle, rb.disk.circle)) <= 1.0 + TOL_GEO:
        return False
    pts = rb.disk.circle.boundary_points(3) + [rb.disk.circle.sample_disk_point()]
    return all(ra.disk.circle.evaluate(p) < -TOL_GEO for p in pts)


def _check_pair(ra, rb, a: int, b: int, violations: list) -> None:
    """The disjointness test of groups a < b; appends what it finds."""
    if _nested(ra, rb) or _nested(rb, ra):
        violations.append({"kind": "nested-disks", "groups": [a, b]})
        return
    s = ra.disk.circle.hermitian - rb.disk.circle.hermitian  # separating circle
    worst_a = max(
        float((np.conj(v) @ s @ v).real)
        for v in (p.normalized().vector() for p in ra.ideal_points)
    )
    worst_b = min(
        float((np.conj(v) @ s @ v).real)
        for v in (p.normalized().vector() for p in rb.ideal_points)
    )
    if worst_a > TOL_GEO or worst_b < -TOL_GEO:
        violations.append(
            {"kind": "core-overlap", "groups": [a, b], "side_values": [worst_a, worst_b]}
        )


# ---------------------------------------------------------------------------
# Transverse measure


# Refinement of the transverse measure: the first level's subdivision, and
# the most dyadic refinements taken.
MEASURE_SUBDIVISION = 4
MEASURE_MAX_LEVELS = 16


class _Polyline:
    """A polyline walked by arclength; ``starts[k]`` is the arclength at
    vertex k."""

    def __init__(self, pts):
        self.pts = [complex(p) for p in pts]
        self.lengths = [abs(b - a) for a, b in zip(self.pts, self.pts[1:])]
        self.starts = [0.0, *itertools.accumulate(self.lengths)]
        self.total = self.starts[-1]

    def at(self, target: float, clamp: bool = True) -> complex:
        """The point at arclength target, on the first segment that reaches
        it.  Clamped, the last segment takes every target past the end and
        the parameter is cut to [0, 1].  Unclamped, as paths are probed, the
        parameter may exceed 1 by a few ulps at the end, and a target past
        the end gives the last vertex."""
        last = len(self.lengths) - 1
        for k, length in enumerate(self.lengths):
            if target <= self.starts[k + 1] or (clamp and k == last):
                s = (target - self.starts[k]) / length if length > 0 else 0.0
                a, b = self.pts[k], self.pts[k + 1]
                return a + (b - a) * (min(max(s, 0.0), 1.0) if clamp else s)
        return self.pts[-1]

    def vertices_between(self, t_a: float, t_b: float) -> list:
        """The vertices at arclength strictly between t_a and t_b."""
        return [z for z, acc in zip(self.pts[1:], self.starts[1:]) if t_a < acc < t_b]


@dataclass(frozen=True)
class MeasureResult:
    value: float
    trace: tuple  # Theta at each refinement level
    levels: int
    converged: bool


def transverse_measure(
    dom: DiskComplementDomain, path, tol_measure: float = TOL_MEASURE
) -> MeasureResult:
    """Transverse measure of a path: Theta = sum of angles between maximal
    disks at consecutive subdivision points, refined dyadically until the
    increments fall below tol_measure.  Consecutive disks must intersect;
    refinement is the remedy, and failure at MEASURE_MAX_LEVELS raises."""
    line = _Polyline(path)
    if len(line.pts) < 2:
        raise DegenerateInputError("path needs at least 2 vertices")
    if line.total <= 0:
        raise DegenerateInputError("path has zero length")

    disk_cache: dict = {}

    def disk_at(t: Fraction) -> MaximalDiskRecord:
        if t not in disk_cache:
            disk_cache[t] = maximal_disk_at(dom, line.at(float(t) * line.total))
        return disk_cache[t]

    trace = []
    prev = None
    for level in range(MEASURE_MAX_LEVELS + 1):
        n = MEASURE_SUBDIVISION * (2**level)
        params = [Fraction(i, n) for i in range(n + 1)]
        try:
            theta = 0.0
            for t0, t1 in zip(params, params[1:]):
                d0, d1 = disk_at(t0), disk_at(t1)
                if d0.same_disk(d1):
                    continue
                theta += angle_between(d0.disk.circle, d1.disk.circle)
        except NoIntersectionError:
            prev = None
            continue  # refine further
        trace.append(theta)
        if prev is not None and abs(theta - prev) < tol_measure:
            return MeasureResult(value=theta, trace=tuple(trace), levels=level, converged=True)
        prev = theta
    if not trace:
        raise TransversalityError(
            "consecutive maximal disks do not intersect at maximal refinement"
        )
    return MeasureResult(
        value=trace[-1], trace=tuple(trace), levels=MEASURE_MAX_LEVELS, converged=False
    )


# ---------------------------------------------------------------------------
# Dome vs. transverse measure


# Band around every stratum boundary inside which a probe's label is left to
# maximal_disk_at.  It is at least 50 times each threshold it guards: the
# contact band (a relative TOL_CONTACT is a contact value of about -2e-6,
# see ``_contact_values``), the TOL_SAME_DISK face-circle match and the
# TOL_GEO margin of ``contains``.
STRATA_BAND = 1e-4


def _face_frame(face) -> MoebiusMap:
    """Face disk -> unit disk: the face plane's half-plane map, then Cayley."""
    cayley = MoebiusMap(np.array([[1.0, -1j], [1.0, 1j]], dtype=complex))
    return cayley @ face.plane.to_halfplane_map()


def face_core_point(dom: DiskComplementDomain, face) -> PointCP1:
    """A point of the two-dimensional core of a dome face: searched along
    the mean vertex direction in the face's disk frame and verified by the
    maximal-disk computation itself."""
    frame = _face_frame(face)
    finv = frame.inverse()
    ws = [apply(frame, dom.complement[i]).as_complex() for i in face.vertex_ids]
    mean = sum(w / abs(w) for w in ws if abs(w) > 1e-9)
    direction = mean / abs(mean) if abs(mean) > 1e-9 else 0.0j
    # Cores of faces whose vertices hug a short boundary arc are thin
    # slivers near the circle, so the radial search must go deep.
    for r in [k / 24.0 for k in range(24)] + [0.97, 0.985, 0.993]:
        cand = apply(finv, PointCP1.from_complex(r * direction if direction else 0.0j))
        if cand.is_infinity or not dom.contains(cand):
            continue
        try:
            rec = maximal_disk_at(dom, cand)
        except (PreconditionError, DegenerateInputError):
            continue
        if rec.disk.circle.proj_distance(face.plane.boundary) < TOL_SAME_DISK:
            return cand
    raise DegenerateInputError("no core point found for dome face")


def _classify_on_path(dom, mesh, edge, z) -> str:
    """Label a path point: in a face core of the edge, in the edge's own
    two-contact family, or somewhere else."""
    try:
        rec = maximal_disk_at(dom, cp1(z))
    except (PreconditionError, DegenerateInputError):
        return "other"
    for label, f in zip(("face1", "face2"), edge.face_ids):
        if rec.disk.circle.proj_distance(mesh.faces[f].plane.boundary) < TOL_SAME_DISK:
            return label
    if len(rec.ideal_points) == 2:
        p, q = rec.ideal_points
        va, vb = (mesh.vertices[i] for i in edge.vertex_ids)

        def near(u, v):
            return chordal_distance(u, v) < TOL_SAME_POINT

        if (near(p, va) and near(q, vb)) or (near(p, vb) and near(q, va)):
            return "family"
    return "other"


def _contact_values(hz: np.ndarray, hp: np.ndarray, zs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """(z* H z)(p* H p) / |[p, z]|^2 for probes z (rows) and points p
    (columns), given the form values hz at the probes and hp at the points
    (one row per probe when each probe has its own form).  The value is
    Moebius invariant; with z at infinity it is |p - c|^2 / R^2 - 1 for
    the center c and radius R of the circle, so the contact test of
    ``maximal_disk_at`` on a point the disk misses reads value >= -2e-6."""
    bracket = np.outer(zs[:, 1], ps[:, 0]) - np.outer(zs[:, 0], ps[:, 1])
    return hz[:, None] * hp / np.abs(bracket) ** 2


class _FaceCore:
    """The core of a dome face, to test probes against: its hull geodesics
    (from ``_core_region``) as form columns in the face's unit-disk frame,
    and the face circle at the other complement points.
    ``edges`` is None when the frame cannot be built, or when fewer than
    three of the vertices are distinct in it and the core is no polygon."""

    def __init__(self, dom: DiskComplementDomain, face):
        try:
            self.frame = _face_frame(face)
            ws = sorted(
                (apply(self.frame, dom.complement[i]).as_complex() for i in face.vertex_ids),
                key=lambda w: math.atan2(w.imag, w.real),
            )
            edges = _core_region(self.frame, tuple(ws)).edges
        except DegenerateInputError:
            edges = ()
        if len(edges) < 3:
            self.edges = None
            return
        h = np.array([e.hermitian for e in edges]).reshape(-1, 4)
        self.edges = (h[:, 0].real, h[:, 1], h[:, 3].real)
        hf = face.plane.boundary.hermitian.reshape(1, 4)
        self.form = (hf[:, 0].real, hf[:, 1], hf[:, 3].real)
        others = np.ones(len(dom.complement), dtype=bool)
        others[list(face.vertex_ids)] = False
        self.others = dom.pairs[others]
        self.hp = _form_values(self.others, *self.form)[:, 0]

    def certified(self, zs: np.ndarray) -> np.ndarray:
        """Probes (normalized pairs) that lie in the core by more than the
        band and whose maximal disk has exactly the face's vertices as
        contacts."""
        band = STRATA_BAND
        q = apply_stack(self.frame, zs)
        q /= np.linalg.norm(q, axis=1)[:, None]
        mod0, mod1 = np.abs(q[:, 0]) ** 2, np.abs(q[:, 1]) ** 2
        ok = (mod0 - mod1 < -band) & (_form_values(q, *self.edges) < -band).all(axis=1)
        hz = _form_values(zs, *self.form)[:, 0]
        return ok & (_contact_values(hz, self.hp, zs, self.others) < -band).all(axis=1)


class _EdgeStrata:
    """The strata a measure path of one dome edge crosses: the two face
    cores, and the lune of the edge's two-contact disks.  With the edge's
    vertices at 0 and infinity (frame ``n``) each face circle is a line
    through 0, and the disk side of face k lies toward ``sides[k]``; the
    lune is the open sector between the two sides, and a probe there has
    as maximal disk the half-plane toward its own direction.

    ``labels`` gives each probe the label ``_classify_on_path`` gives it:
    in closed form where the probe is certified, from maximal_disk_at
    otherwise."""

    def __init__(self, dom: DiskComplementDomain, mesh, edge, cores: list):
        self.dom, self.mesh, self.edge = dom, mesh, edge
        self.faces = [mesh.faces[i] for i in edge.face_ids]
        va, vb = (mesh.vertices[i] for i in edge.vertex_ids)
        self.n = moebius_two_points(va, vb)
        bs = [complex(f.plane.boundary.transform(self.n).hermitian[0, 1]) for f in self.faces]
        # Line {Re(conj(B) z) = 0}; the disk side is the -B half-plane.
        self.phis = [cmath.phase(1j * b) for b in bs]
        self.sides = [-b / abs(b) for b in bs]
        self.bs = np.array(bs)
        s1, s2 = self.sides
        self.turn = (np.conj(s1) * s2).imag
        self.cores = [cores[i] for i in edge.face_ids]
        # The edge is labelled in closed form only if both cores are built
        # and the strata are apart.
        self.closed_form = (
            all(c.edges is not None for c in self.cores)
            and self.faces[0].plane.boundary.proj_distance(self.faces[1].plane.boundary)
            > STRATA_BAND
            and abs(self.turn) > STRATA_BAND
        )
        others = np.ones(len(dom.complement), dtype=bool)
        others[list(edge.vertex_ids)] = False
        self.others = apply_stack(self.n, dom.pairs[others])
        # proj_distance in the original frame is at least the one in the
        # edge frame divided by the squared largest singular value of n,
        # which is at most the squared Frobenius norm.
        self.stretch = float(np.sum(np.abs(self.n.matrix) ** 2))

    def _in_lune(self, zs: np.ndarray) -> np.ndarray:
        """Probes in the lune whose maximal disk differs from both face
        circles by more than the band and has exactly two contacts."""
        band = STRATA_BAND
        w = apply_stack(self.n, zs)
        d = w[:, 0] * np.conj(w[:, 1])
        d /= np.abs(d)
        s1, s2 = self.sides
        ok = ((np.conj(d) * s2).imag / self.turn > 0) & ((np.conj(s1) * d).imag / self.turn > 0)
        # The probe's disk is the line form with B = -d.
        apart = math.sqrt(2.0) * np.abs(-d[:, None] - self.bs).min(axis=1) / self.stretch
        ok &= apart > band
        hz = -2.0 * np.abs(w[:, 0] * w[:, 1])
        hp = 2.0 * (-d[:, None] * np.conj(self.others[:, 0]) * self.others[:, 1]).real
        return ok & (_contact_values(hz, hp, w, self.others) < -band).all(axis=1)

    def labels(self, points: list) -> list:
        """Labels of the path points, as ``_classify_on_path`` gives them."""
        out = [None] * len(points)
        if self.closed_form:
            z = np.array(points, dtype=complex)
            zs = np.stack([z, np.ones_like(z)], axis=1) / np.sqrt(1.0 + np.abs(z) ** 2)[:, None]
            clear = self.dom.distances(points) > STRATA_BAND
            tests = [c.certified(zs) for c in self.cores] + [self._in_lune(zs)]
            alone = clear & (np.sum(tests, axis=0) == 1)
            for lab, test in zip(("face1", "face2", "family"), tests):
                for i in np.flatnonzero(alone & test):
                    out[i] = lab
        return [
            lab if lab is not None else _classify_on_path(self.dom, self.mesh, self.edge, z)
            for z, lab in zip(points, out)
        ]


# Intervals a candidate path is probed at, evenly in arclength.
PATH_PROBES = 33
# Points of a wedge-sweep arc.
WEDGE_SAMPLES = 48


def _single_edge_subpath(strata: _EdgeStrata, path):
    """Walk the path coarsely looking for a contiguous stretch whose disk
    labels read (one face core) [this edge's family] (other face core); on
    success return the trimmed polyline between the two face cores."""
    line = _Polyline(path)
    if line.total <= 0:
        return None

    targets = [line.total * k / PATH_PROBES for k in range(PATH_PROBES + 1)]
    labels = strata.labels([line.at(t, clamp=False) for t in targets])

    blocks = []
    for target, lab in zip(targets, labels):
        if not blocks or blocks[-1][0] != lab:
            blocks.append([lab, target, target])
        else:
            blocks[-1][2] = target
    for i in range(len(blocks)):
        if blocks[i][0] not in ("face1", "face2"):
            continue
        other = "face2" if blocks[i][0] == "face1" else "face1"
        for j in (i + 1, i + 2):
            if j >= len(blocks) or blocks[j][0] == "other":
                break
            if blocks[j][0] == other:
                t_a = (blocks[i][1] + blocks[i][2]) / 2.0
                t_b = (blocks[j][1] + blocks[j][2]) / 2.0
                ends = [line.at(t, clamp=False) for t in (t_a, t_b)]
                return [ends[0], *line.vertices_between(t_a, t_b), ends[1]]
    return None


def _edge_measure_paths(strata: _EdgeStrata):
    """Candidate polylines crossing the given dome edge.

    With the edge's ideal vertices at 0 and infinity both face circles are
    lines through the origin and the edge's disk family is the pencil of
    lines in the wedge between them, so arcs sweeping the wedge are natural
    candidates; each candidate still gets validated by the caller."""
    dom, mesh, edge = strata.dom, strata.mesh, strata.edge
    f1, f2 = strata.faces
    n, ninv = strata.n, strata.n.inverse()
    phi1, phi2 = strata.phis

    def wedge_sweep(delta, r1, r2):
        """Arc (log-spiral when r1 != r2) crossing the edge's disk family:
        the family cores fill the sector of angular size edge.weight centered
        on the wedge midline, and the face cores begin just past its ends."""
        best = None
        for s1 in (phi1, phi1 + math.pi):
            for s2 in (phi2, phi2 + math.pi):
                span = ((s2 - s1 + math.pi) % (2.0 * math.pi)) - math.pi  # signed
                mid = s1 + span / 2.0
                inside = all((cmath.exp(1j * mid) * np.conj(side)).real > 0 for side in strata.sides)
                if inside and (best is None or abs(span) < abs(best[1])):
                    best = (s1, span)
        if best is None:
            return None
        s1, span = best
        mid = s1 + span / 2.0
        half = edge.weight / 2.0 + delta
        arc = [
            math.exp((1.0 - t) * math.log(r1) + t * math.log(r2))
            * cmath.exp(1j * (mid - half + 2.0 * half * t))
            for t in np.linspace(0.0, 1.0, WEDGE_SAMPLES)
        ]
        w = apply_stack(ninv, unit_pairs(as_pairs(arc)))
        try:
            path = affine_stack(w)
        except DegenerateInputError:
            return None
        return path if dom.contains(path).all() else None

    def contact_radii():
        ws = [apply(n, mesh.vertices[i]) for f in (f1, f2) for i in f.vertex_ids]
        mags = sorted(
            abs(w.as_complex()) for w in ws if not w.is_infinity and abs(w.as_complex()) > 1e-9
        )
        if not mags:
            return [1.0]
        out = [math.sqrt(mags[0] * mags[-1]), mags[len(mags) // 2], 1.0]
        return list(dict.fromkeys(out))

    for r in contact_radii():
        for delta in (0.12, 0.3, 0.04, 0.6):
            path = wedge_sweep(delta, r, r)
            if path:
                yield path
    # Fallback: straight segment between verified core points.
    try:
        c1 = face_core_point(dom, f1)
        c2 = face_core_point(dom, f2)
        yield [c1.as_complex(), c2.as_complex()]
    except (PreconditionError, DegenerateInputError):
        pass


def dome_measure_report(ideal_points, tol: float = TOL_MEASURE) -> dict:
    """Compare the transverse measure across every dome edge against the
    edge's exterior dihedral angle, integrating along a validated path
    that crosses only that edge between the two adjacent face cores."""
    mesh = dome(ideal_points)
    # The dome's vertices: the input less the points it dropped as duplicates.
    dom = DiskComplementDomain(mesh.vertices)
    cores = [_FaceCore(dom, f) for f in mesh.faces]
    checks, violations, edge_values = [], [], []
    for ei, edge in enumerate(mesh.edges):
        strata = _EdgeStrata(dom, mesh, edge, cores)
        path = None
        for candidate in _edge_measure_paths(strata):
            path = _single_edge_subpath(strata, candidate)
            if path is not None:
                break
        if path is None:
            violations.append({"kind": "no-measure-path", "edge": ei})
            edge_values.append(
                {"edge": ei, "theta": math.nan, "dihedral": edge.weight, "error": math.inf})
            continue
        res = transverse_measure(dom, path, tol_measure=tol)
        err = abs(res.value - edge.weight)
        edge_values.append(
            {"edge": ei, "theta": res.value, "dihedral": edge.weight, "error": err}
        )
        if err > 10 * tol or not res.converged:
            violations.append(
                {"kind": "measure-dihedral-mismatch", "edge": ei, "error": err}
            )
    checks.append(
        {"name": "measure-matches-dihedral", "passed": not violations,
         "details": {"edges": len(mesh.edges)}}
    )
    return {"checks": checks, "violations": violations,
            "values": {"edges": edge_values, "faces": len(mesh.faces)}}


# ---------------------------------------------------------------------------
# Projection


def projection_psi(dom: DiskComplementDomain, x) -> PointH3:
    """Psi(x): nearest-point projection of x onto the hyperbolic plane over
    the boundary of the maximal disk at x."""
    rec = maximal_disk_at(dom, x)
    return nearest_point_projection(PlaneH3(rec.disk.circle), cp1(x))


# ---------------------------------------------------------------------------
# Weight recovery (Goldman direction)


def recover_weight_from_grafted(
    gs: GraftedStructure, curve, samples: int = 256
) -> float:
    """Total crescent angle across a transversal through the grafting
    cylinder of the named curve, integrated by developing sample points
    through the inserted chart and unwrapping the argument."""
    if isinstance(curve, str):
        curve = GroupWord.parse(curve)
    try:
        weight = gs.multicurve.weight_of(curve)
    except KeyError as exc:
        raise PreconditionError(str(exc)) from None
    canonical = LiftedLeaf(
        geodesic=axis(gs.hol.rho(curve)), weight=weight, curve_index=-1,
        conjugator=GroupWord(()),
    )
    n = leaf_normalizer(gs, canonical)
    ninv = n.inverse()

    phi = 0.35
    for _ in range(12):
        za = ninv(cmath.exp(1j * (math.pi / 2.0 - phi)))
        zb = ninv(cmath.exp(1j * (math.pi / 2.0 + phi)))
        crossings = gs.crossings([za, zb])
        ours = [c for c in crossings if c.leaf.key()[1:] == canonical.key()[1:]]
        if len(crossings) == len(ours) == 1:
            break
        phi /= 2.0
    else:
        raise TransversalityError("could not isolate a transversal through the cylinder")

    theta = ours[0].leaf.weight
    if theta == 0.0:
        return 0.0
    # Integrate the transverse coordinate through the crescent chart: sample
    # the developed boundary sweep and unwrap the winding argument.
    x_param = 0.0  # entry ray position; the sweep angle is x-independent
    ys = np.linspace(0.0, theta, samples)
    developed = np.exp(x_param + 1j * ys)
    swept = np.unwrap(np.angle(developed))
    return float(abs(swept[-1] - swept[0]))


# ---------------------------------------------------------------------------
# Path lifting in the domain of discontinuity


# Fine steps a loop is sampled at, and the most steps one lift may take.
STEPS_PER_LOOP = 512
MAX_STEPS = 100_000
# A crescent exit is checked against the leaf side of its point unless the
# point is within this angle (radians) of the leaf, in the leaf's frame.
EXIT_BAND = 1e-6


class _LoopSamples:
    """What every lift reads at the points z of a sampled loop, computed
    once: ``positive[i, j]``, the side of positive-weight leaf j at point i;
    ``radius[i]``, the stratum embedding radius; and ``frame(j, i)``, point
    i in leaf j's frame.  ``leaves`` is (table, rows, normalizers)."""

    def __init__(self, z: list, leaves: tuple):
        self.z, self.leaves = z, leaves
        table, rows, self._normalizers = leaves
        self.positive = table.sides(np.array(z, dtype=complex)[:, None])[:, rows] > 0
        self.radius = [2.0 * abs(w.imag) / (1.0 + abs(w) ** 2) for w in z]
        self._pairs = unit_pairs(as_pairs(z))
        self._frames = {}

    def frame(self, j: int, i: int) -> complex:
        """Leaf j's frame is applied to all points on its first read.  If a
        point lies at infinity in it, the column stays homogeneous and is
        converted per read, so that only reading that point raises."""
        col = self._frames.get(j)
        if col is None:
            col = self._frames[j] = apply_stack(self._normalizers[j], self._pairs)
            try:
                col = self._frames[j] = affine_stack(col)
            except DegenerateInputError:
                pass
        return col[i] if isinstance(col, list) else affine_stack(col[i:i + 1])[0]


def verify_covering(
    gs: GraftedStructure,
    loops,
    limit: DiskComplementDomain,
    margin: float = 0.05,
) -> dict:
    """Numerically verify path lifting over the discontinuity domain for a
    2 pi-multiple grafted structure: every closed null-homotopic loop whose
    chordal distance to the limit-set sample exceeds the margin must lift
    from every constructed starting lift and close up.

    Loops too close to the limit set raise PreconditionError (a guard, not
    a covering violation), and no loops raise DegenerateInputError; loops
    with no lift to test are a ``no-lifts-tested`` violation.  Reports
    per-loop embedding-radius estimates: the minimal chordal distance to the
    support boundary along the lift.  ``limit`` is the domain off a
    limit-set sample.

    A lift is (signs, None, None) in the stratum with leaf sides ``signs``,
    or (None, j, psi) in the crescent of leaf j at angle psi of its frame.
    """
    if not gs.all_weights_two_pi_multiples():
        raise PreconditionError("verify_covering requires weights in 2 pi Z")
    loops = list(loops)
    if not loops:
        raise DegenerateInputError("covering check needs at least one loop")

    table = gs.leaves_near([gs.basepoint])
    rows = np.nonzero(table.weight > 0.0)[0]
    weights = table.weight[rows].tolist()
    normalizers = [leaf_normalizer(gs, table[i]) for i in rows]
    low_positive = _low_sides(table, rows)

    checks, violations = [], []
    values = {"loops": len(loops), "lifts_tested": 0, "closures": 0}
    embedding_radii = []

    for li, loop in enumerate(loops):
        loop_pts = [complex(z) for z in loop]
        if len(loop_pts) < 2:
            raise DegenerateInputError(f"loop {li} needs at least two points")
        if abs(loop_pts[0] - loop_pts[-1]) > 1e-12:
            loop_pts.append(loop_pts[0])
        # Guard: the loop must respect the limit-set margin.
        sub = max(2, STEPS_PER_LOOP // (len(loop_pts) - 1))
        fine = [a + (b - a) * k / sub for a, b in zip(loop_pts, loop_pts[1:]) for k in range(sub)]
        fine.append(loop_pts[-1])
        margin_actual = float(limit.distances(fine).min())
        if margin_actual <= margin:
            raise PreconditionError(
                f"loop {li} violates the limit-set margin "
                f"({margin_actual:.4g} <= {margin})"
            )

        # All lifts of the first point: its stratum (in the upper half-plane)
        # plus one crescent lift per leaf and full 2 pi winding branch.
        samples = _LoopSamples(fine, (table, rows, normalizers))
        starts = [(samples.positive[0], None, None)] if fine[0].imag > 0 else []
        for j, weight in enumerate(weights):
            arg = cmath.phase(samples.frame(j, 0))
            k0 = 0
            while arg + 2.0 * math.pi * k0 <= math.pi / 2.0:
                k0 += 1
            psi = arg + 2.0 * math.pi * k0
            while psi < math.pi / 2.0 + weight:
                starts.append((None, j, psi))
                psi += 2.0 * math.pi
        path = [(samples, i) for i in range(len(fine))]
        for start in starts:
            values["lifts_tested"] += 1
            end, radius, msg = _march_loop(start, list(path), weights, low_positive)
            if end is None:
                violations.append({"kind": "lift-failure", "loop": li, "detail": msg})
                continue
            embedding_radii.append(radius)
            (s0, j0, psi0), (s1, j1, psi1) = start, end
            if j0 == j1 and (abs(psi0 - psi1) < 1e-6 if j0 is not None
                             else np.array_equal(s0, s1)):
                values["closures"] += 1
            else:
                violations.append(
                    {"kind": "no-closure", "loop": li,
                     "start": "stratum" if j0 is None else "crescent",
                     "end": "stratum" if j1 is None else "crescent"}
                )

    if not values["lifts_tested"]:
        violations.append({"kind": "no-lifts-tested"})
    checks.append({"name": "all-lifts-close", "passed": not violations,
                   "details": {"lifts": values["lifts_tested"]}})
    if embedding_radii:
        values["min_embedding_radius"] = min(embedding_radii)
        checks.append({"name": "embedding-radius-positive",
                       "passed": values["min_embedding_radius"] > 0.0,
                       "details": {"min": values["min_embedding_radius"]}})
    return {"checks": checks, "violations": violations, "values": values}


def _low_sides(table, rows) -> list:
    """For each leaf row, whether the stratum just below its crescent (the
    side a lift enters the crescent from) is the leaf's positive side.  The
    leaf's frame, a real map, sends the repelling end p to 0 and the
    attracting end q to infinity; the low side is that of the positive
    reals, the arc of the real line from p to q: outside the half circle
    when p > q, right of a vertical leaf when q is at infinity."""
    p, q = table.real_ends[rows].T
    return (np.isnan(q) | (p > q)).tolist()


def _march_loop(lift: tuple, path: list, weights, low_positive) -> tuple:
    """Advance a lift along the sampled loop ``path``, a list of (samples,
    row) pairs; returns (end lift or None, min_radius, msg).  In a
    crescent, ``nw`` is the current point in its leaf's frame."""
    signs, j, psi = lift
    steps = 0
    min_radius = math.inf
    i = 0
    s, k = path[0]
    w = s.z[k]
    nw = s.frame(j, k) if j is not None else None
    while i < len(path) - 1:
        steps += 1
        if steps > MAX_STEPS:
            return None, min_radius, "step budget exceeded"
        s, k = path[i + 1]
        w_next = s.z[k]
        if j is None:
            flips = np.flatnonzero(s.positive[k] != signs)
            if len(flips) > 1:
                # Subdivide to isolate a single transition.
                path.insert(i + 1, (_LoopSamples([(w + w_next) / 2.0], s.leaves), 0))
                continue
            if len(flips):
                j = int(flips[0])
                nw = s.frame(j, k)
                arg = cmath.phase(nw)
                if signs[j] == low_positive[j]:
                    psi = arg if arg > 0 else arg + 2.0 * math.pi
                else:
                    psi = arg + weights[j]
                signs = None
            else:
                min_radius = min(min_radius, s.radius[k])
        else:
            # Crescent marching.
            theta = weights[j]
            nw_next = s.frame(j, k)
            psi_next = psi + cmath.phase(nw_next / nw)
            if abs(math.log(abs(nw_next))) > 30.0:
                return None, min_radius, "escape toward a leaf endpoint"
            if psi_next < math.pi / 2.0 - 1e-12 or psi_next > math.pi / 2.0 + theta + 1e-12:
                here, row = path[i]
                crossed = s.positive[k] != here.positive[row]
                crossed[j] = False
                if crossed.any():
                    # Another leaf is crossed too: subdivide, so that the
                    # lift enters the stratum where it leaves this crescent.
                    path.insert(i + 1, (_LoopSamples([(w + w_next) / 2.0], s.leaves), 0))
                    continue
                # Exit into the stratum on the corresponding side, which
                # must be the side the point is on, off the leaf's band.
                signs = s.positive[k].copy()
                signs[j] = low_positive[j] if psi_next < math.pi / 2.0 else not low_positive[j]
                if signs[j] != s.positive[k][j] and abs(nw_next.real) > EXIT_BAND * abs(nw_next):
                    return None, min_radius, "crescent exit on the wrong side of its leaf"
                j = psi = None
            else:
                nw = nw_next
                psi = psi_next
                min_radius = min(
                    min_radius,
                    min(abs(psi_next - math.pi / 2.0), abs(math.pi / 2.0 + theta - psi_next))
                    * 2.0 * abs(nw) / (1.0 + abs(nw) ** 2),
                )
        w = w_next
        i += 1
    return (signs, j, psi), min_radius, ""
