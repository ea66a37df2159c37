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
    affine_rows,
    affine_stack,
    angle_between,
    apply,
    apply_rows,
    apply_stack,
    as_pairs,
    chordal_rows,
    circle_rows,
    cp1,
    exterior_rows,
    frobenius_rows,
    inversive_product,
    lerp_rows,
    minimal_enclosing_disks,
    moebius_rows,
    row_faults,
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
# A complement on the great circle y = 0 is read, per query, on this many
# neighbours each side of the query's angle in the xz-plane.
CIRCLE_BAND = 3
# Bounds on rounding, taken wide: of an angle from arctan2 (radians, on the
# sample's and the query's angle together), of a circle radius from hypot
# (absolute), and of a chordal distance or its lower bound (relative).
ANGLE_SLACK = 1e-14
RADIUS_SLACK = 1e-15
CHORD_SLACK = 1e-13


class DiskComplementDomain:
    """CP^1 minus a finite sample: the ideal set of a dome, or a limit-set
    sample standing for the limit set of the domain of discontinuity.

    The complement is given as points or as an (N, 2) array of homogeneous
    pairs, and held as arrays from the pair-array kernel, whose bits are
    those of the per-point methods: ``rows`` (N, 2), the pairs as given,
    ``pairs`` (N, 2), the normalized pairs, and ``xyz`` (N, 3), the sphere
    coordinates.  Queries take one point or a sequence of points.
    """

    def __init__(self, complement):
        rows = np.array(as_pairs(complement), dtype=complex)
        pairs = unit_pairs(rows)
        if len(rows) < 2:
            raise DegenerateInputError("complement must contain more than one point")
        for name, arr in (("rows", rows), ("pairs", pairs), ("xyz", sphere_xyz(rows))):
            arr.setflags(write=False)
            setattr(self, name, arr)

    @staticmethod
    def from_ideal_points(points) -> "DiskComplementDomain":
        return DiskComplementDomain(points)

    @cached_property
    def complement(self) -> tuple:
        """The rows as a tuple of PointCP1, built on first read, for callers
        that want points; the library itself reads only the arrays."""
        return tuple(PointCP1(z0, z1) for z0, z1 in self.rows.tolist())

    @cached_property
    def _circle(self):
        """When every complement point has sphere y-coordinate 0.0, as a
        Fuchsian limit-set sample does: the points sorted by their angle in
        the xz-plane, as (angles, indices), and the least and greatest of
        their distances from the y-axis.  None otherwise."""
        x, y, z = self.xyz.T
        if len(y) <= 2 * CIRCLE_BAND + 1 or np.any(y != 0.0):
            return None
        angles = np.arctan2(x, z)
        order = np.argsort(angles, kind="stable")
        rho = np.hypot(x, z)
        return angles[order], order, rho.min(), rho.max()

    def distances(self, points) -> np.ndarray:
        """Least chordal distance from each point to the complement: the
        minimum of ``chordal_distance`` over the complement, bit for bit.

        On a great-circle complement (``_circle``) chordal distance grows
        with the angle between a query's projection and a complement point,
        so each query reads the 2 CIRCLE_BAND points around its angle.  A
        lower bound (``_screen``) shows the other points no nearer; where it
        cannot, as near the y-axis, where all points are nearly equidistant,
        the query reads the full row.  Full rows are taken in blocks of
        about ROW_BLOCK distances."""
        xyz = sphere_xyz(as_pairs(points))
        out = np.empty(len(xyz))
        rest = np.arange(len(xyz))
        if self._circle is not None:
            rest = rest[~self._screen(xyz, out)]
        step = max(1, ROW_BLOCK // len(self.xyz))
        for s in range(0, len(rest), step):
            rows = rest[s : s + step]
            out[rows] = chordal_rows(self.xyz, xyz[rows, None]).min(axis=1)
        return out

    def _screen(self, xyz: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write into ``out`` each query's least distance over its band of
        sorted neighbours, and return where that is the least over the whole
        complement.  For a complement point p and a query q at angle D
        apart, with distances rho_p and r from the y-axis,
        |p - q|^2 = (rho_p - r)^2 + q_y^2 + rho_p r (2 sin(D / 2))^2,
        which bounds the distance to every point past the band from below."""
        angles, order, rho_lo, rho_hi = self._circle
        n, k = len(angles), CIRCLE_BAND
        qx, qy, qz = xyz.T
        qa = np.arctan2(qx, qz)
        pos = np.searchsorted(angles, qa)
        out[:] = np.inf
        for step in range(-k, k):
            np.minimum(out, chordal_rows(self.xyz[order[(pos + step) % n]], xyz), out=out)
        right, left = pos + k, pos - k - 1
        gap = np.minimum(
            angles[right % n] + np.where(right < n, 0.0, 2.0 * math.pi) - qa,
            qa - angles[left % n] + np.where(left >= 0, 0.0, 2.0 * math.pi),
        )
        half = np.clip(gap - ANGLE_SLACK, 0.0, math.pi) / 2.0
        r = np.hypot(qx, qz)
        off = np.maximum(np.maximum(rho_lo - r, r - rho_hi) - RADIUS_SLACK, 0.0)
        bound = np.sqrt(off * off + qy * qy + rho_lo * r * (2.0 * np.sin(half)) ** 2)
        return bound * (1.0 - CHORD_SLACK) > out

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
    """A maximal disk and its contacts, held as rows: the contacts as
    ascending indices into the domain's ``rows``, the query as its
    homogeneous pair.  ``query``, ``ideal_points`` and ``core`` are built
    on first read."""

    disk: RoundDisk  # oriented: disk side is the maximal disk
    ideal_ids: tuple  # contact points, as ascending indices into the domain's rows
    normalized: MinimalDisk  # enclosing disk of the transported complement
    query_row: np.ndarray = field(repr=False, compare=False)  # the query's pair, read-only
    rows: np.ndarray = field(repr=False, compare=False)  # the domain's rows, shared

    @cached_property
    def query(self) -> PointCP1:
        return PointCP1(*self.query_row.tolist())

    @cached_property
    def ideal_points(self) -> tuple:
        """The contact points in original coordinates, in ``ideal_ids`` order."""
        return tuple(PointCP1(z0, z1) for z0, z1 in self.rows[list(self.ideal_ids)].tolist())

    @cached_property
    def core(self) -> CoreRegion:
        """The core, built on first read in the unit-disk frame u t: t takes
        the query to infinity, and u, z -> radius / (z - center), maps the
        exterior of ``normalized`` onto the unit disk with the query at 0.
        The contacts are mapped by t and then u, each as ``apply`` maps it,
        and taken in angular order.  A step that rejects its input raises
        its DegenerateInputError."""
        med = self.normalized
        u = MoebiusMap(np.array([[0.0, med.radius], [1.0, -med.center]], dtype=complex))
        t = _normalizers(self.query_row[None])
        moved = apply_rows(t, unit_pairs(self.rows[list(self.ideal_ids)]))
        ws = (u.matrix @ unit_pairs(moved)[..., None])[..., 0]
        faults = row_faults(ws, (0, len(ws)))
        if faults:
            raise faults[0]
        ws = sorted(affine_stack(ws), key=lambda w: math.atan2(w.imag, w.real))
        return _core_region(MoebiusMap(u.matrix @ t[0]), tuple(ws))

    def same_disk(self, other: "MaximalDiskRecord") -> bool:
        return self.disk.circle.proj_distance(other.disk.circle) < TOL_SAME_DISK


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
    built on first access.  The one-point case of ``maximal_disks``."""
    (rec,) = maximal_disks(dom, [x])
    if isinstance(rec, Exception):
        raise rec
    return rec


# Queries of a maximal_disks block: as many as transport about this many
# complement points in all.
DISK_BLOCK = 1 << 15


def maximal_disks(dom: DiskComplementDomain, points) -> list:
    """For each point, its maximal disk record, or the PreconditionError or
    DegenerateInputError it raises instead: the query too close to the
    complement, or a step of the construction rejecting its input.

    Each step runs as one array pass over a block of queries, the minimal
    enclosing disks included (``minimal_enclosing_disks``, which keeps
    Welzl's bits and hands ties and rows it cannot take to Welzl).  Every
    array step keeps the bits of the scalar steps it stands for (the pair
    kernel, stacked matmul, ``moebius_rows`` and ``circle_rows``), and the
    circles of a record are rows of the checked stacks."""
    points = list(points)
    step = max(1, DISK_BLOCK // len(dom.pairs))
    out = []
    for s in range(0, len(points), step):
        out += _disk_block(dom, points[s : s + step])
    return out


def _normalizers(rows: np.ndarray) -> np.ndarray:
    """The maps taking the queries of an (N, 2) stack of pairs to infinity,
    [[0, 1], [1, -x]] or the identity, as ``moebius_rows`` normalizes them:
    their determinants are -1 and 1, so none is singular."""
    t = np.zeros((len(rows), 2, 2), dtype=complex)
    t[:, 0, 1] = t[:, 1, 0] = 1.0
    x, infinite = affine_rows(rows)
    t[infinite] = np.eye(2)
    t[~infinite, 1, 1] = -x[~infinite]
    return moebius_rows(t)[0]


class _Alive:
    """The queries of a block still alive: their indices in the block, and
    columns of values aligned with them, arrays or lists.  A query dropped
    for a fault gets its error in ``out`` and leaves every column."""

    def __init__(self, out: list, index: list, **cols):
        self.out, self.index, self.cols = out, index, cols

    def __getitem__(self, name: str):
        return self.cols[name]

    def add(self, **cols) -> None:
        self.cols.update(cols)

    def drop(self, faults: dict) -> None:
        """Drop the queries at the positions ``faults`` maps to their error:
        an exception, or the message of a DegenerateInputError."""
        if not faults:
            return
        for j, fault in faults.items():
            exc = fault if isinstance(fault, Exception) else DegenerateInputError(fault)
            self.out[self.index[j]] = exc
        keep = np.ones(len(self.index), dtype=bool)
        keep[list(faults)] = False
        self.index = [k for k, ok in zip(self.index, keep) if ok]
        for name, col in self.cols.items():
            self.cols[name] = (col[keep] if isinstance(col, np.ndarray)
                               else [v for v, ok in zip(col, keep) if ok])


def _disk_block(dom: DiskComplementDomain, points: list) -> list:
    """``maximal_disks`` on one block of queries, step by step as
    ``maximal_disk_at`` once took them for one point: a query leaves at the
    step that rejects it, with that step's error."""
    out = [None] * len(points)
    rows = as_pairs(points)
    q = _Alive(out, list(range(len(rows))), x=rows)
    q.drop(row_faults(rows, range(len(rows) + 1)))
    if q.index:
        near = (dom.distances(q["x"]) <= TOL_GEO).nonzero()[0].tolist()
        q.drop({j: PreconditionError("query point is too close to the complement") for j in near})
    if not q.index:
        return out

    t = _normalizers(q["x"])
    # ``apply_stack`` of every normalizer: its column products, broadcast.
    p0, p1 = dom.pairs[:, 0], dom.pairs[:, 1]
    moved = np.empty((len(t), len(p0), 2), dtype=complex)
    moved[..., 0] = t[:, 0, 0, None] * p0 + t[:, 0, 1, None] * p1
    moved[..., 1] = t[:, 1, 0, None] * p0 + t[:, 1, 1, None] * p1
    q.add(t=t, moved=moved)
    q.drop(row_faults(moved.reshape(-1, 2), range(0, len(t) * len(p0) + 1, len(p0))))

    z, at_inf = affine_rows(q["moved"].reshape(-1, 2))
    z, at_inf = z.reshape(len(q.index), -1), at_inf.reshape(len(q.index), -1)
    q.add(z=z)
    q.drop(dict.fromkeys(at_inf.any(axis=1).nonzero()[0].tolist(), "point is at infinity"))
    meds, faults = minimal_enclosing_disks(q["z"])
    q.add(med=meds)
    q.drop(faults)

    # Contacts: the points within a relative TOL_CONTACT of the circle, or
    # with the support added when they are fewer than two.
    meds, z = q["med"], q["z"]
    centers = np.array([m.center for m in meds], dtype=complex)
    radii = np.array([m.radius for m in meds])
    off = np.hypot(z.real - centers.real[:, None], z.imag - centers.imag[:, None])
    on = np.abs(off - radii[:, None]) <= TOL_CONTACT * radii[:, None]
    cols, ends = on.nonzero()[1].tolist(), np.cumsum(on.sum(axis=1)).tolist()
    contacts = [cols[a:b] for a, b in zip([0] + ends, ends)]
    contacts = [c if len(c) >= 2 else sorted(set(c) | set(m.support))
                for c, m in zip(contacts, meds)]
    q.add(center=centers, radius=radii, contacts=contacts)
    q.drop(dict.fromkeys((radii <= 0).nonzero()[0].tolist(), "radius must be positive"))

    # The disk is the push-forward of the normalized one by t^-1, t* H t.
    # t has det -1 exactly, so the double inversion inside
    # ``transform(t.inverse())`` gives back t's entries (up to the signs of
    # zeros) and this form has the same bits.
    norm, faults = circle_rows(exterior_rows(q["center"], q["radius"]))
    q.add(norm=norm)
    q.drop(faults)
    t = q["t"]
    disk, faults = circle_rows(np.conj(t).transpose(0, 2, 1) @ q["norm"] @ t)
    q.add(disk=disk)
    q.drop(faults)

    for name in ("x", "disk"):
        q[name].setflags(write=False)
    for j, k in enumerate(q.index):
        out[k] = MaximalDiskRecord(
            disk=RoundDisk(OrientedCircle.from_row(q["disk"][j])),
            ideal_ids=tuple(q["contacts"][j]), normalized=q["med"][j],
            query_row=q["x"][j], rows=dom.rows,
        )
    return out


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
    records, failures = [], []
    for i, rec in enumerate(maximal_disks(dom, samples)):
        if isinstance(rec, Exception):
            failures.append({"sample": i, "error": str(rec)})
        else:
            records.append((i, rec))

    groups = _group_by_disk(records)
    violations = [{"kind": "no-disk", **fail} for fail in failures]

    # (iii) identical disks share ideal points (as sets; the stored cyclic
    # order depends on the query frame).
    for members in groups:
        rec0 = members[0][1]
        for i, rec in members[1:]:
            if not _same_ideal_sets(dom, rec, rec0):
                violations.append({"kind": "ideal-point-mismatch", "sample": i})

    # (ii) distinct disks: no nesting (which would contradict maximality),
    # and cores on opposite sides of the separating form H1 - H2.  The side
    # test holds whether or not the disks intersect: an ideal point of D1
    # lies on its own circle and outside the open D2, so its H1 - H2 value
    # is nonpositive, and symmetrically for D2.
    firsts = [members[0][1] for members in groups]
    for a, b in _pairs_to_test(dom, firsts):
        _check_pair(dom, firsts[a], firsts[b], a, b, violations)

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


def _same_ideal_sets(dom: DiskComplementDomain, a: MaximalDiskRecord, b: MaximalDiskRecord) -> bool:
    if len(a.ideal_ids) != len(b.ideal_ids):
        return False
    # A complement point is at chordal distance 0 from itself.
    if set(a.ideal_ids) == set(b.ideal_ids):
        return True
    near = chordal_rows(dom.xyz[list(a.ideal_ids), None], dom.xyz[list(b.ideal_ids)])
    return bool((near < TOL_SAME_POINT).any(axis=1).all())


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
    contact points x disks.  A value within a relative BATCH_BAND of a
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
    # which is the scalar test's worst_a; its worst_b is -worst[b, a].  Only
    # the records' contact rows are read, so only they get form values.
    ids = np.array(sorted({i for r in recs for i in r.ideal_ids}), dtype=int)
    forms = _form_values(dom.pairs[ids], a, b, d)
    worst = np.empty_like(band)
    for k, r in enumerate(recs):
        rows = forms[np.searchsorted(ids, r.ideal_ids)]
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


def _check_pair(dom: DiskComplementDomain, ra, rb, a: int, b: int, violations: list) -> None:
    """The disjointness test of groups a < b; appends what it finds."""
    if _nested(ra, rb) or _nested(rb, ra):
        violations.append({"kind": "nested-disks", "groups": [a, b]})
        return
    s = ra.disk.circle.hermitian - rb.disk.circle.hermitian  # separating circle
    worst_a = max(float((np.conj(v) @ s @ v).real) for v in dom.pairs[list(ra.ideal_ids)])
    worst_b = min(float((np.conj(v) @ s @ v).real) for v in dom.pairs[list(rb.ideal_ids)])
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

    def at(self, target: float) -> complex:
        """The point at arclength target, on the first segment that reaches
        it; the last segment takes every target past the end, and the
        parameter is cut to [0, 1].  ``_probe_points`` is the rule paths
        are probed by."""
        last = len(self.lengths) - 1
        for k, length in enumerate(self.lengths):
            if target <= self.starts[k + 1] or k == last:
                s = (target - self.starts[k]) / length if length > 0 else 0.0
                a, b = self.pts[k], self.pts[k + 1]
                return a + (b - a) * min(max(s, 0.0), 1.0)
        return self.pts[-1]

    def probe_targets(self) -> list:
        """The arclengths a candidate path is probed at: PATH_PROBES
        intervals, evenly."""
        return [self.total * k / PATH_PROBES for k in range(PATH_PROBES + 1)]

    def vertices_between(self, t_a: float, t_b: float) -> list:
        """The vertices at arclength strictly between t_a and t_b."""
        return [z for z, acc in zip(self.pts[1:], self.starts[1:]) if t_a < acc < t_b]


def _probe_points(lines: list, targets: np.ndarray) -> np.ndarray:
    """The points of each polyline at the arclengths of its row of
    ``targets``, by the probe rule: on the first segment that reaches the
    target, with the parameter not cut (at the end it may pass 1 by a few
    ulps), and the last vertex for a target past the end.  The polylines
    are padded to one width (a padded segment reaches nothing); each point
    is ``a + (b - a) * s`` as CPython takes it (``lerp_rows``)."""
    width = max(len(line.pts) for line in lines)
    pts = np.array([line.pts + line.pts[-1:] * (width - len(line.pts)) for line in lines])
    pad = [[-math.inf] * (width - len(line.pts)) for line in lines]
    starts = np.array([line.starts + p for line, p in zip(lines, pad)])
    lengths = np.array([line.lengths + [0.0] * len(p) for line, p in zip(lines, pad)])
    reach = targets[:, :, None] <= starts[:, None, 1:]
    k = reach.argmax(axis=2)  # the first segment that reaches the target
    rows = np.arange(len(lines))[:, None]
    length = lengths[rows, k]
    s = np.where(length > 0, (targets - starts[rows, k]) / np.where(length > 0, length, 1.0), 0.0)
    out = lerp_rows(pts[rows, k], pts[rows, k + 1], s)
    return np.where(reach.any(axis=2), out, pts[:, -1:])


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
    refinement is the remedy, and failure at MEASURE_MAX_LEVELS raises.
    The one-path case of ``_measure_paths``."""
    (res,) = _measure_paths(dom, [path], tol_measure)
    if isinstance(res, Exception):
        raise res
    return res


class _Refinement:
    """One path's refinement: its disks, keyed by their point's index on the
    finest grid, and its trace.  ``result`` stays None while it refines,
    then holds what ``transverse_measure`` returns or raises on the path."""

    FINEST = MEASURE_SUBDIVISION << MEASURE_MAX_LEVELS

    def __init__(self, path, tol_measure: float):
        self.line = _Polyline(path)
        self.tol = tol_measure
        self.disks, self.trace, self.prev, self.result = {}, [], None, None
        if len(self.line.pts) < 2:
            self.result = DegenerateInputError("path needs at least 2 vertices")
        elif self.line.total <= 0:
            self.result = DegenerateInputError("path has zero length")

    def missing(self, level: int) -> list:
        """(key, point) of every point of the level's grid without a disk:
        the point i / n of the path's arclength has key i * (FINEST // n)."""
        n = MEASURE_SUBDIVISION << level
        step, total = self.FINEST // n, self.line.total
        return [(i * step, self.line.at(i / n * total))
                for i in range(n + 1) if i * step not in self.disks]

    def _disk(self, key: int) -> MaximalDiskRecord:
        rec = self.disks[key]
        if isinstance(rec, Exception):
            raise rec
        return rec

    def sum_level(self, level: int) -> None:
        """Theta at the level, once every disk of its grid is found.  The
        sum reads the disks in order and raises the first stored error it
        reads; disks that do not intersect send the path to the next level."""
        n = MEASURE_SUBDIVISION << level
        step = self.FINEST // n
        try:
            theta = 0.0
            for i in range(n):
                d0, d1 = self._disk(i * step), self._disk((i + 1) * step)
                if d0.same_disk(d1):
                    continue
                theta += angle_between(d0.disk.circle, d1.disk.circle)
        except NoIntersectionError:
            self.prev = None
            return  # refine further
        except (PreconditionError, DegenerateInputError) as exc:
            self.result = exc
            return
        self.trace.append(theta)
        if self.prev is not None and abs(theta - self.prev) < self.tol:
            self.result = MeasureResult(
                value=theta, trace=tuple(self.trace), levels=level, converged=True)
        self.prev = theta

    def finish(self) -> None:
        """The result of a path still refining after the last level."""
        if self.result is not None:
            return
        if not self.trace:
            self.result = TransversalityError(
                "consecutive maximal disks do not intersect at maximal refinement"
            )
        else:
            self.result = MeasureResult(value=self.trace[-1], trace=tuple(self.trace),
                                        levels=MEASURE_MAX_LEVELS, converged=False)


def _measure_paths(dom: DiskComplementDomain, paths, tol_measure: float) -> list:
    """``transverse_measure`` of every path, refined in lockstep: for each
    path, its MeasureResult or the exception it raises.  At each level the
    grid points without a disk, on every path still refining, are one
    ``maximal_disks`` batch; a path raises only an error its own sum reads."""
    runs = [_Refinement(path, tol_measure) for path in paths]
    for level in range(MEASURE_MAX_LEVELS + 1):
        active = [r for r in runs if r.result is None]
        if not active:
            break
        wanted = [(r, key, z) for r in active for key, z in r.missing(level)]
        for (r, key, _), rec in zip(wanted, maximal_disks(dom, [z for _, _, z in wanted])):
            r.disks[key] = rec
        for r in active:
            r.sum_level(level)
    for r in runs:
        r.finish()
    return [r.result for r in runs]


# ---------------------------------------------------------------------------
# Dome vs. transverse measure


# Band around every stratum boundary inside which a probe's label is left to
# its maximal disk, from the ``_disk_labels`` batch.  It is at least 50 times
# each threshold it guards: the contact band (a relative TOL_CONTACT is a
# contact value of about -2e-6, see ``_contact_values``), the TOL_SAME_DISK
# face-circle match and the TOL_GEO margin of ``contains``.
STRATA_BAND = 1e-4


def _face_frame(face) -> MoebiusMap:
    """Face disk -> unit disk: the face plane's half-plane map, then Cayley."""
    cayley = MoebiusMap(np.array([[1.0, -1j], [1.0, 1j]], dtype=complex))
    return cayley @ face.plane.to_halfplane_map()


def face_core_point(dom: DiskComplementDomain, face) -> PointCP1:
    """A point of the two-dimensional core of a dome face: searched along
    the mean vertex direction in the face's disk frame and verified by the
    maximal-disk computation itself.  All radii are tested at once, by one
    ``contains`` call and one ``maximal_disks`` batch; the point is the
    first, from the centre out, whose disk is the face's."""
    frame = _face_frame(face)
    finv = frame.inverse()
    ws = affine_stack(apply_stack(frame, dom.pairs[list(face.vertex_ids)]))
    mean = sum(w / abs(w) for w in ws if abs(w) > 1e-9)
    direction = mean / abs(mean) if abs(mean) > 1e-9 else 0.0j
    # Cores of faces whose vertices hug a short boundary arc are thin
    # slivers near the circle, so the radial search must go deep.
    cands = [apply(finv, PointCP1.from_complex(r * direction if direction else 0.0j))
             for r in [k / 24.0 for k in range(24)] + [0.97, 0.985, 0.993]]
    cands = [c for c in cands if not c.is_infinity]
    cands = list(itertools.compress(cands, dom.contains(cands)))
    for cand, rec in zip(cands, maximal_disks(dom, cands)):
        if (not isinstance(rec, Exception)
                and rec.disk.circle.proj_distance(face.plane.boundary) < TOL_SAME_DISK):
            return cand
    raise DegenerateInputError("no core point found for dome face")


def _contact_values(hz: np.ndarray, hp: np.ndarray, zs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """(z* H z)(p* H p) / |[p, z]|^2 for probes z (rows) and points p
    (columns), given the form values hz at the probes and hp at the points
    (one row per probe when each probe has its own form).  The points are
    one (M, 2) stack, or one (N, M, 2) stack per probe.  The value is
    Moebius invariant; with z at infinity it is |p - c|^2 / R^2 - 1 for
    the center c and radius R of the circle, so the contact test of
    ``maximal_disk_at`` on a point the disk misses reads value >= -2e-6."""
    bracket = zs[:, 1, None] * ps[..., 0] - zs[:, 0, None] * ps[..., 1]
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
                affine_stack(apply_stack(self.frame, dom.pairs[list(face.vertex_ids)])),
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
        others = np.ones(len(dom.pairs), dtype=bool)
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


def _disk_label(strata: _DomeStrata, e: int, rec) -> str:
    """A probe's label from its maximal disk record, or the error found in
    its place: in a face core of edge ``e``, in the edge's own two-contact
    family, or somewhere else."""
    if isinstance(rec, Exception):
        return "other"
    mesh, edge = strata.mesh, strata.mesh.edges[e]
    for name, f in zip(("face1", "face2"), edge.face_ids):
        if rec.disk.circle.proj_distance(mesh.faces[f].plane.boundary) < TOL_SAME_DISK:
            return name
    if len(rec.ideal_ids) == 2:
        # The domain is built from the mesh vertices: row i is vertex i.
        xyz = strata.dom.xyz
        dist = chordal_rows(xyz[list(rec.ideal_ids), None], xyz[list(edge.vertex_ids)])
        near = dist < TOL_SAME_POINT
        if (near[0, 0] and near[1, 1]) or (near[0, 1] and near[1, 0]):
            return "family"
    return "other"


def _disk_labels(strata: _DomeStrata, edges: list, points: list) -> list:
    """``_disk_label`` of each point on its edge of ``edges``, from one
    ``maximal_disks`` batch."""
    return [_disk_label(strata, e, rec) for e, rec in zip(edges, maximal_disks(strata.dom, points))]


class _DomeStrata:
    """The strata a measure path of each dome edge crosses, one row per
    edge: the two face cores, and the lune of the edge's two-contact disks.
    With the edge's vertices at 0 and infinity (frame ``n``) each face
    circle is the line {Re(conj(B) z) = 0} of its entry of ``bs``, whose disk
    side lies toward ``sides[:, k]``; the lune is the open sector between
    the two sides, and a probe there has as maximal disk the half-plane
    toward its own direction.  Each column is one stack, with the bits and
    raises of the per-edge maps and circles, built once."""

    def __init__(self, dom: DiskComplementDomain, mesh):
        self.dom, self.mesh = dom, mesh
        self.cores = [_FaceCore(dom, f) for f in mesh.faces]
        ends = np.array([e.vertex_ids for e in mesh.edges], dtype=int).reshape(-1, 2)
        self.faces = np.array([e.face_ids for e in mesh.edges], dtype=int).reshape(-1, 2)
        # The frames, ``moebius_two_points``: vertex rows (z0, z1) as (z1, -z0).
        n = np.empty((len(ends), 2, 2), dtype=complex)
        n[..., 0], n[..., 1] = dom.pairs[ends, 1], -dom.pairs[ends, 0]
        n, bad_n = moebius_rows(n)
        inv = np.stack([n[:, 1, 1], -n[:, 0, 1], -n[:, 1, 0], n[:, 0, 0]], axis=1)
        ninv, bad_inv = moebius_rows(inv.reshape(-1, 2, 2))
        # Each face circle pushed forward by n, as ``transform`` does:
        # conj(ninv)^T H ninv.
        h = np.array([f.plane.boundary.hermitian for f in mesh.faces]).reshape(-1, 2, 2)
        m = np.repeat(ninv, 2, axis=0)
        lines, bad_lines = circle_rows(np.conj(m).transpose(0, 2, 1) @ h[self.faces.ravel()] @ m)
        for faults in (bad_n, bad_inv, bad_lines):
            if faults:
                raise DegenerateInputError(faults[min(faults)])
        self.n, self.ninv = n, ninv
        self.bs = lines[:, 0, 1].reshape(-1, 2)
        # The disk side is the -B half-plane.  Per row with CPython's abs
        # and phase, whose bits numpy's may not have.
        bs = self.bs.tolist()
        self.phis = np.array([[cmath.phase(1j * b) for b in row] for row in bs]).reshape(-1, 2)
        self.sides = np.array([[-b / abs(b) for b in row] for row in bs]).reshape(-1, 2)
        # Im(conj(s1) s2), written out part by part as the scalar product rounds it.
        s1, s2 = self.sides.T
        self.turn = s1.real * s2.imag + (-s1.imag) * s2.real
        # proj_distance in the original frame is at least the one in the
        # edge frame divided by the squared largest singular value of n,
        # which is at most the squared Frobenius norm.
        self.stretch = np.sum(np.abs(n.reshape(-1, 4)) ** 2, axis=1)
        # An edge is labelled in closed form only if both cores are built
        # and the strata are apart.
        built = np.array([c.edges is not None for c in self.cores], dtype=bool)
        hf = h.reshape(-1, 4)[self.faces]
        apart = frobenius_rows(hf[:, 0], hf[:, 1]) > STRATA_BAND
        self.closed_form = built[self.faces].all(axis=1) & apart & (np.abs(self.turn) > STRATA_BAND)
        # The complement less the edge's vertices, in the edge frame.
        cols = [i for pair in ends.tolist() for i in range(len(dom.pairs)) if i not in pair]
        rows = apply_rows(np.repeat(n, len(dom.pairs) - 2, axis=0), dom.pairs[cols])
        self.others = rows.reshape(len(ends), len(dom.pairs) - 2, 2)
        self.radii = self._contact_radii() if len(ends) else []

    def _contact_radii(self) -> list:
        """Each edge's wedge-arc radii, from the moduli of its faces'
        vertices in the edge frame: all edges in one ``apply_rows`` pass,
        with the bits of ``apply`` and ``as_complex`` per vertex."""
        faces = self.mesh.faces
        ids = [[i for f in pair for i in faces[f].vertex_ids] for pair in self.faces.tolist()]
        sizes = [len(v) for v in ids]
        w = apply_rows(np.repeat(self.n, sizes, axis=0), self.dom.pairs[np.concatenate(ids)])
        ws, at_inf = affine_rows(w)
        ends = np.cumsum([0] + sizes).tolist()
        out = []
        for a, b in zip(ends, ends[1:]):
            mags = sorted(m for m in map(abs, itertools.compress(ws[a:b].tolist(), ~at_inf[a:b]))
                          if m > 1e-9)
            radii = [math.sqrt(mags[0] * mags[-1]), mags[len(mags) // 2], 1.0] if mags else [1.0]
            out.append(list(dict.fromkeys(radii)))
        return out

    def labels(self, edges: np.ndarray, probes: np.ndarray) -> list:
        """The labels ``_disk_labels`` gives the probes of each candidate,
        a row of ``probes`` on edge ``edges[c]``: read off the strata where
        a probe is certified, from one ``distances`` call, one ``certified``
        pass per face core over the probes of its edges and one lune pass,
        and from one ``maximal_disks`` batch for the other probes."""
        z = probes.ravel()
        owner = np.repeat(edges, probes.shape[1])
        out = [None] * len(z)
        closed = np.flatnonzero(self.closed_form[owner])
        if len(closed):
            zc, e = z[closed], owner[closed]
            pairs = np.stack([zc, np.ones_like(zc)], axis=1)
            zs = pairs / np.sqrt(1.0 + np.abs(zc) ** 2)[:, None]
            clear = self.dom.distances(pairs) > STRATA_BAND
            tests = np.zeros((3, len(zc)), dtype=bool)
            faces = self.faces[e]
            for f in np.unique(faces):
                mine = faces == f
                sel = mine.any(axis=1)
                hit = np.zeros(len(zc), dtype=bool)
                hit[sel] = self.cores[f].certified(zs[sel])
                tests[:2] |= hit & mine.T
            tests[2] = self._in_lune(e, zs)
            alone = clear & (tests.sum(axis=0) == 1)
            for lab, test in zip(("face1", "face2", "family"), tests):
                for i in closed[alone & test].tolist():
                    out[i] = lab
        rest = [i for i, lab in enumerate(out) if lab is None]
        found = _disk_labels(self, owner[rest].tolist(), z[rest].tolist())
        for i, lab in zip(rest, found):
            out[i] = lab
        width = probes.shape[1]
        return [out[k : k + width] for k in range(0, len(out), width)]

    def _in_lune(self, edges: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Probes (normalized pairs, row k on edge ``edges[k]``) in their
        edge's lune whose maximal disk differs from both face circles by
        more than the band and has exactly two contacts.  Taken in blocks
        of about DISK_BLOCK complement values."""
        band = STRATA_BAND
        out = np.empty(len(zs), dtype=bool)
        step = max(1, DISK_BLOCK // self.others.shape[1])
        for a in range(0, len(zs), step):
            e, z = edges[a : a + step], zs[a : a + step]
            w = apply_rows(self.n[e], z)
            d = w[:, 0] * np.conj(w[:, 1])
            d /= np.abs(d)
            s1, s2 = self.sides[e].T
            turn = self.turn[e]
            ok = ((np.conj(d) * s2).imag / turn > 0) & ((np.conj(s1) * d).imag / turn > 0)
            # The probe's disk is the line form with B = -d.
            apart = math.sqrt(2.0) * np.abs(-d[:, None] - self.bs[e]).min(axis=1) / self.stretch[e]
            ok &= apart > band
            hz = -2.0 * np.abs(w[:, 0] * w[:, 1])
            others = self.others[e]
            hp = 2.0 * (-d[:, None] * np.conj(others[..., 0]) * others[..., 1]).real
            out[a : a + step] = ok & (_contact_values(hz, hp, w, others) < -band).all(axis=1)
        return out


# Intervals a candidate path is probed at, evenly in arclength.
PATH_PROBES = 33
# Points of a wedge-sweep arc.
WEDGE_SAMPLES = 48


def _crossing(line: _Polyline, labels: list):
    """Walk a candidate's probe labels looking for a contiguous stretch
    that reads (one face core) [this edge's family] (other face core): the
    arclengths (t_a, t_b) of the middles of the two face blocks, between
    which the candidate is trimmed, or None."""
    blocks = []
    for target, lab in zip(line.probe_targets(), labels):
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
                return (blocks[i][1] + blocks[i][2]) / 2.0, (blocks[j][1] + blocks[j][2]) / 2.0
    return None


def _edge_candidates(strata: _DomeStrata, e: int):
    """Candidate polylines crossing dome edge ``e``, in order, each built
    when it is asked for.

    With the edge's ideal vertices at 0 and infinity both face circles are
    lines through the origin and the edge's disk family is the pencil of
    lines in the wedge between them, so arcs sweeping the wedge are natural
    candidates, one per radius of ``radii[e]`` and per margin.  They come as
    (True, arc in the edge frame), to be mapped back and kept if the domain
    contains them, and the fallback last as (False, path), a straight
    segment between verified core points."""
    edge = strata.mesh.edges[e]
    phi1, phi2 = strata.phis[e].tolist()
    sides = strata.sides[e].tolist()
    # The family cores fill the sector of angular size edge.weight centered
    # on the wedge midline, and the face cores begin just past its ends.
    best = None
    for s1 in (phi1, phi1 + math.pi):
        for s2 in (phi2, phi2 + math.pi):
            span = ((s2 - s1 + math.pi) % (2.0 * math.pi)) - math.pi  # signed
            mid = s1 + span / 2.0
            inside = all((cmath.exp(1j * mid) * np.conj(side)).real > 0 for side in sides)
            if inside and (best is None or abs(span) < abs(best[1])):
                best = (s1, span)
    if best is not None:
        s1, span = best
        mid = s1 + span / 2.0
        ts = np.linspace(0.0, 1.0, WEDGE_SAMPLES).tolist()
        for r in strata.radii[e]:
            log_r = math.log(r)
            for delta in (0.12, 0.3, 0.04, 0.6):
                # A circular arc crossing the edge's disk family; its radius
                # is the log-interpolation between equal end radii, whose
                # rounding the arc's bits keep.
                half = edge.weight / 2.0 + delta
                yield True, [
                    math.exp((1.0 - t) * log_r + t * log_r)
                    * cmath.exp(1j * (mid - half + 2.0 * half * t))
                    for t in ts
                ]
    try:
        c1, c2 = (face_core_point(strata.dom, strata.mesh.faces[f]) for f in edge.face_ids)
    except (PreconditionError, DegenerateInputError):
        return
    yield False, [c1.as_complex(), c2.as_complex()]


def _arcs_inside(strata: _DomeStrata, arcs: list) -> list:
    """(edge, path) of each wedge arc, given as (edge, arc in the edge's
    frame), whose image is finite and inside the domain: all arcs mapped by
    one ``apply_rows`` pass and tested by one ``contains`` call."""
    if not arcs:
        return []
    z = np.array([arc for _, arc in arcs], dtype=complex)
    ninv = strata.ninv[[e for e, _ in arcs]]
    w = apply_rows(np.repeat(ninv, z.shape[1], axis=0),
                   unit_pairs(np.stack([z, np.ones_like(z)], axis=-1)).reshape(-1, 2))
    paths, at_inf = affine_rows(w)
    paths, finite = paths.reshape(z.shape), ~at_inf.reshape(z.shape).any(axis=1)
    rows = paths[finite]
    inside = np.zeros(len(arcs), dtype=bool)
    if len(rows):
        pairs = np.stack([rows, np.ones_like(rows)], axis=-1).reshape(-1, 2)
        inside[finite] = strata.dom.contains(pairs).reshape(rows.shape).all(axis=1)
    return [(e, path) for (e, _), path, ok in zip(arcs, paths.tolist(), inside) if ok]


def _edge_paths(strata: _DomeStrata) -> list:
    """Each dome edge's measure path, or None: its first candidate
    (``_edge_candidates``) whose probe labels read a crossing
    (``_crossing``), trimmed between the two face cores.

    The edges are searched in lockstep, in rounds.  A round takes the next
    candidate of every edge still without a path, keeps the arcs the
    domain contains (``_arcs_inside``), probes every candidate by one
    ``_probe_points`` call and labels all probes in one ``labels`` pass;
    only the walk along each candidate's labels is per edge."""
    paths = [None] * len(strata.mesh.edges)
    queues = {e: _edge_candidates(strata, e) for e in range(len(paths))}
    while queues:
        arcs, cands = [], []
        for e, queue in list(queues.items()):
            item = next(queue, None)
            if item is None:
                del queues[e]
            else:
                (arcs if item[0] else cands).append((e, item[1]))
        cands = sorted(cands + _arcs_inside(strata, arcs), key=lambda c: c[0])
        lines = [(e, _Polyline(path)) for e, path in cands]
        lines = [(e, line) for e, line in lines if line.total > 0]
        if not lines:
            continue
        edges = np.array([e for e, _ in lines])
        probes = _probe_points([line for _, line in lines],
                               np.array([line.probe_targets() for _, line in lines]))
        found = []
        for (e, line), labels in zip(lines, strata.labels(edges, probes)):
            cut = _crossing(line, labels)
            if cut is not None:
                found.append((e, line, cut))
        if not found:
            continue
        ends = _probe_points([line for _, line, _ in found], np.array([cut for *_, cut in found]))
        for (e, line, (t_a, t_b)), (z_a, z_b) in zip(found, ends.tolist()):
            paths[e] = [z_a, *line.vertices_between(t_a, t_b), z_b]
            del queues[e]
    return paths


def dome_measure_report(ideal_points, tol: float = TOL_MEASURE) -> dict:
    """Compare the transverse measure across every dome edge against the
    edge's exterior dihedral angle, integrating along a validated path
    that crosses only that edge between the two adjacent face cores.  The
    paths are searched per dome, all edges in candidate rounds
    (``_edge_paths``), then measured together."""
    mesh = dome(ideal_points)
    # The dome's vertices: the input less the points it dropped as duplicates.
    dom = DiskComplementDomain(mesh.vertices)
    paths = _edge_paths(_DomeStrata(dom, mesh))
    measures = iter(_measure_paths(dom, [p for p in paths if p is not None], tol))
    checks, violations, edge_values = [], [], []
    for ei, (edge, path) in enumerate(zip(mesh.edges, paths)):
        if path is None:
            violations.append({"kind": "no-measure-path", "edge": ei})
            edge_values.append(
                {"edge": ei, "theta": math.nan, "dihedral": edge.weight, "error": math.inf})
            continue
        res = next(measures)
        if isinstance(res, Exception):
            raise res
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


def recover_weight_from_grafted(gs: GraftedStructure, curve) -> float:
    """The weight of the one leaf a short transversal through the grafting
    cylinder of the named curve crosses.  This reads the configured weight
    back once the transversal is isolated; recovering it from the developed
    crescent chart alone is still open (ROADMAP item 3, Goldman weight
    recovery from the structure)."""
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

    return float(ours[0].leaf.weight)


# ---------------------------------------------------------------------------
# Path lifting in the domain of discontinuity


# Fine steps a loop is sampled at, and the most steps one lift may take.
STEPS_PER_LOOP = 512
MAX_STEPS = 100_000
# A crescent exit is checked against the leaf side of its point unless the
# point is within this angle (radians) of the leaf, in the leaf's frame.
EXIT_BAND = 1e-6
# A crescent lift leaves the crescent when its angle passes an edge by more
# than CRESCENT_EDGE (radians), and escapes toward a leaf endpoint when
# |log |w|| of its point w in the leaf's frame exceeds ESCAPE_LOG.
CRESCENT_EDGE = 1e-12
ESCAPE_LOG = 30.0


class _LoopSamples:
    """What every lift reads at the points z of a sampled loop, computed
    once: ``positive[i, j]``, the side of positive-weight leaf j at point i;
    ``radius[i]``, the stratum embedding radius; and ``frame(j, i)``, point
    i in leaf j's frame.  ``leaves`` is (table, rows, normalizers).

    ``stratum_run`` and ``crescent_run`` take a lift over consecutive rows
    at once, up to the next row where ``_march_loop``'s step rule does more
    than advance; their values are those of its steps, bit for bit."""

    def __init__(self, z: list, leaves: tuple):
        self.z, self.leaves = z, leaves
        table, rows, self._normalizers = leaves
        self.positive = table.sides(np.array(z, dtype=complex)[:, None])[:, rows] > 0
        self.radius = [2.0 * abs(w.imag) / (1.0 + abs(w) ** 2) for w in z]
        self._pairs = unit_pairs(as_pairs(z))
        self._frames = {}
        self._crescents = {}

    def frame(self, j: int, i: int) -> complex:
        """Leaf j's frame is applied to all points on its first read and
        kept as an array of CPython quotients.  If a point lies at infinity
        in it, the column stays homogeneous and is converted per read, so
        that only reading that point raises."""
        col = self._column(j)
        return complex(col[i]) if col.ndim == 1 else affine_stack(col[i:i + 1])[0]

    def _column(self, j: int):
        col = self._frames.get(j)
        if col is None:
            col = self._frames[j] = apply_stack(self._normalizers[j], self._pairs)
            try:
                col = self._frames[j] = np.array(affine_stack(col))
            except DegenerateInputError:
                pass
        return col

    def stratum_run(self, r: int, signs: np.ndarray, limit: int) -> tuple:
        """Steps from row r, at most ``limit``, onto rows where every leaf
        side is ``signs``: their number and least radius."""
        rest = self.positive[r + 1 : r + 1 + limit]
        hit = np.flatnonzero((rest != signs).any(axis=1))
        m = int(hit[0]) if len(hit) else len(rest)
        return m, min(self.radius[r + 1 : r + 1 + m], default=math.inf)

    def crescent_run(self, j: int, r: int, psi: float, theta: float, limit: int) -> tuple:
        """Steps from row r, at most ``limit``, that stay in the crescent of
        leaf j (angle theta) from angle psi at row r and neither escape nor
        meet a zero of the frame: their number, least radius, and the angle
        after them.  The angle is accumulated in order, as the steps would."""
        table = self._crescent(j)
        end = min(len(self.z), r + 1 + limit)
        if table is None or end == r + 1:
            return 0, math.inf, psi
        turn, stop, size, den = table
        psis = np.cumsum(np.concatenate(([psi], turn[r : end - 1])))[1:]
        half = math.pi / 2.0
        inside = (psis >= half - CRESCENT_EDGE) & (psis <= half + theta + CRESCENT_EDGE)
        hit = np.flatnonzero(stop[r + 1 : end] | ~inside)
        m = int(hit[0]) if len(hit) else len(psis)
        if not m:
            return 0, math.inf, psi
        ps, rows = psis[:m], slice(r + 1, r + 1 + m)
        edge = np.minimum(np.abs(ps - half), np.abs(half + theta - ps))
        return m, float((edge * 2.0 * size[rows] / den[rows]).min()), float(ps[-1])

    def _crescent(self, j: int):
        """Leaf j's per-row values in CPython arithmetic, as a crescent step
        computes them (numpy's complex division, abs, log and squares may
        differ in the last bit): ``turn[i]``, the phase of the step from row
        i to i + 1; ``stop[i]``, whether the step onto row i escapes or
        meets a zero of the frame; |w| and 1 + |w| ** 2 at row i.  None when
        a point lies at infinity in the frame."""
        if j not in self._crescents:
            col = self._column(j)
            table = None
            if col.ndim == 1:
                col = col.tolist()
                size = list(map(abs, col))
                stop = [a == 0.0 or abs(math.log(a)) > ESCAPE_LOG for a in size]
                turn = [cmath.phase(b / a) if a else math.nan for a, b in zip(col, col[1:])]
                den = [1.0 if x else 1.0 + a ** 2 for a, x in zip(size, stop)]
                table = tuple(np.array(v) for v in (turn, stop, size, den))
            self._crescents[j] = table
        return self._crescents[j]


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
    with no lift to test are a ``no-lifts-tested`` violation.  Reports one
    number, ``min_embedding_radius``: the least embedding-radius estimate
    over every step of every lift, 2 |Im w| / (1 + |w|^2) at a stratum
    point w, and at a crescent point w of a leaf's frame its angle to the
    nearer edge times 2 |w| / (1 + |w|^2).  ``limit`` is the domain off a
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
    crescent, ``nw`` is the current point in its leaf's frame.

    Midpoints are only inserted just ahead of the current point, so once
    this point and the next are consecutive rows of the loop's own samples,
    all later points are too: the plain steps up to the next leaf side
    change, crescent exit, escape or step budget are then taken as one run,
    and the step rule below handles the step that ends it."""
    signs, j, psi = lift
    steps = 0
    min_radius = math.inf
    i = 0
    base, k = path[0]
    w = base.z[k]
    nw = base.frame(j, k) if j is not None else None
    while i < len(path) - 1:
        here, row = path[i]
        if here is base and path[i + 1][0] is base:
            limit = MAX_STEPS - steps
            if j is None:
                run, least = base.stratum_run(row, signs, limit)
            else:
                run, least, psi = base.crescent_run(j, row, psi, weights[j], limit)
            if run:
                steps += run
                i += run
                min_radius = min(min_radius, least)
                w = base.z[row + run]
                if j is not None:
                    nw = base.frame(j, row + run)
                if i == len(path) - 1:
                    break
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
            if abs(math.log(abs(nw_next))) > ESCAPE_LOG:
                return None, min_radius, "escape toward a leaf endpoint"
            if (psi_next < math.pi / 2.0 - CRESCENT_EDGE
                    or psi_next > math.pi / 2.0 + theta + CRESCENT_EDGE):
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
