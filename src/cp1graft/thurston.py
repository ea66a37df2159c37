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
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
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
    angle_from_product,
    apply,
    apply_rows,
    apply_stack,
    as_pairs,
    chordal_rows,
    circle_rows,
    cp1,
    exterior_rows,
    first_boundary_rows,
    frobenius_rows,
    inversive_product,
    inversive_rows,
    leader_rows,
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
    is_two_pi_multiple,
    leaf_normalizer,
)

TOL_CONTACT = 1e-6  # relative band for boundary-contact detection
TOL_MEASURE = 1e-5
TOL_SAME_DISK = 1e-6  # Frobenius distance of Hermitian forms of one disk
TOL_SAME_POINT = 10 * TOL_GEO  # chordal distance of one ideal point
# Relative band around a threshold inside which a batched value, which may
# differ from its scalar counterpart in the last bits, is not trusted.
BATCH_BAND = 1e-12


def same_disk_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether Hermitian forms a and b, flattened to rows of four entries,
    are one disk: their ``frobenius_rows`` distance is below TOL_SAME_DISK.
    Broadcast over the leading axes."""
    return frobenius_rows(a, b) < TOL_SAME_DISK


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
    rec = maximal_disks(dom, [x])[0]
    if isinstance(rec, Exception):
        raise rec
    return rec


@dataclass(frozen=True, eq=False)
class MaximalDisks(Sequence):
    """The maximal disks of a batch of queries as columns, one entry per
    query: ``forms`` (N, 4), read-only, rows of the checked ``circle_rows``
    stack; ``contacts``, ascending indices into ``rows``; ``meds``, the
    enclosing disks of the transported complements; ``queries`` (N, 2),
    read-only, the query pairs; and ``errors``, by position, the error of
    each rejected query, whose contacts are (), med None and form zeros,
    which is no same disk of a form of det -1.  Row j is the
    MaximalDiskRecord built from row j of the columns on each read, or its
    error."""

    forms: np.ndarray
    contacts: tuple
    meds: tuple
    queries: np.ndarray
    errors: dict
    rows: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.forms)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[k] for k in range(len(self))[j]]
        j = range(len(self))[j]
        if j in self.errors:
            return self.errors[j]
        return MaximalDiskRecord(
            disk=RoundDisk(OrientedCircle.from_row(self.forms[j].reshape(2, 2))),
            ideal_ids=self.contacts[j], normalized=self.meds[j],
            query_row=self.queries[j], rows=self.rows,
        )


# Queries of a maximal_disks block: as many as transport about this many
# complement points in all.
DISK_BLOCK = 1 << 15


def maximal_disks(dom: DiskComplementDomain, points) -> MaximalDisks:
    """For each point (as ``as_pairs`` takes it) its maximal disk, or the
    error it raises instead: the query too close to the complement, or a
    step of the construction rejecting its input.

    Each step runs as one array pass over a block of queries, the minimal
    enclosing disks included (``minimal_enclosing_disks``, which keeps
    Welzl's bits and hands ties and rows it cannot take to Welzl).  Every
    array step keeps the bits of the scalar steps it stands for (the pair
    kernel, stacked matmul, ``moebius_rows`` and ``circle_rows``), and each
    block writes its disks into the table's columns at their positions."""
    queries = np.array(as_pairs(points), dtype=complex).reshape(-1, 2)
    n = len(queries)
    table = MaximalDisks(np.zeros((n, 4), dtype=complex), [()] * n, [None] * n, queries, {},
                         dom.rows)
    step = max(1, DISK_BLOCK // len(dom.pairs))
    for s in range(0, n, step):
        _disk_block(dom, table, s, min(n, s + step))
    for col in (table.forms, table.queries):
        col.setflags(write=False)
    return replace(table, contacts=tuple(table.contacts), meds=tuple(table.meds))


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


class _Alive(dict):
    """The queries of a block still alive: their positions in the table,
    and columns of values aligned with them by name, arrays or lists.  A
    query dropped for a fault gets its error in the table's ``errors`` and
    leaves every column."""

    def __init__(self, errors: dict, index: np.ndarray, **cols):
        super().__init__(cols)
        self.errors, self.index = errors, index

    def drop(self, faults: dict) -> None:
        """Drop the queries at the positions ``faults`` maps to their error:
        an exception, or the message of a DegenerateInputError."""
        if not faults:
            return
        for j, fault in faults.items():
            exc = fault if isinstance(fault, Exception) else DegenerateInputError(fault)
            self.errors[int(self.index[j])] = exc
        keep = np.ones(len(self.index), dtype=bool)
        keep[list(faults)] = False
        self.index = self.index[keep]
        for name, col in self.items():
            self[name] = (col[keep] if isinstance(col, np.ndarray)
                               else [v for v, ok in zip(col, keep) if ok])


def _disk_block(dom: DiskComplementDomain, table: MaximalDisks, start: int, stop: int) -> None:
    """``maximal_disks`` on the queries at positions start to stop of the
    table, step by step as ``maximal_disk_at`` once took them for one point:
    a query leaves at the step that rejects it, with that step's error.  The
    survivors' columns are written at their positions."""
    rows = table.queries[start:stop]
    q = _Alive(table.errors, np.arange(start, stop), x=rows)
    q.drop(row_faults(rows, range(len(rows) + 1)))
    if len(q.index):
        near = (dom.distances(q["x"]) <= TOL_GEO).nonzero()[0].tolist()
        q.drop({j: PreconditionError("query point is too close to the complement") for j in near})
    if not len(q.index):
        return

    t = _normalizers(q["x"])
    # ``apply_stack`` of every normalizer: its column products, broadcast.
    p0, p1 = dom.pairs[:, 0], dom.pairs[:, 1]
    moved = np.empty((len(t), len(p0), 2), dtype=complex)
    moved[..., 0] = t[:, 0, 0, None] * p0 + t[:, 0, 1, None] * p1
    moved[..., 1] = t[:, 1, 0, None] * p0 + t[:, 1, 1, None] * p1
    q.update(t=t, moved=moved)
    q.drop(row_faults(moved.reshape(-1, 2), range(0, len(t) * len(p0) + 1, len(p0))))

    z, at_inf = affine_rows(q["moved"].reshape(-1, 2))
    z, at_inf = z.reshape(len(q.index), -1), at_inf.reshape(len(q.index), -1)
    q.update(z=z)
    q.drop(dict.fromkeys(at_inf.any(axis=1).nonzero()[0].tolist(), "point is at infinity"))
    meds, faults = minimal_enclosing_disks(q["z"])
    q.update(med=meds)
    q.drop(faults)

    # Contacts: the points within a relative TOL_CONTACT of the circle.  The
    # disk's support lies on it to rounding, far inside the band, so every
    # record has at least two.
    meds, z = q["med"], q["z"]
    centers = np.array([m.center for m in meds], dtype=complex)
    radii = np.array([m.radius for m in meds])
    off = np.hypot(z.real - centers.real[:, None], z.imag - centers.imag[:, None])
    on = np.abs(off - radii[:, None]) <= TOL_CONTACT * radii[:, None]
    cols, ends = on.nonzero()[1].tolist(), np.cumsum(on.sum(axis=1)).tolist()
    contacts = [tuple(cols[a:b]) for a, b in zip([0] + ends, ends)]
    q.update(center=centers, radius=radii, contacts=contacts)
    q.drop(dict.fromkeys((radii <= 0).nonzero()[0].tolist(), "radius must be positive"))

    # The disk is the push-forward of the normalized one by t^-1, t* H t.
    # t has det -1 exactly, so the double inversion inside
    # ``transform(t.inverse())`` gives back t's entries (up to the signs of
    # zeros) and this form has the same bits.
    norm, faults = circle_rows(exterior_rows(q["center"], q["radius"]))
    q.update(norm=norm)
    q.drop(faults)
    t = q["t"]
    disk, faults = circle_rows(np.conj(t).transpose(0, 2, 1) @ q["norm"] @ t)
    q.update(disk=disk)
    q.drop(faults)

    table.forms[q.index] = q["disk"].reshape(-1, 4)
    for k, c, m in zip(q.index.tolist(), q["contacts"], q["med"]):
        table.contacts[k], table.meds[k] = c, m


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
    table = maximal_disks(dom, samples)
    failures = [{"sample": i, "error": str(exc)} for i, exc in sorted(table.errors.items())]
    found = [i for i in range(len(table)) if i not in table.errors]
    forms, contacts = table.forms[found], [table.contacts[i] for i in found]

    groups = _group_by_disk(forms)
    violations = [{"kind": "no-disk", **fail} for fail in failures]

    # (iii) identical disks share ideal points (as sets; the stored cyclic
    # order depends on the query frame).
    for first, *rest in groups:
        for k in rest:
            if not _same_ideal_sets(dom, contacts[k], contacts[first]):
                violations.append({"kind": "ideal-point-mismatch", "sample": found[k]})

    # (ii) distinct disks: no nesting (which would contradict maximality),
    # and cores on opposite sides of the separating form H1 - H2.  The side
    # test holds whether or not the disks intersect: an ideal point of D1
    # lies on its own circle and outside the open D2, so its H1 - H2 value
    # is nonpositive, and symmetrically for D2.
    firsts = [found[members[0]] for members in groups]
    for a, b in _pairs_to_test(dom, table.forms[firsts], [table.contacts[i] for i in firsts]):
        _check_pair(dom, table[firsts[a]], table[firsts[b]], a, b, violations)

    return {
        "checks": [
            {"name": "every-sample-assigned", "passed": not failures,
             "details": {"samples": len(samples), "assigned": len(found)}},
            {"name": "core-disjointness", "passed": not any(
                v["kind"] in ("core-overlap", "nested-disks") for v in violations)},
            {"name": "ideal-point-consistency", "passed": not any(
                v["kind"] == "ideal-point-mismatch" for v in violations)},
        ],
        "violations": violations,
        "values": {"distinct_disks": len(groups)},
    }


# Form pairs whose same-disk test one block of the grouping takes.
GROUP_PAIRS = 1 << 12


def _group_by_disk(forms: np.ndarray) -> list:
    """Rows of an (N, 4) stack of forms grouped by disk, as lists of row
    indices in order of first appearance: a row joins the group of its
    ``leader_rows`` leader under ``same_disk_rows``, the first group whose
    first row is its same disk, else starts a group."""
    groups = {}
    for k, j in enumerate(leader_rows(forms, same_disk_rows, GROUP_PAIRS).tolist()):
        groups.setdefault(j, []).append(k)
    return list(groups.values())


def _same_ideal_sets(dom: DiskComplementDomain, a: tuple, b: tuple) -> bool:
    """Whether contact tuples a and b name one set of ideal points."""
    if len(a) != len(b):
        return False
    # A complement point is at chordal distance 0 from itself.
    if set(a) == set(b):
        return True
    near = chordal_rows(dom.xyz[list(a), None], dom.xyz[list(b)])
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


def _pairs_to_test(dom: DiskComplementDomain, forms: np.ndarray, contacts: list) -> np.ndarray:
    """Pairs (a, b), a < b in lexicographic order, of the disks of an
    (N, 4) stack of forms with these contact tuples that ``_check_pair``
    might report; every other pair is nested in neither order and has both
    side values within their bounds.  All pairs are tested at once: the
    inversive products as one matrix, the side values from one matrix of
    contact points x disks.  A value within a relative BATCH_BAND of a
    threshold counts as crossing it."""
    a, b, d = forms[:, 0].real, forms[:, 1], forms[:, 3].real
    # A form of det -1 has scale >= 2, and its values at unit vectors round
    # by less than scale * 1e-15, so this band covers every rounding below.
    scale = np.abs(a) + 2.0 * np.abs(b) + np.abs(d)
    band = BATCH_BAND * np.outer(scale, scale)

    # Nesting needs disjoint circles, |inversive product| > 1 + TOL_GEO,
    # and every test point of the inner disk inside the outer one; the
    # first boundary point is one of them.
    ip = inversive_rows(forms[:, None], forms[None, :])
    nests = np.abs(ip) > 1.0 + TOL_GEO - band  # nests[outer, inner]
    inner = np.flatnonzero(nests.any(axis=0))
    if len(inner):
        probe = first_boundary_rows(forms[inner])
        nests[:, inner] &= _form_values(probe, a, b, d).T < -TOL_GEO + band[:, inner]

    overlap = _worst_sides(dom, contacts, a, b, d) > TOL_GEO - band
    return np.argwhere(np.triu(nests | nests.T | overlap | overlap.T, 1))


def _worst_sides(dom: DiskComplementDomain, contacts: list, a, b, d) -> np.ndarray:
    """worst[k, m]: the largest H_k - H_m value over the ideal points of
    disk k, for the disks' forms H = [[a, b], [conj b, d]] and contact
    tuples, which is ``_check_pair``'s worst_a; its worst_b is -worst[m, k].
    Only the contact rows get form values.  The maximum is taken one
    contact slot at a time, over all disks at once; a disk with fewer
    contacts repeats its last one."""
    flat = [i for c in contacts for i in c]
    ids = np.array(sorted(set(flat)), dtype=int)
    forms = _form_values(dom.pairs[ids], a, b, d)
    count = np.array([len(c) for c in contacts])
    rows = np.searchsorted(ids, flat)
    first, own = np.cumsum(count) - count, np.arange(len(contacts))
    worst = np.full((len(contacts), len(contacts)), -np.inf)
    for slot in range(count.max(initial=0)):
        values = forms[rows[first + np.minimum(slot, count - 1)]]
        np.maximum(worst, values[own, own][:, None] - values, out=worst)
    return worst


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

    def at(self, target: float) -> tuple:
        """The point at arclength target, as its homogeneous pair (z, 1), on
        the first segment that reaches it; the last segment takes every
        target past the end, and the parameter is cut to [0, 1]."""
        last = len(self.lengths) - 1
        for k, length in enumerate(self.lengths):
            if target <= self.starts[k + 1] or k == last:
                s = (target - self.starts[k]) / length if length > 0 else 0.0
                a, b = self.pts[k], self.pts[k + 1]
                return a + (b - a) * min(max(s, 0.0), 1.0), 1.0 + 0.0j


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
    The one-path case of ``_measure_paths``, on the polyline through the
    path's points."""
    line = _Polyline(path)
    if len(line.pts) < 2:
        raise DegenerateInputError("path needs at least 2 vertices")
    (run,) = _measure_paths(dom, [line], tol_measure)
    if isinstance(run.result, Exception):
        raise run.result
    return run.result


class _Refinement:
    """One path's refinement: the maximal disks of its last grid in path
    order, as the columns of ``maximal_disks`` (``forms``, ``contacts``,
    and ``errors`` by grid position), and its trace.  The path is any
    object with ``at(s)``, the homogeneous pair of its point at parameter s
    in [0, ``total``].  ``result`` stays None while it refines, then holds
    what ``transverse_measure`` returns or raises on the path."""

    def __init__(self, path, tol_measure: float):
        self.path, self.tol = path, tol_measure
        self.trace, self.prev, self.result = [], None, None
        self.forms, self.contacts, self.errors = np.zeros((0, 4), dtype=complex), [], {}
        if path.total <= 0:
            self.result = DegenerateInputError("path has zero length")

    def missing(self, level: int) -> np.ndarray:
        """The pairs of the points of the level's grid without a disk, the
        points i / n of the path's parameter range: at level 0 all of them,
        and later the odd i, as every coarser point has one."""
        n, odd, total = MEASURE_SUBDIVISION << level, int(level > 0), self.path.total
        return np.array([self.path.at(i / n * total) for i in range(odd, n + 1, 1 + odd)])

    def add(self, table: MaximalDisks, start: int, stop: int) -> np.ndarray:
        """The grid's forms, once rows start to stop of the table hold the
        disks ``missing`` named: at level 0 they are the grid, and later
        they fall between the coarser grid's, as contacts and errors do."""
        forms, contacts = table.forms[start:stop], list(table.contacts[start:stop])
        errors = {j - start: exc for j, exc in table.errors.items() if start <= j < stop}
        if self.contacts:
            grid = np.empty((2 * len(self.forms) - 1, 4), dtype=complex)
            grid[0::2], grid[1::2] = self.forms, forms
            pairs = itertools.chain(*zip(self.contacts, contacts))
            forms, contacts = grid, [*pairs, self.contacts[-1]]
            errors = {**{2 * j: exc for j, exc in self.errors.items()},
                      **{2 * j + 1: exc for j, exc in errors.items()}}
        self.forms, self.contacts, self.errors = forms, contacts, errors
        return forms

    def sum_level(self, level: int, same: list, products: list) -> None:
        """Theta at the level, once every disk of its grid is found, from
        whether each consecutive pair of its disks is one disk and their
        inversive products, in path order.  The first stored error the sum
        reads is the result; disks that do not intersect send the path to
        the next level."""
        n = len(same)
        error = min(self.errors, default=n + 1)  # the first disk in error
        theta = 0.0
        try:
            for i in range(min(n, error - 1)):
                if not same[i]:
                    theta += angle_from_product(products[i])
        except NoIntersectionError:
            self.prev = None
            return  # refine further
        if error <= n:
            self.result = self.errors[error]
            return
        self.trace.append(theta)
        if self.prev is not None and abs(theta - self.prev) < self.tol:
            self.result = MeasureResult(
                value=theta, trace=tuple(self.trace), levels=level, converged=True)
        self.prev = theta

    def finish(self) -> None:
        """The result of a path still refining after the last level."""
        if self.result is None and not self.trace:
            self.result = TransversalityError(
                "consecutive maximal disks do not intersect at maximal refinement")
        elif self.result is None:
            self.result = MeasureResult(value=self.trace[-1], trace=tuple(self.trace),
                                        levels=MEASURE_MAX_LEVELS, converged=False)


def _measure_paths(dom: DiskComplementDomain, paths, tol_measure: float) -> list:
    """``transverse_measure`` of every path, refined in lockstep: each
    path's finished ``_Refinement``, whose ``result`` is its MeasureResult
    or the exception it raises.  At each level the grid points without a
    disk, on every path still refining, are one ``maximal_disks`` batch; a
    path raises only an error its own sum reads.

    Each level then takes every consecutive pair of grid disks of every
    path at once: one ``same_disk_rows`` call and one ``inversive_rows``
    call."""
    runs = [_Refinement(path, tol_measure) for path in paths]
    for level in range(MEASURE_MAX_LEVELS + 1):
        active = [r for r in runs if r.result is None]
        if not active:
            break
        asked = [r.missing(level) for r in active]
        table = maximal_disks(dom, np.concatenate(asked))
        ends = np.cumsum([len(pairs) for pairs in asked]).tolist()
        grids = [r.add(table, start, stop) for r, start, stop in zip(active, [0] + ends, ends)]
        h0 = np.concatenate([g[:-1] for g in grids])
        h1 = np.concatenate([g[1:] for g in grids])
        same = same_disk_rows(h0, h1).tolist()
        products = inversive_rows(h0, h1).tolist()
        start = 0
        for r, g in zip(active, grids):
            stop = start + len(g) - 1
            r.sum_level(level, same[start:stop], products[start:stop])
            start = stop
    for r in runs:
        r.finish()
    return runs


# ---------------------------------------------------------------------------
# Dome vs. transverse measure


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
    face_form = face.plane.boundary.hermitian.ravel()
    hits = np.flatnonzero(same_disk_rows(maximal_disks(dom, cands).forms, face_form))
    if len(hits):
        return cands[hits[0]]
    raise DegenerateInputError("no core point found for dome face")


# How far past each face disk's direction, away from the edge's lune, a
# measure path starts and ends (radians, in the edge's frame): far enough
# from the face's boundary line and from the lune to lie in the face's core.
CORE_ANGLE = math.pi / 8


class _Spiral:
    """A dome edge's measure path: in the edge's frame (its ends at 0 and
    infinity) the log-spiral w(s) = exp((1 - s) start + s end), s in [0, 1],
    mapped back by ``ninv``, the frame's inverse up to scale.  Every point
    the measure refines at lies on it; ``at`` gives it as a homogeneous
    pair, so the spiral may pass through infinity."""

    total = 1.0

    def __init__(self, ninv: list, start: complex, end: complex):
        self.ninv, self.start, self.end = ninv, start, end

    def at(self, s: float) -> tuple:
        w = cmath.exp((1.0 - s) * self.start + s * self.end)
        (a, b), (c, d) = self.ninv
        return a * w + b, c * w + d


def _edge_spirals(dom: DiskComplementDomain, mesh) -> list:
    """Each dome edge's measure path, a ``_Spiral``, all edges as rows.

    The frame n sends the edge's ends a and b to 0 and infinity
    (``moebius_two_points``); its inverse up to scale has columns -b and a.
    Each face circle is then a line through 0, {Re(conj(s) w) = 0}, with the
    face's disk toward s = conj(b)^T H a (up to a positive scale, for the
    face's form H), and the edge's lune is the sector between s1 and s2.
    With sigma the sign of Im(conj(s1) s2), the spiral runs from angle
    arg s1 - sigma CORE_ANGLE, in face 1's core, across the lune to
    arg s1 + arg(s2 / s1) + sigma CORE_ANGLE, in face 2's; its modulus runs
    from r1 to r2, where r_f is the geometric mean of |n(v)| over the
    vertices v of face f other than a and b."""
    edges = mesh.edges
    ab = dom.pairs[np.array([e.vertex_ids for e in edges], dtype=int).reshape(-1, 2)]
    a, b = ab[:, 0], ab[:, 1]
    ninv = np.stack([-b, a], axis=-1)
    forms = np.array([f.plane.boundary.hermitian for f in mesh.faces])
    h = forms[np.array([e.face_ids for e in edges], dtype=int).reshape(-1, 2)]
    s = np.einsum("ei,ekij,ej->ek", np.conj(b), h, a)
    turn = np.angle(s[:, 1] * np.conj(s[:, 0]))
    sigma = np.sign(turn)
    # log |n(v)| = log |[a, v]| - log |[b, v]|, averaged per (edge, face).
    group, v = np.array([(2 * e + k, i) for e, edge in enumerate(edges)
                         for k, f in enumerate(edge.face_ids)
                         for i in mesh.faces[f].vertex_ids if i not in edge.vertex_ids],
                        dtype=int).reshape(-1, 2).T
    pv, pa, pb = dom.pairs[v], a[group // 2], b[group // 2]
    logs = (np.log(np.abs(pa[:, 0] * pv[:, 1] - pa[:, 1] * pv[:, 0]))
            - np.log(np.abs(pb[:, 0] * pv[:, 1] - pb[:, 1] * pv[:, 0])))
    log_r = (np.bincount(group, logs, 2 * len(edges))
             / np.bincount(group, minlength=2 * len(edges))).reshape(-1, 2)
    phi = np.angle(s[:, 0])
    start = log_r[:, 0] + 1j * (phi - sigma * CORE_ANGLE)
    end = log_r[:, 1] + 1j * (phi + turn + sigma * CORE_ANGLE)
    return [_Spiral(m, z0, z1) for m, z0, z1 in zip(ninv.tolist(), start.tolist(), end.tolist())]


def _path_labels(mesh, edge, run: _Refinement) -> list:
    """The label of each maximal disk of a measure path of ``edge``, on the
    run's last grid in path order: ``face1`` or ``face2`` when its circle
    is that face's (``same_disk_rows``), ``family`` when its contacts are
    the edge's two vertices (the domain's rows are the mesh's vertices),
    and ``other`` otherwise, as an error is."""
    faces = np.array([mesh.faces[f].plane.boundary.hermitian.ravel() for f in edge.face_ids])
    near = same_disk_rows(run.forms[:, None], faces).tolist()
    ends = tuple(sorted(edge.vertex_ids))
    return ["face1" if f1 else "face2" if f2 else "family" if ids == ends else "other"
            for (f1, f2), ids in zip(near, run.contacts)]


def dome_measure_report(ideal_points, tol: float = TOL_MEASURE) -> dict:
    """Compare the transverse measure across every dome edge against the
    edge's exterior dihedral angle.

    Each edge's path is written down, not searched for: a log-spiral in the
    edge's frame from inside one face's core, across the edge's lune, into
    the other face's core (``_edge_spirals``).  All paths are measured
    together (``_measure_paths``).  The disks the measure built on a path,
    read in path order, certify it: they must read face1+ family* face2+
    (``_path_labels``), or the edge reports ``no-measure-path``.  The path
    is chosen from the dome's geometry alone, never from its measure."""
    mesh = dome(ideal_points)
    # The dome's vertices: the input less the points it dropped as duplicates.
    dom = DiskComplementDomain(mesh.vertices)
    runs = _measure_paths(dom, _edge_spirals(dom, mesh), tol)
    checks, violations, edge_values = [], [], []
    for ei, (edge, run) in enumerate(zip(mesh.edges, runs)):
        labels = _path_labels(mesh, edge, run)
        if [k for k, _ in itertools.groupby(labels)] not in (
                ["face1", "face2"], ["face1", "family", "face2"]):
            violations.append({"kind": "no-measure-path", "edge": ei})
            edge_values.append(
                {"edge": ei, "theta": math.nan, "dihedral": edge.weight, "error": math.inf})
            continue
        res = run.result
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
    """The multicurve weight of the curve of the one leaf that a short
    transversal through the grafting cylinder of the named curve crosses.
    Leaves carry no weight, so once the transversal is isolated this plainly
    reads the configured weight back: it cannot tell a wrong structure from
    a right one.  Recovering the weight from the developed structure alone
    is still open (ROADMAP item 4)."""
    if isinstance(curve, str):
        curve = GroupWord.parse(curve)
    if curve not in gs.multicurve.words:
        raise PreconditionError(f"curve {curve} is not in the multicurve")
    canonical = LiftedLeaf(
        geodesic=axis(gs.hol.rho(curve)), curve_index=-1, conjugator=GroupWord(()),
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

    return gs.multicurve.weights[ours[0].leaf.curve_index]


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
    Path lifting enters each crescent from the side the table's
    ``right_positive`` names; that side is also read from the leaf's frame,
    and a row where the two disagree is a ``crescent-side`` violation.
    """
    if not all(map(is_two_pi_multiple, gs.multicurve.weights)):
        raise PreconditionError("verify_covering requires weights in 2 pi Z")
    loops = list(loops)
    if not loops:
        raise DegenerateInputError("covering check needs at least one loop")

    table = gs.leaves_near([gs.basepoint])
    rows = np.nonzero(np.array(gs.multicurve.weights)[table.curve] > 0.0)[0]
    weights = [gs.multicurve.weights[c] for c in table.curve[rows]]
    normalizers = [leaf_normalizer(gs, table[i]) for i in rows]
    # A crescent's low side, the stratum a lift enters it from below angle
    # pi/2 of its leaf's frame, is the leaf's right side.
    low_positive = table.right_positive[rows].tolist()

    checks, violations = [], []
    # The low sides read from the geometry: the frame point at angle
    # pi/2 - 0.1, mapped back, has the side value low_positive names.
    probe = cmath.exp(1j * (math.pi / 2.0 - 0.1))
    for i, n, low in zip(rows.tolist(), normalizers, low_positive):
        if (table.sides(n.inverse()(probe), i) > 0) != low:
            violations.append({"kind": "crescent-side", "row": i})
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
