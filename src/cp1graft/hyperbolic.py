"""Upper half-space model of H^3: isometric PSL(2,C) action, geodesics,
hyperbolic planes over round circles, nearest-point projections, and the
convex-hull dome of a finite ideal set.

A point of H^3 is (z, t) with z the horizontal complex coordinate and
t > 0 the height.  The ideal boundary is CP^1 (t = 0 plus infinity).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .moebius import (
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    OrientedCircle,
    PointCP1,
    angle_from_product,
    apply,
    as_pairs,
    chordal_distance,
    chordal_rows,
    circle_rows,
    circles_through,
    cp1,
    inversive_rows,
    leader_rows,
    moebius_three_points,
    moebius_two_points,
    side_signs,
    sphere_xyz,
)


@dataclass(frozen=True)
class PointH3:
    z: complex
    t: float

    def __post_init__(self):
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise DegenerateInputError("height must be positive and finite")

    def coords(self) -> np.ndarray:
        return np.array([self.z.real, self.z.imag, self.t])


@dataclass(frozen=True)
class GeodesicH3:
    """Geodesic of H^3 named by its ideal endpoints (kept ordered; the pair
    is geometrically unordered but the order carries axis orientation)."""

    p: PointCP1
    q: PointCP1

    def __post_init__(self):
        if chordal_distance(self.p, self.q) < TOL_GEO:
            raise DegenerateInputError("geodesic endpoints must be distinct")

    def transform(self, m: MoebiusMap) -> "GeodesicH3":
        return GeodesicH3(apply(m, self.p), apply(m, self.q))


def apply_isometry(m: MoebiusMap, p: PointH3) -> PointH3:
    """Extension of the Moebius action to upper half-space."""
    a, b, c, d = m.a, m.b, m.c, m.d
    z, t = p.z, p.t
    den = abs(c * z + d) ** 2 + abs(c) ** 2 * t * t
    znew = ((a * z + b) * np.conj(c * z + d) + a * np.conj(c) * t * t) / den
    tnew = t / den
    return PointH3(complex(znew), float(tnew))


def h3_distance(p: PointH3, q: PointH3) -> float:
    """Hyperbolic distance in the upper half-space model."""
    x = 1.0 + (abs(p.z - q.z) ** 2 + (p.t - q.t) ** 2) / (2.0 * p.t * q.t)
    return math.acosh(max(x, 1.0))


def translation_along_geodesic(g: GeodesicH3, length: float) -> MoebiusMap:
    """Hyperbolic element translating by the given length along g, toward
    g.p for positive length: rotation about g by the angle i length."""
    return rotation_about_geodesic(g, 1j * length)


def rotation_about_geodesic(g: GeodesicH3, theta: complex) -> MoebiusMap:
    """Element fixing the endpoints of g, by the complex angle
    theta = phi + i l: rotation by phi, counterclockwise around the axis
    oriented from g.p to g.q, and translation by l toward g.p.  For the
    axis (0, infinity) it is z -> exp(i theta) z."""
    if abs(theta) < 1e-15:
        return MoebiusMap.identity()
    t = moebius_two_points(g.p, g.q)
    half = theta / 2.0
    diag = np.array([[cmath.exp(1j * half), 0.0], [0.0, cmath.exp(-1j * half)]], dtype=complex)
    return t.inverse() @ MoebiusMap(diag) @ t


# ---------------------------------------------------------------------------
# Hyperbolic planes


@dataclass(frozen=True)
class PlaneH3:
    """Totally geodesic plane determined by its ideal boundary circle.

    The circle orientation records the normal direction: the disk side of
    the boundary circle is the side of interest (e.g. the maximal disk it
    supports).
    """

    boundary: OrientedCircle

    def transform(self, m: MoebiusMap) -> "PlaneH3":
        return PlaneH3(self.boundary.transform(m))

    def to_halfplane_map(self) -> MoebiusMap:
        """A Moebius map sending the boundary circle to the extended real
        line with the disk side going to the upper half-plane."""
        pts = self.boundary.boundary_points(3)
        t = moebius_three_points(*pts)
        sample = apply(t.inverse(), PointCP1.from_complex(1j))
        if self.boundary.evaluate(sample) > 0:
            t = moebius_three_points(pts[1], pts[0], pts[2])
        return t


def nearest_point_projection(plane: PlaneH3, x: PointCP1) -> PointH3:
    """Endpoint on the plane of the geodesic orthogonal to it asymptotic to
    the ideal point x, which must lie strictly on the disk side."""
    x = cp1(x)
    if not plane.boundary.contains_in_disk(x):
        raise DegenerateInputError("ideal point must lie strictly inside the disk side")
    t = plane.to_halfplane_map()
    w = apply(t, x)
    wz = w.as_complex()
    if wz.imag <= 0:
        raise DegenerateInputError("normalization failed; point not on disk side")
    return apply_isometry(t.inverse(), PointH3(complex(wz.real, 0.0) + 0.0j, wz.imag))


# ---------------------------------------------------------------------------
# Dome: boundary of the convex hull of a finite ideal set


# A seed simplex is solid, and a face visible from a point, beyond TOL_HULL;
# triangles and skipped input points within TOL_COPLANAR of one plane (in
# offset and normal) form one concircular face.
TOL_HULL = 1e-9
TOL_COPLANAR = 1e-7


@dataclass(frozen=True)
class DomeFace:
    vertex_ids: tuple
    plane: PlaneH3


@dataclass(frozen=True)
class DomeEdge:
    vertex_ids: tuple  # (i, j)
    face_ids: tuple  # (f1, f2)
    weight: float  # exterior dihedral angle, in (0, pi)


@dataclass(frozen=True)
class DomeMesh:
    vertices: tuple  # PointCP1
    faces: tuple  # DomeFace
    edges: tuple  # DomeEdge


def _widest_triple(xs, ids) -> tuple:
    """The first of ``itertools.combinations(ids, 3)`` spanning the largest
    triangle.  The areas of the triples with first index i are screened as
    one array; only those within a relative 1e-12 of the largest are ranked
    by the exact per-triple norm, so the triple is the one ``max`` picks."""
    if len(ids) == 3:
        return tuple(ids)
    p = xs[list(ids)]
    best, near = 0.0, []
    for i in range(len(ids) - 2):
        d = p[i + 1:] - p[i]
        area = np.triu(np.sqrt(np.add.reduce(_cross(d[:, None], d) ** 2, axis=-1)), 1)
        best = max(best, area.max())
        near += [(ids[i], ids[i + 1 + j], ids[i + 1 + k])
                 for j, k in np.argwhere(area >= best * (1.0 - 1e-12))]
    return max(near, key=lambda t: np.linalg.norm(_cross(xs[t[1]] - xs[t[0]], xs[t[2]] - xs[t[0]])))


def _cross(a, b):
    """The cross product of (..., 3) rows, broadcast, bit for bit numpy's:
    the same products and differences, without its axis moves."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    c0 = a1 * b2 - a2 * b1
    out = np.empty(np.shape(c0) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = c0, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return out


def _planes(xs, tris):
    """Cross products, unit normals and offsets of the (T, 3) triangles."""
    a, b, c = np.moveaxis(xs[tris], 1, 0)
    cross = _cross(b - a, c - a)
    n = cross / np.linalg.norm(cross, axis=1)[:, None]
    return cross, n, np.einsum("ij,ij->i", n, a)


def _incremental_hull(xs: np.ndarray):
    """Triangulated convex hull of points on the unit sphere, as a (T, 3)
    array of ids with outward orientation.

    Deterministic: insertion in lexicographic order.  Points lying on a
    face plane are skipped here and merged into polygon faces afterwards.
    """
    order = np.lexsort(xs.T[::-1])

    def volume(i, j, k, l):
        return np.dot(_cross(xs[j] - xs[i], xs[k] - xs[i]), xs[l] - xs[i])

    # Seed simplex: first lexicographic non-degenerate quadruple.
    seed = next((q for q in itertools.combinations(order, 4) if abs(volume(*q)) > TOL_HULL), None)
    if seed is None:
        return None  # all coplanar
    i, j, k, l = seed
    tris = np.array([(i, k, j), (i, j, l), (j, k, l), (k, i, l)])
    if volume(i, j, k, l) < 0:
        tris = tris[:, [0, 2, 1]]
    _, normals, offsets = _planes(xs, tris)

    for idx in order:
        if idx in seed:
            continue
        visible = normals @ xs[idx] - offsets > TOL_HULL
        if not visible.any():
            continue  # on the hull boundary or inside; merged later
        # The horizon: edges of exactly one visible face, in face order.
        rims = tris[visible][:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = rims.min(axis=1) * len(xs) + rims.max(axis=1)
        _, where, count = np.unique(key, return_inverse=True, return_counts=True)
        horizon = rims[count[where] == 1]
        new = np.column_stack([horizon, np.full(len(horizon), idx)])
        _, new_normals, new_offsets = _planes(xs, new)
        tris = np.concatenate([tris[~visible], new])
        normals = np.concatenate([normals[~visible], new_normals])
        offsets = np.concatenate([offsets[~visible], new_offsets])
    return tris


def _angular_order(xs, vids, n) -> list:
    """vids sorted by angle about their centroid in the plane of normal n."""
    centroid = np.mean(xs[vids], axis=0)
    e1 = xs[vids[0]] - centroid
    e1 = e1 - np.dot(e1, n) * n
    e1 = e1 / np.linalg.norm(e1)
    e2 = _cross(n, e1)
    return sorted(
        vids,
        key=lambda v: math.atan2(np.dot(xs[v] - centroid, e2), np.dot(xs[v] - centroid, e1)),
    )


def _merge_coplanar(xs, tris):
    """Group hull triangles into maximal planar (= concircular) faces and
    return them as (vertex ids in boundary order, unit normal) pairs.

    Two triangles share a plane when their unit normals and offsets agree
    within TOL_COPLANAR; the faces are the classes this relation generates,
    in the order of their first triangle."""
    cross, normals, offsets = _planes(xs, tris)
    count, rows = len(tris), max(1, 2**20 // len(tris))

    def least_related(s, label):  # the least label related to each of rows s .. s + rows
        same = (normals[s:s + rows] @ normals.T > 1.0 - TOL_COPLANAR) & (
            np.abs(offsets[s:s + rows, None] - offsets) < TOL_COPLANAR
        )
        return np.where(same, label, count).min(axis=1)

    # Each pass lowers every label to the least among its related triangles
    # (then follows labels to their own), until each is its class's first.
    label, prev = np.arange(count), None
    while not np.array_equal(label, prev):
        prev = label
        label = np.concatenate([least_related(s, prev) for s in range(0, count, rows)])
        label = label[label]

    faces = []
    for first in np.flatnonzero(label == np.arange(count)):
        tids = np.flatnonzero(label == first)
        vids = np.unique(tris[tids])
        n = np.add.reduce(cross[tids], axis=0, initial=0.0)
        n = n / np.linalg.norm(n)
        h = float(np.mean(xs[vids] @ n))
        # Sweep in any point of the input lying on this plane (coplanar
        # points skipped by the triangulated hull still belong to the face).
        vids = np.union1d(vids, np.flatnonzero(np.abs(xs @ n - h) < TOL_COPLANAR))
        faces.append((tuple(_angular_order(xs, vids.tolist(), n)), n))
    return faces


# Point pairs whose distances one block of the duplicate filter takes.
_DEDUP_PAIRS = 1 << 15


def _distinct_ids(xs: np.ndarray) -> np.ndarray:
    """Ids of the sphere points xs that ``dome`` keeps: the ``leader_rows``
    leaders, a point being close to one within TOL_GEO (chordal), so a
    point is dropped when it lies that close to an earlier kept point."""
    leader = leader_rows(xs, lambda a, b: chordal_rows(a, b) < TOL_GEO, _DEDUP_PAIRS)
    return np.flatnonzero(leader == np.arange(len(xs)))


def dome(ideal_points) -> DomeMesh:
    """Boundary of the hyperbolic convex hull of a finite ideal set: points,
    or an (N, 2) array of homogeneous pairs.

    Faces are totally geodesic pieces supported on hyperbolic planes; each
    edge carries the exterior dihedral angle between its two faces as a
    bending weight.  A concircular input yields a single flat face and no
    bending (the degenerate planar case).  The face circles are built as
    one batch (``circles_through``) and turned to their outward caps by one
    ``side_signs`` pass; the edge weights come from one ``inversive_rows``
    pass over the face pairs.
    """
    rows = as_pairs(ideal_points)
    xs = sphere_xyz(rows)
    uniq = _distinct_ids(xs)
    if len(uniq) < 3:
        raise DegenerateInputError("dome needs at least 3 distinct ideal points")
    pts, xs = [PointCP1(z0, z1) for z0, z1 in rows[uniq].tolist()], xs[uniq]

    # Within delta of one plane, four points span a volume of at most
    # 24 delta: a flat set has no seed simplex, and the search is skipped.
    n, h = _fit_plane(xs)
    flat = 24.0 * np.max(np.abs(xs @ n - h)) < TOL_HULL / 2.0
    tris = None if flat else _incremental_hull(xs)

    if tris is None:
        # Concircular: single flat face, empty bending lamination.
        faces = [(tuple(_angular_order(xs, list(range(len(pts))), n)), n)]
    else:
        hull_centroid = np.mean(xs, axis=0)
        faces = []
        for vids, n in _merge_coplanar(xs, tris):
            outward = n if np.dot(n, xs[vids[0]] - hull_centroid) > 0 else -n
            faces.append((vids, outward))

    # Each face's circle through its widest triple, its disk side then the
    # outward spherical cap (the side containing no hull points), whose
    # pole is the back-projection (x + iy) / (1 - u) of the outward normal,
    # infinity within 1e-12 of the north pole.
    outward = np.array([n for _, n in faces])
    circles = circles_through(rows[uniq][[_widest_triple(xs, vids) for vids, _ in faces]])
    poles = np.stack([outward[:, 0] + 1j * outward[:, 1], 1.0 - outward[:, 2]], axis=1)
    poles[[n[2] / np.linalg.norm(n) > 1.0 - 1e-12 for n in outward]] = (1.0, 0.0)
    flip = side_signs(circles, poles)
    circles[flip] = circle_rows(-circles[flip])[0]
    circles.setflags(write=False)
    faces = [
        DomeFace(vids, PlaneH3(OrientedCircle.from_row(circ)))
        for (vids, _), circ in zip(faces, circles)
    ]

    # Edges: consecutive vertex pairs shared by exactly two faces.
    pair_faces = {}
    for fi, f in enumerate(faces):
        vids = f.vertex_ids
        for e in {(min(a, b), max(a, b)) for a, b in zip(vids, vids[1:] + vids[:1])}:
            pair_faces.setdefault(e, []).append(fi)

    shared = [(e, tuple(fids)) for e, fids in sorted(pair_faces.items()) if len(fids) == 2]
    forms = circles.reshape(-1, 4)[np.array([fids for _, fids in shared], dtype=int).reshape(-1, 2)]
    edges = tuple(
        DomeEdge(vertex_ids=e, face_ids=fids, weight=angle_from_product(ip))
        for (e, fids), ip in zip(shared, inversive_rows(forms[:, 0], forms[:, 1]).tolist())
    )
    return DomeMesh(tuple(pts), tuple(faces), edges)


def _fit_plane(xs):
    centroid = np.mean(xs, axis=0)
    _, _, vh = np.linalg.svd(xs - centroid)
    n = vh[-1] / np.linalg.norm(vh[-1])
    return n, float(np.dot(n, centroid))


# ---------------------------------------------------------------------------
# Half-space <-> Poincare ball (used by mesh export)


def halfspace_to_ball(p: PointH3) -> np.ndarray:
    """Isometry of the upper half-space model onto the unit ball, matching
    the sphere embedding of CP^1 on the ideal boundary."""
    x, y, t = p.z.real, p.z.imag, p.t
    den = x * x + y * y + (t + 1.0) ** 2
    return np.array([2.0 * x / den, 2.0 * y / den, (x * x + y * y + t * t - 1.0) / den])
