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
    RoundDisk,
    angle_between,
    apply,
    as_pairs,
    chordal_distance,
    chordal_rows,
    circle_through,
    cp1,
    cross_ratio,
    moebius_three_points,
    moebius_two_points,
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

    def reversed(self) -> "GeodesicH3":
        return GeodesicH3(self.q, self.p)

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
    """Hyperbolic element translating by the given length along g
    (from g.p toward g.q for positive length)."""
    t = moebius_two_points(g.p, g.q)
    diag = np.array([[math.exp(-length / 2.0), 0.0], [0.0, math.exp(length / 2.0)]], dtype=complex)
    return t.inverse() @ MoebiusMap(diag) @ t


def rotation_about_geodesic(g: GeodesicH3, theta: float) -> MoebiusMap:
    """Elliptic element fixing the endpoints of g, rotating by theta.

    Positive theta is counterclockwise around the axis oriented from g.p
    to g.q (for the axis (0, infinity) this is z -> exp(i theta) z).
    """
    if abs(theta) < 1e-15:
        return MoebiusMap.identity()
    t = moebius_two_points(g.p, g.q)
    half = theta / 2.0
    diag = np.array([[cmath.exp(1j * half), 0.0], [0.0, cmath.exp(-1j * half)]], dtype=complex)
    return t.inverse() @ MoebiusMap(diag) @ t


def geodesic_point(p: PointH3, q: PointH3, s: float) -> PointH3:
    """Point at parameter s in [0, 1] along the geodesic from p to q."""
    if abs(p.z - q.z) < 1e-15 and abs(p.t - q.t) < 1e-15:
        return p
    d = h3_distance(p, q)
    # Normalize p to (0, 1) and q to (0, e^d) along the vertical axis: a
    # horizontal translation followed by the plane rotation making both
    # vertical works, but it is simpler to interpolate in the plane
    # containing both points, which is isometric to H^2 (upper half-plane).
    dz = q.z - p.z
    if abs(dz) < 1e-15:
        # Same vertical line.
        tval = p.t * math.exp(s * math.copysign(d, q.t - p.t))
        return PointH3(p.z, tval)
    u = dz / abs(dz)
    # Work in the vertical half-plane through p, q with coordinates (x, t).
    a = complex(0.0, p.t)
    b = complex(abs(dz), q.t)
    # Geodesic of UHP through a, b: semicircle centered on the real axis.
    ca = (abs(b) ** 2 - abs(a) ** 2) / (2.0 * (b.real - a.real))
    r = abs(a - ca)
    pha = math.atan2(a.imag, a.real - ca)
    phb = math.atan2(b.imag, b.real - ca)
    # Constant-speed parameterization uses hyperbolic arc length.
    # Angles relate to arc length by d(s) with tan(phi/2) monotone.
    la = math.log(math.tan(pha / 2.0))
    lb = math.log(math.tan(phb / 2.0))
    ls = la + s * (lb - la)
    phi = 2.0 * math.atan(math.exp(ls))
    w = ca + r * cmath.exp(1j * phi)
    return PointH3(p.z + u * w.real, w.imag)


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

    def contains_point(self, p: PointH3, tol: float = TOL_GEO) -> bool:
        t = self.to_halfplane_map()
        q = apply_isometry(t, p)
        return abs(q.z.imag) < tol * max(1.0, abs(q.z), q.t)


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

    @property
    def disk(self) -> RoundDisk:
        return RoundDisk(self.plane.boundary)


@dataclass(frozen=True)
class DomeEdge:
    vertex_ids: tuple  # (i, j)
    face_ids: tuple  # (f1, f2)
    weight: float  # exterior dihedral angle, in (0, pi)
    geodesic: GeodesicH3


@dataclass(frozen=True)
class DomeMesh:
    vertices: tuple  # PointCP1
    faces: tuple  # DomeFace
    edges: tuple  # DomeEdge


def _lift_circle_to_disk(points, xs, ids, outward):
    """Oriented circle through the points with ids (sphere coordinates xs),
    disk side being the outward spherical cap (the side containing no hull
    points)."""
    # Use three well-spread representatives, the first of largest area, for
    # numerical stability.
    circ = circle_through(*(points[i] for i in _widest_triple(xs, ids)))
    if circ.evaluate(_cap_point(outward)) > 0:
        circ = circ.reversed()
    return circ


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
        area = np.triu(np.sqrt(np.add.reduce(np.cross(d[:, None], d) ** 2, axis=-1)), 1)
        best = max(best, area.max())
        near += [(ids[i], ids[i + 1 + j], ids[i + 1 + k])
                 for j, k in np.argwhere(area >= best * (1.0 - 1e-12))]
    return max(near, key=lambda t: np.linalg.norm(np.cross(xs[t[1]] - xs[t[0]], xs[t[2]] - xs[t[0]])))


def _cap_point(outward):
    """Back-projection of the outward unit normal: a point in the outward cap."""
    n = outward / np.linalg.norm(outward)
    x, y, u = n
    if u > 1.0 - 1e-12:
        return PointCP1.infinity()
    return PointCP1.from_complex(complex(x, y) / (1.0 - u))


def _planes(xs, tris):
    """Cross products, unit normals and offsets of the (T, 3) triangles."""
    a, b, c = np.moveaxis(xs[tris], 1, 0)
    cross = np.cross(b - a, c - a)
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
        return np.dot(np.cross(xs[j] - xs[i], xs[k] - xs[i]), xs[l] - xs[i])

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
    e2 = np.cross(n, e1)
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


def dome(ideal_points) -> DomeMesh:
    """Boundary of the hyperbolic convex hull of a finite ideal set.

    Faces are totally geodesic pieces supported on hyperbolic planes; each
    edge carries the exterior dihedral angle between its two faces as a
    bending weight.  A concircular input yields a single flat face and no
    bending (the degenerate planar case).
    """
    pts = [cp1(p) for p in ideal_points]
    xs = sphere_xyz(as_pairs(pts))
    # Deduplicate: keep each point at chordal distance >= TOL_GEO from the kept.
    uniq = []
    for i in range(len(pts)):
        if (chordal_rows(xs[uniq], xs[i]) >= TOL_GEO).all():
            uniq.append(i)
    if len(uniq) < 3:
        raise DegenerateInputError("dome needs at least 3 distinct ideal points")
    pts, xs = [pts[i] for i in uniq], xs[uniq]

    # Within delta of one plane, four points span a volume of at most
    # 24 delta: a flat set has no seed simplex, and the search is skipped.
    n, h = _fit_plane(xs)
    flat = 24.0 * np.max(np.abs(xs @ n - h)) < TOL_HULL / 2.0
    tris = None if flat else _incremental_hull(xs)

    if tris is None:
        # Concircular: single flat face, empty bending lamination.
        ordered = _angular_order(xs, list(range(len(pts))), n)
        circ = _lift_circle_to_disk(pts, xs, ordered, n)
        face = DomeFace(tuple(ordered), PlaneH3(circ))
        return DomeMesh(tuple(pts), (face,), ())

    hull_centroid = np.mean(xs, axis=0)
    faces = []
    for vids, n in _merge_coplanar(xs, tris):
        outward = n if np.dot(n, xs[vids[0]] - hull_centroid) > 0 else -n
        circ = _lift_circle_to_disk(pts, xs, vids, outward)
        faces.append(DomeFace(tuple(vids), PlaneH3(circ)))

    # Edges: consecutive vertex pairs shared by exactly two faces.
    pair_faces = {}
    for fi, f in enumerate(faces):
        vids = f.vertex_ids
        for e in {(min(a, b), max(a, b)) for a, b in zip(vids, vids[1:] + vids[:1])}:
            pair_faces.setdefault(e, []).append(fi)

    edges = tuple(
        DomeEdge(
            vertex_ids=(a, b),
            face_ids=tuple(fids),
            weight=angle_between(faces[fids[0]].plane.boundary, faces[fids[1]].plane.boundary),
            geodesic=GeodesicH3(pts[a], pts[b]),
        )
        for (a, b), fids in sorted(pair_faces.items()) if len(fids) == 2
    )
    return DomeMesh(tuple(pts), tuple(faces), edges)


def _fit_plane(xs):
    centroid = np.mean(xs, axis=0)
    _, _, vh = np.linalg.svd(xs - centroid)
    n = vh[-1] / np.linalg.norm(vh[-1])
    return n, float(np.dot(n, centroid))


def euler_characteristic(mesh: DomeMesh) -> int:
    v = len(mesh.vertices)
    e = len(mesh.edges)
    f = len(mesh.faces)
    return v - e + f


def concircular(p: PointCP1, q: PointCP1, r: PointCP1, s: PointCP1) -> bool:
    """Four points lie on a common round circle iff their cross-ratio is real."""
    return abs(cross_ratio(p, q, r, s).imag) < TOL_GEO


# ---------------------------------------------------------------------------
# Half-space <-> Poincare ball (used by mesh export)


def halfspace_to_ball(p: PointH3) -> np.ndarray:
    """Isometry of the upper half-space model onto the unit ball, matching
    the sphere embedding of CP^1 on the ideal boundary."""
    x, y, t = p.z.real, p.z.imag, p.t
    den = x * x + y * y + (t + 1.0) ** 2
    return np.array([2.0 * x / den, 2.0 * y / den, (x * x + y * y + t * t - 1.0) / den])
