"""Independent oracles: brute-force and quadrature reference computations
kept deliberately separate from the library's own code paths."""

import cmath
import math

import numpy as np


def brute_force_minimal_disk(points):
    """Smallest enclosing disk by exhaustive search over all 2-point
    (diameter) and 3-point (circumcircle) support sets."""
    pts = [complex(p) for p in points]
    eps = 1e-12 * max(1.0, max(abs(p) for p in pts))

    def contains_all(c, r):
        return all(abs(p - c) <= r + eps for p in pts)

    best = None
    n = len(pts)
    if n == 1:
        return pts[0], 0.0
    for i in range(n):
        for j in range(i + 1, n):
            c = (pts[i] + pts[j]) / 2.0
            r = abs(pts[i] - c)
            if contains_all(c, r) and (best is None or r < best[1]):
                best = (c, r)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cc = circumcircle(pts[i], pts[j], pts[k])
                if cc is None:
                    continue
                c, r = cc
                if contains_all(c, r) and (best is None or r < best[1]):
                    best = (c, r)
    return best


def circumcircle(p, q, r):
    ax, ay, bx, by, cx, cy = p.real, p.imag, q.real, q.imag, r.real, r.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14:
        return None
    pa, pb, pc = abs(p) ** 2, abs(q) ** 2, abs(r) ** 2
    ux = (pa * (by - cy) + pb * (cy - ay) + pc * (ay - by)) / d
    uy = (pa * (cx - bx) + pb * (ax - cx) + pc * (bx - ax)) / d
    c = complex(ux, uy)
    return c, max(abs(p - c), abs(q - c), abs(r - c))


def least_squares_circle(points):
    """Algebraic (Kasa) circle fit: exact for points on a true circle."""
    pts = np.asarray([complex(p) for p in points])
    a = np.column_stack([2.0 * pts.real, 2.0 * pts.imag, np.ones(len(pts))])
    b = pts.real**2 + pts.imag**2
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy, c0 = sol
    r = math.sqrt(c0 + cx * cx + cy * cy)
    return complex(cx, cy), r


def oriented_tangent_angle(c1, r1, ccw1, c2, r2, ccw2):
    """Angle between the oriented tangents of two circles at an intersection
    point; orientation is counterclockwise when the disk is the interior."""
    d = abs(c2 - c1)
    x = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(r1 * r1 - x * x)
    u = (c2 - c1) / d
    p = c1 + u * x + 1j * u * h
    t1 = 1j * (p - c1) / r1 * (1.0 if ccw1 else -1.0)
    t2 = 1j * (p - c2) / r2 * (1.0 if ccw2 else -1.0)
    cosang = (t1 * np.conj(t2)).real
    return math.acos(max(-1.0, min(1.0, cosang)))


def h3_distance_quadrature(p, q, n=40001):
    """Hyperbolic length of the geodesic between two upper-half-space points
    by composite-Simpson integration of ds = |dx| / t along the connecting
    semicircle (vertical segment when the horizontal coordinates agree)."""
    z1, t1 = p
    z2, t2 = q
    dz = abs(z2 - z1)
    if dz < 1e-15:
        return abs(math.log(t2 / t1))
    # Work in the vertical plane through both points: coordinates (x, t).
    a = np.array([0.0, t1])
    b = np.array([dz, t2])
    c = (b[0] ** 2 + b[1] ** 2 - a[1] ** 2) / (2.0 * b[0])
    r = math.hypot(a[0] - c, a[1])
    pha = math.atan2(a[1], a[0] - c)
    phb = math.atan2(b[1], b[0] - c)
    lo, hi = min(pha, phb), max(pha, phb)
    phis = np.linspace(lo, hi, n)
    integrand = 1.0 / np.sin(phis)  # |ds| = r dphi, t = r sin(phi)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = (hi - lo) / (n - 1)
    return float(h / 3.0 * np.dot(weights, integrand))


def sphere_point(z):
    """Unit-sphere embedding of a complex number or the string 'inf'."""
    if z == "inf":
        return np.array([0.0, 0.0, 1.0])
    z = complex(z)
    d = abs(z) ** 2 + 1.0
    return np.array([2.0 * z.real / d, 2.0 * z.imag / d, (abs(z) ** 2 - 1.0) / d])


def dihedral_from_plane_normals(face1_points, face2_points, all_points):
    """Exterior dihedral angle between two hull face planes from their
    outward Euclidean normals via the Minkowski pairing
    (n1.n2 - h1 h2) / sqrt((1 - h1^2)(1 - h2^2))."""
    hull_centroid = np.mean([sphere_point(z) for z in all_points], axis=0)

    def plane(points):
        xs = np.array([sphere_point(z) for z in points])
        centroid = xs.mean(axis=0)
        _, _, vh = np.linalg.svd(xs - centroid)
        n = vh[-1]
        n = n / np.linalg.norm(n)
        h = float(np.dot(n, centroid))
        if np.dot(n, xs[0] - hull_centroid) < 0:
            n, h = -n, -h
        return n, h

    n1, h1 = plane(face1_points)
    n2, h2 = plane(face2_points)
    val = (np.dot(n1, n2) - h1 * h2) / math.sqrt((1 - h1 * h1) * (1 - h2 * h2))
    return math.acos(max(-1.0, min(1.0, val)))


def axis_real_endpoints(matrix):
    """Fixed points of a real hyperbolic SL(2,R) matrix on the real line,
    via the fixed-point quadratic; returns (finite list, has_infinity)."""
    a, b = matrix[0, 0].real, matrix[0, 1].real
    c, d = matrix[1, 0].real, matrix[1, 1].real
    if abs(c) < 1e-14:
        # z -> (a z + b) / d fixes infinity and b / (d - a).
        if abs(d - a) < 1e-14:
            return [], True
        return [b / (d - a)], True
    disc = (a - d) ** 2 + 4.0 * b * c
    if disc < 0:
        return [], False
    s = math.sqrt(disc)
    return [((a - d) + s) / (2.0 * c), ((a - d) - s) / (2.0 * c)], False


def segment_crossing_count(hol_matrices, curve_matrices, p, q, depth):
    """Count axis lifts separating p from q by raw word enumeration and
    endpoint sign tests (no pruning, no deduplication shortcuts)."""
    letters = list(hol_matrices.keys())

    def side(z, ends, has_inf):
        if has_inf:
            (a,) = ends
            return 1.0 if z.real > a else -1.0
        a, b = sorted(ends)
        c, r = (a + b) / 2.0, (b - a) / 2.0
        return 1.0 if abs(z - c) > r else -1.0

    axes = set()
    words = [((), np.eye(2))]
    frontier = [((), np.eye(2))]
    for _ in range(depth):
        nxt = []
        for word, m in frontier:
            for l in letters:
                if word and word[-1] == -l:
                    continue
                nxt.append((word + (l,), m @ hol_matrices[l]))
        words.extend(nxt)
        frontier = nxt
    count = 0
    for _, w in words:
        winv = np.linalg.inv(w)
        for g in curve_matrices:
            conj = w @ g @ winv
            ends, has_inf = axis_real_endpoints(conj)
            if has_inf and len(ends) == 0:
                continue
            if not has_inf and len(ends) < 2:
                continue
            key = (round(ends[0], 7), round(ends[1], 7) if len(ends) > 1 else math.inf)
            key = (min(key), max(key))
            if key in axes:
                continue
            axes.add(key)
            if has_inf:
                if (p.real > ends[0]) != (q.real > ends[0]):
                    count += 1
            else:
                if side(p, ends, False) != side(q, ends, False):
                    count += 1
    return count


def first_linked_pair_matrix(lo, hi):
    """First pair (i, j), i < j, in row-major order for which exactly one
    endpoint of interval j lies strictly inside interval i, from the full
    L x L link matrices; None when there is none."""
    inside_lo = (lo[:, None] < lo[None, :]) & (lo[None, :] < hi[:, None])
    inside_hi = (lo[:, None] < hi[None, :]) & (hi[None, :] < hi[:, None])
    linked = inside_lo ^ inside_hi
    crossings = np.argwhere(np.triu(linked, k=1))
    if not len(crossings):
        return None
    i, j = crossings[0]
    return int(i), int(j)


def maximal_disk_support_search(complement, x):
    """Exhaustive maximal disk at x: transport x to infinity with
    w = 1 / (z - x), then search all 2- and 3-point support disks for the
    smallest one enclosing the transported complement."""
    if x == "inf":
        transported = [0.0 if z == "inf" else None for z in complement]
        transported = [complex(z) for z in complement if z != "inf"]
    else:
        x = complex(x)
        transported = []
        for z in complement:
            if z == "inf":
                transported.append(0.0j)
            else:
                transported.append(1.0 / (complex(z) - x))
    return brute_force_minimal_disk(transported)
