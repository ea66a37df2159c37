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


def med_bits(med):
    """A minimal disk's centre parts and radius as hex, and its support."""
    return (med.center.real.hex(), med.center.imag.hex(), med.radius.hex(), med.support)


def lockstep_med_mismatches(z):
    """The rows of a (Q, N) stack of points where ``minimal_enclosing_disks``,
    made to take the lockstep path whatever the size of the block, differs
    from ``minimal_enclosing_disk`` row by row: in the bits of the disk, or
    in the message of the DegenerateInputError the row raises."""
    import pytest
    from cp1graft import moebius

    z = np.asarray(z, dtype=complex)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(moebius, "_MED_LOCKSTEP_POINTS", 0)
        got, faults = moebius.minimal_enclosing_disks(z)
    bad = []
    for j, row in enumerate(z):
        try:
            want = med_bits(moebius.minimal_enclosing_disk(row))
        except moebius.DegenerateInputError as exc:
            want = str(exc)
        if (str(faults[j]) if j in faults else med_bits(got[j])) != want:
            bad.append(j)
    return bad


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


def reference_leaf_lifts(hol, mc, depth, focus, margin=4.0):
    """Reference for ``enumerate_leaf_lifts``: the one-shot level-wise BFS on
    matrix stacks that the word tree replaced, kept as it was, with its own
    element keys.  Returns the LeafTable a fresh BFS builds."""
    from cp1graft.grafting import (
        InvalidMulticurveError,
        LeafTable,
        MAX_LEAF_ELEMENTS,
        _lex_less,
        _real_ends,
        distance_to_leaf,
    )
    from cp1graft.moebius import (
        TOL_GEO,
        MoebiusMap,
        chordal_rows,
        classify,
        cp1,
        normalize_stack,
        sphere_xyz,
    )
    from cp1graft.surface import LETTER_ORDER, axis, first_rows, word_children, word_products

    def element_keys(mats):
        return [m.tobytes() for m in np.round(mats, 9) + 0.0]

    x0 = hol.basepoint
    base_axes = []
    half_lengths = []
    for word, weight in mc.entries:
        m = hol.rho(word)
        cls = classify(m)
        if cls.kind not in ("hyperbolic", "loxodromic"):
            raise InvalidMulticurveError(f"curve {word} is not hyperbolic ({cls.kind})")
        base_axes.append(axis(m))
        t2 = m.trace_squared().real
        half_lengths.append(math.acosh(math.sqrt(max(t2, 4.0)) / 2.0))

    reach = max(distance_to_leaf(x0, g) for g in base_axes) if base_axes else 0.0
    radius = reach + (max(half_lengths) if half_lengths else 0.0) + margin

    # Level-wise BFS; elements form a tree (parent id, last letter), id 0
    # the identity.
    gens = {l: hol.generator(l).matrix for l in LETTER_ORDER}
    start = cp1(x0).normalized().vector()
    targets = np.array([x0] + list(focus), dtype=complex)
    level = MoebiusMap.identity().matrix[None]
    seen = set(element_keys(level))
    level_ids, level_last = np.array([0]), np.array([0])
    stacks, parents, letters = [level], [np.array([-1])], [np.array([0])]
    count = 1
    for _ in range(depth):
        cand_from, cand_last = word_children(level_last)
        cand = normalize_stack(word_products(level, cand_from, cand_last, gens))

        orbit = cand @ start
        z = (orbit[:, 0] / orbit[:, 1])[:, None]
        x = 1.0 + np.abs(z - targets) ** 2 / (2.0 * z.imag * targets.imag)
        near = np.arccosh(np.maximum(x, 1.0)).min(axis=1) <= radius
        alive = np.nonzero(near)[0]
        keep = np.zeros(len(cand), dtype=bool)
        for i, key in zip(alive, element_keys(cand[alive])):
            if key not in seen:
                seen.add(key)
                keep[i] = True

        level = cand[keep]
        level_last = cand_last[keep]
        stacks.append(level)
        parents.append(level_ids[cand_from[keep]])
        letters.append(level_last)
        level_ids = count + np.arange(len(level))
        count += len(level)
        if count > MAX_LEAF_ELEMENTS:
            raise RuntimeError(f"leaf lift enumeration exceeded {MAX_LEAF_ELEMENTS} elements")

    # Candidate lifts, element-major then curve: (E * C, 2 endpoints, 2).
    elements = np.concatenate(stacks)
    n_curves = len(base_axes)
    ends = np.empty((len(elements), n_curves, 2, 2), dtype=complex)
    for i, g in enumerate(base_axes):
        ends[:, i, 0] = elements @ g.p.normalized().vector()
        ends[:, i, 1] = elements @ g.q.normalized().vector()
    ends = ends.reshape(-1, 2, 2)
    cand_element = np.repeat(np.arange(len(elements)), n_curves)
    cand_curve = np.tile(np.arange(n_curves), len(elements))

    # Drop the lifts whose endpoints contracted below resolution (closer
    # than TOL_GEO, both at infinity, or a circle OrientedCircle rejects):
    # they lie too deep in a funnel to cross anything near the focus.
    sphere = sphere_xyz(ends)
    chord = chordal_rows(sphere[:, 0], sphere[:, 1])
    xr = _real_ends(ends)
    at_inf = np.isnan(xr)
    c, r = (xr[:, 0] + xr[:, 1]) / 2.0, np.abs(xr[:, 1] - xr[:, 0]) / 2.0
    bad_circle = (r < TOL_GEO) | ((c * c - r * r) - c * c >= -1e-300)
    ok = (chord >= TOL_GEO) & ~at_inf.all(axis=1) & (at_inf.any(axis=1) | ~bad_circle)

    # Keys: curve, then the two rounded endpoint triples, smaller first;
    # each key keeps its first candidate, and rows come out in key order.
    sel = np.nonzero(ok)[0]
    rounded = np.round(sphere[sel], 9)
    a, b = rounded[:, 0], rounded[:, 1]
    swap = _lex_less(b, a)[:, None]
    lo, hi = np.where(swap, b, a), np.where(swap, a, b)
    rows = sel[first_rows(np.column_stack([cand_curve[sel], lo, hi]))]
    return LeafTable(
        ends=ends[rows],
        weight=np.array(mc.weights, dtype=float)[cand_curve[rows]],
        curve=cand_curve[rows],
        conjugator=cand_element[rows],
        parent=np.concatenate(parents),
        letter=np.concatenate(letters),
    )


def reference_maximal_disk(dom, x):
    """Reference for ``maximal_disks``: the per-point body ``maximal_disk_at``
    had before the batch, kept as it was, with the loop ``affine_stack`` then
    ran written out.  It builds every circle and map through its scalar
    constructor and raises where the batch stores the error."""
    from cp1graft.moebius import (
        TOL_GEO,
        DegenerateInputError,
        MoebiusMap,
        OrientedCircle,
        RoundDisk,
        apply_stack,
        cp1,
        minimal_enclosing_disk,
    )
    from cp1graft.thurston import TOL_CONTACT, MaximalDiskRecord, PreconditionError

    x = cp1(x)
    if not dom.contains(x):
        raise PreconditionError("query point is too close to the complement")
    if x.is_infinity:
        t = MoebiusMap.identity()
    else:
        t = MoebiusMap(np.array([[0.0, 1.0], [1.0, -x.as_complex()]], dtype=complex))
    transported = apply_stack(t, dom.pairs)
    zs = []
    for z0, z1 in transported.tolist():
        if abs(z1) <= TOL_GEO * abs(z0):
            raise DegenerateInputError("point is at infinity")
        zs.append(z0 / z1)
    med = minimal_enclosing_disk(zs)
    contacts = [
        i for i, z in enumerate(zs)
        if abs(abs(z - med.center) - med.radius) <= TOL_CONTACT * med.radius
    ]
    if len(contacts) < 2:
        contacts = sorted(set(contacts) | set(med.support))
    circle_norm = OrientedCircle.from_center_radius(med.center, med.radius, disk_inside=False)
    m = t.matrix
    disk = RoundDisk(OrientedCircle(m.conj().T @ circle_norm.hermitian @ m))
    return MaximalDiskRecord(
        disk=disk, ideal_ids=tuple(contacts), normalized=med,
        query_row=np.array([x.z0, x.z1], dtype=complex), rows=dom.rows,
    )


def reference_geodesic(u, v):
    """The unit disk's geodesic between boundary points u, v, as the circle
    orthogonal to the unit circle, or a diameter."""
    from cp1graft.moebius import DegenerateInputError, OrientedCircle

    denom = 1.0 + (u * np.conj(v)).real
    if abs(denom) < 1e-12:
        h = np.array([[0.0, 1j * u], [-1j * np.conj(u), 0.0]], dtype=complex)
        return OrientedCircle(h)
    m = (u + v) / denom
    r2 = abs(m) ** 2 - 1.0
    if r2 <= 0:
        raise DegenerateInputError("degenerate hull edge")
    return OrientedCircle.from_center_radius(m, math.sqrt(r2))


def reference_core(dom, rec):
    """Reference for a record's lazy core: its frame and its contacts in
    the frame built point by point from the record's query, normalized disk
    and contact ids by the scalar constructors, as the per-point body once
    built them, and the hull of the distinct contacts, as (frame, boundary
    angles, edges).  A contact is a distinct vertex unless its geodesic to
    the previous one (angular order, cyclically) has a squared radius below
    TINY_EDGE."""
    from cp1graft.moebius import MoebiusMap, PointCP1, apply
    from cp1graft.thurston import TINY_EDGE

    x, med = rec.query, rec.normalized
    if x.is_infinity:
        t = MoebiusMap.identity()
    else:
        t = MoebiusMap(np.array([[0.0, 1.0], [1.0, -x.as_complex()]], dtype=complex))
    u = MoebiusMap(np.array([[0.0, med.radius], [1.0, -med.center]], dtype=complex))
    ws = sorted(
        (apply(u, apply(t, dom.complement[i])).as_complex() for i in rec.ideal_ids),
        key=lambda w: math.atan2(w.imag, w.real),
    )
    units = [w / abs(w) for w in ws]
    vs = []
    for j in range(len(ws)):
        a, b = units[j - 1], units[j]
        denom = 1.0 + (a * np.conj(b)).real
        if abs(denom) < 1e-12 or abs((a + b) / denom) ** 2 - 1.0 >= TINY_EDGE:
            vs.append(j)
    k = len(vs)
    edges = []
    for j in range(k if k > 2 else k // 2):
        edge = reference_geodesic(units[vs[j]], units[vs[(j + 1) % k]])
        if k > 2 and edge.evaluate(PointCP1.from_complex(ws[vs[(j + 2) % k]])) > 0:
            edge = edge.reversed()
        edges.append(edge)
    angles = tuple(math.atan2(ws[j].imag, ws[j].real) for j in vs)
    return u @ t, angles, edges


def reference_transverse_measure(dom, path, tol_measure):
    """Reference for the lockstep refinement of ``transverse_measure``: its
    body as it was, one path at a time, each disk found by
    ``reference_maximal_disk`` when the sum first reads it."""
    from cp1graft.moebius import DegenerateInputError, NoIntersectionError, angle_between
    from cp1graft.thurston import (
        MEASURE_MAX_LEVELS,
        MEASURE_SUBDIVISION,
        MeasureResult,
        TransversalityError,
        _Polyline,
    )

    line = _Polyline(path)
    if len(line.pts) < 2:
        raise DegenerateInputError("path needs at least 2 vertices")
    if line.total <= 0:
        raise DegenerateInputError("path has zero length")
    finest = MEASURE_SUBDIVISION << MEASURE_MAX_LEVELS
    disk_cache = {}

    def disk_at(i, n):
        key = i * (finest // n)
        if key not in disk_cache:
            disk_cache[key] = reference_maximal_disk(dom, line.at(i / n * line.total))
        return disk_cache[key]

    trace = []
    prev = None
    for level in range(MEASURE_MAX_LEVELS + 1):
        n = MEASURE_SUBDIVISION << level
        try:
            theta = 0.0
            for i in range(n):
                d0, d1 = disk_at(i, n), disk_at(i + 1, n)
                if d0.same_disk(d1):
                    continue
                theta += angle_between(d0.disk.circle, d1.disk.circle)
        except NoIntersectionError:
            prev = None
            continue
        trace.append(theta)
        if prev is not None and abs(theta - prev) < tol_measure:
            return MeasureResult(value=theta, trace=tuple(trace), levels=level, converged=True)
        prev = theta
    if not trace:
        raise TransversalityError("consecutive maximal disks do not intersect at maximal refinement")
    return MeasureResult(value=trace[-1], trace=tuple(trace), levels=MEASURE_MAX_LEVELS, converged=False)


def reference_face_core_point(dom, face):
    """Reference for ``face_core_point``: its per-radius loop, one
    ``contains`` test and one ``maximal_disk_at`` per radius, as it was."""
    from cp1graft.moebius import DegenerateInputError, PointCP1, affine_stack, apply, apply_stack
    from cp1graft.thurston import TOL_SAME_DISK, PreconditionError, _face_frame, maximal_disk_at

    frame = _face_frame(face)
    finv = frame.inverse()
    ws = affine_stack(apply_stack(frame, dom.pairs[list(face.vertex_ids)]))
    mean = sum(w / abs(w) for w in ws if abs(w) > 1e-9)
    direction = mean / abs(mean) if abs(mean) > 1e-9 else 0.0j
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


def _reference_probe_at(line, target):
    """The unclamped rule of ``_Polyline.at`` that candidate paths were
    probed by, as it was."""
    for k, length in enumerate(line.lengths):
        if target <= line.starts[k + 1]:
            s = (target - line.starts[k]) / length if length > 0 else 0.0
            a, b = line.pts[k], line.pts[k + 1]
            return a + (b - a) * s
    return line.pts[-1]


def reference_classify_on_path(dom, mesh, edge, points):
    """Label path points from their maximal disks, one edge at a time, as
    ``_classify_on_path`` did."""
    from cp1graft.moebius import chordal_distance
    from cp1graft.thurston import TOL_SAME_DISK, TOL_SAME_POINT, maximal_disks

    circles = [mesh.faces[f].plane.boundary for f in edge.face_ids]
    va, vb = (mesh.vertices[i] for i in edge.vertex_ids)

    def near(u, v):
        return chordal_distance(u, v) < TOL_SAME_POINT

    def label(rec) -> str:
        if isinstance(rec, Exception):
            return "other"
        for name, circle in zip(("face1", "face2"), circles):
            if rec.disk.circle.proj_distance(circle) < TOL_SAME_DISK:
                return name
        if len(rec.ideal_points) == 2:
            p, q = rec.ideal_points
            if (near(p, va) and near(q, vb)) or (near(p, vb) and near(q, va)):
                return "family"
        return "other"

    return [label(rec) for rec in maximal_disks(dom, points)]


def reference_edge_strata(dom, mesh, edge, cores):
    """The strata a measure path of one dome edge crosses, built one map
    and one circle at a time as the per-edge search built them: the two
    face cores, and the lune of the edge's two-contact disks.  With the
    edge's vertices ``ends`` at 0 and infinity (frame ``n``) each face
    circle is a line through 0, and the disk side of face k lies toward
    ``sides[k]``."""
    from types import SimpleNamespace

    from cp1graft.moebius import apply_stack, moebius_two_points
    from cp1graft.thurston import STRATA_BAND

    s = SimpleNamespace(dom=dom, mesh=mesh, edge=edge)
    s.faces = [mesh.faces[i] for i in edge.face_ids]
    s.ends = tuple(mesh.vertices[i] for i in edge.vertex_ids)
    s.n = moebius_two_points(*s.ends)
    s.ninv = s.n.inverse()
    bs = [complex(f.plane.boundary.transform(s.n).hermitian[0, 1]) for f in s.faces]
    # Line {Re(conj(B) z) = 0}; the disk side is the -B half-plane.
    s.phis = [cmath.phase(1j * b) for b in bs]
    s.sides = [-b / abs(b) for b in bs]
    s.bs = np.array(bs)
    s1, s2 = s.sides
    s.turn = (np.conj(s1) * s2).imag
    s.cores = [cores[i] for i in edge.face_ids]
    s.closed_form = (
        all(c.edges is not None for c in s.cores)
        and s.faces[0].plane.boundary.proj_distance(s.faces[1].plane.boundary) > STRATA_BAND
        and abs(s.turn) > STRATA_BAND
    )
    others = np.ones(len(dom.pairs), dtype=bool)
    others[list(edge.vertex_ids)] = False
    s.others = apply_stack(s.n, dom.pairs[others])
    s.stretch = float(np.sum(np.abs(s.n.matrix) ** 2))
    return s


def _reference_in_lune(strata, zs):
    """The lune test of one edge's strata (``reference_edge_strata``), as
    it was."""
    from cp1graft.moebius import apply_stack
    from cp1graft.thurston import STRATA_BAND, _contact_values

    band = STRATA_BAND
    w = apply_stack(strata.n, zs)
    d = w[:, 0] * np.conj(w[:, 1])
    d /= np.abs(d)
    s1, s2 = strata.sides
    ok = ((np.conj(d) * s2).imag / strata.turn > 0) & ((np.conj(s1) * d).imag / strata.turn > 0)
    apart = math.sqrt(2.0) * np.abs(-d[:, None] - strata.bs).min(axis=1) / strata.stretch
    ok &= apart > band
    hz = -2.0 * np.abs(w[:, 0] * w[:, 1])
    hp = 2.0 * (-d[:, None] * np.conj(strata.others[:, 0]) * strata.others[:, 1]).real
    return ok & (_contact_values(hz, hp, w, strata.others) < -band).all(axis=1)


def reference_strata_labels(strata, points):
    """The labels of one edge's strata (``reference_edge_strata``), as they
    were: closed-form labels where a probe is certified,
    ``reference_classify_on_path`` otherwise."""
    from cp1graft.thurston import STRATA_BAND

    out = [None] * len(points)
    if strata.closed_form:
        z = np.array(points, dtype=complex)
        zs = np.stack([z, np.ones_like(z)], axis=1) / np.sqrt(1.0 + np.abs(z) ** 2)[:, None]
        clear = strata.dom.distances(points) > STRATA_BAND
        tests = [c.certified(zs) for c in strata.cores] + [_reference_in_lune(strata, zs)]
        alone = clear & (np.sum(tests, axis=0) == 1)
        for lab, test in zip(("face1", "face2", "family"), tests):
            for i in np.flatnonzero(alone & test):
                out[i] = lab
    rest = [i for i, lab in enumerate(out) if lab is None]
    for i, lab in zip(rest, reference_classify_on_path(
            strata.dom, strata.mesh, strata.edge, [points[i] for i in rest])):
        out[i] = lab
    return out


def reference_edge_candidates(strata):
    """The candidate paths of one edge, as ``_edge_measure_paths`` yielded
    them: wedge-sweep arcs the domain contains, then the segment between
    face core points."""
    from cp1graft.moebius import DegenerateInputError, affine_stack, apply, apply_stack, as_pairs, unit_pairs
    from cp1graft.thurston import WEDGE_SAMPLES, PreconditionError

    dom, mesh, edge = strata.dom, strata.mesh, strata.edge
    f1, f2 = strata.faces
    n, ninv = strata.n, strata.n.inverse()
    phi1, phi2 = strata.phis

    def wedge_sweep(delta, r1, r2):
        best = None
        for s1 in (phi1, phi1 + math.pi):
            for s2 in (phi2, phi2 + math.pi):
                span = ((s2 - s1 + math.pi) % (2.0 * math.pi)) - math.pi
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
    try:
        c1 = reference_face_core_point(dom, f1)
        c2 = reference_face_core_point(dom, f2)
        yield [c1.as_complex(), c2.as_complex()]
    except (PreconditionError, DegenerateInputError):
        pass


def reference_single_edge_subpath(strata, path):
    """``_single_edge_subpath`` as it was: probe the candidate, walk its
    labels for (one face core) [the edge's family] (other face core) and
    trim it between the two face blocks; None when the walk fails."""
    from cp1graft.thurston import PATH_PROBES, _Polyline

    line = _Polyline(path)
    if line.total <= 0:
        return None
    targets = [line.total * k / PATH_PROBES for k in range(PATH_PROBES + 1)]
    labels = reference_strata_labels(strata, [_reference_probe_at(line, t) for t in targets])
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
                ends = [_reference_probe_at(line, t) for t in (t_a, t_b)]
                return [ends[0], *line.vertices_between(t_a, t_b), ends[1]]
    return None


def reference_edge_paths(dom, mesh, cores):
    """Reference for the lockstep path search: each edge searched alone, its
    first candidate that ``reference_single_edge_subpath`` trims, or None,
    as ``_edge_path`` did."""
    paths = []
    for edge in mesh.edges:
        strata = reference_edge_strata(dom, mesh, edge, cores)
        paths.append(next(
            (p for p in (reference_single_edge_subpath(strata, c)
                         for c in reference_edge_candidates(strata)) if p is not None),
            None))
    return paths
