"""Independent oracles: brute-force and quadrature reference computations
kept deliberately separate from the library's own code paths."""

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


def reference_word_products(level, rows, letters, gens):
    """``surface.word_products`` as it was before its flat rows: one stacked
    ``@`` per letter block, which numpy runs as one BLAS call per 2x2
    matrix."""
    from cp1graft.surface import LETTER_ORDER

    out = np.empty((len(rows), 2, 2), dtype=complex)
    for l in LETTER_ORDER:
        sel = letters == l
        out[sel] = level[rows[sel]] @ gens[l]
    return out


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
        TOL_ALG,
        TOL_GEO,
        MoebiusMap,
        _sign_stack,
        chordal_rows,
        classify,
        cp1,
        sphere_xyz,
    )
    from cp1graft.surface import LETTER_ORDER, axis, first_rows, word_children

    def element_keys(mats):
        return [m.tobytes() for m in np.round(mats, 9) + 0.0]

    def normalize(mats):
        # MoebiusMap's rule with the determinant by numpy's complex product,
        # which may differ from MoebiusMap's in the last bits.
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        mats = mats / np.sqrt(det)[:, None, None]
        return _sign_stack(mats, np.abs(mats.reshape(len(mats), 4)) > TOL_ALG)

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
        cand = normalize(reference_word_products(level, cand_from, cand_last, gens))

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
        curve=cand_curve[rows],
        conjugator=cand_element[rows],
        parent=np.concatenate(parents),
        letter=np.concatenate(letters),
    )


def reference_exterior_circle(center, radius):
    """The circle of a center and a radius with the exterior as disk side,
    from the scalar form its constructor once built,
    -[[1, -c], [-conj c, |c|^2 - r^2]]."""
    from cp1graft.moebius import OrientedCircle

    c = complex(center)
    return OrientedCircle(-np.array([[1.0, -c], [-np.conj(c), abs(c) ** 2 - radius**2]], dtype=complex))


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
    circle_norm = reference_exterior_circle(med.center, med.radius)
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
    from cp1graft.moebius import DegenerateInputError, NoIntersectionError, PointCP1, angle_between
    from cp1graft.thurston import (
        MEASURE_MAX_LEVELS,
        MEASURE_SUBDIVISION,
        MeasureResult,
        TransversalityError,
        _Polyline,
        same_disk_rows,
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
            disk_cache[key] = reference_maximal_disk(dom, PointCP1(*line.at(i / n * line.total)))
        return disk_cache[key]

    trace = []
    prev = None
    for level in range(MEASURE_MAX_LEVELS + 1):
        n = MEASURE_SUBDIVISION << level
        try:
            theta = 0.0
            for i in range(n):
                d0, d1 = disk_at(i, n), disk_at(i + 1, n)
                if same_disk_rows(d0.disk.circle.hermitian.ravel(), d1.disk.circle.hermitian.ravel()):
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


def reference_classify_on_path(dom, mesh, edge, points):
    """Reference for ``_path_labels``: path points labelled from their
    maximal disks one edge and one record at a time, the contacts compared
    with the edge's vertices by chordal distance."""
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


def reference_circle_through(p, q, r):
    """Reference for ``circle_through``: the per-triple code it was, one
    3 x 4 SVD and the orientation sample t^-1(i) of the map t sending
    (p, q, r) to (0, 1, infinity), each circle built and reversed as an
    OrientedCircle."""
    from cp1graft.moebius import (
        TOL_GEO, DegenerateInputError, OrientedCircle, PointCP1, apply, chordal_distance, cp1,
        moebius_three_points,
    )

    pts = [cp1(p), cp1(q), cp1(r)]
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal_distance(pts[i], pts[j]) < TOL_GEO:
                raise DegenerateInputError("circle_through needs pairwise distinct points")
    rows = []
    for pt in pts:
        v = pt.normalized()
        w = np.conj(v.z0) * v.z1
        rows.append([abs(v.z0) ** 2, 2.0 * w.real, -2.0 * w.imag, abs(v.z1) ** 2])
    _, _, vh = np.linalg.svd(np.array(rows, dtype=float))
    a, bre, bim, d = vh[-1]
    circle = OrientedCircle(np.array([[a, bre + 1j * bim], [bre - 1j * bim, d]], dtype=complex))
    t = moebius_three_points(*pts)
    if circle.evaluate(apply(t.inverse(), PointCP1.from_complex(1j))) > 0:
        circle = circle.reversed()
    return circle


def reference_distinct_ids(rows, close=None):
    """Reference for the leader rule of ``_distinct_ids`` and
    ``_group_by_disk``: the greedy loop, one ``close`` call per row against
    the leaders so far (``chordal_rows`` under TOL_GEO by default).  A row
    joins the first leader it is close to, else leads.  Returns a dict from
    each leader, in row order, to the rows it leads."""
    from cp1graft.moebius import TOL_GEO, chordal_rows

    if close is None:
        def close(a, b):
            return chordal_rows(a, b) < TOL_GEO
    groups = {}
    for i in range(len(rows)):
        leaders = list(groups)
        near = np.flatnonzero(close(rows[leaders], rows[i]))
        groups.setdefault(leaders[near[0]] if len(near) else i, []).append(i)
    return groups


def reference_dome(ideal_points):
    """Reference for ``dome``: its per-face path as it was, each face's
    circle by ``reference_circle_through`` through the widest triple, then
    reversed if the outward cap point (the scalar back-projection of the
    outward normal) lies off its disk side.  The hull and the merge are
    the library's."""
    from cp1graft.hyperbolic import (
        TOL_HULL, DomeEdge, DomeFace, DomeMesh, PlaneH3, _angular_order, _fit_plane,
        _incremental_hull, _merge_coplanar, _widest_triple,
    )
    from cp1graft.moebius import (
        DegenerateInputError, PointCP1, angle_between, as_pairs, sphere_xyz,
    )

    rows = as_pairs(ideal_points)
    xs = sphere_xyz(rows)
    uniq = list(reference_distinct_ids(xs))
    if len(uniq) < 3:
        raise DegenerateInputError("dome needs at least 3 distinct ideal points")
    pts, xs = [PointCP1(z0, z1) for z0, z1 in rows[uniq].tolist()], xs[uniq]

    def cap_point(outward):
        """Back-projection of the outward unit normal: a point in the outward cap."""
        x, y, u = outward / np.linalg.norm(outward)
        if u > 1.0 - 1e-12:
            return PointCP1.infinity()
        return PointCP1.from_complex(complex(x, y) / (1.0 - u))

    def face(vids, outward):
        circ = reference_circle_through(*(pts[i] for i in _widest_triple(xs, vids)))
        if circ.evaluate(cap_point(outward)) > 0:
            circ = circ.reversed()
        return DomeFace(tuple(vids), PlaneH3(circ))

    n, h = _fit_plane(xs)
    tris = None if 24.0 * np.max(np.abs(xs @ n - h)) < TOL_HULL / 2.0 else _incremental_hull(xs)
    if tris is None:
        return DomeMesh(tuple(pts), (face(_angular_order(xs, list(range(len(pts))), n), n),), ())
    hull_centroid = np.mean(xs, axis=0)
    faces = [face(vids, n if np.dot(n, xs[vids[0]] - hull_centroid) > 0 else -n)
             for vids, n in _merge_coplanar(xs, tris)]
    pair_faces = {}
    for fi, f in enumerate(faces):
        vids = f.vertex_ids
        for e in {(min(a, b), max(a, b)) for a, b in zip(vids, vids[1:] + vids[:1])}:
            pair_faces.setdefault(e, []).append(fi)
    edges = tuple(
        DomeEdge((a, b), tuple(fids), angle_between(faces[fids[0]].plane.boundary,
                                                    faces[fids[1]].plane.boundary))
        for (a, b), fids in sorted(pair_faces.items()) if len(fids) == 2
    )
    return DomeMesh(tuple(pts), tuple(faces), edges)
