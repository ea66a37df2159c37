"""Output checks for the benchmark workloads.

Each ``check_*`` takes the plain data an operation produced (numbers and
numpy arrays, never library objects) and returns a list of failure
messages; an empty list means the output is correct.  Every check compares
against geometry computed here, apart from the library, or against a
property the method must have -- never against stored output.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Shared geometry, written independently of cp1graft


def sl2(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return m / cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def proj_distance(a, b) -> float:
    """Frobenius distance in PSL(2,C), minimised over the sign."""
    a, b = sl2(a), sl2(b)
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def relation_residual(gens) -> float:
    """Distance of [a1,b1][a2,b2] from the identity."""
    a1, b1, a2, b2 = (sl2(g) for g in gens)
    inv = np.linalg.inv
    word = a1 @ b1 @ inv(a1) @ inv(b1) @ a2 @ b2 @ inv(a2) @ inv(b2)
    return proj_distance(word, np.eye(2))


def two_pi_defect(weight: float) -> float:
    k = weight / TWO_PI
    return abs(k - round(k)) * TWO_PI


def chordal(p, q) -> float:
    """Chordal distance on the unit sphere between homogeneous points."""
    (p0, p1), (q0, q1) = p, q
    num = 2.0 * abs(p0 * q1 - p1 * q0)
    return num / (math.hypot(abs(p0), abs(p1)) * math.hypot(abs(q0), abs(q1)))


def moebius_on_h3(m, point):
    """Action on upper half-space by the quaternion formula; point = (z, t)."""
    (a, b), (c, d) = sl2(m)
    z, t = point
    den = abs(c * z + d) ** 2 + abs(c) ** 2 * t * t
    znew = ((a * z + b) * np.conj(c * z + d) + a * np.conj(c) * t * t) / den
    return complex(znew), float(t / den)


def h3_gap(p, q) -> float:
    return float(math.sqrt(abs(p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2))


def project_to_plane(m, w):
    """Nearest-point projection of the ideal point w (homogeneous) onto the
    image under m of the vertical half-plane over the real axis."""
    (a, b), (c, d) = sl2(m)
    minv = np.array([[d, -b], [-c, a]])
    # The real line is {v : v* H0 v = 0}; its image has form minv* H0 minv.
    h = minv.conj().T @ np.array([[0.0, 1j], [-1j, 0.0]]) @ minv
    big_a, big_b, big_d = h[0, 0].real, complex(h[0, 1]), h[1, 1].real
    w = w[0] / w[1]
    if abs(big_a) < 1e-12 * abs(big_b):
        # A vertical plane over the line Re(conj(B) z) = -D / 2.
        u = big_b / abs(big_b)
        offset = (np.conj(u) * w).real + big_d / (2.0 * abs(big_b))
        return complex(w - offset * u), float(abs(offset))
    centre = -big_b / big_a
    radius = math.sqrt(abs(big_b) ** 2 - big_a * big_d) / abs(big_a)
    s = abs(w - centre)
    if s < 1e-15:
        return complex(centre), float(radius)
    x = 2.0 * radius * radius * s / (s * s + radius * radius)
    t = math.sqrt(max(radius * radius - x * x, 0.0))
    return complex(centre + x * (w - centre) / s), float(t)


def sphere_point(p) -> np.ndarray:
    """Unit-sphere image of a homogeneous point."""
    z0, z1 = p
    n = abs(z0) ** 2 + abs(z1) ** 2
    w = 2.0 * z0 * np.conj(z1)
    return np.array([w.real / n, w.imag / n, (abs(z0) ** 2 - abs(z1) ** 2) / n])


def dihedral_from_normals(face1, face2, xs) -> float:
    """Exterior dihedral angle of two hull faces (vertex id lists) from the
    outward normals of their Euclidean planes, through the Minkowski
    pairing (n1.n2 - h1 h2) / sqrt((1 - h1^2)(1 - h2^2))."""
    hull_centroid = xs.mean(axis=0)

    def plane(ids):
        pts = xs[list(ids)]
        centroid = pts.mean(axis=0)
        n = np.linalg.svd(pts - centroid)[2][-1]
        h = float(np.dot(n, centroid))
        if np.dot(n, pts[0] - hull_centroid) < 0:
            n, h = -n, -h
        return n, h

    (n1, h1), (n2, h2) = plane(face1), plane(face2)
    val = (np.dot(n1, n2) - h1 * h2) / math.sqrt((1 - h1 * h1) * (1 - h2 * h2))
    return math.acos(max(-1.0, min(1.0, val)))


def hemisphere_fit(points):
    """Fit A|x|^2 + B x + C y + D = 0 (a plane orthogonal to the boundary)
    through upper half-space points; returns (coefficients, residual)."""
    pts = np.asarray(points, dtype=float)
    rows = np.column_stack([
        (pts ** 2).sum(axis=1), pts[:, 0], pts[:, 1], np.ones(len(pts)),
    ])
    scale = np.linalg.norm(rows, axis=1, keepdims=True)
    _, sv, vh = np.linalg.svd(rows / scale)
    return vh[-1], float(sv[-1])


def plane_angle(s1, s2) -> float:
    """Unoriented angle in [0, pi/2] between two planes given as
    hemisphere coefficients (A, B, C, D)."""
    def pair(u, v):
        return (u[1] * v[1] + u[2] * v[2]) / 4.0 - (u[0] * v[3] + v[0] * u[3]) / 2.0

    cos = pair(s1, s2) / math.sqrt(pair(s1, s1) * pair(s2, s2))
    return math.acos(min(1.0, abs(cos)))


def folded_angle(weight: float) -> float:
    """Unoriented angle between two planes bent by the given weight."""
    g = weight % math.pi
    return min(g, math.pi - g)


# ---------------------------------------------------------------------------
# holonomy


def check_holonomy(weights, out) -> list:
    """out: {"base": [4 matrices], "deformed": [4 matrices]}."""
    fails = []
    base, deformed = out["base"], out["deformed"]
    moved = max(proj_distance(a, b) for a, b in zip(base, deformed))
    if all(two_pi_defect(w) < 1e-9 for w in weights):
        if moved > 1e-9:
            fails.append(f"2pi grafting moved a generator by {moved:.3e} (tol 1e-9)")
    else:
        if moved <= 1e-3:
            fails.append(f"weight outside 2piZ moved no generator past 1e-3 ({moved:.3e})")
    residual = relation_residual(deformed)
    if not residual <= 1e-9:
        fails.append(f"rho' relation residual {residual:.3e} (tol 1e-9)")
    return fails


# ---------------------------------------------------------------------------
# develop


def check_develop(out) -> list:
    """out: develop (homogeneous f(z)), bending (matrix), beta ((z, t) of
    beta(z)), beta_translate (beta(gamma z)), rho_gamma (rho'(gamma)),
    lift (homogeneous endpoint of the detour lift)."""
    fails = []
    psi = project_to_plane(out["bending"], out["develop"])
    gap = h3_gap(psi, out["beta"])
    if not gap <= 1e-6:
        fails.append(f"|Psi(f(z)) - beta(z)| = {gap:.3e} (tol 1e-6)")
    moved = moebius_on_h3(out["rho_gamma"], out["beta"])
    gap = h3_gap(moved, out["beta_translate"])
    if not gap <= 1e-7:
        fails.append(f"|beta(gamma z) - rho'(gamma) beta(z)| = {gap:.3e} (tol 1e-7)")
    gap = chordal(out["lift"], out["develop"])
    if not gap <= 1e-9:
        fails.append(f"detour lift and develop differ by {gap:.3e} chordal (tol 1e-9)")
    return fails


# ---------------------------------------------------------------------------
# domain


def check_dome_measure(out) -> list:
    """out: points (homogeneous), faces (vertex id lists), edges
    ((a, b, face1, face2) per edge), theta (measure per edge), violations."""
    fails = []
    if out["violations"]:
        fails.append(f"dome-measure report has {out['violations']} violations")
    xs = np.array([sphere_point(p) for p in out["points"]])
    faces = out["faces"]
    dihedral = [dihedral_from_normals(faces[f1], faces[f2], xs)
                for _, _, f1, f2 in out["edges"]]
    for e, (theta, angle) in enumerate(zip(out["theta"], dihedral)):
        if not abs(theta - angle) <= 1e-5:
            fails.append(f"edge {e}: measure {theta:.9f} vs dihedral {angle:.9f} (tol 1e-5)")
    sums = np.zeros(len(xs))
    for (a, b, _, _), angle in zip(out["edges"], dihedral):
        sums[a] += angle
        sums[b] += angle
    worst = float(np.max(np.abs(sums - TWO_PI)))
    if not worst <= 1e-8:
        fails.append(f"Rivin: vertex angle sum off 2pi by {worst:.3e} (tol 1e-8)")
    return fails


def check_stratification(out) -> list:
    """out: violations, failed_checks, complement (homogeneous points), and
    disks: (query, hermitian) pairs for sampled maximal disks."""
    fails = []
    if out["violations"] or out["failed_checks"]:
        fails.append(f"stratification report: {out['violations']} violations, "
                     f"failed checks {out['failed_checks']}")
    comp = [np.array(p, dtype=complex) / math.hypot(abs(p[0]), abs(p[1]))
            for p in out["complement"]]
    for k, (query, h) in enumerate(out["disks"]):
        h = np.asarray(h, dtype=complex)
        tol = 1e-6 * float(np.linalg.norm(h))
        q = np.array(query, dtype=complex) / math.hypot(abs(query[0]), abs(query[1]))
        if not float((np.conj(q) @ h @ q).real) < -tol:
            fails.append(f"disk {k} does not contain its query point")
        values = [float((np.conj(v) @ h @ v).real) for v in comp]
        if min(values) < -tol:
            fails.append(f"disk {k} contains a complement point")
        on_circle = sum(abs(v) <= tol for v in values)
        if on_circle < 2:
            fails.append(f"disk {k} has {on_circle} complement points on its circle")
    return fails


# ---------------------------------------------------------------------------
# cli


def check_cli(spec, out, reference=None) -> list:
    """spec: the command's argv head and its config.  out: exit code and the
    files written, as {name: bytes}.  reference: the same files from the
    warm-up pass, which must match byte for byte."""
    fails = []
    if out["exit"] != 0:
        fails.append(f"{' '.join(spec['argv'])} exited {out['exit']}")
    files = out["files"]
    if not files:
        fails.append("command wrote no files")
    if reference is not None and files != reference:
        fails.append("outputs differ from the warm-up pass")
    weights = spec["weights"]
    two_pi = bool(weights) and all(two_pi_defect(w) < 1e-9 for w in weights)
    for name, data in files.items():
        if name.endswith("_report.json"):
            report = json.loads(data)
            if report["violations"]:
                fails.append(f"{name}: {len(report['violations'])} violations")
            if name == "covering_report.json":
                vals = report["values"]
                if not (vals["closures"] == vals["lifts_tested"] and vals["lifts_tested"] > 0):
                    fails.append(f"covering closures {vals['closures']} vs lifts "
                                 f"{vals['lifts_tested']}")
        elif name == "limitset.csv":
            fails += _check_limitset(data)
        elif name == "holonomy.csv" and two_pi:
            fails += _check_holonomy_csv(data)
        elif name == "pleat.json":
            fails += _check_pleat(json.loads(data), weights)
    return fails


def _check_limitset(data: bytes) -> list:
    rows = data.decode().strip().split("\n")[1:]
    worst = 0.0
    for row in rows:
        re, im = (float(v) for v in row.split(","))
        if math.isfinite(re):
            worst = max(worst, abs(im) / max(1.0, abs(re)))
    if not rows or not worst <= 1e-9:
        return [f"limit set leaves the real line by {worst:.3e} (tol 1e-9)"]
    return []


def _check_holonomy_csv(data: bytes) -> list:
    rows = data.decode().strip().split("\n")[1:]
    worst = 0.0
    for row in rows:
        cols = row.split(",")
        tr = complex(float(cols[9]), float(cols[10]))
        worst = max(worst, abs(tr.imag) / max(1.0, abs(tr.real)))
    if not rows or not worst <= 1e-9:
        return [f"2pi holonomy trace has imaginary part {worst:.3e} (tol 1e-9)"]
    return []


def _check_pleat(doc, weights) -> list:
    fails = []
    verts = doc["vertices"]
    planes = {}
    for fid, ids in enumerate(doc["faces"]):
        if len(ids) >= 3:
            coeffs, residual = hemisphere_fit([verts[i] for i in ids])
            if residual > 1e-9:
                fails.append(f"pleat face {fid} is not planar (residual {residual:.3e})")
            planes[fid] = coeffs
    checked = 0
    for e, edge in enumerate(doc["edges"]):
        w = edge["weight"]
        if min(abs(w - c) for c in weights) > 1e-12:
            fails.append(f"pleat edge {e} weight {w} is not a configured weight")
        f1, f2 = edge["faces"]
        if f1 in planes and f2 in planes:
            angle = plane_angle(planes[f1], planes[f2])
            if not abs(angle - folded_angle(w)) <= 1e-5:
                fails.append(f"pleat edge {e}: face angle {angle:.9f} vs weight "
                             f"{folded_angle(w):.9f} (tol 1e-5)")
            checked += 1
    if doc["edges"] and not checked:
        fails.append("no pleat edge had two planar faces to compare")
    return fails
