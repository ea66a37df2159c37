"""The inverse direction: maximal disks, stratification, the transverse
bending measure, weight recovery, and path lifting.

Run:  python demos/05_thurston_coordinates_inverse.py
"""

import cmath
import math

import numpy as np

from cp1graft import (
    DiskComplementDomain,
    FNCoordinates,
    GraftedStructure,
    GroupWord,
    INFINITY,
    WeightedMulticurve,
    cp1,
    fuchsian_from_fn,
    limit_set_sample,
    maximal_disk_at,
    projection_psi,
    recover_weight_from_grafted,
    stratification_check,
    transverse_measure,
    verify_covering,
)

# --- maximal disks and the stratification -------------------------------

omega = cmath.exp(1j * math.pi / 3.0)
dom = DiskComplementDomain.from_ideal_points([cp1(0), cp1(1), INFINITY, cp1(omega)])

rec = maximal_disk_at(dom, cp1(0.5 + 0.45j))
print("maximal disk at 0.5+0.45j:", rec.disk.circle)
print("ideal points:", len(rec.ideal_points), "core contains query:",
      rec.core.contains(cp1(0.5 + 0.45j)))

# Points under a dome edge have two-contact disks: one-dimensional strata.
rec2 = maximal_disk_at(dom, cp1(0.5 + 0.2j))
print("at 0.5+0.2j the disk touches", len(rec2.ideal_points), "points (edge family)")

report = stratification_check(dom, [0.5 - 0.8j, 0.5 + 0.45j, 2.0 + 1.0j, 0.5 + 0.2j])
print("stratification violations:", report["violations"] or "none")

# --- the transverse measure equals the dome bending ----------------------

res = transverse_measure(dom, [0.5 - 0.8j, 0.5 + 0.45j])
print(f"\nTheta across one tetrahedron edge: {res.value:.12f} "
      f"(dihedral 2 pi / 3 = {2 * math.pi / 3:.12f})")
print("refinement trace:", [f"{v:.9f}" for v in res.trace])

# Psi projects a domain point onto the support plane of its maximal disk;
# over the half-plane this is just (a + b i) -> (a, b).
line_pts = [cp1(math.tan(math.pi * (k / 60 - 0.5))) for k in range(1, 60)]
half = DiskComplementDomain.from_ideal_points(line_pts + [INFINITY])
p = projection_psi(half, cp1(0.7 + 0.4j))
print("Psi(0.7 + 0.4i) over the half-plane:", p.z, p.t)

# --- Goldman: recovering the grafting data from the structure ------------

hol = fuchsian_from_fn(FNCoordinates((2.0, 2.5, 1.7), (0.3, -0.8, 1.1)))
for k in (1, 2):
    mc = WeightedMulticurve(((GroupWord((1,)), 2 * math.pi * k),))
    gs = GraftedStructure(hol, mc, depth=6)
    got = recover_weight_from_grafted(gs, GroupWord((1,)))
    print(f"configured 2 pi * {k}: recovered {got:.12f} "
          f"(2 pi multiple: {abs(got / (2 * math.pi) - round(got / (2 * math.pi))):.2e})")

# --- path lifting over the discontinuity domain --------------------------

mc = WeightedMulticurve(((GroupWord((1,)), 2 * math.pi),))
gs = GraftedStructure(hol, mc, depth=6)
rng = np.random.default_rng(5)
loops = []
for _ in range(5):
    c = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.7, 2.0))
    loops.append([c + 0.1 * np.exp(2j * math.pi * k / 20) for k in range(21)])
limit = DiskComplementDomain(limit_set_sample(gs.hol, 4))
cov = verify_covering(gs, loops, limit, margin=0.05)
print(f"\ncovering check: {cov['values']['lifts_tested']} lifts, "
      f"{cov['values']['closures']} closures, "
      f"violations: {cov['violations'] or 'none'}")
