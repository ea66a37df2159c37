"""Genus-2 Fuchsian holonomy from Fenchel-Nielsen data, with limit-set
sampling and a convergence diagnostic.

Run:  python demos/03_fuchsian_surface_and_limit_set.py
"""

from cp1graft import FNCoordinates, GroupWord, fuchsian_from_fn, limit_set_sample
from cp1graft.moebius import affine_rows, chordal_rows, sphere_xyz
from cp1graft.surface import cuff_length_from_trace, jorgensen_flags

fn = FNCoordinates(lengths=(2.0, 2.5, 1.7), twists=(0.3, -0.8, 1.1))
hol = fuchsian_from_fn(fn)

print("surface relation residual:", hol.relation_residual())
print("generator matrices are real: max |Im| =", hol.max_imag_entry())
for word, want in zip(hol.cuff_words, fn.lengths):
    got = cuff_length_from_trace(hol.rho(word))
    print(f"cuff {word}: length {got:.12f} (configured {want})")

# Discreteness heuristic (reported, never asserted).
pairs = [(GroupWord((1,)), GroupWord((2,))), (GroupWord((3,)), GroupWord((4,)))]
print("Jorgensen flags:", jorgensen_flags(hol, pairs) or "none")

# Limit-set samples are attracting fixed points of group elements, as rows
# (z0, z1) of homogeneous pairs; for a Fuchsian group they fill out the
# round circle R u {inf}.
for depth in (2, 3, 4, 5):
    pts = limit_set_sample(hol, depth)
    z, at_inf = affine_rows(pts)
    finite = z.real[~at_inf]
    print(f"depth {depth}: {len(pts)} samples, spread "
          f"[{finite.min():.2f}, {finite.max():.2f}]")

# Hausdorff-distance diagnostic between consecutive depths: the gap shrinks
# as the sample fills the circle (a convergence indicator, not a theorem).
# Sphere coordinates come from the pair-array kernel, row by row the bits
# of PointCP1.sphere_coords, and chordal_rows is chordal_distance's formula.
def hausdorff(a, b):
    xa, xb = sphere_xyz(a), sphere_xyz(b)
    d_ab = max(chordal_rows(xb, x).min() for x in xa)
    d_ba = max(chordal_rows(xa, x).min() for x in xb)
    return max(d_ab, d_ba)

prev = None
for depth in (2, 3, 4, 5):
    pts = limit_set_sample(hol, depth)
    if prev is not None:
        print(f"Hausdorff(depth {depth - 1}, depth {depth}) = "
              f"{hausdorff(prev, pts):.4f}")
    prev = pts
