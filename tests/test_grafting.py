import cmath
import math
import tracemalloc

import numpy as np
import pytest

from cp1graft.moebius import TOL_GEO, DegenerateInputError, MoebiusMap, apply, chordal_distance, cp1
from cp1graft.hyperbolic import apply_isometry, nearest_point_projection, PlaneH3, OrientedCircle
from cp1graft.surface import FNCoordinates, GroupWord, axis, fuchsian_from_fn
from cp1graft.grafting import (
    GraftedStructure,
    InvalidMulticurveError,
    LiftedLeaf,
    PerturbInputError,
    PleatedEdge,
    PleatedFace,
    WeightedMulticurve,
    _hyperbolic_circle_euclidean,
    _leaf_truncation_chord,
    _real_normalizer,
    _segment_frame,
    _side_values,
    bending_product,
    check_multicurve,
    develop_and_lift,
    distance_to_leaf,
    element_keys,
    embed_h3,
    enumerate_leaf_lifts,
    first_linked_pair,
    hyperbolic_distance_uhp,
    leaf_intervals,
    lift_crossings,
    pleated_surface,
    segment_focus,
    uhp_geodesic_point,
)
from oracles import first_linked_pair_matrix, segment_crossing_count

TWO_PI = 2.0 * math.pi

# The three cuffs a1, a1^-1 b2, b2^-1 of the pants decomposition.
CUFF_MULTICURVE = WeightedMulticurve(
    ((GroupWord((1,)), 1.0), (GroupWord((-1, 4)), 2.0), (GroupWord((-4,)), 0.5))
)
# FN instances 0 and 2 of the acceptance suite.
SEGMENT_INSTANCES = (
    FNCoordinates((2.0, 2.5, 1.7), (0.3, -0.8, 1.1)),
    FNCoordinates((2.8, 1.4, 2.1), (-0.5, 0.9, 0.2)),
)


# ---------------------------------------------------------------------------
# multicurves and crossings


def test_cuff_multicurve_valid(holonomy):
    check_multicurve(holonomy, CUFF_MULTICURVE, depth=4)  # should not raise


# a1 (cuff 1) and the seam word b1 intersect on the surface.
CROSSING_MULTICURVE = WeightedMulticurve(((GroupWord((1,)), 1.0), (GroupWord((2,)), 1.0)))


def test_crossing_curves_rejected(holonomy):
    with pytest.raises(
        InvalidMulticurveError, match=r"^leaf lifts intersect: BcD\*curve0 crosses BcD\*curve1$"
    ):
        check_multicurve(holonomy, CROSSING_MULTICURVE, depth=3)


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("curves", [1, 2, 3, "crossing"])
def test_first_linked_pair_matches_matrix_on_leaf_sets(holonomy, curves, depth):
    if curves == "crossing":
        mc = CROSSING_MULTICURVE
    else:
        mc = WeightedMulticurve(CUFF_MULTICURVE.entries[:curves])
    # The leaves and intervals check_multicurve tests.
    leaves = enumerate_leaf_lifts(holonomy, mc, depth, focus=[holonomy.basepoint], margin=8.0)
    lo, hi = leaf_intervals(leaves.real_ends)
    want = first_linked_pair_matrix(lo, hi)
    assert (want is not None) == (curves == "crossing")
    assert first_linked_pair(lo, hi) == want


def _laminar_family(rng, n):
    """n intervals on distinct random endpoints, nested or disjoint, in
    random row order: a random balanced bracket sequence."""
    ends = np.sort(rng.random(2 * n))
    lo, hi = np.empty(n), np.empty(n)
    opened, stack = 0, []
    for x in ends:
        if opened < n and (not stack or rng.random() < 0.5):
            lo[opened] = x
            stack.append(opened)
            opened += 1
        else:
            hi[stack.pop()] = x
    order = rng.permutation(n)
    return lo[order], hi[order]


def test_first_linked_pair_matches_matrix_on_planted_crossings():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(2, 80))
        lo, hi = _laminar_family(rng, n)
        assert first_linked_pair(lo, hi) is None
        assert first_linked_pair_matrix(lo, hi) is None
        # One more interval from inside interval i to beyond every endpoint.
        i = int(rng.integers(n))
        at = int(rng.integers(n + 1))
        lo = np.insert(lo, at, lo[i] + (hi[i] - lo[i]) * rng.uniform(0.01, 0.99))
        hi = np.insert(hi, at, 1.0 + rng.random())
        want = first_linked_pair_matrix(lo, hi)
        assert want is not None
        assert first_linked_pair(lo, hi) == want


TIED_FAMILIES = {
    # Nested with a shared lower endpoint: the outer one links the inner.
    "shared-lower": ([0.1, 0.1], [0.5, 0.3], (0, 1)),
    "shared-upper": ([0.1, 0.3], [0.5, 0.5], (0, 1)),
    # Disjoint, touching at one endpoint: not linked either way.
    "touching": ([0.1, 0.3], [0.3, 0.5], None),
    # Only linked[1, 0] holds, which the rule does not read.
    "reverse-only": ([0.1, 0.1], [0.3, 0.5], None),
    "reverse-only-late": ([0.0, 0.2, 0.6, 0.2], [0.9, 0.4, 0.7, 0.8], None),
    "shared-lower-late": ([0.6, 0.2, 0.0, 0.2], [0.7, 0.8, 0.9, 0.4], (1, 3)),
    "all-equal": ([0.2, 0.2, 0.2], [0.7, 0.7, 0.7], None),
}


@pytest.mark.parametrize("name", sorted(TIED_FAMILIES))
def test_first_linked_pair_tie_rule(name):
    lo, hi, want = TIED_FAMILIES[name]
    lo, hi = np.array(lo), np.array(hi)
    assert first_linked_pair_matrix(lo, hi) == want
    assert first_linked_pair(lo, hi) == want


@pytest.mark.parametrize("finite, want", [([1.0, 2.0], None), ([2.0, 1.0], (0, 1))])
def test_leaves_through_infinity_share_endpoint_zero(finite, want):
    # Both leaves end at infinity, which leaf_intervals sends to 0.0.
    lo, hi = leaf_intervals(np.array([[np.nan, finite[0]], [finite[1], np.nan]]))
    assert lo.tolist() == [0.0, 0.0]
    assert first_linked_pair_matrix(lo, hi) == want
    assert first_linked_pair(lo, hi) == want


def test_first_linked_pair_random_ties():
    rng = np.random.default_rng(7)
    found = 0
    for _ in range(300):
        n = int(rng.integers(1, 40))
        ends = np.sort(rng.integers(0, 12, size=(n, 2)) / 12.0, axis=1)
        lo, hi = ends[:, 0], ends[:, 1]
        want = first_linked_pair_matrix(lo, hi)
        assert first_linked_pair(lo, hi) == want
        found += want is not None
    assert 0 < found < 300


def test_check_multicurve_memory_stays_at_enumeration_scale(holonomy):
    # The three-cuff depth-4 set has 3,488 leaves: one L x L boolean matrix
    # takes 12 MB, against a 2.8 MB peak for the enumeration.
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    x0 = holonomy.basepoint
    enumeration = peak(lambda: enumerate_leaf_lifts(
        holonomy, CUFF_MULTICURVE, 4, focus=[x0], margin=8.0))
    check = peak(lambda: check_multicurve(holonomy, CUFF_MULTICURVE, depth=4))
    assert check <= 2 * enumeration, (check, enumeration)


def test_lift_crossings_empty_in_stratum(two_pi_structure):
    gs = GraftedStructure(two_pi_structure.hol, two_pi_structure.multicurve, depth=4)
    assert gs.crossings([0.05 + 0.9j, 0.1 + 1.05j]) == []


def test_lift_crossings_reversed_segment(two_pi_structure):
    gs = GraftedStructure(two_pi_structure.hol, two_pi_structure.multicurve, depth=5)
    p, q = -0.4 + 0.8j, 0.9 + 1.4j
    fwd = gs.crossings([p, q])
    bwd = gs.crossings([q, p])
    assert len(fwd) == len(bwd)
    assert [c.leaf.key() for c in fwd] == [c.leaf.key() for c in reversed(bwd)]
    assert [c.sign for c in fwd] == [-c.sign for c in reversed(bwd)]


def _oracle_crossings(hol, mc, p, q, depth):
    mats = {l: hol.generator(l).matrix for l in (1, -1, 2, -2, 3, -3, 4, -4)}
    return segment_crossing_count(
        mats, [hol.rho(word).matrix for word in mc.words], p, q, depth=depth
    )


def _oracle_segments(holonomy):
    """(hol, multicurve, p, q): one segment for the cuff-1 curve, then the
    four generator segments [x0, g x0] of the bending cocycle, for the
    three-cuff multicurve on two FN instances."""
    yield holonomy, WeightedMulticurve(((GroupWord((1,)), 1.0),)), -0.6 + 0.7j, 1.2 + 1.1j
    for fn in SEGMENT_INSTANCES:
        hol = fuchsian_from_fn(fn)
        x0 = GraftedStructure(hol, CUFF_MULTICURVE, depth=4).basepoint
        for g in hol.generators:
            yield hol, CUFF_MULTICURVE, x0, g(x0)


def test_lift_crossings_count_vs_oracle(holonomy):
    for hol, mc, p, q in _oracle_segments(holonomy):
        got = len(GraftedStructure(hol, mc, depth=4).crossings([p, q]))
        want = _oracle_crossings(hol, mc, p, q, 4)
        assert got == want, (p, q, got, want)


def _bisection_crossings(leaves, p, q):
    """Reference for lift_crossings: the side test on each leaf's circle, a
    60-step bisection of the side value along the segment, and the sign of
    the attracting endpoint in the segment's frame."""
    frame = _segment_frame(p, q)
    out = []
    for leaf in leaves:
        flo = leaf.circle.evaluate(cp1(p))
        if not flo * leaf.circle.evaluate(cp1(q)) < 0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            fm = leaf.circle.evaluate(cp1(uhp_geodesic_point(p, q, mid)))
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        att = apply(frame, leaf.geodesic.q)
        sign = 1 if att.is_infinity or att.as_complex().real > 0 else -1
        out.append((leaf.key(), sign, (lo + hi) / 2.0))
    return sorted(out, key=lambda c: c[2])


def test_lift_crossings_closed_form_matches_bisection(holonomy):
    total = 0
    for hol, mc, p, q in _oracle_segments(holonomy):
        table = GraftedStructure(hol, mc, depth=4).leaves_near(segment_focus([p, q]))
        got = lift_crossings(p, q, leaves=table)
        want = _bisection_crossings(table, p, q)
        assert [(c.leaf.key(), c.sign) for c in got] == [w[:2] for w in want]
        for c, w in zip(got, want):
            assert abs(c.parameter - w[2]) <= 1e-11
        total += len(got)
    assert total >= 9  # nine crossings over the oracle segments


def test_leaf_table_keys_and_conjugators(holonomy):
    table = enumerate_leaf_lifts(
        holonomy, CUFF_MULTICURVE, 4, focus=[holonomy.basepoint, 0.5 + 2.0j]
    )
    keys = [leaf.key() for leaf in table]
    assert len(keys) > 100
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    base = [axis(holonomy.rho(word)) for word in CUFF_MULTICURVE.words]
    for leaf in table:
        moved = base[leaf.curve_index].transform(holonomy.rho(leaf.conjugator))
        assert chordal_distance(moved.p, leaf.geodesic.p) < 1e-9
        assert chordal_distance(moved.q, leaf.geodesic.q) < 1e-9
        assert leaf.weight == CUFF_MULTICURVE.weights[leaf.curve_index]


def _per_object_leaf_lifts(hol, mc, depth, focus, margin=4.0):
    """Reference for enumerate_leaf_lifts: the BFS one MoebiusMap at a time
    and one LiftedLeaf per candidate lift, deduplicated and sorted by key."""
    x0 = hol.basepoint
    base_axes = [axis(hol.rho(word)) for word in mc.words]
    half = [math.acosh(math.sqrt(max(hol.rho(w).trace_squared().real, 4.0)) / 2.0)
            for w in mc.words]
    radius = max(distance_to_leaf(x0, g) for g in base_axes) + max(half) + margin
    targets = [x0] + list(focus)
    seen = set(element_keys(MoebiusMap.identity().matrix[None]))
    frontier = elements = [(MoebiusMap.identity(), GroupWord(()))]
    for _ in range(depth):
        nxt = []
        for m, word in frontier:
            for l in (1, -1, 2, -2, 3, -3, 4, -4):
                if word.letters and word.letters[-1] == -l:
                    continue
                m2 = m @ hol.generator(l)
                (key,) = element_keys(m2.matrix[None])
                if key in seen:
                    continue
                if min(hyperbolic_distance_uhp(m2(x0), f) for f in targets) > radius:
                    continue
                seen.add(key)
                nxt.append((m2, GroupWord(word.letters + (l,))))
        elements = elements + nxt
        frontier = nxt
    leaves, seen_axes = [], set()
    for m, word in elements:
        for i, (g, weight) in enumerate(zip(base_axes, mc.weights)):
            try:
                leaf = LiftedLeaf(g.transform(m), weight, i, word)
                leaf.circle  # noqa: B018 -- degenerate lifts are dropped
            except DegenerateInputError:
                continue
            if leaf.key() not in seen_axes:
                seen_axes.add(leaf.key())
                leaves.append(leaf)
    return sorted(leaves, key=LiftedLeaf.key)


def test_leaf_table_matches_per_object_reference(holonomy):
    single = WeightedMulticurve(((GroupWord((1,)), 1.0),))
    other = fuchsian_from_fn(SEGMENT_INSTANCES[1])
    for hol, mc, depth in ((holonomy, single, 6), (other, CUFF_MULTICURVE, 4)):
        focus = [hol.basepoint] + [g(hol.basepoint) for g in hol.generators]
        table = enumerate_leaf_lifts(hol, mc, depth, focus=focus)
        want = _per_object_leaf_lifts(hol, mc, depth, focus)
        assert len(table) == len(want)
        for got, ref in zip(table, want):
            assert got.key() == ref.key()
            assert got.conjugator == ref.conjugator
            assert (got.curve_index, got.weight) == (ref.curve_index, ref.weight)
            bits = [np.array([g.p.z0, g.p.z1, g.q.z0, g.q.z1]).tobytes()
                    for g in (got.geodesic, ref.geodesic)]
            assert bits[0] == bits[1]


def test_element_key_folds_signed_zero():
    plus = np.array([[[1.0, 4e-12], [0.0, 1.0]]], dtype=complex)
    minus = np.array([[[1.0, -4e-12], [0.0, 1.0]]], dtype=complex)
    # Rounding leaves 0.0 in one and -0.0 in the other.
    assert plus.round(9).tobytes() != minus.round(9).tobytes()
    assert element_keys(plus) == element_keys(minus)


def test_endpoint_on_leaf_perturbation(holonomy):
    # The basepoint i lies on the cuff-1 axis (0, infinity).
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.0),)), depth=3)
    with pytest.raises(PerturbInputError) as err:
        gs.crossings([1j, 0.5 + 1j])
    offset = err.value.suggested_offset
    assert 0 < abs(offset) < 1e-2
    # Near the axis: the guard holds within TOL_GEO and lets go beyond it.
    leaf = axis(holonomy.rho(GroupWord((1,))))
    near = complex(math.sinh(0.5 * TOL_GEO), 1.0)
    assert distance_to_leaf(near, leaf) == pytest.approx(0.5 * TOL_GEO, rel=1e-6)
    with pytest.raises(PerturbInputError):
        gs.crossings([near, 0.5 + 1j])
    clear = complex(math.sinh(10 * TOL_GEO), 1.0)
    assert distance_to_leaf(clear, leaf) == pytest.approx(10 * TOL_GEO, rel=1e-6)
    assert gs.crossings([clear, 0.5 + 1j]) == []


def test_endpoint_on_leaf_far_from_basepoint(holonomy):
    # i e^10 lies on the cuff-1 axis at hyperbolic distance 10 from the
    # basepoint, where a Euclidean step of 1e-4 is 5e-9 hyperbolic.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.3),)), depth=8)
    z = complex(0.0, math.exp(10.0))
    with pytest.raises(PerturbInputError) as err:
        gs.crossings_to(z)
    leaves = gs.leaves_near(segment_focus([gs.basepoint, z]))
    assert np.all(leaves.distances(z + err.value.suggested_offset) > 10 * TOL_GEO)


# ---------------------------------------------------------------------------
# grafted holonomy


def test_two_pi_weights_preserve_holonomy(holonomy, two_pi_structure):
    rp = two_pi_structure.rho_prime
    for before, after in zip(holonomy.generators, rp.generators):
        assert after.proj_distance(before) < 1e-9


def test_four_pi_weights_preserve_holonomy(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), 2 * TWO_PI),))
    rp = GraftedStructure(holonomy, mc, depth=6).rho_prime
    for before, after in zip(holonomy.generators, rp.generators):
        assert after.proj_distance(before) < 1e-9


def test_zero_weight_is_exact_identity(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), 0.0),))
    rp = GraftedStructure(holonomy, mc, depth=5).rho_prime
    for before, after in zip(holonomy.generators, rp.generators):
        assert np.array_equal(before.matrix, after.matrix)


def test_grafted_trace_of_curve_preserved(holonomy, half_pi_structure):
    word = GroupWord((1,))
    before = holonomy.rho(word).trace_squared()
    after = half_pi_structure.rho_prime.rho(word).trace_squared()
    assert abs(before - after) < 1e-9


def test_grafted_relation_preserved(half_pi_structure):
    assert half_pi_structure.rho_prime.relation_residual() < 1e-8


def test_cocycle_consistency(holonomy, half_pi_structure):
    # rho'(uv) = rho'(u) rho'(v) when rho' is computed per generator, and
    # the direct cocycle evaluation of a word agrees with the product.
    gs = half_pi_structure
    rp = gs.rho_prime
    from cp1graft.hyperbolic import rotation_about_geodesic

    for word in (GroupWord((1, 2)), GroupWord((2, -1)), GroupWord((3, 2))):
        x0 = gs.basepoint
        target = holonomy.rho(word)(x0)
        crossings = gs.crossings([x0, target])
        b = MoebiusMap.identity()
        for crossing in crossings:
            b = b @ rotation_about_geodesic(
                crossing.leaf.geodesic, crossing.rotation_angle
            )
        direct = b @ holonomy.rho(word)
        assert direct.proj_distance(rp.rho(word)) < 1e-8


def test_cocycle_basepoint_independence(holonomy):
    # Deformations computed from two different basepoints are conjugate by a
    # single Moebius map; conjugate representations share all tr^2 values,
    # which determine the representation up to conjugacy.
    mc = WeightedMulticurve(((GroupWord((1,)), math.pi / 2.0),))
    gs1 = GraftedStructure(holonomy, mc, depth=6)
    rp1 = gs1.rho_prime
    hol2 = fuchsian_from_fn(holonomy.fn)
    object.__setattr__(hol2, "basepoint", 0.4 + 1.7j)
    gs2 = GraftedStructure(hol2, mc, depth=6)
    rp2 = gs2.rho_prime
    from cp1graft.surface import enumerate_words

    for word in enumerate_words(2):
        t1 = rp1.rho(word).trace_squared()
        t2 = rp2.rho(word).trace_squared()
        assert abs(t1 - t2) < 1e-8 * max(1.0, abs(t1))


# ---------------------------------------------------------------------------
# pleated surfaces


def per_leaf_pleated_reference(gs, truncation_radius):
    """The pleated mesh built leaf by leaf, as pleated_surface once did:
    separators from one side test per leaf foot, faces sorted by separator
    count, children by list scan and each region's arc points tested one at
    a time.  Returns (faces, edges)."""
    x0, table = gs.basepoint, gs.base_leaves
    rows = np.nonzero(table.distances(x0) < truncation_radius)[0]
    leaves = [table[i] for i in rows]

    def sides(z):
        return table.sides(z)[rows]

    base_sides = sides(x0)
    separators = []
    for i, lf in enumerate(leaves):
        n = _real_normalizer(lf.geodesic.p, lf.geodesic.q)
        foot = n.inverse()(1j * abs(n(x0)))
        cut = base_sides * sides(foot) < 0
        cut[i] = False
        separators.append(np.nonzero(cut)[0].tolist())
    ecenter, eradius = _hyperbolic_circle_euclidean(x0, truncation_radius)
    base_chords = [_leaf_truncation_chord(lf, ecenter, eradius) for lf in leaves]

    def region_polygon(signature_point, bounding):
        pts = []
        for j in bounding:
            pts.extend(base_chords[j])
        signature = sides(signature_point) > 0
        for k in range(96):
            zz = ecenter + eradius * cmath.exp(2j * math.pi * k / 96.0)
            if zz.imag > 0 and np.array_equal(sides(zz) > 0, signature):
                pts.append(zz)
        ref = signature_point
        pts.sort(key=lambda zz: math.atan2((zz - ref).imag, (zz - ref).real))
        return tuple(pts)

    root_bounding = [i for i in range(len(leaves)) if not separators[i]]
    faces = [PleatedFace(0, None, MoebiusMap.identity(), x0, region_polygon(x0, root_bounding))]
    face_id_of_leaf = {}
    for i in sorted(range(len(leaves)), key=lambda i: len(separators[i])):
        lf = leaves[i]
        n = _real_normalizer(lf.geodesic.p, lf.geodesic.q)
        w = n(x0)
        step = -0.35 * math.copysign(1.0, w.real)
        sample = n.inverse()(abs(w) * cmath.exp(1j * (math.pi / 2.0 - step * 0.5)))
        b = bending_product(lift_crossings(x0, sample, leaves=table))
        children = [
            j for j in range(len(leaves))
            if j != i and i in separators[j] and len(separators[j]) == len(separators[i]) + 1
        ]
        face_id_of_leaf[i] = len(faces)
        faces.append(PleatedFace(len(faces), lf, b, sample, region_polygon(sample, [i] + children)))
    edges = []
    for i, lf in enumerate(leaves):
        seps = separators[i]
        outer = face_id_of_leaf[max(seps, key=lambda j: len(separators[j]))] if seps else 0
        edges.append(PleatedEdge(lf, (outer, face_id_of_leaf[i]), lf.weight))
    return faces, edges


def _leaf_key(leaf):
    return None if leaf is None else leaf.key()


# Below radius 4 no leaf lies two levels deep, so the children and the
# outer face of a nested leaf are only exercised from there on.
@pytest.mark.parametrize("radius", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("which", ["three-cuff", "half-pi", "weight-0"])
def test_pleated_surface_matches_per_leaf_reference(holonomy, half_pi_structure, which, radius):
    gs = {
        "three-cuff": lambda: GraftedStructure(holonomy, CUFF_MULTICURVE, depth=4),
        "half-pi": lambda: half_pi_structure,
        "weight-0": lambda: GraftedStructure(
            holonomy, WeightedMulticurve(((GroupWord((1,)), 0.0),)), depth=4
        ),
    }[which]()
    mesh = pleated_surface(
        holonomy, gs.multicurve, depth=gs.depth, truncation_radius=radius, structure=gs
    )
    faces, edges = per_leaf_pleated_reference(gs, radius)
    if which == "three-cuff":
        assert any(lf.geodesic.p.is_infinity or lf.geodesic.q.is_infinity
                   for lf in (e.leaf for e in edges))
    assert len(mesh.faces) == len(faces) > 1
    for got, want in zip(mesh.faces, faces):
        assert got.region_id == want.region_id
        assert got.sample == want.sample
        assert got.polygon == want.polygon
        assert got.isometry.matrix.tobytes() == want.isometry.matrix.tobytes()
        assert _leaf_key(got.entering_leaf) == _leaf_key(want.entering_leaf)
    assert len(mesh.edges) == len(edges)
    for got, want in zip(mesh.edges, edges):
        assert got.face_ids == want.face_ids
        assert got.weight == want.weight
        assert got.leaf.key() == want.leaf.key()


def test_kept_side_table_equals_full_table_slice(holonomy):
    gs = GraftedStructure(holonomy, CUFF_MULTICURVE, depth=6)
    table, x0 = gs.base_leaves, gs.basepoint
    rng = np.random.default_rng(3)
    points = np.concatenate([[x0], x0 + rng.normal(size=40) + 1j * rng.random(40)])[:, None]
    for radius in (1.5, 2.0, 3.0):
        rows = np.nonzero(table.distances(x0) < radius)[0]
        assert 0 < len(rows) < len(table)
        kept = _side_values([column[rows] for column in table._frame], points)
        assert kept.tobytes() == table.sides(points)[:, rows].tobytes()


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_pleated_surface_rejects_bad_radius(holonomy, half_pi_structure, radius):
    with pytest.raises(DegenerateInputError, match="truncation radius"):
        pleated_surface(
            holonomy, half_pi_structure.multicurve, depth=6,
            truncation_radius=radius, structure=half_pi_structure,
        )


def test_pleated_flat_when_weight_zero(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), 0.0),))
    mesh = pleated_surface(holonomy, mc, depth=4, truncation_radius=1.5)
    for f in mesh.faces:
        for p in f.image_polygon():
            assert abs(p.z.imag) < 1e-9


def test_pleated_dihedral_equals_weight(holonomy, half_pi_structure):
    gs = half_pi_structure
    mesh = pleated_surface(
        holonomy, gs.multicurve, depth=6, truncation_radius=2.0, structure=gs
    )
    from cp1graft.moebius import angle_between

    assert len(mesh.edges) >= 1
    for e in mesh.edges[:6]:
        f1 = mesh.faces[e.face_ids[0]]
        f2 = mesh.faces[e.face_ids[1]]
        got = angle_between(f1.plane.boundary, f2.plane.boundary)
        assert got == pytest.approx(e.weight, abs=1e-7)
        assert e.weight == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_pleated_equivariance(holonomy, half_pi_structure):
    gs = half_pi_structure
    mesh = pleated_surface(
        holonomy, gs.multicurve, depth=6, truncation_radius=2.0, structure=gs
    )
    rp = gs.rho_prime
    rng = np.random.default_rng(3)
    words = [GroupWord((l,)) for l in (1, 2, -3, 4)]
    for _ in range(20):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.4, 2.0))
        if min(distance_to_leaf(z, lf.geodesic) for lf in gs.base_leaves) < 1e-5:
            continue
        w = words[rng.integers(0, len(words))]
        lhs = mesh.beta(holonomy.rho(w)(z))
        rhs = apply_isometry(rp.rho(w), mesh.beta(z))
        assert np.linalg.norm(lhs.coords() - rhs.coords()) < 1e-7


def test_pleated_projection_relation(holonomy, half_pi_structure):
    # beta(kappa(p)) = Psi_p(f(p)) on stratum points.
    gs = half_pi_structure
    rng = np.random.default_rng(8)
    for _ in range(25):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        if min(distance_to_leaf(z, lf.geodesic) for lf in gs.base_leaves) < 1e-4:
            continue
        bmap = gs.bending_map(z)
        plane = PlaneH3(OrientedCircle.real_line(True).transform(bmap))
        psi = nearest_point_projection(plane, gs.develop(z))
        beta = apply_isometry(bmap, embed_h3(z))
        assert np.linalg.norm(psi.coords() - beta.coords()) < 1e-6


def test_pleated_strata_match_circle_sides(holonomy):
    # Separators and region membership, recomputed from each leaf's circle;
    # the cuff-1 axis (0, infinity) is one of the leaves.
    gs = GraftedStructure(holonomy, CUFF_MULTICURVE, depth=4)
    radius = 3.0
    mesh = pleated_surface(
        holonomy, CUFF_MULTICURVE, depth=4, truncation_radius=radius, structure=gs
    )
    leaves = [e.leaf for e in mesh.edges]
    assert any(lf.geodesic.p.is_infinity or lf.geodesic.q.is_infinity for lf in leaves)
    x0 = gs.basepoint

    def side(lf, z):
        return lf.circle.evaluate(cp1(z))

    separators = []
    for i, lf in enumerate(leaves):
        n = _real_normalizer(lf.geodesic.p, lf.geodesic.q)
        foot = n.inverse()(1j * abs(n(x0)))
        separators.append([
            j for j, other in enumerate(leaves)
            if j != i and side(other, x0) * side(other, foot) < 0
        ])
    assert any(separators)
    order = sorted(range(len(leaves)), key=lambda i: len(separators[i]))
    assert [f.entering_leaf.key() for f in mesh.faces[1:]] == [leaves[i].key() for i in order]
    face_of = {i: k + 1 for k, i in enumerate(order)}
    for i, e in enumerate(mesh.edges):
        seps = separators[i]
        outer = face_of[max(seps, key=lambda j: len(separators[j]))] if seps else 0
        assert e.face_ids == (outer, face_of[i])
        # Each face's sample lies beyond the leaf it enters by.
        sample = mesh.faces[face_of[i]].sample
        assert side(e.leaf, x0) * side(e.leaf, sample) < 0

    ecenter, eradius = _hyperbolic_circle_euclidean(x0, radius)
    arc = [ecenter + eradius * cmath.exp(2j * math.pi * k / 96.0) for k in range(96)]
    arc = [z for z in arc if z.imag > 0]
    for face in mesh.faces:
        want = [
            z for z in arc
            if all((side(lf, z) > 0) == (side(lf, face.sample) > 0) for lf in leaves)
        ]
        assert set(face.polygon) & set(arc) == set(want)


# ---------------------------------------------------------------------------
# developing continuation


def test_develop_constant_path(two_pi_structure):
    res = develop_and_lift(two_pi_structure, [0.2 + 1.1j])
    assert not res.crossings
    assert chordal_distance(res.endpoint, cp1(0.2 + 1.1j)) < 1e-12


def test_develop_null_homotopic_square(two_pi_structure):
    square = [0.1 + 0.9j, 0.3 + 0.9j, 0.3 + 1.1j, 0.1 + 1.1j, 0.1 + 0.9j]
    res = develop_and_lift(two_pi_structure, square)
    assert not res.crossings
    assert chordal_distance(res.endpoint, cp1(square[0])) < 1e-9


def test_develop_crossing_cylinder_with_wrap(two_pi_structure):
    gs = two_pi_structure
    # Cross the cuff-1 axis (the vertical geodesic) and come back.
    path = [0.3 + 1.0j, -0.3 + 1.0j, -0.3 + 1.2j, 0.3 + 1.2j, 0.3 + 1.0j]
    res = develop_and_lift(gs, path)
    assert len(res.crossings) == 2
    assert chordal_distance(res.endpoint, cp1(path[0])) < 1e-9


def _at_distance(x0, d, theta):
    """The UHP point at hyperbolic distance d from x0 in direction theta."""
    w = math.tanh(d / 2.0) * cmath.exp(1j * theta)
    u = 1j * (1.0 + w) / (1.0 - w)
    return complex(x0.real + x0.imag * u.real, x0.imag * u.imag)


@pytest.mark.parametrize("distance", [6.0, 8.0, 10.0])
def test_develop_and_lift_finds_leaves_inside_long_segments(holonomy, distance):
    # A table taken around the path's vertices alone misses leaves that
    # cross the middle of a long segment: with such a table this setup
    # missed leaves in 3 of the 20 directions at distance 8 and 8 at 10,
    # and the endpoint moved by up to 0.015 chordal.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.3),)), depth=8)
    x0 = gs.basepoint
    for k in range(20):
        z = _at_distance(x0, distance, 2.0 * math.pi * (k + 0.5) / 20)
        lift = develop_and_lift(gs, [x0, z])
        want = gs.crossings_to(z)
        assert [c.leaf.key() for c in lift.crossings] == [c.leaf.key() for c in want], k
        assert chordal_distance(lift.endpoint, gs.develop(z)) < 1e-9, k


# ---------------------------------------------------------------------------
# depth stability


def test_depth_stability(holonomy):
    mc = WeightedMulticurve(((GroupWord((1,)), math.pi / 3.0),))
    rp6 = GraftedStructure(holonomy, mc, depth=6).rho_prime
    rp8 = GraftedStructure(holonomy, mc, depth=8).rho_prime
    for a, b in zip(rp6.generators, rp8.generators):
        assert a.proj_distance(b) < 1e-8
