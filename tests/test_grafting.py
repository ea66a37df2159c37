import cmath
import gc
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from cp1graft.moebius import (
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    apply,
    chordal_distance,
    cp1,
)
from cp1graft.hyperbolic import apply_isometry, nearest_point_projection, PlaneH3, OrientedCircle
from cp1graft.surface import (
    FNCoordinates,
    GroupWord,
    axis,
    enumerate_words,
    first_rows,
    fuchsian_from_fn,
    geodesic_through_uhp,
    key_ranks,
)
import cp1graft.grafting as grafting
import cp1graft.moebius as moebius
from cp1graft.cli import EXIT_NUMERIC, main
from cp1graft.grafting import (
    DeformedHolonomy,
    GraftedStructure,
    InvalidMulticurveError,
    LiftedLeaf,
    PerturbInputError,
    PleatedEdge,
    PleatedFace,
    RadiusScreen,
    WeightedMulticurve,
    WordTree,
    _hyperbolic_circle_euclidean,
    _leaf_truncation_chord,
    _real_normalizer,
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
    perturbation_offset,
    pleated_surface,
    segment_focus,
    uhp_geodesic_point,
)
from conftest import bench_workloads, tree_words
from oracles import first_linked_pair_matrix, reference_leaf_lifts, segment_crossing_count

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


@pytest.mark.parametrize("read", ["rho_prime", "basepoint", "develop", "pleated_surface"])
def test_every_read_refuses_a_crossing_multicurve(holonomy, read):
    # The check runs with the base leaves, which every read of a structure
    # takes first, so none of them gets past a multicurve that crosses.
    gs = GraftedStructure(holonomy, CROSSING_MULTICURVE, depth=4)
    reads = {
        "rho_prime": lambda: gs.rho_prime,
        "basepoint": lambda: gs.basepoint,
        "develop": lambda: gs.develop(0.2 + 1.0j),
        "pleated_surface": lambda: pleated_surface(
            holonomy, CROSSING_MULTICURVE, depth=4, truncation_radius=1.5, structure=gs),
    }
    with pytest.raises(InvalidMulticurveError, match=r"^leaf lifts intersect: "):
        reads[read]()


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


def _geodesic_segment_kinds():
    """200 seeded segments of each kind: generic, exactly vertical, 1e-9
    and -1e-12 off vertical, 1e3 wide, and 1e-6 above the real axis."""
    rng = np.random.default_rng(41)

    def points(n, low=-2.0, high=2.0):
        return rng.uniform(-3, 3, n) + 1j * np.exp(rng.uniform(low, high, n))

    p, q = points(200), points(200)
    low = rng.uniform(-3, 3, (2, 200)) + 1j * rng.uniform(0.5e-6, 2e-6, (2, 200))
    kinds = {
        "generic": (p, q),
        "vertical": (p, p.real + 1j * q.imag),
        "dx=1e-9": (p, p.real + 1e-9 + 1j * q.imag),
        "dx=-1e-12": (p, p.real - 1e-12 + 1j * q.imag),
        "dx=1e3": (p, p.real + 1e3 + 1j * q.imag),
        "im=1e-6": tuple(low),
    }
    return {name: list(zip(a.tolist(), b.tolist())) for name, (a, b) in kinds.items()}


def test_uhp_geodesic_point_matches_50_digits():
    # The exact point, at 50 digits from p and q as exact: the disk map
    # z -> (z - p) / (z - conj p) takes p to 0 and the geodesic to the ray
    # through q's image, on which the point lies at tanh(s d / 2).  The
    # error is its distance from the computed point, over the length d.
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50

    def dist(a, b):
        return 2 * mp.asinh(abs(a - b) / (2 * mp.sqrt(a.imag * b.imag)))

    worst = {}
    for name, segments in _geodesic_segment_kinds().items():
        worst[name] = 0.0
        for p, q in segments:
            a, b = mp.mpc(p), mp.mpc(q)
            length = dist(a, b)
            u = (b - a) / (b - mp.conj(a))
            for s in (0.25, 0.5, 0.75):
                w = mp.tanh(s * length / 2) * u / abs(u)
                want = (a - mp.conj(a) * w) / (1 - w)
                got = mp.mpc(uhp_geodesic_point(p, q, s))
                worst[name] = max(worst[name], float(dist(got, want) / length))
    assert max(worst.values()) < 1e-12, worst


def test_segment_focus_is_uhp_geodesic_point_bit_for_bit():
    path = [0.1 + 1.0j, 2.0 + 0.5j, 2.0 + 3.0j, -1e3 + 1e-6j, 0.3 + 0.2j]
    for name, segments in _geodesic_segment_kinds().items():
        path += [z for segment in segments[:4] for z in segment]
    want = list(path) + [uhp_geodesic_point(p, q, s)
                         for p, q in zip(path, path[1:]) for s in (0.25, 0.5, 0.75)]
    assert np.array(segment_focus(path)).tobytes() == np.array(want).tobytes()


BELOW = "point must lie in the upper half-plane"


@pytest.mark.parametrize("p, q, message", [
    (1j, 0.3 - 0.5j, BELOW), (1j, 0.3 + 0j, BELOW), (1j, complex(0.3, math.nan), None),
    (1j, complex(math.inf, 1.0), None), (complex(0.2, math.inf), 1j, None),
])
def test_uhp_geodesic_point_refuses_points_off_the_plane(p, q, message):
    with pytest.raises(DegenerateInputError, match=message):
        uhp_geodesic_point(p, q, 0.5)
    with pytest.raises(DegenerateInputError):
        segment_focus([p, q])


def _bisection_crossings(leaves, p, q):
    """Reference for lift_crossings: the side test on each leaf's circle, a
    60-step bisection of the side value along the segment, and the sign of
    the attracting endpoint in the segment's frame, the real map sending
    the geodesic through p and q to the upward imaginary axis."""
    g = geodesic_through_uhp(p, q)
    frame = _real_normalizer(g.p, g.q)
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


# A segment of the seed-7 develop round on FN instance 0, curve a at depth
# 6: from the perturbed basepoint to a point 1.8e-5 above the real axis.
# It crosses the leaf with ends near 2.23050005 and 2.23053915 at
# t = 0.9995575606117034.
DEVELOP_SEGMENT = (7.548776662466928e-05 + 1.0000655740699156j,
                   2.2305258520598974 + 1.841777655624482e-05j)


def _mp_crossings(table, p, q):
    """(row, parameter) of each leaf crossing [p, q], taking the table's
    real ends and p, q as exact: the side value at constant-speed points of
    the segment, placed on the hyperboloid -X0^2 + X1^2 + X2^2 = -1 at 50
    digits, bisected 120 times."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 50

    def lift(z):
        x, y = mp.mpf(z.real), mp.mpf(z.imag)
        n = x * x + y * y
        return (n + 1) / (2 * y), (n - 1) / (2 * y), x / y

    a, b = lift(p), lift(q)
    length = mp.acosh(a[0] * b[0] - a[1] * b[1] - a[2] * b[2])

    def side(row, s):
        w = [(mp.sinh((1 - s) * length) * u + mp.sinh(s * length) * v) / mp.sinh(length)
             for u, v in zip(a, b)]
        y = 1 / (w[0] - w[1])
        x = w[2] * y
        e0, e1 = (None if math.isnan(e) else mp.mpf(e) for e in table.real_ends[row])
        if e0 is None or e1 is None:
            return x - (e1 if e0 is None else e0)
        return (x - e0) * (x - e1) + y * y

    out = []
    for row in range(len(table)):
        lo, hi = mp.mpf(0), mp.mpf(1)
        at_lo = side(row, lo)
        if at_lo * side(row, hi) >= 0:
            continue
        for _ in range(120):
            mid = (lo + hi) / 2
            if (side(row, mid) > 0) == (at_lo > 0):
                lo = mid
            else:
                hi = mid
        out.append((row, (lo + hi) / 2))
    return sorted(out, key=lambda c: c[1])


def test_lift_crossings_parameters_match_50_digits(holonomy):
    # The parameters of the oracle segments' crossings and of the develop
    # segment's against a 50-digit reference on the same leaf ends.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.0),)), depth=6)
    p, q = DEVELOP_SEGMENT
    assert gs.basepoint == p
    cases = [(gs.leaves_near(segment_focus([p, q])), p, q)] + [
        (GraftedStructure(hol, mc, depth=4).leaves_near(segment_focus([p, q])), p, q)
        for hol, mc, p, q in _oracle_segments(holonomy)
    ]
    worst, total = 0.0, 0
    for table, p, q in cases:
        got = lift_crossings(p, q, leaves=table)
        want = _mp_crossings(table, p, q)
        assert [c.leaf for c in got] == [table[row] for row, _ in want]
        for c, (_, t) in zip(got, want):
            worst = max(worst, abs(c.parameter - float(t)))
        total += len(got)
    assert total >= 11
    assert worst <= 1e-15, worst


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
        for i, g in enumerate(base_axes):
            try:
                leaf = LiftedLeaf(g.transform(m), i, word)
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
            assert got.curve_index == ref.curve_index
            bits = [np.array([g.p.z0, g.p.z1, g.q.z0, g.q.z1]).tobytes()
                    for g in (got.geodesic, ref.geodesic)]
            assert bits[0] == bits[1]


def test_element_key_folds_signed_zero():
    plus = np.array([[[1.0, 4e-12], [0.0, 1.0]]], dtype=complex)
    minus = np.array([[[1.0, -4e-12], [0.0, 1.0]]], dtype=complex)
    # Rounding leaves 0.0 in one and -0.0 in the other.
    assert plus.round(9).tobytes() != minus.round(9).tobytes()
    assert element_keys(plus) == element_keys(minus)


def _columns(table):
    """Every column of a LeafTable, by name, as dtype, shape and bytes, with
    the real endpoints a word tree hands over from its leaf keys."""
    columns = {"ends": table.ends, "curve": table.curve,
               "conjugator": table.conjugator, "parent": table._parent, "letter": table._letter,
               "real_ends": table.real_ends}
    return {name: (c.dtype.str, c.shape, c.tobytes()) for name, c in columns.items()}


def _differing(table, want):
    """Names of the columns of ``table`` that differ from ``want``, a
    ``_columns`` result."""
    return [name for name, column in _columns(table).items() if column != want[name]]


def _assert_replays_equal_reference(hol, mc, queries, seed):
    """Each (depth, focus, margin) query gives the reference BFS's table:
    on one word tree in two shuffled orders, and on a fresh tree each."""
    refs = [_columns(reference_leaf_lifts(hol, mc, *q)) for q in queries]
    rng = np.random.default_rng(seed)
    for _ in range(2):
        tree = WordTree(hol, mc)
        for i in rng.permutation(len(queries)):
            assert _differing(enumerate_leaf_lifts(hol, mc, *queries[i], tree=tree), refs[i]) == [], i
    for i, (q, ref) in enumerate(zip(queries, refs)):
        assert _differing(enumerate_leaf_lifts(hol, mc, *q), ref) == [], i


def _round_queries(workload, seed, tmp_path, monkeypatch):
    """Every leaf query of a benchmark round (set-up included), as
    ((hol, mc, depth, focus, margin), tree, table) in call order."""
    calls = []
    enumerate_ = grafting.enumerate_leaf_lifts

    def recording(hol, mc, depth, focus, margin=4.0, tree=None):
        table = enumerate_(hol, mc, depth, focus, margin, tree)
        calls.append(((hol, mc, depth, list(focus), margin), tree, table))
        return table

    monkeypatch.setattr(grafting, "enumerate_leaf_lifts", recording)
    for op in getattr(bench_workloads(), workload)(seed, str(tmp_path)):
        op.run()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("seed", [1, 7, 100])
def test_develop_round_leaf_tables_equal_fresh_bfs(seed, tmp_path, monkeypatch):
    calls = _round_queries("develop", seed, tmp_path, monkeypatch)
    for i, (args, _, table) in enumerate(calls):
        assert _differing(table, _columns(reference_leaf_lifts(*args))) == [], i
    # Three structures: in set-up each takes its base leaves on its own
    # tree and checks its multicurve on a copy of that tree; then three
    # queries for each of 15 points: the chart at z (develop, bending map
    # and beta at z), beta at a translate of z, and the detour lift.
    by_tree = {}
    for args, tree, _ in calls:
        by_tree.setdefault(id(tree), []).append(args)
    assert len(calls) == 51 and sorted(map(len, by_tree.values())) == [1, 1, 1, 16, 16, 16]
    assert [q[0][4] for q in by_tree.values() if len(q) == 1] == [8.0] * 3
    by_structure = {}
    for args, _, _ in calls:
        by_structure.setdefault(id(args[0]), []).append(args)
    for queries in by_structure.values():
        hol, mc = queries[0][:2]
        _assert_replays_equal_reference(hol, mc, [args[2:] for args in queries], seed)


@pytest.mark.parametrize("seed", [1, 7])
def test_holonomy_round_leaf_tables_equal_fresh_bfs(seed, tmp_path, monkeypatch):
    # Each build takes its base leaves on a fresh tree, where the leaf-key
    # ranks are built from nothing, and checks its multicurve with margin 8
    # on a copy of that tree, which shares the tree's leaf keys and ranks.
    calls = _round_queries("holonomy", seed, tmp_path, monkeypatch)
    for i, (args, _, table) in enumerate(calls):
        assert _differing(table, _columns(reference_leaf_lifts(*args))) == [], i
    assert len(calls) == 26 and len({id(tree) for _, tree, _ in calls}) == 26
    assert [args[4] for args, _, _ in calls] == [4.0, 8.0] * 13
    builds = [(len(args[1].entries), args[2]) for args, _, _ in calls[::2]]
    assert {n for n, _ in builds} == {1, 2, 3} and {d for _, d in builds} == {4, 5, 6}
    assert [args[2] for args, _, _ in calls[1::2]] == [min(d, 4) for _, d in builds]


# sha256 of the seed-7 holonomy round's rho' generators and of the seed-7
# develop round's outputs, recorded before the weights moved out of the
# leaves and crossings into the one bending product.  Nothing else pins
# these bits at weights off 2 pi Z.
ROUND_DIGESTS = {
    "holonomy": "86f0a8b76fdb6e30e1fb75ba4f3c71a31da995d2cfeaf454b889e2dac21a70a1",
    "develop": "e57103feee5eb5cad1aca9c12e04e422bc39c8cdd0a7d11ff150a3a2bdb6b471",
}


def test_round_outputs_keep_their_bits(tmp_path):
    workloads = bench_workloads()
    ops = workloads.holonomy(7, str(tmp_path))
    assert len(ops) == 13
    digest = hashlib.sha256()
    for op in ops:
        _, rho_prime = op.run()
        digest.update(np.array([g.matrix for g in rho_prime.generators]).tobytes())
    assert digest.hexdigest() == ROUND_DIGESTS["holonomy"]
    ops = workloads.develop(7, str(tmp_path))
    assert len(ops) == 15
    digest = hashlib.sha256()
    for op in ops:
        f, b, beta, beta_t, lift = op.run()
        e = lift.endpoint
        digest.update(np.array([f.z0, f.z1, *b.matrix.ravel(), beta.z, beta.t,
                                beta_t.z, beta_t.t, e.z0, e.z1], dtype=complex).tobytes())
    assert digest.hexdigest() == ROUND_DIGESTS["develop"]


def test_holonomy_round_keys_rarely_take_sphere_xyz(tmp_path, monkeypatch):
    """The leaf keys of a seed-7 holonomy round send at most one endpoint
    row in 10^4 to sphere_xyz (one in about 40,000 here), so a silent fall
    back to the per-element path shows."""
    rows = {"all": 0, "exact": 0}
    inside = []
    exact_xyz, leaf_keys = moebius.sphere_xyz, grafting._leaf_keys

    def counted_xyz(pairs):
        if inside:
            rows["exact"] += np.asarray(pairs).size // 2
        return exact_xyz(pairs)

    def counted_keys(ends, curve):
        rows["all"] += ends.size // 2
        inside.append(True)
        try:
            return leaf_keys(ends, curve)
        finally:
            inside.pop()

    monkeypatch.setattr(moebius, "sphere_xyz", counted_xyz)
    monkeypatch.setattr(grafting, "sphere_xyz", counted_xyz)
    monkeypatch.setattr(grafting, "_leaf_keys", counted_keys)
    for op in bench_workloads().holonomy(7, str(tmp_path)):
        op.run()
    assert rows["all"] > 30_000 and rows["exact"] <= rows["all"] / 1e4, rows


def radius_screen_mismatches(hol) -> list:
    """Margins at which a leaf query differs from the reference's, among
    margins that put the BFS radius exactly on a level-1 orbit point's
    distance to the focus as arccosh gives it, one ulp either side, and
    past where cosh(radius) overflows (every candidate then takes arccosh).
    The focus repeats x0, which the query lists once."""
    mc = WeightedMulticurve(((GroupWord((1,)), 1.0),))
    tree = WordTree(hol, mc)
    x0 = hol.basepoint
    tree.leaf_table(1, [x0], 4.0)
    z = tree.nodes["orbit"][1:9]
    dist = np.arccosh(np.maximum(1.0 + np.abs(z - x0) ** 2 / (2.0 * z.imag * x0.imag), 1.0))
    margins = [1000.0]
    for d in np.sort(dist)[[0, 3, 7]].tolist():
        for radius in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf)):
            margins.append(radius - tree.reach)
            assert tree.reach + margins[-1] == radius
    return [margin for margin in margins
            if _differing(tree.leaf_table(2, [x0, x0], margin),
                          _columns(reference_leaf_lifts(hol, mc, 2, [x0], margin)))]


def test_radius_screen_decides_as_arccosh_on_the_radius(holonomy):
    assert radius_screen_mismatches(holonomy) == []


def screen_mismatches(seed: int, cases: int = 60) -> tuple[int, int]:
    """(decisions checked, decisions wrong) of RadiusScreen against arccosh
    on the exact ratio, least over the targets, on seeded cases.  Half the
    cases sit about a real part up to 1e6, where the expanded ratio's terms
    cancel by up to 12 digits; targets have Im t from 1e-3 to 1e3, points
    Im z down to 1e-12, and each case takes the radius on four points'
    exact distances and one ulp either side."""
    rng = np.random.default_rng(seed)
    checked = wrong = 0
    for case in range(cases):
        far = rng.uniform(-1e6, 1e6) if case % 2 else 0.0
        scale = 10.0 ** rng.uniform(-2.0, 3.0)
        targets = far + scale * (rng.normal(size=5) + 1j * rng.uniform(0.1, 1.0, 5))
        im = 10.0 ** rng.uniform(-12.0, math.log10(scale) + 0.5, 400)
        z = far + scale * rng.normal(size=400) * rng.uniform(0.0, 3.0, 400) + 1j * im
        ratio = np.abs(z - targets[:, None]) ** 2 / (2.0 * z.imag * targets.imag[:, None])
        dist = np.arccosh(np.maximum(1.0 + ratio, 1.0)).min(axis=0)
        for d in rng.choice(dist[dist < 50.0], 4, replace=False).tolist():
            for radius in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf)):
                checked += len(z)
                wrong += int(np.count_nonzero(RadiusScreen(targets, radius)(z) != (dist <= radius)))
    return checked, wrong


@pytest.mark.parametrize("seed", [0, 1])
def test_radius_screen_decides_as_arccosh_far_out(seed):
    checked, wrong = screen_mismatches(seed)
    assert checked == 60 * 12 * 400 and wrong == 0


def test_radius_screen_takes_the_exact_test_off_its_product():
    # nan and inf points, and every point where cosh(radius) overflows.  An
    # infinite point's product is nan (inf - inf), which numpy warns of.
    targets = np.array([0.5 + 1.0j, -2.0 + 0.3j])
    z = np.array([complex(np.nan, 1.0), complex(np.inf, 1.0), complex(-np.inf, 2.0), 0.4 + 0.9j,
                  40.0 + 0.01j])
    ratio = np.abs(z - targets[:, None]) ** 2 / (2.0 * z.imag * targets.imag[:, None])
    for radius in (0.5, 3.0, 1000.0):
        want = np.arccosh(np.maximum(1.0 + ratio, 1.0)).min(axis=0) <= radius
        with np.errstate(invalid="ignore"):
            assert RadiusScreen(targets, radius)(z).tolist() == want.tolist()


def _rank_dedup(ranks):
    """The leaf query's dedup: first index of each rank, ranks ascending."""
    return np.unique(ranks, return_index=True)[1]


def test_rank_dedup_gives_first_rows_on_duplicate_keys():
    rng = np.random.default_rng(31)
    keys = rng.integers(0, 2, (400, 7)).astype(float)  # at most 128 distinct rows
    ranks = key_ranks(keys)
    assert ranks.dtype == np.int32 and len(np.unique(ranks)) <= 128
    assert np.array_equal(_rank_dedup(ranks), first_rows(keys))
    for size in (0, 1, 50, 399):
        subset = rng.permutation(len(keys))[:size]
        assert np.array_equal(_rank_dedup(ranks[subset]), first_rows(keys[subset])), size


def test_rank_dedup_joins_keys_apart_only_by_a_signed_zero():
    keys = np.array([[0.0, -0.0, 1.0], [0.0, 0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    assert len({row.tobytes() for row in keys}) == 4
    ranks = key_ranks(keys)
    assert ranks.tolist() == [1, 1, 1, 0]
    assert _rank_dedup(ranks).tolist() == first_rows(keys).tolist() == [3, 0]
    assert _rank_dedup(ranks[1:]).tolist() == first_rows(keys[1:]).tolist() == [2, 0]


def _assert_ranks_consistent(tree):
    """The tree's leaf-key ranks are ``key_ranks`` of its own leaf keys,
    one per key row, and every key row belongs to one of its words."""
    assert tree.rank.shape == tree.ok.shape == tree.keys.shape[:2] == tree.real.shape[:2]
    assert tree.rank.tobytes() == key_ranks(tree.keys.reshape(-1, 7)).tobytes()
    leaf = tree.nodes["leaf"]
    assert np.array_equal(np.sort(leaf[leaf >= 0]), np.arange(len(tree.rank)))


def test_multicurve_with_no_curve_gives_empty_tables(holonomy):
    none = WeightedMulticurve(())
    x0 = holonomy.basepoint
    tree = WordTree(holonomy, none)
    for query in ((4, [x0], 8.0), (3, segment_focus([x0, 0.5 + 2.0j]), 4.0)):
        table = tree.leaf_table(*query)
        assert len(table) == 0 and len(table._parent) > 1
        _assert_ranks_consistent(tree)
        assert _differing(table, _columns(reference_leaf_lifts(holonomy, none, *query))) == []
    assert len(key_ranks(np.empty((0, 7)))) == 0 and len(_rank_dedup(np.empty(0, np.int32))) == 0


def test_ranks_follow_their_tree_through_clear_and_copy(holonomy, monkeypatch):
    clears = []
    clear = WordTree.clear
    monkeypatch.setattr(WordTree, "clear", lambda tree: (clears.append(getattr(tree, "size", 0)), clear(tree)))
    monkeypatch.setattr(grafting, "MAX_TREE_NODES", 400)
    x0 = holonomy.basepoint
    tree = WordTree(holonomy, CUFF_MULTICURVE)
    for z in (0.5 + 2.0j, -1.0 + 0.5j, 2.0 + 0.2j, 0.5 + 2.0j):
        query = (5, segment_focus([x0, z]), 4.0)
        want = _columns(reference_leaf_lifts(holonomy, CUFF_MULTICURVE, *query))
        twin, rank = tree.copy(), tree.rank
        assert _differing(twin.leaf_table(*query), want) == []
        _assert_ranks_consistent(twin)
        assert tree.rank is rank
        assert _differing(tree.leaf_table(*query), want) == []
        _assert_ranks_consistent(tree)
    assert sum(size > 400 for size in clears) >= 2  # the tree and a twin were emptied


@pytest.mark.parametrize("curves", ["a", "cuffs"])
def test_far_queries_equal_fresh_bfs(holonomy, curves):
    # Where reading base_leaves lost leaves: points 5-7 from the basepoint.
    mc = (WeightedMulticurve(((GroupWord((1,)), TWO_PI),)) if curves == "a"
          else CUFF_MULTICURVE)
    gs = GraftedStructure(holonomy, mc, depth=6)
    x0 = gs.basepoint
    queries = []
    for k, dist in enumerate((5.0, 6.0, 7.0, 5.5, 6.5, 7.0)):
        w = 1j * math.exp(dist)
        turn = 2.0 * math.pi * (k + 0.37) / 6.0
        c, s = math.cos(turn / 2.0), math.sin(turn / 2.0)
        z = (c * w + s) / (-s * w + c)  # w turned about i, at the same distance
        moved = x0 + (z - 1j)
        queries.append((6, segment_focus([x0, moved]), 4.0))
    _assert_replays_equal_reference(holonomy, mc, queries, seed=len(curves))


def test_three_cuff_queries_at_depths_4_and_6(holonomy):
    x0 = holonomy.basepoint
    points = [x0 + 0.3, 0.5 + 2.0j, -1.2 + 0.4j, 3.0 + 5.0j]
    queries = [(depth, segment_focus([x0, z]), margin)
               for depth in (4, 6) for z in points for margin in (4.0, 8.0)]
    _assert_replays_equal_reference(holonomy, CUFF_MULTICURVE, queries, seed=3)


def test_tree_copy_grows_apart(holonomy):
    # The multicurve check's query (margin 8 around the basepoint) on a
    # copy of a tree grown by a narrower query.
    x0 = holonomy.basepoint
    narrow = (4, segment_focus([x0, 0.5 + 2.0j]), 4.0)
    wide = (4, [x0], 8.0)
    want = _columns(reference_leaf_lifts(holonomy, CUFF_MULTICURVE, *wide))
    tree = WordTree(holonomy, CUFF_MULTICURVE)
    tree.leaf_table(*narrow)

    def state(t):
        return (t.size, t.nodes.tobytes(), t.ok.tobytes(), t.keys.tobytes(), t.rank.tobytes(),
                t.real.tobytes(), dict(t.classes))

    grown = state(tree)
    twin = tree.copy()
    assert _differing(twin.leaf_table(*wide), want) == []
    assert twin.size > grown[0] and state(tree) == grown
    assert _differing(tree.leaf_table(*narrow),
                      _columns(reference_leaf_lifts(holonomy, CUFF_MULTICURVE, *narrow))) == []
    assert _differing(tree.leaf_table(*wide), want) == []


def test_tree_grows_by_doubling(holonomy, monkeypatch):
    # A depth-6 three-cuff query on a fresh tree: each buffer is replaced
    # at most log2(rows / TREE_ROWS_INITIAL) times, rounded up, and holds at
    # most twice its rows.
    replaced = {}
    grown = grafting._grown

    def counting(buffer, used, need):
        out = grown(buffer, used, need)
        if out is not buffer:
            key = (buffer.dtype.str, buffer.shape[1:])
            replaced[key] = replaced.get(key, 0) + 1
        return out

    monkeypatch.setattr(grafting, "_grown", counting)
    tree = WordTree(holonomy, CUFF_MULTICURVE)
    tree.leaf_table(6, segment_focus([holonomy.basepoint, 0.5 + 2.0j]), 4.0)
    columns = [tree.nodes, tree.ok, tree.keys, tree.real]
    assert tree.size > 4 * grafting.TREE_ROWS_INITIAL and len(tree.ok) > grafting.TREE_ROWS_INITIAL
    assert len(replaced) == len(columns)
    for column in columns:
        rows = len(column)
        times = replaced[(column.dtype.str, column.shape[1:])]
        assert 1 <= times <= math.ceil(math.log2(rows / grafting.TREE_ROWS_INITIAL)), (rows, times)
        assert column.base.shape[1:] == column.shape[1:] and len(column.base) <= 2 * rows
        assert column.flags.c_contiguous


def test_tree_copy_has_buffers_of_its_own(holonomy):
    # The twin and the original each grow into room they both had at the
    # copy; neither sees the other's rows.
    x0 = holonomy.basepoint
    tree = WordTree(holonomy, CUFF_MULTICURVE)
    tree.leaf_table(4, [x0], 4.0)

    def state(t):
        return [getattr(t, name).tobytes() for name in ("nodes", "ok", "keys", "real", "rank")]

    twin = tree.copy()
    for name in ("nodes", "ok", "keys", "real"):
        mine, its = getattr(tree, name), getattr(twin, name)
        assert len(its.base) == len(mine.base) and not np.shares_memory(mine.base, its.base)
    before = state(tree)
    twin.leaf_table(4, segment_focus([x0, -1.2 + 0.4j]), 4.0)
    assert state(tree) == before
    grown = state(twin)
    tree.leaf_table(4, segment_focus([x0, 3.0 + 5.0j]), 4.0)
    assert state(twin) == grown
    for t in (tree, twin):
        _assert_ranks_consistent(t)


def test_tree_buffers_stop_doubling_at_the_node_bound(holonomy, monkeypatch):
    # Past MAX_TREE_NODES a buffer grows by what a level adds, so it never
    # holds much more than its rows, and the tree is emptied at the next
    # query.
    monkeypatch.setattr(grafting, "MAX_TREE_NODES", 600)
    tree = WordTree(holonomy, CUFF_MULTICURVE)
    query = (5, segment_focus([holonomy.basepoint, 0.5 + 2.0j]), 4.0)
    table = tree.leaf_table(*query)
    assert tree.size > 600 and len(tree.nodes.base) == tree.size
    assert _differing(table, _columns(reference_leaf_lifts(holonomy, CUFF_MULTICURVE, *query))) == []
    tree.leaf_table(1, [holonomy.basepoint], 4.0)
    assert len(tree.nodes.base) <= 600


def test_tree_rows_hold_the_matrices_their_expansion_built(holonomy, monkeypatch):
    # After shuffled queries every word was built once, and its row holds
    # its word's rho: the product of its parent's row and its last letter,
    # normalized by MoebiusMap's rule.
    built = []
    products = grafting.word_products

    def counting(level, rows, letters, gens):
        built.append(len(rows))
        return products(level, rows, letters, gens)

    monkeypatch.setattr(grafting, "word_products", counting)
    x0 = holonomy.basepoint
    queries = [(depth, segment_focus([x0, z]), margin) for depth in (4, 6)
               for z in (x0 + 0.3, -1.2 + 0.4j, 3.0 + 5.0j) for margin in (4.0, 8.0)]
    tree = WordTree(holonomy, CUFF_MULTICURVE)
    for i in np.random.default_rng(4).permutation(len(queries)):
        tree.leaf_table(*queries[i])
    nodes = tree.nodes[1:]
    assert sum(built) == len(nodes) > 1000
    want = np.array([holonomy.rho(w).matrix for w in tree_words(tree)])[1:]
    assert nodes["mat"].tobytes() == want.tobytes()
    orbit = want @ tree.start
    assert nodes["orbit"].tobytes() == (orbit[:, 0] / orbit[:, 1]).tobytes()
    # A parent's first child points at a row whose parent it is.
    expanded = np.flatnonzero(tree.nodes["child"] >= 0)
    assert np.array_equal(tree.nodes["parent"][tree.nodes["child"][expanded]], expanded)


def _expand_all(tree, length):
    """Grow every reduced word of length <= length in a tree."""
    level = np.array([0])
    for k in range(length):
        level = (tree._expand(level)[:, None] + np.arange(8 if k == 0 else 7)).ravel()


@pytest.mark.parametrize("fn", [(2.0, 2.5, 1.7, 0.3, -0.8, 1.1), (1.2, 2.9, 2.3, 1.4, -0.3, -1.0)],
                         ids=["fn0", "fn3"])
def test_tree_nodes_are_rho_of_their_words(fn):
    # The tree normalizes by MoebiusMap's rule, so every word of length <= 5
    # holds rho(word) bit for bit: FN instances 0 and 3 of the acceptance
    # suite, the second with every cuff twisted.
    hol = fuchsian_from_fn(FNCoordinates(fn[:3], fn[3:]))
    tree = WordTree(hol, CUFF_MULTICURVE)
    _expand_all(tree, 5)
    assert tree.size == 1 + 8 * (7**5 - 1) // 6
    want = np.array([hol.rho(w).matrix for w in tree_words(tree)])
    assert tree.nodes["mat"].tobytes() == want.tobytes()


def test_tree_never_keeps_a_singular_word():
    # On this surface c^6 cancels in floating point: its product's
    # determinant comes out 0, and rho raises.  A query whose focus holds
    # c^k x0 for k <= 5, and a point next to c^6's orbit, expands c^5 and
    # meets c^6 near its focus; the tree keeps c^6's product unscaled and
    # the query does not keep the word.
    hol = fuchsian_from_fn(FNCoordinates((3.1, 0.9, 1.4), (1.5, -0.2, 0.4)))
    powers = [GroupWord((3,) * k) for k in range(1, 7)]
    with pytest.raises(DegenerateInputError, match="singular matrix"):
        hol.rho(powers[5])
    focus = [hol.rho(w)(hol.basepoint) for w in powers[:5]]
    focus.append(hol.rho(powers[4])(focus[0]))
    tree = WordTree(hol, CUFF_MULTICURVE)
    table = tree.leaf_table(6, focus, 4.0)
    assert powers[5] in tree_words(tree)
    assert np.isfinite(tree.nodes["mat"]).all()
    kept = [table.word(e) for e in range(len(table._parent))]
    assert powers[4] in kept and powers[5] not in kept


def test_element_cap_raises_and_keeps_the_tree_consistent(holonomy, monkeypatch, tmp_path, capsys):
    # The focus query keeps 42 elements and the near one 29.
    mc = WeightedMulticurve(((GroupWord((1,)), 1.3),))
    gs = GraftedStructure(holonomy, mc, depth=5)
    focus = segment_focus([holonomy.basepoint, 2.0 + 3.0j])
    near = [holonomy.basepoint + 0.1]
    want, want_near = (reference_leaf_lifts(holonomy, mc, 5, f) for f in (focus, near))
    assert (len(want._parent), len(want_near._parent)) == (42, 29)
    want, want_near = _columns(want), _columns(want_near)

    monkeypatch.setattr(grafting, "MAX_LEAF_ELEMENTS", 35)
    message = "leaf lift enumeration exceeded 35 elements"
    with pytest.raises(RuntimeError) as ref_err:
        reference_leaf_lifts(holonomy, mc, 5, focus)
    assert str(ref_err.value) == message
    with pytest.raises(RuntimeError) as err:
        gs.leaves_near(focus)
    assert str(err.value) == message
    assert _differing(gs.leaves_near(near), want_near) == []

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"surface": {"genus": 2, "lengths": [2.0, 2.5, 1.7]},
                               "multicurve": [{"word": "a", "weight": 1.3}], "depth": 5}))
    assert main(["graft", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    assert f"numeric failure: {message}" in capsys.readouterr().err

    monkeypatch.undo()
    assert _differing(gs.leaves_near(focus), want) == []
    assert _differing(gs.leaves_near(near), want_near) == []


def test_tree_cleared_past_its_bound_gives_the_same_tables(holonomy, monkeypatch):
    clears = []
    clear = WordTree.clear
    monkeypatch.setattr(WordTree, "clear", lambda tree: (clears.append(getattr(tree, "size", 0)), clear(tree)))
    monkeypatch.setattr(grafting, "MAX_TREE_NODES", 400)
    x0 = holonomy.basepoint
    queries = [(5, segment_focus([x0, z]), 4.0) for z in (0.5 + 2.0j, -1.0 + 0.5j, 2.0 + 0.2j)]
    _assert_replays_equal_reference(holonomy, CUFF_MULTICURVE, queries, seed=5)
    assert any(size > 400 for size in clears)


def test_develop_round_trees_stay_small(tmp_path, monkeypatch):
    # What each structure's word tree keeps after the develop round.
    structures = []
    near = GraftedStructure.leaves_near

    def recording(gs, focus):
        if all(gs is not s for s in structures):
            structures.append(gs)
        return near(gs, focus)

    monkeypatch.setattr(GraftedStructure, "leaves_near", recording)
    tracemalloc.start()
    try:
        for op in bench_workloads().develop(7, str(tmp_path)):
            op.run()
        assert len(structures) == 3
        kept = []
        for gs in structures:
            before = tracemalloc.get_traced_memory()[0]
            del gs.__dict__["word_tree"]
            gc.collect()
            kept.append(before - tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(kept) <= 1_000_000, kept
    assert min(kept) > 100_000, kept  # each deletion freed its tree: nothing else holds one


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


# The offsets PerturbInputError suggests for the points i and 2i of the
# cuff-1 axis, as recorded before the guard shared the side values.
ON_AXIS_OFFSETS = {
    1j: complex(7.548776662466928e-05, 6.557406991558601e-05),
    2j: complex(0.00015097553324933856, 0.00013114813983117202),
}


@pytest.mark.parametrize("path, message, on_leaf", [
    ([0.5 + 1j, 1j], "segment endpoint", 1j),
    ([1j, 2j], "segment startpoint", 1j),
    ([2j, 1j], "segment startpoint", 2j),
])
def test_endpoint_guard_on_shared_side_values(holonomy, path, message, on_leaf):
    # An endpoint on the leaf at the end of a segment; both endpoints on it,
    # where the start raises first.  The offset is the start's or the end's
    # own, as perturbation_offset finds it.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.0),)), depth=3)
    with pytest.raises(PerturbInputError) as err:
        gs.crossings(path)
    assert str(err.value) == f"{message} lies on a lifted leaf"
    assert err.value.suggested_offset == ON_AXIS_OFFSETS[on_leaf]
    leaves = gs.leaves_near(segment_focus(path))
    assert perturbation_offset(on_leaf, leaves) == ON_AXIS_OFFSETS[on_leaf]
    with pytest.raises(PerturbInputError) as direct:
        lift_crossings(*path, leaves=leaves)
    assert (str(direct.value), direct.value.suggested_offset) == (
        str(err.value), err.value.suggested_offset)


def test_distances_take_the_side_values_they_are_given(holonomy):
    table = enumerate_leaf_lifts(holonomy, CUFF_MULTICURVE, 4, focus=[holonomy.basepoint])
    for z in (0.3 + 1.2j, -2.0 + 0.01j, 5.0 + 40.0j):
        got = table.distances(z, table.sides(z))
        assert got.tobytes() == table.distances(z).tobytes()
        for i in (0, len(table) // 2, len(table) - 1):
            assert got[i] == pytest.approx(distance_to_leaf(z, table[i].geodesic), rel=1e-9)


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
# charts: the one slot a structure keeps


def _count_leaf_queries(monkeypatch) -> list:
    """A list that grows by one entry per ``enumerate_leaf_lifts`` call."""
    calls = []
    enumerate_ = grafting.enumerate_leaf_lifts

    def counting(*args, **kwargs):
        calls.append(None)
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(grafting, "enumerate_leaf_lifts", counting)
    return calls


def test_develop_operations_share_one_chart_per_point(tmp_path, monkeypatch):
    # develop, the bending map and beta at z read one chart; beta at the
    # translate and the detour lift take a query each.  A second pass over
    # the round runs as many queries as the first: no work crosses
    # operations.
    ops = bench_workloads().develop(7, str(tmp_path))
    calls = _count_leaf_queries(monkeypatch)
    for _ in range(2):
        per_op = []
        for op in ops:
            before = len(calls)
            op.run()
            per_op.append(len(calls) - before)
        assert per_op == [3] * 15


def _reads(gs, z):
    f = gs.develop(z)
    return (np.array([f.z0, f.z1]).tobytes(), gs.bending_map(z).matrix.tobytes(),
            [(c.leaf.key(), c.parameter, c.sign) for c in gs.crossings_to(z)])


def test_chart_reads_equal_a_fresh_structures(holonomy, half_pi_structure):
    gs = GraftedStructure(holonomy, half_pi_structure.multicurve, depth=6)
    z1, z2 = -0.5 + 1.2j, 0.4 + 1.5j
    fresh = {z: _reads(GraftedStructure(holonomy, gs.multicurve, depth=6), z) for z in (z1, z2)}
    assert fresh[z1][2] and fresh[z1] != fresh[z2]
    for z in (z1, z2, z1):
        assert _reads(gs, z) == fresh[z]


def test_point_on_a_leaf_raises_on_every_call(holonomy, monkeypatch):
    # 2i lies on the cuff-1 axis; a raised query is never kept.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.0),)), depth=3)
    gs.develop(0.5 + 1.5j)
    calls = _count_leaf_queries(monkeypatch)
    for read in (gs.crossings_to, gs.bending_map, gs.develop, gs.crossings_to):
        with pytest.raises(PerturbInputError):
            read(2j)
    assert len(calls) == 4


def test_crossings_to_returns_a_new_list(holonomy, half_pi_structure):
    # A structure of its own: a session fixture's slot would outlive the test.
    gs = GraftedStructure(holonomy, half_pi_structure.multicurve, depth=6)
    z = -0.5 + 1.2j
    got = gs.crossings_to(z)
    want = list(got)
    got.clear()
    assert gs.crossings_to(z) == want and want


def test_chart_keys_on_exact_bits(holonomy, monkeypatch):
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((2,)), 1.3),)), depth=5)
    gs.basepoint  # noqa: B018 -- the base leaves' query, before counting
    calls = _count_leaf_queries(monkeypatch)
    plus, minus = complex(0.0, 1.7), complex(-0.0, 1.7)
    for z, queries in ((plus, 1), (plus, 1), (minus, 2), (minus, 2), (plus, 3)):
        gs.develop(z)
        assert len(calls) == queries, z


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


@pytest.mark.parametrize("t", [0.5, 1.3])
def test_imaginary_angle_along_a_cuff_is_the_fn_twist(holonomy, t):
    # The one bending product at angle i t along cuff a, over the crossings
    # the structure keeps, is the earthquake that twists a by t: it matches
    # fuchsian_from_fn with twist t1 + t up to conjugacy, and -i t does not.
    gs = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.0),)), depth=6)
    lengths, (t1, t2, t3) = holonomy.fn.lengths, holonomy.fn.twists
    twisted = fuchsian_from_fn(FNCoordinates(lengths, (t1 + t, t2, t3)))
    words = enumerate_words(3)
    assert len(words) == 456

    def worst(angle):
        gens = [bending_product(crossings, [angle]) @ g
                for g, crossings in zip(holonomy.generators, gs.generator_crossings)]
        quake = DeformedHolonomy(generators=tuple(gens), basepoint=gs.basepoint)
        return max(abs(quake.rho(w).trace_squared() / twisted.rho(w).trace_squared() - 1.0)
                   for w in words)

    assert worst(1j * t) <= 1e-7
    assert worst(-1j * t) > 1.0


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
            angle = crossing.sign * gs.multicurve.weights[crossing.leaf.curve_index]
            b = b @ rotation_about_geodesic(crossing.leaf.geodesic, angle)
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
        b = bending_product(lift_crossings(x0, sample, leaves=table), gs.multicurve.weights)
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
        edges.append(PleatedEdge(lf, (outer, face_id_of_leaf[i]),
                                 gs.multicurve.weights[lf.curve_index]))
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
        kept = table.sides(points, rows)
        assert kept.tobytes() == table.sides(points)[:, rows].tobytes()


@pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
def test_pleated_surface_rejects_bad_radius(holonomy, half_pi_structure, radius):
    with pytest.raises(DegenerateInputError, match="truncation radius"):
        pleated_surface(
            holonomy, half_pi_structure.multicurve, depth=6,
            truncation_radius=radius, structure=half_pi_structure,
        )


@pytest.mark.parametrize("field", ["hol", "mc", "depth"])
def test_pleated_surface_refuses_a_structure_of_other_arguments(holonomy, half_pi_structure, field):
    gs = half_pi_structure
    args = dict(hol=holonomy, mc=gs.multicurve, depth=gs.depth)
    args[field] = {
        "hol": fuchsian_from_fn(SEGMENT_INSTANCES[0]),  # equal to holonomy, another object
        "mc": WeightedMulticurve(((GroupWord((-4,)), math.pi / 2.0),)),
        "depth": 3,
    }[field]
    with pytest.raises(ValueError, match="structure is not the grafted structure"):
        pleated_surface(**args, truncation_radius=2.0, structure=gs)


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
        plane = PlaneH3(OrientedCircle.real_line().transform(bmap))
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
