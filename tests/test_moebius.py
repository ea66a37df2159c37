import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cp1graft.moebius as moebius
from cp1graft.moebius import (
    INFINITY,
    DegenerateInputError,
    MoebiusMap,
    NoIntersectionError,
    OrientedCircle,
    PointCP1,
    affine_stack,
    angle_between,
    apply,
    apply_stack,
    chordal_distance,
    circle_through,
    classify,
    cp1,
    cross_ratio,
    inversive_product,
    minimal_enclosing_disk,
)
from conftest import CUBE_VERTICES, cocircular_rows, projected, turned
from oracles import (
    brute_force_minimal_disk,
    least_squares_circle,
    lockstep_med_mismatches,
    oriented_tangent_angle,
)


def random_moebius(rng):
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if abs(np.linalg.det(m)) > 0.1:
            return MoebiusMap(m)


# ---------------------------------------------------------------------------
# apply


def test_apply_identity():
    p = PointCP1(1, 1)
    q = apply(MoebiusMap.identity(), p)
    assert chordal_distance(p, q) < 1e-12


def test_apply_diagonal_fixes_zero():
    m = MoebiusMap.from_entries(2, 0, 0, 0.5)
    assert chordal_distance(apply(m, cp1(0)), cp1(0)) < 1e-12


def test_apply_parabolic_fixes_infinity():
    m = MoebiusMap.from_entries(1, 1, 0, 1)
    assert chordal_distance(apply(m, INFINITY), INFINITY) < 1e-12


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = random_moebius(rng)
        p = cp1(complex(rng.normal(), rng.normal()))
        q = apply(m.inverse(), apply(m, p))
        assert chordal_distance(p, q) < 1e-9


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_projective_sign_quotient(seed):
    # apply(-M, p) = apply(M, p): the sign is quotiented out.
    rng = np.random.default_rng(seed)
    m = random_moebius(rng)
    p = cp1(complex(rng.normal(), rng.normal()))
    neg = MoebiusMap(-m.matrix)
    assert chordal_distance(apply(m, p), apply(neg, p)) < 1e-12


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_cross_ratio_invariance(seed):
    rng = np.random.default_rng(seed)
    m = random_moebius(rng)
    pts = []
    while len(pts) < 4:
        cand = cp1(complex(rng.normal(), rng.normal()))
        if all(chordal_distance(cand, p) > 1e-3 for p in pts):
            pts.append(cand)
    cr1 = cross_ratio(*pts)
    cr2 = cross_ratio(*(apply(m, p) for p in pts))
    assert abs(cr1 - cr2) < 1e-8 * max(1.0, abs(cr1))


# ---------------------------------------------------------------------------
# classify


def test_classify_hyperbolic_diagonal():
    cls = classify(MoebiusMap.from_entries(2, 0, 0, 0.5))
    assert cls.kind == "hyperbolic"
    fixed = {("0" if not p.is_infinity and abs(p.as_complex()) < 1e-9 else "inf")
             for p in cls.fixed_points if p.is_infinity or abs(p.as_complex()) < 1e-9}
    assert fixed == {"0", "inf"}


def test_classify_parabolic():
    cls = classify(MoebiusMap.from_entries(1, 1, 0, 1))
    assert cls.kind == "parabolic"
    assert not cls.parabolic_ambiguous
    assert len(cls.fixed_points) == 1
    assert cls.fixed_points[0].is_infinity


def test_classify_elliptic_rotation():
    cls = classify(MoebiusMap.from_entries(0, -1, 1, 0))
    assert cls.kind == "elliptic"
    got = sorted(p.as_complex().imag for p in cls.fixed_points)
    assert got == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_classify_identity():
    cls = classify(MoebiusMap.identity())
    assert cls.kind == "identity"
    assert cls.fixed_points == ()


def test_classify_parabolic_ambiguous_band():
    # tr - 2 of order delta^2: pick delta so tr^2 - 4 lands inside the band.
    delta = 3e-6
    m = MoebiusMap.from_entries(1 + delta, 1, 0, 1 / (1 + delta))
    cls = classify(m)
    assert cls.kind == "parabolic"
    assert cls.parabolic_ambiguous


def test_classify_loxodromic():
    cls = classify(MoebiusMap.from_entries(2j, 0, 0, -0.5j))
    assert cls.kind == "loxodromic"


# ---------------------------------------------------------------------------
# circle_through


def test_circle_through_real_line():
    c = circle_through(cp1(0), cp1(1), INFINITY)
    assert c.is_line
    # Positively ordered (0, 1, inf): disk side is the upper half-plane.
    assert c.evaluate(cp1(1j)) < 0
    assert c.evaluate(cp1(-1j)) > 0


def test_circle_through_unit_circle():
    c = circle_through(cp1(1), cp1(1j), cp1(-1))
    center, radius = c.center_radius()
    assert abs(center) < 1e-10
    assert radius == pytest.approx(1.0, abs=1e-10)
    assert c.evaluate(cp1(0)) < 0  # counterclockwise: disk is the interior


def test_circle_through_least_squares_oracle():
    pts = [0, 2, 1 + 1j]
    c = circle_through(*(cp1(p) for p in pts))
    center, radius = c.center_radius()
    oc, orad = least_squares_circle(pts)
    assert abs(center - oc) < 1e-9
    assert radius == pytest.approx(orad, abs=1e-9)
    assert abs(center - 1.0) < 1e-9 and radius == pytest.approx(1.0, abs=1e-9)


def test_circle_through_coincident_points_rejected():
    with pytest.raises(DegenerateInputError):
        circle_through(cp1(0), cp1(0), cp1(1))


def test_circle_transport_naturality():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = [cp1(complex(rng.normal(), rng.normal())) for _ in range(3)]
        try:
            c = circle_through(*pts)
        except DegenerateInputError:
            continue
        m = random_moebius(rng)
        lhs = c.transform(m)
        rhs = circle_through(*(apply(m, p) for p in pts))
        # Hermitian forms agree up to sign after det normalization.
        d = min(
            float(np.linalg.norm(lhs.hermitian - rhs.hermitian)),
            float(np.linalg.norm(lhs.hermitian + rhs.hermitian)),
        )
        assert d < 1e-7


# ---------------------------------------------------------------------------
# angle_between


def test_angle_unit_circle_vs_real_line():
    c1 = OrientedCircle.from_center_radius(0, 1)
    c2 = OrientedCircle.real_line()
    assert angle_between(c1, c2) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_angle_same_circle_is_zero():
    c = OrientedCircle.from_center_radius(0.3 + 0.1j, 2.0)
    assert angle_between(c, c) == pytest.approx(0.0, abs=1e-7)


def test_angle_overlapping_unit_circles_tangent_oracle():
    c1 = OrientedCircle.from_center_radius(0, 1)
    c2 = OrientedCircle.from_center_radius(1, 1)
    want = oriented_tangent_angle(0, 1, True, 1, 1, True)
    assert angle_between(c1, c2) == pytest.approx(want, abs=1e-12)
    assert angle_between(c1, c2) == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_angle_orientation_reversal_supplements():
    c1 = OrientedCircle.from_center_radius(0, 1)
    c2 = OrientedCircle.from_center_radius(1, 1)
    a = angle_between(c1, c2)
    b = angle_between(c1, c2.reversed())
    assert a + b == pytest.approx(math.pi, abs=1e-12)


def test_angle_disjoint_circles_rejected():
    c1 = OrientedCircle.from_center_radius(0, 1)
    c2 = OrientedCircle.from_center_radius(5, 1)
    with pytest.raises(NoIntersectionError):
        angle_between(c1, c2)


def test_angle_moebius_invariance():
    rng = np.random.default_rng(23)
    c1 = OrientedCircle.from_center_radius(0, 1)
    c2 = OrientedCircle.from_center_radius(0.8, 0.9)
    base = angle_between(c1, c2)
    for _ in range(30):
        m = random_moebius(rng)
        moved = angle_between(c1.transform(m), c2.transform(m))
        assert moved == pytest.approx(base, abs=1e-7)


# ---------------------------------------------------------------------------
# minimal_enclosing_disk


def test_med_diameter_pair():
    d = minimal_enclosing_disk([0, 2])
    assert abs(d.center - 1.0) < 1e-12
    assert d.radius == pytest.approx(1.0, abs=1e-12)


def test_med_singleton():
    d = minimal_enclosing_disk([3 + 4j])
    assert d.center == 3 + 4j
    assert d.radius == 0.0


def test_med_three_points_vs_oracle():
    d = minimal_enclosing_disk([0, 1, 1j])
    oc, orad = brute_force_minimal_disk([0, 1, 1j])
    assert abs(d.center - oc) < 1e-12
    assert d.radius == pytest.approx(orad, abs=1e-12)


def test_med_insertion_order_is_a_fresh_shuffle():
    """The cached order is the one a new random.Random(seed) draws."""
    for n in range(1, 21):
        for seed in range(4):
            order = list(range(n))
            random.Random(seed).shuffle(order)
            assert moebius._insertion_order(n, seed) == tuple(order)


def test_med_empty_rejected():
    with pytest.raises(DegenerateInputError):
        minimal_enclosing_disk([])


def test_med_random_sets_vs_oracle():
    rng = np.random.default_rng(3)
    for case in range(200):
        pts = [complex(rng.normal(), rng.normal()) for _ in range(10)]
        d = minimal_enclosing_disk(pts, seed=case)
        oc, orad = brute_force_minimal_disk(pts)
        assert abs(d.radius - orad) < 1e-9
        assert abs(d.center - oc) < 1e-8


def test_med_support_on_boundary():
    rng = np.random.default_rng(8)
    pts = [complex(rng.normal(), rng.normal()) for _ in range(12)]
    d = minimal_enclosing_disk(pts)
    assert 2 <= len(d.support) <= 3
    for i in d.support:
        assert abs(abs(pts[i] - d.center) - d.radius) < 1e-9


# ---------------------------------------------------------------------------
# minimal_enclosing_disks: the lockstep kernel against Welzl, bit for bit

def _med_family(family: str, rng) -> list:
    """One point set of a family that the lockstep kernel must hold to
    Welzl's bits, ties and near-degeneracies included."""
    if family == "random":
        return list(rng.normal(size=12) + 1j * rng.normal(size=12))
    if family == "ngon":
        k = int(rng.integers(3, 13))
        return list(np.exp(2j * np.pi * np.arange(k) / k + 1j * rng.uniform(0, 2 * np.pi)))
    if family == "grid":
        return [complex(i, j) for i in range(3) for j in range(3)]
    if family == "cube":
        return projected(turned(CUBE_VERTICES, rng))
    if family == "tetrahedron":
        return projected(turned([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], rng))
    if family == "right":
        # a triangle on a circle, right-angled within 1e-14 .. 1e-6
        t = rng.uniform(0, 2 * np.pi, 2) + [0.0, np.pi + 10.0 ** rng.uniform(-14, -6)]
        return list(np.exp(1j * np.append(t, rng.uniform(0, 2 * np.pi))))
    # near-collinear: a triple off its line by 1e-16 .. 1e-8 of its length
    a, d = rng.normal() + 1j * rng.normal(), cmath.exp(1j * rng.uniform(0, 2 * np.pi))
    t = rng.uniform(-1.0, 1.0, 3)
    off = 10.0 ** rng.uniform(-16, -8, 3) * rng.choice([-1, 1], 3)
    return list(a + d * (t + 1j * off))


@st.composite
def med_blocks(draw):
    """A (Q, N) stack of rows of one family, each row moved by a random
    similarity or sent through z -> 1/(z - x) as a maximal-disk query moves
    it, in one block in four moved up to 1e8 times its size away from 0,
    and kept within |z| <= 100; then cut or filled with inner points to N,
    given duplicates, and scaled by 1, 1e-8, 1e-150 or 1e150 (so that
    Welzl's squares stay below float overflow, which it raises)."""
    family = draw(st.sampled_from(
        ["random", "ngon", "grid", "cube", "tetrahedron", "right", "collinear"]))
    n = draw(st.integers(min_value=1, max_value=40))
    q = draw(st.integers(min_value=1, max_value=6))
    dups = draw(st.integers(min_value=0, max_value=3))
    scale = draw(st.sampled_from([1.0, 1e-8, 1e-150, 1e150]))
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for _ in range(q):
        z = np.array(_med_family(family, rng))
        if rng.uniform() < 0.5:
            z = 1.0 / (z - complex(*rng.uniform(-2.0, 2.0, 2)))
        else:
            z = z * cmath.exp(1j * rng.uniform(0, 2 * np.pi)) * 10.0 ** rng.uniform(-2, 2)
        z = z + shift * 10.0 ** rng.uniform(0, 8) * np.abs(z).max() * cmath.exp(1j * rng.uniform(0, 7))
        z = z / max(1.0, np.abs(z).max() / 100.0)
        rng.shuffle(z)
        if len(z) < n:
            c, r = z.mean(), np.abs(z - z.mean()).max()
            fill = c + 0.9 * r * np.sqrt(rng.uniform(size=n - len(z))) * np.exp(
                2j * np.pi * rng.uniform(size=n - len(z)))
            z = np.concatenate([z, fill])
        z = z[:n]
        for _ in range(min(dups, n - 1)):
            z[rng.integers(n)] = z[rng.integers(n)]
        rows.append(rng.permutation(z) * scale)
    return np.array(rows)


# Four points 2e-8 across: Welzl's absolute collinearity test calls every
# triple of them collinear, and its disk leaves one of them out.
TINY_ROW = [6.451428100823489e-09 + 1.0239648936691576e-08j, 1.7912385592581572e-08 - 3.314595683732262e-09j,
            -4.451247610121966e-09 - 7.402890519646409e-09j, 6.3026838293230436e-09 - 1.579389810636022e-08j]
# Five points 3 across at 1e8 from 0: Welzl's circumcentres lose their
# precision and its steps leave the exact support.
FAR_ROW = [99999999.713 + 1.031j, 100000001.574 + 0.161j, 99999999.567 - 0.586j,
           99999999.265 - 1.341j, 100000000.25 - 1.402j]

# A triangle on the unit circle right-angled within 1e-13, and two inner
# points: Welzl's disk is the pair disk on the hypotenuse.
RIGHT_ROW = [-0.03852072188407214 - 0.014928485690224877j, 0.22017742895855677 - 0.9754598401662673j,
             0.4274056623515 + 0.567205020780351j, 0.38242403566601474 + 0.9239869354838945j,
             -0.22017742895869624 + 0.9754598401662358j]


@given(med_blocks())
@example(np.array([TINY_ROW]))
@example(np.array([FAR_ROW]))
@example(np.array([RIGHT_ROW]))
@settings(max_examples=150, deadline=None)
def test_lockstep_disks_match_welzl_bit_for_bit(z):
    assert lockstep_med_mismatches(z) == []


def test_lockstep_disks_send_cocircular_ties_to_welzl(monkeypatch):
    """Every hexagon row is a tie, and so are the cube rows whose circle
    holds a face: Welzl runs on the points of the circle, bit for bit as on
    the whole row."""
    ties = []
    band = moebius._welzl_on_band
    monkeypatch.setattr(moebius, "_welzl_on_band", lambda row, *a: ties.append(1) or band(row, *a))
    hexagons, cubes = cocircular_rows(np.random.default_rng(27))
    assert lockstep_med_mismatches(hexagons) == [] and len(ties) == 20
    assert lockstep_med_mismatches(cubes) == [] and len(ties) > 20


def test_lockstep_disks_route_small_blocks_and_bad_rows_to_welzl(monkeypatch):
    calls = []
    scalar = moebius.minimal_enclosing_disk
    monkeypatch.setattr(moebius, "minimal_enclosing_disk", lambda p: calls.append(1) or scalar(p))
    rng = np.random.default_rng(5)
    small = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
    assert len(small.ravel()) < moebius._MED_LOCKSTEP_POINTS
    moebius.minimal_enclosing_disks(small)
    assert len(calls) == 4
    calls.clear()
    big = rng.normal(size=(40, 12)) + 1j * rng.normal(size=(40, 12))
    big[3, 5], big[7, 0] = complex("nan"), 1e300
    disks, faults = moebius.minimal_enclosing_disks(big)
    assert set(faults) == {3} and disks[3] is None
    assert "finite" in str(faults[3]) and len(calls) == 2
    assert all(d is not None for j, d in enumerate(disks) if j != 3)


def test_apply_stack_matches_apply_bit_for_bit():
    rng = np.random.default_rng(41)
    pts = [cp1(complex(*rng.normal(size=2))) for _ in range(12)] + [INFINITY]
    pairs = np.array([(q.z0, q.z1) for q in (p.normalized() for p in pts)])
    for _ in range(40):
        m = MoebiusMap(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        rows = apply_stack(m, pairs)
        images = [apply(m, p) for p in pts]
        assert rows.tolist() == [[q.z0, q.z1] for q in images]
        finite = [q.as_complex() for q in images if not q.is_infinity]
        if len(finite) == len(images):
            assert affine_stack(rows) == finite
    with pytest.raises(DegenerateInputError, match="at infinity"):
        affine_stack(pairs)
    # Long adversarial stacks, bit for bit, signs of zeros included.
    rows = _adversarial_rows(rng)
    pts = [PointCP1(complex(z0), complex(z1)) for z0, z1 in rows]
    pairs = moebius.unit_pairs(rows)
    for _ in range(4):
        m = random_moebius(rng)
        images = np.array([(q.z0, q.z1) for q in (apply(m, p) for p in pts)])
        assert apply_stack(m, pairs).tobytes() == images.tobytes()


def _adversarial_rows(rng, n=2000) -> np.ndarray:
    """Homogeneous pairs where numpy's and CPython's arithmetic part ways:
    Gaussian rows, rows scaled by e^+-300, real rows (with +0.0 and -0.0
    imaginary parts), rows at and near infinity, affine rows, and every pair
    of complex numbers whose parts are signed zeros, units or 2.5."""
    def gauss(k=n):
        return rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))

    real, negzero = rng.normal(size=(n, 2)).astype(complex), rng.normal(size=(n, 2)).astype(complex)
    negzero.imag = -0.0
    parts = (0.0, -0.0, 1.0, -1.0, 2.5)
    small = [complex(a, b) for a in parts for b in parts]
    return np.concatenate([
        gauss(),
        gauss() * np.exp(rng.choice([-300.0, 300.0], size=(n, 1))),
        real,
        negzero,
        np.column_stack([gauss()[:, 0], np.zeros(n)]),
        np.column_stack([gauss()[:, 0], 1e-9 * gauss()[:, 1]]),
        np.column_stack([gauss()[:, 0], np.ones(n)]),
        np.array([(x, y) for x in small for y in small if abs(x) + abs(y) > 0]),
    ])


def test_pair_kernel_matches_per_point_bit_for_bit():
    rows = _adversarial_rows(np.random.default_rng(43))
    pts = [PointCP1(complex(z0), complex(z1)) for z0, z1 in rows]
    unit = np.array([(q.z0, q.z1) for q in (p.normalized() for p in pts)])
    xyz = np.array([p.sphere_coords() for p in pts])
    assert moebius.unit_pairs(rows).tobytes() == unit.tobytes()
    assert moebius.sphere_xyz(rows).tobytes() == xyz.tobytes()
    # Stacks of any leading shape are mapped row by row.
    assert moebius.sphere_xyz(rows[:600].reshape(300, 2, 2)).tobytes() == xyz[:600].tobytes()
    chords = np.array([chordal_distance(p, q) for p, q in zip(pts, pts[1:])])
    assert moebius.chordal_rows(xyz[:-1], xyz[1:]).tobytes() == chords.tobytes()
    z, at_inf = moebius.affine_rows(rows)
    assert at_inf.tolist() == [p.is_infinity for p in pts]
    finite = np.array([p.as_complex() for p in pts if not p.is_infinity])
    assert 0 < len(finite) < len(pts)
    assert z[~at_inf].tobytes() == finite.tobytes()


def test_frobenius_rows_match_proj_distance():
    rng = np.random.default_rng(44)
    circles = [
        OrientedCircle.from_center_radius(complex(*rng.normal(size=2)), rng.uniform(0.1, 2.0))
        for _ in range(200)
    ]
    h = np.array([c.hermitian.ravel() for c in circles])
    want = np.array([a.proj_distance(b) for a, b in zip(circles, circles[1:])])
    assert moebius.frobenius_rows(h[:-1], h[1:]).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [(0j, 0j), (complex(math.nan, 0.0), 1 + 0j), (1 + 0j, complex(0.0, math.inf))])
def test_pair_kernel_rejects_what_pointcp1_rejects(bad):
    with pytest.raises(DegenerateInputError):
        PointCP1(*bad)
    rows = np.array([(1 + 0j, 2 + 0j), bad])
    for kernel in (moebius.unit_pairs, moebius.sphere_xyz):
        with pytest.raises(DegenerateInputError):
            kernel(rows)


def test_point_with_a_huge_coordinate_is_a_point():
    # 1e200 squared overflows a float; the norm, taken by hypot, does not.
    p = PointCP1(1e200, 1)
    assert (p.z0, p.z1) == (1e200, 1)
    assert moebius.unit_pairs(np.array([(1e200, 1)], dtype=complex)).tolist() == [
        [p.normalized().z0, p.normalized().z1]]


def test_point_with_a_tiny_coordinate_is_infinity():
    # 1e-170 squared underflows to 0; the norm, taken by hypot, does not.
    p = PointCP1(1e-170, 0)
    assert p.is_infinity
    assert moebius.unit_pairs(np.array([(1e-170, 0)], dtype=complex)).tolist() == [[1.0, 0.0]]


# Parts of pairs: signed magnitudes from 1e-300 to 1e300, signed zeros,
# infinities and NaN.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(lambda sign, e, m: sign * m * 10.0 ** e,
              st.sampled_from([-1.0, 1.0]), st.integers(-300, 299), st.floats(1.0, 9.99)),
)


def _outcome(check):
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@given(st.lists(st.tuples(_PARTS, _PARTS, _PARTS, _PARTS), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_check_rows_rejects_exactly_what_pointcp1_rejects(parts):
    rows = np.array([(complex(a, b), complex(c, d)) for a, b, c, d in parts])
    want = [_outcome(lambda r=r: PointCP1(complex(r[0]), complex(r[1]))) for r in rows]
    assert [_outcome(lambda r=r: moebius._check_rows(r[None])) for r in rows] == want
    # A stack raises the error of its first rejected row.
    assert _outcome(lambda: moebius._check_rows(rows)) == next(filter(None, want), None)


def _adversarial_matrices(rng) -> np.ndarray:
    """2x2 complex matrices, random and made of ``_adversarial_rows``."""
    rows = _adversarial_rows(rng)
    rows = rows[rng.permutation(len(rows))][: len(rows) // 2 * 2]
    gauss = rng.normal(size=(3000, 2, 2)) + 1j * rng.normal(size=(3000, 2, 2))
    return np.concatenate([gauss, rows.reshape(-1, 2, 2)])


def test_det_parts_match_the_scalar_determinants():
    """The real-arithmetic determinant of the kernels has the bits of the
    scalar determinant MoebiusMap and OrientedCircle took with numpy's
    scalar products, on stacks and on one matrix's parts (numpy's array
    product may round differently, as it does on AVX-512 hosts)."""
    mats = _adversarial_matrices(np.random.default_rng(45))
    herm = (mats + np.conj(mats).transpose(0, 2, 1)) / 2.0
    for stack in (mats, herm):
        want = np.array([m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] for m in stack])
        re, im = moebius.det_parts(*stack.reshape(-1, 4).view(float).T)
        assert re.tobytes() == want.real.tobytes() and im.tobytes() == want.imag.tobytes()
        one = np.array([complex(*moebius.det_parts(*m.ravel().view(float).tolist())) for m in stack])
        assert one.tobytes() == want.tobytes()


def test_kernels_match_the_scalar_constructors():
    """``moebius_rows`` and ``circle_rows`` give every matrix MoebiusMap and
    OrientedCircle store, and fault exactly the matrices they reject, with
    their messages."""
    rng = np.random.default_rng(46)
    mats = _adversarial_matrices(rng)
    mats[::97] = 0.0
    herm = (mats + np.conj(mats).transpose(0, 2, 1)) / 2.0
    herm[::5] += 1e-9 * mats[::5]  # off Hermitian by more than TOL_ALG
    for kernel, make, stack in ((moebius.moebius_rows, MoebiusMap, mats),
                                (moebius.circle_rows, OrientedCircle, herm)):
        rows, faults = kernel(stack)
        errors = 0
        for i, m in enumerate(stack):
            try:
                want = make(m)
            except DegenerateInputError as exc:
                assert faults[i] == str(exc)
                errors += 1
                continue
            assert i not in faults
            stored = want.matrix if make is MoebiusMap else want.hermitian
            assert rows[i].tobytes() == stored.tobytes()
        assert errors == len(faults) > 0
        assert len(set(faults.values())) == (1 if make is MoebiusMap else 2)
