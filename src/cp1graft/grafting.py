"""Grafting along weighted multicurves on a Fuchsian base: leaf lifts,
crossing enumeration, the bending cocycle deforming the holonomy, pleated
surface meshes and developing-map continuation.

Coordinates: the hyperbolic plane is the upper half-plane UHP in C, embedded
in H^3 as the vertical plane over the real axis.  Leaf lifts are geodesics
with real ideal endpoints (axes of conjugates of the multicurve words).

Sign convention: a crossing counts positive when the oriented leaf (from
repelling to attracting fixed point) passes left-to-right across the
oriented segment, and the bending rotation about the leaf uses that sign.
The opposite convention would produce the complex-conjugate structures.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moebius import (
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    OrientedCircle,
    PointCP1,
    apply,
    chordal_rows,
    classify,
    cp1,
    normalize_stack,
    sphere_xyz,
)
from .hyperbolic import (
    GeodesicH3,
    PlaneH3,
    PointH3,
    apply_isometry,
    geodesic_point,
    rotation_about_geodesic,
)
from .surface import (
    FuchsianHolonomy,
    GroupWord,
    Representation,
    axis,
    first_rows,
    geodesic_through_uhp,
    word_children,
    word_products,
    LETTER_ORDER,
)


class InvalidMulticurveError(ValueError):
    """Entries whose geodesic representatives intersect (or are not simple)."""


class PerturbInputError(ValueError):
    """A segment endpoint lies on a lifted leaf; carries a suggested offset."""

    def __init__(self, message: str, suggested_offset: complex):
        super().__init__(message)
        self.suggested_offset = suggested_offset


def embed_cp1(z: complex) -> PointCP1:
    return PointCP1.from_complex(z)


def embed_h3(z: complex) -> PointH3:
    """UHP point as a point of the vertical plane over the real axis."""
    if z.imag <= 0:
        raise DegenerateInputError("point must lie in the upper half-plane")
    return PointH3(complex(z.real, 0.0), z.imag)


# ---------------------------------------------------------------------------
# Multicurves and lifted leaves


# A weight is a multiple of 2 pi when w / 2 pi is this close to an integer.
TOL_TWO_PI_MULTIPLE = 1e-9


def is_two_pi_multiple(w: float) -> bool:
    k = w / (2.0 * math.pi)
    return abs(k - round(k)) < TOL_TWO_PI_MULTIPLE


@dataclass(frozen=True)
class WeightedMulticurve:
    """Disjoint simple closed geodesics named by group words, with weights
    in radians (weight 0 entries are allowed and act trivially)."""

    entries: tuple  # of (GroupWord, float)

    def __post_init__(self):
        ents = []
        for word, weight in self.entries:
            if not isinstance(word, GroupWord):
                word = GroupWord.parse(str(word))
            w = float(weight)
            if w < 0:
                raise InvalidMulticurveError("weights must be nonnegative")
            ents.append((word, w))
        object.__setattr__(self, "entries", tuple(ents))

    @property
    def words(self):
        return tuple(w for w, _ in self.entries)

    @property
    def weights(self):
        return tuple(t for _, t in self.entries)

    def weight_of(self, word: GroupWord) -> float:
        for w, t in self.entries:
            if w.letters == word.letters:
                return t
        raise KeyError(f"curve {word} is not in the multicurve")


@dataclass(frozen=True)
class LiftedLeaf:
    """A lift of a multicurve leaf: the axis of a conjugate w g w^-1,
    oriented from repelling to attracting fixed point."""

    geodesic: GeodesicH3
    weight: float
    curve_index: int
    conjugator: GroupWord

    @cached_property
    def circle(self) -> OrientedCircle:
        return _geodesic_circle(self.geodesic)

    def key(self):
        a = tuple(np.round(self.geodesic.p.sphere_coords(), 9))
        b = tuple(np.round(self.geodesic.q.sphere_coords(), 9))
        return (self.curve_index, min(a, b), max(a, b))


def _geodesic_circle(g: GeodesicH3) -> OrientedCircle:
    """The circle through the (real) ideal endpoints orthogonal to the real
    axis; the disk side is fixed but unused (only signs of sides matter)."""
    if g.p.is_infinity or g.q.is_infinity:
        finite = g.q if g.p.is_infinity else g.p
        a = finite.as_complex().real
        # Vertical line Re z = a.
        h = np.array([[0.0, 1.0], [1.0, -2.0 * a]], dtype=complex)
        return OrientedCircle(h)
    a = g.p.as_complex().real
    b = g.q.as_complex().real
    c, r = (a + b) / 2.0, abs(b - a) / 2.0
    if r < TOL_GEO:
        raise DegenerateInputError("degenerate leaf endpoints")
    return OrientedCircle.from_center_radius(c, r)


def _real_normalizer(u: PointCP1, v: PointCP1) -> MoebiusMap:
    """Real Moebius map with u -> 0, v -> infinity preserving UHP."""
    if u.is_infinity:
        vv = v.as_complex().real
        return MoebiusMap(np.array([[0.0, 1.0], [-1.0, vv]], dtype=complex))
    if v.is_infinity:
        uu = u.as_complex().real
        return MoebiusMap(np.array([[1.0, -uu], [0.0, 1.0]], dtype=complex))
    uu, vv = u.as_complex().real, v.as_complex().real
    if vv > uu:
        return MoebiusMap(np.array([[1.0, -uu], [-1.0, vv]], dtype=complex))
    return MoebiusMap(np.array([[1.0, -uu], [1.0, -vv]], dtype=complex))


def hyperbolic_distance_uhp(z: complex, w: complex) -> float:
    x = 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
    return math.acosh(max(x, 1.0))


def distance_to_leaf(z: complex, leaf_geodesic: GeodesicH3) -> float:
    """Hyperbolic distance from a UHP point to a geodesic with real endpoints."""
    n = _real_normalizer(leaf_geodesic.p, leaf_geodesic.q)
    w = n(z)
    return math.asinh(abs(w.real) / w.imag)


def uhp_geodesic_point(p: complex, q: complex, s: float) -> complex:
    """Constant-speed point at parameter s in [0,1] on the H^2 geodesic p->q."""
    g = geodesic_point(embed_h3(p), embed_h3(q), s)
    return complex(g.z.real, g.t)


def element_keys(mats: np.ndarray) -> list[bytes]:
    """Dedup keys of group elements given as an (N, 2, 2) stack of
    normalized matrices: entries rounded to 9 decimals, with -0.0 folded
    into 0.0 so that one element cannot get two keys."""
    return [m.tobytes() for m in np.round(mats, 9) + 0.0]


def _quotient_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a / b) elementwise, by the same steps as Python's complex
    division (so it matches PointCP1.as_complex().real bit for bit)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        by_real = np.abs(b.real) >= np.abs(b.imag)
        ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
        return np.where(
            by_real,
            (a.real + a.imag * ratio) / (b.real + b.imag * ratio),
            (a.real * ratio + a.imag) / (b.real * ratio + b.imag),
        )


def _real_ends(ends: np.ndarray) -> np.ndarray:
    """Real coordinates (PointCP1.as_complex().real) of (..., 2) homogeneous
    pairs, nan where PointCP1.is_infinity holds."""
    z0, z1 = ends[..., 0], ends[..., 1]
    at_inf = np.hypot(z1.real, z1.imag) <= TOL_GEO * np.hypot(z0.real, z0.imag)
    return np.where(at_inf, np.nan, _quotient_real(z0, z1))


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise tuple comparison a < b of (N, 3) arrays."""
    return (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & (
        (a[:, 1] < b[:, 1]) | ((a[:, 1] == b[:, 1]) & (a[:, 2] < b[:, 2]))))


def _side_values(frame, z) -> np.ndarray:
    """``LeafTable.sides`` over the leaves of ``frame`` = (line, a, b)."""
    line, a, b = frame
    x, y = z.real, z.imag
    return np.where(line, x - a, (x - a) * (x - b) + y * y)


class LeafTable(Sequence):
    """Leaf lifts as columns.  Row i is the LiftedLeaf built from row i of
    each column, made on first access and then kept.

    Columns, one entry per leaf:
      ends        (L, 2, 2) complex: homogeneous pairs (z0, z1) of the
                  repelling and the attracting endpoint
      weight      (L,) float
      curve       (L,) int, the multicurve entry the leaf lifts
      conjugator  (L,) int, an element of the BFS tree, spelled by ``word``

    The array methods (``sides``, ``distances``, ``real_ends``) read the
    leaf geometry the way the rows' ``circle`` and ``distance_to_leaf`` do,
    so callers test every leaf without building rows.
    """

    def __init__(self, ends, weight, curve, conjugator, parent, letter):
        self.ends = ends
        self.weight = weight
        self.curve = curve
        self.conjugator = conjugator
        self._parent = parent
        self._letter = letter
        self._rows = [None] * len(ends)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("leaf index out of range")
        row = self._rows[i]
        if row is None:
            (p0, p1), (q0, q1) = self.ends[i]
            row = LiftedLeaf(
                geodesic=GeodesicH3(
                    PointCP1(complex(p0), complex(p1)), PointCP1(complex(q0), complex(q1))
                ),
                weight=float(self.weight[i]),
                curve_index=int(self.curve[i]),
                conjugator=self.word(int(self.conjugator[i])),
            )
            self._rows[i] = row
        return row

    def word(self, element: int) -> GroupWord:
        letters = []
        while element:
            letters.append(int(self._letter[element]))
            element = int(self._parent[element])
        return GroupWord(tuple(reversed(letters)))

    @cached_property
    def real_ends(self) -> np.ndarray:
        """(L, 2) real coordinates of the endpoints, nan at infinity."""
        return _real_ends(self.ends)

    @cached_property
    def _frame(self):
        """(line, a, b): leaf Re z = a where ``line``, otherwise the half
        circle over a and b (the geometry of ``_geodesic_circle``)."""
        x = self.real_ends
        at_inf = np.isnan(x)
        line = at_inf.any(axis=1)
        a = np.where(at_inf[:, 0], x[:, 1], x[:, 0])
        b = np.where(line, np.nan, x[:, 1])
        return line, a, b

    def sides(self, z: complex) -> np.ndarray:
        """Side value of z for every leaf, with the sign of the row circle's
        ``evaluate``: (x - a)(x - b) + y^2, or x - a for a vertical leaf."""
        return _side_values(self._frame, z)

    def distances(self, z: complex) -> np.ndarray:
        """Hyperbolic distance from the UHP point z to every leaf."""
        line, a, b = self._frame
        width = np.where(line, 1.0, np.abs(b - a))
        return np.arcsinh(np.abs(self.sides(z)) / (z.imag * width))


# Group elements the leaf-lift BFS may visit before it gives up.
MAX_LEAF_ELEMENTS = 500_000


def enumerate_leaf_lifts(
    hol: FuchsianHolonomy,
    mc: WeightedMulticurve,
    depth: int,
    focus: list[complex],
    margin: float = 4.0,
) -> LeafTable:
    """All distinct lifts w . axis(gamma_i) for conjugators w of length <=
    depth whose orbit point stays within reach of the focus set, as a
    LeafTable (columns: endpoints, weight, curve index, conjugator).

    Any leaf crossing the focus region has a conjugator representative
    (slide along the curve's own powers) whose orbit point comes within
    d(x0, axis) + length/2 of the crossing, so pruning the BFS at that
    radius plus a hyperbolicity margin keeps every relevant prefix chain.

    The BFS runs level by level on (N, 2, 2) stacks.  Within a level the
    candidates come in frontier order, then in LETTER_ORDER; a candidate is
    kept unless its orbit point x0 is farther than the radius from every
    focus point or an earlier element has the same ``element_keys`` key.
    Lifts whose endpoints contract below resolution are dropped.  Rows are
    sorted by ``LiftedLeaf.key`` (curve index, then the two rounded
    endpoint sphere coordinates) and the keys are unique; each row's
    conjugator is the first element, in BFS order, whose image of the axis
    has that key.  The keys come from ``sphere_xyz``, so each is its row's
    ``LiftedLeaf.key`` bit for bit, and the chord test drops exactly the
    lifts whose endpoints GeodesicH3 rejects as closer than TOL_GEO.
    """
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


def leaf_intervals(real_ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= hi: each leaf's endpoints after the real Moebius
    map x -> -1 / (x - mu), which puts every endpoint in [0, 1) (infinity
    at 0.0) while keeping the cyclic order of the real line."""
    finite = ~np.isnan(real_ends)
    mu = (np.max(np.abs(real_ends[finite])) if finite.any() else 0.0) + 1.618033988749895
    arr = np.sort(np.where(finite, -1.0 / (real_ends - mu), 0.0), axis=1)
    return arr[:, 0], arr[:, 1]


# Entries of the link matrix computed at once by the exact scan.
LINK_BLOCK = 1 << 18


def first_linked_pair(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int] | None:
    """The first linked pair (i, j) of the intervals [lo, hi], or None, by
    the link rule stated in ``check_multicurve``, in O(L log L) when no
    pair is linked and no two endpoints tie.

    Distinct endpoints are tested by one sweep over them in sorted order:
    an opening endpoint gets the nesting depth after it and a closing one
    the depth before it, and the family is laminar exactly when, level by
    level, each opening is followed by the closing of the same interval.
    Ties, and a sweep that finds an interleaving, fall back to the exact
    scan of the rule, rows i in order, LINK_BLOCK entries at a time.
    """
    n = len(lo)
    ends = np.concatenate([lo, hi])
    order = np.argsort(ends, kind="stable")
    ordered = ends[order]
    if not np.any(ordered[1:] == ordered[:-1]):
        opens = order < n
        depth = np.cumsum(np.where(opens, 1, -1))
        by_level = order[np.argsort(np.where(opens, depth, depth + 1), kind="stable")] % n
        if np.array_equal(by_level[0::2], by_level[1::2]):
            return None
    cols = np.arange(n)
    step = max(1, LINK_BLOCK // n)
    for start in range(0, n, step):
        rows = cols[start:start + step, None]
        a, b = lo[rows], hi[rows]
        linked = ((a < lo) & (lo < b)) ^ ((a < hi) & (hi < b))
        hits = np.argwhere(linked & (cols > rows))
        if len(hits):
            i, j = hits[0]
            return start + int(i), int(j)
    return None


def check_multicurve(hol: FuchsianHolonomy, mc: WeightedMulticurve, depth: int = 4):
    """Raise InvalidMulticurveError when any two leaf lifts (up to the given
    conjugation depth) cross transversally.

    The leaves are the ones ``enumerate_leaf_lifts`` finds around the
    basepoint with margin 8, as intervals [lo, hi] of ``leaf_intervals``.
    Leaf i links leaf j when exactly one endpoint of j lies strictly inside
    (lo_i, hi_i).  With distinct endpoints this is symmetric and means the
    two leaves cross; with ties it is not: a shared endpoint counts only
    when the other endpoint of j lies strictly inside leaf i, as for a
    shorter leaf nested on a shared endpoint, and leaves that only touch
    are not linked.  The error names the first linked pair (i, j), i < j,
    in row-major order, which ``first_linked_pair`` finds."""
    leaves = enumerate_leaf_lifts(hol, mc, depth, focus=[hol.basepoint], margin=8.0)
    pair = first_linked_pair(*leaf_intervals(leaves.real_ends))
    if pair is not None:
        i, j = (leaves[k] for k in pair)
        raise InvalidMulticurveError(
            f"leaf lifts intersect: {i.conjugator}*curve{i.curve_index} "
            f"crosses {j.conjugator}*curve{j.curve_index}"
        )


# ---------------------------------------------------------------------------
# Crossings along a segment


@dataclass(frozen=True)
class Crossing:
    leaf: LiftedLeaf
    parameter: float  # position along the segment in [0, 1]
    sign: int  # +1: leaf crosses left-to-right across the oriented segment

    @property
    def rotation_angle(self) -> float:
        return self.sign * self.leaf.weight


def _segment_frame(p: complex, q: complex) -> MoebiusMap:
    """Real Moebius map sending the oriented geodesic through p, q to the
    upward vertical axis (p strictly below q)."""
    g = geodesic_through_uhp(p, q)
    return _real_normalizer(g.p, g.q)


def lift_crossings(p: complex, q: complex, *, leaves: LeafTable) -> list[Crossing]:
    """Lifted leaves crossing the geodesic segment [p, q], ordered along it.

    Endpoints must keep clear of every leaf; an endpoint within TOL_GEO of
    a leaf raises PerturbInputError with a suggested offset.  The endpoint
    guard and the side test run on the table's columns; only the crossed
    leaves are built as rows.  The segment's frame sends its geodesic to the
    imaginary axis, p to i y_p and q to i y_q; a crossed leaf has endpoints
    u, v there with u v < 0 and meets the axis at i sqrt(-u v), at the
    arclength parameter log(y / y_p) / log(y_q / y_p).
    """
    for z, name in ((p, "start"), (q, "end")):
        if np.any(leaves.distances(z) < TOL_GEO):
            raise PerturbInputError(
                f"segment {name}point lies on a lifted leaf",
                suggested_offset=perturbation_offset(z, leaves),
            )
    frame = _segment_frame(p, q)
    yp, yq = abs(frame(p)), abs(frame(q))
    rows = np.nonzero(leaves.sides(p) * leaves.sides(q) < 0)[0]
    u, v = _real_ends(leaves.ends[rows] @ frame.matrix.T).T
    ts = np.log(np.sqrt(-u * v) / yp) / math.log(yq / yp)
    out = [
        Crossing(leaf=leaves[i], parameter=float(t), sign=1 if vi > 0 else -1)
        for i, t, vi in zip(rows, ts, v)
    ]
    out.sort(key=lambda c: c.parameter)
    return out


def bending_product(crossings) -> MoebiusMap:
    """Ordered product of the bending rotations about the crossed leaves,
    each by its signed weight; the identity when nothing is crossed."""
    m = MoebiusMap.identity()
    for crossing in crossings:
        m = m @ rotation_about_geodesic(crossing.leaf.geodesic, crossing.rotation_angle)
    return m


def perturbation_offset(z: complex, leaves: LeafTable) -> complex:
    """Deterministic offset (multiples of 1e-4 Im z, so of one hyperbolic
    length wherever z is) moving z off every leaf."""
    direction = complex(0.7548776662466927, 0.6557406991565868)
    for k in range(1, 64):
        cand = z + k * (1e-4 * z.imag) * direction
        if np.all(leaves.distances(cand) > 10 * TOL_GEO):
            return cand - z
    raise DegenerateInputError(f"could not perturb {z} off the leaves")


# ---------------------------------------------------------------------------
# The grafted structure and its deformed holonomy


@dataclass(frozen=True)
class DeformedHolonomy(Representation):
    """Holonomy deformed by a bending cocycle (values in PSL(2,C))."""


@dataclass(frozen=True)
class GraftedStructure:
    """A Fuchsian structure grafted along a weighted multicurve.

    The deformed holonomy is computed lazily from the bending cocycle and
    cached (construction is pure, so double initialization is harmless).
    """

    hol: FuchsianHolonomy
    multicurve: WeightedMulticurve
    depth: int = 8

    @cached_property
    def base_leaves(self) -> LeafTable:
        """Leaf lifts around the basepoint and its segments to the generator
        translates, reused by holonomy and meshes."""
        x0 = self.hol.basepoint
        focus = [x0]
        for l in LETTER_ORDER:
            focus.extend(segment_focus([x0, self.hol.generator(l)(x0)])[1:])
        return self.leaves_near(focus)

    @cached_property
    def basepoint(self) -> complex:
        x0 = self.hol.basepoint
        if np.all(self.base_leaves.distances(x0) > TOL_GEO):
            return x0
        return x0 + perturbation_offset(x0, self.base_leaves)

    @cached_property
    def rho_prime(self) -> DeformedHolonomy:
        return grafted_holonomy(self)

    def leaves_near(self, focus: list[complex]) -> LeafTable:
        """The structure's leaf lifts around the focus points."""
        return enumerate_leaf_lifts(self.hol, self.multicurve, self.depth, focus=focus)

    def crossings(self, path: list[complex]) -> list[Crossing]:
        """Leaf crossings along a polygonal path, in order: one leaf table
        around ``segment_focus(path)``, read by ``lift_crossings`` on each
        segment longer than 1e-14."""
        leaves = self.leaves_near(segment_focus(path))
        out = []
        for p, q in zip(path, path[1:]):
            if hyperbolic_distance_uhp(p, q) >= 1e-14:
                out.extend(lift_crossings(p, q, leaves=leaves))
        return out

    def crossings_to(self, z: complex) -> list[Crossing]:
        return self.crossings([self.basepoint, z])

    def bending_map(self, z: complex) -> MoebiusMap:
        """Ordered product of bending rotations along [basepoint, z]."""
        return bending_product(self.crossings_to(z))

    def develop(self, z: complex) -> PointCP1:
        """Developing map on strata, continued from the base stratum."""
        return apply(self.bending_map(z), embed_cp1(z))

    def all_weights_two_pi_multiples(self) -> bool:
        return all(is_two_pi_multiple(t) for t in self.multicurve.weights)


def segment_focus(path: list[complex]) -> list[complex]:
    """Where a path's leaf table is taken: each vertex, then the points at
    1/4, 1/2 and 3/4 of each segment."""
    return list(path) + [
        uhp_geodesic_point(p, q, s) for p, q in zip(path, path[1:]) for s in (0.25, 0.5, 0.75)
    ]


def grafted_holonomy(gs: GraftedStructure) -> DeformedHolonomy:
    """Deformed holonomy: for each generator g the bending cocycle along
    [x0, rho(g) x0] multiplies rho(g) on the left.

    With all weights in 2 pi Z the result is projectively the input; the
    cocycle construction preserves the surface relation for any weights.
    """
    check_multicurve(gs.hol, gs.multicurve, depth=min(gs.depth, 4))
    x0 = gs.basepoint
    gens = []
    for g in gs.hol.generators:
        crossings = [
            c for c in lift_crossings(x0, g(x0), leaves=gs.base_leaves)
            if c.leaf.weight != 0.0
        ]
        if not crossings:
            gens.append(g)  # empty deformation: exactly the input
            continue
        gens.append(bending_product(crossings) @ g)
    return DeformedHolonomy(generators=tuple(gens), basepoint=x0)


# ---------------------------------------------------------------------------
# Pleated surface meshes


@dataclass(frozen=True)
class PleatedFace:
    region_id: int
    entering_leaf: LiftedLeaf | None  # None for the base stratum
    isometry: MoebiusMap  # accumulated bending applied to the flat plane
    sample: complex  # interior point of the stratum, UHP coordinates
    polygon: tuple  # truncated boundary polygon, UHP coordinates

    @property
    def plane(self) -> PlaneH3:
        return PlaneH3(OrientedCircle.real_line(disk_upper=True).transform(self.isometry))

    def image_polygon(self) -> list[PointH3]:
        return [apply_isometry(self.isometry, embed_h3(z)) for z in self.polygon]


@dataclass(frozen=True)
class PleatedEdge:
    leaf: LiftedLeaf
    face_ids: tuple  # (outer face, inner face) across the leaf
    weight: float


@dataclass(frozen=True)
class PleatedSurfaceMesh:
    structure: GraftedStructure
    truncation_radius: float
    faces: tuple
    edges: tuple

    def beta(self, z: complex) -> PointH3:
        """Pointwise pleated surface: bend the flat embedding along the
        leaves crossed between the basepoint and z."""
        b = self.structure.bending_map(z)
        return apply_isometry(b, embed_h3(z))


def _hyperbolic_circle_euclidean(center: complex, radius: float):
    """Euclidean center and radius of the hyperbolic circle in UHP."""
    a, b = center.real, center.imag
    return complex(a, b * math.cosh(radius)), b * math.sinh(radius)


def _leaf_truncation_chord(leaf: LiftedLeaf, ecenter: complex, eradius: float) -> list:
    """The two points where the leaf meets the truncation circle, or none."""
    circ = leaf.circle
    if circ.is_line:
        # Vertical leaf Re z = a.
        a = -circ.hermitian[1, 1].real / (2.0 * circ.hermitian[0, 1].real)
        dx = a - ecenter.real
        h2 = eradius * eradius - dx * dx
        if h2 <= 0:
            return []
        h = math.sqrt(h2)
        return [complex(a, ecenter.imag - h), complex(a, ecenter.imag + h)]
    c, r = circ.center_radius()
    d = abs(ecenter - c)
    if d < 1e-15 or d > r + eradius or d < abs(r - eradius):
        return []
    u = (ecenter - c) / d
    x = (d * d + r * r - eradius * eradius) / (2.0 * d)
    h2 = r * r - x * x
    if h2 < 0:
        return []
    h = math.sqrt(h2)
    return [c + u * x + 1j * u * h, c + u * x - 1j * u * h]


def pleated_surface(
    hol: FuchsianHolonomy,
    mc: WeightedMulticurve,
    depth: int = 8,
    truncation_radius: float = 3.0,
    structure: GraftedStructure | None = None,
) -> PleatedSurfaceMesh:
    """Equivariant pleated surface: strata of (H^2, lifted leaves) within the
    truncation radius of the basepoint, each carried into H^3 by the bending
    accumulated from the base stratum; adjacent faces differ by a single
    rotation about the shared leaf by its weight.

    Every region test reads one side table over x0, the foot of x0 on each
    leaf, each face's sample and the truncation-circle points.  A leaf's
    separators are the leaves between x0 and its foot; faces follow their
    entering leaf's separator count, a face is bounded by its leaf and the
    leaves one level deeper behind it, and its outer face is the one of its
    deepest separator."""
    if not 0 < truncation_radius < math.inf:
        raise DegenerateInputError("truncation radius must be positive and finite")
    gs = structure if structure is not None else GraftedStructure(hol, mc, depth)
    x0 = gs.basepoint
    table = gs.base_leaves
    rows = np.nonzero(table.distances(x0) < truncation_radius)[0]
    leaves = [table[i] for i in rows]
    n = len(leaves)
    ecenter, eradius = _hyperbolic_circle_euclidean(x0, truncation_radius)
    arc = [ecenter + eradius * cmath.exp(2j * math.pi * k / 96.0) for k in range(96)]
    arc = [z for z in arc if z.imag > 0]

    # In a leaf's frame the leaf is the imaginary axis: the foot of x0 lies
    # on it, and the face's sample 0.175 rad off it, away from x0.
    feet, samples = [], []
    for lf in leaves:
        frame = _real_normalizer(lf.geodesic.p, lf.geodesic.q)
        back = frame.inverse()
        w = frame(x0)
        feet.append(back(1j * abs(w)))
        turn = math.pi / 2.0 + 0.175 * math.copysign(1.0, w.real)
        samples.append(back(abs(w) * cmath.exp(1j * turn)))
    points = np.array([x0, *feet, *samples, *arc])[:, None]
    sides = _side_values([column[rows] for column in table._frame], points)
    above = sides > 0
    arc_above = above[2 * n + 1:]
    separates = sides[0] * sides[1:n + 1] < 0  # [i, j]: leaf j lies between x0 and leaf i
    np.fill_diagonal(separates, False)
    level = separates.sum(axis=1)
    chords = [_leaf_truncation_chord(lf, ecenter, eradius) for lf in leaves]

    def region_polygon(row: int, ref: complex, bounding) -> tuple:
        pts = [z for j in bounding for z in chords[j]]
        pts += [arc[k] for k in np.nonzero((arc_above == above[row]).all(axis=1))[0]]
        pts.sort(key=lambda z: math.atan2((z - ref).imag, (z - ref).real))
        return tuple(pts)

    base = region_polygon(0, x0, np.nonzero(level == 0)[0])
    faces = [PleatedFace(0, None, MoebiusMap.identity(), x0, base)]
    order = np.argsort(level, kind="stable")
    face_of = np.empty(n, dtype=int)
    face_of[order] = np.arange(1, n + 1)
    for i in order:
        bend = bending_product(lift_crossings(x0, samples[i], leaves=table))
        children = np.nonzero(separates[:, i] & (level == level[i] + 1))[0]
        polygon = region_polygon(1 + n + i, samples[i], [i, *children])
        faces.append(PleatedFace(len(faces), leaves[i], bend, samples[i], polygon))
    edges = []
    for i, lf in enumerate(leaves):
        seps = np.nonzero(separates[i])[0]
        outer = int(face_of[seps[np.argmax(level[seps])]]) if len(seps) else 0
        edges.append(PleatedEdge(lf, (outer, int(face_of[i])), lf.weight))
    return PleatedSurfaceMesh(gs, truncation_radius, tuple(faces), tuple(edges))


# ---------------------------------------------------------------------------
# Developing-map continuation


@dataclass(frozen=True)
class LiftResult:
    endpoint: PointCP1
    crossings: tuple


def develop_and_lift(gs: GraftedStructure, path: list[complex]) -> LiftResult:
    """Continue the developing map along a polygonal path in the collapsed
    coordinates: the endpoint is bent by every leaf crossing on the way."""
    if len(path) < 1:
        raise DegenerateInputError("empty path")
    crossings = gs.crossings(path)
    endpoint = apply(bending_product(crossings), embed_cp1(path[-1]))
    return LiftResult(endpoint=endpoint, crossings=tuple(crossings))


def leaf_normalizer(gs: GraftedStructure, leaf: LiftedLeaf) -> MoebiusMap:
    """Canonical frame of a leaf: axis to (0, infinity), basepoint foot to i."""
    n = _real_normalizer(leaf.geodesic.p, leaf.geodesic.q)
    w = n(gs.basepoint)
    s = 1.0 / math.sqrt(abs(w))
    scale = MoebiusMap(np.array([[s, 0.0], [0.0, 1.0 / s]], dtype=complex))
    return scale @ n

