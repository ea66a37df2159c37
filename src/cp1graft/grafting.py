"""Grafting along weighted multicurves on a Fuchsian base: leaf lifts,
crossing enumeration, the bending cocycle deforming the holonomy, pleated
surface meshes and developing-map continuation.

Coordinates: the hyperbolic plane is the upper half-plane UHP in C, embedded
in H^3 as the vertical plane over the real axis.  Leaf lifts are geodesics
with real ideal endpoints (axes of conjugates of the multicurve words).

Sign convention: a crossing of the oriented segment [p, q] counts positive
when p lies on the leaf's right side, the leaf oriented from repelling to
attracting fixed point (so the leaf passes left-to-right across the
segment), and the bending rotation about the leaf uses that sign.  The
opposite convention would produce the complex-conjugate structures.

Weights: the WeightedMulticurve alone holds them.  Leaves and crossings
carry the index of their curve, and which leaves a path crosses does not
depend on the weights, which enter in ``bending_product(crossings,
angles)`` alone: crossing c turns about its leaf by c.sign * angles[curve].
A complex angle theta + i l also translates by l along the leaf (a complex
earthquake: along cuff a, the angle i t is fuchsian_from_fn's twist by t).
A zero angle gives no factor; a product of no factor leaves the map it
multiplies as it is.
"""

from __future__ import annotations

import cmath
import copy
import math
import operator
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .moebius import (
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    OrientedCircle,
    PointCP1,
    affine_rows,
    apply,
    chordal_rows,
    classify,
    cp1,
    moebius_rows,
    sphere_approx,
    sphere_keys,
    sphere_xyz,
    stack_times,
)
from .hyperbolic import (
    GeodesicH3,
    PlaneH3,
    PointH3,
    apply_isometry,
    rotation_about_geodesic,
)
from .surface import (
    FuchsianHolonomy,
    GroupWord,
    Representation,
    axis,
    cuff_length_from_trace,
    key_ranks,
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


@dataclass(frozen=True)
class LiftedLeaf:
    """A lift of a multicurve leaf: the axis of a conjugate w g w^-1,
    oriented from repelling to attracting fixed point."""

    geodesic: GeodesicH3
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


def _geodesic_frame(p: complex, q: complex) -> tuple[float, float, float]:
    """(c, t, d) of the H^2 geodesic from p to q: the cosine and sine of
    half the angle of u = (q - p) / (q - conj p), q's direction at p once
    p is taken to the centre of the disk, and the length d.  Raises
    DegenerateInputError unless both points are finite and above the real
    axis."""
    for z in (p, q):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DegenerateInputError("point must be finite")
        if z.imag <= 0:
            raise DegenerateInputError("point must lie in the upper half-plane")
    half = cmath.phase((q - p) / (q - p.conjugate())) / 2.0
    d = 2.0 * math.asinh(abs(q - p) / (2.0 * math.sqrt(p.imag) * math.sqrt(q.imag)))
    return math.cos(half), math.sin(half), d


def _frame_point(p: complex, frame: tuple[float, float, float], s: float) -> complex:
    """The point at arclength s * d from p along the geodesic of ``frame``:
    with x = s d and D = c^2 e^-x + t^2 e^x, it is
    Re p - Im p * 2 c t sinh(x) / D + i Im p / D.  D is a sum of positive
    terms and sinh(x) keeps its digits at small x, so no step cancels."""
    c, t, d = frame
    x = s * d
    den = c * c * math.exp(-x) + t * t * math.exp(x)
    return complex(p.real - p.imag * (2.0 * c * t * math.sinh(x)) / den, p.imag / den)


def uhp_geodesic_point(p: complex, q: complex, s: float) -> complex:
    """Constant-speed point at parameter s in [0,1] on the H^2 geodesic p->q."""
    return _frame_point(p, _geodesic_frame(p, q), s)


def element_keys(mats: np.ndarray) -> list[bytes]:
    """Dedup keys of group elements given as an (N, 2, 2) stack of
    normalized matrices: entries rounded to 9 decimals, with -0.0 folded
    into 0.0 so that one element cannot get two keys."""
    rounded = np.round(mats, 9) + 0.0
    return rounded.reshape(len(mats), 4).view("V64").ravel().tolist()


def _real_ends(ends: np.ndarray) -> np.ndarray:
    """Real coordinates (PointCP1.as_complex().real) of (..., 2) homogeneous
    pairs, nan where PointCP1.is_infinity holds."""
    z, at_inf = affine_rows(ends)
    return np.where(at_inf, np.nan, z.real)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise tuple comparison a < b of (N, 3) arrays."""
    return (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & (
        (a[:, 1] < b[:, 1]) | ((a[:, 1] == b[:, 1]) & (a[:, 2] < b[:, 2]))))


class LeafTable(Sequence):
    """Leaf lifts as columns.  Row i is the LiftedLeaf built from row i of
    each column, made on first access and then kept.

    Columns, one entry per leaf:
      ends        (L, 2, 2) complex: homogeneous pairs (z0, z1) of the
                  repelling and the attracting endpoint
      curve       (L,) int, the multicurve entry the leaf lifts
      conjugator  (L,) int, an element of the BFS tree, spelled by ``word``
      real_ends   (L, 2) float, the endpoints' ``_real_ends``: as a word
                  tree found them with its leaf keys, or from ``ends`` on
                  first read when not given

    The array methods (``sides``, ``distances``, ``real_ends``,
    ``right_positive``) read the leaf geometry the way the rows' ``circle``
    and ``distance_to_leaf`` do, so callers test every leaf without
    building rows.  The leaf frame and width behind them are built once per
    table.
    """

    def __init__(self, ends, curve, conjugator, parent, letter, real_ends=None):
        self.ends = ends
        if real_ends is not None:
            self.real_ends = real_ends
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

    @cached_property
    def _width(self) -> np.ndarray:
        """Each leaf's |b - a|, or 1.0 for a vertical leaf."""
        line, a, b = self._frame
        return np.where(line, 1.0, np.abs(b - a))

    @cached_property
    def right_positive(self) -> np.ndarray:
        """(L,) bool: whether each leaf's right side, seen along it from its
        repelling end p to its attracting end q, is where ``sides`` is
        positive.  Outside a half circle is its right when the leaf runs
        from right to left (p > q), and right of a vertical line is its
        right when the leaf runs upward (q at infinity).  In the leaf's
        frame, p at 0 and q at infinity, the right side is the quadrant
        over the positive reals, the arc of the real line from p to q."""
        p, q = self.real_ends.T
        return np.isnan(q) | (p > q)

    def sides(self, z, rows=slice(None)) -> np.ndarray:
        """Side value of z for every leaf, or for the leaves ``rows`` picks,
        with the sign of the row circle's ``evaluate``: (x - a)(x - b) + y^2,
        or x - a for a vertical leaf.  A column of N points gives a row of
        values per point.  The values are elementwise: the leaves ``rows``
        picks get the columns of ``sides(z)[..., rows]``, bit for bit."""
        line, a, b = (column[rows] for column in self._frame)
        x, y = z.real, z.imag
        return np.where(line, x - a, (x - a) * (x - b) + y * y)

    def distances(self, z: complex, sides: np.ndarray | None = None) -> np.ndarray:
        """Hyperbolic distance from the UHP point z to every leaf,
        asinh(|side value| / (Im z * width)) with the width cached on the
        table; ``sides``, when given, must be ``self.sides(z)``."""
        if sides is None:
            sides = self.sides(z)
        return np.arcsinh(np.abs(sides) / (z.imag * self._width))


# Relative band, of cosh(radius), about the BFS radius test's cut in which
# a candidate's distances are taken by arccosh: far wider than their
# rounding, so the screen keeps and drops exactly what arccosh does.
RADIUS_BAND = 1e-9

# The radius screen's rounding bound, in units of eps times the sum of its
# terms' magnitudes: the expanded ratio lies within 8 of the true one, and
# the exact expression within 7.  A power of two, so scaling is exact.
SCREEN_ROUNDING = 16.0 * np.finfo(float).eps


class RadiusScreen:
    """Whether UHP points lie within ``radius`` of some target: the
    decision arccosh(1 + |z - t|^2 / (2 Im z Im t)) <= radius takes for the
    least ratio over the targets, made mostly by one matrix product.

    With c = (|z|^2, Re z, Im z, 1) per point and u = (1 / (2 Im t),
    -Re t / Im t, -1, |t|^2 / (2 Im t)) per target, (U @ C).min(axis=0) /
    Im z is each point's least ratio, expanded, with U (T, 4) and C (4, N).
    A point is decided by it only where it clears the cut cosh(radius) - 1
    by RADIUS_BAND * cosh(radius) plus its own rounding bound,
    SCREEN_ROUNDING * (|z|^2 max u0 + |Re z| max |u1| + Im z + max u3) /
    Im z, which bounds how far the expanded ratio may lie from the exact
    one however much its terms cancel.  The same product gives the bound:
    C has a fifth row |Re z|, which the targets' rows of U skip, and U a
    last row of the bound's coefficients.  Every other point (nan and inf
    among them, and all of them where cosh(radius) overflows) takes the
    exact expression: its least ratio decides clearly below or above the
    cut, and arccosh within RADIUS_BAND of it.  So the screen keeps and
    drops what arccosh of every distance does.
    """

    def __init__(self, targets: np.ndarray, radius: float):
        self.targets = targets[:, None]
        self.radius = radius
        x, y = targets.real, targets.imag
        u = np.zeros((len(targets) + 1, 5))
        u[:-1, 0], u[:-1, 1], u[:-1, 2], u[:-1, 3] = 0.5 / y, -x / y, -1.0, (x * x + y * y) / (2.0 * y)
        bound = np.abs(u[:-1]).max(axis=0)
        u[-1] = SCREEN_ROUNDING * np.array([bound[0], 0.0, 1.0, bound[3], bound[1]])
        self.u = u
        try:
            cut = math.cosh(radius)
            self.ratio_cut, self.band = cut - 1.0, RADIUS_BAND * cut
        except OverflowError:  # every point takes the exact test
            self.ratio_cut, self.band = 0.0, math.inf

    def __call__(self, z: np.ndarray) -> np.ndarray:
        """Whether each point of z is within the radius (bool per point)."""
        x, y = z.real, z.imag
        c = np.empty((5, len(z)))
        np.multiply(x, x, out=c[0])
        c[0] += y * y
        c[1], c[2], c[3] = x, y, 1.0
        np.abs(x, out=c[4])
        # Each point's least ratio and its bound, both times Im z.
        p = np.dot(self.u, c)
        least, slack = p[:-1].min(axis=0), p[-1]
        near = least + slack < (self.ratio_cut - self.band) * y
        exact = np.flatnonzero(~(near | (least - slack > (self.ratio_cut + self.band) * y)))
        if len(exact):
            near[exact] = self._exact(z[exact])
        return near

    def _exact(self, z: np.ndarray) -> np.ndarray:
        """The decision on each point's exact least ratio: clearly below or
        above the cut outside the band; within it, and for nan, arccosh of
        1 + each ratio against the radius."""
        ratio = np.abs(z - self.targets) ** 2 / (2.0 * z.imag * self.targets.imag)
        least = ratio.min(axis=0)
        near = least < self.ratio_cut - self.band
        exact = np.flatnonzero(~(near | (least > self.ratio_cut + self.band)))
        if len(exact):
            x = 1.0 + ratio[:, exact]
            near[exact] = np.arccosh(np.maximum(x, 1.0)).min(axis=0) <= self.radius
        return near


# Group elements one leaf query may keep before it gives up.
MAX_LEAF_ELEMENTS = 500_000
# Nodes a WordTree may hold (about 10 MB with its leaf keys): past this
# many, it is emptied before its next query, which changes no output.  Its
# buffers double up to this many rows, and grow by what a level adds past
# it, so they never hold much more than the tree does.
MAX_TREE_NODES = 50_000
# Rows a new or emptied WordTree has room for in each of its buffers.
TREE_ROWS_INITIAL = 256

# A row of a WordTree: one reduced word.
_NODE = np.dtype([
    ("mat", complex, (2, 2)),  # normalized matrix
    ("orbit", complex),  # its image of the basepoint
    ("parent", np.int32),  # the word minus its last letter, -1 for the root
    ("child", np.int32),  # first child, -1 if none yet
    ("dedup", np.int32),  # element_keys class, -1 if not taken
    ("leaf", np.int32),  # row of the leaf keys, -1 if none
    ("letter", np.int8),  # last letter, 0 for the root
], align=True)


class WordTree:
    """The reduced-word tree of a structure's leaf queries, grown as they
    need it, as one table ``nodes`` with a row per reduced word.  A row
    keeps the word's normalized matrix and orbit point, built as
    ``moebius_rows(word_products(...))`` from its parent's when a query
    expands the parent: MoebiusMap's rule on the product ``rho`` takes, so
    a row's matrix is ``hol.rho(word).matrix`` bit for bit.  A word whose
    product is singular, where ``rho`` raises, keeps the product unscaled
    and is never kept by a query.  A word that a query found near its focus
    also keeps its ``element_keys`` class, and a word that a query kept
    gets a row of the leaf keys: its leaf lifts' resolution mask, rounded
    keys and real endpoints.  Each of these depends only on the word, so
    ``leaf_table`` gives the table of a fresh BFS whatever queries ran
    before: the same tests in the same order, with children expanded only
    for kept words that have none.  The keys are ``sphere_keys``: equal
    under ``==`` to the rounded ``sphere_xyz`` of the endpoints, though a
    zero's sign may differ from it, so the tree's key bytes are not the
    reference's.

    Beside the keys the tree keeps ``rank``: each key row's rank among the
    tree's distinct keys in lexicographic order (``key_ranks``, int32),
    rebuilt whenever rows are added.  A query then keeps the first lift of
    each key, in key order, with one ``np.unique`` of its ranks.

    The tree grows in place: ``nodes`` and the leaf-key columns ``ok``,
    ``keys`` and ``real`` are views of the used rows of buffers with room
    for more (``_grown``), so a level appends its rows without copying the
    table.  A buffer that fills is replaced by one of twice its rows, up to
    MAX_TREE_NODES.
    """

    def __init__(self, hol: FuchsianHolonomy, mc: WeightedMulticurve):
        base_axes = []
        half_lengths = []
        for word in mc.words:
            m = hol.rho(word)
            cls = classify(m)
            if cls.kind not in ("hyperbolic", "loxodromic"):
                raise InvalidMulticurveError(f"curve {word} is not hyperbolic ({cls.kind})")
            base_axes.append(axis(m))
            half_lengths.append(cuff_length_from_trace(m) / 2.0)
        x0 = hol.basepoint
        reach = max(distance_to_leaf(x0, g) for g in base_axes) if base_axes else 0.0
        self.reach = reach + (max(half_lengths) if half_lengths else 0.0)
        self.x0 = x0
        self.start = cp1(x0).normalized().vector()
        self.gens = {l: hol.generator(l).matrix for l in LETTER_ORDER}
        self.axis_ends = [(g.p.normalized().vector(), g.q.normalized().vector()) for g in base_axes]
        self.clear()

    def clear(self):
        """Forget every word but the root."""
        identity = MoebiusMap.identity().matrix[None]
        self.nodes = np.empty(TREE_ROWS_INITIAL, dtype=_NODE)[:0]
        # The leaf keys: resolution mask, keys, real endpoints and key ranks,
        # element-major then curve.
        n_curves = len(self.axis_ends)
        self.ok = np.empty((TREE_ROWS_INITIAL, n_curves), dtype=bool)[:0]
        self.keys = np.empty((TREE_ROWS_INITIAL, n_curves, 7))[:0]
        self.real = np.empty((TREE_ROWS_INITIAL, n_curves, 2))[:0]
        self.rank = np.empty((0, n_curves), dtype=np.int32)
        self._append(identity, -1, 0)
        self.nodes["dedup"][0] = 0
        # A class is numbered by the first node row that met its key.
        self.classes: dict[bytes, int] = dict.fromkeys(element_keys(identity), 0)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def copy(self) -> WordTree:
        """A tree with the same words, which grows apart from this one: it
        has buffers of its own, of the same room, and shares only ``rank``,
        which growth replaces and never writes."""
        twin = copy.copy(self)
        for name in ("nodes", "ok", "keys", "real"):
            used = getattr(self, name)
            setattr(twin, name, _buffer_of(used, len(used.base))[:len(used)])
        twin.classes = dict(self.classes)
        return twin

    def _extend(self, name: str, count: int) -> np.ndarray:
        """Grow the column ``name`` by ``count`` rows, in place while its
        buffer (the view's base) has room; returns the new rows, to be
        filled."""
        used = getattr(self, name)
        start, stop = len(used), len(used) + count
        buffer = _grown(used.base, start, stop)
        setattr(self, name, buffer[:stop])
        return buffer[start:stop]

    def _append(self, mats: np.ndarray, parent, letter):
        """Append rows for the words with these matrices."""
        rows = self._extend("nodes", len(mats))
        orbit = stack_times(mats, self.start)
        rows["mat"], rows["orbit"] = mats, orbit[:, 0] / orbit[:, 1]
        rows["parent"], rows["letter"] = parent, letter
        rows["child"] = rows["dedup"] = rows["leaf"] = -1

    def _expand(self, nodes: np.ndarray) -> np.ndarray:
        """Give the nodes that have no children yet their children, in
        ``word_children`` order; returns each node's first child."""
        child = self.nodes["child"][nodes]
        new = nodes[child < 0]
        if len(new):
            rows, letters = word_children(self.nodes["letter"][new])
            products = word_products(self.nodes["mat"][new], rows, letters, self.gens)
            mats, singular = moebius_rows(products)
            self.nodes["child"][new] = self.size + (len(rows) // len(new)) * np.arange(len(new))
            self._append(mats, new[rows], letters)
            if singular:  # no Moebius map: the root's class, already kept by every query
                self.nodes["dedup"][self.size - len(mats) + np.fromiter(singular, int)] = 0
            child = self.nodes["child"][nodes]
        return child

    def _classes(self, nodes: np.ndarray) -> np.ndarray:
        """The ``element_keys`` class of each node, numbered by the first
        node row that met it."""
        dedup = self.nodes["dedup"]
        untyped = nodes[dedup[nodes] < 0]
        if len(untyped):
            keys = element_keys(self.nodes["mat"][untyped])
            dedup[untyped] = list(map(self.classes.setdefault, keys, untyped.tolist()))
        return dedup[nodes]

    def _ends(self, mats: np.ndarray) -> np.ndarray:
        """(N, curves, 2, 2): each curve's axis endpoints moved by each matrix."""
        ends = np.empty((len(mats), len(self.axis_ends), 2, 2), dtype=complex)
        flat = mats.reshape(-1, 2)
        for i, (p, q) in enumerate(self.axis_ends):
            ends[:, i, 0] = (flat @ p).reshape(-1, 2)
            ends[:, i, 1] = (flat @ q).reshape(-1, 2)
        return ends

    def _leaf_rows(self, nodes: np.ndarray) -> np.ndarray:
        """Each node's row of the leaf keys, made for the nodes without one."""
        leaf = self.nodes["leaf"]
        new = nodes[leaf[nodes] < 0]
        if len(new):
            curve = np.tile(np.arange(len(self.axis_ends)), len(new))
            ok, keys, real = _leaf_keys(self._ends(self.nodes["mat"][new]).reshape(-1, 2, 2), curve)
            leaf[new] = len(self.ok) + np.arange(len(new))
            self._extend("ok", len(new))[:] = ok.reshape(len(new), -1)
            self._extend("keys", len(new))[:] = keys.reshape(len(new), -1, 7)
            self._extend("real", len(new))[:] = real.reshape(len(new), -1, 2)
            self.rank = key_ranks(self.keys.reshape(-1, 7)).reshape(self.ok.shape)
        return leaf[nodes]

    def leaf_table(self, depth: int, focus: list[complex], margin: float) -> LeafTable:
        """``enumerate_leaf_lifts`` on this tree."""
        if self.size > MAX_TREE_NODES:
            self.clear()
        # Each focus point once: the minimum over targets is the same.
        targets = np.array(list(dict.fromkeys([self.x0, *focus])), dtype=complex)
        within = RadiusScreen(targets, self.reach + margin)
        seen = {0}
        frontier = np.array([0])
        kept, parents = [frontier], [np.array([-1])]
        count = 1
        for k in range(1, depth + 1):
            width = 8 if k == 1 else 7
            cand = (self._expand(frontier)[:, None] + np.arange(width)).ravel()
            alive = np.nonzero(within(self.nodes["orbit"][cand]))[0]
            # The first node of each class this query has not kept yet.
            new = []
            for i, c in enumerate(self._classes(cand[alive]).tolist()):
                if c not in seen:
                    seen.add(c)
                    new.append(i)
            keep = alive[new]

            # The frontier's own ids start at count - len(frontier).
            parents.append(count - len(frontier) + keep // width)
            frontier = cand[keep]
            kept.append(frontier)
            count += len(frontier)
            if count > MAX_LEAF_ELEMENTS:
                raise RuntimeError(f"leaf lift enumeration exceeded {MAX_LEAF_ELEMENTS} elements")

        # Candidate lifts, element-major then curve; each leaf key keeps its
        # first resolved candidate, and rows come out in key order.
        kept = np.concatenate(kept)
        leaf = self._leaf_rows(kept)
        sel = np.nonzero(self.ok[leaf].ravel())[0]
        rows = sel[np.unique(self.rank[leaf].ravel()[sel], return_index=True)[1]]
        element, curve = np.divmod(rows, len(self.axis_ends))
        return LeafTable(
            ends=self._ends(self.nodes["mat"][kept[element]])[np.arange(len(rows)), curve],
            curve=curve,
            conjugator=element,
            parent=np.concatenate(parents),
            letter=self.nodes["letter"][kept].astype(int),
            real_ends=self.real[leaf[element], curve],
        )


def _grown(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buffer`` if it has room for ``need`` rows, otherwise a new buffer
    with its first ``used`` rows and room for twice as many rows (at most
    MAX_TREE_NODES, and at least ``need``)."""
    if need <= len(buffer):
        return buffer
    return _buffer_of(buffer[:used], max(need, min(2 * len(buffer), MAX_TREE_NODES)))


def _buffer_of(rows: np.ndarray, capacity: int) -> np.ndarray:
    """A new buffer of ``capacity`` rows that starts with ``rows``, copied as
    raw bytes: numpy copies a structured dtype field by field, several
    times slower."""
    out = np.empty((capacity, *rows.shape[1:]), dtype=rows.dtype)
    raw = np.dtype((np.void, rows.dtype.itemsize))
    out[:len(rows)].view(raw)[...] = rows.view(raw)
    return out


# Chords this close to TOL_GEO are taken from sphere_xyz in ``_leaf_keys``;
# sphere_approx's chords are within a few 1e-16 of them.
CHORD_BAND = 1e-13


def _leaf_keys(ends: np.ndarray, curve: np.ndarray) -> tuple[np.ndarray, ...]:
    """For (N, 2, 2) candidate lifts of the given curves: which are
    resolved, each one's ``LiftedLeaf.key`` as a row (curve index, then the
    two rounded endpoint sphere triples, smaller first), and the endpoints'
    ``_real_ends``.  The endpoints' sphere coordinates come from
    ``sphere_approx``, and the keys from ``sphere_keys``: they equal the
    rows' ``LiftedLeaf.key`` under ``==`` and ``<`` (only the sign of a
    zero may differ).  A chord within CHORD_BAND of TOL_GEO is taken from
    ``sphere_xyz``, so the chord test decides as on the rows' own
    coordinates."""
    # Drop the lifts whose endpoints contracted below resolution (closer
    # than TOL_GEO, both at infinity, or a circle OrientedCircle rejects):
    # they lie too deep in a funnel to cross anything near the focus.
    sphere = sphere_approx(ends)
    chord = chordal_rows(sphere[:, 0], sphere[:, 1])
    near = np.nonzero(~(np.abs(chord - TOL_GEO) > CHORD_BAND))[0]
    if len(near):
        exact = sphere_xyz(ends[near])
        chord[near] = chordal_rows(exact[:, 0], exact[:, 1])
    xr = _real_ends(ends)
    at_inf = np.isnan(xr)
    c, r = (xr[:, 0] + xr[:, 1]) / 2.0, np.abs(xr[:, 1] - xr[:, 0]) / 2.0
    bad_circle = (r < TOL_GEO) | ((c * c - r * r) - c * c >= -1e-300)
    ok = (chord >= TOL_GEO) & ~at_inf.all(axis=1) & (at_inf.any(axis=1) | ~bad_circle)
    rounded = sphere_keys(ends, 9, sphere)
    a, b = rounded[:, 0], rounded[:, 1]
    swap = _lex_less(b, a)[:, None]
    return ok, np.column_stack([curve, np.where(swap, b, a), np.where(swap, a, b)]), xr


def enumerate_leaf_lifts(
    hol: FuchsianHolonomy,
    mc: WeightedMulticurve,
    depth: int,
    focus: list[complex],
    margin: float = 4.0,
    tree: WordTree | None = None,
) -> LeafTable:
    """All distinct lifts w . axis(gamma_i) for conjugators w of length <=
    depth whose orbit point stays within reach of the focus set, as a
    LeafTable (columns: endpoints, curve index, conjugator).

    Any leaf crossing the focus region has a conjugator representative
    (slide along the curve's own powers) whose orbit point comes within
    d(x0, axis) + length/2 of the crossing, so pruning the BFS at that
    radius plus a hyperbolicity margin keeps every relevant prefix chain.

    The BFS runs level by level over the reduced-word tree of ``tree`` (a
    WordTree of hol and mc, kept between calls; a fresh one by default).
    Within a level the candidates come in frontier order, then in
    LETTER_ORDER, each with the matrix ``hol.rho(word)`` has.  A candidate
    is kept unless its orbit point x0 is farther than the radius from every
    focus point, an earlier element has the same ``element_keys`` key, or
    its product is singular.  The radius test is a ``RadiusScreen`` over
    the focus points: one (targets, candidates) matrix product per level
    gives each candidate's least distance ratio down its column, and only
    candidates it cannot decide take the exact ratio; the query keeps the
    classes it has met in one set.  Lifts whose endpoints contract below
    resolution are dropped.  Rows are sorted
    by ``LiftedLeaf.key`` (curve index, then the two rounded endpoint
    sphere coordinates) and the keys are unique; each row's conjugator is
    the first element, in BFS order, whose image of the axis has that key,
    found from the tree's key ranks as ``first_rows`` finds it from the
    keys.  The keys come from ``sphere_keys``, so each equals its row's
    ``LiftedLeaf.key`` under ``==`` and ``<`` (only the sign of a zero may
    differ, which no comparison sees), and the chord test drops exactly the
    lifts whose endpoints GeodesicH3 rejects as closer than TOL_GEO.  The
    radius test decides a candidate from its expanded ratio only where
    that clears cosh(radius) - 1 by RADIUS_BAND and its rounding bound, and
    takes arccosh only within RADIUS_BAND of the cut, so it keeps and drops
    what arccosh of every distance does.  Every column is the one the
    per-element reference gives, bit for bit.
    """
    if tree is None:
        tree = WordTree(hol, mc)
    return tree.leaf_table(depth, focus, margin)


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


def check_multicurve(
    hol: FuchsianHolonomy, mc: WeightedMulticurve, depth: int = 4, tree: WordTree | None = None
):
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
    leaves = enumerate_leaf_lifts(hol, mc, depth, focus=[hol.basepoint], margin=8.0, tree=tree)
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
    sign: int  # +1: the segment starts on the leaf's right side


def lift_crossings(p: complex, q: complex, *, leaves: LeafTable) -> list[Crossing]:
    """Lifted leaves crossing the geodesic segment [p, q], ordered along it.

    Endpoints must keep clear of every leaf; an endpoint within TOL_GEO of
    a leaf raises PerturbInputError with a suggested offset, the start
    before the end.  Everything is read off the table's side values at p
    and q: the guard takes its distances from them, a leaf is crossed when
    they have opposite signs, and only the crossed leaves are built as rows.

    The side value of z is Im z * width * sinh d(z), d the signed distance
    to the leaf.  Along the segment, of length L, the distance to a leaf it
    crosses at parameter t is sinh d(s) = A sinh((s - t) L) for a constant
    A, so sinh d_p / sinh d_q = -sinh(t L) / sinh((1 - t) L), and the width
    cancels: with r = -(s_p Im q) / (s_q Im p) > 0, r = sinh(t L) /
    sinh((1 - t) L), which solves to
        t = log1p(2 r sinh L / (1 + r e^-L)) / (2 L),
    whose terms are all positive, so nothing cancels at any L.  The
    crossing is positive when p lies on the leaf's right side: s_p > 0
    exactly when the table's ``right_positive`` holds.
    """
    sp, sq = leaves.sides(p), leaves.sides(q)
    for z, s, name in ((p, sp, "start"), (q, sq, "end")):
        if np.any(leaves.distances(z, s) < TOL_GEO):
            raise PerturbInputError(
                f"segment {name}point lies on a lifted leaf",
                suggested_offset=perturbation_offset(z, leaves),
            )
    rows = np.nonzero(sp * sq < 0)[0]
    if not len(rows):
        return []
    length = hyperbolic_distance_uhp(p, q)
    r = -(sp[rows] * q.imag) / (sq[rows] * p.imag)
    ts = np.log1p(2.0 * r * math.sinh(length) / (1.0 + r * math.exp(-length))) / (2.0 * length)
    right = (sp[rows] > 0) == leaves.right_positive[rows]
    out = [
        Crossing(leaf=leaves[i], parameter=t, sign=1 if on_right else -1)
        for i, t, on_right in zip(rows.tolist(), ts.tolist(), right.tolist())
    ]
    out.sort(key=lambda c: c.parameter)
    return out


class _Unbent(MoebiusMap):
    """The empty bending product: it leaves the map it multiplies as it is."""

    def __matmul__(self, other: MoebiusMap) -> MoebiusMap:
        return other


UNBENT = _Unbent(np.eye(2, dtype=complex))


def bending_product(crossings, angles) -> MoebiusMap:
    """The bending cocycle along crossings at one angle per curve: the
    ordered product, from the identity, of the rotations about the crossed
    leaves by c.sign * angles[c.leaf.curve_index], skipping zero angles;
    UNBENT when no factor is left."""
    factors = [
        rotation_about_geodesic(c.leaf.geodesic, c.sign * angles[c.leaf.curve_index])
        for c in crossings
        if angles[c.leaf.curve_index] != 0
    ]
    return reduce(operator.matmul, factors, MoebiusMap.identity()) if factors else UNBENT


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
class Chart:
    """What a structure reads at a point z: the leaf crossings of
    [basepoint, z], in order, and their bending product at the weights."""

    crossings: tuple
    bending: MoebiusMap


@dataclass(frozen=True)
class GraftedStructure:
    """A Fuchsian structure grafted along a weighted multicurve.

    The deformed holonomy is computed lazily from the bending cocycle and
    cached (construction is pure, so double initialization is harmless).
    The structure also keeps one chart, the last point's (see ``chart``).
    """

    hol: FuchsianHolonomy
    multicurve: WeightedMulticurve
    depth: int = 8
    _last_chart: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def base_leaves(self) -> LeafTable:
        """Leaf lifts around the basepoint and its segments to the generator
        translates, reused by holonomy and meshes, once the multicurve is
        checked: every read of the structure comes through here, so each
        one refuses a multicurve whose leaf lifts cross."""
        x0 = self.hol.basepoint
        focus = [x0]
        for l in LETTER_ORDER:
            focus.extend(segment_focus([x0, self.hol.generator(l)(x0)])[1:])
        leaves = self.leaves_near(focus)
        # The check replays on a copy of the structure's tree: it reuses the
        # base leaves' words, and the structure keeps none of its own.
        check_multicurve(self.hol, self.multicurve, depth=min(self.depth, 4),
                         tree=self.word_tree.copy())
        return leaves

    @cached_property
    def basepoint(self) -> complex:
        x0 = self.hol.basepoint
        if np.all(self.base_leaves.distances(x0) > TOL_GEO):
            return x0
        return x0 + perturbation_offset(x0, self.base_leaves)

    @cached_property
    def rho_prime(self) -> DeformedHolonomy:
        return grafted_holonomy(self)

    @cached_property
    def generator_crossings(self) -> tuple:
        """The crossings of [x0, g x0] for g = a1, b1, a2, b2 on the base
        leaves; rho' at any angles is one ``bending_product`` per generator
        over them."""
        leaves = self.base_leaves
        x0 = self.basepoint
        return tuple(lift_crossings(x0, g(x0), leaves=leaves) for g in self.hol.generators)

    @cached_property
    def word_tree(self) -> WordTree:
        """The word tree every leaf query of this structure replays on."""
        return WordTree(self.hol, self.multicurve)

    def leaves_near(self, focus: list[complex]) -> LeafTable:
        """The structure's leaf lifts around the focus points."""
        return enumerate_leaf_lifts(
            self.hol, self.multicurve, self.depth, focus=focus, tree=self.word_tree
        )

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

    def chart(self, z: complex) -> Chart:
        """The chart at z: one leaf query and crossing scan of
        [basepoint, z] (``crossings``) and the bending product of what it
        crosses.  The structure keeps one slot, the last point read, keyed
        on z's type and exact bits: 0.0 and -0.0 are different keys and nan
        never matches.  So the reads of one point share one query, and a
        point read again after another is queried again.  A query that
        raises leaves the slot as it was."""
        key = (type(z), struct.pack("<2d", z.real, z.imag))
        last = self._last_chart
        if last is not None and last[0] == key and z == z:
            return last[1]
        crossings = tuple(self.crossings([self.basepoint, z]))
        chart = Chart(crossings, bending_product(crossings, self.multicurve.weights))
        # Key and chart in one assignment: no reader pairs a key with
        # another point's chart.
        object.__setattr__(self, "_last_chart", (key, chart))
        return chart

    def crossings_to(self, z: complex) -> list[Crossing]:
        """The crossings of [basepoint, z], read from ``chart(z)``, as a
        new list."""
        return list(self.chart(z).crossings)

    def bending_map(self, z: complex) -> MoebiusMap:
        """The bending cocycle along [basepoint, z], read from ``chart(z)``."""
        return self.chart(z).bending

    def develop(self, z: complex) -> PointCP1:
        """Developing map on strata, continued from the base stratum: z
        bent by ``chart(z)``'s bending map."""
        return apply(self.chart(z).bending, embed_cp1(z))


def segment_focus(path: list[complex]) -> list[complex]:
    """Where a path's leaf table is taken: each vertex, then the points at
    1/4, 1/2 and 3/4 of each segment."""
    out = list(path)
    for p, q in zip(path, path[1:]):
        frame = _geodesic_frame(p, q)
        out.extend(_frame_point(p, frame, s) for s in (0.25, 0.5, 0.75))
    return out


def grafted_holonomy(gs: GraftedStructure) -> DeformedHolonomy:
    """Deformed holonomy: for each generator g the bending cocycle along
    [x0, rho(g) x0] at the weights multiplies rho(g) on the left (g itself,
    bit for bit, when it crosses no leaf of nonzero weight).

    With all weights in 2 pi Z the result is projectively the input; the
    cocycle construction preserves the surface relation for any weights.
    """
    weights = gs.multicurve.weights
    gens = tuple(
        bending_product(crossings, weights) @ g
        for g, crossings in zip(gs.hol.generators, gs.generator_crossings)
    )
    return DeformedHolonomy(generators=gens, basepoint=gs.basepoint)


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
        return PlaneH3(OrientedCircle.real_line().transform(self.isometry))

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
        leaves crossed between the basepoint and z, by the structure's
        ``chart(z)`` (one slot: the last point the structure read)."""
        return apply_isometry(self.structure.chart(z).bending, embed_h3(z))


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
    rotation about the shared leaf by its curve's weight.

    Every region test reads one side table over x0, the foot of x0 on each
    leaf, each face's sample and the truncation-circle points.  A leaf's
    separators are the leaves between x0 and its foot; faces follow their
    entering leaf's separator count, a face is bounded by its leaf and the
    leaves one level deeper behind it, and its outer face is the one of its
    deepest separator.  A given ``structure`` must be the one of hol, mc
    and depth: it is refused with ValueError otherwise."""
    if not 0 < truncation_radius < math.inf:
        raise DegenerateInputError("truncation radius must be positive and finite")
    gs = structure if structure is not None else GraftedStructure(hol, mc, depth)
    if gs.hol is not hol or gs.multicurve != mc or gs.depth != depth:
        raise ValueError("structure is not the grafted structure of hol, mc and depth")
    x0 = gs.basepoint
    table = gs.base_leaves
    weights = gs.multicurve.weights
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
    sides = table.sides(points, rows)
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
        bend = bending_product(lift_crossings(x0, samples[i], leaves=table), weights)
        children = np.nonzero(separates[:, i] & (level == level[i] + 1))[0]
        polygon = region_polygon(1 + n + i, samples[i], [i, *children])
        faces.append(PleatedFace(len(faces), leaves[i], bend, samples[i], polygon))
    edges = []
    for i, lf in enumerate(leaves):
        seps = np.nonzero(separates[i])[0]
        outer = int(face_of[seps[np.argmax(level[seps])]]) if len(seps) else 0
        edges.append(PleatedEdge(lf, (outer, int(face_of[i])), weights[lf.curve_index]))
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
    endpoint = apply(bending_product(crossings, gs.multicurve.weights), embed_cp1(path[-1]))
    return LiftResult(endpoint=endpoint, crossings=tuple(crossings))


def leaf_normalizer(gs: GraftedStructure, leaf: LiftedLeaf) -> MoebiusMap:
    """Canonical frame of a leaf: axis to (0, infinity), basepoint foot to i."""
    n = _real_normalizer(leaf.geodesic.p, leaf.geodesic.q)
    w = n(gs.basepoint)
    s = 1.0 / math.sqrt(abs(w))
    scale = MoebiusMap(np.array([[s, 0.0], [0.0, 1.0 / s]], dtype=complex))
    return scale @ n

