"""Genus-2 Fuchsian holonomy from Fenchel-Nielsen coordinates, word
enumeration, axes, and limit-set sampling.

Construction
------------
The holonomy is built through the hyperelliptic picture.  A genus-2 surface
double covers a sphere with six order-2 cone points; for the theta-shaped
pants decomposition the six points sit in antipodal pairs on the three cuff
geodesics, at the feet of the pants seams.  Walking a right-angled hexagon
with alternating sides (l1/2, s12, l2/2, s23, l3/2, s31) places the six
points; pi-rotations J1..J6 about them satisfy J1 J2 J3 J4 J5 J6 = 1, and

    a1 = J1 J2,  b1 = J3 J2,  a2 = J4 J5,  b2 = J6 J5

satisfy [a1,b1][a2,b2] = (J1J2J3)^2 (J4J5J6)^2 = 1 identically.  Twisting by
t along cuff k slides that cuff's point pair by t/2 along the cuff geodesic,
which preserves the relation exactly.

Marking convention: cuff 1 is a1, cuff 2 is a1^-1 b2, cuff 3 is b2^-1; the
cuff traces are 2 cosh(l_k / 2) by construction.  Positive twist slides in
the direction from the first to the second hexagon vertex on the cuff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moebius import (
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    PointCP1,
    classify,
    sphere_keys,
    stack_times,
)
from .hyperbolic import GeodesicH3, translation_along_geodesic

TOL_REP = 1e-8


class ConstructionError(RuntimeError):
    """Internal consistency failure while building a holonomy."""


# ---------------------------------------------------------------------------
# Words


GENERATOR_NAMES = ("a1", "b1", "a2", "b2")
_LETTER_CHARS = "abcd"

# Shortlex letter order: a1 < a1^-1 < b1 < b1^-1 < a2 < ...
LETTER_ORDER = (1, -1, 2, -2, 3, -3, 4, -4)
_LETTER_RANK = {letter: i for i, letter in enumerate(LETTER_ORDER)}


def reduce_word(letters) -> tuple:
    out = []
    for l in letters:
        if l == 0 or abs(l) > 4:
            raise ValueError(f"invalid letter {l}")
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(int(l))
    return tuple(out)


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word in the generators; letters are +-1..+-4 for
    a1, b1, a2, b2 and their inverses."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_word(self.letters))

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(-l for l in reversed(self.letters)))

    @staticmethod
    def parse(text: str) -> "GroupWord":
        """Parse a compact word: 'a','b','c','d' for a1,b1,a2,b2 and
        uppercase for inverses, e.g. 'aBc' = a1 b1^-1 a2."""
        letters = []
        for ch in text.replace(" ", "").replace("*", ""):
            low = ch.lower()
            if low not in _LETTER_CHARS:
                raise ValueError(f"unknown generator letter {ch!r}")
            idx = _LETTER_CHARS.index(low) + 1
            letters.append(idx if ch.islower() else -idx)
        return GroupWord(tuple(letters))

    def __str__(self):
        return "".join(
            _LETTER_CHARS[abs(l) - 1] if l > 0 else _LETTER_CHARS[abs(l) - 1].upper()
            for l in self.letters
        )


def word_children(last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level of the reduced-word tree: for words whose last letters are
    ``last`` (0 for the empty word), the (parent row, letter) of every
    reduced one-letter extension, in shortlex order: parent row first, then
    LETTER_ORDER."""
    letters = np.array(LETTER_ORDER)
    rows, ranks = np.nonzero(last[:, None] != -letters)
    return rows, letters[ranks]


# Position in LETTER_ORDER of each letter l, at index l + 4.
_LETTER_ROW = np.array([_LETTER_RANK.get(l, -1) for l in range(-4, 5)])


def word_products(level: np.ndarray, rows: np.ndarray, letters: np.ndarray, gens) -> np.ndarray:
    """Matrices ``level[rows[k]] @ gens[letters[k]]`` of the children from
    ``word_children``, unnormalized.

    Each letter is one BLAS call, ``stack_times(level, gens[l])``, over the
    flattened (2N, 2) rows of every parent; the children gather their rows
    from these eight blocks.  The bits are those of the per-matrix stacked
    ``@`` (one BLAS call per 2x2 matrix), because only the number of rows
    changes.  Forms that change the other operand change bits: one call for
    all letters against the (2, 16) block of the eight generators side by
    side, or one matrix times a stack of pairs, ``u @ p[..., None]``,
    rewritten as ``p @ u.T``."""
    blocks = np.empty((len(LETTER_ORDER),) + level.shape, dtype=complex)
    for i, l in enumerate(LETTER_ORDER):
        blocks[i] = stack_times(level, gens[l])
    return blocks[_LETTER_ROW[letters + 4], rows]


def first_rows(keys: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct row of the (N, K)
    array keys, in lexicographic order of the rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order[first]


def key_ranks(keys: np.ndarray) -> np.ndarray:
    """Rank of each row of the (N, K) array keys among its distinct rows,
    in lexicographic order, as int32.  Rows share a rank exactly when
    ``first_rows`` counts them as one (``!=`` finds no entry apart, so
    signed zeros match), and ``np.unique(ranks, return_index=True)[1]`` of
    any subset of the rows is ``first_rows`` of that subset's keys."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    step = np.zeros(len(order), dtype=np.int32)
    step[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = np.cumsum(step, dtype=np.int32)
    return ranks


def enumerate_words(radius: int):
    """All nonempty freely reduced words of length <= radius, shortlex order."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    out = []
    level, last = [()], np.array([0])
    for _ in range(radius):
        rows, last = word_children(last)
        level = [level[r] + (int(l),) for r, l in zip(rows, last)]
        out.extend(level)
    return [GroupWord(w) for w in out]


# The one relation of the genus-2 surface group, [a1, b1][a2, b2].
RELATION = GroupWord((1, 2, -1, -2, 3, 4, -3, -4))


# ---------------------------------------------------------------------------
# Fenchel-Nielsen data


@dataclass(frozen=True)
class FNCoordinates:
    lengths: tuple  # three cuff lengths > 0
    twists: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.lengths) != 3 or len(self.twists) != 3:
            raise ValueError("genus-2 FN data needs 3 lengths and 3 twists")
        if any(l <= 0 for l in self.lengths):
            raise DegenerateInputError("cuff lengths must be positive")
        object.__setattr__(self, "lengths", tuple(float(l) for l in self.lengths))
        object.__setattr__(self, "twists", tuple(float(t) for t in self.twists))


def _pi_rotation(w: complex) -> MoebiusMap:
    """Order-2 elliptic fixing the upper half-plane point w."""
    u, v = w.real, w.imag
    return MoebiusMap(np.array([[u / v, -(u * u + v * v) / v], [1.0 / v, -u / v]], dtype=complex))


def geodesic_through_uhp(p: complex, q: complex) -> GeodesicH3:
    """Ideal endpoints of the H^2 geodesic through two interior points,
    ordered so travel from p to q heads toward the second endpoint."""
    if abs(p.real - q.real) < 1e-13 * max(1.0, abs(p), abs(q)):
        foot = PointCP1.from_complex(complex(p.real, 0.0))
        top = PointCP1.infinity()
        return GeodesicH3(foot, top) if q.imag > p.imag else GeodesicH3(top, foot)
    c = (abs(q) ** 2 - abs(p) ** 2) / (2.0 * (q.real - p.real))
    r = abs(p - c)
    pha = math.atan2(p.imag, p.real - c)
    phb = math.atan2(q.imag, q.real - c)
    e_plus, e_minus = PointCP1.from_complex(c + r), PointCP1.from_complex(c - r)
    # Decreasing angle heads toward c + r.
    return GeodesicH3(e_minus, e_plus) if phb < pha else GeodesicH3(e_plus, e_minus)


def _hexagon_vertices(lengths) -> list[complex]:
    """Vertices of the right-angled hexagon with alternating cuff-half and
    seam sides, walked from i heading up the imaginary axis."""
    x1, x2, x3 = (l / 2.0 for l in lengths)

    def seam(xa, xb, xc):
        val = (math.cosh(xc) + math.cosh(xa) * math.cosh(xb)) / (math.sinh(xa) * math.sinh(xb))
        return math.acosh(val)

    s12 = seam(x1, x2, x3)
    s23 = seam(x2, x3, x1)
    s31 = seam(x3, x1, x2)
    sides = [x1, s12, x2, s23, x3, s31]

    def advance(d):
        return MoebiusMap(np.array([[math.exp(d / 2.0), 0.0], [0.0, math.exp(-d / 2.0)]], dtype=complex))

    def turn(phi):
        c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
        return MoebiusMap(np.array([[c, s], [-s, c]], dtype=complex))

    right = turn(-math.pi / 2.0)
    frame = MoebiusMap.identity()
    verts = [frame(1j)]
    for d in sides:
        frame = frame @ advance(d)
        verts.append(frame(1j))
        frame = frame @ right
    closure = abs(verts[-1] - verts[0])
    if closure > 1e-9 * max(1.0, max(abs(v) for v in verts)):
        raise ConstructionError(f"hexagon walk failed to close (residual {closure:.3g})")
    return verts[:6]


@dataclass(frozen=True)
class Representation:
    """Assignment of Moebius maps to the surface-group generators."""

    generators: tuple  # MoebiusMap for a1, b1, a2, b2
    basepoint: complex

    @cached_property
    def _inverses(self) -> tuple:
        return tuple(g.inverse() for g in self.generators)

    def generator(self, letter: int) -> MoebiusMap:
        return self.generators[letter - 1] if letter > 0 else self._inverses[-letter - 1]

    def rho(self, word: GroupWord) -> MoebiusMap:
        m = MoebiusMap.identity()
        for l in word.letters:
            m = m @ self.generator(l)
        return m

    def relation_residual(self) -> float:
        return self.rho(RELATION).proj_distance(MoebiusMap.identity())

    def max_imag_entry(self) -> float:
        """The largest |Im| of a generator matrix entry, 0 for a real
        (Fuchsian) holonomy.  Demo 03 prints it; no library code reads it."""
        return max(float(np.max(np.abs(g.matrix.imag))) for g in self.generators)


@dataclass(frozen=True)
class FuchsianHolonomy(Representation):
    """Discrete faithful genus-2 representation into PSL(2,R)."""

    fn: FNCoordinates | None = None

    # Cuff words of the pants decomposition used by the construction.
    @property
    def cuff_words(self) -> tuple:
        return (GroupWord((1,)), GroupWord((-1, 4)), GroupWord((-4,)))


def fuchsian_from_fn(fn: FNCoordinates) -> FuchsianHolonomy:
    """Genus-2 Fuchsian holonomy realizing the given Fenchel-Nielsen data."""
    verts = _hexagon_vertices(fn.lengths)

    # Weierstrass points: hexagon vertices, in antipodal pairs on the cuffs.
    pairs = [(verts[0], verts[1]), (verts[2], verts[3]), (verts[4], verts[5])]
    slid = []
    for (u, v), t in zip(pairs, fn.twists):
        if abs(t) > 1e-15:
            g = translation_along_geodesic(geodesic_through_uhp(u, v), t / 2.0)
            u, v = g(u), g(v)
        slid.extend([u, v])

    js = [_pi_rotation(w) for w in slid]

    prod = MoebiusMap.identity()
    for j in js:
        prod = prod @ j
    res = prod.proj_distance(MoebiusMap.identity())
    if res > TOL_REP:
        raise ConstructionError(f"rotation product is not the identity (residual {res:.3g})")

    a1 = js[0] @ js[1]
    b1 = js[2] @ js[1]
    a2 = js[3] @ js[4]
    b2 = js[5] @ js[4]

    hol = FuchsianHolonomy(generators=(a1, b1, a2, b2), basepoint=1j, fn=fn)

    rel = hol.relation_residual()
    if rel > TOL_REP:
        raise ConstructionError(f"surface relation fails (residual {rel:.3g})")
    for word, length in zip(hol.cuff_words, fn.lengths):
        tr2 = hol.rho(word).trace_squared()
        want = (2.0 * math.cosh(length / 2.0)) ** 2
        if abs(tr2 - want) > 1e-8 * max(1.0, want):
            raise ConstructionError(f"cuff trace mismatch for {word}: tr^2={tr2:.6g} want {want:.6g}")
    return hol


# ---------------------------------------------------------------------------
# Axes, limit sets, discreteness heuristics


def axis(m: MoebiusMap) -> GeodesicH3:
    """Axis of a hyperbolic or loxodromic element, oriented from the
    repelling to the attracting fixed point."""
    cls = classify(m)
    if cls.kind not in ("hyperbolic", "loxodromic"):
        raise DegenerateInputError(f"axis undefined for {cls.kind} element")
    rep, att = cls.fixed_points
    return GeodesicH3(rep, att)


def _attracting_points(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized attracting fixed points (as homogeneous pairs) of the
    hyperbolic/loxodromic matrices among mats; also returns the validity mask."""
    a = mats[:, 0, 0]
    b = mats[:, 0, 1]
    c = mats[:, 1, 0]
    d = mats[:, 1, 1]
    t = a + d
    disc = np.sqrt(t * t - 4.0 + 0j)
    lam1 = (t + disc) / 2.0
    lam2 = (t - disc) / 2.0
    pick1 = np.abs(lam1) >= np.abs(lam2)
    lam = np.where(pick1, lam1, lam2)
    ok = (np.abs(disc) > 1e-9) & (np.abs(lam) > 1.0 + 1e-12)
    v1 = np.stack([b, lam - a], axis=1)
    v2 = np.stack([lam - d, c], axis=1)
    use1 = np.linalg.norm(v1, axis=1) >= np.linalg.norm(v2, axis=1)
    v = np.where(use1[:, None], v1, v2)
    return v, ok


def limit_set_sample(hol, depth: int) -> np.ndarray:
    """Attracting fixed points of all hyperbolic/loxodromic images of words
    of length <= depth, deduplicated on the sphere (first occurrence kept);
    deterministic order.  Returned as an (N, 2) array of homogeneous pairs.
    The dedup keys are ``sphere_keys``, equal under ``==`` to the rounded
    ``PointCP1.sphere_coords`` of each point (only a zero's sign may
    differ), so the rows are those of the per-point dedup, bit for bit."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    gens = {l: hol.generator(l).matrix for l in LETTER_ORDER}
    pairs = []
    level, last = np.eye(2, dtype=complex)[None], np.array([0])
    for _ in range(depth):
        rows, last = word_children(last)
        level = word_products(level, rows, last, gens)
        vecs, ok = _attracting_points(level)
        pairs.append(vecs[ok])

    pairs = np.concatenate(pairs)
    decimals = max(1, int(-math.log10(TOL_GEO)))
    keys = sphere_keys(pairs, decimals)
    return pairs[np.sort(first_rows(keys))]


def jorgensen_flags(hol: FuchsianHolonomy, word_pairs) -> list[dict]:
    """Jorgensen-style discreteness heuristic |tr^2 A - 4| + |tr[A,B] - 2|;
    pairs scoring below 1 are flagged (reported, never asserted)."""
    flags = []
    for wa, wb in word_pairs:
        ma, mb = hol.rho(wa), hol.rho(wb)
        comm = ma @ mb @ ma.inverse() @ mb.inverse()
        tr_comm = comm.matrix[0, 0] + comm.matrix[1, 1]
        value = abs(ma.trace_squared() - 4.0) + abs(tr_comm - 2.0)
        if value < 1.0 - TOL_REP:
            flags.append({"pair": (str(wa), str(wb)), "jorgensen": float(value)})
    return flags


def cuff_length_from_trace(m: MoebiusMap) -> float:
    """Translation length 2 acosh(|tr| / 2) of m, 0 unless hyperbolic:
    demo 03's cuff-length check, and each curve's half length in the
    grafting word tree's reach."""
    t2 = m.trace_squared()
    return 2.0 * math.acosh(math.sqrt(max(t2.real, 4.0)) / 2.0)
