"""Numerical PSL(2,C) kernel: points of the Riemann sphere, Moebius maps,
oriented round circles, and smallest enclosing disks.

Conventions
-----------
* Points of the sphere are homogeneous pairs (z0, z1); z = z0/z1, infinity
  is (1, 0).
* A Moebius map is an SL(2,C) matrix stored up to sign, with a deterministic
  sign normalization so matrices can be compared.
* A circle is a Hermitian 2x2 matrix H with det(H) = -1.  The point p lies
  on the circle iff p* H p = 0, and the chosen disk side is p* H p < 0.
  For H = [[A, B], [conj(B), D]] and a finite circle, the center is -B/A and
  the radius 1/|A|; A > 0 selects the bounded interior.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

# Tolerances: algebraic residuals, geometric coincidence, parabolic band.
TOL_ALG = 1e-10
TOL_GEO = 1e-7
TOL_CLASS = 1e-8


class DegenerateInputError(ValueError):
    """Raised when the input collapses (coincident points, empty sets, ...)."""


class NoIntersectionError(ValueError):
    """Raised when two circles do not meet transversally."""


# ---------------------------------------------------------------------------
# Points of CP^1


@dataclass(frozen=True)
class PointCP1:
    """Point of the Riemann sphere in homogeneous coordinates (z0 : z1)."""

    z0: complex
    z1: complex

    def __post_init__(self):
        # The norm by hypot of the parts, which neither overflows nor
        # underflows where the squares would.
        n = math.hypot(self.z0.real, self.z0.imag, self.z1.real, self.z1.imag)
        if n == 0.0 or not math.isfinite(n):
            raise DegenerateInputError("homogeneous coordinates must be finite and not both zero")

    @staticmethod
    def from_complex(z: complex) -> "PointCP1":
        return PointCP1(complex(z), 1.0 + 0.0j)

    @staticmethod
    def infinity() -> "PointCP1":
        return PointCP1(1.0 + 0.0j, 0.0j)

    @property
    def is_infinity(self) -> bool:
        return abs(self.z1) <= TOL_GEO * abs(self.z0)

    def as_complex(self) -> complex:
        """Affine coordinate z0/z1; raises for points at (or too near) infinity."""
        if self.is_infinity:
            raise DegenerateInputError("point is at infinity")
        return self.z0 / self.z1

    def normalized(self) -> "PointCP1":
        n = math.hypot(abs(self.z0), abs(self.z1))
        return PointCP1(self.z0 / n, self.z1 / n)

    def vector(self) -> np.ndarray:
        return np.array([self.z0, self.z1], dtype=complex)

    def sphere_coords(self) -> np.ndarray:
        """Unit-sphere embedding of CP^1 (chordal model); infinity -> (0,0,1)."""
        p = self.normalized()
        z0, z1 = p.z0, p.z1
        # For z = z0/z1: (2 Re z, 2 Im z, |z|^2 - 1) / (|z|^2 + 1), written
        # homogeneously so it is finite at infinity.
        w = 2.0 * z0 * np.conj(z1)
        den = abs(z0) ** 2 + abs(z1) ** 2
        return np.array([w.real / den, w.imag / den, (abs(z0) ** 2 - abs(z1) ** 2) / den])


def _pair(z) -> tuple:
    """(z0, z1) of ``cp1(z)``."""
    if isinstance(z, PointCP1):
        return z.z0, z.z1
    if z == math.inf or (isinstance(z, str) and z == "inf"):
        return 1.0 + 0.0j, 0.0j
    return complex(z), 1.0 + 0.0j


def cp1(z) -> PointCP1:
    """Coerce a complex number, 'inf', or PointCP1 into a PointCP1."""
    return z if isinstance(z, PointCP1) else PointCP1(*_pair(z))


INFINITY = PointCP1.infinity()


def chordal_distance(p: PointCP1, q: PointCP1) -> float:
    """Chordal metric: Euclidean distance of the sphere embeddings (<= 2)."""
    return float(chordal_rows(p.sphere_coords(), q.sphere_coords()))


# ---------------------------------------------------------------------------
# Pair arrays: points of CP^1 as rows (z0, z1) of an (..., 2) complex array.
# Each function equals its per-point method bit for bit, so a batch and a
# single point never disagree, near a threshold or anywhere else.


def as_pairs(points) -> np.ndarray:
    """(N, 2) homogeneous pairs of ``cp1`` of each point, without building
    points; an (N, 2) array of pairs is passed through as it is.
    ``unit_pairs`` makes PointCP1's check."""
    if isinstance(points, np.ndarray) and points.ndim == 2:
        return points
    return np.array([_pair(p) for p in points], dtype=complex).reshape(-1, 2)


def _check_rows(pairs: np.ndarray) -> None:
    """Raise, in row order, what PointCP1 raises for a row of an (N, 2)
    stack.  numpy's hypot may differ from CPython's in the last bit, so rows
    outside a safe range get PointCP1's own check."""
    with np.errstate(all="ignore"):
        n = np.hypot(np.abs(pairs[:, 0]), np.abs(pairs[:, 1]))
    for i in (~((n > 1e-290) & (n < 1e290))).nonzero()[0]:
        PointCP1(complex(pairs[i, 0]), complex(pairs[i, 1]))


def row_faults(pairs: np.ndarray, ends) -> dict:
    """For an (M, 2) stack of pairs cut into consecutive arrays at the
    offsets ``ends`` (0 first, M last): a dict from the index of each array
    with a row PointCP1 rejects to the error ``_check_rows`` raises on it."""
    try:
        _check_rows(pairs)
        return {}
    except DegenerateInputError:
        pass
    faults = {}
    for k, (a, b) in enumerate(zip(ends, ends[1:])):
        try:
            _check_rows(pairs[a:b])
        except DegenerateInputError as exc:
            faults[k] = exc
    return faults


# Up to Python 3.13 a float in complex arithmetic acts as complex(x, 0.0);
# from 3.14 it acts part by part.  Only the signs of zero parts differ.
_FLOAT_AS_COMPLEX = math.copysign(1.0, (complex(-0.0, 1.0) / 1.0).real) > 0


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 as CPython computes it, by libm's pow (x * x differs from it
    in the last bit on about 1 value in 1,200)."""
    sq = map(math.pow, x.ravel().tolist(), itertools.repeat(2.0))
    return np.fromiter(sq, float, x.size).reshape(x.shape)


def unit_pairs(pairs) -> np.ndarray:
    """``PointCP1.normalized`` of every row of an (..., 2) stack.  A row
    that PointCP1 would reject raises the same error.  The steps are
    CPython's: abs as libm's hypot of the parts, the norm by math.hypot,
    and the division of a complex by a float."""
    pairs = np.asarray(pairs, dtype=complex)
    flat = pairs.reshape(-1, 2)
    _check_rows(flat)
    re, im = flat.real, flat.imag
    n = np.fromiter(map(math.hypot, *np.hypot(re, im).T.tolist()), float, len(flat))[:, None]
    if _FLOAT_AS_COMPLEX:
        re, im = re + im * 0.0, im - re * 0.0
    out = np.empty_like(flat)
    out.real, out.imag = re / n, im / n
    return out.reshape(pairs.shape)


def sphere_xyz(pairs) -> np.ndarray:
    """``PointCP1.sphere_coords`` of every row of an (..., 2) stack: (..., 3).
    Its complex products are written out part by part, in the order of
    CPython's and numpy's scalar products."""
    u = unit_pairs(pairs)
    r0, i0, r1, i1 = u[..., 0].real, u[..., 0].imag, u[..., 1].real, u[..., 1].imag
    s0, s1 = _squares(np.hypot(r0, i0)), _squares(np.hypot(r1, i1))
    den = s0 + s1
    ar, ai = 2.0 * r0, 2.0 * i0
    if _FLOAT_AS_COMPLEX:
        ar, ai = ar - 0.0 * i0, ai + 0.0 * r0
    # (2 z0) * conj(z1)
    wr, wi = ar * r1 - ai * -i1, ar * -i1 + ai * r1
    return np.stack([wr / den, wi / den, (s0 - s1) / den], axis=-1)


# The one exception to this section's rule: ``sphere_approx`` is within a
# few ulps of sphere_xyz, and ``sphere_keys`` rounds it to keys equal to
# sphere_xyz's under ==.
# Squared norms of rows that ``sphere_approx`` takes by plain products:
# within these bounds no square or product overflows, and what underflows
# is far below the last bit of the result.
_APPROX_NORMS = (1e-290, 1e290)
# Half-width, in units of the last kept decimal, of the band about each
# rounding boundary in which ``sphere_keys`` takes sphere_xyz's own steps.
# The products and sphere_xyz's steps differ by a few 1e-16 in each
# coordinate, under 1e-6 of a unit at 9 decimals.
KEY_BAND = 1e-5


def sphere_approx(pairs) -> np.ndarray:
    """``sphere_xyz`` of every row of an (..., 2) stack to within a few
    ulps, by plain products of the unnormalized parts:
    (2 Re z0 conj(z1), 2 Im z0 conj(z1), |z0|^2 - |z1|^2) / (|z0|^2 + |z1|^2).
    A row whose squared norm lies outside ``_APPROX_NORMS`` (every row
    PointCP1 rejects among them) gets sphere_xyz's own value, so the first
    such row PointCP1 rejects raises its error."""
    pairs = np.asarray(pairs, dtype=complex)
    r0, i0, r1, i1 = pairs[..., 0].real, pairs[..., 0].imag, pairs[..., 1].real, pairs[..., 1].imag
    with np.errstate(all="ignore"):
        s0, s1 = r0 * r0 + i0 * i0, r1 * r1 + i1 * i1
        den = s0 + s1
        out = np.stack([(r0 * r1 + i0 * i1) * 2.0 / den, (i0 * r1 - r0 * i1) * 2.0 / den,
                        (s0 - s1) / den], axis=-1)
    off = ~((den > _APPROX_NORMS[0]) & (den < _APPROX_NORMS[1]))
    if off.any():
        out[off] = sphere_xyz(pairs[off])
    return out


def sphere_keys(pairs, decimals: int, approx: np.ndarray | None = None) -> np.ndarray:
    """Values equal under ``==`` to ``np.round(sphere_xyz(pairs), decimals)``
    for an (..., 2) stack; only the sign of a zero may differ.  They are the
    rounded ``sphere_approx`` (``approx`` when given, which must be it),
    except on rows with a coordinate within KEY_BAND units of the last
    decimal of a rounding boundary: those take sphere_xyz.  Elsewhere the
    two differ by far less than the band, so no boundary lies between them
    and both round alike."""
    if approx is None:
        approx = sphere_approx(pairs)
    # np.round's own steps: the product by 10^decimals, rint, the quotient.
    scale = 10.0 ** decimals
    scaled = approx * scale
    whole = np.rint(scaled)
    near = (np.abs(scaled - whole) > 0.5 - KEY_BAND).any(axis=-1)
    keys = np.divide(whole, scale, out=whole)
    if near.any():
        keys[near] = np.round(sphere_xyz(np.asarray(pairs)[near]), decimals)
    return keys


def chordal_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Chordal distances between sphere coordinates a and b, broadcast over
    the leading axes: the one expression of ``chordal_distance``."""
    d = a - b
    return np.sqrt(np.add.reduce(d * d, axis=-1))


def frobenius_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius distances between complex rows a and b, broadcast over the
    leading axes: the one expression of ``OrientedCircle.proj_distance``."""
    d = a - b
    return np.sqrt(np.add.reduce(d.real * d.real + d.imag * d.imag, axis=-1))


def leader_rows(rows: np.ndarray, close, pairs: int) -> np.ndarray:
    """The leader of each row of a stack: the first earlier leader that
    ``close`` finds it close to, or else the row itself.  ``close(a, b)``
    compares rows broadcast over the leading axes, with the same bits in
    either order, as ``chordal_rows`` and ``frobenius_rows`` under a
    tolerance do (a difference's negation squares to the same bits).

    Blocks of about ``pairs`` pairs compare their rows with every row up
    to the block's end at once.  A row with no earlier close row leads, and
    one whose first close row leads joins it; only the others walk the
    earlier leaders, on the block's comparisons."""
    n = len(rows)
    leader, leads = np.arange(n), np.ones(n, dtype=bool)
    step = max(1, pairs // max(n, 1))
    for start in range(0, n, step):
        stop = min(n, start + step)
        near = close(rows[start:stop, None], rows[None, :stop])
        first = np.where(near.any(axis=1), near.argmax(axis=1), n)
        for k in (np.flatnonzero(first < np.arange(start, stop)) + start).tolist():
            j = first[k - start]
            if not leads[j]:
                hits = np.flatnonzero(near[k - start, :k] & leads[:k])
                j = hits[0] if len(hits) else k
            leader[k], leads[k] = j, j == k
    return leader


def bracket(p: PointCP1, q: PointCP1) -> complex:
    """Determinant [p, q] = p0 q1 - p1 q0 of normalized representatives."""
    pn, qn = p.normalized(), q.normalized()
    return pn.z0 * qn.z1 - pn.z1 * qn.z0


def cross_ratio(p: PointCP1, q: PointCP1, r: PointCP1, s: PointCP1) -> complex:
    """Cross-ratio (p,q;r,s) = ((p-r)(q-s)) / ((p-s)(q-r)), infinity-safe."""
    num = bracket(p, r) * bracket(q, s)
    den = bracket(p, s) * bracket(q, r)
    if abs(den) < TOL_ALG * max(abs(num), 1.0) * 1e-6:
        raise DegenerateInputError("cross-ratio undefined: coincident points")
    return num / den


# ---------------------------------------------------------------------------
# Moebius maps


SINGULAR = "singular matrix is not a Moebius map"


def det_parts(ar, ai, br, bi, cr, ci, dr, di) -> tuple:
    """Real and imaginary parts of a d - b c from the parts of the entries,
    each complex product written out part by part: the bits of numpy's and
    CPython's scalar arithmetic (numpy's array product differs from them in
    the last bits).  The parts may be floats or arrays of them."""
    return ((ar * dr - ai * di) - (br * cr - bi * ci),
            (ar * di + ai * dr) - (br * ci + bi * cr))


def _sign_normalize(m: np.ndarray) -> np.ndarray:
    """Flip the global sign so the first entry of magnitude > TOL_ALG has
    positive real part (positive imaginary part breaks the tie)."""
    for e in m.flat:
        if abs(e) > TOL_ALG:
            if e.real < 0 or (e.real == 0 and e.imag < 0):
                return -m
            return m
    return m


def _sign_stack(mats: np.ndarray, big: np.ndarray) -> np.ndarray:
    """``_sign_normalize`` of every matrix of an (N, 2, 2) stack, in place,
    given where its entries exceed TOL_ALG in magnitude, as an (N, 4) mask;
    a matrix with no such entry keeps its sign."""
    f0, f1, f2, f3 = mats.reshape(len(mats), 4).T
    b0, b1, b2, b3 = big.T
    lead = np.where(b0, f0, np.where(b1, f1, np.where(b2, f2, np.where(b3, f3, 0))))
    flip = np.where(lead.real != 0, lead.real, lead.imag) < 0
    return np.negative(mats, out=mats, where=flip[:, None, None])


def moebius_rows(mats: np.ndarray) -> tuple:
    """MoebiusMap's normalization of every matrix of an (N, 2, 2) stack, bit
    for bit: divided by the square root of its determinant, then signed by
    ``_sign_normalize``.  Returns the stack and the faults, a dict from the
    index of each singular matrix, which MoebiusMap rejects, to its message;
    a singular matrix is left unscaled."""
    a, b, c, d = mats.reshape(len(mats), 4).T
    det = np.empty(len(mats), dtype=complex)
    det.real, det.imag = det_parts(a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
    singular = np.abs(det) < 1e-300
    if singular.any():
        det[singular] = 1.0
    mats = mats / np.sqrt(det)[:, None, None]
    faults = dict.fromkeys(singular.nonzero()[0].tolist(), SINGULAR)
    return _sign_stack(mats, np.abs(mats.reshape(len(mats), 4)) > TOL_ALG), faults


def stack_times(stack: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``stack @ right`` for an (N, 2, 2) stack of matrices (or of pairs as
    rows) and one 2x2 matrix or 2-vector ``right``, as one BLAS call over
    the stack's (2N, 2) rows instead of one per matrix.  Every row's entries
    are the same two-term dot products either way, and OpenBLAS rounds them
    alike for any number of rows, so the bits are the stacked product's
    (``tests/test_surface.py`` pins this).  Only this operand order keeps
    them: see ``surface.word_products``."""
    return (stack.reshape(-1, 2) @ right).reshape(stack.shape[:-1] + right.shape[1:])


@dataclass(frozen=True)
class MoebiusMap:
    """Element of PSL(2,C): SL(2,C) matrix stored up to a normalized sign."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).reshape(2, 2)
        det = complex(*det_parts(*m.ravel().view(float).tolist()))
        if abs(det) < 1e-300:
            raise DegenerateInputError(SINGULAR)
        m = _sign_normalize(m / np.sqrt(det))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(np.eye(2, dtype=complex))

    @staticmethod
    def from_entries(a, b, c, d) -> "MoebiusMap":
        return MoebiusMap(np.array([[a, b], [c, d]], dtype=complex))

    @property
    def a(self) -> complex:
        return self.matrix[0, 0]

    @property
    def b(self) -> complex:
        return self.matrix[0, 1]

    @property
    def c(self) -> complex:
        return self.matrix[1, 0]

    @property
    def d(self) -> complex:
        return self.matrix[1, 1]

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(self.matrix @ other.matrix)

    def inverse(self) -> "MoebiusMap":
        a, b, c, d = self.a, self.b, self.c, self.d
        return MoebiusMap(np.array([[d, -b], [-c, a]], dtype=complex))

    def trace_squared(self) -> complex:
        """tr^2 is well defined in PSL(2,C) even though tr is not."""
        t = self.a + self.d
        return t * t

    def __call__(self, p):
        """Apply to a PointCP1 (or complex, returned as complex when finite)."""
        if isinstance(p, PointCP1):
            return apply(self, p)
        q = apply(self, cp1(p))
        return q.as_complex()

    def proj_distance(self, other: "MoebiusMap") -> float:
        """Frobenius distance in PSL(2,C): min over the sign ambiguity."""
        d1 = float(np.linalg.norm(self.matrix - other.matrix))
        d2 = float(np.linalg.norm(self.matrix + other.matrix))
        return min(d1, d2)

    def is_identity(self, tol: float = TOL_CLASS) -> bool:
        return self.proj_distance(MoebiusMap.identity()) < tol

    def __repr__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        return f"MoebiusMap([[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"


def apply(m: MoebiusMap, p: PointCP1) -> PointCP1:
    """Projective action on homogeneous coordinates (no special case at infinity)."""
    v = m.matrix @ p.normalized().vector()
    return PointCP1(complex(v[0]), complex(v[1]))


def apply_stack(m: MoebiusMap, pairs: np.ndarray) -> np.ndarray:
    """``apply`` on an (N, 2) stack of normalized homogeneous pairs.

    The rows are the pairs ``apply`` would build, bit for bit: the product
    is written out per column (``pairs @ m.T`` rounds differently).  A row
    that PointCP1 would reject raises the same error, in row order."""
    return apply_rows(m.matrix[None], pairs)


def apply_rows(mats: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """``apply_stack`` with a map per row: row k of the (N, 2) stack of
    normalized pairs is mapped by ``mats[k]`` of the (N, 2, 2) stack, or
    by ``mats[0]`` of a (1, 2, 2) stack, by the same column products and
    with the same row check."""
    out = np.empty_like(pairs)
    out[:, 0] = mats[:, 0, 0] * pairs[:, 0] + mats[:, 0, 1] * pairs[:, 1]
    out[:, 1] = mats[:, 1, 0] * pairs[:, 0] + mats[:, 1, 1] * pairs[:, 1]
    _check_rows(out)
    return out


def affine_rows(pairs: np.ndarray) -> tuple:
    """``as_complex`` of every row of an (..., 2) stack of pairs PointCP1
    accepts, bit for bit, and where a row is at infinity (its value is then
    0).  The test is ``as_complex``'s, with CPython's abs (libm's hypot of
    the parts; numpy's complex abs may differ in the last bit), and the
    quotient is CPython's: Smith's algorithm, dividing by the larger part
    of z1 (numpy's complex division rounds differently).  Where that is the
    imaginary part, swapping the parts of z0 and z1 conjugates the
    quotient, so one branch serves both; its imaginary part is then negated
    as CPython writes it, which keeps the sign of a zero."""
    ar, ai, br, bi = pairs[..., 0].real, pairs[..., 0].imag, pairs[..., 1].real, pairs[..., 1].imag
    at_inf = np.hypot(br, bi) <= TOL_GEO * np.hypot(ar, ai)
    by_re = np.abs(br) >= np.abs(bi)
    p, q = np.where(by_re, br, bi), np.where(by_re, bi, br)
    s, t = np.where(by_re, ar, ai), np.where(by_re, ai, ar)
    out = np.empty(at_inf.shape, dtype=complex)
    with np.errstate(all="ignore"):
        ratio = q / p
        denom = p + q * ratio
        v = s * ratio
        out.real = (s + t * ratio) / denom
        out.imag = np.where(by_re, t - v, v - t) / denom
    out[at_inf] = 0.0
    return out, at_inf


def affine_stack(pairs: np.ndarray) -> list[complex]:
    """``as_complex`` of every row of an (N, 2) stack of pairs PointCP1
    accepts, bit for bit (see ``affine_rows``).  Raises, like
    ``as_complex``, if a row is at infinity."""
    out, at_inf = affine_rows(pairs)
    if at_inf.any():
        raise DegenerateInputError("point is at infinity")
    return out.tolist()


def moebius_three_points(p: PointCP1, q: PointCP1, r: PointCP1) -> MoebiusMap:
    """The unique Moebius map sending (p, q, r) to (0, 1, infinity)."""
    p, q, r = p.normalized(), q.normalized(), r.normalized()
    qr = bracket(q, r)
    qp = bracket(q, p)
    # Rows built so that p -> 0 and r -> infinity, scaled to fix q -> 1.
    m = np.array(
        [
            [qr * p.z1, -qr * p.z0],
            [qp * r.z1, -qp * r.z0],
        ],
        dtype=complex,
    )
    return MoebiusMap(m)


def moebius_two_points(p: PointCP1, q: PointCP1) -> MoebiusMap:
    """Some Moebius map sending p -> 0 and q -> infinity (scale not pinned)."""
    p, q = p.normalized(), q.normalized()
    m = np.array([[p.z1, -p.z0], [q.z1, -q.z0]], dtype=complex)
    return MoebiusMap(m)


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class MoebiusClass:
    kind: str  # identity | elliptic | parabolic | hyperbolic | loxodromic
    fixed_points: tuple
    parabolic_ambiguous: bool = False


def fixed_points(m: MoebiusMap) -> tuple:
    """Fixed points as eigenvectors, ordered (repelling, attracting) when the
    eigenvalue moduli differ."""
    a, b, c, d = m.a, m.b, m.c, m.d
    t = a + d
    disc = cmath.sqrt(t * t - 4.0)
    lam1 = (t + disc) / 2.0
    lam2 = (t - disc) / 2.0

    def eigvec(lam):
        v1 = np.array([b, lam - a], dtype=complex)
        v2 = np.array([lam - d, c], dtype=complex)
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        return PointCP1(complex(v[0]), complex(v[1]))

    if abs(disc) < TOL_CLASS:
        return (eigvec(t / 2.0),)
    p1, p2 = eigvec(lam1), eigvec(lam2)
    # Attracting fixed point belongs to the eigenvalue of larger modulus.
    if abs(lam1) >= abs(lam2):
        return (p2, p1)
    return (p1, p2)


def classify(m: MoebiusMap) -> MoebiusClass:
    """Classify by tr^2: [0,4) elliptic, 4 parabolic, real (4,inf) hyperbolic,
    anything else loxodromic.  |tr^2 - 4| < TOL_CLASS is flagged parabolic-ambiguous."""
    if m.is_identity():
        return MoebiusClass("identity", ())
    t2 = m.trace_squared()
    if abs(t2 - 4.0) < TOL_CLASS:
        fp = fixed_points(m)
        ambiguous = abs(t2 - 4.0) > 1e-14
        return MoebiusClass("parabolic", (fp[0],), parabolic_ambiguous=ambiguous)
    fp = fixed_points(m)
    if abs(t2.imag) < TOL_CLASS:
        x = t2.real
        if 0.0 <= x < 4.0 or (-TOL_CLASS < x < 0.0):
            return MoebiusClass("elliptic", fp)
        if x > 4.0:
            return MoebiusClass("hyperbolic", fp)
    return MoebiusClass("loxodromic", fp)


# ---------------------------------------------------------------------------
# Oriented circles


NOT_HERMITIAN = "matrix is not Hermitian"
NOT_A_CIRCLE = "Hermitian form does not define a real circle (det >= 0)"


def circle_rows(h: np.ndarray) -> tuple:
    """OrientedCircle's checks and normalization of every matrix of an
    (N, 2, 2) stack, bit for bit.  Returns the stack and the faults, a dict
    from the index of each matrix OrientedCircle rejects to its message; a
    rejected matrix is left unscaled."""
    n = len(h)
    hh = np.conj(h).transpose(0, 2, 1)
    flat = h.reshape(n, 4)
    skew = frobenius_rows(flat, hh.reshape(n, 4)) > TOL_ALG * np.maximum(1.0, frobenius_rows(flat, 0.0))
    h = (h + hh) / 2.0
    det = det_parts(*h.reshape(n, 4).view(float).T)[0]
    flat_form = ~skew & (det >= -1e-300)
    h = h / np.sqrt(np.where(skew | flat_form, 1.0, -det))[:, None, None]
    faults = dict.fromkeys(skew.nonzero()[0].tolist(), NOT_HERMITIAN)
    faults.update(dict.fromkeys(flat_form.nonzero()[0].tolist(), NOT_A_CIRCLE))
    return h, faults


def exterior_rows(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The forms of the circles of arrays of centers and positive radii with
    the exterior as disk side, as an (N, 2, 2) stack: [[-1, c], [conj c,
    r^2 - |c|^2]], the squares as CPython takes them.  Negated, a row is
    the form ``OrientedCircle.from_center_radius`` normalizes."""
    h = np.empty((len(centers), 2, 2), dtype=complex)
    h[:, 0, 0] = 1.0
    h[:, 0, 1] = -centers
    h[:, 1, 0] = -np.conj(centers)
    h[:, 1, 1] = _squares(np.hypot(centers.real, centers.imag)) - _squares(radii)
    return -h


def first_boundary_rows(forms: np.ndarray) -> np.ndarray:
    """``unit_pairs`` of ``OrientedCircle.boundary_points(1)[0]`` for every
    row [a, b, conj b, d] of an (N, 4) stack of circle forms, bit for bit,
    zero signs included: -b / a + 1 / |a| on a circle, and on a line
    (|a| < TOL_GEO) -d b / (2 |b| ** 2) + 0 (1j b), its products and its
    quotient written out part by part as numpy's and CPython's scalars
    take them."""
    a, br, bi, d = forms[:, 0].real, forms[:, 1].real, forms[:, 1].imag, forms[:, 3].real
    line = np.abs(a) < TOL_GEO
    z = np.empty(len(forms), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        z.real, z.imag = -br / a + 1.0 / np.abs(a), -bi / a + 0.0
    br, bi, d = br[line], bi[line], d[line]
    nr, ni = -d * br - 0.0 * bi, -d * bi + 0.0 * br
    scale = 1.0 / (2.0 * _squares(np.hypot(br, bi)))
    er, ei = 0.0 * (0.0 * br - bi), 0.0 * (0.0 * bi + br)
    if _FLOAT_AS_COMPLEX:
        er, ei = er - 0.0 * (0.0 * bi + br), ei + 0.0 * (0.0 * br - bi)
    z.real[line] = (nr + ni * 0.0) * scale + er
    z.imag[line] = (ni - nr * 0.0) * scale + ei
    return unit_pairs(np.stack([z, np.ones_like(z)], axis=-1))


@dataclass(frozen=True)
class OrientedCircle:
    """Round circle with a chosen side, as a Hermitian matrix of det -1.

    The disk side is {p : p* H p < 0}.
    """

    hermitian: np.ndarray = field(repr=False)

    def __post_init__(self):
        h, faults = circle_rows(np.asarray(self.hermitian, dtype=complex).reshape(1, 2, 2))
        if faults:
            raise DegenerateInputError(faults[0])
        h = h[0]
        h.setflags(write=False)
        object.__setattr__(self, "hermitian", h)

    @staticmethod
    def from_row(h: np.ndarray) -> "OrientedCircle":
        """The circle of a row that ``circle_rows`` normalized without a
        fault, kept as it is."""
        out = object.__new__(OrientedCircle)
        object.__setattr__(out, "hermitian", h)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_center_radius(center: complex, radius: float) -> "OrientedCircle":
        """The circle of a center and a positive radius, its interior the
        disk side: the negated ``exterior_rows`` form."""
        if radius <= 0:
            raise DegenerateInputError("radius must be positive")
        centers, radii = np.array([complex(center)]), np.array([radius], dtype=float)
        return OrientedCircle(-exterior_rows(centers, radii)[0])

    @staticmethod
    def real_line() -> "OrientedCircle":
        """The extended real line, the upper half-plane its disk side."""
        return OrientedCircle(np.array([[0.0, -1j], [1j, 0.0]], dtype=complex))

    # -- basic queries ------------------------------------------------------

    def evaluate(self, p: PointCP1) -> float:
        """Scale-invariant signed value of the Hermitian form at p."""
        v = p.normalized().vector()
        return float((np.conj(v) @ self.hermitian @ v).real)

    def contains_in_disk(self, p: PointCP1) -> bool:
        return self.evaluate(p) < 0.0

    @property
    def is_line(self) -> bool:
        return abs(self.hermitian[0, 0].real) < TOL_GEO

    def center_radius(self) -> tuple[complex, float]:
        """Euclidean center and radius; raises for lines."""
        a = self.hermitian[0, 0].real
        if abs(a) < TOL_GEO:
            raise DegenerateInputError("circle is a line; no finite center")
        b = complex(self.hermitian[0, 1])
        return (-b / a, 1.0 / abs(a))

    def reversed(self) -> "OrientedCircle":
        return OrientedCircle(-self.hermitian)

    def transform(self, m: MoebiusMap) -> "OrientedCircle":
        """Push forward: the image circle of m with the image side."""
        minv = m.inverse().matrix
        return OrientedCircle(minv.conj().T @ self.hermitian @ minv)

    def boundary_points(self, n: int = 3) -> list[PointCP1]:
        """n points on the circle, positively ordered (disk on the left)."""
        if not self.is_line:
            c, r = self.center_radius()
            interior = self.hermitian[0, 0].real > 0
            # Counterclockwise keeps a bounded interior on the left.
            sign = 1.0 if interior else -1.0
            return [
                PointCP1.from_complex(c + r * cmath.exp(sign * 2j * math.pi * k / n))
                for k in range(n)
            ]
        bcoef = complex(self.hermitian[0, 1])
        dcoef = self.hermitian[1, 1].real
        z0 = -dcoef * bcoef / (2.0 * abs(bcoef) ** 2)
        direction = 1j * bcoef  # disk side (-B direction) lies on the left
        return [PointCP1.from_complex(z0 + k * direction) for k in range(-(n // 2), n - n // 2)]

    def sample_disk_point(self) -> PointCP1:
        """Some point strictly on the disk side."""
        if not self.is_line:
            c, r = self.center_radius()
            if self.hermitian[0, 0].real > 0:
                return PointCP1.from_complex(c)
            return INFINITY if abs(c) < 1e12 else PointCP1.from_complex(c + 3 * r)
        bcoef = complex(self.hermitian[0, 1])
        dcoef = self.hermitian[1, 1].real
        z0 = -dcoef * bcoef / (2.0 * abs(bcoef) ** 2)
        return PointCP1.from_complex(z0 - bcoef / abs(bcoef))

    def proj_distance(self, other: "OrientedCircle") -> float:
        return float(frobenius_rows(self.hermitian.ravel(), other.hermitian.ravel()))

    def __repr__(self):
        if self.is_line:
            return "OrientedCircle(line)"
        c, r = self.center_radius()
        side = "interior" if self.hermitian[0, 0].real > 0 else "exterior"
        return f"OrientedCircle(center={c:.6g}, radius={r:.6g}, disk={side})"


@dataclass(frozen=True)
class RoundDisk:
    """A round disk: the chosen side of an oriented circle."""

    circle: OrientedCircle

    def contains(self, p: PointCP1) -> bool:
        return self.circle.contains_in_disk(p)


def inversive_rows(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Normalized inversive products of circle forms f and g, flattened to
    rows [a, b, conj b, d], broadcast over the leading axes: +1 for equal
    circles with equal orientation, 0 for orthogonal, |.| > 1 for disjoint
    circles.  The one expression of the product,
    (2 (bf_r bg_r + bf_i bg_i) - af dg - ag df) / 2, which has the bits of
    numpy's and CPython's scalar products."""
    af, bf, df = f[..., 0].real, f[..., 1], f[..., 3].real
    ag, bg, dg = g[..., 0].real, g[..., 1], g[..., 3].real
    return (2.0 * (bf.real * bg.real + bf.imag * bg.imag) - af * dg - ag * df) / 2.0


def inversive_product(c1: OrientedCircle, c2: OrientedCircle) -> float:
    """The normalized inversive product of two circles: ``inversive_rows``
    of their forms."""
    return float(inversive_rows(c1.hermitian.ravel(), c2.hermitian.ravel()))


def circle_through(p: PointCP1, q: PointCP1, r: PointCP1) -> OrientedCircle:
    """The round circle through three distinct points, oriented so (p, q, r)
    is positively ordered (disk on the left): ``circles_through`` on one
    row."""
    h = circles_through(np.array([[_pair(p), _pair(q), _pair(r)]]))
    h.setflags(write=False)
    return OrientedCircle.from_row(h[0])


def side_signs(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether v* H v > 0 for each form of an (N, 2, 2) stack of Hermitian
    matrices and the point v of its row of an (N, 2) stack."""
    av = v.real * v.real + v.imag * v.imag
    value = h[:, 0, 0].real * av[:, 0] + h[:, 1, 1].real * av[:, 1] + 2.0 * (
        h[:, 0, 1] * np.conj(v[:, 0]) * v[:, 1]).real
    return value > 0.0


def circles_through(rows) -> np.ndarray:
    """The circles of ``circle_through`` for an (F, 3, 2) stack of pair
    rows, one triple per row, as an (F, 2, 2) stack.  The three unit pairs
    of a row give its 3 x 4 system, written out part by part as CPython
    rounds it; one stacked SVD solves all of them (each matrix keeps its
    bits), and ``circle_rows`` normalizes the null vectors.  Each circle is
    then reversed (``circle_rows(-H)``, as ``OrientedCircle.reversed``) if
    the sign of its form at t^-1(i), for t the map sending the triple to
    (0, 1, infinity), is positive, taken in rows with ``side_signs``.  A
    fault is raised as the per-triple code raised it, the first in row
    order."""
    rows = np.asarray(rows, dtype=complex)
    u, xs = unit_pairs(rows), sphere_xyz(rows)
    sq = _squares(np.hypot(u.real, u.imag))
    close = (chordal_rows(xs[:, [0, 0, 1]], xs[:, [1, 2, 2]]) < TOL_GEO).any(axis=1)
    # [abs(z0) ** 2, 2 Re w, -2 Im w, abs(z1) ** 2] for w = conj(z0) * z1.
    r0, i0, r1, i1 = u[..., 0].real, u[..., 0].imag, u[..., 1].real, u[..., 1].imag
    wr, wi = r0 * r1 - -i0 * i1, r0 * i1 + -i0 * r1
    system = np.stack([sq[..., 0], 2.0 * wr, -2.0 * wi, sq[..., 1]], axis=-1)
    a, bre, bim, d = np.linalg.svd(system)[2][:, -1].T
    h = np.empty((len(rows), 2, 2), dtype=complex)
    h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1] = a, bre + 1j * bim, bre - 1j * bim, d
    h, faults = circle_rows(h)
    faults.update(dict.fromkeys(close.nonzero()[0].tolist(), "circle_through needs pairwise distinct points"))
    if faults:
        raise DegenerateInputError(faults[min(faults)])
    # t^-1(i), up to scale, from the rows of the inverse of t's matrix.
    p, q, r = u[:, 0], u[:, 1], u[:, 2]
    qr = q[:, :1] * r[:, 1:] - q[:, 1:] * r[:, :1]
    qp = q[:, :1] * p[:, 1:] - q[:, 1:] * p[:, :1]
    flip = side_signs(h, qr * p - 1j * qp * r)
    h[flip] = circle_rows(-h[flip])[0]
    return h


def angle_between(c1: OrientedCircle, c2: OrientedCircle) -> float:
    """Oriented intersection angle in [0, pi]: the vertex angle of the
    crescent between the two disk sides.  Moebius invariant.

    Circles equal or tangent within tolerance get the limiting angle (0 or
    pi); an inversive product beyond 1 + TOL_GEO means no intersection.
    """
    return angle_from_product(inversive_product(c1, c2))


def angle_from_product(ip: float) -> float:
    """The angle of ``angle_between`` from the circles' inversive product:
    NoIntersectionError beyond 1 + TOL_GEO, else ``math.acos`` of the
    product clamped to [-1, 1] (``np.arccos`` may differ in the last bit)."""
    if abs(ip) > 1.0 + TOL_GEO:
        raise NoIntersectionError(f"circles do not intersect transversally (product {ip:.6g})")
    return math.acos(min(1.0, max(-1.0, ip)))


# ---------------------------------------------------------------------------
# Minimal enclosing disk (randomized incremental, deterministic seed)


@dataclass(frozen=True)
class MinimalDisk:
    center: complex
    radius: float
    support: tuple  # indices of <= 3 input points on the boundary


def _circumcircle(p: complex, q: complex, r: complex):
    ax, ay = p.real, p.imag
    bx, by = q.real, q.imag
    cx, cy = r.real, r.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14 * max(abs(p - q), abs(q - r), abs(r - p), 1.0) ** 2:
        return None
    pa, pb, pc = abs(p) ** 2, abs(q) ** 2, abs(r) ** 2
    ux = (pa * (by - cy) + pb * (cy - ay) + pc * (ay - by)) / d
    uy = (pa * (cx - bx) + pb * (ax - cx) + pc * (bx - ax)) / d
    center = complex(ux, uy)
    return center, max(abs(p - center), abs(q - center), abs(r - center))


def _disk_two(p: complex, q: complex):
    center = (p + q) / 2.0
    return center, abs(p - q) / 2.0


def _contains(center, radius, p, eps):
    return abs(p - center) <= radius * (1.0 + eps) + eps


@functools.lru_cache(maxsize=256)
def _insertion_order(n: int, seed: int) -> tuple:
    """range(n) shuffled by random.Random(seed); it depends on n and the
    seed only, so it is drawn once per pair."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return tuple(order)


def minimal_enclosing_disk(points, seed: int = 0) -> MinimalDisk:
    """Smallest closed disk containing all (finite) points.

    Randomized incremental construction with a fixed seed for reproducible
    intermediate states; the result itself is unique.  This is Welzl's
    algorithm point by point: the reference that ``minimal_enclosing_disks``
    matches bit for bit, and its path for the rows it cannot take.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise DegenerateInputError("minimal_enclosing_disk of empty set")
    for p in pts:
        if not (math.isfinite(p.real) and math.isfinite(p.imag)):
            raise DegenerateInputError("minimal_enclosing_disk requires finite points")
    scale = max(1.0, max(abs(p) for p in pts))
    return _welzl(pts, _insertion_order(len(pts), seed), scale)


def _welzl(pts, order, scale: float) -> MinimalDisk:
    """Welzl's construction over the points ``pts[i]`` for i in ``order``,
    inserted in that order, with the support tidied at ``scale``."""
    eps = 1e-12

    def med_two_known(limit, i1, i2):
        c, r = _disk_two(pts[i1], pts[i2])
        sup = (i1, i2)
        for k in range(limit):
            i = order[k]
            if not _contains(c, r, pts[i], eps):
                cc = _circumcircle(pts[i1], pts[i2], pts[i])
                if cc is None:
                    # Collinear support: widest pair wins.
                    best = max(
                        ((a, b) for a in (i1, i2, i) for b in (i1, i2, i)),
                        key=lambda ab: abs(pts[ab[0]] - pts[ab[1]]),
                    )
                    c, r = _disk_two(pts[best[0]], pts[best[1]])
                    sup = best
                else:
                    c, r = cc
                    sup = (i1, i2, i)
        return c, r, sup

    def med_one_known(limit, i1):
        c, r = pts[i1], 0.0
        sup = (i1,)
        for k in range(limit):
            i = order[k]
            if not _contains(c, r, pts[i], eps):
                c, r, sup = med_two_known(k, i1, i)
        return c, r, sup

    c, r = pts[order[0]], 0.0
    sup = (order[0],)
    for k in range(1, len(order)):
        i = order[k]
        if not _contains(c, r, pts[i], eps):
            c, r, sup = med_one_known(k, i)

    # Tidy the support set: keep boundary contacts only.
    boundary = tuple(
        j for j in sorted(set(sup)) if abs(abs(pts[j] - c) - r) <= 1e-9 * max(scale, r, 1.0)
    )
    if not boundary:
        boundary = tuple(sorted(set(sup)))
    return MinimalDisk(center=c, radius=float(r), support=boundary)


# ---------------------------------------------------------------------------
# Minimal enclosing disks in lockstep.  LP-type rounds (Matousek-Sharir-Welzl)
# find each row's support and Welzl's own formula builds the disk from it.
# Where Welzl could have met a tie, Welzl runs on the points near the circle;
# rows the lockstep path cannot take go to ``minimal_enclosing_disk``.

# Candidate disks through a violator (slot 3) and the basis slots 0-2, as
# new bases: three pairs (the second slot repeated) and three triples.
_THROUGH = np.array([(0, 3, 3), (1, 3, 3), (2, 3, 3), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
# Slack of the support search, in coordinates scaled to a unit row.
_LP_SLACK = 1e-12
# Rounds after which a row still finding violators takes the scalar path.
_LP_ROUNDS = 64
# Rows spanning less than _MED_SMALL or less than 1/_MED_FAR of their
# largest coordinate, or with a coordinate beyond _MED_LIMIT, take the
# scalar path.  On a tiny row Welzl's absolute collinearity test (1e-14)
# flags triples a relative 1e-6 from collinear; on a row far from 0 its
# circumcentre, taken from squared coordinates, loses (|z| / span)^2 of
# precision and its steps stop following the exact support (seen from
# |z| / span = 3e6 on); beyond the limit its squares and products overflow.
_MED_SMALL = 1e-4
_MED_FAR = 1e3
_MED_LIMIT = 1e100
# A point within this relative distance of a circle ties with it (the
# tidying tolerance of ``minimal_enclosing_disk``).
_TIE = 1e-9
# Blocks of fewer points in all take the scalar path, which is faster for
# them: the lockstep path breaks even at about 170, 150, 130 and 70 points
# for rows of 4, 8, 12 and 40 points (2-core x86-64 host).
_MED_LOCKSTEP_POINTS = 160


def minimal_enclosing_disks(z) -> tuple:
    """``minimal_enclosing_disk`` of every row of a (Q, N) stack of points,
    bit for bit: the list of disks, None where a row fails, and a dict of
    the rows' DegenerateInputErrors.

    LP-type rounds in lockstep find each row's support.  Welzl's last
    violators at its three levels are the support points in descending
    insertion position, so the disk is Welzl's formula on them in that
    order, and ``support`` is tidied as Welzl tidies it.  Where Welzl could
    have met a tie (``_ties``), Welzl runs on the points near the circle
    (``_welzl_on_band``).  A row takes the scalar path when N < 3, the
    block is small (``_MED_LOCKSTEP_POINTS``), a point is not finite, the
    row is tiny, far from 0 or huge (``_MED_SMALL``, ``_MED_FAR``,
    ``_MED_LIMIT``), its triple is degenerate or a point fails Welzl's
    containment test."""
    z = np.asarray(z, dtype=complex)
    nq, n = z.shape
    out, faults = [None] * nq, {}
    if n >= 3 and nq * n >= _MED_LOCKSTEP_POINTS:
        with np.errstate(all="ignore"):
            w = z - z[:, :1]
            far = np.hypot(w.real, w.imag)
            span = far.max(axis=1)
            size = np.abs(z.view(float)).max(axis=1)
            rows = ((span >= _MED_SMALL) & (span * _MED_FAR >= size) & (size <= _MED_LIMIT)).nonzero()[0]
            if rows.size:
                w = w[rows] / span[rows, None]
                meds = _lockstep_disks(z[rows], w.real, w.imag, far[rows].argmax(axis=1), span[rows])
                for j, med in zip(rows.tolist(), meds):
                    out[j] = med
    for j in range(nq):
        if out[j] is None:
            try:
                out[j] = minimal_enclosing_disk(z[j])
            except DegenerateInputError as exc:
                faults[j] = exc
    return out, faults


def _lockstep_disks(z, x, y, far, span) -> list:
    """The disks of ``minimal_enclosing_disks`` for rows of finite points
    z (Q, N), N >= 3, of which x, y hold the parts moved by -z[:, 0] and
    scaled by 1 / span to a unit row, point ``far`` the farthest from the
    first; None for a row the scalar path must take."""
    nq, n = z.shape
    rows = np.arange(nq)
    # Start from the farthest point's farthest pair.
    b = np.hypot(x - x[rows, far, None], y - y[rows, far, None]).argmax(axis=1)
    sup, ok = _lp_supports(x, y, np.column_stack([far, b, b]))
    # Welzl's levels take the support points in descending position; a
    # pair (a, b, b) stays (i1, i2, i2).
    pos = np.empty(n, dtype=int)
    pos[list(_insertion_order(n, 0))] = np.arange(n)
    pair = sup[:, 1] == sup[:, 2]
    sup = np.take_along_axis(sup, np.argsort(-pos[sup], axis=1), axis=1)
    sup[pair] = sup[pair][:, [0, 2, 2]]
    center, radius, degenerate = _welzl_disks(*(z[rows, i] for i in sup.T), pair)
    off = np.hypot(z.real - center.real[:, None], z.imag - center.imag[:, None])
    scale = np.maximum(1.0, np.hypot(z.real, z.imag).max(axis=1))
    tol = _TIE * np.maximum(np.maximum(scale, radius), 1.0)
    near = np.abs(off - radius[:, None]) <= tol[:, None]
    on_support = np.zeros((nq, n), dtype=bool)
    on_support[rows[:, None], sup] = True
    eps = 1e-12
    keep = ok & ~degenerate & (off <= radius[:, None] * (1.0 + eps) + eps).all(axis=1)
    ties = keep & _ties(x, y, sup, pair, near & ~on_support, tol / span)
    keep &= ~ties
    # Welzl's tidying: the support points on the circle, or all of them.
    ids = sup.copy()
    ids[pair, 2] = -1
    ids.sort(axis=1)
    on = near[rows[:, None], ids] & (ids >= 0)
    on[~on.any(axis=1)] = ids[~on.any(axis=1)] >= 0
    out = [None] * nq
    for j, c, r, i, m in zip(keep.nonzero()[0].tolist(), center[keep].tolist(), radius[keep].tolist(),
                             ids[keep].tolist(), on[keep].tolist()):
        out[j] = MinimalDisk(center=c, radius=r, support=tuple(k for k, t in zip(i, m) if t))
    for j in ties.nonzero()[0].tolist():
        out[j] = _welzl_on_band(z[j], near[j].nonzero()[0], pos, scale[j].item())
    return out


def _welzl_on_band(row, band, pos, scale) -> MinimalDisk:
    """Welzl's disk of a tied row, run on the points near its circle alone
    (``band``), in their insertion order.  The band holds the support, so
    its minimal disk is the row's, and the points off the band lie inside
    it by more than the tie tolerance, a thousand times Welzl's own; the
    tests hold this to Welzl's run on the whole row."""
    band = band[np.argsort(pos[band])].tolist()
    return _welzl(dict(zip(band, row[band].tolist())), band, scale)


def _lp_supports(x, y, basis) -> tuple:
    """The supports (Q, 3) of the minimal disks of the rows of unit-scaled
    parts x, y (Q, N), from the disk on the first two points of ``basis``,
    and whether each row finished.  LP-type rounds in lockstep: each round
    finds every open row's farthest violator in one pass, and re-solves the
    row on its basis and that point."""
    rows = np.arange(len(x))
    a, b = basis[:, 0], basis[:, 1]
    ax, ay, bx, by = x[rows, a], y[rows, a], x[rows, b], y[rows, b]
    cx, cy, r = (ax + bx) / 2.0, (ay + by) / 2.0, np.hypot(bx - ax, by - ay) / 2.0
    ok = np.ones(len(x), dtype=bool)
    open_ = rows
    for _ in range(_LP_ROUNDS):
        d = np.hypot(x[open_] - cx[open_, None], y[open_] - cy[open_, None])
        v = d.argmax(axis=1)
        out = d[np.arange(len(open_)), v] > r[open_] + _LP_SLACK
        open_, v = open_[out], v[out]
        if not open_.size:
            return basis, ok
        slots = np.column_stack([basis[open_], v])
        k, cx[open_], cy[open_], r[open_] = _through(x[open_[:, None], slots], y[open_[:, None], slots])
        basis[open_] = np.take_along_axis(slots, _THROUGH[k], axis=1)
        found = np.isfinite(r[open_])
        ok[open_[~found]] = False
        open_ = open_[found]
    ok[open_] = False
    return basis, ok


def _through(px, py) -> tuple:
    """The smallest disk of ``_THROUGH`` holding the four slot points
    (M, 4) of each row, slot 3 on its boundary: its index, centre parts and
    radius, infinite where none holds them."""
    bx, by = px[:, :3] - px[:, 3:], py[:, :3] - py[:, 3:]
    b, c = [0, 0, 1], [1, 2, 2]
    sx, sy, tx, ty = bx[:, b], by[:, b], bx[:, c], by[:, c]
    s2, t2 = sx * sx + sy * sy, tx * tx + ty * ty
    d = 2.0 * (sx * ty - sy * tx)
    ux = np.concatenate([bx / 2.0, (ty * s2 - sy * t2) / d], axis=1)
    uy = np.concatenate([by / 2.0, (sx * t2 - tx * s2) / d], axis=1)
    r = np.hypot(ux, uy)
    r[:, 3:][~(np.abs(d) > 1e-14 * np.maximum(s2, t2))] = np.inf
    held = (np.hypot(bx[:, None, :] - ux[..., None], by[:, None, :] - uy[..., None])
            <= r[..., None] + _LP_SLACK).all(axis=2)
    r = np.where(held, r, np.inf)
    k = r.argmin(axis=1)
    i = np.arange(len(k))
    return k, px[:, 3] + ux[i, k], py[:, 3] + uy[i, k], r[i, k]


def _welzl_disks(p, q, r, pair) -> tuple:
    """Welzl's disks on support rows: ``_disk_two(p, q)`` where ``pair``,
    else ``_circumcircle(p, q, r)``, in its arithmetic: abs as hypot of the
    parts, ``** 2`` by libm's pow, and a complex divided by a float as this
    interpreter divides it.  Returns centres, radii and the rows whose
    triple ``_circumcircle`` finds degenerate."""
    def hyp(u):
        return np.hypot(u.real, u.imag)

    ax, ay, bx, by, cx, cy = p.real, p.imag, q.real, q.imag, r.real, r.imag
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    widest = np.maximum(np.maximum(np.maximum(hyp(p - q), hyp(q - r)), hyp(r - p)), 1.0)
    degenerate = ~pair & (np.abs(d) < 1e-14 * _squares(widest))
    pa, pb, pc = _squares(hyp(p)), _squares(hyp(q)), _squares(hyp(r))
    center = np.empty(len(p), dtype=complex)
    center.real = (pa * (by - cy) + pb * (cy - ay) + pc * (ay - by)) / d
    center.imag = (pa * (cx - bx) + pb * (ax - cx) + pc * (bx - ax)) / d
    radius = np.maximum(np.maximum(hyp(p - center), hyp(q - center)), hyp(r - center))
    sr, si = ax + bx, ay + by
    if _FLOAT_AS_COMPLEX:
        sr, si = sr + si * 0.0, si - sr * 0.0
    center.real[pair], center.imag[pair] = sr[pair] / 2.0, si[pair] / 2.0
    radius[pair] = hyp(p - q)[pair] / 2.0
    return center, radius, degenerate


def _ties(x, y, sup, pair, near, tol) -> np.ndarray:
    """The rows where Welzl could have met a tie, so that its disk or
    support may differ from the lockstep one: a point off the support lies
    within the tie tolerance of the circle (``near``), or a point of a
    triple support lies within ``tol`` (unit-row scale) of the disk on the
    other two, which Welzl would then keep."""
    rows = np.arange(len(sup))[:, None]
    px, py = x[rows, sup], y[rows, sup]
    s, a, b = [0, 1, 2], [1, 0, 0], [2, 2, 1]
    gap = (np.hypot(px[:, s] - (px[:, a] + px[:, b]) / 2.0, py[:, s] - (py[:, a] + py[:, b]) / 2.0)
           - np.hypot(px[:, a] - px[:, b], py[:, a] - py[:, b]) / 2.0)
    return near.any(axis=1) | (~pair & (gap <= tol[:, None]).any(axis=1))
