import hashlib
import math

import numpy as np
import pytest

from cp1graft.grafting import GraftedStructure, WeightedMulticurve, WordTree, segment_focus
from cp1graft.moebius import (
    TOL_GEO,
    DegenerateInputError,
    MoebiusMap,
    PointCP1,
    affine_rows,
    chordal_distance,
    chordal_rows,
    classify,
    moebius_rows,
    sphere_xyz,
    stack_times,
)
from cp1graft.surface import (
    LETTER_ORDER,
    RELATION,
    FNCoordinates,
    GroupWord,
    _attracting_points,
    axis,
    cuff_length_from_trace,
    enumerate_words,
    fuchsian_from_fn,
    jorgensen_flags,
    limit_set_sample,
    word_children,
    word_products,
)
from conftest import tree_words
from oracles import reference_word_products


# ---------------------------------------------------------------------------
# words


def test_presentation_relation_reduced():
    # [a1, b1][a2, b2], freely reduced as written.
    assert len(RELATION) == 8
    assert RELATION.letters == (1, 2, -1, -2, 3, 4, -3, -4)
    assert str(RELATION) == "abABcdCD"


def test_word_reduction_and_inverse():
    w = GroupWord((1, 2, -2, 3))
    assert w.letters == (1, 3)
    assert (w * w.inverse()).letters == ()


# sha256 of rho(word).matrix over every word of length <= 5, for the test
# surface and for its rho' bent by pi/2 along a1, recorded while rho built
# a fresh inverse for every negative letter.
RHO_DIGESTS = (
    "f90f231400954066db6d2c625097065734e3f9aa6876ef197fda5550e2be5c91",
    "5416fb3d43b2f1d41e68e1dfc695be95adccff27aa166aa10de9de61a02182d7",
)


def test_rho_keeps_its_bits(holonomy, half_pi_structure):
    words = enumerate_words(5)
    assert len(words) == 22408
    for rep, want in zip((holonomy, half_pi_structure.rho_prime), RHO_DIGESTS):
        mats = np.array([rep.rho(w).matrix for w in words])
        assert hashlib.sha256(mats.tobytes()).hexdigest() == want


def test_word_parse_roundtrip():
    w = GroupWord.parse("aBcD")
    assert w.letters == (1, -2, 3, -4)
    assert str(w) == "aBcD"


def test_enumerate_words_counts():
    assert len(enumerate_words(1)) == 8
    assert len(enumerate_words(2)) == 8 + 8 * 7


def test_enumerate_words_shortlex_stable():
    a = [w.letters for w in enumerate_words(3)]
    b = [w.letters for w in enumerate_words(3)]
    assert a == b
    # Shortlex: by length, then letter by letter in LETTER_ORDER.
    keys = [(len(w), [LETTER_ORDER.index(l) for l in w.letters]) for w in enumerate_words(3)]
    assert keys == sorted(keys)


def nested_loop_words(radius):
    """Reference: reduced words by nested loops over prefixes and letters."""
    out = []
    level = [()]
    for _ in range(radius):
        nxt = []
        for prefix in level:
            for l in LETTER_ORDER:
                if prefix and prefix[-1] == -l:
                    continue
                nxt.append(prefix + (l,))
        out.extend(nxt)
        level = nxt
    return out


def test_enumerate_words_matches_nested_loops():
    assert [w.letters for w in enumerate_words(4)] == nested_loop_words(4)


# ---------------------------------------------------------------------------
# Fenchel-Nielsen construction


def test_relation_residual(holonomy):
    assert holonomy.relation_residual() < 1e-8


def test_generators_real(holonomy):
    assert holonomy.max_imag_entry() < 1e-10


def test_generators_hyperbolic(holonomy):
    for g in holonomy.generators:
        assert classify(g).kind == "hyperbolic"


def test_cuff_trace_identity():
    length = 2.0 * math.acosh(1.5)
    hol = fuchsian_from_fn(FNCoordinates((length, 2.0, 2.2)))
    tr2 = hol.rho(hol.cuff_words[0]).trace_squared()
    assert tr2.real == pytest.approx(9.0, abs=1e-9)  # |tr| = 2 cosh(l/2) = 3
    assert abs(tr2.imag) < 1e-12


def test_cuff_length_recovery_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(20):
        lengths = tuple(rng.uniform(0.8, 3.5, size=3))
        twists = tuple(rng.uniform(-2.0, 2.0, size=3))
        hol = fuchsian_from_fn(FNCoordinates(lengths, twists))
        assert hol.relation_residual() < 1e-8
        for word, want in zip(hol.cuff_words, lengths):
            got = cuff_length_from_trace(hol.rho(word))
            assert got == pytest.approx(want, abs=1e-6)


def test_twists_preserve_cuff_axes():
    base = fuchsian_from_fn(FNCoordinates((2.0, 2.4, 1.9)))
    twisted = fuchsian_from_fn(FNCoordinates((2.0, 2.4, 1.9), (0.7, -1.2, 0.4)))
    for word in base.cuff_words:
        g0 = axis(base.rho(word))
        g1 = axis(twisted.rho(word))
        assert chordal_distance(g0.p, g1.p) < 1e-8
        assert chordal_distance(g0.q, g1.q) < 1e-8


def test_nonpositive_length_rejected():
    with pytest.raises(DegenerateInputError):
        FNCoordinates((0.0, 1.0, 1.0))


def test_word_matrix_consistency(holonomy):
    # rho of a word equals the ordered product of generator matrices.
    for w in enumerate_words(3)[::17]:
        prod = MoebiusMap.identity()
        for l in w.letters:
            prod = prod @ holonomy.generator(l)
        assert prod.proj_distance(holonomy.rho(w)) < 1e-10


def test_jorgensen_flags_clean(holonomy):
    pairs = [(GroupWord((1,)), GroupWord((2,))), (GroupWord((3,)), GroupWord((4,)))]
    flags = jorgensen_flags(holonomy, pairs)
    # Heuristic only: report, never assert content; a discrete group built
    # from hexagon data should produce no flags on generator pairs.
    assert isinstance(flags, list)
    if flags:
        print("jorgensen flags:", flags)


# ---------------------------------------------------------------------------
# axes and limit sets


def test_axis_diagonal():
    g = axis(MoebiusMap.from_entries(2, 0, 0, 0.5))
    # z -> 4z: attracting fixed point is infinity.
    assert g.q.is_infinity
    assert abs(g.p.as_complex()) < 1e-12


def test_axis_inverse_swaps_orientation():
    m = MoebiusMap.from_entries(2, 1, 1, 1)
    g = axis(m)
    h = axis(m.inverse())
    assert chordal_distance(g.p, h.q) < 1e-10
    assert chordal_distance(g.q, h.p) < 1e-10


def test_axis_conjugation_naturality():
    rng = np.random.default_rng(31)
    m = MoebiusMap.from_entries(2, 1, 1, 1)
    for _ in range(10):
        g = MoebiusMap(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        conj = g @ m @ g.inverse()
        want = axis(m).transform(g)
        got = axis(conj)
        assert chordal_distance(got.p, want.p) < 1e-7
        assert chordal_distance(got.q, want.q) < 1e-7


def test_axis_elliptic_rejected():
    with pytest.raises(DegenerateInputError):
        axis(MoebiusMap.from_entries(0, -1, 1, 0))


def test_limit_set_real_for_fuchsian(holonomy):
    pts = limit_set_sample(holonomy, depth=4)
    assert len(pts) > 50
    zs, at_inf = affine_rows(pts)
    for z in zs[~at_inf].tolist():
        assert abs(z.imag) < 1e-8 * max(1.0, abs(z))


def test_limit_set_depth_monotone(holonomy):
    def keys(pts):
        return {tuple(x) for x in np.round(sphere_xyz(pts), 6).tolist()}

    k3 = keys(limit_set_sample(holonomy, depth=3))
    k4 = keys(limit_set_sample(holonomy, depth=4))
    assert k3 <= k4


def test_limit_set_deterministic(holonomy):
    a = limit_set_sample(holonomy, depth=3)
    b = limit_set_sample(holonomy, depth=3)
    assert len(a) == len(b)
    assert (chordal_rows(sphere_xyz(a), sphere_xyz(b)) == 0.0).all()


def per_point_limit_set(hol, depth):
    """Reference: per-letter product blocks put in shortlex order by a
    stable argsort, then a per-point set of rounded sphere coordinates that
    keeps first occurrences."""
    mats = {}
    for i, g in enumerate(hol.generators):
        mats[i + 1] = g.matrix
        mats[-(i + 1)] = g.inverse().matrix
    points = []
    level_mats = np.eye(2, dtype=complex)[None, :, :]
    level_last = np.array([0])
    for _ in range(depth):
        blocks, lasts, orders = [], [], []
        for rank, l in enumerate(LETTER_ORDER):
            idx = np.nonzero(level_last != -l)[0]
            if len(idx) == 0:
                continue
            blocks.append(level_mats[idx] @ mats[l])
            lasts.append(np.full(len(idx), l))
            orders.append(idx * len(LETTER_ORDER) + rank)
        order = np.argsort(np.concatenate(orders), kind="stable")
        level_mats = np.concatenate(blocks, axis=0)[order]
        level_last = np.concatenate(lasts)[order]
        vecs, ok = _attracting_points(level_mats)
        for v in vecs[ok]:
            points.append(PointCP1(complex(v[0]), complex(v[1])))
    seen = set()
    out = []
    decimals = max(1, int(-math.log10(TOL_GEO)))
    for p in points:
        key = tuple(np.round(p.sphere_coords(), decimals))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _hex_rows(rows):
    return [tuple(float(c).hex() for z in row for c in (z.real, z.imag)) for row in rows]


def test_limit_set_matches_per_point_reference(holonomy, symmetric_holonomy):
    """The sample's rows are the (z0, z1) of the reference's points, bit for
    bit, at depths 3-5 of two Fuchsian holonomies (every point on the real
    line, so every second sphere coordinate 0) and at depth 5 of rho' bent
    along cuff a by 1.3, whose points leave the real line."""
    bent = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.3),)), depth=4)
    for hol, depths in ((holonomy, (3, 4, 5)), (symmetric_holonomy, (3, 4, 5)), (bent.rho_prime, (5,))):
        for depth in depths:
            got = limit_set_sample(hol, depth=depth)
            want = per_point_limit_set(hol, depth=depth)
            assert got.shape == (len(want), 2) and got.dtype == complex
            assert _hex_rows(got.tolist()) == _hex_rows((p.z0, p.z1) for p in want)
        assert len(got) > 1000
    assert np.mean(np.abs(sphere_xyz(got)[:, 1]) > 1e-3) > 0.5


# ---------------------------------------------------------------------------
# flat products: bits that rest on the BLAS kernel


def _random_entries(rng, shape):
    # Entries over 16 orders of magnitude, so that a kernel which rounds a
    # row's two-term sums another way shows.
    scale = 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 5000])
def test_flat_products_match_stacked_matmul_bit_for_bit(n):
    # One BLAS call over the (2N, 2) rows against the per-matrix stacked @,
    # for a fixed matrix (a letter), a transposed, non-contiguous view of
    # one and a fixed vector (the orbit start).  These bits rest on the host's
    # BLAS kernel: a numpy or BLAS change that breaks them fails here first.
    rng = np.random.default_rng(n)
    for _ in range(10):
        stack = _random_entries(rng, (n, 2, 2))
        matrix = _random_entries(rng, (2, 2))
        for right in (matrix, matrix.T, _random_entries(rng, (2,))):
            want = stack @ right
            got = stack_times(stack, right)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_word_products_match_the_per_letter_stacked_loop(holonomy):
    # Every level of the reduced-word tree to length 5, raw as the limit
    # sample builds them and normalized as the word tree does, for the
    # Fuchsian generators and a bent holonomy's complex ones.
    bent = GraftedStructure(holonomy, WeightedMulticurve(((GroupWord((1,)), 1.3),)), depth=4)
    for rep in (holonomy, bent.rho_prime):
        gens = {l: rep.generator(l).matrix for l in LETTER_ORDER}
        for normalize in (False, True):
            level, last = np.eye(2, dtype=complex)[None], np.array([0])
            for _ in range(5):
                rows, last = word_children(last)
                want = reference_word_products(level, rows, last, gens)
                level = word_products(level, rows, last, gens)
                assert level.tobytes() == want.tobytes()
                level = moebius_rows(level)[0] if normalize else level
            assert len(level) == 8 * 7**4
    # The rows a word tree grew for a query, from their parents' rows: each
    # is its word's rho, bit for bit.
    tree = WordTree(holonomy, bent.multicurve)
    tree.leaf_table(6, segment_focus([holonomy.basepoint, -1.2 + 0.4j]), 8.0)
    assert tree.size > 1000
    want = np.array([holonomy.rho(w).matrix for w in tree_words(tree)])
    assert tree.nodes["mat"].tobytes() == want.tobytes()
    # Its leaf ends, each axis end moved by each word, as per-matrix products.
    ends = tree._ends(tree.nodes["mat"])
    for i, (p, q) in enumerate(tree.axis_ends):
        assert ends[:, i, 0].tobytes() == (tree.nodes["mat"] @ p).tobytes()
        assert ends[:, i, 1].tobytes() == (tree.nodes["mat"] @ q).tobytes()
