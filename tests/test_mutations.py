"""Planted defects: each row patches one defect into the library and names
the check that must catch it.  A check that passes with its defect planted
cannot fail on the defect."""

import cmath
import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest

import cp1graft.grafting as grafting
import cp1graft.hyperbolic as hyperbolic
import cp1graft.moebius as moebius
import cp1graft.thurston as thurston
from cp1graft.cli import EXIT_OK, EXIT_VIOLATIONS, main
from cp1graft.grafting import GraftedStructure, WeightedMulticurve
from cp1graft.moebius import DegenerateInputError, MoebiusMap
from cp1graft.surface import GroupWord
from cp1graft.thurston import RoundDisk, verify_covering
from conftest import REPO, cocircular_rows, domain_round_sets, limit_domain, planted_disks
from oracles import lockstep_med_mismatches
from test_acceptance import (
    criterion_1, criterion_4, criterion_5, criterion_7, two_pi_structures,
)
from test_grafting import radius_screen_mismatches, screen_mismatches
from test_hyperbolic import dome_golden_mismatches
from test_moebius import key_mismatches

TETRA = {
    "surface": {"genus": 2, "lengths": [2.0, 2.0, 2.0]},
    "multicurve": [],
    "domain": {"points": [[0, 0], [1, 0], "inf", [0.5, 0.8660254037844386]]},
}


def _measure_angle_scaled(monkeypatch):
    angle = thurston.angle_from_product
    monkeypatch.setattr(thurston, "angle_from_product", lambda ip: 1.01 * angle(ip))


def _sigma_negated(monkeypatch):
    """A wrong path planted on every edge: sigma, the turn from face 1's
    disk direction to face 2's, enters both spiral angles only as
    sigma * CORE_ANGLE, so negating CORE_ANGLE negates sigma.  Each spiral
    then starts and ends inside its edge's lune and never reaches a face
    core.  Its measure is still taken; the certificate rejects the path
    before that measure is compared with the dihedral angle."""
    monkeypatch.setattr(thurston, "CORE_ANGLE", -thurston.CORE_ANGLE)


def _measure_unrefined(monkeypatch):
    """The refinement stops at its first level, so no measure has a level
    to converge against.  The tetrahedron's sums are still right to 2e-15,
    well inside 10 * TOL_MEASURE: only the convergence flag catches it."""
    monkeypatch.setattr(thurston, "MEASURE_MAX_LEVELS", 0)


# (defect, the dome-measure violation every edge of the tetrahedron reports)
DOME_MEASURE_MUTATIONS = {
    "measure-dihedral-mismatch": (_measure_angle_scaled, "measure-dihedral-mismatch"),
    "no-measure-path": (_sigma_negated, "no-measure-path"),
    "unconverged": (_measure_unrefined, "measure-dihedral-mismatch"),
}


@pytest.mark.parametrize("row", sorted(DOME_MEASURE_MUTATIONS))
def test_dome_measure_catches_planted_defect(row, monkeypatch, tmp_path):
    plant, kind = DOME_MEASURE_MUTATIONS[row]
    plant(monkeypatch)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TETRA))
    out = tmp_path / "out"
    assert main(["verify", "dome-measure", "--config", str(cfg), "--out", str(out)]) == EXIT_VIOLATIONS
    report = json.loads((out / "dome-measure_report.json").read_text())
    assert [(v["kind"], v["edge"]) for v in report["violations"]] == [(kind, e) for e in range(6)]
    assert [c["passed"] for c in report["checks"]] == [False]


# Two loops around the vertical leaf lift of curve a (weight 2 pi): one
# starts left of the leaf and crosses it, one starts right of it and enters
# the leaf's crescent from the high side.
CROSSING_LOOP = [0.03 + 1.2j - 0.1 * np.exp(2j * math.pi * k / 20) for k in range(21)]
RIGHT_LOOP = [1j + 0.3 * np.exp(2j * math.pi * k / 20) for k in range(21)]


def _rotate_vertical_leaf_frame(monkeypatch):
    """Turn the frame of every vertical leaf by pi/2."""
    frame = thurston.leaf_normalizer
    turn = cmath.exp(0.25j * math.pi)
    quarter = MoebiusMap(np.diag([turn, 1.0 / turn]))

    def rotated(gs, leaf):
        vertical = leaf.geodesic.p.is_infinity or leaf.geodesic.q.is_infinity
        return quarter @ frame(gs, leaf) if vertical else frame(gs, leaf)

    monkeypatch.setattr(thurston, "leaf_normalizer", rotated)


def _drop_vertical_leaf(monkeypatch):
    """The covering table loses its vertical rows, so covering skips those
    leaves: every leaf query of a structure drops its vertical leaf lifts."""
    near = GraftedStructure.leaves_near

    def dropped(gs, focus):
        table = near(gs, focus)
        keep = ~np.isnan(table.real_ends).any(axis=1)
        return grafting.LeafTable(table.ends[keep], table.curve[keep], table.conjugator[keep],
                                  table._parent, table._letter, table.real_ends[keep])

    monkeypatch.setattr(GraftedStructure, "leaves_near", dropped)


# (defect, loop, the covering violation it must report).  The turned frame
# moves the vertical leaf's crescent: a lift that crosses the leaf can then
# not close, and one that enters the crescent from the high side leaves it
# far from the leaf, on the side the forced sign does not give.
COVERING_MUTATIONS = {
    "rotated-frame-no-closure": (
        _rotate_vertical_leaf_frame, CROSSING_LOOP,
        {"kind": "no-closure", "loop": 0, "start": "stratum", "end": "crescent"},
    ),
    "rotated-frame-exit-side": (
        _rotate_vertical_leaf_frame, RIGHT_LOOP,
        {"kind": "lift-failure", "loop": 0,
         "detail": "crescent exit on the wrong side of its leaf"},
    ),
}


@pytest.mark.parametrize("row", sorted(COVERING_MUTATIONS))
def test_covering_catches_planted_defect(row, two_pi_structure, monkeypatch):
    plant, loop, violation = COVERING_MUTATIONS[row]
    limit = limit_domain(two_pi_structure)
    assert verify_covering(two_pi_structure, [loop], limit)["violations"] == []
    plant(monkeypatch)
    report = verify_covering(two_pi_structure, [loop], limit)
    assert violation in report["violations"]
    assert not report["checks"][0]["passed"]


@pytest.mark.parametrize("loop", [CROSSING_LOOP, RIGHT_LOOP], ids=["crossing", "right"])
def test_covering_known_survivor_dropped_leaf(loop, two_pi_structure, monkeypatch):
    """KNOWN SURVIVOR: a dropped positive-weight leaf.  The stratum lift
    then crosses the leaf's line twice without entering its crescent and
    still closes, and the crescent's own lifts are never started, so the
    check passes with fewer lifts tested.  Catching it needs the starting
    lifts counted against the fiber of the loop's first point."""
    limit = limit_domain(two_pi_structure)
    clean = verify_covering(two_pi_structure, [loop], limit)
    _drop_vertical_leaf(monkeypatch)
    report = verify_covering(two_pi_structure, [loop], limit)
    assert report["violations"] == [] and all(c["passed"] for c in report["checks"])
    assert 0 < report["values"]["lifts_tested"] < clean["values"]["lifts_tested"]


# FN instance 0 of the acceptance suite, curve a grafted by 2 pi.
TWO_PI_CONFIG = {
    "surface": {"genus": 2, "lengths": [2.0, 2.5, 1.7], "twists": [0.3, -0.8, 1.1]},
    "multicurve": [{"word": "a", "weight": "2*pi"}],
    "depth": 4,
}


def _verify(check, tmp_path):
    """Exit code and report of ``cp1graft verify <check>`` on TWO_PI_CONFIG."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TWO_PI_CONFIG))
    out = tmp_path / "out"
    code = main(["verify", check, "--config", str(cfg), "--out", str(out)])
    return code, json.loads((out / f"{check}_report.json").read_text())


def _leaf_weight_off(monkeypatch):
    """Every angle given to ``bending_product`` 1 % larger."""
    product = grafting.bending_product
    monkeypatch.setattr(grafting, "bending_product",
                        lambda crossings, angles: product(crossings, [1.01 * a for a in angles]))


def test_two_pi_catches_leaf_weight_off(monkeypatch, tmp_path):
    assert _verify("two-pi", tmp_path)[0] == EXIT_OK
    _leaf_weight_off(monkeypatch)
    code, report = _verify("two-pi", tmp_path)
    assert code == EXIT_VIOLATIONS
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [("two-pi-invariance", False)]
    assert {v["kind"] for v in report["violations"]} == {"holonomy-changed"}


def _bending_rotation_disabled(monkeypatch):
    """Every bending rotation about a leaf is the identity."""
    monkeypatch.setattr(grafting, "rotation_about_geodesic",
                        lambda geodesic, angle: MoebiusMap.identity())


def test_goldman_known_survivor_disabled_bending_rotation(holonomy, monkeypatch, tmp_path):
    """KNOWN SURVIVOR: a disabled bending rotation.  ``verify goldman``
    reads each curve's weight back from the multicurve (ROADMAP items 1
    and 4), so it passes with no bending at all.  Catching it needs the
    weight recovered from the developed structure."""
    bent = WeightedMulticurve(((GroupWord((1,)), 1.3),))
    clean = GraftedStructure(holonomy, bent, depth=4).rho_prime
    assert _verify("goldman", tmp_path)[0] == EXIT_OK
    _bending_rotation_disabled(monkeypatch)
    # The defect is live: the structure bent by 1.3 keeps the Fuchsian holonomy.
    planted = GraftedStructure(holonomy, bent, depth=4).rho_prime
    for g, p, c in zip(holonomy.generators, planted.generators, clean.generators):
        assert p.proj_distance(g) < 1e-12
    assert max(c.proj_distance(g) for g, c in zip(holonomy.generators, clean.generators)) > 0.1
    code, report = _verify("goldman", tmp_path)
    assert code == EXIT_OK
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [("goldman-weight-recovery", True)]


def _every_seventh_record(monkeypatch, defect):
    """``defect`` applied to every seventh query's record of ``maximal_disks``."""
    found = itertools.count()
    monkeypatch.setattr(thurston, "maximal_disks", planted_disks(
        lambda x, rec: None if next(found) % 7 else defect(rec)))



def _shifted_disks(monkeypatch):
    """Every seventh maximal disk found moved by z -> 1.05 z + 0.02, as the
    planted records of the stratification tests move theirs."""
    shift = MoebiusMap(np.array([[1.05, 0.02], [0.0, 1.0]], dtype=complex))
    _every_seventh_record(monkeypatch, lambda rec: dataclasses.replace(
        rec, disk=RoundDisk(rec.disk.circle.transform(shift))))


def test_stratification_catches_shifted_disk(monkeypatch, tmp_path):
    config = REPO / "configs" / "sixpoint_domain.json"
    out = tmp_path / "out"
    args = ["verify", "stratification", "--config", str(config), "--out", str(out)]
    assert main(args) == EXIT_OK
    _shifted_disks(monkeypatch)
    assert main(args) == EXIT_VIOLATIONS
    report = json.loads((out / "stratification_report.json").read_text())
    assert [(c["name"], c["passed"]) for c in report["checks"]] == [
        ("every-sample-assigned", True), ("core-disjointness", False),
        ("ideal-point-consistency", True),
    ]
    # A moved disk overlaps the cores near it, or lies inside a true disk.
    assert {v["kind"] for v in report["violations"]} == {"core-overlap", "nested-disks"}


def _no_disk(monkeypatch):
    """Every seventh query gets no disk: a DegenerateInputError instead."""
    _every_seventh_record(monkeypatch, lambda rec: DegenerateInputError("planted"))


def _dropped_contact(monkeypatch):
    """Every seventh record loses its first contact point."""
    _every_seventh_record(monkeypatch, lambda rec: dataclasses.replace(
        rec, ideal_ids=rec.ideal_ids[1:]))


# (defect, the failed check, the violation kinds reported)
STRATIFICATION_MUTATIONS = {
    "no-disk": (_no_disk, "every-sample-assigned", {"no-disk"}),
    "dropped-contact": (_dropped_contact, "ideal-point-consistency", {"ideal-point-mismatch"}),
}


@pytest.mark.parametrize("row", sorted(STRATIFICATION_MUTATIONS))
def test_stratification_catches_planted_record_defect(row, monkeypatch, tmp_path):
    plant, check, kinds = STRATIFICATION_MUTATIONS[row]
    config = REPO / "configs" / "sixpoint_domain.json"
    out = tmp_path / "out"
    args = ["verify", "stratification", "--config", str(config), "--out", str(out)]
    assert main(args) == EXIT_OK
    plant(monkeypatch)
    assert main(args) == EXIT_VIOLATIONS
    report = json.loads((out / "stratification_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [check]
    assert {v["kind"] for v in report["violations"]} == kinds


def test_lockstep_disks_catch_disabled_tie_guard(monkeypatch):
    """With ``_ties`` finding no tie, cocircular rows finish by the lockstep
    formula on whatever support the LP rounds met first, and the check
    against Welzl's bits fails on hexagon and cube rows."""
    hexagons, cubes = cocircular_rows(np.random.default_rng(27))
    assert lockstep_med_mismatches(hexagons) == lockstep_med_mismatches(cubes) == []
    monkeypatch.setattr(moebius, "_ties", lambda x, y, sup, pair, near, tol: np.zeros(len(sup), bool))
    assert lockstep_med_mismatches(hexagons) and lockstep_med_mismatches(cubes)


def test_criterion_1_catches_a_scaled_bending_angle(monkeypatch):
    """Every bending rotation turned by 1.01 times its angle: a leaf of
    weight 2 pi turns by 2.02 pi, and the holonomy moves."""
    assert criterion_1(two_pi_structures())[0]
    rotation = grafting.rotation_about_geodesic
    monkeypatch.setattr(grafting, "rotation_about_geodesic",
                        lambda geodesic, angle: rotation(geodesic, 1.01 * angle))
    passed, detail = criterion_1(two_pi_structures())
    assert not passed, detail


def test_criterion_4_catches_a_reversed_face_circle(monkeypatch):
    """The first face circle of every dome turned to the wrong side after
    the batch: its edges weigh pi minus their dihedral angle (the
    tetrahedron's weights spread by pi/3) and lose their measure paths."""
    assert criterion_4()[0]
    sides = hyperbolic.side_signs

    def first_reversed(h, v):
        flip = sides(h, v)
        flip[0] = not flip[0]
        return flip

    monkeypatch.setattr(hyperbolic, "side_signs", first_reversed)
    passed, detail = criterion_4()
    assert not passed, detail


def _criterion_7_with(monkeypatch, contains):
    """Criterion 7 with ``contains`` as Welzl's containment test."""
    assert criterion_7()[0]
    monkeypatch.setattr(moebius, "_contains", contains)
    return criterion_7()


def _minimal_disk_error(detail) -> float:
    return float(re.search(r"minimal-disk (\S+),", detail).group(1))


def test_criterion_7_catches_a_slack_containment(monkeypatch):
    """Welzl's containment test with a slack of 1e-3 of the radius: a point
    that far outside the disk counts as inside, so some disks come out
    smaller than brute force's and the minimal-disk part fails."""
    passed, detail = _criterion_7_with(
        monkeypatch, lambda c, r, p, eps: abs(p - c) <= r * (1.0 + eps + 1e-3) + eps)
    assert not passed and _minimal_disk_error(detail) > 1e-8, detail


def test_criterion_7_catches_an_absolute_slack_containment(monkeypatch):
    """The same with a slack of 1e-3 absolute.  It changes none of the
    random sets' disks; the cocircular rows pushed out by up to 5e-4, points
    just outside a running disk, catch it."""
    passed, detail = _criterion_7_with(
        monkeypatch, lambda c, r, p, eps: abs(p - c) <= r * (1.0 + eps) + eps + 1e-3)
    assert not passed and _minimal_disk_error(detail) > 1e-8, detail


def _planted_crossings(monkeypatch, defect):
    """``lift_crossings`` with ``defect`` applied to each crossing of a
    translated leaf (one whose conjugator is not empty); a defect returns
    the crossing to keep, or None to drop it."""
    crossings = grafting.lift_crossings

    def planted(p, q, *, leaves):
        out = [defect(c) if c.leaf.conjugator.letters else c for c in crossings(p, q, leaves=leaves)]
        return [c for c in out if c is not None]

    monkeypatch.setattr(grafting, "lift_crossings", planted)


def _flipped(crossing):
    return dataclasses.replace(crossing, sign=-crossing.sign)


# (defect on a translated leaf's crossing) for criterion 5.  The bending
# cocycle then differs between a segment and its translates, so rho' and
# the pleated surface stop being equivariant.
CRITERION_5_MUTATIONS = {
    "dropped-crossing": lambda crossing: None,
    "flipped-sign": _flipped,
}


@pytest.mark.parametrize("row", sorted(CRITERION_5_MUTATIONS))
def test_criterion_5_catches_planted_crossing_defect(row, monkeypatch):
    assert criterion_5()[0]
    _planted_crossings(monkeypatch, CRITERION_5_MUTATIONS[row])
    passed, detail = criterion_5()
    assert not passed, detail


def _right_sides_negated(monkeypatch, which):
    """``LeafTable.right_positive`` negated on every leaf, on the circle
    leaves only or on the vertical leaves only: each crossing of those
    leaves gets the wrong sign, and path lifting enters their crescents
    from the wrong side."""
    right = grafting.LeafTable.right_positive.func

    def negated(table):
        vertical = np.isnan(table.real_ends).any(axis=1)
        flip = {"every": np.ones_like(vertical), "circle": ~vertical, "vertical": vertical}[which]
        return right(table) ^ flip

    monkeypatch.setattr(grafting.LeafTable, "right_positive", property(negated))


@pytest.mark.parametrize("which", ["every", "circle", "vertical"])
def test_criterion_5_catches_negated_right_sides(which, monkeypatch):
    assert criterion_5()[0]
    _right_sides_negated(monkeypatch, which)
    passed, detail = criterion_5()
    assert not passed, detail


@pytest.mark.parametrize("which", ["every", "circle", "vertical"])
def test_covering_catches_negated_right_sides(which, two_pi_structure, monkeypatch):
    """Path lifting enters each crescent from the side ``right_positive``
    names and leaves it by the same column, so a column negated alike
    everywhere still closes every loop; the crescent-side check reads each
    positive-weight row's low side from its leaf's frame and reports every
    negated row."""
    limit = limit_domain(two_pi_structure)
    clean = verify_covering(two_pi_structure, [CROSSING_LOOP], limit)
    assert clean["violations"] == [] and all(c["passed"] for c in clean["checks"])
    table = two_pi_structure.leaves_near([two_pi_structure.basepoint])
    vertical = np.isnan(table.real_ends).any(axis=1)
    flipped = {"every": np.ones_like(vertical), "circle": ~vertical, "vertical": vertical}[which]
    want = [{"kind": "crescent-side", "row": i} for i in np.flatnonzero(flipped).tolist()]
    _right_sides_negated(monkeypatch, which)
    report = verify_covering(two_pi_structure, [CROSSING_LOOP], limit)
    assert [v for v in report["violations"] if v["kind"] == "crescent-side"] == want and want
    assert report["checks"][0] == {"name": "all-lifts-close", "passed": False,
                                   "details": {"lifts": clean["values"]["lifts_tested"]}}


def test_criterion_5_catches_every_crossing_dropped(monkeypatch):
    """No crossing found anywhere: the structure is the unbent one, which
    satisfies both relations, and no crossing sign is read."""
    assert criterion_5()[0]
    monkeypatch.setattr(grafting, "lift_crossings", lambda p, q, *, leaves: [])
    passed, detail = criterion_5()
    assert not passed, detail
    assert "0 of 0 crossing signs" in detail, detail


def test_criterion_5_catches_every_sign_flipped(holonomy, monkeypatch):
    """Every crossing sign flipped.  That is bending by minus each weight,
    whose rho' is the complex conjugate of the right one: a structure too,
    so the projection relation and equivariance both hold.  The crossing
    signs read against the side of the segment each leaf starts on catch
    it."""
    bent = WeightedMulticurve(((GroupWord((1,)), math.pi / 2.0),))
    clean = GraftedStructure(holonomy, bent, depth=6).rho_prime
    crossings = grafting.lift_crossings
    monkeypatch.setattr(grafting, "lift_crossings", lambda p, q, *, leaves: [
        _flipped(c) for c in crossings(p, q, leaves=leaves)])
    planted = GraftedStructure(holonomy, bent, depth=6).rho_prime
    assert max(p.proj_distance(c) for p, c in zip(planted.generators, clean.generators)) > 1.0
    for p, c in zip(planted.generators, clean.generators):
        assert p.proj_distance(MoebiusMap(np.conj(c.matrix))) == 0.0
    passed, detail = criterion_5()
    assert not passed, detail
    # Both relations still hold; every sign read is against the rule.
    wrong, read = map(int, re.search(r"(\d+) of (\d+) crossing signs", detail).groups())
    assert wrong == read > 0, detail



def test_dome_golden_catches_reversal_without_normalization(monkeypatch):
    """A face circle turned to its outward cap by -H alone, not normalized
    again as OrientedCircle.reversed normalizes it."""
    sets = {f"seed1-set{k}": pts for k, pts in enumerate(domain_round_sets(1))}
    assert dome_golden_mismatches(sets) == []
    monkeypatch.setattr(hyperbolic, "circle_rows", lambda h: (h, {}))
    assert dome_golden_mismatches(sets)


def test_sphere_keys_catch_a_zero_band(monkeypatch):
    """The band about each rounding boundary forced to zero: sphere_keys
    then rounds the plain products alone, and the boundary rows that round
    apart from sphere_xyz show."""
    assert key_mismatches(9)[2] == 0
    monkeypatch.setattr(moebius, "KEY_BAND", 0.0)
    for decimals in (7, 9):
        _, apart, wrong = key_mismatches(decimals)
        assert wrong == apart > 0


def test_radius_screen_catches_a_zero_band(holonomy, monkeypatch):
    """The leaf query's radius screen with no band: a candidate exactly at
    the radius, whose ratio rounds above cosh(radius) - 1 while arccosh
    puts it on the radius, is dropped instead of kept."""
    assert radius_screen_mismatches(holonomy) == []
    monkeypatch.setattr(grafting, "RADIUS_BAND", 0.0)
    assert radius_screen_mismatches(holonomy) != []


def test_radius_screen_catches_a_missing_rounding_bound(monkeypatch):
    """The radius screen with no rounding bound: about a real part near
    1e6, the expanded ratio lies up to about 1e-4 from the exact one, far
    outside RADIUS_BAND, and decides points that arccosh puts on the other
    side of the radius."""
    assert screen_mismatches(0)[1] == 0
    monkeypatch.setattr(grafting, "SCREEN_ROUNDING", 0.0)
    assert screen_mismatches(0)[1] > 0
