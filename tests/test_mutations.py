"""Planted defects: each row patches one defect into the library and names
the check that must catch it.  A check that passes with its defect planted
cannot fail on the defect."""

import cmath
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import cp1graft.grafting as grafting
import cp1graft.moebius as moebius
import cp1graft.thurston as thurston
from cp1graft.cli import EXIT_OK, EXIT_VIOLATIONS, main
from cp1graft.grafting import GraftedStructure, WeightedMulticurve
from cp1graft.moebius import DegenerateInputError, MoebiusMap
from cp1graft.surface import GroupWord
from cp1graft.thurston import RoundDisk, verify_covering
from conftest import REPO, cocircular_rows, limit_domain
from oracles import lockstep_med_mismatches

TETRA = {
    "surface": {"genus": 2, "lengths": [2.0, 2.0, 2.0]},
    "multicurve": [],
    "domain": {"points": [[0, 0], [1, 0], "inf", [0.5, 0.8660254037844386]]},
}


def _measure_angle_scaled(monkeypatch):
    angle = thurston.angle_between
    monkeypatch.setattr(thurston, "angle_between", lambda c1, c2: 1.01 * angle(c1, c2))


def _no_crossing(monkeypatch):
    monkeypatch.setattr(thurston, "_crossing", lambda line, labels: None)


# (defect, the dome-measure violation every edge of the tetrahedron reports)
DOME_MEASURE_MUTATIONS = [
    (_measure_angle_scaled, "measure-dihedral-mismatch"),
    (_no_crossing, "no-measure-path"),
]


@pytest.mark.parametrize(
    "plant,kind", DOME_MEASURE_MUTATIONS, ids=[kind for _, kind in DOME_MEASURE_MUTATIONS]
)
def test_dome_measure_catches_planted_defect(plant, kind, monkeypatch, tmp_path):
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
    """Give every vertical leaf lift weight 0, so that covering skips it."""
    near = GraftedStructure.leaves_near

    def dropped(gs, focus):
        table = near(gs, focus)
        table.weight = np.where(np.isnan(table.real_ends).any(axis=1), 0.0, table.weight)
        return table

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
    """Every leaf lift of a structure's leaf queries 1 % heavier."""
    near = GraftedStructure.leaves_near

    def heavier(gs, focus):
        table = near(gs, focus)
        table.weight = 1.01 * table.weight
        return table

    monkeypatch.setattr(GraftedStructure, "leaves_near", heavier)


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
    reads each curve's weight back from its leaf (ROADMAP item 1), so it
    passes with no bending at all.  Catching it needs the weight recovered
    from the developed structure."""
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
    find = thurston.maximal_disks
    found = itertools.count()

    def planted(dom, points):
        return [
            rec if isinstance(rec, Exception) or next(found) % 7 else defect(rec)
            for rec in find(dom, points)
        ]

    monkeypatch.setattr(thurston, "maximal_disks", planted)



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
