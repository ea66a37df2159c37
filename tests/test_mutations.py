"""Planted defects: each row patches one defect into the library and names
the check that must catch it.  A check that passes with its defect planted
cannot fail on the defect."""

import json

import pytest

import cp1graft.thurston as thurston
from cp1graft.cli import EXIT_VIOLATIONS, main

TETRA = {
    "surface": {"genus": 2, "lengths": [2.0, 2.0, 2.0]},
    "multicurve": [],
    "domain": {"points": [[0, 0], [1, 0], "inf", [0.5, 0.8660254037844386]]},
}


def _measure_angle_scaled(monkeypatch):
    angle = thurston.angle_between
    monkeypatch.setattr(thurston, "angle_between", lambda c1, c2: 1.01 * angle(c1, c2))


def _no_single_edge_path(monkeypatch):
    monkeypatch.setattr(thurston, "_single_edge_subpath", lambda strata, path: None)


# (defect, the dome-measure violation every edge of the tetrahedron reports)
DOME_MEASURE_MUTATIONS = [
    (_measure_angle_scaled, "measure-dihedral-mismatch"),
    (_no_single_edge_path, "no-measure-path"),
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
