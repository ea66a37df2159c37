"""The benchmark's per-layer tracer wraps library functions by name; every
name it lists must still resolve, or ``bench/run.py --trace 1`` breaks.
The benchmark's output checkers must still pass genuine outputs and reject
corrupted ones."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import cp1graft.grafting as grafting

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERTRACE = BENCH / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    return layertrace


def test_tracer_installs_and_uninstalls():
    original = grafting.lift_crossings
    tracer = _layertrace().Tracer()
    try:
        tracer.install()
        assert grafting.lift_crossings is not original
    finally:
        tracer.uninstall()
    assert grafting.lift_crossings is original


def test_tracer_counts_the_tables_passed_to_lift_crossings(half_pi_structure, monkeypatch):
    # The tracer reads the table from the ``leaves`` keyword; a table passed
    # by position would be counted as no leaves scanned.
    passed = []
    original = grafting.lift_crossings

    def spy(*args, **kwargs):
        passed.append(len(kwargs["leaves"] if "leaves" in kwargs else args[2]))
        return original(*args, **kwargs)

    monkeypatch.setattr(grafting, "lift_crossings", spy)
    gs = half_pi_structure
    x0 = gs.basepoint
    z = -0.5 + 1.2j  # beyond the vertical cuff-1 axis
    tracer = _layertrace().Tracer()
    try:
        tracer.install()
        gs.crossings_to(z)
        grafting.develop_and_lift(gs, [x0, 0.4 + 1.5j, z])
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert len(passed) == 3
    assert counts["grafting.leaves_scanned"] == sum(passed)
    assert counts["grafting.leaves_scanned"] >= counts["grafting.crossings_found"] > 0


def test_bench_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "30 of 30" in run.stdout
