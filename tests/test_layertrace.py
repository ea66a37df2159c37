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


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    original = grafting.lift_crossings
    tracer = layertrace.Tracer()
    try:
        tracer.install()
        assert grafting.lift_crossings is not original
    finally:
        tracer.uninstall()
    assert grafting.lift_crossings is original


def test_bench_selftest_passes():
    run = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "30 of 30" in run.stdout
