"""The benchmark's per-layer tracer wraps library functions by name; every
name it lists must still resolve, or ``bench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

import cp1graft.grafting as grafting

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


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
