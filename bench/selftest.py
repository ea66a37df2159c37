"""Self-test of the output checks: each checker passes a genuine output
and counts every corrupted copy of it as failed.

    python3 bench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.  Takes about ten seconds:
it runs a few cheap operations of each workload to get genuine outputs.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads as W  # noqa: E402

RESULTS = []


def verdict(label: str, fails: list, want: str | None):
    """want None: the output must pass; otherwise a failure naming ``want``."""
    ok = not fails if want is None else any(want in f for f in fails)
    RESULTS.append(ok)
    print(f"{'ok ' if ok else 'BAD'} {label}: {fails if fails else 'passes'}")


def corrupted(out, edit):
    out = copy.deepcopy(out)
    edit(out)
    return out


def genuine(op):
    return op.observe(op.run())


def test_holonomy():
    ops = W.holonomy(0, "")
    two_pi, bent = ops[0], ops[2]  # curve a at depth 4: weight 2pi / outside 2piZ
    out = genuine(two_pi)
    verdict("holonomy 2pi genuine", two_pi.check(out), None)
    nudge = np.array([[1.0, 1e-6], [0.0, 1.0]])
    verdict("holonomy 2pi, generator nudged", two_pi.check(
        corrupted(out, lambda o: o["deformed"].__setitem__(1, o["deformed"][1] @ nudge))),
        "2pi grafting moved")
    out = genuine(bent)
    verdict("holonomy bent genuine", bent.check(out), None)
    verdict("holonomy bent, deformation dropped", bent.check(
        corrupted(out, lambda o: o.__setitem__("deformed", list(o["base"])))),
        "moved no generator")
    verdict("holonomy bent, relation broken", bent.check(
        corrupted(out, lambda o: o["deformed"].__setitem__(0, o["deformed"][0] @ nudge))),
        "relation residual")


def test_develop():
    op = W.develop(0, "")[1]  # second query on the curve-a structure
    out = genuine(op)
    verdict("develop genuine", op.check(out), None)
    verdict("develop, f(z) moved", op.check(
        corrupted(out, lambda o: o.__setitem__("develop", (o["develop"][0] + 1e-4, o["develop"][1])))),
        "Psi(f(z))")
    verdict("develop, beta(gamma z) moved", op.check(
        corrupted(out, lambda o: o.__setitem__(
            "beta_translate", (o["beta_translate"][0] + 1e-5, o["beta_translate"][1])))),
        "beta(gamma z)")
    verdict("develop, lift endpoint moved", op.check(
        corrupted(out, lambda o: o.__setitem__("lift", (o["lift"][0] * (1 + 1e-6), o["lift"][1])))),
        "detour lift")


def test_domain():
    ops = W.domain(0, "")
    measure = ops[0]  # the tetrahedron through infinity
    strat = next(op for op in ops if op.kind == "stratification")
    out = genuine(measure)
    verdict("dome-measure genuine", measure.check(out), None)
    verdict("dome-measure, one measure off", measure.check(
        corrupted(out, lambda o: o["theta"].__setitem__(0, o["theta"][0] + 1e-3))),
        "edge 0")
    verdict("dome-measure, an edge lost", measure.check(
        corrupted(out, lambda o: (o["edges"].pop(), o["theta"].pop()))), "Rivin")
    verdict("dome-measure, violation reported", measure.check(
        corrupted(out, lambda o: o.__setitem__("violations", 1))), "violations")
    out = genuine(strat)
    verdict("stratification genuine", strat.check(out), None)
    verdict("stratification, disk side flipped", strat.check(
        corrupted(out, lambda o: o["disks"].__setitem__(0, (o["disks"][0][0], -o["disks"][0][1])))),
        "does not contain its query")
    verdict("stratification, disk shrunk off its contacts", strat.check(
        corrupted(out, lambda o: o["disks"].__setitem__(
            0, (o["disks"][0][0], o["disks"][0][1] + 1e-3 * np.eye(2))))),
        "on its circle")
    verdict("stratification, disk grown over a contact", strat.check(
        corrupted(out, lambda o: o["disks"].__setitem__(
            0, (o["disks"][0][0], o["disks"][0][1] - 1e-3 * np.eye(2))))),
        "contains a complement point")
    verdict("stratification, violation reported", strat.check(
        corrupted(out, lambda o: o.__setitem__("violations", 2))), "violations")


def _edit_csv(data: bytes, row: int, col: int, value: str) -> bytes:
    lines = data.decode().split("\n")
    cols = lines[row].split(",")
    cols[col] = value
    lines[row] = ",".join(cols)
    return "\n".join(lines).encode()


def _edit_json(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode()


def test_cli():
    scratch = BENCH_DIR / ".scratch"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        ops = {op.kind: op for op in W.cli(0, workdir)}
        cases = {
            "limitset": ops["config0 export limitset"],
            "holonomy": ops["config0 export holonomy"],
            "covering": ops["config0 verify covering"],
            "pleat": ops["config1 export pleat"],
        }
        outs = {}
        for name, op in cases.items():
            outs[name] = genuine(op)
            verdict(f"cli {name} genuine", op.check(outs[name]), None)

        def check(name, out, reference=None):
            op = cases[name]
            return checks.check_cli({"argv": op.argv, "weights": op.weights}, out, reference)

        def files(name, fname, edit):
            out = copy.deepcopy(outs[name])
            out["files"][fname] = edit(out["files"][fname])
            return out

        verdict("cli limitset off the real line", check("limitset", files(
            "limitset", "limitset.csv", lambda d: _edit_csv(d, 1, 1, "1e-6"))), "real line")
        verdict("cli 2pi holonomy trace made complex", check("holonomy", files(
            "holonomy", "holonomy.csv", lambda d: _edit_csv(d, 1, 10, "1e-6"))), "trace")
        verdict("cli covering closure lost", check("covering", files(
            "covering", "covering_report.json",
            lambda d: _edit_json(d, lambda r: r["values"].__setitem__(
                "closures", r["values"]["closures"] - 1)))), "covering closures")
        verdict("cli report with a violation", check("covering", files(
            "covering", "covering_report.json",
            lambda d: _edit_json(d, lambda r: r["violations"].append({"kind": "x"})))),
            "violations")
        verdict("cli pleat face tilted", check("pleat", files(
            "pleat", "pleat.json",
            lambda d: _edit_json(d, lambda m: m["vertices"][m["faces"][1][0]].__setitem__(
                0, m["vertices"][m["faces"][1][0]][0] + 1e-3)))), "pleat face 1")
        verdict("cli pleat weight not configured", check("pleat", files(
            "pleat", "pleat.json",
            lambda d: _edit_json(d, lambda m: m["edges"][0].__setitem__("weight", 1.0)))),
            "not a configured weight")
        verdict("cli nonzero exit", check("limitset", dict(outs["limitset"], exit=1)), "exited 1")
        verdict("cli output differs from warm-up", check(
            "limitset", outs["limitset"],
            {"limitset.csv": outs["limitset"]["files"]["limitset.csv"] + b"0,0\n"}),
            "warm-up")


def main() -> int:
    for test in (test_holonomy, test_develop, test_domain, test_cli):
        test()
    bad = RESULTS.count(False)
    print(f"{len(RESULTS) - bad} of {len(RESULTS)} self-test cases behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
