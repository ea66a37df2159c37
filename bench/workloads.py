"""The four benchmark workloads.

``build(name, seed, workdir)`` is the set-up: it makes one round of
operations from the seed.  An operation is an ``Op``: ``run`` is the timed
call into cp1graft, ``observe`` turns its result into plain data outside
the timing, and ``check`` returns the failures found in that data.  Library
functions are looked up through their modules at call time, so the
tracer's wrappers see every call.

The make-up of a round (which curves, depths, set shapes, query places and
sample sizes) is fixed.  The seed draws the weights outside 2piZ and turns
the ideal sets about 0, which leave the work unchanged, and jitters FN
coordinates, ideal points and query points by at most 1 %, which barely
moves it: at 10-30 % per operation the draw would otherwise spread the
run's latency percentiles as much as the host does.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import cp1graft
import cp1graft.cli as C
import cp1graft.grafting as G
import cp1graft.hyperbolic as H
import cp1graft.surface as S
import cp1graft.thurston as T

import checks

TWO_PI = 2.0 * math.pi

# The five Fenchel-Nielsen instances of the acceptance suite.
ACCEPTANCE_FN = (
    ((2.0, 2.5, 1.7), (0.3, -0.8, 1.1)),
    ((1.6, 1.6, 1.6), (0.0, 0.0, 0.0)),
    ((2.8, 1.4, 2.1), (-0.5, 0.9, 0.2)),
    ((1.2, 2.9, 2.3), (1.4, -0.3, -1.0)),
    ((2.2, 2.2, 1.3), (0.6, 0.6, -0.6)),
)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    observe: Callable[[Any], Any]
    check: Callable[[Any], list]


def seeded_fn(base: tuple, rng) -> tuple:
    """FN coordinates within 0.01 of the given instance."""
    lengths, twists = (tuple(float(x) for x in np.add(v, rng.uniform(-0.01, 0.01, 3)))
                       for v in base)
    return lengths, twists


def fn_instances(rng) -> list:
    """Acceptance instances 0-4, then seeded instances 5 and 6 near 0 and 4."""
    return list(ACCEPTANCE_FN) + [seeded_fn(ACCEPTANCE_FN[0], rng),
                                  seeded_fn(ACCEPTANCE_FN[4], rng)]


def weight_of(kind: str, rng) -> float:
    if kind == "2pi":
        return TWO_PI
    if kind == "4pi":
        return 2.0 * TWO_PI
    # Outside 2piZ, at least 0.4 away from it.
    return float(rng.uniform(0.4, TWO_PI - 0.4))


def _homog(p) -> tuple:
    return (complex(p.z0), complex(p.z1))


# ---------------------------------------------------------------------------
# holonomy: build a grafted structure and its deformed holonomy


# (FN instance, curves, depth, weight kinds); seven instances, 1-3 curves,
# depths 4-6, weights in and outside 2piZ.  Listed by cost at the commit that
# defined the benchmark.  Each round has an odd number of operations, so that
# the run's median latency is that of one operation (here the seventh, on a
# fixed acceptance instance) rather than a mean of two.
HOLONOMY_SLOTS = (
    (1, ("a",), 4, ("2pi",)),
    (5, ("a",), 5, ("off",)),
    (4, ("a",), 4, ("off",)),
    (3, ("a",), 5, ("off",)),
    (0, ("a",), 6, ("2pi",)),
    (6, ("a",), 6, ("4pi",)),
    (2, ("Ad",), 4, ("4pi",)),
    (5, ("D",), 4, ("2pi",)),
    (6, ("Ad",), 4, ("off",)),
    (4, ("D",), 5, ("off",)),
    (1, ("D",), 5, ("off",)),
    (3, ("a", "D"), 4, ("2pi", "off")),
    (0, ("a", "Ad", "D"), 4, ("2pi", "4pi", "2pi")),
)


def _holonomy_op(fn, curves, depth, weights) -> Op:
    fnc = S.FNCoordinates(*fn)
    entries = tuple((S.GroupWord.parse(c), w) for c, w in zip(curves, weights))

    def run():
        hol = S.fuchsian_from_fn(fnc)
        gs = G.GraftedStructure(hol, G.WeightedMulticurve(entries), depth=depth)
        return hol, gs.rho_prime

    def observe(result):
        hol, rp = result
        return {"base": [np.array(g.matrix) for g in hol.generators],
                "deformed": [np.array(g.matrix) for g in rp.generators]}

    return Op("build", run, observe, lambda out: checks.check_holonomy(weights, out))


def holonomy(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    fns = fn_instances(rng)
    ops = []
    for fn_id, curves, depth, kinds in HOLONOMY_SLOTS:
        weights = tuple(weight_of(k, rng) for k in kinds)
        ops.append(_holonomy_op(fns[fn_id], curves, depth, weights))
    return ops


# ---------------------------------------------------------------------------
# develop: point queries on prebuilt structures


# (FN instance, curve, weight kind, depth) of the structures built in set-up.
DEVELOP_STRUCTURES = (
    (0, "a", "off", 6),
    (2, "D", "off", 4),
    (5, "Ad", "off", 4),
)
NEAR_LEAVES = 3  # queries just beyond the three leaves nearest the basepoint
ORBIT_WORDS = ("b", "Cd")  # queries near the orbit points of these words
# Generator of each query's translate, by query slot.
TRANSLATES = (1, -2, 3, -4, 2)


def _beyond_leaf(x0: complex, leaf, angle: float, stretch: float) -> complex:
    """A point just across the leaf from x0: in the frame sending the leaf
    to the imaginary axis, mirror x0's side and keep ``angle`` off the axis."""
    n = G._real_normalizer(leaf.geodesic.p, leaf.geodesic.q)
    w = n(x0)
    side = -1.0 if w.real > 0 else 1.0
    target = abs(w) * math.exp(stretch) * cmath.exp(1j * (math.pi / 2.0 - side * angle))
    return n.inverse()(target)


def _detour(x0: complex, z: complex, shift: float) -> list:
    mid = G.uhp_geodesic_point(x0, z, 0.5)
    return [x0, complex(mid.real + shift * mid.imag, mid.imag), z]


def develop(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    fns = fn_instances(rng)
    ops = []
    for fn_id, curve, kind, depth in DEVELOP_STRUCTURES:
        hol = S.fuchsian_from_fn(S.FNCoordinates(*fns[fn_id]))
        mc = G.WeightedMulticurve(((S.GroupWord.parse(curve), weight_of(kind, rng)),))
        gs = G.GraftedStructure(hol, mc, depth=depth)
        gs.rho_prime  # noqa: B018 -- builds the base leaves and rho' in set-up
        mesh = G.pleated_surface(hol, mc, depth=depth, truncation_radius=2.0, structure=gs)
        x0 = gs.basepoint
        near = sorted(gs.base_leaves, key=lambda lf: G.distance_to_leaf(x0, lf.geodesic))
        queries = [
            _beyond_leaf(x0, lf, rng.uniform(0.148, 0.152), rng.uniform(-0.01, 0.01))
            for lf in near[:NEAR_LEAVES]
        ]
        for word in ORBIT_WORDS:
            o = hol.rho(S.GroupWord.parse(word))(x0)
            queries.append(complex(o.real, o.imag * math.exp(rng.uniform(-0.01, 0.01))))
        for k, (z, letter) in enumerate(zip(queries, TRANSLATES)):
            shift = (-1) ** k * rng.uniform(0.297, 0.303)
            ops.append(_query_op(gs, mesh, z, letter, _detour(x0, z, shift)))
    return ops


def _query_op(gs, mesh, z, letter, path) -> Op:
    gz = gs.hol.generator(letter)(z)
    rho_gamma = np.array(gs.rho_prime.generator(letter).matrix)

    def run():
        f = gs.develop(z)
        b = gs.bending_map(z)
        beta = mesh.beta(z)
        beta_t = mesh.beta(gz)
        lift = G.develop_and_lift(gs, path)
        return f, b, beta, beta_t, lift

    def observe(result):
        f, b, beta, beta_t, lift = result
        parity = {}
        for c in lift.crossings:
            key = c.leaf.key()
            parity[key] = parity.get(key, 0) ^ 1
        return {"develop": _homog(f), "bending": np.array(b.matrix),
                "beta": (beta.z, beta.t), "beta_translate": (beta_t.z, beta_t.t),
                "rho_gamma": rho_gamma, "lift": _homog(lift.endpoint),
                # A leaf separates z from the basepoint iff the detour
                # crosses it an odd number of times.
                "tally": {"queries": 1,
                          "queries_crossing_no_leaf": int(not any(parity.values()))}}

    return Op("query", run, observe, checks.check_develop)


# ---------------------------------------------------------------------------
# domain: the inverse direction on finite ideal sets


def _cube_points() -> list:
    """Cube vertices on the sphere, one at the north pole (so one point is
    infinity); each face gives a cocircular quadruple."""
    verts = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
                     dtype=float) / math.sqrt(3.0)
    # Rotate (1,1,1)/sqrt3 onto (0,0,1).
    u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    k = np.cross(u, [0.0, 0.0, 1.0])
    s, c = np.linalg.norm(k), u[2]
    k = k / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    rot = np.eye(3) + s * kx + (1 - c) * kx @ kx
    pts = []
    for x, y, z in verts @ rot.T:
        pts.append("inf" if z > 1 - 1e-12 else complex(x, y) / (1.0 - z))
    return pts


def _fixed_sets() -> list:
    omega = cmath.exp(1j * math.pi / 3.0)
    return [
        [0.0, 1.0, "inf", omega],  # tetrahedron through infinity
        [0.0] + [cmath.exp(1j * math.pi * k / 3.0) for k in range(6)],  # hexagon + centre
        [complex(i, j) for i in range(3) for j in range(3)],  # 3x3 grid
        _cube_points(),
    ]


def _scattered_set(n: int, with_infinity: bool) -> list:
    """n points in [-2, 2]^2 kept 0.3 apart, the same for every seed; the
    last one is infinity."""
    rng = np.random.default_rng(1000 + n)
    pts = []
    while len(pts) < n - int(with_infinity):
        z = complex(*rng.uniform(-2.0, 2.0, 2))
        if all(abs(z - p) > 0.3 for p in pts):
            pts.append(z)
    return pts + ["inf"] * int(with_infinity)


def _moved(points, turn: complex, rng, jitter: float) -> list:
    """Move each finite point other than 0 by less than ``jitter``, then turn
    the set about 0 by ``turn``; 0 and infinity stay where they are."""
    out = []
    for z in points:
        if z == "inf":
            out.append(z)
        else:
            nudge = jitter * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            out.append(turn * (z + (nudge if z != 0 else 0)))
    return out


# Sizes of the scattered sets (4-12 points; odd slots include infinity) and
# the sample counts of the stratification operations, one per set; the
# tetrahedron has none, which keeps the number of operations odd.
DOMAIN_SCATTERED_SIZES = (5, 7, 9, 12)
DOMAIN_SAMPLES = (0, 60, 80, 100, 120, 150, 90, 200)


def _cp1(z):
    return cp1graft.moebius.INFINITY if z == "inf" else cp1graft.moebius.cp1(complex(z))


def _measure_op(pts) -> Op:
    def run():
        mesh = H.dome(pts)
        return mesh, T.dome_measure_report(pts)

    def observe(result):
        mesh, report = result
        faces = [list(f.vertex_ids) for f in mesh.faces]
        return {"points": [_homog(p) for p in mesh.vertices], "faces": faces,
                "edges": [(*e.vertex_ids, *e.face_ids) for e in mesh.edges],
                "theta": [ev["theta"] for ev in report["values"]["edges"]],
                "violations": len(report["violations"])}

    return Op("dome-measure", run, observe, checks.check_dome_measure)


def _strat_op(pts, count: int, turn: complex) -> Op:
    """Samples from [-3, 3]^2, the same for every seed up to the turn that
    the set was given, so that the disks they find are too."""
    dom = T.DiskComplementDomain.from_ideal_points(pts)
    rng = np.random.default_rng(count)
    samples = []
    while len(samples) < count:
        z = turn * complex(*rng.uniform(-3.0, 3.0, 2))
        if dom.contains(_cp1(z), margin=1e-3):
            samples.append(z)

    def run():
        return T.stratification_check(dom, samples)

    def observe(report):
        disks = []
        for z in samples[:8]:
            rec = T.maximal_disk_at(dom, _cp1(z))
            disks.append(((z, 1.0), np.array(rec.disk.circle.hermitian)))
        return {"violations": len(report["violations"]),
                "failed_checks": [c["name"] for c in report["checks"] if not c["passed"]],
                "complement": [_homog(p) for p in dom.complement], "disks": disks}

    return Op("stratification", run, observe, checks.check_stratification)


def domain(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    turn = cmath.exp(2j * math.pi * rng.uniform())
    # Symmetric sets are only turned, which keeps their cocircular quadruples.
    sets = [_moved(pts, turn, rng, 0.0) for pts in _fixed_sets()] + [
        _moved(_scattered_set(n, with_infinity=bool(i % 2)), turn, rng, 0.003)
        for i, n in enumerate(DOMAIN_SCATTERED_SIZES)
    ]
    ops = []
    for raw, count in zip(sets, DOMAIN_SAMPLES):
        pts = [_cp1(z) for z in raw]
        ops.append(_measure_op(pts))
        if count:
            ops.append(_strat_op(pts, count, turn))
    return ops


# ---------------------------------------------------------------------------
# cli: every subcommand through cp1graft.cli.main


CLI_COMMANDS_2PI = (
    ("graft",), ("verify", "two-pi"), ("verify", "goldman"), ("verify", "covering"),
    ("verify", "stratification"), ("verify", "dome-measure"), ("export", "pleat"),
    ("export", "dome"), ("export", "limitset"), ("export", "holonomy"),
)
CLI_COMMANDS_BENT = (("graft",), ("export", "pleat"), ("export", "holonomy"))


def _cli_configs(rng) -> list:
    """A 2pi config (single curve, so covering applies) and a config bent by
    weights outside 2piZ."""
    def surface(base):
        lengths, twists = seeded_fn(base, rng)
        return {"genus": 2, "lengths": list(lengths), "twists": list(twists)}

    turn = cmath.exp(2j * math.pi * rng.uniform())
    domain_pts = [[float(z.real), float(z.imag)]
                  for z in _moved(_scattered_set(5, False), turn, rng, 0.003)]
    # The configs' own seed (loop placement, stratification samples) stays
    # 0: covering cost follows the number of lifts at each loop's start.
    two_pi = {
        "surface": surface(ACCEPTANCE_FN[0]),
        "multicurve": [{"word": "a", "weight": "2*pi"}],
        "depth": 5, "truncation_radius": 2.0, "seed": 0,
        "samples": 100, "loops": 3, "margin": 0.05, "limit_depth": 4,
        "domain": {"points": domain_pts + ["inf"]},
    }
    bent = {
        "surface": surface(ACCEPTANCE_FN[4]),
        "multicurve": [{"word": "a", "weight": "1/2*pi"}],
        "depth": 5, "truncation_radius": 2.0, "seed": 0,
    }
    return [(two_pi, CLI_COMMANDS_2PI), (bent, CLI_COMMANDS_BENT)]


def _read_outputs(directory: str) -> dict:
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


class CliOp(Op):
    """A CLI command.  Its first run is the warm-up: those outputs become
    the reference that every later run must reproduce byte for byte."""

    def __init__(self, kind, argv, config_path, weights, out_root):
        self.argv, self.config_path, self.weights = argv, config_path, weights
        self.out_root = out_root
        self.reference = None
        super().__init__(kind, self.run_cli, self.observe_cli, self.check_cli)

    def out_dir(self):
        return os.path.join(self.out_root, "warmup" if self.reference is None else "timed")

    def run_cli(self):
        return C.main(list(self.argv) + ["--config", self.config_path, "--out", self.out_dir()])

    def observe_cli(self, code):
        return {"exit": code, "files": _read_outputs(self.out_dir())}

    def check_cli(self, out):
        spec = {"argv": self.argv, "weights": self.weights}
        fails = checks.check_cli(spec, out, self.reference)
        if self.reference is None:
            self.reference = out["files"]
        return fails


def cli(seed: int, workdir: str) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for k, (config, commands) in enumerate(_cli_configs(rng)):
        path = os.path.join(workdir, f"config{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        weights = [C.Weight.parse(e["weight"]).value for e in config["multicurve"]]
        for argv in commands:
            kind = f"config{k} {' '.join(argv)}"
            ops.append(CliOp(kind, argv, path, weights, os.path.join(workdir, kind)))
    return ops


WORKLOADS = {"holonomy": holonomy, "develop": develop, "domain": domain, "cli": cli}
