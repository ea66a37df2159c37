"""Batch front-end: parse a JSON config, run constructions and checks, and
emit meshes, CSV tables, and JSON reports with stable schemas.

Exit codes: 0 success, 1 verification violations, 2 invalid config or
precondition, 3 numeric failure.  All floats are printed with 17 significant
digits and files are written atomically (temp file, then rename), so a fixed
config and seed reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moebius import (
    INFINITY,
    DegenerateInputError,
    MoebiusMap,
    PointCP1,
    affine_rows,
    cp1,
    moebius_rows,
)
from .hyperbolic import DomeMesh, dome, halfspace_to_ball
from .surface import (
    GENERATOR_NAMES,
    LETTER_ORDER,
    ConstructionError,
    FNCoordinates,
    GroupWord,
    enumerate_words,
    fuchsian_from_fn,
    limit_set_sample,
    word_children,
    word_products,
)
from .grafting import (
    GraftedStructure,
    InvalidMulticurveError,
    WeightedMulticurve,
    is_two_pi_multiple,
    pleated_surface,
)
from .thurston import (
    TOL_MEASURE,
    DiskComplementDomain,
    PreconditionError,
    TransversalityError,
    dome_measure_report,
    recover_weight_from_grafted,
    stratification_check,
    verify_covering,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing


@dataclass(frozen=True)
class Weight:
    """Grafting weight in radians, given as a number or as a rational
    multiple of pi such as "1/2*pi"."""

    value: float

    @staticmethod
    def parse(spec) -> "Weight":
        if isinstance(spec, bool):
            raise ConfigError(f"cannot parse weight {spec!r}")
        if isinstance(spec, (int, float)):
            v = float(spec)
        elif isinstance(spec, str):
            text = spec.replace(" ", "")
            if "pi" in text:
                coeff = text.replace("*pi", "").replace("pi", "")
                try:
                    frac = Fraction({"": "1", "+": "1", "-": "-1"}.get(coeff, coeff))
                    return Weight(float(frac) * math.pi)
                except (ValueError, ZeroDivisionError, OverflowError) as exc:
                    raise ConfigError(f"cannot parse weight {spec!r}") from exc
            else:
                try:
                    v = float(text)
                except ValueError as exc:
                    raise ConfigError(f"cannot parse weight {spec!r}") from exc
        else:
            raise ConfigError(f"cannot parse weight {spec!r}")
        return Weight(v)

    @property
    def is_two_pi_multiple(self) -> bool:
        return is_two_pi_multiple(self.value)


@dataclass
class RunConfig:
    """A checked run configuration; ``from_dict`` holds every default."""

    fn: FNCoordinates
    multicurve_words: tuple
    weights: tuple  # Weight
    depth: int
    truncation_radius: float
    seed: int
    domain_points: tuple
    samples: int
    loops: int
    margin: float
    limit_depth: int
    export_word_length: int
    tolerances: dict

    def multicurve(self) -> WeightedMulticurve:
        return WeightedMulticurve(
            tuple((w, wt.value) for w, wt in zip(self.multicurve_words, self.weights))
        )

    def structure(self) -> GraftedStructure:
        """The configured surface grafted along the configured multicurve."""
        return GraftedStructure(fuchsian_from_fn(self.fn), self.multicurve(), depth=self.depth)

    @staticmethod
    def load(path: str, overrides: dict | None = None) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return RunConfig.from_dict(raw, overrides or {})

    @staticmethod
    def from_dict(raw: dict, overrides: dict | None = None) -> "RunConfig":
        raw = {**_mapping(raw, "config"), **(overrides or {})}
        surface = _mapping(raw.get("surface", {}), "surface")
        genus = surface.get("genus", 2)
        if genus != 2:
            raise ConfigError("only genus 2 is constructible")
        lengths = _triple(surface.get("lengths"), "surface.lengths")
        if not all(0 < l < math.inf for l in lengths):
            raise ConfigError("surface.lengths must be three positive finite numbers")
        twists = _triple(surface.get("twists", [0.0, 0.0, 0.0]), "surface.twists")
        if not all(map(math.isfinite, twists)):
            raise ConfigError("surface.twists must be finite")
        fn = FNCoordinates(lengths, twists)

        words, weights = [], []
        for entry in raw.get("multicurve", []):
            try:
                words.append(GroupWord.parse(str(entry["word"])))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad multicurve entry {entry!r}: {exc}") from exc
            wt = Weight.parse(entry.get("weight", 0))
            if not 0 <= wt.value < math.inf:
                raise ConfigError(f"multicurve weight must be finite and nonnegative: {entry!r}")
            weights.append(wt)

        depth = _read(raw, "depth", int, 8)
        if not 1 <= depth <= 16:
            raise ConfigError("depth must be in [1, 16]")

        pts = []
        for p in _mapping(raw.get("domain", {}), "domain").get("points", []):
            if p == "inf" or p == ["inf"]:
                pts.append(INFINITY)
            elif isinstance(p, (list, tuple)) and len(p) == 2:
                re, im = (_convert(float, x, "domain point") for x in p)
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ConfigError(f"domain point must be finite: {p!r}")
                pts.append(cp1(complex(re, im)))
            else:
                raise ConfigError(f'domain point must be [re, im] or "inf": {p!r}')

        config = RunConfig(
            fn=fn,
            multicurve_words=tuple(words),
            weights=tuple(weights),
            depth=depth,
            truncation_radius=_read(raw, "truncation_radius", float, 2.5),
            seed=_read(raw, "seed", int, 0),
            domain_points=tuple(pts),
            samples=_read(raw, "samples", int, 500),
            loops=_read(raw, "loops", int, 50),
            margin=_read(raw, "margin", float, 0.05),
            limit_depth=_read(raw, "limit_depth", int, 5),
            export_word_length=_read(raw, "export_word_length", int, 2),
            tolerances={
                key: _tolerance(key, value)
                for key, value in _mapping(raw.get("tolerances", {}), "tolerances").items()
            },
        )
        if not 0 < config.truncation_radius < math.inf:
            raise ConfigError("truncation_radius must be positive and finite")
        if min(config.loops, config.samples) < 1:
            raise ConfigError("loops and samples must be >= 1")
        # A word level of length d holds 8 * 7^(d - 1) matrices; the bounds keep
        # the largest level under a million.
        if not 1 <= config.limit_depth <= 7:
            raise ConfigError("limit_depth must be in [1, 7]")
        if not 1 <= config.export_word_length <= 6:
            raise ConfigError("export_word_length must be in [1, 6]")
        if not 0 < config.margin < math.inf:
            raise ConfigError("margin must be positive and finite")
        return config

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, TOLERANCE_DEFAULTS[key]))


# Every tolerance a command reads (verify two-pi, goldman, dome-measure), with its default.
TOLERANCE_DEFAULTS = {"two_pi": 1e-9, "goldman": 1e-6, "measure": TOL_MEASURE}


def _convert(kind, value, what):
    """kind(value), with a failed conversion reported as a ConfigError.  A
    JSON boolean is not read as a number."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from exc


def _read(raw: dict, key: str, kind, default):
    return _convert(kind, raw.get(key, default), key)


def _mapping(value, what) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _triple(value, what) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{what} must be three numbers")
    return tuple(_convert(float, v, what) for v in value)


def _tolerance(key, value) -> float:
    if key not in TOLERANCE_DEFAULTS:
        raise ConfigError(f"unknown tolerance {key!r}; known: {', '.join(TOLERANCE_DEFAULTS)}")
    tol = _convert(float, value, f"tolerance {key}")
    if not 0 < tol < math.inf:
        raise ConfigError(f"tolerance {key} must be positive and finite, got {value!r}")
    return tol


# ---------------------------------------------------------------------------
# Deterministic serialization


def _fmt_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % x
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """JSON text with every float printed to 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag], indent)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def atomic_write(path: str, text: str, chunks=()):
    """Write ``text``, then each string of ``chunks`` as it comes, to a
    temporary file beside ``path``, and rename it over ``path`` once all is
    written; the temporary file is removed if anything fails."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def moebius_entries(m: MoebiusMap) -> list:
    return [complex(m.a), complex(m.b), complex(m.c), complex(m.d)]


# ---------------------------------------------------------------------------
# Mesh serialization (schemas owned here)


def dome_mesh_json(mesh: DomeMesh) -> dict:
    return {
        "vertices": [
            list(p.sphere_coords()) if p.is_infinity
            else [p.as_complex().real, p.as_complex().imag]
            for p in mesh.vertices
        ],
        "vertices_at_infinity": [i for i, p in enumerate(mesh.vertices) if p.is_infinity],
        "faces": [list(f.vertex_ids) for f in mesh.faces],
        "edges": [
            {"vertices": list(e.vertex_ids), "faces": list(e.face_ids), "weight": e.weight}
            for e in mesh.edges
        ],
    }


def _obj(title: str, vertices, faces) -> str:
    """OBJ text: one line per vertex (x, y, z), then each face (a list of
    0-based vertex ids) fan-triangulated."""
    lines = [f"# {title}"]
    lines += [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in vertices]
    for ids in faces:
        for k in range(1, len(ids) - 1):
            lines.append(f"f {ids[0] + 1} {ids[k] + 1} {ids[k + 1] + 1}")
    return "\n".join(lines) + "\n"


def _pleat_polygons(mesh) -> tuple[list, list]:
    """Upper half-space images of every face polygon's vertices, in face
    order, and each face as its list of ids into them."""
    points, faces = [], []
    for f in mesh.faces:
        image = f.image_polygon()
        faces.append(list(range(len(points), len(points) + len(image))))
        points += image
    return points, faces


def pleat_mesh_json(mesh, points: list, faces: list) -> dict:
    """Same shape as the dome schema: a vertex table, faces as vertex index
    lists, and weighted edges; vertices are upper half-space image points."""
    return {
        "truncation_radius": mesh.truncation_radius,
        "vertices": [[p.z.real, p.z.imag, p.t] for p in points],
        "faces": faces,
        "edges": [
            {
                "faces": list(e.face_ids),
                "weight": e.weight,
                "leaf_endpoints": [
                    _cp1_json(e.leaf.geodesic.p),
                    _cp1_json(e.leaf.geodesic.q),
                ],
            }
            for e in mesh.edges
        ],
    }


def _cp1_json(p: PointCP1):
    if p.is_infinity:
        return "inf"
    z = p.as_complex()
    return [z.real, z.imag]


# ---------------------------------------------------------------------------
# Commands


def _require_positive_weights(config: RunConfig):
    if any(w.value == 0 for w in config.weights):
        raise ConfigError("multicurve weights must be positive")


def cmd_graft(config: RunConfig, out_dir: str) -> int:
    _require_positive_weights(config)
    gs = config.structure()
    hol, rp = gs.hol, gs.rho_prime
    deviations = [
        rp.generators[i].proj_distance(hol.generators[i]) for i in range(4)
    ]
    doc = {
        "surface": {
            "genus": 2,
            "lengths": list(config.fn.lengths),
            "twists": list(config.fn.twists),
        },
        "multicurve": [
            {"word": str(w), "weight": wt.value}
            for w, wt in zip(config.multicurve_words, config.weights)
        ],
        "depth": config.depth,
        "seed": config.seed,
        "base_holonomy": {
            name: moebius_entries(m)
            for name, m in zip(GENERATOR_NAMES, hol.generators)
        },
        "deformed_holonomy": {
            name: moebius_entries(m)
            for name, m in zip(GENERATOR_NAMES, rp.generators)
        },
        "residuals": {
            "base_relation": hol.relation_residual(),
            "deformed_relation": rp.relation_residual(),
            "generator_deviation": deviations,
        },
    }
    atomic_write(os.path.join(out_dir, "grafted_structure.json"), dumps(doc) + "\n")
    return EXIT_OK


def _report_exit(report: dict, path: str) -> int:
    atomic_write(path, dumps(report) + "\n")
    return EXIT_OK if not report.get("violations") else EXIT_VIOLATIONS


def cmd_verify(config: RunConfig, which: str, out_dir: str) -> int:
    _require_positive_weights(config)
    path = os.path.join(out_dir, f"{which}_report.json")
    if which == "two-pi":
        if not config.multicurve_words:
            raise ConfigError("two-pi check needs a multicurve")
        if not all(w.is_two_pi_multiple for w in config.weights):
            raise ConfigError("two-pi check requires weights in 2 pi Z")
        gs = config.structure()
        hol, rp = gs.hol, gs.rho_prime
        tol = config.tol("two_pi")
        deviations = {}
        violations = []
        for name, before, after in zip(GENERATOR_NAMES, hol.generators, rp.generators):
            d = after.proj_distance(before)
            deviations[name] = d
            if d > tol:
                violations.append({"kind": "holonomy-changed", "generator": name, "deviation": d})
        report = {
            "checks": [{"name": "two-pi-invariance", "passed": not violations,
                        "details": {"tolerance": tol}}],
            "violations": violations,
            "values": {"deviations": deviations,
                       "relation_residual": rp.relation_residual()},
        }
        return _report_exit(report, path)

    if which == "goldman":
        if not config.multicurve_words:
            raise ConfigError("goldman check needs a multicurve")
        gs = config.structure()
        tol = config.tol("goldman")
        violations = []
        recovered = {}
        for word, wt in zip(config.multicurve_words, config.weights):
            r = recover_weight_from_grafted(gs, word)
            recovered[str(word)] = r
            if abs(r - wt.value) > tol:
                violations.append({"kind": "weight-mismatch", "word": str(word),
                                   "configured": wt.value, "recovered": r})
            k = r / (2.0 * math.pi)
            if abs(k - round(k)) * 2.0 * math.pi > tol:
                violations.append({"kind": "not-two-pi-multiple", "word": str(word),
                                   "recovered": r})
        report = {
            "checks": [{"name": "goldman-weight-recovery", "passed": not violations,
                        "details": {"tolerance": tol}}],
            "violations": violations,
            "values": {"recovered": recovered},
        }
        return _report_exit(report, path)

    if which == "stratification":
        if len(config.domain_points) < 3:
            raise ConfigError("stratification needs a domain with >= 3 points")
        dom = DiskComplementDomain.from_ideal_points(config.domain_points)
        rng = np.random.default_rng(config.seed)
        samples = []
        while len(samples) < config.samples:
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if dom.contains(cp1(z), margin=1e-3):
                samples.append(z)
        report = stratification_check(dom, samples)
        return _report_exit(report, path)

    if which == "dome-measure":
        if len(config.domain_points) < 3:
            raise ConfigError("dome-measure needs a domain with >= 3 points")
        report = dome_measure_report(config.domain_points, tol=config.tol("measure"))
        return _report_exit(report, path)

    if which == "covering":
        if not config.multicurve_words:
            raise ConfigError("covering check needs a multicurve")
        if not all(w.is_two_pi_multiple for w in config.weights):
            raise ConfigError("covering check requires weights in 2 pi Z")
        gs = config.structure()
        rng = np.random.default_rng(config.seed)
        limit = DiskComplementDomain(limit_set_sample(gs.hol, config.limit_depth))
        loops = []
        attempts = 0
        while len(loops) < config.loops:
            attempts += 1
            if attempts > 200 * config.loops:
                raise ConfigError("could not place loops outside the limit-set margin")
            c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.5, 2.5))
            if abs(c.imag) < 0.3:
                continue
            r = 0.08 + 0.1 * rng.random()
            loop = [c + r * np.exp(2j * math.pi * k / 24) for k in range(25)]
            if limit.distances(loop).min() > config.margin * 1.5:
                loops.append(loop)
        report = verify_covering(gs, loops, margin=config.margin, limit=limit)
        return _report_exit(report, path)

    raise ConfigError(f"unknown verify target {which!r}")


# Rows of holonomy.csv converted to Python floats, formatted and written
# at once.
EXPORT_BLOCK = 4096


def _holonomy_rows(rep, length: int):
    """The rows of holonomy.csv for the words of length <= ``length``, as
    text chunks of EXPORT_BLOCK rows, each formatted as it is written.

    Each word length is one stack: a word's matrix is its parent's times
    its last letter, normalized as MoebiusMap normalizes each product of
    ``rep.rho``, in ``enumerate_words`` order."""
    gens = {l: rep.generator(l).matrix for l in LETTER_ORDER}
    words = iter(enumerate_words(length))
    level, last = np.eye(2, dtype=complex)[None], np.array([0])
    for _ in range(length):
        parents, last = word_children(last)
        level, faults = moebius_rows(word_products(level, parents, last, gens))
        if faults:
            raise DegenerateInputError(next(iter(faults.values())))
        m = level.reshape(-1, 4)
        # Per word: the parts of a, b, c, d and the trace, in CSV order,
        # read as Python floats a block at a time.
        parts = np.column_stack([m, m[:, 0] + m[:, 3]]).view(float)
        for start in range(0, len(parts), EXPORT_BLOCK):
            yield "".join(f"{next(words)}," + ",".join(f"{v:.17g}" for v in values) + "\n"
                          for values in parts[start : start + EXPORT_BLOCK].tolist())


def cmd_export(config: RunConfig, target: str, out_dir: str) -> int:
    if target == "dome":
        if len(config.domain_points) < 3:
            raise ConfigError("dome export needs a domain with >= 3 points")
        mesh = dome(config.domain_points)
        atomic_write(os.path.join(out_dir, "dome.json"), dumps(dome_mesh_json(mesh)) + "\n")
        obj = _obj("dome mesh, Poincare ball coordinates",
                   [p.sphere_coords() for p in mesh.vertices],
                   [f.vertex_ids for f in mesh.faces])
        atomic_write(os.path.join(out_dir, "dome.obj"), obj)
        return EXIT_OK

    if target == "limitset":
        hol = fuchsian_from_fn(config.fn)
        zs, at_inf = affine_rows(limit_set_sample(hol, config.limit_depth))
        zs[at_inf] = complex(math.inf, 0.0)
        rows = ["re,im"] + [f"{z.real:.17g},{z.imag:.17g}" for z in zs.tolist()]
        atomic_write(os.path.join(out_dir, "limitset.csv"), "\n".join(rows) + "\n")
        return EXIT_OK

    if target == "holonomy":
        if config.multicurve_words:
            rep = config.structure().rho_prime
        else:
            rep = fuchsian_from_fn(config.fn)
        header = "word,a_re,a_im,b_re,b_im,c_re,c_im,d_re,d_im,tr_re,tr_im\n"
        atomic_write(os.path.join(out_dir, "holonomy.csv"), header,
                     _holonomy_rows(rep, config.export_word_length))
        return EXIT_OK

    if target == "pleat":
        if not config.multicurve_words:
            raise ConfigError("pleat export needs a multicurve")
        gs = config.structure()
        mesh = pleated_surface(
            gs.hol, gs.multicurve, depth=gs.depth,
            truncation_radius=config.truncation_radius, structure=gs,
        )
        points, faces = _pleat_polygons(mesh)
        doc = dumps(pleat_mesh_json(mesh, points, faces)) + "\n"
        atomic_write(os.path.join(out_dir, "pleat.json"), doc)
        obj = _obj("pleated surface mesh, Poincare ball coordinates",
                   [halfspace_to_ball(p) for p in points], faces)
        atomic_write(os.path.join(out_dir, "pleat.obj"), obj)
        return EXIT_OK

    raise ConfigError(f"unknown export target {target!r}")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cp1graft",
        description="Grafting and Thurston coordinates for CP^1-structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--depth", type=int, default=None, help="lift depth override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--tol-override", action="append", default=[], metavar="KEY=VALUE",
            help="tolerance override (repeatable)",
        )

    common(sub.add_parser("graft", help="compute a grafted structure"))
    v = sub.add_parser("verify", help="run a verification check")
    v.add_argument(
        "check",
        choices=["two-pi", "goldman", "stratification", "covering", "dome-measure"],
    )
    common(v)
    e = sub.add_parser("export", help="export meshes and tables")
    e.add_argument("target", choices=["pleat", "dome", "limitset", "holonomy"])
    common(e)
    return parser


def _load_config(args) -> RunConfig:
    overrides = {}
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = RunConfig.load(args.config, overrides)
    for item in args.tol_override:
        if "=" not in item:
            raise ConfigError(f"bad --tol-override {item!r}; want KEY=VALUE")
        key, value = item.split("=", 1)
        config.tolerances[key] = _tolerance(key, value)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "graft":
            return cmd_graft(config, args.out)
        if args.command == "verify":
            return cmd_verify(config, args.check, args.out)
        if args.command == "export":
            return cmd_export(config, args.target, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, PreconditionError, InvalidMulticurveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        ConstructionError,
        DegenerateInputError,
        TransversalityError,
        RuntimeError,
        ArithmeticError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
