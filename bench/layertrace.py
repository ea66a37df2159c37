"""Per-layer tracing from outside the library.

The tracer patches wrappers around chosen public functions and methods of
each cp1graft module (the modules are the layers), records one span per
call (name, start, end, parent) in memory, and counts work at the same
boundaries.  A name bound by ``from .x import f`` is a copy, so every
module namespace that holds the original gets the wrapper.  The PSL(2,C)
kernel is counted but not timed: wrapping millions of 2x2 calls would
swamp the trace, so only ``PointCP1`` / ``MoebiusMap`` constructions are
counted there, and ``minimal_enclosing_disk`` is the one timed kernel call.

Self time of a layer is the time of its spans minus the time of their
direct child spans, so it includes the untimed kernel work the layer does.
"""

from __future__ import annotations

import importlib
import time

LAYERS = ("moebius", "hyperbolic", "surface", "grafting", "thurston", "cli")

# Functions given a span, per layer.  Per-point helpers such as
# ``distance_to_leaf`` or ``embed_cp1`` are left unwrapped: they run
# hundreds of thousands of times per build, and their time belongs to the
# caller's self time like the kernel's.
SPANNED = {
    "moebius": ("minimal_enclosing_disk",),
    "hyperbolic": (
        "dome", "rotation_about_geodesic", "translation_along_geodesic",
        "nearest_point_projection", "apply_isometry",
    ),
    "surface": (
        "fuchsian_from_fn", "limit_set_sample", "enumerate_words", "axis",
        "Representation.rho", "Representation.relation_residual",
    ),
    "grafting": (
        "enumerate_leaf_lifts", "check_multicurve", "lift_crossings",
        "perturbation_offset", "grafted_holonomy", "pleated_surface",
        "develop_and_lift", "GraftedStructure.crossings_to",
        "GraftedStructure.bending_map", "GraftedStructure.develop",
        "PleatedSurfaceMesh.beta",
    ),
    "thurston": (
        "maximal_disk_at", "stratification_check", "transverse_measure",
        "face_core_point", "dome_measure_report", "projection_psi",
        "recover_weight_from_grafted", "verify_covering",
    ),
    "cli": ("main", "cmd_graft", "cmd_verify", "cmd_export", "atomic_write"),
}

# (metric, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("moebius.points_built", "count", "lower"),
    ("moebius.maps_built", "count", "lower"),
    ("moebius.min_disk_calls", "count", "lower"),
    ("moebius.min_disk_s", "s", "lower"),
    ("hyperbolic.rotation_calls", "count", "lower"),
    ("hyperbolic.dome_calls", "count", "lower"),
    ("hyperbolic.self_s", "s", "lower"),
    ("surface.limit_set_calls", "count", "lower"),
    ("surface.limit_points", "count", "lower"),
    ("surface.rho_calls", "count", "lower"),
    ("surface.self_s", "s", "lower"),
    ("grafting.enumerate_calls", "count", "lower"),
    ("grafting.leaves_kept", "count", "lower"),
    ("grafting.enumerate_s", "s", "lower"),
    ("grafting.check_multicurve_s", "s", "lower"),
    ("grafting.crossing_calls", "count", "lower"),
    ("grafting.leaves_scanned", "count", "lower"),
    ("grafting.crossings_found", "count", "lower"),
    ("grafting.crossing_yield", "ratio", "higher"),
    ("grafting.crossing_s", "s", "lower"),
    ("grafting.self_s", "s", "lower"),
    ("thurston.max_disk_calls", "count", "lower"),
    ("thurston.max_disk_s", "s", "lower"),
    ("thurston.distinct_disks", "count", "lower"),
    ("thurston.stratification_s", "s", "lower"),
    ("thurston.measure_levels", "count", "lower"),
    ("thurston.measure_s", "s", "lower"),
    ("thurston.lifts_tested", "count", "lower"),
    ("thurston.covering_s", "s", "lower"),
    ("thurston.self_s", "s", "lower"),
    ("cli.commands", "count", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _count_results(tracer, name, args, kwargs, result, kept_before):
    """Work counts read from a call's arguments and result."""
    c = tracer.counts
    if name == "grafting.enumerate_leaf_lifts":
        c["grafting.leaves_kept"] += len(result)
    elif name == "grafting.lift_crossings":
        leaves = _arg(args, kwargs, 5, "leaves")
        # Without a leaf list the call enumerates its own, inside this span.
        scanned = (
            len(leaves) if leaves is not None
            else c["grafting.leaves_kept"] - kept_before
        )
        c["grafting.leaves_scanned"] += scanned
        c["grafting.crossings_found"] += len(result)
    elif name == "surface.limit_set_sample":
        c["surface.limit_points"] += len(result)
    elif name == "thurston.stratification_check":
        c["thurston.distinct_disks"] += result["values"]["distinct_disks"]
    elif name == "thurston.transverse_measure":
        c["thurston.measure_levels"] += result.levels
    elif name == "thurston.verify_covering":
        c["thurston.lifts_tested"] += result["values"]["lifts_tested"]
    elif name == "cli.atomic_write":
        c["cli.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


class Tracer:
    """Installs the wrappers; ``spans`` and ``counts`` hold what they saw."""

    def __init__(self):
        self.names: list[str] = []  # span name id -> "layer.function"
        self.spans: list[tuple] = []  # (name id, start, end, parent index)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("cp1graft")
        modules = [importlib.import_module(f"cp1graft.{layer}") for layer in LAYERS]
        namespaces = [pkg] + modules
        self.counts = {m: 0 for m, _, _ in PER_LAYER if not m.endswith("_s")}
        for layer, names in SPANNED.items():
            mod = importlib.import_module(f"cp1graft.{layer}")
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(f"{layer}.{qual}", original))
                else:
                    original = getattr(mod, qual)
                    wrapper = self._wrap(f"{layer}.{qual}", original)
                    for ns in namespaces:
                        if getattr(ns, qual, None) is original:
                            self._patch(ns, qual, wrapper)
        moebius = modules[0]
        for cls, metric in ((moebius.PointCP1, "moebius.points_built"),
                            (moebius.MoebiusMap, "moebius.maps_built")):
            self._patch(cls, "__post_init__", self._counter(metric, cls.__post_init__))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _counter(self, metric, original):
        counts = self.counts

        def post_init(obj):
            counts[metric] += 1
            original(obj)

        return post_init

    def _wrap(self, name, original):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        call_metric = _CALL_METRICS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            kept_before = counts["grafting.leaves_kept"]
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if call_metric:
                counts[call_metric] += 1
            _count_results(self, name, args, kwargs, result, kept_before)
            return result

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric; layers a workload never calls read 0."""
        names = self.names
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        inclusive: dict[str, float] = {}
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = names[name_id]
            self_s[name.split(".")[0]] += (end - start) - child_time[i]
            if not self._inside_same(i, name_id):
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)

        def incl(name):
            return inclusive.get(name, 0.0)

        c = self.counts
        scanned = c["grafting.leaves_scanned"]
        values = dict(c)
        values.update({
            "moebius.min_disk_s": incl("moebius.minimal_enclosing_disk"),
            "hyperbolic.self_s": self_s["hyperbolic"],
            "surface.self_s": self_s["surface"],
            "grafting.enumerate_s": incl("grafting.enumerate_leaf_lifts"),
            "grafting.check_multicurve_s": incl("grafting.check_multicurve"),
            "grafting.crossing_yield": c["grafting.crossings_found"] / scanned if scanned else 0.0,
            "grafting.crossing_s": incl("grafting.lift_crossings"),
            "grafting.self_s": self_s["grafting"],
            "thurston.max_disk_s": incl("thurston.maximal_disk_at"),
            "thurston.stratification_s": incl("thurston.stratification_check"),
            "thurston.measure_s": incl("thurston.transverse_measure"),
            "thurston.covering_s": incl("thurston.verify_covering"),
            "thurston.self_s": self_s["thurston"],
            "cli.write_s": incl("cli.atomic_write"),
            "cli.self_s": self_s["cli"],
            "trace.overhead_ratio": overhead_ratio,
        })
        return {m: {"value": values[m], "unit": u} for m, u, _ in PER_LAYER}

    def _inside_same(self, index: int, name_id: int) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name_id:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: str):
        """One line per span: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[name_id]},{start:.9f},{end:.9f},{parent}\n")


# Call counters keyed by span name.
_CALL_METRICS = {
    "moebius.minimal_enclosing_disk": "moebius.min_disk_calls",
    "hyperbolic.rotation_about_geodesic": "hyperbolic.rotation_calls",
    "hyperbolic.dome": "hyperbolic.dome_calls",
    "surface.limit_set_sample": "surface.limit_set_calls",
    "surface.Representation.rho": "surface.rho_calls",
    "grafting.enumerate_leaf_lifts": "grafting.enumerate_calls",
    "grafting.lift_crossings": "grafting.crossing_calls",
    "thurston.maximal_disk_at": "thurston.max_disk_calls",
    "cli.main": "cli.commands",
}
