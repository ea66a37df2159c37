"""Benchmark for cp1graft: four workloads timed end to end, and a traced
mode that reports per-layer work.

    python3 bench/run.py --workload holonomy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all                 # every workload, in turn
    python3 bench/run.py --workload domain --repeat 10  # steadiness: quartiles

One run is one fresh, single-threaded process.  It sets up (imports
cp1graft and builds the round of operations made from the seed), runs the
first operation of each kind untimed as a warm-up (every CLI command is its
own kind, and its warm-up outputs are the reference that later runs must
reproduce byte for byte), then runs a fixed number of whole rounds,
``--seconds`` divided by the workload's nominal round time at the commit
that defined the benchmark.  The work per run is therefore fixed: a faster
program finishes sooner rather than doing more.  Times are scaled to a
reference host speed (see ``Runner``).  Every operation's output is
checked outside the timing; an operation fails if it raises or its check
fails.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# Single-threaded numerics, for this process and every one it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOAD_NAMES = ("holonomy", "develop", "domain", "cli")
# Seconds one round took at the commit that defined the benchmark; fixes
# how many rounds a run of a given length does (3, 5, 4 and 6 at 25 s).
NOMINAL_ROUND_S = {"holonomy": 8.0, "develop": 5.0, "domain": 6.0, "cli": 4.0}
SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# The reference loop's time at the usual speed of the host that defined the
# benchmark; a round whose reference loops took longer ran on a slower host.
REFERENCE_NOMINAL_S = 0.013

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cp1graft; print(time.perf_counter() - t)"
)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def fresh_import_s() -> float:
    """Import time of cp1graft in a new interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip())


@dataclass(frozen=True)
class _RefPoint:
    a: complex
    b: complex


_REF_STEP = np.array([[1.0, 0.1j], [0.1j, 1.0]], dtype=complex) / np.sqrt(1.01)


def reference_s() -> float:
    """Time of a fixed loop that does not touch cp1graft: 2x2 complex
    products and small frozen dataclasses, the library's own mix of work.
    The garbage collector is off, so the library's live objects do not
    change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        m = np.eye(2, dtype=complex)
        acc = 0.0
        for _ in range(3000):
            m = _REF_STEP @ m
            p = _RefPoint(complex(m[0, 0]), complex(m[1, 0]))
            acc += abs(p.a) + abs(p.b)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Runner:
    """Runs operations and keeps the latencies and failures.

    The host's speed drifts by 10-30 % over seconds to minutes, and a run
    lasts about 25 s.  So after every timed operation the runner times the
    reference loop, and divides each round's latencies by that round's
    median reference time over ``REFERENCE_NOMINAL_S``: times are reported
    at the reference host speed."""

    def __init__(self):
        self.latencies: dict[int, list[float]] = {}  # by position in the round
        self.speed_factors: list[float] = []  # per timed round
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tally: dict[str, int] = {}  # counts an observation reports, summed

    def run(self, op) -> float | None:
        """The operation's latency, or None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception:  # a raising operation is a failed operation
            self.failed += 1
            print(f"operation {op.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        try:
            out = op.observe(result)
            for key, n in out.get("tally", {}).items() if isinstance(out, dict) else ():
                self.tally[key] = self.tally.get(key, 0) + n
            fails = op.check(out)
        except Exception:
            fails = [f"output check raised:\n{traceback.format_exc()}"]
        if fails:
            self.failed += 1
            self.wrong += 1
            print(f"operation {op.kind} failed its check: {fails}", file=sys.stderr)
        return elapsed

    def warm_up(self, ops):
        """Untimed: the first operation of each kind."""
        seen = set()
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                self.run(op)

    def run_round(self, ops) -> float:
        """One timed round; returns the operations' total raw time."""
        times, refs = {}, []
        for slot, op in enumerate(ops):
            elapsed = self.run(op)
            if elapsed is not None:
                times[slot] = elapsed
            refs.append(reference_s())
        factor = statistics.median(refs) / REFERENCE_NOMINAL_S
        self.speed_factors.append(factor)
        for slot, elapsed in times.items():
            self.latencies.setdefault(slot, []).append(elapsed / factor)
        return sum(times.values())


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import cp1graft

    if Path(cp1graft.__file__).resolve().parent != SRC / "cp1graft":
        raise SystemExit(f"cp1graft imported from {cp1graft.__file__}, not from {SRC}")
    import workloads

    build = workloads.WORKLOADS[args.workload]
    scratch = BENCH_DIR / ".scratch"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:

        setups = []

        def setup():
            """Import time in a fresh interpreter plus building the round."""
            directory = os.path.join(workdir, f"setup{len(setups)}")
            os.makedirs(directory)
            import_s = fresh_import_s()
            t = time.perf_counter()
            ops = build(args.seed, directory)
            setups.append(import_s + time.perf_counter() - t)
            return ops

        ops = setup()
        runner = Runner()
        runner.warm_up(ops)
        if args.trace:
            return traced(args, ops, runner)
        rounds = rounds_for(args.workload, args.seconds)
        for r in range(rounds):
            runner.run_round(ops)
            # Spread the remaining set-ups evenly over the rounds.
            while len(setups) < 1 + round((r + 1) * (SETUPS - 1) / rounds):
                setup()

    for key, n in sorted(runner.tally.items()):
        print(f"{args.workload}/{key} {n} (warm-up included)")
    speed = statistics.median(runner.speed_factors)
    print(f"{args.workload}/host_slowness {speed:.4f} (reference loop time / nominal)")
    # Each operation's latency is its median over the rounds, which keeps a
    # minority of slow or fast rounds from moving it; throughput is that of
    # one round at those latencies.
    lat = [statistics.median(times) for times in runner.latencies.values()]
    metrics = {
        "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
        "latency_p50_ms": 1e3 * percentile(lat, 0.5) if lat else 0.0,
        "latency_p90_ms": 1e3 * percentile(lat, 0.9) if lat else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setups) / speed,
    }
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }


def traced(args, ops, runner) -> dict:
    """One untraced round, then the same round traced; the overhead ratio
    compares their times at the reference host speed."""
    from layertrace import Tracer

    untraced_s = runner.run_round(ops)
    tracer = Tracer().install()
    try:
        traced_s = runner.run_round(ops)
    finally:
        tracer.uninstall()
    RESULTS.mkdir(exist_ok=True)
    tracer.write_spans(str(RESULTS / f"spans-{args.workload}-seed{args.seed}.csv"))
    return {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": tracer.layer_metrics(
            (traced_s / runner.speed_factors[1]) / (untraced_s / runner.speed_factors[0])),
    }


def print_result(workload: str, result: dict):
    for name, m in result["metrics"].items():
        print(f"{workload}/{name} {m['value']:.6g} {m['unit']}")
    print(f"{workload}/attempted {result['attempted']} ops, failed {result['failed']}")


def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh process; returns its JSON result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        result = child(workload, args.seed, args.seconds, args.trace)
        print_result(workload, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    return combined


def steadiness(args) -> dict:
    """Repeat a workload over seeds seed .. seed+repeat-1 and summarise each
    end-to-end metric by its median and quartiles."""
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        runs = [child(workload, args.seed + k, args.seconds, 0) for k in range(args.repeat)]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {args.repeat} runs, failed shares {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        rows = {}
        for name, unit in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": values}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"  {workload}/{name}: median {med:.6g} {unit}, q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"spread {spread:.3f} (bound {bounds[name]}) {flag}")
        summary[workload] = {"failed_shares": shares, "metrics": rows}
    RESULTS.mkdir(exist_ok=True)
    name = f"steady-{args.workload}-seed{args.seed}x{args.repeat}.json"
    (RESULTS / name).write_text(json.dumps(summary, indent=1) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25,
                        help="nominal run length; sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many runs over consecutive seeds")
    args = parser.parse_args(argv)
    if not (SRC / "cp1graft" / "__init__.py").is_file():
        print(f"error: no cp1graft sources under {SRC}", file=sys.stderr)
        return 2
    if args.repeat:
        steadiness(args)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
