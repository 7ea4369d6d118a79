"""Benchmark of the hookcells library: one workload, one caller, closed loop.

    python3 bench/run.py --workload cell-roundtrip --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
``src/`` directory; it refuses to run without one. One process runs one
workload with a single caller in a closed loop (no threads, no pool): the
next item starts when the previous one has been checked.

Set-up (importing ``hookcells``, generating the inputs from ``--seed`` and
warming up, which fills the library's lazy tables) is repeated
``SETUP_ROUNDS`` times on fresh imports and reported as the median.

Every end-to-end time is scaled to the reference speed of the host, which a
fixed reference task measures between items and around each set-up (see
``calibrate.py``); the report prints the unscaled figures next to them.

``--trace 0`` processes whole input blocks until ``--seconds`` of wall time
have passed and at least ``MIN_ITEMS`` items were attempted, and reports the
end-to-end metrics named in ``BENCHMARK.json``. ``--trace 1`` runs the
workload's fixed trace items (its first ``trace_blocks`` blocks) once to warm
up, then each item once untraced and once traced, reports the per-layer
metrics and writes the raw spans to ``bench/out/``; its counts depend only on
the seed. It exits with an error, before any item runs, if a traced function
is no longer found in the library.

Every item's output is checked; a failed check or an exception is counted
and the run goes on. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))

from calibrate import WINDOW, Calibration  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 9
SETUP_SAMPLES = 25  # reference-task samples before and after each set-up
MIN_ITEMS = 100
HARD_LIMIT_S = 120.0  # stop mid-block rather than overrun the 180 s budget
MAX_REPORTED_FAILURES = 5


class Tally:
    """Latencies and check outcomes of the items of one pass.

    ``spans`` hold each item's time with its check, ``calibrated_by`` the
    index of the reference-task sample taken before it.
    """

    def __init__(self):
        self.latencies = []
        self.spans = []
        self.calibrated_by = []
        self.failed = 0
        self.problems = []

    @property
    def attempted(self):
        return len(self.latencies)

    def run_item(self, wl, item, sample=0):
        start = perf_counter()
        try:
            result = wl.run(item)
            problem = None
        except Exception as exc:  # a failing item is counted, not fatal
            problem = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if problem is None:
            try:
                problem = wl.check(item, result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        self.latencies.append(elapsed)
        self.spans.append(perf_counter() - start)
        self.calibrated_by.append(sample)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_REPORTED_FAILURES:
                self.problems.append(f"{item.kind} {self.attempted - 1}: {problem}")


def import_fresh():
    """Import ``hookcells`` from ``src/`` as if for the first time."""
    for name in [n for n in sys.modules if n == "hookcells" or n.startswith("hookcells.")]:
        del sys.modules[name]
    gc.collect()
    hc = importlib.import_module("hookcells")
    importlib.import_module("hookcells.cli")
    if Path(hc.__file__).resolve().parent != SRC / "hookcells":
        raise SystemExit(f"imported hookcells from {hc.__file__}, not from {SRC}")
    return hc


def set_up(cls, seed):
    """Import, generate the trace blocks and warm up; returns the state."""
    hc = import_fresh()
    wl = cls(hc, seed)
    blocks = [wl.block(k) for k in range(wl.trace_blocks)]
    wl.warm_up(blocks[0])
    return hc, wl, blocks


def timed_set_up(cls, seed):
    """One set-up, its unscaled seconds and its seconds at reference speed."""
    cal = Calibration()
    for _ in range(SETUP_SAMPLES):
        cal.sample()
    t0 = perf_counter()
    state = set_up(cls, seed)
    raw = perf_counter() - t0
    for _ in range(SETUP_SAMPLES):
        cal.sample()
    return state, raw, raw * cal.factor()


def digest(blocks):
    h = hashlib.sha256()
    for block in blocks:
        for item in block:
            h.update(repr((item.kind, item.args, sorted(item.expect.items()))).encode())
    return h.hexdigest()[:16]


def timed_run(wl, blocks, seconds, max_items=None):
    """Whole blocks until ``seconds`` of wall time and ``MIN_ITEMS`` items,
    sampling the reference task between items.

    The wall time leaves out the generation of blocks beyond the
    pre-generated ones. Returns the tally and the calibration.
    """
    tally = Tally()
    cal = Calibration(wl.sample_every)
    generating = 0.0
    start = perf_counter()
    k = 0
    while True:
        if k < len(blocks):
            block = blocks[k]
        else:
            g0 = perf_counter()
            block = wl.block(k)
            generating += perf_counter() - g0
        for item in block:
            tally.run_item(wl, item, cal.tick())
            if tally.attempted == max_items or perf_counter() - start > HARD_LIMIT_S:
                return tally, cal
        k += 1
        if perf_counter() - start - generating >= seconds and tally.attempted >= MIN_ITEMS:
            return tally, cal


def traced_pass(wl, items, tracer):
    """Warm up on every item, then run each item untraced and traced.

    The order of the two runs alternates from item to item, so that drift
    and cache state fall on both sides alike. Returns the tally and the
    summed untraced and traced item wall times.
    """
    tally = Tally()
    for item in items:
        tally.run_item(wl, item)
    walls = [0.0, 0.0]  # untraced, traced
    for item_id, item in enumerate(items):
        tracer.item = item_id
        for traced in (False, True) if item_id % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            t0 = perf_counter()
            tally.run_item(wl, item)
            walls[traced] += perf_counter() - t0
            if traced:
                tracer.remove()
    return tally, walls[0], walls[1]


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(specs, values, attempted, failed):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    })


def measure(workload, seed, seconds, trace, max_items=None):
    """Run one workload and print its report, ending with the result line."""
    spec = load_spec()
    cls = WORKLOADS[workload]
    setup_raw, setup_ref = [], []
    for _ in range(SETUP_ROUNDS):
        (hc, wl, blocks), raw, ref = timed_set_up(cls, seed)
        setup_raw.append(raw)
        setup_ref.append(ref)
    setup_s = statistics.median(setup_ref)
    trace_items = [item for block in blocks for item in block]

    if trace:
        tracer = Tracer(hc)
        if tracer.missing:
            raise SystemExit(f"traced functions not found in hookcells: {', '.join(tracer.missing)}"
                             " (update spans.TARGETS)")
        trace_items = trace_items[:max_items]
        tally, wall_untraced, wall = traced_pass(wl, trace_items, tracer)
    else:
        tally, cal = timed_run(wl, blocks, seconds, max_items)
    attempted, failed, problems = tally.attempted, tally.failed, tally.problems

    meta = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "inputs_digest": digest(blocks),
        "items_attempted": attempted,
        "setup_rounds": SETUP_ROUNDS,
        "loop": "closed, 1 caller",
    }
    print(f"workload {workload}  seed {seed}  trace {trace}  inputs {meta['inputs_digest']}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"failed_ratio   {failed / attempted:.6g} ratio  ({failed} failed of {attempted} items attempted)")
    print(f"setup_s        {setup_s:.6g} s  (median of {SETUP_ROUNDS} set-ups: import, inputs, warm-up;"
          f" unscaled {statistics.median(setup_raw):.6g} s)")

    if trace:
        values = tracer.layer_metrics()
        values["trace.overhead_ratio"] = wall / wall_untraced
        path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(path)
        print(f"traced {len(trace_items)} items: {wall:.3f} s traced, {wall_untraced:.3f} s untraced,"
              f" {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        if wall < wall_untraced:
            print("trace.overhead_ratio is below 1: the cost of tracing is unresolved, below this run's noise")
        total, children = tracer.inclusive()
        width = max(len(n) for n in tracer.names)
        print(f"  {'layer':<{width}}  {'calls':>9}  {'self_s':>9}  {'total_s':>9}  largest child (its total_s)")
        for name in sorted(tracer.names, key=lambda n: -total[n]):
            kids = children[name]
            top = max(kids, key=kids.get) if kids else ""
            print(f"  {name:<{width}}  {values[name + '.calls']:>9}  {values[name + '.self_s']:>9.4f}"
                  f"  {total[name]:>9.4f}  {top}{f' ({kids[top]:.4f})' if top else ''}")
        for name in ("linalg.rref.entries", "linalg.rref.kept_ratio", "binforms.change_basis.identity_ratio",
                     "unipoly.factorize.bits", "trace.overhead_ratio"):
            print(f"  {name:<{width}}  {values[name]:.6g}")
        specs = spec["per_layer"]
    else:
        factors = cal.factors()
        scale = [factors[k] for k in tally.calibrated_by]
        lat = sorted(t * f for t, f in zip(tally.latencies, scale))
        raw_lat = sorted(tally.latencies)
        wall = sum(t * f for t, f in zip(tally.spans, scale))
        raw_wall = sum(tally.spans)
        n = len(lat)
        verified = n - tally.failed
        values = {
            "items_per_s": verified / wall,
            "item_ms_p50": statistics.median(lat) * 1000.0,
            "item_ms_p90": percentile(lat, 0.90) * 1000.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        beyond = n - math.ceil(0.9 * n)
        print(f"items_per_s    {values['items_per_s']:.6g} 1/s  ({verified} verified items in {wall:.3f} s;"
              f" unscaled {verified / raw_wall:.6g} 1/s in {raw_wall:.3f} s)")
        print(f"item_ms_p50    {values['item_ms_p50']:.6g} ms  (n={n}; unscaled {statistics.median(raw_lat) * 1e3:.6g} ms)")
        print(f"item_ms_p90    {values['item_ms_p90']:.6g} ms  (n={n}, {beyond} samples beyond;"
              f" unscaled {percentile(raw_lat, 0.90) * 1e3:.6g} ms)")
        print(f"host speed     {min(factors):.4g}..{max(factors):.4g} x reference  ({len(cal.samples)} reference"
              f" samples, windows of {2 * WINDOW + 1})")
        print(f"peak_rss_mb    {values['peak_rss_mb']:.6g} MB  (ru_maxrss of this process)")
        specs = spec["end_to_end"]
    print("meta " + json.dumps(meta))
    print(result_line(specs, values, attempted, failed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hookcells" / "__init__.py").is_file():
        print(f"no hookcells sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    measure(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
