"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload on a few items, untraced and traced, and checks that
every metric named in ``BENCHMARK.json`` and every end-to-end figure of the
report (with ``failed_ratio``) is printed with a unit, and that every traced
function is found in the library. It then plants a
wrong expected value in the first generated item, on the checker's side,
and checks that the run counts exactly that item as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ITEMS = 3
REPORTED = ("items_per_s", "item_ms_p50", "item_ms_p90", "setup_s", "peak_rss_mb", "failed_ratio")


def fail(message):
    raise SystemExit(f"smoke FAILED: {message}")


def measure(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.measure(workload, seed=1, seconds=0, trace=trace, max_items=ITEMS)
    lines = buf.getvalue().strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, result, specs):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    for s in specs:
        got = result["metrics"].get(s["name"])
        if got is None or got.get("unit") != s["unit"] or not isinstance(got.get("value"), (int, float)):
            fail(f"{workload}: metric {s['name']} printed as {got}")


def wrong_expectation(item):
    """Corrupt the first expected value of an item, in place."""
    key = next(iter(item.expect))
    value = item.expect[key]
    item.expect[key] = value + (1,) if isinstance(value, tuple) else value + 1


def main():
    spec = run.load_spec()
    missing = Tracer(run.import_fresh()).missing
    if missing:
        fail(f"traced functions not found: {missing}")
    for name, cls in WORKLOADS.items():
        report, result = measure(name, trace=0)
        check_metrics(name, result, spec["end_to_end"])
        units = {line.split()[0]: line.split()[2] for line in report if len(line.split()) > 2}
        for metric in REPORTED:
            if not units.get(metric):
                fail(f"{name}: {metric} not printed with a unit")
        if result["attempted"] != ITEMS or result["failed"] or not result["correct"]:
            fail(f"{name}: clean run gave {result}")

        _, traced = measure(name, trace=1)
        check_metrics(name, traced, spec["per_layer"])

        original = cls.block

        def planted(self, k, original=original):
            items = original(self, k)
            if k == 0:
                wrong_expectation(next(it for it in items[:ITEMS] if it.expect))
            return items

        cls.block = planted
        try:
            report, result = measure(name, trace=0)
        finally:
            cls.block = original
        if result["failed"] != 1 or result["correct"]:
            fail(f"{name}: planted wrong value gave {result}")
        if not any(line.startswith(f"failed_ratio   {1 / ITEMS:.6g}") for line in report):
            fail(f"{name}: failed_ratio line does not show 1 of {ITEMS}")
        print(f"smoke {name}: ok")
    print("smoke: ok")


if __name__ == "__main__":
    main()
