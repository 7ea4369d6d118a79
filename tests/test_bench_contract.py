"""The benchmark's tracer finds every function it wraps.

``bench/spans.py`` names its targets as strings and reads ``linalg.rref``
results by shape; a renamed target would otherwise surface only in a traced
benchmark run.  The file is read and executed here, never imported, so the
test writes nothing under ``bench/``.
"""

import types
from pathlib import Path

import hookcells
import hookcells.cli  # noqa: F401  (the benchmark imports it before tracing)
from hookcells import linalg

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    tracer = spans.Tracer(hookcells)
    assert tracer.missing == []
    assert tracer.names == list(spans.TARGETS)


def test_rref_returns_rows_and_pivots_per_kept_row():
    rows = [[1, 2, 3], [2, 4, 6], [0, 0, 0], [0, 1, 1]]
    result = linalg.rref(rows, 3)
    assert isinstance(result, tuple) and len(result) == 2
    red, piv = result
    assert len(red) == len(piv) == 2
    assert all(len(row) == 3 for row in red)
