"""Golden CLI corpus: fixed invocations whose stdout and exit code must not
change byte for byte.

Each case runs once with ``--format table`` and once with ``--format json``.
Input files live in ``tests/data/cli_golden/``; ``{data}`` in an argument
stands for that directory.  The expected outputs are in
``tests/data/cli_golden.json``; ``python tests/test_cli_golden.py`` rewrites
that file from the current code.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from hookcells.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

CASES = (
    ("code", "--partition", "5,2,1,1"),
    ("code", "--partition", "4,4,2,1"),
    ("code", "--partition", "3,3,2"),
    ("decode", "--T", "1,2,3,2,1", "--code", "[[0],[2]]"),
    ("decode", "--T", "1,2,3,2,1", "--code", "[[],[2]]"),
    ("betti", "--T", "1,2,3,2,1"),
    ("betti", "--T", "1,2,3,3,2,1"),
    ("cells", "enum", "--T", "1,2,1"),
    ("cells", "enum", "--T", "1,2,3,3,2,1"),
    ("grass", "degree", "--d", "2", "--n", "6"),
    ("grass", "degree", "--d", "3", "--n", "7"),
    ("ring", "mul", "--mu", "3", "--j", "6", "--x", "1,1", "--y", "0,2"),
    ("ring", "mul", "--mu", "4", "--j", "9", "--x", "1,2", "--y", "2,1"),
    ("secant", "pullback", "--mu", "3", "--j", "6", "--i", "2"),
    ("secant", "pullback", "--mu", "4", "--j", "10", "--i", "2"),
    ("intersect", "--d", "2", "--j", "4", "--conditions", "{data}/conds_2_4.json"),
    ("intersect", "--d", "3", "--j", "6", "--conditions", "{data}/conds_3_6.json"),
    ("intersect", "--d", "2", "--j", "3", "--conditions", "{data}/conds_empty.json"),
    ("hankel", "rank", "--mu", "3", "--coeffs", "{data}/coeffs_rank2.json"),
    ("hankel", "rank", "--mu", "2", "--coeffs", "{data}/coeffs_unscaled.json"),
    ("wronskian", "--space", "{data}/space_d2j3.json"),
    ("wronskian", "--space", "{data}/space_d3j5.json"),
    ("qram", "--space", "{data}/space_d2j3.json", "--point", "1,0"),
    ("qram", "--space", "{data}/space_d2j3.json", "--point", "0,1"),
    ("qram", "--space", "{data}/space_d2j3.json", "--point", "2,1"),
    ("qram", "--space", "{data}/space_d3j5.json", "--point", "1,-2"),
    ("build-ideal", "--params", "{data}/params_22.json"),
    ("build-ideal", "--params", "{data}/params_5211.json"),
    ("example-7-4",),
    # domain errors: exit 1, nothing on stdout
    ("betti", "--T", "1,3,1"),
    ("qram", "--space", "{data}/space_dependent.json", "--point", "1,2"),
    ("secant", "pullback", "--mu", "3", "--j", "5", "--i", "2"),
)
FORMATS = ("table", "json")


def capture(case, fmt):
    """Run one invocation in-process: (exit code, stdout, error class name)."""
    argv = [a.replace("{data}", str(DATA / "cli_golden")) for a in case]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    error = err.getvalue().split(":", 1)[0] if code else None
    return {"argv": list(case), "format": fmt, "exit": code, "stdout": out.getvalue(), "error": error}


def _golden():
    return {(tuple(g["argv"]), g["format"]): g for g in json.loads(GOLDEN.read_text())}


def test_golden_covers_every_case():
    assert set(_golden()) == {(case, fmt) for case in CASES for fmt in FORMATS}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES, ids=" ".join)
def test_cli_output_is_unchanged(case, fmt):
    assert capture(case, fmt) == _golden()[(case, fmt)]


if __name__ == "__main__":
    records = [capture(case, fmt) for case in CASES for fmt in FORMATS]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    sys.exit(0)
