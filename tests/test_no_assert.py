"""The library's checks must still run under ``python -O``, which strips
``assert`` statements, so no library module may use one; nor may the
reference code in ``tests/oracles.py``, whose checks the tests rely on."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hookcells

SOURCES = [*sorted(Path(hookcells.__file__).parent.glob("*.py")), Path(__file__).with_name("oracles.py")]

# prints the optimization level, then the class of the error each check raises
UNDER_O = """
import sys
from hookcells import CellParams, FormSpace, GradedIdeal, HilbertFunction, MonomialIdeal, Partition
from hookcells import POINT_Y, ram_data, total_ramification_check
from hookcells.errors import HookcellsError


def forged_wronskian():
    # span{x^2, x y} has Wronskian -x^2; a stored x^2 - 1 puts simple zeros
    # at x = 1 and x = -1, where the space has no ramification
    space = FormSpace(2, [[1, 0, 0], [0, 1, 0]])
    object.__setattr__(space, "_wronskian", (2, (-1, 0, 1)))
    return total_ramification_check(space)


def forged_orders():
    # span{x^2, x y} stored, with x^2 twice as its given rows: the orders
    # at y = 0 lose a dimension
    space = FormSpace(2, [[1, 0, 0], [0, 1, 0]])
    object.__setattr__(space, "_given", ((1, 0, 0), (1, 0, 0)))
    return ram_data(space, POINT_Y)


checks = [
    # x * x^2 = x^3 is missing from the degree-3 piece
    lambda: GradedIdeal(HilbertFunction([1, 2, 2, 1]), {
        2: FormSpace(2, [[1, 0, 0]]),
        3: FormSpace(3, [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]),
    }),
    # y * x y = x y^2 is missing, though the stored row x^3 + x y^2 ends where it does
    lambda: GradedIdeal(HilbertFunction([1, 2, 2, 1]), {
        2: FormSpace(2, [[0, 1, 0]]),
        3: FormSpace(3, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 1]]),
    }),
    lambda: CellParams(MonomialIdeal(Partition([2, 2])), {((0, 2), (1, 1)): 0.1}),
    # a degree-2 space where the degree-3 piece belongs
    lambda: GradedIdeal(HilbertFunction([1, 2, 2, 1]), {
        2: FormSpace(2, [[1, 0, 0]]),
        3: FormSpace(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    }),
    lambda: FormSpace._of_triangular_rows(2, [[1, 2, 0], [3, 1, 0]]),
    lambda: CellParams.from_json({"partition": [100], "params": []}),
    forged_wronskian,
    forged_orders,
]
print(sys.flags.optimize)
for check in checks:
    try:
        check()
    except HookcellsError as exc:
        print(type(exc).__name__)
"""


def test_library_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found


def test_checks_run_under_python_O():
    env = {**os.environ, "PYTHONPATH": str(Path(hookcells.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", UNDER_O], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "1", "NotAnIdeal", "NotAnIdeal", "InconsistentParams", "NotAnIdeal", "DegenerateBasis", "OutOfRange",
        "InternalError", "InternalError",
    ]
