"""The library's checks must still run under ``python -O``, which strips
``assert`` statements, so no library module may use one."""

import ast
from pathlib import Path

import hookcells

SOURCES = sorted(Path(hookcells.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and not found, found
