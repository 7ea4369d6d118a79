"""One implementation per concept: box partitions, box complements, the
q-binomial recurrence, the hook-code invariant checks, the integer check
of the JSON readers and the exact-rational check of every rational input."""

import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import hookcells
from hookcells import (
    BinaryForm,
    BundleClass,
    CellParams,
    FormSpace,
    HilbertFunction,
    HookCode,
    MonomialIdeal,
    Partition,
    PointP1,
    SchubertClass,
    all_codes,
    complement,
    hankel_rank,
    hookcode,
)
from hookcells.errors import InconsistentParams, InternalError
from hookcells.partitions import box_complement, box_partitions


def old_box_partitions(rows, cols):
    """The recursive generator this package used before: every zero-padded
    weakly decreasing sequence, largest first, then trailing zeros dropped."""
    out = []

    def rec(pref, mx):
        if len(pref) == rows:
            parts = tuple(pref)
            while parts and parts[-1] == 0:
                parts = parts[:-1]
            out.append(parts)
            return
        for v in range(mx, -1, -1):
            rec(pref + [v], v)

    rec([], cols)
    return tuple(out)


@pytest.mark.parametrize("rows", range(6))
def test_box_partitions_match_the_old_generator(rows):
    for cols in range(7):
        assert box_partitions(rows, cols) == old_box_partitions(rows, cols)


def test_all_codes_pads_every_component_to_its_box():
    T = HilbertFunction([1, 2, 3, 3, 2, 1])
    boxes = T.boxes
    codes = all_codes(T)
    assert len(codes) == len(set(codes))
    for d in codes:
        assert [len(q) for q in d.qs] == [rows for rows, _ in boxes]
    # components vary like nested loops, the last one fastest
    rows, cols = boxes[0]
    first = [q + (0,) * (rows - len(q)) for q in box_partitions(rows, cols)]
    assert [d.qs[0] for d in codes[:: len(codes) // len(first)]] == first


def test_complement_is_the_box_complement_of_each_component():
    T = HilbertFunction([1, 2, 3, 3, 2, 1])
    for d in all_codes(T):
        c = complement(T, d)
        assert c.qs == tuple(
            box_complement(q, rows, cols) for q, (rows, cols) in zip(d.qs, T.boxes)
        )
        assert complement(T, c) == d


def test_gaussian_binomial_reuses_its_cache():
    first = hookcode.gaussian_binomial(9, 8)
    before = hookcode._gaussian.cache_info()
    assert hookcode.gaussian_binomial(9, 8) == first
    after = hookcode._gaussian.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_code_checks_hand_counts_with_an_internal_error(monkeypatch):
    # the boxes of a different shape contradict the hands of the real one
    T = Partition([5, 2, 1, 1]).diagonal_lengths()
    other = SimpleNamespace(mu=T.mu, j=T.j, boxes=Partition([6, 1]).diagonal_lengths().boxes[:2])
    monkeypatch.setattr(Partition, "diagonal_lengths", lambda self: other)
    with pytest.raises(InternalError):
        hookcode.code(Partition([5, 2, 1, 1]))


def test_decode_checks_the_diagonal_lengths_with_an_internal_error(monkeypatch):
    # a walk read back as another shape contradicts T
    monkeypatch.setattr(hookcode, "Partition", lambda parts: Partition([6, 1]))
    with pytest.raises(InternalError, match="decoded to"):
        hookcode.decode([1, 2, 3, 2, 1], HookCode(3, 4, ((0,), (2,))))


def test_code_check_runs_under_python_O():
    """The hook-code invariant is no ``assert``: it still raises under ``-O``."""
    script = (
        "from types import SimpleNamespace\n"
        "from hookcells import Partition, hookcode\n"
        "from hookcells.errors import InternalError\n"
        "T = Partition([5, 2, 1, 1]).diagonal_lengths()\n"
        "boxes = Partition([6, 1]).diagonal_lengths().boxes[:2]\n"
        "other = SimpleNamespace(mu=T.mu, j=T.j, boxes=boxes)\n"
        "Partition.diagonal_lengths = lambda self: other\n"
        "try:\n"
        "    hookcode.code(Partition([5, 2, 1, 1]))\n"
        "except InternalError:\n"
        "    print('raised')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(hookcells.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.stdout.strip() == "raised", run.stderr


# (reader, a valid payload, payloads that each turn one integer of it into a
# float or a boolean); every such value used to be truncated or coerced
JSON_READERS = [
    (SchubertClass.from_json, {"box": [2, 2], "terms": [{"partition": [1], "coeff": 2}]}, [
        {"box": [2, 2.0], "terms": [{"partition": [1], "coeff": 2}]},
        {"box": [2, 2], "terms": [{"partition": [1.7], "coeff": 2}]},
        {"box": [2, 2], "terms": [{"partition": [1], "coeff": 2.5}]},
    ]),
    (HookCode.from_json, {"mu": 2, "j": 4, "qs": [[0], [1], [0]]}, [
        {"mu": 2.9, "j": 4, "qs": [[0], [1], [0]]},
        {"mu": 2, "j": 4.2, "qs": [[0], [1], [0]]},
        {"mu": 2, "j": 4, "qs": [[0], [True], [0]]},
    ]),
    (BundleClass.from_json, {"mu": 3, "j": 6, "terms": [{"a": 1, "b": 1, "coeff": 2}]}, [
        {"mu": 3.0, "j": 6, "terms": [{"a": 1, "b": 1, "coeff": 2}]},
        {"mu": 3, "j": 6.5, "terms": [{"a": 1, "b": 1, "coeff": 2}]},
        {"mu": 3, "j": 6, "terms": [{"a": 1.2, "b": 1, "coeff": 2}]},
        {"mu": 3, "j": 6, "terms": [{"a": 1, "b": True, "coeff": 2}]},
        {"mu": 3, "j": 6, "terms": [{"a": 1, "b": 1, "coeff": 2.5}]},
    ]),
    (BinaryForm.from_json, {"degree": 1, "coeffs": ["1", "2"]}, [{"degree": 1.0, "coeffs": ["1", "2"]}]),
    (HilbertFunction.from_json, [1, 2, 1], [[1, 2.0, 1]]),
    (FormSpace.from_json, {"degree": 1, "basis": [["1/2", "1"]]}, [{"degree": True, "basis": [["1/2", "1"]]}]),
    (Partition.from_json, [2, 1], [[2, 1.0]]),
]


@pytest.mark.parametrize("reader, good, bad", JSON_READERS, ids=[r[0].__qualname__ for r in JSON_READERS])
def test_json_readers_refuse_non_integers(reader, good, bad):
    assert reader(good).to_json() == good
    for payload in bad:
        with pytest.raises(ValueError, match="must be an integer"):
            reader(payload)


@pytest.mark.parametrize("reader, payload, field", [
    (BinaryForm.from_json, {"degree": 1, "coeffs": "12"}, "coeffs"),
    (FormSpace.from_json, {"degree": 1, "basis": "10"}, "basis"),
    (FormSpace.from_json, {"degree": 1, "basis": ["10"]}, "basis row"),
])
def test_json_readers_refuse_strings_for_lists(reader, payload, field):
    with pytest.raises(ValueError, match=f"^{field} must be a list, got "):
        reader(payload)


# each reader with the error class it raises, taking one rational value
RATIONAL_READERS = {
    "BinaryForm": (lambda v: BinaryForm(1, [1, v]), ValueError),
    "FormSpace": (lambda v: FormSpace(1, [[1, v]]), ValueError),
    "PointP1": (lambda v: PointP1(1, v), ValueError),
    "CellParams": (
        lambda v: CellParams(MonomialIdeal(Partition([2, 2])), {((0, 2), (1, 1)): v}),
        InconsistentParams,
    ),
    "hankel_rank": (lambda v: hankel_rank([1, v, 1], 1), ValueError),
}


@pytest.mark.parametrize("bad", [0.5, True, Decimal("0.5"), "1/0", "1e4000000", "2E-3"], ids=repr)
@pytest.mark.parametrize("name", RATIONAL_READERS)
def test_rational_readers_refuse_inexact_values(name, bad):
    reader, error = RATIONAL_READERS[name]
    for good in (-3, Fraction(-3, 4), "-3/4", "12", "0.25"):
        reader(good)
    with pytest.raises(error, match=f"must be an exact rational, got {re.escape(repr(bad))}$"):
        reader(bad)
