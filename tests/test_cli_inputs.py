"""Malformed CLI input ends in a usage error (exit 2) or a one-line domain
error (exit 1), never in a traceback."""

import contextlib
import io
import json
import math
import sys
import time

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from hookcells import MonomialIdeal, Partition, pair_set_S
from hookcells.binforms import MAX_FORM_DEGREE
from hookcells.cells import mono_str
from hookcells.cli import main
from hookcells.hookcode import MAX_CODE_CELLS, code as hook_code
from hookcells.secant import MAX_RING_SIZE

# every command that reads a file, with the flag that names it
FILE_COMMANDS = [
    ("wronskian", "--space"),
    ("qram", "--point", "1,2", "--space"),
    ("build-ideal", "--params"),
    ("intersect", "--d", "2", "--j", "4", "--conditions"),
    ("hankel", "rank", "--mu", "2", "--coeffs"),
]


@pytest.mark.parametrize("problem", ["missing", "bad json", "directory", "not utf-8", "too deep"])
@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
def test_unreadable_input_file_is_a_domain_error(tmp_path, capsys, argv, problem):
    path = tmp_path / "input.json"
    if problem == "bad json":
        path.write_text('{"degree": 3, "basis": [[1, 0')
    elif problem == "directory":
        path.mkdir()
    elif problem == "not utf-8":
        path.write_bytes(b'{"coeffs": ["\xff"]}')
    elif problem == "too deep":  # past the JSON parser's recursion limit
        path.write_text("[" * 100_000 + "]" * 100_000)
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("InputFileError: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


PARAMS_22 = {"partition": [2, 2], "params": [{"mu": "x^0 y^2", "nu": "x^1 y^1", "value": "2"}]}
# the S(E) pairs of E = [3, 1], the first given again with another value
PARAMS_31_TWICE = {"partition": [3, 1], "params": [
    {"mu": "x^0 y^2", "nu": "x^2 y^0", "value": "0"},
    {"mu": "x^1 y^1", "nu": "x^2 y^0", "value": "0"},
    {"mu": "x^0 y^2", "nu": "x^2 y^0", "value": "5"},
]}
FILE_ERROR = "InputFileError: {path}: "

# (argv, payload, the start of the one-line error)
MALFORMED = [(argv, payload, FILE_ERROR) for argv, payload in [
    (FILE_COMMANDS[0], {"degree": 3}),
    (FILE_COMMANDS[1], {"degree": 3}),
    (FILE_COMMANDS[0], {"degree": 1, "basis": [["1", "1/0"]]}),
    (FILE_COMMANDS[0], [1, 2]),
    (FILE_COMMANDS[2], {**PARAMS_22, "params": [{**PARAMS_22["params"][0], "mu": "x^a y^1"}]}),
    (FILE_COMMANDS[2], {**PARAMS_22, "params": [{**PARAMS_22["params"][0], "mu": 3}]}),
    (FILE_COMMANDS[2], {"params": []}),
    (FILE_COMMANDS[3], [[1, "a"], [0, 3]]),
    (FILE_COMMANDS[3], [[1, 2.0], [0, 3]]),
    (FILE_COMMANDS[3], {"conditions": 5}),
    (FILE_COMMANDS[4], {"coeffs": ["abc", "1"]}),
    (FILE_COMMANDS[4], "text"),
    (FILE_COMMANDS[0], {"degree": 2.5, "basis": [["1", "0", "0"]]}),
    (FILE_COMMANDS[0], {"degree": 1e300, "basis": []}),
    (FILE_COMMANDS[1], {"degree": 1e300, "basis": []}),
    (FILE_COMMANDS[2], {**PARAMS_22, "partition": [2.7, 2]}),
    # a string where a list belongs, never read character by character
    (FILE_COMMANDS[0], {"degree": 1, "basis": ["10"]}),
    (FILE_COMMANDS[1], {"degree": 1, "basis": "10"}),
    (FILE_COMMANDS[4], {"coeffs": "123"}),
    (FILE_COMMANDS[4], {"coeffs": ["1e4000000", "1"]}),
]] + [
    # a float, true, Infinity or NaN where a rational belongs
    (argv, payload, FILE_ERROR)
    for value in (0.5, True, math.inf, math.nan)
    for argv, payload in [
        (FILE_COMMANDS[0], {"degree": 1, "basis": [[1, value]]}),
        (FILE_COMMANDS[1], {"degree": 1, "basis": [[1, value]]}),
        (FILE_COMMANDS[4], {"coeffs": [1, value, 1]}),
    ]
] + [
    # a repeated pair, where the last value used to win silently
    (FILE_COMMANDS[2], PARAMS_31_TWICE, "InconsistentParams: pair (x^0 y^2, x^2 y^0) is given twice"),
] + [
    # a zero space of a degree whose ramification data would take minutes
    (argv, {"degree": 10**8, "basis": []}, "OutOfRange: form space of degree 100000000 is above the limit")
    for argv in FILE_COMMANDS[:2]
]


@pytest.mark.parametrize(
    "argv, payload, prefix", MALFORMED,
    ids=[f"{argv[0]}-{p if isinstance(p, str) else f'payload{i}'}" for i, (argv, p, _) in enumerate(MALFORMED)],
)
def test_malformed_payload_is_a_domain_error(tmp_path, capsys, argv, payload, prefix):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(prefix.format(path=path))
    assert err.count("\n") == 1 and "Traceback" not in err


def test_float_cell_parameter_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "params.json"
    entry = {**PARAMS_22["params"][0], "value": 0.1}
    path.write_text(json.dumps({**PARAMS_22, "params": [entry]}))
    code = main([*FILE_COMMANDS[2], str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("InconsistentParams: ") and "0.1" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("d, j", [(-1, 1), (2, 0)])
def test_intersect_outside_any_box_is_a_domain_error(tmp_path, capsys, d, j):
    path = tmp_path / "conditions.json"
    path.write_text(json.dumps({"conditions": []}))
    code = main(["intersect", "--d", str(d), "--j", str(j), "--conditions", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("DimensionMismatch: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["ring", "mul", "--mu", "3", "--j", "6", "--x", "1", "--y", "0,2"], "--x"),
    (["ring", "mul", "--mu", "3", "--j", "6", "--x", "1,1", "--y", "0,2,1"], "--y"),
    (["ring", "mul", "--mu", "3", "--j", "6", "--x", "a,1", "--y", "0,2"], "--x"),
    (["betti", "--T", "1,a"], "--T"),
    (["cells", "enum", "--T", "1;2"], "--T"),
    (["decode", "--T", "1,a", "--code", "[[0],[2]]"], "--T"),
    (["decode", "--T", "1,2,3,2,1", "--code", "[[0]"], "--code"),
    (["decode", "--T", "1,2,3,2,1", "--code", "5"], "--code"),
    (["decode", "--T", "1,2,3,2,1", "--code", '[[0],["2"]]'], "--code"),
    (["decode", "--T", "1,2,3,2,1", "--code", "[[0],[2.0]]"], "--code"),
    (["decode", "--T", "1,2,3,2,1", "--code", "[0,2]"], "--code"),
    (["decode", "--T", "1,2,3,2,1", "--code", "[" * 5000 + "]" * 5000], "--code"),
    (["code", "--partition", "1,2"], "--partition"),
    (["code", "--partition", "2,0"], "--partition"),
    (["code", "--partition", "x"], "--partition"),
    (["grass", "degree", "--d", "2", "--n", "1.5"], "--n"),
])
def test_malformed_flag_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert f"argument {flag}" in err and "Traceback" not in err


@pytest.mark.parametrize("code", ["[[0]]", "[[0],[2],[1]]", "[[0],[2],[]]", "[[0],[3]]", "[[0,0],[2]]"])
def test_code_outside_the_boxes_is_a_domain_error(capsys, code):
    assert main(["decode", "--T", "1,2,3,2,1", "--code", code]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("NotFound: code ") and "does not fit the boxes" in err


@pytest.mark.parametrize("parts", ["300000000", "18446744073709551616", ",".join(["1"] * 100_001)],
                         ids=["one long row", "past an index", "one long column"])
def test_shape_above_the_code_limit_is_a_domain_error(capsys, parts):
    start = time.perf_counter()
    code = main(["code", "--partition", parts])
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: shape of ") and f"above the limit {MAX_CODE_CELLS}" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# (5,2,1,1) has three S(E) pairs; 10**4000 at each gives 8001-digit generator coefficients
BIG_PARAMS = {"partition": [5, 2, 1, 1], "params": [
    {"mu": mono_str(mu), "nu": mono_str(nu), "value": 10**4000}
    for mu, nu in pair_set_S(MonomialIdeal(Partition([5, 2, 1, 1])))
]}
# two 2501-digit entries whose product sits in the Wronskian
BIG_SPACE = {"degree": 2, "basis": [[1, 10**2500 + 7, 0], [0, 1, 10**2500 + 9]]}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, payload", [(FILE_COMMANDS[2], BIG_PARAMS), (FILE_COMMANDS[0], BIG_SPACE)],
                         ids=["build-ideal", "wronskian"])
def test_result_past_the_digit_limit_is_a_domain_error(tmp_path, capsys, argv, payload, fmt):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([*argv, str(path), "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: a number of the result has more than 4300 decimal digits")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.fixture
def digit_limit_640():
    """The interpreter's digit limit lowered to 640 for one test, so that
    small class-ring products pass it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", [
    ["ring", "mul", "--mu", "1200", "--j", "12000", "--x", "300,300", "--y", "300,300"],
    ["secant", "pullback", "--mu", "1200", "--j", "12000", "--i", "300"],
], ids=["ring-mul", "secant-pullback"])
def test_class_coefficient_past_the_digit_limit_is_a_domain_error(capsys, digit_limit_640, argv, fmt):
    code = main([*argv, "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: a number of the result has more than 640 decimal digits")
    assert err.count("\n") == 1 and "Traceback" not in err


# above the limit on mu (j + 1 - mu): just past it, and at the two sizes that
# ran for seconds or past 30 s before there was a limit
ABOVE_RING_SIZE = [
    ["ring", "mul", "--mu", "4000", "--j", "8000", "--x", "0,3999", "--y", "0,1"],
    ["secant", "pullback", "--mu", "4000", "--j", "8000", "--i", "1"],
    ["ring", "mul", "--mu", "6000", "--j", "60000", "--x", "1500,1500", "--y", "1500,1500"],
    ["secant", "pullback", "--mu", "6000", "--j", "60000", "--i", "1500"],
    ["ring", "mul", "--mu", "20000", "--j", "200000", "--x", "5000,5000", "--y", "5000,5000"],
]


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv", ABOVE_RING_SIZE, ids=lambda argv: f"{argv[0]}-{argv[3]}-{argv[5]}")
def test_ring_above_the_size_limit_is_a_domain_error(capsys, argv, fmt):
    start = time.perf_counter()
    code = main([*argv, "--format", fmt])
    assert time.perf_counter() - start < 0.1
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"OutOfRange: mu (j + 1 - mu) is above the limit {MAX_RING_SIZE} at mu = {argv[3]}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_ring_at_the_size_limit_is_accepted(capsys):
    assert 4000 * (7999 + 1 - 4000) == MAX_RING_SIZE
    assert main(["ring", "mul", "--mu", "4000", "--j", "7999", "--x", "0,0", "--y", "1,0"]) == 0
    assert capsys.readouterr().out == "[0,0]*[1,0] = [1,0]\n"


# JSON values of every kind: wrong types, floats, booleans, decimal and
# exponent strings, integers up to the 4300 digits JSON reads, and nesting
SCALARS = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-10**6, 10**6),
    st.sampled_from([10**4000, -(10**4299), 2**14000]),
    st.sampled_from(["1/3", "-0.25", "1e5", "1E-3", "7/0", "", "0x10", "1_000", " 2 ", "x^1 y^0"]),
    st.text(max_size=8),
)
ANY_JSON = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
VALUES = st.one_of(
    st.integers(-9, 9), st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.sampled_from([0, 10**4000, "-7/999983"]), SCALARS,
)
RARELY = st.integers(0, 3).map(lambda k: k == 0)


@st.composite
def small_shapes(draw):
    left = draw(st.integers(0, 12))
    parts = []
    while left:
        parts.append(draw(st.integers(1, min(left, parts[-1] if parts else left))))
        left -= parts[-1]
    return parts


@st.composite
def build_ideal_payloads(draw):
    """A cell-parameter payload: one entry per S(E) pair of a shape with at
    most 12 boxes, then broken in any number of ways; or a shape above the
    degree limit, or any JSON at all."""
    pairs = ()
    if draw(st.integers(0, 3)):
        parts = draw(small_shapes())
        pairs = pair_set_S(MonomialIdeal(Partition(parts)))
    else:
        parts = draw(st.one_of(st.sampled_from([[10**6], [1] * 70, [65], [3, 5], [2**64]]), ANY_JSON))
    entries = [{"mu": mono_str(mu), "nu": mono_str(nu), "value": draw(VALUES)} for mu, nu in pairs]
    if entries and draw(RARELY):  # a pair given twice
        entries.append({**draw(st.sampled_from(entries)), "value": draw(VALUES)})
    if entries and draw(RARELY):  # a pair left out
        del entries[draw(st.integers(0, len(entries) - 1))]
    if entries and draw(RARELY):  # a key left out
        entries[0] = {k: v for k, v in entries[0].items() if k != draw(st.sampled_from(["mu", "nu", "value"]))}
    if draw(RARELY):  # an entry of any JSON
        entries.append(draw(ANY_JSON))
    payload = {"partition": parts, "params": entries}
    if draw(RARELY):  # a top-level key left out or of any JSON
        key = draw(st.sampled_from(["partition", "params"]))
        payload = draw(st.one_of(
            st.just({k: v for k, v in payload.items() if k != key}), st.builds(lambda v: {**payload, key: v}, ANY_JSON),
        ))
    return draw(st.one_of(st.just(payload), ANY_JSON)) if draw(st.integers(0, 9)) == 0 else payload


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=build_ideal_payloads(), fmt=st.sampled_from(["table", "json"]))
@example(payload=BIG_PARAMS, fmt="table")
@example(payload={"partition": [2**64], "params": []}, fmt="json")
@example(payload={"partition": [1] * 3000, "params": []}, fmt="json")
def test_build_ideal_fuzz(tmp_path_factory, payload, fmt):
    """Any payload ends in a result (exit 0), a one-line domain error (exit
    1) or a usage error (exit 2), never in a traceback, and in bounded time."""
    run_on_payload(tmp_path_factory, ["build-ideal", "--params"], payload, fmt)


def run_on_payload(tmp_path_factory, argv, payload, fmt, extra=()):
    """Run the command with ``payload`` as its input file, through
    ``run_argv``."""
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(payload))
    run_argv([*argv, str(path), *extra, "--format", fmt])


def run_argv(argv):
    """Run the CLI on ``argv`` inside a hypothesis test; check the exit
    code, that no traceback is printed, that a domain error is one line with
    nothing on stdout, and that it takes under 5 s."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 5
    event(f"exit {code}, {err.getvalue().partition(':')[0] or 'no error'}")
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().count("\n") == 1 and out.getvalue() == ""


@st.composite
def space_payloads(draw):
    """A form-space payload: a basis of up to 5 rows of degree up to 9,
    independent or not, then broken in any number of ways; or any JSON at
    all."""
    degree = draw(st.integers(0, 9))
    rows = draw(st.lists(st.lists(VALUES, min_size=degree + 1, max_size=degree + 1), max_size=min(degree + 1, 5)))
    if rows and draw(RARELY):  # a row repeated, so the rows are dependent
        rows.append(draw(st.sampled_from(rows)))
    if rows and draw(RARELY):  # a row of the wrong length
        rows[0] = rows[0][:-1] if draw(st.booleans()) else [*rows[0], 1]
    if draw(RARELY):  # a row of any JSON
        rows.append(draw(ANY_JSON))
    payload = {"degree": draw(st.one_of(st.just(degree), ANY_JSON)) if draw(RARELY) else degree, "basis": rows}
    if draw(RARELY):  # a top-level key left out or of any JSON
        key = draw(st.sampled_from(["degree", "basis"]))
        payload = draw(st.one_of(
            st.just({k: v for k, v in payload.items() if k != key}), st.builds(lambda v: {**payload, key: v}, ANY_JSON),
        ))
    return draw(ANY_JSON) if draw(st.integers(0, 9)) == 0 else payload


POINT_TEXTS = st.one_of(
    st.builds("{},{}".format, VALUES, VALUES),
    st.sampled_from(["1,0", "0,1", "0,0", "1/0,2", "1,2,3", "1", "", "x,1", "1e5,1", "-3/7,2"]),
    st.text(max_size=8),
)
# three rows with 2501-digit entries, at a point off both axes
WIDE_SPACE = {"degree": 4, "basis": [[1, 10**2500, 0, 3, 1], [0, 1, 10**2500, 0, 2], [5, 0, 1, 10**2500, 0]]}


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=space_payloads(), fmt=st.sampled_from(["table", "json"]))
@example(payload=BIG_SPACE, fmt="json")
@example(payload={"degree": 2**64, "basis": []}, fmt="json")
@example(payload={"degree": 3, "basis": [[1, 2, 3, 4], [2, 4, 6, 8]]}, fmt="table")
def test_wronskian_fuzz(tmp_path_factory, payload, fmt):
    run_on_payload(tmp_path_factory, ["wronskian", "--space"], payload, fmt)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=space_payloads(), point=POINT_TEXTS, fmt=st.sampled_from(["table", "json"]))
@example(payload=WIDE_SPACE, point="-7/3,5", fmt="json")
@example(payload={"degree": 2, "basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, point="1,1", fmt="table")
@example(payload={"degree": 1, "basis": [[1, 1]]}, point="1/0,2", fmt="table")
@example(payload={"degree": 10**4000, "basis": []}, point="1,2", fmt="json")
@example(payload={"degree": MAX_FORM_DEGREE, "basis": []}, point="1,2", fmt="json")
def test_qram_fuzz(tmp_path_factory, payload, point, fmt):
    run_on_payload(tmp_path_factory, ["qram", "--space"], payload, fmt, ["--point", point])


@st.composite
def hankel_payloads(draw):
    """A ``hankel rank`` payload: up to 12 coefficients, half the time all
    exact (small, huge, decimal and fraction strings), else of every JSON
    kind, nested lists among them; ``scaled`` left out, a boolean or any
    JSON; a top-level key at times left out or of any JSON; or any JSON at
    all."""
    exact = st.one_of(st.integers(-9, 9), st.sampled_from([10**4000, -(10**2500), "0.25", "-3/4", "1/999983"]))
    coeff = exact if draw(st.booleans()) else st.one_of(VALUES, st.lists(VALUES, max_size=3))
    payload = {"coeffs": draw(st.lists(coeff, min_size=draw(st.integers(0, 8)), max_size=12))}
    if draw(st.booleans()):
        payload["scaled"] = draw(st.one_of(st.booleans(), ANY_JSON))
    if draw(RARELY):
        key = draw(st.sampled_from(["coeffs", "scaled"]))
        payload = draw(st.one_of(
            st.just({k: v for k, v in payload.items() if k != key}), st.builds(lambda v: {**payload, key: v}, ANY_JSON),
        ))
    return draw(ANY_JSON) if draw(st.integers(0, 9)) == 0 else payload


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=hankel_payloads(), mu=st.one_of(st.integers(0, 4).map(str), st.sampled_from(["10000000000", "-1", "x"])),
       fmt=st.sampled_from(["table", "json"]))
@example(payload={"coeffs": [10**4000, 1, -(10**4000), 3, 2, 10**4000, 5, 0, 1]}, mu="4", fmt="json")
@example(payload={"coeffs": ["0.5", "1/3", "-2", 7], "scaled": False}, mu="1", fmt="table")
@example(payload={"coeffs": [1.5, 2, 3]}, mu="1", fmt="table")
@example(payload={"coeffs": [[1, 2], 3, 4]}, mu="1", fmt="json")
@example(payload={"coeffs": "1234"}, mu="1", fmt="json")
@example(payload={"coeffs": [], "scaled": False}, mu="0", fmt="table")
@example(payload=[1, 2, 3], mu="1", fmt="table")
def test_hankel_rank_fuzz(tmp_path_factory, payload, mu, fmt):
    run_on_payload(tmp_path_factory, ["hankel", "rank", "--coeffs"], payload, fmt, ["--mu", mu])


# integers at the edges of a flag's range, and small ones twice as often;
# one flag value in ten is not an integer (or a pair of them) at all
EDGES = st.one_of(st.sampled_from([0, 10**6, 10**20, -1, -(10**20)]), st.integers(0, 12), st.integers(0, 12))
SELDOM = st.integers(0, 9).map(lambda k: k == 5)  # not 0, which hypothesis favours
INT_TEXTS = SELDOM.flatmap(
    lambda bad: st.sampled_from(["", "x", "1.5", "1e3", "0x10", "1,2"]) if bad else EDGES.map(str)
)
PAIR_TEXTS = SELDOM.flatmap(
    lambda bad: st.sampled_from(["1", "1,2,3", "a,1", ""]) if bad else st.builds("{},{}".format, EDGES, EDGES)
)


@st.composite
def hilbert_texts(draw):
    """``--T``: the diagonal lengths of a shape of at most 12 cells, at times
    with an integer from the edges put in; or any list of them."""
    if draw(RARELY):
        t = draw(st.lists(EDGES, max_size=6))
    else:
        t = list(Partition(draw(small_shapes())).diagonal_lengths().t)
        if draw(RARELY):
            t.insert(draw(st.integers(0, len(t))), draw(EDGES))
    return ",".join(map(str, t))


@st.composite
def code_texts(draw):
    """``--code``: the hook code of a shape of at most 12 cells as JSON, at
    times with an entry from the edges; or any list of lists of them."""
    if draw(RARELY):
        qs = draw(st.lists(st.lists(EDGES, max_size=3), max_size=4))
    else:
        qs = [list(q) for q in hook_code(Partition(draw(small_shapes()))).qs]
        if qs and draw(RARELY):
            q = draw(st.sampled_from(qs))
            q.insert(draw(st.integers(0, len(q))), draw(EDGES))
    return json.dumps(qs)


def argv(*words, flags=st.just({})):
    """The argv of a command: its words, then the flags of a drawn dict of
    flag values and a format; one time in ten a flag is left out, and one
    time in ten an unknown flag is added."""

    @st.composite
    def build(draw):
        values = {**draw(flags), "format": draw(st.sampled_from(["table", "json"]))}
        if draw(SELDOM):
            del values[draw(st.sampled_from(sorted(values)))]
        out = [*words, *(x for name, value in values.items() for x in (f"--{name}", value))]
        return out + ["--bogus", "1"] if draw(SELDOM) else out

    return build()


@st.composite
def ring_in_range(draw, command):
    """Flags of ``ring mul`` or ``secant pullback`` that name a product or a
    pullback: mu up to 12, j up to 40, basis classes [a, b] and ranks i."""
    mu = draw(st.integers(1, 12))
    if command == "ring mul":
        x, y = (f"{draw(st.integers(0, mu - 1))},{draw(st.integers(0, mu))}" for _ in "xy")
        return {"mu": str(mu), "j": str(draw(st.integers(0, 40))), "x": x, "y": y}
    return {"mu": str(mu), "j": str(draw(st.integers(2 * mu, 40))), "i": str(draw(st.integers(1, mu)))}


COMMANDS = {
    "cells enum": argv("cells", "enum", flags=st.fixed_dictionaries({"T": hilbert_texts()})),
    "code": argv("code", flags=st.fixed_dictionaries({"partition": st.one_of(
        st.builds(lambda parts: ",".join(map(str, parts)), small_shapes()), INT_TEXTS, PAIR_TEXTS,
    )})),
    "decode": argv("decode", flags=st.fixed_dictionaries({"T": hilbert_texts(), "code": code_texts()})),
    "betti": argv("betti", flags=st.fixed_dictionaries({"T": hilbert_texts()})),
    "grass degree": argv("grass", "degree", flags=st.fixed_dictionaries({"d": INT_TEXTS, "n": INT_TEXTS})),
    "ring mul": argv("ring", "mul", flags=st.one_of(
        ring_in_range("ring mul"),
        st.fixed_dictionaries({"mu": INT_TEXTS, "j": INT_TEXTS, "x": PAIR_TEXTS, "y": PAIR_TEXTS}),
    )),
    "secant pullback": argv("secant", "pullback", flags=st.one_of(
        ring_in_range("secant pullback"), st.fixed_dictionaries({"mu": INT_TEXTS, "j": INT_TEXTS, "i": INT_TEXTS}),
    )),
    "example-7-4": argv("example-7-4"),
}


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_command_fuzz(command, data):
    """Any argv built from a command's flags ends in a result (exit 0), a
    one-line domain error (exit 1) or a usage error (exit 2), never in a
    traceback, and in bounded time."""
    run_argv(data.draw(COMMANDS[command], label="argv"))
