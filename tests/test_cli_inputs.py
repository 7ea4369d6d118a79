"""Malformed CLI input ends in a usage error (exit 2) or a one-line domain
error (exit 1), never in a traceback."""

import json
import math

import pytest

from hookcells.cli import main

# every command that reads a file, with the flag that names it
FILE_COMMANDS = [
    ("wronskian", "--space"),
    ("qram", "--point", "1,2", "--space"),
    ("build-ideal", "--params"),
    ("intersect", "--d", "2", "--j", "4", "--conditions"),
    ("hankel", "rank", "--mu", "2", "--coeffs"),
]


@pytest.mark.parametrize("problem", ["missing", "bad json", "directory", "not utf-8"])
@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
def test_unreadable_input_file_is_a_domain_error(tmp_path, capsys, argv, problem):
    path = tmp_path / "input.json"
    if problem == "bad json":
        path.write_text('{"degree": 3, "basis": [[1, 0')
    elif problem == "directory":
        path.mkdir()
    elif problem == "not utf-8":
        path.write_bytes(b'{"coeffs": ["\xff"]}')
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("InputFileError: ") and str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


PARAMS_22 = {"partition": [2, 2], "params": [{"mu": "x^0 y^2", "nu": "x^1 y^1", "value": "2"}]}


@pytest.mark.parametrize("argv, payload", [
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
] + [
    # a float, true, Infinity or NaN where a rational belongs
    (argv, payload)
    for value in (0.5, True, math.inf, math.nan)
    for argv, payload in [
        (FILE_COMMANDS[0], {"degree": 1, "basis": [[1, value]]}),
        (FILE_COMMANDS[1], {"degree": 1, "basis": [[1, value]]}),
        (FILE_COMMANDS[4], {"coeffs": [1, value, 1]}),
    ]
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_malformed_payload_is_a_domain_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([*argv, str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"InputFileError: {path}: ")
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


@pytest.mark.parametrize("code", ["[[0]]", "[[0],[2],[1]]", "[[0],[3]]"])
def test_code_outside_the_boxes_is_a_domain_error(capsys, code):
    assert main(["decode", "--T", "1,2,3,2,1", "--code", code]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("NotFound: ")
