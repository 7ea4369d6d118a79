import json
import time

import pytest

from hookcells import (
    BinaryForm,
    FormSpace,
    HookCode,
    Partition,
    SchubertClass,
    BundleClass,
)
from hookcells.cli import build_parser, dumps, main
import oracles


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_betti(capsys):
    code, out, _ = run(capsys, "betti", "--T", "1,2,3,2,1")
    assert code == 0
    assert out.strip() == "(1+q^2+q^4)^2 ; b(T)=9"


def test_betti_leaves_out_unit_factors(capsys):
    """A degree whose small Grassmannian is a point contributes the factor
    1, which the table leaves out; the JSON keeps every factor."""
    T = "1,2,3,4,5,6," + ",".join(["6"] * 15)
    code, out, _ = run(capsys, "betti", "--T", T)
    assert code == 0 and out.strip() == "(1+q^2+q^4+q^6+q^8+q^10+q^12) ; b(T)=7"
    code, out, _ = run(capsys, "betti", "--T", T, "--format", "json")
    assert code == 0 and json.loads(out)["factors"] == [[1]] * 14 + [[1, 1, 1, 1, 1, 1, 1]]
    code, out, _ = run(capsys, "betti", "--T", "1,2,3")
    assert code == 0 and out.strip() == "1 ; b(T)=1"


def test_example_count(capsys):
    code, out, _ = run(capsys, "example-7-4")
    assert code == 0
    assert out.splitlines()[0] == "count=4"


def test_code_output(capsys):
    code, out, _ = run(capsys, "code", "--partition", "5,2,1,1")
    assert code == 0
    assert out.strip() == "Q3=[], Q4=[2]"


def test_decode_roundtrip(capsys):
    code, out, _ = run(capsys, "decode", "--T", "1,2,3,2,1", "--code", "[[0],[2]]")
    assert code == 0
    assert out.strip() == "5,2,1,1"
    # unpadded components are accepted too
    code, out, _ = run(capsys, "decode", "--T", "1,2,3,2,1", "--code", "[[],[2]]")
    assert out.strip() == "5,2,1,1"


def test_cells_enum(capsys):
    code, out, _ = run(capsys, "cells", "enum", "--T", "1,2,1")
    assert code == 0
    assert out.splitlines()[-1] == "total cells: 3"


def test_cells_enum_above_the_cell_limit_is_a_domain_error(capsys):
    # 3^29 cells: refused before any shape is built
    T = ",".join(map(str, [*range(1, 31), *range(29, 0, -1)]))
    code, out, err = run(capsys, "cells", "enum", "--T", T)
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange") and "Traceback" not in err


def test_grass_degree(capsys):
    code, out, _ = run(capsys, "grass", "degree", "--d", "2", "--n", "4")
    assert code == 0
    assert out.strip() == "2"


def test_grass_degree_above_the_limit_is_a_domain_error(capsys):
    # d(n - d) = 225 Pieri steps would run for minutes: refused before any
    start = time.perf_counter()
    code, out, err = run(capsys, "grass", "degree", "--d", "15", "--n", "30")
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange") and "Traceback" not in err


def test_ring_mul(capsys):
    code, out, _ = run(capsys, "ring", "mul", "--mu", "3", "--j", "6", "--x", "1,1", "--y", "0,2")
    assert code == 0
    assert "4*[1,3]" in out and "6*[2,2]" in out


def test_secant_pullback(capsys):
    code, out, _ = run(capsys, "secant", "pullback", "--mu", "3", "--j", "6", "--i", "2")
    assert code == 0
    assert out.strip() == "3*[0,1] - 2*[1,0]"


def test_wronskian_and_qram(tmp_path, capsys):
    space = FormSpace(3, [
        oracles.from_monomials(3, {(1, 2): 1, (3, 0): -4}),
        oracles.from_monomials(3, {(2, 1): 1, (3, 0): 2}),
    ])
    path = tmp_path / "space.json"
    path.write_text(json.dumps(space.to_json()))
    code, out, _ = run(capsys, "wronskian", "--space", str(path))
    assert code == 0 and "degree 4" in out
    code, out, _ = run(capsys, "qram", "--space", str(path), "--point", "1,0")
    assert code == 0
    assert "QRAM: [1, 1]" in out and "(r = 2)" in out


def test_qram_dependent_basis_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"degree": 3, "basis": [["1", "0", "2", "0"], ["2", "0", "4", "0"]]}))
    code, out, err = run(capsys, "qram", "--space", str(path), "--point", "1,2")
    assert code == 1 and out == ""
    assert err.startswith("DegenerateBasis") and "Traceback" not in err


@pytest.mark.parametrize("point", ["0,0", "1/0,2", "1,2,3", "abc"])
def test_qram_malformed_point_is_a_usage_error(tmp_path, capsys, point):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(FormSpace(2, [[1, 0, 0]]).to_json()))
    with pytest.raises(SystemExit) as exc:
        main(["qram", "--space", str(path), "--point", point])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "--point" in err and "Traceback" not in err


def test_build_ideal_cmd(tmp_path, capsys):
    params = {
        "partition": [2, 2],
        "params": [{"mu": "x^0 y^2", "nu": "x^1 y^1", "value": "2"}],
    }
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    code, out, _ = run(capsys, "build-ideal", "--params", str(path))
    assert code == 0
    assert "T = [1, 2, 1]" in out


@pytest.mark.parametrize("parts", [[10**6], [1] * 3000, [1] * 66])
def test_build_ideal_above_the_degree_limit_is_a_domain_error(tmp_path, capsys, parts):
    # top degrees 999999, 2999 and 65: refused before the shape is built
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"partition": parts, "params": []}))
    start = time.perf_counter()
    code, out, err = run(capsys, "build-ideal", "--params", str(path))
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err.startswith("OutOfRange: shape of top degree") and "Traceback" not in err


def test_intersect_cmd(tmp_path, capsys):
    path = tmp_path / "conds.json"
    path.write_text(json.dumps({"d": 2, "j": 4, "conditions": [[1, 4], [0, 3]]}))
    code, out, _ = run(capsys, "intersect", "--d", "2", "--j", "4", "--conditions", str(path))
    assert code == 0
    assert out.strip() == "s[3,3]"


def test_hankel_cmd(tmp_path, capsys):
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({"coeffs": ["1", "0", "0", "0", "0", "0", "1"]}))
    code, out, _ = run(capsys, "hankel", "rank", "--mu", "3", "--coeffs", str(path))
    assert code == 0
    assert out.strip() == "rank=2"


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "betti", "--T", "1,3,1")
    assert code == 1
    assert err.startswith("InvalidT")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti"])  # missing --T
    assert exc.value.code == 2


def test_usage_error_leaves_the_cached_parser_as_fresh(capsys):
    """The parser is built once per process.  A usage error (exit 2) and a
    valid call through it print what they print on a freshly built one."""

    def outcome(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    bad = ("decode", "--T", "1,2,3,2,1", "--code", "[[0],[x]]")
    valid = ("decode", "--T", "1,2,3,2,1", "--code", "[[0],[2]]", "--format", "json")
    fresh = []
    for argv in (bad, valid):
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert fresh[0][0] == 2 and fresh[1][0] == 0
    assert build_parser() is build_parser()
    assert [outcome(bad), outcome(valid), outcome(valid)] == [fresh[0], fresh[1], fresh[1]]


def test_json_outputs_roundtrip_byte_identical(tmp_path, capsys):
    """Every --format json output re-serializes identically through the
    module serializers."""
    space = FormSpace(3, [
        oracles.from_monomials(3, {(1, 2): 1, (3, 0): -1}),
        oracles.from_monomials(3, {(2, 1): 1, (3, 0): 1}),
    ])
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space.to_json()))

    _, out, _ = run(capsys, "code", "--partition", "5,2,1,1", "--format", "json")
    assert out.strip() == dumps(HookCode.from_json(json.loads(out)).to_json())

    _, out, _ = run(capsys, "decode", "--T", "1,2,3,2,1", "--code", "[[0],[2]]",
                    "--format", "json")
    assert out.strip() == dumps(Partition.from_json(json.loads(out)).to_json())

    _, out, _ = run(capsys, "wronskian", "--space", str(space_path), "--format", "json")
    assert out.strip() == dumps(BinaryForm.from_json(json.loads(out)).to_json())

    _, out, _ = run(capsys, "ring", "mul", "--mu", "3", "--j", "6",
                    "--x", "1,1", "--y", "0,2", "--format", "json")
    assert out.strip() == dumps(BundleClass.from_json(json.loads(out)).to_json())

    _, out, _ = run(capsys, "secant", "pullback", "--mu", "3", "--j", "6", "--i", "2",
                    "--format", "json")
    assert out.strip() == dumps(BundleClass.from_json(json.loads(out)).to_json())

    _, out, _ = run(capsys, "intersect", "--d", "2", "--j", "4", "--conditions",
                    str(_conds(tmp_path)), "--format", "json")
    assert out.strip() == dumps(SchubertClass.from_json(json.loads(out)).to_json())

    _, out, _ = run(capsys, "cells", "enum", "--T", "1,2,1", "--format", "json")
    records = json.loads(out)
    rebuilt = [
        {
            "partition": Partition.from_json(r["partition"]).to_json(),
            "code": HookCode.from_json(r["code"]).to_json(),
            "dim": r["dim"],
            "codim": r["codim"],
        }
        for r in records
    ]
    assert out.strip() == dumps(rebuilt)


def _conds(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"conditions": [[1, 4], [0, 3]]}))
    return path
