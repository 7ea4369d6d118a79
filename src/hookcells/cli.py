"""Command-line front end.

Every library operation family is exposed as a subcommand; ``--format json``
emits exactly the module serializers' JSON so output can be piped back in.
Usage errors exit with 2, domain errors with 1 and the error class name on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import groupby

from . import binforms, cells, hookcode, partitions, schubert, secant
from .errors import HookcellsError, InputFileError


def dumps(data) -> str:
    """The JSON text of ``data``; ``OutOfRange`` for an integer past the
    interpreter's digit limit, which JSON writes as digits too."""
    return partitions._decimal(data, json.dumps)


def _ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _pair(text):
    a, b = _ints(text)
    return a, b


def _partition(text):
    return partitions.Partition(_ints(text))


def _int_lists(qs):
    return [[partitions._index(v, "entry") for v in partitions._list(q, "item")] for q in qs]


def _code(text):
    return _int_lists(json.loads(text))


def _typed(parse, expected):
    """Options of a flag parsed by ``parse``: any failure, JSON nested too
    deeply for the parser included, is a usage error."""

    def convert(text):
        try:
            return parse(text)
        except (ValueError, TypeError, RecursionError):
            raise argparse.ArgumentTypeError(f"invalid {text!r}: expected {expected}") from None

    return {"type": convert, "help": expected}


def _load_json(path, parse):
    """``parse`` applied to the JSON file at ``path``.  An unreadable file,
    bad or too deeply nested JSON or a payload that ``parse`` cannot read (a
    missing key, a wrong type or value) is an :class:`InputFileError` naming
    the file; a domain error raised by ``parse`` passes through unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputFileError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InputFileError(f"{path}: {reason}") from None


def _conditions(data):
    return _int_lists(data["conditions"] if isinstance(data, dict) else data)


def _hankel_coeffs(data):
    coeffs = [partitions._rational(c, "coefficient") for c in partitions._list(data["coeffs"], "coeffs")]
    if not data.get("scaled", True):
        form = binforms.BinaryForm(len(coeffs) - 1, coeffs)
        coeffs = list(secant.scaled_coefficients(form))
    return coeffs


def _emit(args, json_data, table_lines):
    print(dumps(json_data) if args.format == "json" else "\n".join(table_lines))


def _code_str(d: hookcode.HookCode) -> str:
    bits = [f"Q{d.mu + k}={[v for v in q if v]}".replace(" ", "") for k, q in enumerate(d.qs)]
    return ", ".join(bits) if bits else "(empty code)"


def _poincare_str(T) -> str:
    def poly_str(f):
        bits = (f"{'' if c == 1 else c}q^{2 * u}" if u else str(c) for u, c in enumerate(f) if c)
        return "+".join(bits) or "1"

    groups = [(f, len(list(run))) for f, run in groupby(hookcode.poincare_factors(T)) if f != (1,)]
    return " * ".join(f"({poly_str(f)})" + (f"^{m}" if m > 1 else "") for f, m in groups) or "1"


def cmd_cells_enum(args):
    T = partitions.HilbertFunction(args.T)
    ps = partitions.enumerate_with_diagonal_lengths(T)
    records = []
    lines = []
    for p in ps:
        E = cells.MonomialIdeal(p)
        d = hookcode.code(p)
        dm = cells.dims(E)
        records.append(
            {"partition": p.to_json(), "code": d.to_json(), "dim": dm.dim_v, "codim": dm.codim_v}
        )
        lines.append(
            f"P={','.join(map(str, p.parts))}  {_code_str(d)}  dim={dm.dim_v} codim={dm.codim_v}"
        )
    lines.append(f"total cells: {len(ps)}")
    _emit(args, records, lines)


def cmd_code(args):
    d = hookcode.code(args.partition)
    _emit(args, d.to_json(), [_code_str(d)])


def cmd_decode(args):
    T = partitions.HilbertFunction(args.T)
    # short components are padded with zeros; decode refuses any other misfit
    padded = [q + [0] * (rows - len(q)) for q, (rows, _cols) in zip(args.code, T.boxes)]
    p = hookcode.decode(T, hookcode.HookCode(T.mu, T.j, padded + args.code[len(T.boxes):]))
    _emit(args, p.to_json(), [",".join(map(str, p.parts))])


def cmd_betti(args):
    T = partitions.HilbertFunction(args.T)
    b = hookcode.betti_numbers(T)
    count = hookcode.cell_count(T)
    data = {
        "t": T.to_json(),
        "factors": [list(f) for f in hookcode.poincare_factors(T)],
        "betti": list(b),
        "poincare": list(hookcode.poincare(T)),
        "b": count,
    }
    _emit(args, data, [f"{_poincare_str(T)} ; b(T)={count}"])


def cmd_wronskian(args):
    space = _load_json(args.space, binforms.FormSpace.from_json)
    w = binforms.wronskian(space)
    _emit(args, w.to_json(), [f"W = {w}", f"degree {w.degree}"])


def cmd_qram(args):
    space = _load_json(args.space, binforms.FormSpace.from_json)
    rd = binforms.ram_data(space, args.point)
    _emit(args, rd.to_json(), [
        f"degree sequence: {list(rd.degree_sequence)}",
        f"QRAM: {list(rd.qram)}  (r = {rd.total})",
        f"Q: {list(rd.code)}",
    ])


def cmd_build_ideal(args):
    params = _load_json(args.params, cells.CellParams.from_json)
    ideal = cells.build_ideal(params)
    T = ideal.hilbert_function
    data = {
        "T": T.to_json(),
        "generators": [g.to_json() for g in ideal.generators],
        "initial_partition": cells.initial_ideal(ideal).partition.to_json(),
    }
    lines = [f"T = {list(T.t)}"]
    lines += [f"f[{k}] = {g}" for k, g in enumerate(ideal.generators)]
    _emit(args, data, lines)


def cmd_grass_degree(args):
    deg = schubert.grass_degree(args.d, args.n)
    _emit(args, {"d": args.d, "n": args.n, "degree": deg}, [str(deg)])


def cmd_intersect(args):
    conds = _load_json(args.conditions, _conditions)
    cls = schubert.intersect_ramification(args.d, args.j, conds)
    _emit(args, cls.to_json(), [str(cls)])


def cmd_ring_mul(args):
    (ax, bx), (ay, by) = args.x, args.y
    x = secant.BundleClass.basis(args.mu, args.j, ax, bx)
    y = secant.BundleClass.basis(args.mu, args.j, ay, by)
    prod = secant.t_multiply(x, y)
    _emit(args, prod.to_json(), [f"[{ax},{bx}]*[{ay},{by}] = {prod}"])


def cmd_secant_pullback(args):
    cls = secant.secant_pullback(args.mu, args.j, args.i)
    _emit(args, cls.to_json(), [str(cls)])


def cmd_hankel_rank(args):
    coeffs = _load_json(args.coeffs, _hankel_coeffs)
    r = secant.hankel_rank(coeffs, args.mu)
    _emit(args, {"mu": args.mu, "rank": r}, [f"rank={r}"])


def cmd_example(args):
    res = secant.ramification_count_example()
    data = {
        "count": res.count,
        "product_class": res.product_class.to_json(),
        "det_poly": [str(c) for c in res.det_poly],
        "det_degree": res.det_degree,
        "root_count": res.root_count,
    }
    lines = [
        f"count={res.count}",
        f"product class: {res.product_class}",
        f"det degree={res.det_degree}, roots with multiplicity={res.root_count}",
    ]
    _emit(args, data, lines)


GROUPS = {
    "cells": "cell decomposition commands",
    "grass": "Grassmannian commands",
    "ring": "cell-class ring commands",
    "secant": "secant stratum commands",
    "hankel": "Hankel matrix commands",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing keeps no state in
    it, and building it costs more than most commands."""
    top = argparse.ArgumentParser(
        prog="hookcells",
        description="cell decompositions, hook codes, Wronskians and Hankel strata",
    )
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}

    def add(name, fn, summary, **flags):
        """Register ``name`` ("group command" for a grouped command); every
        flag is required, and every command takes ``--format``."""
        group, _, command = name.rpartition(" ")
        parent = sub
        if group:
            if group not in groups:
                grp = sub.add_parser(group, help=GROUPS[group])
                groups[group] = grp.add_subparsers(dest="subcommand", required=True)
            parent = groups[group]
        p = parent.add_parser(command, help=summary)
        p.set_defaults(fn=fn)
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag, required=True, **kwargs)
        p.add_argument("--format", choices=("json", "table"), default="table")

    num = {"type": int}
    hilbert = _typed(_ints, "comma-separated Hilbert function")
    space = {"help": "form space JSON file"}
    add("cells enum", cmd_cells_enum, "list the cells for a Hilbert function", T=hilbert)
    add("code", cmd_code, "hook code of a partition",
        partition=_typed(_partition, "comma-separated parts, weakly decreasing and positive"))
    add("decode", cmd_decode, "partition with a given hook code",
        T=hilbert, code=_typed(_code, "JSON list of code components"))
    add("betti", cmd_betti, "Poincare polynomial and cell count", T=hilbert)
    add("wronskian", cmd_wronskian, "Wronskian of a form space", space=space)
    add("qram", cmd_qram, "ramification of a form space at a point", space=space,
        point=_typed(binforms.PointP1.parse, "a,b for the form a*x+b*y, not both 0"))
    add("build-ideal", cmd_build_ideal, "ideal from cell parameters",
        params={"help": "cell parameters JSON file"})
    add("grass degree", cmd_grass_degree, "Pluecker degree via Pieri iteration", d=num, n=num)
    add("intersect", cmd_intersect, "intersect ramification conditions", d=num, j=num,
        conditions={"help": "JSON file of x-power lists"})
    add("ring mul", cmd_ring_mul, "product of two basis classes", mu=num, j=num,
        x=_typed(_pair, "a,b of the first class"), y=_typed(_pair, "a,b of the second class"))
    add("secant pullback", cmd_secant_pullback, "class of a rank stratum pullback",
        mu=num, j=num, i=num)
    add("hankel rank", cmd_hankel_rank, "exact rank of a Hankel matrix", mu=num,
        coeffs={"help": "JSON file with coefficients"})
    add("example-7-4", cmd_example, "worked triple-ramification count")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except HookcellsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
