"""Command-line front end.

Every library operation family is exposed as a subcommand; ``--format json``
emits exactly the module serializers' JSON so output can be piped back in.
Usage errors exit with 2, domain errors with 1 and the error class name on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import binforms, cells, hookcode, partitions, schubert, secant
from .errors import HookcellsError


def dumps(data) -> str:
    return json.dumps(data)


def _parse_ints(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _point(text):
    try:
        return binforms.PointP1.parse(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid point {text!r}: expected a,b with rationals a and b not both 0"
        ) from None


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args, json_data, table_lines):
    if args.format == "json":
        print(dumps(json_data))
    else:
        for line in table_lines:
            print(line)


def _strip_zeros(q):
    return [v for v in q if v]


def _code_str(d: hookcode.HookCode) -> str:
    bits = [
        f"Q{d.mu + k}={_strip_zeros(q)}".replace(" ", "")
        for k, q in enumerate(d.qs)
    ]
    return ", ".join(bits) if bits else "(empty code)"


def _poincare_str(T) -> str:
    factors = hookcode.poincare_factors(T)
    groups: list[list] = []
    for f in factors:
        if groups and groups[-1][0] == f:
            groups[-1][1] += 1
        else:
            groups.append([f, 1])

    def poly_str(f):
        bits = []
        for u, c in enumerate(f):
            if not c:
                continue
            mono = "1" if u == 0 else (f"q^{2 * u}" if u else "")
            bits.append(mono if c == 1 and u else (str(c) if u == 0 else f"{c}q^{2 * u}"))
        return "+".join(bits) or "1"

    if not groups:
        return "1"
    return " * ".join(
        f"({poly_str(f)})^{m}" if m > 1 else f"({poly_str(f)})" for f, m in groups
    )


def cmd_cells_enum(args):
    T = partitions.HilbertFunction(_parse_ints(args.T))
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
    p = partitions.Partition(_parse_ints(args.partition))
    d = hookcode.code(p)
    _emit(args, d.to_json(), [_code_str(d)])


def cmd_decode(args):
    T = partitions.HilbertFunction(_parse_ints(args.T))
    qs = json.loads(args.code)
    bx = hookcode.BoxSequence(T)
    padded = tuple(
        tuple(list(q) + [0] * (bx.box(T.mu + k)[0] - len(q)))
        for k, q in enumerate(qs)
    )
    d = hookcode.HookCode(T.mu, T.j, padded)
    p = hookcode.decode(T, d)
    _emit(args, p.to_json(), [",".join(map(str, p.parts))])


def cmd_betti(args):
    T = partitions.HilbertFunction(_parse_ints(args.T))
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
    space = binforms.FormSpace.from_json(_load_json(args.space))
    w = binforms.wronskian(space)
    _emit(args, w.to_json(), [f"W = {w}", f"degree {w.degree}"])


def cmd_qram(args):
    space = binforms.FormSpace.from_json(_load_json(args.space))
    rd = binforms.ram_data(space, args.point)
    _emit(
        args,
        rd.to_json(),
        [
            f"degree sequence: {list(rd.degree_sequence)}",
            f"QRAM: {list(rd.qram)}  (r = {rd.total})",
            f"Q: {list(rd.code)}",
        ],
    )


def cmd_build_ideal(args):
    params = cells.CellParams.from_json(_load_json(args.params))
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
    data = _load_json(args.conditions)
    conds = data["conditions"] if isinstance(data, dict) else data
    cls = schubert.intersect_ramification(args.d, args.j, conds)
    _emit(args, cls.to_json(), [str(cls)])


def cmd_ring_mul(args):
    ax, bx = _parse_ints(args.x)
    ay, by = _parse_ints(args.y)
    x = secant.BundleClass.basis(args.mu, args.j, ax, bx)
    y = secant.BundleClass.basis(args.mu, args.j, ay, by)
    prod = secant.t_multiply(x, y)
    _emit(args, prod.to_json(), [f"[{ax},{bx}]*[{ay},{by}] = {prod}"])


def cmd_secant_pullback(args):
    cls = secant.secant_pullback(args.mu, args.j, args.i)
    _emit(args, cls.to_json(), [str(cls)])


def cmd_hankel_rank(args):
    data = _load_json(args.coeffs)
    coeffs = [binforms.parse_fraction(c) for c in data["coeffs"]]
    if not data.get("scaled", True):
        form = binforms.BinaryForm(len(coeffs) - 1, coeffs)
        coeffs = list(secant.scaled_coefficients(form))
    r = secant.hankel_rank(coeffs, args.mu)
    _emit(args, {"mu": args.mu, "rank": r}, [f"rank={r}"])


def cmd_example(args):
    res = secant.ramification_count_example()
    data = {
        "count": res.count,
        "product_class": res.product_class.to_json(),
        "det_poly": [binforms.format_fraction(c) for c in res.det_poly],
        "det_degree": res.det_degree,
        "root_count": res.root_count,
    }
    lines = [
        f"count={res.count}",
        f"product class: {res.product_class}",
        f"det degree={res.det_degree}, roots with multiplicity={res.root_count}",
    ]
    _emit(args, data, lines)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hookcells",
        description="cell decompositions, hook codes, Wronskians and Hankel strata",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(parser_args, fn, **kwargs):
        p = sub.add_parser(*parser_args, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--format", choices=("json", "table"), default="table")
        return p

    cells_p = sub.add_parser("cells", help="cell decomposition commands")
    cells_sub = cells_p.add_subparsers(dest="subcommand", required=True)
    enum_p = cells_sub.add_parser("enum", help="list the cells for a Hilbert function")
    enum_p.set_defaults(fn=cmd_cells_enum)
    enum_p.add_argument("--T", required=True, help="comma-separated Hilbert function")
    enum_p.add_argument("--format", choices=("json", "table"), default="table")

    p = add(("code",), cmd_code, help="hook code of a partition")
    p.add_argument("--partition", required=True)

    p = add(("decode",), cmd_decode, help="partition with a given hook code")
    p.add_argument("--T", required=True)
    p.add_argument("--code", required=True, help="JSON list of code components")

    p = add(("betti",), cmd_betti, help="Poincare polynomial and cell count")
    p.add_argument("--T", required=True)

    p = add(("wronskian",), cmd_wronskian, help="Wronskian of a form space")
    p.add_argument("--space", required=True, help="form space JSON file")

    p = add(("qram",), cmd_qram, help="ramification of a form space at a point")
    p.add_argument("--space", required=True)
    p.add_argument("--point", required=True, type=_point, help="a,b for the form a*x+b*y")

    p = add(("build-ideal",), cmd_build_ideal, help="ideal from cell parameters")
    p.add_argument("--params", required=True, help="cell parameters JSON file")

    grass_p = sub.add_parser("grass", help="Grassmannian commands")
    grass_sub = grass_p.add_subparsers(dest="subcommand", required=True)
    deg_p = grass_sub.add_parser("degree", help="Pluecker degree via Pieri iteration")
    deg_p.set_defaults(fn=cmd_grass_degree)
    deg_p.add_argument("--d", type=int, required=True)
    deg_p.add_argument("--n", type=int, required=True)
    deg_p.add_argument("--format", choices=("json", "table"), default="table")

    p = add(("intersect",), cmd_intersect, help="intersect ramification conditions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--conditions", required=True, help="JSON file of x-power lists")

    ring_p = sub.add_parser("ring", help="cell-class ring commands")
    ring_sub = ring_p.add_subparsers(dest="subcommand", required=True)
    mul_p = ring_sub.add_parser("mul", help="product of two basis classes")
    mul_p.set_defaults(fn=cmd_ring_mul)
    mul_p.add_argument("--mu", type=int, required=True)
    mul_p.add_argument("--j", type=int, required=True)
    mul_p.add_argument("--x", required=True, help="a,b of the first class")
    mul_p.add_argument("--y", required=True, help="a,b of the second class")
    mul_p.add_argument("--format", choices=("json", "table"), default="table")

    secant_p = sub.add_parser("secant", help="secant stratum commands")
    secant_sub = secant_p.add_subparsers(dest="subcommand", required=True)
    pull_p = secant_sub.add_parser("pullback", help="class of a rank stratum pullback")
    pull_p.set_defaults(fn=cmd_secant_pullback)
    pull_p.add_argument("--mu", type=int, required=True)
    pull_p.add_argument("--j", type=int, required=True)
    pull_p.add_argument("--i", type=int, required=True)
    pull_p.add_argument("--format", choices=("json", "table"), default="table")

    hankel_p = sub.add_parser("hankel", help="Hankel matrix commands")
    hankel_sub = hankel_p.add_subparsers(dest="subcommand", required=True)
    rank_p = hankel_sub.add_parser("rank", help="exact rank of a Hankel matrix")
    rank_p.set_defaults(fn=cmd_hankel_rank)
    rank_p.add_argument("--mu", type=int, required=True)
    rank_p.add_argument("--coeffs", required=True, help="JSON file with coefficients")
    rank_p.add_argument("--format", choices=("json", "table"), default="table")

    add(("example-7-4",), cmd_example, help="worked triple-ramification count")
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
