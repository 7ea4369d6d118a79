"""The three benchmark workloads: input generators, items and output checks.

A workload hands out its items in *blocks*. Block ``k`` is a fixed multiset of
item shapes (the same for every seed) whose parameters and order come from
``random.Random(f"{name}:{seed}:{k}")``. A run processes whole blocks, so the
mix of cheap and expensive items is the same on every seed and only the
random coefficients change; that is what keeps the end-to-end figures steady
from seed to seed.

The library is only ever handed the generated inputs. Every check compares a
library result with a value the generator knows or computes on its own
(shape enumeration, diagonal lengths, hook counts, the hook-content formula,
the exact Wronskian of a two-point space), never with a second run of the
code path it checks. ``check`` returns ``None`` on success and a one-line
description of the mismatch otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial


@dataclass
class Item:
    kind: str
    args: tuple
    expect: dict = field(default_factory=dict)


# -- generator-side combinatorics, independent of the library ----------------

def partitions_upto(n_max):
    """Every nonempty partition with at most ``n_max`` cells, as tuples."""
    out = []

    def rec(rem, mx, pref):
        if pref:
            out.append(tuple(pref))
        for k in range(min(rem, mx), 0, -1):
            pref.append(k)
            rec(rem - k, k, pref)
            pref.pop()

    rec(n_max, n_max, [])
    return out


def col_lengths(parts):
    return [sum(1 for p in parts if p > c) for c in range(parts[0])]


def diagonal_profile(parts):
    t = [0] * (max(r + p for r, p in enumerate(parts)))
    for r, p in enumerate(parts):
        for c in range(p):
            t[r + c] += 1
    return tuple(t)


def diff_one_hooks(parts):
    cols = col_lengths(parts)
    return sum(1 for r, p in enumerate(parts) for c in range(p) if (p - c) - (cols[c] - r) == 1)


def rank(rows):
    """Rank of a small matrix of Fractions by plain elimination."""
    m = [list(r) for r in rows]
    rk = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, len(m)):
            f = m[i][c] / m[rk][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
        rk += 1
    return rk


def hook_content_degree(d, n):
    """Pluecker degree of Grass(d, n): N! * prod_i i! / (n - d + i)!."""
    num, den = factorial(d * (n - d)), 1
    for i in range(d):
        num *= factorial(i)
        den *= factorial(n - d + i)
    if num % den:
        raise ValueError("hook-content formula is not integral")
    return num // den


class Workload:
    name = ""
    trace_blocks = 1
    sample_every = 1  # items per reference-task sample (calibrate.py), 30 ms of work or more

    def __init__(self, hc, seed):
        self.hc = hc
        self.seed = seed

    def rng(self, k):
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def block(self, k):
        raise NotImplementedError

    def warm_up(self, items):
        """Run the cheap items and fill lazy tables; part of every set-up."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError


class CellRoundtrip(Workload):
    """Each item realizes random cell coordinates of one shape E with
    n(T) <= 10 as a graded ideal and reads its initial ideal back at x = 0.
    A block visits all 138 shapes once, in seeded order."""

    name = "cell-roundtrip"
    sample_every = 3
    MAX_N = 10

    def __init__(self, hc, seed):
        super().__init__(hc, seed)
        self.shapes = [(p, diagonal_profile(p), diff_one_hooks(p)) for p in partitions_upto(self.MAX_N)]

    def block(self, k):
        rng = self.rng(k)
        order = list(self.shapes)
        rng.shuffle(order)
        return [
            Item("cell", (parts, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(npairs))),
                 {"parts": parts, "t": t})
            for parts, t, npairs in order
        ]

    def warm_up(self, items):
        for item in [it for it in items if sum(it.args[0]) <= 4]:
            self.check(item, self.run(item))

    def run(self, item):
        hc = self.hc
        parts, values = item.args
        E = hc.MonomialIdeal(hc.Partition(parts))
        params = hc.CellParams(E, dict(zip(hc.pair_set_S(E), values)))
        ideal = hc.build_ideal(params)
        return ideal, hc.initial_ideal(ideal, hc.POINT_X)

    def check(self, item, result):
        ideal, initial = result
        if initial.partition.parts != item.expect["parts"]:
            return f"initial ideal {initial.partition.parts} != E {item.expect['parts']}"
        if ideal.hilbert_function.t != item.expect["t"]:
            return f"Hilbert function {ideal.hilbert_function.t} != T {item.expect['t']}"
        return None


def _power_row(j, a, r):
    """Coefficients of x^a (x - r y)^(j - a) on x^(j-k) y^k."""
    return [Fraction(comb(j - a, k)) * (-r) ** k if k <= j - a else Fraction(0) for k in range(j + 1)]


class Wronskian(Workload):
    """Each item is a d-dimensional space of degree-j forms, 2 <= d <= 6 and
    d + 2 <= j <= 2d + 3, run through ``wronskian`` and then
    ``total_ramification_check``. A block holds every (d, j) pair as a
    dense random space and as a two-point space span{x^a (x - r y)^(j - a)},
    the two kinds alternating. Pairs with d <= 4 appear three times per
    kind: they cost little, and they give both quantiles more items around
    them, so that ``item_ms_p50`` and ``item_ms_p90`` vary less from seed
    to seed (the cost of one (d, j, kind) varies by 20-30% with the seed)."""

    name = "wronskian"
    GRID = [(d, j) for d in range(2, 7) for j in range(d + 2, 2 * d + 4) for _ in range(3 if d <= 4 else 1)]

    def block(self, k):
        rng = self.rng(k)
        dense = [self._dense(rng, d, j) for d, j in self.GRID]
        two_point = [self._two_point(rng, d, j) for d, j in self.GRID]
        rng.shuffle(dense)
        rng.shuffle(two_point)
        return [item for pair in zip(dense, two_point) for item in pair]

    @staticmethod
    def _dense(rng, d, j):
        while True:
            rows = tuple(
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in range(j + 1)) for _ in range(d)
            )
            if rank(rows) == d:
                return Item("dense", (d, j, rows), {"degree": d * (j + 1 - d)})

    @staticmethod
    def _two_point(rng, d, j):
        # m = sum(powers) - C(d, 2) is fixed to half the Wronskian's degree
        # and r = +-p/q with the primes p, q fixed by (d, j), so the rational
        # root search always tries 2 (n + 1)^2 candidates of the same sizes:
        # the cost of an item depends on (d, j), hardly on the seed.
        degree = d * (j + 1 - d)
        m = degree // 2
        powers = list(range(d))
        for _ in range(m):
            i = rng.choice([i for i in range(d) if powers[i] + 1 <= j and powers[i] + 1 not in powers])
            powers[i] += 1
        p, q = ((2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 3))[(d + j) % 6]
        r = Fraction(rng.choice((-1, 1)) * p, q)
        rows = tuple(tuple(_power_row(j, a, r)) for a in powers)
        n = degree - m
        w = [Fraction(comb(n, k)) * (-r) ** k if k <= n else Fraction(0) for k in range(m + n + 1)]
        return Item("two-point", (d, j, rows), {"degree": m + n, "m": m, "n": n, "r": r, "w": tuple(w)})

    def warm_up(self, items):
        for item in [it for it in items if it.args[0] == 2]:
            self.check(item, self.run(item))

    def run(self, item):
        hc = self.hc
        _, j, rows = item.args
        space = hc.FormSpace(j, rows)
        return hc.wronskian(space), hc.total_ramification_check(space)

    def check(self, item, result):
        w, summary = result
        want = item.expect["degree"]
        if w.degree != want or summary.degree != want:
            return f"Wronskian degree {w.degree}/{summary.degree} != d*codim {want}"
        vals = summary.rational_point_valuations
        if any(v <= 0 for v in vals.values()) or summary.irrational_degree < 0:
            return f"non-positive multiplicity in {vals}, irrational {summary.irrational_degree}"
        if sum(vals.values()) + summary.irrational_degree != want:
            return f"valuations {sorted(vals.values())} + {summary.irrational_degree} != {want}"
        if item.kind == "two-point":
            if tuple(w.coeffs) != item.expect["w"]:
                return "Wronskian is not x^m (x - r y)^n"
            got = {(p.a, p.b): v for p, v in vals.items()}
            m, n, r = item.expect["m"], item.expect["n"], item.expect["r"]
            expected = {pt: v for pt, v in (((1, 0), m), ((1, -r), n)) if v}
            if got != expected or summary.irrational_degree:
                return f"zeros {got} != {expected}"
        return None


# The combinatorics mix: item kinds in fixed proportions per block.
# Counts are set so that each kind takes a similar share of a block's time.
COMBINATORICS_MIX = (("hook", 3), ("cli", 1), ("intersect", 10), ("grass", 10), ("tmul", 16), ("hankel", 14))


def _betti_json(hc, t):
    T = hc.HilbertFunction(t)
    return {
        "t": T.to_json(),
        "factors": [list(f) for f in hc.poincare_factors(T)],
        "betti": list(hc.betti_numbers(T)),
        "poincare": list(hc.poincare(T)),
        "b": hc.cell_count(T),
    }


def _cells_json(hc, t):
    out = []
    for p in hc.enumerate_with_diagonal_lengths(hc.HilbertFunction(t)):
        dm = hc.dims(hc.MonomialIdeal(p))
        out.append({"partition": p.to_json(), "code": hc.code(p).to_json(), "dim": dm.dim_v, "codim": dm.codim_v})
    return out


def _ring_json(hc, mu, j, x, y):
    return hc.t_multiply(hc.BundleClass.basis(mu, j, *x), hc.BundleClass.basis(mu, j, *y)).to_json()


# Fixed in-process CLI corpus: (argv, the library's answer through direct
# calls or a closed form). Every argv also gets "--format json".
CLI_CORPUS = (
    (("code", "--partition", "5,2,1,1"), lambda hc: hc.code(hc.Partition([5, 2, 1, 1])).to_json()),
    (("code", "--partition", "4,4,2,1"), lambda hc: hc.code(hc.Partition([4, 4, 2, 1])).to_json()),
    (("decode", "--T", "1,2,3,2,1", "--code", "[[0],[2]]"), lambda hc: [5, 2, 1, 1]),
    (("betti", "--T", "1,2,3,2,1"), lambda hc: _betti_json(hc, (1, 2, 3, 2, 1))),
    (("betti", "--T", "1,2,3,3,2,1"), lambda hc: _betti_json(hc, (1, 2, 3, 3, 2, 1))),
    (("cells", "enum", "--T", "1,2,3,3,2,1"), lambda hc: _cells_json(hc, (1, 2, 3, 3, 2, 1))),
    (("grass", "degree", "--d", "2", "--n", "6"), lambda hc: {"d": 2, "n": 6, "degree": hook_content_degree(2, 6)}),
    (("grass", "degree", "--d", "3", "--n", "7"), lambda hc: {"d": 3, "n": 7, "degree": hook_content_degree(3, 7)}),
    (("ring", "mul", "--mu", "3", "--j", "6", "--x", "1,1", "--y", "0,2"), lambda hc: _ring_json(hc, 3, 6, (1, 1), (0, 2))),
    (("ring", "mul", "--mu", "4", "--j", "9", "--x", "1,2", "--y", "2,1"), lambda hc: _ring_json(hc, 4, 9, (1, 2), (2, 1))),
    (("secant", "pullback", "--mu", "3", "--j", "6", "--i", "2"), lambda hc: hc.secant_pullback(3, 6, 2).to_json()),
    (("secant", "pullback", "--mu", "4", "--j", "10", "--i", "2"), lambda hc: hc.secant_pullback(4, 10, 2).to_json()),
)


class Combinatorics(Workload):
    """A seeded mix of cheap queries over partitions, hook codes, Schubert
    calculus, the bundle ring, Hankel ranks and the CLI; each block holds the
    kinds of ``COMBINATORICS_MIX`` in its fixed proportions."""

    name = "combinatorics"
    trace_blocks = 6
    sample_every = 80
    MAX_N = 14

    def __init__(self, hc, seed):
        super().__init__(hc, seed)
        by_t = {}
        for p in partitions_upto(self.MAX_N):
            by_t.setdefault(diagonal_profile(p), []).append(p)
        self.shapes_by_t = {t: frozenset(ps) for t, ps in by_t.items()}
        self.t_pool = sorted(by_t, key=lambda t: (sum(t), t))
        self.cli_expect = [json.loads(json.dumps(answer(hc))) for _, answer in CLI_CORPUS]

    def block(self, k):
        rng = self.rng(k)
        items = []
        for kind, count in COMBINATORICS_MIX:
            for _ in range(count):
                items.append(getattr(self, "_gen_" + kind)(rng))
        rng.shuffle(items)
        return items

    def _gen_hook(self, rng):
        t = rng.choice(self.t_pool)
        return Item("hook", (t,), {"count": len(self.shapes_by_t[t])})

    def _gen_intersect(self, rng):
        d, c = rng.randint(1, 4), rng.randint(1, 6)
        j = d + c - 1
        conds = []
        for _ in range(rng.randint(2, 4)):
            # ramification partition with parts up to c // 2, as x-powers
            qram = sorted(rng.randint(0, c // 2) for _ in range(d))
            conds.append(tuple(i + q for i, q in enumerate(qram)))
        conds = tuple(conds)
        total = sum(n - i for powers in conds for i, n in enumerate(powers))
        return Item("intersect", (d, j, conds), {"codim": total, "box": (d, c)})

    def _gen_grass(self, rng):
        n = rng.randint(2, 10)
        d = rng.randint(1, n - 1)
        return Item("grass", (d, n), {"degree": hook_content_degree(d, n)})

    def _gen_tmul(self, rng):
        mu = rng.randint(1, 5)
        j = rng.randint(mu + 1, 2 * mu + 3)
        basis = [(a, b) for a in range(mu) for b in range(mu + 1)]

        def combo():
            return tuple((ab, rng.choice([-3, -2, -1, 1, 2, 3])) for ab in rng.sample(basis, rng.randint(1, len(basis))))

        return Item("tmul", (mu, j, combo(), combo()))

    def _gen_hankel(self, rng):
        j = rng.randint(6, 9)
        mu = rng.randint(2, (j - 1) // 2)
        m = rng.randint(1, mu)
        a = [Fraction(0)] * (j + 1)
        for beta in rng.sample(range(-4, 5), m):
            c = rng.randint(1, 9)
            for i in range(j + 1):
                a[i] += c * Fraction(beta) ** i
        return Item("hankel", (tuple(a), mu), {"rank": m})

    def _gen_cli(self, rng):
        idx = rng.randrange(len(CLI_CORPUS))
        return Item("cli", (idx, CLI_CORPUS[idx][0] + ("--format", "json")))

    def warm_up(self, items):
        """Fill the per-T decode tables for every T in the pool and the
        partition tables of every box, and parse one CLI call."""
        hc = self.hc
        for t in self.t_pool:
            T = hc.HilbertFunction(t)
            hc.decode(T, hc.code(hc.Partition(min(self.shapes_by_t[t]))))
        for d in range(1, 5):
            for c in range(1, 7):
                hc.intersect_ramification(d, d + c - 1, [tuple(range(d))])
        item = next(it for it in items if it.kind == "cli")
        self.check(item, self.run(item))

    def run(self, item):
        return getattr(self, "_run_" + item.kind)(*item.args)

    def check(self, item, result):
        return getattr(self, "_check_" + item.kind)(item, result)

    def _run_hook(self, t):
        hc = self.hc
        T = hc.HilbertFunction(t)
        shapes = hc.enumerate_with_diagonal_lengths(T)
        codes = [hc.code(p) for p in shapes]
        decoded = [hc.decode(T, c) for c in codes]
        duals_ok = [hc.code(p.dual()) == hc.complement(T, c) for p, c in zip(shapes, codes)]
        image = set(hc.all_codes(T))
        return shapes, codes, decoded, duals_ok, image, hc.betti_numbers(T), hc.cell_count(T)

    def _check_hook(self, item, result):
        shapes, codes, decoded, duals_ok, image, betti, count = result
        (t,) = item.args
        parts = [p.parts for p in shapes]
        if len(parts) != item.expect["count"] or set(parts) != self.shapes_by_t[t]:
            return f"enumeration of {t} gave {len(parts)} shapes, expected {item.expect['count']}"
        if decoded != list(shapes):
            return f"decode(code(p)) != p for T={t}"
        if not all(duals_ok):
            return f"code of a dual is not the complement for T={t}"
        if image != set(codes) or len(image) != len(codes):
            return f"codes of T={t} are not a bijection onto all_codes"
        lengths = [diff_one_hooks(p) for p in parts]
        if [c.length for c in codes] != lengths:
            return f"code lengths differ from difference-one hook counts for T={t}"
        hist = [0] * len(betti)
        for n in lengths:
            hist[n] += 1
        if tuple(hist) != tuple(betti) or count != len(parts):
            return f"Betti numbers {betti} / cell_count {count} disagree with the shapes of T={t}"
        return None

    def _run_intersect(self, d, j, conds):
        return self.hc.intersect_ramification(d, j, conds)

    def _check_intersect(self, item, result):
        rows, cols = item.expect["box"]
        total = item.expect["codim"]
        if tuple(result.box) != (rows, cols):
            return f"class lives in box {result.box}, expected {(rows, cols)}"
        if total > rows * cols and not result.is_zero:
            return f"codimension {total} exceeds the box but the class is {result}"
        for parts, coeff in result.terms:
            if sum(parts) != total or coeff <= 0 or len(parts) > rows or (parts and parts[0] > cols):
                return f"term {parts}:{coeff} does not have codimension {total} in the box"
        return None

    def _run_grass(self, d, n):
        return self.hc.grass_degree(d, n)

    def _check_grass(self, item, result):
        if result != item.expect["degree"]:
            return f"grass_degree{item.args} = {result}, hook-content formula gives {item.expect['degree']}"
        return None

    def _run_tmul(self, mu, j, x_terms, y_terms):
        hc = self.hc
        x = hc.BundleClass.make(mu, j, dict(x_terms))
        y = hc.BundleClass.make(mu, j, dict(y_terms))
        return hc.t_multiply(x, y), hc.t_multiply(y, x)

    def _check_tmul(self, item, result):
        xy, yx = result
        if xy != yx:
            return f"t_multiply is not commutative: {xy} != {yx}"
        return None

    def _run_hankel(self, coeffs, mu):
        return self.hc.hankel_rank(coeffs, mu)

    def _check_hankel(self, item, result):
        if result != item.expect["rank"]:
            return f"Hankel rank {result} of a sum of {item.expect['rank']} distinct powers"
        return None

    def _run_cli(self, idx, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.hc.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def _check_cli(self, item, result):
        code, out, err = result
        idx, argv = item.args
        if code != 0:
            return f"cli {' '.join(argv)} exited {code}: {err.strip()}"
        if json.loads(out) != self.cli_expect[idx]:
            return f"cli {' '.join(argv)} printed {out.strip()[:80]}, library says otherwise"
        return None


WORKLOADS = {w.name: w for w in (CellRoundtrip, Wronskian, Combinatorics)}
