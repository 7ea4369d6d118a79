"""Monomial ideals in two variables and the affine cells they label.

A monomial ideal E of finite colength is recorded by the partition shape of
its complementary monomials (cell ``(r, c)`` is the monomial ``x^c y^r``).
The graded ideals whose degreewise initial monomials equal E form an affine
cell; its free coordinates sit on the pairs of :func:`pair_set_S`, one per
difference-one hook of the shape, and :func:`build_ideal` realizes any choice
of coordinates as an actual ideal by descending induction on x-powers.

Monomials are (x_power, y_power) pairs, ordered by total degree and then by
x-power: 1 < y < x < y^2 < x*y < x^2 < ...
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .binforms import BinaryForm, FormSpace, PointP1, POINT_X, _orders, ram_data
from .errors import InconsistentParams, InternalError, NotAnIdeal, NotInBigCell, OutOfRange
from .hookcode import HookCode, decode
from .partitions import (
    HilbertFunction, Partition, _conjugate, _decimal, _rational, as_hilbert, hooks, ramification_partition,
    t_invariants,
)

Monomial = tuple[int, int]


def mono_key(m: Monomial):
    return (m[0] + m[1], m[0])


def mono_str(m: Monomial) -> str:
    return f"x^{m[0]} y^{m[1]}"


def parse_mono(s: str) -> Monomial:
    xs, ys = s.split()
    if not xs.startswith("x^") or not ys.startswith("y^"):
        raise ValueError(f"expected 'x^a y^b', got {s!r}")
    return (int(xs[2:]), int(ys[2:]))


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    """A finite-colength monomial ideal, known by its cobasis shape."""

    partition: Partition

    def __init__(self, partition: Partition):
        if not isinstance(partition, Partition):
            partition = Partition(partition)
        object.__setattr__(self, "partition", partition)

    @property
    def hilbert_function(self) -> HilbertFunction:
        return self.partition.diagonal_lengths()

    def __repr__(self):
        return f"MonomialIdeal({list(self.partition.parts)})"

    def contains(self, m: Monomial) -> bool:
        xp, yp = m
        parts = self.partition.parts
        return yp >= len(parts) or xp >= parts[yp]

    def cobasis(self, degree: int | None = None) -> tuple[Monomial, ...]:
        out = [(c, r) for (r, c) in self.partition.cells()]
        if degree is not None:
            out = [m for m in out if m[0] + m[1] == degree]
        return tuple(sorted(out, key=mono_key))

    def piece(self, degree: int) -> tuple[Monomial, ...]:
        """Monomials of the ideal in one degree."""
        return tuple(
            m for m in ((degree - yp, yp) for yp in range(degree + 1)) if self.contains(m)
        )

    def dual(self) -> "MonomialIdeal":
        """Swap the variables x and y."""
        return MonomialIdeal(self.partition.dual())

    def column_heights(self) -> tuple[int, ...]:
        """q(c) for c = 0..p0: the y-power of the lowest ideal monomial with
        x-power c.  The sequence is the dual partition followed by 0."""
        return (*_conjugate(self.partition.parts), 0)


def pair_set_S(E: MonomialIdeal, degree: int | None = None) -> tuple[tuple[Monomial, Monomial], ...]:
    """Ordered pairs (mu, nu) carrying the free cell coordinates.

    mu runs over ideal monomials one step below a column of the shape, nu
    over same-degree cobasis monomials past mu whose x-shift leaves the
    shape; the pairs correspond to the difference-one hooks (foot, hand)
    via mu = y * foot, nu = hand.  One scan of the rows reads them off the
    column heights q: the hook at (r, c) has arm parts[r] - c and leg
    q(c) - r, so mu = x^c y^(q(c)) and nu = x^(parts[r] - 1) y^r.
    """
    parts = E.partition.parts
    q = E.column_heights()
    out = []
    for r, pr in enumerate(parts):
        d = r + pr - 1
        if degree is None or d == degree:
            out.extend((d, c, pr - 1, r) for c in range(pr) if c + q[c] == d)
    out.sort()
    return tuple(((c, d - c), (a, r)) for d, c, a, r in out)


@dataclass(frozen=True)
class WPairs:
    """The mixed-degree pairs counting hooks of difference at least 2 in
    absolute value; ``w`` is their total number."""

    wplus: tuple[tuple[Monomial, Monomial], ...]
    wminus: tuple[tuple[Monomial, Monomial], ...]

    @property
    def w(self) -> int:
        return len(self.wplus) + len(self.wminus)


def pair_set_W(E: MonomialIdeal) -> WPairs:
    plus, minus = [], []
    for h in hooks(E.partition):
        (hr, hc), (fr, fc) = h.hand, h.foot
        if h.difference >= 2:
            plus.append(((fc, fr + 1), (hc, hr)))
        elif h.difference <= -2:
            minus.append(((hc + 1, hr), (fc, fr)))

    def key(pair):
        return (mono_key(pair[0]), mono_key(pair[1]))

    return WPairs(tuple(sorted(plus, key=key)), tuple(sorted(minus, key=key)))


# Largest top degree j of a shape that CellParams, and so build_ideal and
# `build-ideal`, accept (README, "Cells").
MAX_IDEAL_DEGREE = 64


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CellParams:
    """A choice of rational value for every pair in S(E); ``OutOfRange`` for
    a shape of top degree above ``MAX_IDEAL_DEGREE``."""

    ideal: MonomialIdeal
    values: dict

    def __init__(self, ideal: MonomialIdeal, values: dict):
        j = max((r + pr - 1 for r, pr in enumerate(ideal.partition.parts)), default=-1)
        if j > MAX_IDEAL_DEGREE:
            raise OutOfRange(f"shape of top degree j = {j} is above the limit {MAX_IDEAL_DEGREE}")
        pairs = set(pair_set_S(ideal))
        if values.keys() != pairs:
            unexpected = sorted(values.keys() - pairs, key=repr)
            missing = sorted(pairs - values.keys(), key=repr)
            raise InconsistentParams(f"values must match S(E): unexpected {unexpected}, missing {missing}")
        values = {
            (mu, nu): v if type(v) is Fraction else _rational(
                v, f"value of pair ({mono_str(mu)}, {mono_str(nu)})", InconsistentParams
            )
            for (mu, nu), v in values.items()
        }
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "values", values)

    def to_json(self):
        return {
            "partition": self.ideal.partition.to_json(),
            "params": [
                {"mu": mono_str(mu), "nu": mono_str(nu), "value": _decimal(self.values[(mu, nu)])}
                for (mu, nu) in pair_set_S(self.ideal)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "CellParams":
        ideal = MonomialIdeal(Partition.from_json(data["partition"]))
        values = {}
        for entry in data["params"]:
            mu, nu = parse_mono(entry["mu"]), parse_mono(entry["nu"])
            if (mu, nu) in values:
                raise InconsistentParams(f"pair ({mono_str(mu)}, {mono_str(nu)}) is given twice")
            values[mu, nu] = entry["value"]
        return cls(ideal, values)

    @classmethod
    def zeros(cls, ideal: MonomialIdeal) -> "CellParams":
        return cls(ideal, {pair: Fraction(0) for pair in pair_set_S(ideal)})


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class GradedIdeal:
    """A graded ideal with the prescribed Hilbert function.

    Stores the degreewise pieces (authoritative for rank queries) together
    with the standard-form generators it was built from, when known.
    :func:`build_ideal` hands them over as ``_rows``, primitive integer
    rows each ending at its leading entry, and the first read of
    ``generators`` divides each row by that entry and keeps the forms.
    """

    hilbert_function: HilbertFunction
    pieces: dict
    _rows: tuple | None
    _generators: tuple[BinaryForm, ...] | None

    def __init__(self, hilbert_function: HilbertFunction, pieces: dict, generators=(), *, _rows=None):
        T = as_hilbert(hilbert_function)
        for i in range(T.mu, T.j + 1):
            if i not in pieces:
                raise NotAnIdeal(f"missing degree-{i} piece")
            if not isinstance(pieces[i], FormSpace) or pieces[i].degree != i:
                raise NotAnIdeal(f"degree-{i} piece is not a FormSpace of degree {i}: {pieces[i]!r}")
            dim = i + 1 - T.value(i)
            if pieces[i].dim != dim:
                raise NotAnIdeal(f"degree-{i} piece has dimension {pieces[i].dim}, expected {dim}")
        for i in range(T.mu, T.j):
            nxt = pieces[i + 1]
            stored = set(nxt._echelon)
            for row in pieces[i]._echelon:
                # (*row, 0) is x * f and (0, *row) is y * f, integer rows; one
                # equal to a stored row of the next piece is a member unreduced
                for v in ((*row, 0), (0, *row)):
                    if v not in stored and not nxt._holds(v):
                        raise NotAnIdeal(f"degree-{i} piece is not closed under multiplication")
        object.__setattr__(self, "hilbert_function", T)
        object.__setattr__(self, "pieces", dict(pieces))
        object.__setattr__(self, "_rows", _rows)
        object.__setattr__(self, "_generators", None if _rows is not None else tuple(generators))

    @property
    def generators(self) -> tuple[BinaryForm, ...]:
        if self._generators is None:
            zero = Fraction(0)
            forms = []
            for row in self._rows:
                lead = row[linalg._last(row)]
                forms.append(BinaryForm(len(row) - 1, [Fraction(u, lead) if u else zero for u in row]))
            object.__setattr__(self, "_generators", tuple(forms))
        return self._generators


def _multiple(m: Monomial, gens: dict, q) -> list:
    """The row of the generator multiple whose initial monomial is the ideal
    monomial ``m``: the generator of column k = min(m[0], p0), whose initial
    monomial x^k y^(q(k)) divides ``m``, times x^sx y^sy, which puts sy
    zeros in front and sx behind."""
    k = min(m[0], len(q) - 1)
    if q[k] > m[1]:
        raise InternalError(f"ideal monomial {mono_str(m)} is not divisible by its column generator")
    return [0] * (m[1] - q[k]) + gens[k] + [0] * (m[0] - k)


def build_ideal(params: CellParams) -> GradedIdeal:
    """The unique graded ideal in the cell of E with the given coordinates.

    Standard generators f(x^c y^(q(c))) are produced for c = p0 down to 0,
    each as its coefficient row (entry k is the coefficient of x^(d-k) y^k),
    so its initial monomial is its last nonzero entry.  The rows are
    integer: a generator starts as its leading monomial minus the freely
    chosen multiples of the S(E) hands, all times the lcm of the
    denominators of those values.  Multiplying by x appends a zero; every
    other term of a generator multiple has a larger x-power than its initial
    monomial, so one pass over x * f by increasing x-power reduces it
    against the generators already built, each term cleared by
    cross-multiplying with the multiple's leading entry, which scales f
    along with it.  The remainder is supported on x-shifts of cobasis
    monomials, and cancelling it forces the remaining tail coefficients.
    Each generator is kept as its primitive integer row, with a positive
    leading entry, and handed to the ideal as it is: only a read of
    ``generators`` divides it by that entry.
    Each degreewise piece then takes one generator multiple per ideal
    monomial of its degree, the multiple whose initial monomial it is, a
    primitive integer row: x^(d-y) y^y is one when y >= q(k) for its column
    k = min(d - y, p0).  Distinct initial monomials make these a basis; the
    closure check of :class:`GradedIdeal` then shows that every other
    generator multiple lies in the pieces too.
    """
    E = params.ideal
    T = E.hilbert_function
    q = E.column_heights()
    p0 = len(q) - 1
    free_by_mu: dict[Monomial, list] = {}
    for (mu, nu), value in params.values.items():
        free_by_mu.setdefault(mu, []).append((nu, value))

    gens: dict[int, list] = {p0: [1] + [0] * p0}
    for c in range(p0 - 1, -1, -1):
        d = c + q[c]
        free = free_by_mu.get((c, q[c]), ())
        den = math.lcm(*[value.denominator for _, value in free])
        f = [0] * (d + 1)
        f[q[c]] = den
        for nu, value in free:
            f[nu[1]] = -value.numerator * (den // value.denominator)
        g = f + [0]
        for yp in range(d + 1, -1, -1):
            m = (d + 1 - yp, yp)
            if g[yp] and E.contains(m):
                row = _multiple(m, gens, q)
                # not linalg._clear: f is scaled along with g, so g keeps its content
                h = math.gcd(row[yp], g[yp])
                s, t = row[yp] // h, g[yp] // h
                g = [s * u - t * v for u, v in zip(g, row)]
                if s != 1:
                    f = [s * u for u in f]
        for yp, coef in enumerate(g):
            if coef:
                if yp >= q[c] or E.contains((d - yp, yp)):
                    term = mono_str((d + 1 - yp, yp))
                    raise InconsistentParams(f"reduction left an unexpected term {term}")
                f[yp] = -coef
        h = math.gcd(*f)
        gens[c] = [u // h for u in f] if h > 1 else f

    pieces = {}
    for d in range(T.mu, T.j + 1):
        ks = [(yp, min(d - yp, p0)) for yp in range(d + 1)]
        rows = [[0] * (yp - q[k]) + gens[k] + [0] * (d - yp - k) for yp, k in ks if yp >= q[k]]
        pieces[d] = FormSpace._of_triangular_rows(d, rows)
    return GradedIdeal(T, pieces, _rows=tuple(gens[c] for c in range(p0 + 1)))


def initial_ideal(ideal: GradedIdeal, p: PointP1 = POINT_X) -> MonomialIdeal:
    """Degreewise initial monomial ideal of a graded ideal at a point.

    The returned shape lives in the (L, C) frame at ``p``: its cell (r, c)
    is the monomial L^c C^r.  One pass by increasing degree d appends each
    L-power a missing from the degree-d initial monomials to row d - a, so
    every row comes out sorted.  Diagonal d gets T(d) cells unchecked: piece
    d has dimension d + 1 - T(d) (``GradedIdeal``), one distinct order each.
    """
    T = ideal.hilbert_function
    rows = [[] for _ in range(T.j + 1)]
    for d in range(T.j + 1):
        taken = set(_orders(ideal.pieces[d], p)) if d >= T.mu else ()
        for a in range(d + 1):
            if a not in taken:
                rows[d - a].append(a)
    while rows and not rows[-1]:
        rows.pop()
    parts = []
    for r, cs in enumerate(rows):
        if cs and cs[-1] != len(cs) - 1:
            raise NotAnIdeal(f"initial monomials are not left-justified in row {r}")
        parts.append(len(cs))
    if 0 in parts or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise NotAnIdeal(f"initial monomials do not form a partition shape: {parts}")
    return MonomialIdeal(Partition(parts))


def qram_ideal(ideal: GradedIdeal, p: PointP1) -> tuple[tuple[int, ...], ...]:
    """Degreewise ramification partitions of the ideal at ``p``."""
    T = ideal.hilbert_function
    return tuple(ram_data(ideal.pieces[i], p).qram for i in range(T.mu, T.j + 1))


def qram_monomial(E: MonomialIdeal, degree: int) -> tuple[int, ...]:
    """Ramification partition of the degree piece of a monomial ideal."""
    return ramification_partition(sorted(m[0] for m in E.piece(degree)))


@dataclass(frozen=True)
class CellDims:
    """Dimension data of the cell labelled by E."""

    dim_v: int
    codim_v: int
    z: int
    v: int


def dims(E: MonomialIdeal) -> CellDims:
    """Cell dimension four ways; the two routes to dim V(E) must agree."""
    P = E.partition
    inv = t_invariants(E.hilbert_function)
    count = Counter(h.difference for h in hooks(P))
    z = inv.n - count[-1] - count[0]
    v = z - inv.f_t
    if v != count[1]:
        raise InternalError(f"cell dimension formulas disagree for {E}: {v} != {count[1]}")
    return CellDims(count[1], count[-1], z, v)


def big_cell(T) -> MonomialIdeal:
    """The dense cell: the shape whose hook code fills every box, so its
    dimension is dim G_T.  It is the unique shape with distinct parts."""
    T = as_hilbert(T)
    E = MonomialIdeal(decode(T, HookCode(T.mu, T.j, tuple((cols,) * rows for rows, cols in T.boxes))))
    parts = E.partition.parts
    if len(set(parts)) != len(parts):
        raise InternalError(f"dense cell {list(parts)} of {list(T.t)} has a repeated part")
    return E


@dataclass(frozen=True)
class SmallGrassChart:
    """Quotient-space chart of one small Grassmannian factor.

    ``matrix`` has one row per hand monomial and one column per monomial of
    the ambient quotient; it is the projection onto the hand span along the
    degree-i part of the ideal, so for ideals built from cell parameters the
    column of each generator monomial carries exactly its parameters.
    """

    degree: int
    hands: tuple[Monomial, ...]
    columns: tuple[Monomial, ...]
    matrix: tuple[tuple[Fraction, ...], ...]


def small_grass_coords(ideal: GradedIdeal) -> tuple[SmallGrassChart, ...]:
    """Coordinates of the ideal in the product of small Grassmannians.

    Defined on the dense cell only.  In each degree i the ambient space is
    spanned by the shifts of the previous cobasis diagonal modulo the
    monomials whose x-shift stays in the shape; the ideal piece meets it in
    a complement to the span of the hands, and the chart is the induced
    projection matrix.  The pivots of the piece are the shape's degree-i
    monomials, so its reduced row at one, m, is zero at the others, and the
    chart reads minus its entry at a hand h over its entry at m.
    """
    T = ideal.hilbert_function
    E0 = big_cell(T)
    if initial_ideal(ideal) != E0:
        raise NotInBigCell("ideal is not in the dense cell")
    charts = []
    for i in range(T.mu, T.j + 1):
        prev = E0.cobasis(i - 1)
        shifted = {(m[0] + 1, m[1]) for m in prev} | {(m[0], m[1] + 1) for m in prev}
        u_set = {m for m in shifted if not E0.contains((m[0] + 1, m[1]))}
        ambient = sorted(shifted - u_set, key=mono_key)
        hands = sorted((m for m in ambient if not E0.contains(m)), key=lambda m: -m[0])
        # a monomial's column in a coefficient row is its y-power
        rows = dict(zip(ideal.pieces[i].pivots, ideal.pieces[i].rows))
        matrix = tuple(
            tuple(
                Fraction(-rows[m[1]][h[1]], rows[m[1]][m[1]]) if m[1] in rows else Fraction(int(m == h))
                for m in ambient
            )
            for h in hands
        )
        charts.append(SmallGrassChart(i, tuple(hands), tuple(ambient), tuple(matrix)))
    return tuple(charts)
