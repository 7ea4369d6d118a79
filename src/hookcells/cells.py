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

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .binforms import BinaryForm, FormSpace, PointP1, POINT_X, change_basis, ram_data
from .errors import InconsistentParams, InternalError, InvalidT, NotAnIdeal, NotInBigCell
from .partitions import HilbertFunction, Partition, as_hilbert, hooks, ramification_partition, t_invariants

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


def _cell_to_mono(r: int, c: int) -> Monomial:
    return (c, r)


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    """A finite-colength monomial ideal, known by its cobasis shape."""

    partition: Partition
    hilbert_function: HilbertFunction

    def __init__(self, partition: Partition):
        if not isinstance(partition, Partition):
            partition = Partition(partition)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "hilbert_function", partition.diagonal_lengths())

    def __repr__(self):
        return f"MonomialIdeal({list(self.partition.parts)})"

    def contains(self, m: Monomial) -> bool:
        xp, yp = m
        parts = self.partition.parts
        return yp >= len(parts) or xp >= parts[yp]

    def cobasis(self, degree: int | None = None) -> tuple[Monomial, ...]:
        out = [_cell_to_mono(r, c) for (r, c) in self.partition.cells()]
        if degree is not None:
            out = [m for m in out if m[0] + m[1] == degree]
        return tuple(sorted(out, key=mono_key))

    def piece(self, degree: int) -> tuple[Monomial, ...]:
        """Monomials of the ideal in one degree."""
        return tuple(
            m for m in ((degree - yp, yp) for yp in range(degree + 1)) if self.contains(m)
        )

    def generators(self) -> tuple[Monomial, ...]:
        """Minimal monomial generators."""
        parts = self.partition.parts
        gens = [(0, len(parts))]
        prev = None
        for r, pr in enumerate(parts):
            if prev is None or pr < prev:
                gens.append((pr, r))
            prev = pr
        return tuple(sorted(gens, key=mono_key))

    def dual(self) -> "MonomialIdeal":
        """Swap the variables x and y."""
        return MonomialIdeal(self.partition.dual())

    def column_heights(self) -> tuple[int, ...]:
        """q(c) for c = 0..p0: the y-power of the lowest ideal monomial with
        x-power c.  The sequence is the dual partition followed by 0."""
        p = self.partition
        p0 = p.parts[0] if p else 0
        return tuple(p.col_len(c) for c in range(p0)) + (0,)

    def betas(self) -> tuple[Monomial, ...]:
        """The chain x^c y^(q(c)), c = 0..p0, just below the shape."""
        q = self.column_heights()
        return tuple((c, q[c]) for c in range(len(q)))


def pair_set_S(E: MonomialIdeal, degree: int | None = None) -> tuple[tuple[Monomial, Monomial], ...]:
    """Ordered pairs (mu, nu) carrying the free cell coordinates.

    mu runs over ideal monomials one step below a column of the shape, nu
    over same-degree cobasis monomials past mu whose x-shift leaves the
    shape; the pairs correspond to the difference-one hooks (foot, hand)
    via mu = y * foot, nu = hand.
    """
    out = []
    for h in hooks(E.partition):
        if h.difference != 1:
            continue
        fr, fc = h.foot
        mu = (fc, fr + 1)
        nu = _cell_to_mono(*h.hand)
        if degree is None or mu[0] + mu[1] == degree:
            out.append((mu, nu))
    return tuple(sorted(out, key=lambda p: (mono_key(p[0]), mono_key(p[1]))))


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
        if h.difference >= 2:
            fr, fc = h.foot
            plus.append(((fc, fr + 1), _cell_to_mono(*h.hand)))
        elif h.difference <= -2:
            hr, hc = h.hand
            minus.append(((hc + 1, hr), _cell_to_mono(*h.foot)))

    def key(pair):
        return (mono_key(pair[0]), mono_key(pair[1]))

    return WPairs(tuple(sorted(plus, key=key)), tuple(sorted(minus, key=key)))


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CellParams:
    """A choice of rational value for every pair in S(E)."""

    ideal: MonomialIdeal
    values: dict

    def __init__(self, ideal: MonomialIdeal, values: dict):
        pairs = pair_set_S(ideal)
        values = {k: Fraction(v) for k, v in values.items()}
        if set(values) != set(pairs):
            raise InconsistentParams(
                f"values keyed by {sorted(values)} but S(E) is {sorted(pairs)}"
            )
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "values", values)

    def to_json(self):
        return {
            "partition": self.ideal.partition.to_json(),
            "params": [
                {"mu": mono_str(mu), "nu": mono_str(nu), "value": str(self.values[(mu, nu)])}
                for (mu, nu) in pair_set_S(self.ideal)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "CellParams":
        ideal = MonomialIdeal(Partition.from_json(data["partition"]))
        values = {
            (parse_mono(entry["mu"]), parse_mono(entry["nu"])): Fraction(entry["value"])
            for entry in data["params"]
        }
        return cls(ideal, values)

    @classmethod
    def zeros(cls, ideal: MonomialIdeal) -> "CellParams":
        return cls(ideal, {pair: Fraction(0) for pair in pair_set_S(ideal)})


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class GradedIdeal:
    """A graded ideal with the prescribed Hilbert function.

    Stores the degreewise pieces (authoritative for rank queries) together
    with the standard-form generators it was built from, when known.
    """

    hilbert_function: HilbertFunction
    pieces: dict
    generators: tuple[BinaryForm, ...]

    def __init__(self, hilbert_function: HilbertFunction, pieces: dict, generators=()):
        T = as_hilbert(hilbert_function)
        for i in range(T.mu, T.j + 1):
            if i not in pieces:
                raise NotAnIdeal(f"missing degree-{i} piece")
            if pieces[i].dim != i + 1 - T.value(i):
                raise NotAnIdeal(
                    f"degree-{i} piece has dimension {pieces[i].dim}, expected {i + 1 - T.value(i)}"
                )
        for i in range(T.mu, T.j):
            nxt = pieces[i + 1]
            for row in pieces[i].rows:
                # (*row, 0) is x * f and (0, *row) is y * f
                if not (nxt.contains((*row, 0)) and nxt.contains((0, *row))):
                    raise NotAnIdeal(f"degree-{i} piece is not closed under multiplication")
        object.__setattr__(self, "hilbert_function", T)
        object.__setattr__(self, "pieces", dict(pieces))
        object.__setattr__(self, "generators", tuple(generators))

    def piece(self, i: int) -> FormSpace:
        T = self.hilbert_function
        if i < T.mu:
            return FormSpace(i, ())
        if i > T.j:
            rows = [[Fraction(k == m) for k in range(i + 1)] for m in range(i + 1)]
            return FormSpace(i, rows)
        return self.pieces[i]


def _shift(term: dict, dm: Monomial) -> dict:
    return {(m[0] + dm[0], m[1] + dm[1]): c for m, c in term.items()}


def _column_generator(m: Monomial, q) -> tuple[int, Monomial]:
    """The standard generator of column k = min(m[0], p0), whose initial
    monomial x^k y^(q(k)) divides the ideal monomial ``m``, and the shift
    taking that monomial to ``m``."""
    k = min(m[0], len(q) - 1)
    if q[k] > m[1]:
        raise InternalError(f"ideal monomial {mono_str(m)} is not divisible by its column generator")
    return k, (m[0] - k, m[1] - q[k])


def _reduce_by_generators(g: dict, gens: dict, E: MonomialIdeal, q) -> dict:
    """Divide away every ideal-monomial term of ``g`` using the standard
    generators of x-power above the current one; the remainder is supported
    on cobasis monomials."""
    g = {m: c for m, c in g.items() if c != 0}
    while True:
        inside = [m for m in g if E.contains(m)]
        if not inside:
            return g
        m = min(inside, key=mono_key)
        k, shift = _column_generator(m, q)
        coef = g[m]
        for mm, cc in _shift(gens[k], shift).items():
            g[mm] = g.get(mm, Fraction(0)) - coef * cc
            if g[mm] == 0:
                del g[mm]


def build_ideal(params: CellParams) -> GradedIdeal:
    """The unique graded ideal in the cell of E with the given coordinates.

    Standard generators f(x^c y^(q(c))) are produced for c = p0 down to 0.
    Each starts as its leading monomial minus the freely chosen multiples of
    the S(E) hands; multiplying by x and reducing against the generators
    already built leaves a remainder supported on x-shifts of cobasis
    monomials, and cancelling that remainder forces the remaining tail
    coefficients.  Each degreewise piece then takes one generator multiple
    per ideal monomial of its degree, the multiple whose initial monomial it
    is.  Distinct initial monomials make these a basis; the closure check of
    :class:`GradedIdeal` then shows that every other generator multiple lies
    in the pieces too.
    """
    E = params.ideal
    T = E.hilbert_function
    q = E.column_heights()
    p0 = len(q) - 1
    cob = set(E.cobasis())
    free_by_mu: dict[Monomial, list] = {}
    for (mu, nu) in pair_set_S(E):
        free_by_mu.setdefault(mu, []).append(nu)

    gens: dict[int, dict] = {p0: {(p0, 0): Fraction(1)}}
    for c in range(p0 - 1, -1, -1):
        beta = (c, q[c])
        f = {beta: Fraction(1)}
        for nu in free_by_mu.get(beta, ()):
            f[nu] = -params.values[(beta, nu)]
        g = _shift(f, (1, 0))
        rem = _reduce_by_generators(g, gens, E, q)
        for m, coef in rem.items():
            nu = (m[0] - 1, m[1])
            if m[0] < 1 or nu not in cob or mono_key(nu) <= mono_key(beta):
                raise InconsistentParams(f"reduction left an unexpected term {mono_str(m)}")
            f[nu] = -coef
        gens[c] = f

    forms = {
        c: BinaryForm.from_monomials(c + q[c], f) for c, f in gens.items()
    }
    pieces = {}
    for d in range(T.mu, T.j + 1):
        rows = []
        for m in E.piece(d):
            k, shift = _column_generator(m, q)
            rows.append(BinaryForm.from_monomials(d, _shift(gens[k], shift)))
        space = FormSpace(d, rows)
        if space.dim != d + 1 - T.value(d):
            raise InconsistentParams(
                f"degree-{d} piece came out {space.dim}-dimensional"
            )
        pieces[d] = space
    ordered = tuple(forms[c] for c in range(p0 + 1))
    return GradedIdeal(T, pieces, ordered)


def initial_ideal(ideal: GradedIdeal, p: PointP1 = POINT_X) -> MonomialIdeal:
    """Degreewise initial monomial ideal of a graded ideal at a point.

    The returned shape lives in the (L, C) frame at ``p``: its cell (r, c)
    is the monomial L^c C^r.
    """
    T = ideal.hilbert_function
    cob_cells = set()
    for d in range(T.j + 1):
        if d < T.mu:
            lpows = set()
        else:
            lpows = {d - k for k in change_basis(ideal.pieces[d], p).pivots}
        cob_cells.update((d - a, a) for a in range(d + 1) if a not in lpows)
    nrows = 1 + max((r for (r, _) in cob_cells), default=-1)
    parts = []
    for r in range(nrows):
        cs = sorted(c for (rr, c) in cob_cells if rr == r)
        if cs != list(range(len(cs))):
            raise NotAnIdeal(f"initial monomials are not left-justified in row {r}")
        parts.append(len(cs))
    if 0 in parts or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise NotAnIdeal(f"initial monomials do not form a partition shape: {parts}")
    out = MonomialIdeal(Partition(parts))
    if out.hilbert_function != T:
        raise NotAnIdeal("initial ideal has the wrong Hilbert function")
    return out


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
    h1 = sum(1 for h in hooks(P) if h.difference == 1)
    hm1 = sum(1 for h in hooks(P) if h.difference == -1)
    h0 = sum(1 for h in hooks(P) if h.difference == 0)
    z = inv.n - hm1 - h0
    v = z - inv.f_t
    if v != h1:
        raise InternalError(f"cell dimension formulas disagree for {E}: {v} != {h1}")
    return CellDims(h1, hm1, z, v)


def big_cell(T) -> MonomialIdeal:
    """The dense cell: the unique shape with distinct parts."""
    T = as_hilbert(T)
    if not T.t:
        return MonomialIdeal(Partition())
    parts = []
    r = 0
    while True:
        ds = [d for d in range(T.j + 1) if T.value(d) >= r + 1]
        if not ds:
            break
        parts.append(max(ds) - r + 1)
        r += 1
    E = MonomialIdeal(Partition(parts))
    if E.hilbert_function != T or len(set(parts)) != len(parts):
        raise InvalidT(f"no distinct-parts shape with diagonal lengths {list(T.t)}")
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
    projection matrix.
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
        others = [m for m in ambient if E0.contains(m)]
        # vectors of the degree-i piece supported on `shifted`; a monomial's
        # column in a coefficient row is its y-power
        rows = ideal.pieces[i].rows
        outside = [yp for yp in range(i + 1) if (i - yp, yp) not in shifted]
        if outside:
            constraints = [[row[c] for row in rows] for c in outside]
            kernel = linalg.nullspace(constraints, len(rows))
        else:
            kernel = [[Fraction(s == r) for r in range(len(rows))] for s in range(len(rows))]
        section = [
            [sum(combo[r] * rows[r][m[1]] for r in range(len(rows))) for m in ambient]
            for combo in kernel
        ]
        # taking only the `ambient` coordinates quotients out u_set
        order = [ambient.index(m) for m in others] + [ambient.index(m) for m in hands]
        red, piv = linalg.rref(section, len(ambient), col_order=order)
        if piv != [ambient.index(m) for m in others]:
            raise NotInBigCell(f"degree-{i} chart is degenerate")
        matrix = []
        for h in hands:
            hidx = ambient.index(h)
            row = []
            for m in ambient:
                if m == h:
                    row.append(Fraction(1))
                elif m in hands:
                    row.append(Fraction(0))
                else:
                    k = piv.index(ambient.index(m))
                    row.append(Fraction(-red[k][hidx], red[k][piv[k]]))
            matrix.append(tuple(row))
        charts.append(SmallGrassChart(i, tuple(hands), tuple(ambient), tuple(matrix)))
    return tuple(charts)
