"""Littlewood-Richardson products in the cohomology of a Grassmannian.

Classes are integer combinations of partitions inside a fixed rows x cols
rectangle.  Products follow the Littlewood-Richardson rule, generated as
successive horizontal strips under the lattice condition with every row
capped by the rectangle, so their cost follows their terms, not the box.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import BoxMismatch, DimensionMismatch, MalformedE, OutOfRange, ShapeMismatch
from .partitions import _decimal, _index, ramification_partition, signed_sum


def _norm_partition(parts) -> tuple[int, ...]:
    parts = tuple(_index(v, "part") for v in parts)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)) or any(v < 0 for v in parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


def _lr_fillings(mu, nu, bound) -> Counter:
    """Littlewood-Richardson numbers c^lam_{mu,nu}, as {lam: count}, of every
    lam with row r at most ``bound[r]`` (``mu`` must fit).  The labels k =
    1..len(nu) are added as horizontal strips of nu_k cells (Fulton, *Young
    Tableaux*, section 5); the lattice condition on the reverse reading word
    says that the k labels in rows <= r number at most the k-1 labels in rows
    < r.  Fillings that reach the same shape with the same last strip merge."""
    start = tuple(mu) + (0,) * (len(bound) - len(mu))
    states = Counter({(start, start): 1})  # (shape, shape before its last strip)
    for k, size in enumerate(nu):
        nxt = Counter()
        for (shape, before), count in states.items():
            # strips grown row by row: (rows so far, labels left, labels the
            # next row may take); label 1 has no lattice limit
            part = [((), size, size if k == 0 else 0)]
            for r, row in enumerate(shape):
                cap = min(bound[r], shape[r - 1]) if r else bound[r]
                part = [(new + (row + a,), left - a, room - a + row - before[r])
                        for new, left, room in part
                        for a in range(min(left, cap - row, room) + 1)]
            for new, left, _ in part:
                if not left:
                    nxt[new, shape] += count
        states = nxt
    out = Counter()
    for (shape, _), count in states.items():
        out[tuple(v for v in shape if v)] += count
    return out


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson number c^lam_{mu,nu}: the multiplicity of the
    class of ``lam`` in the product of ``mu`` and ``nu``."""
    lam, mu, nu = _norm_partition(lam), _norm_partition(mu), _norm_partition(nu)
    if len(mu) > len(lam) or any(m > l for l, m in zip(lam, mu)):
        return 0
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    return _lr_fillings(mu, nu, lam)[lam]


@dataclass(frozen=True)
class Combination:
    """An integer combination of the basis classes of one ring.

    A subclass declares the fields that fix its ring, then ``terms``: pairs
    (key, coefficient) sorted by key, no coefficient zero.  It supplies
    ``_key`` (the normal form of a key, or None to drop it), ``_monomial``
    (how a key prints), ``mismatch`` (raised on combining two rings) and
    its product.
    """

    mismatch = ShapeMismatch

    @classmethod
    def make(cls, *ring_and_terms):
        """The class of the ring with ``terms``, a dict or an iterable of
        (key, coefficient) pairs.  Equal keys are summed, first as given and
        then after ``_key`` has normalized each distinct one; zero sums and
        rejected keys are dropped.  A coefficient that is not an integer (a
        float, a Fraction, a boolean) raises ValueError."""
        *ring, terms = ring_and_terms
        if not isinstance(terms, dict):
            pairs, terms = terms, {}
            get = terms.get
            for key, coeff in pairs:
                terms[key] = get(key, 0) + (coeff if type(coeff) is int else _index(coeff, "coefficient"))
        key_of, out = cls._key, {}
        for key, coeff in terms.items():
            if type(coeff) is not int:
                coeff = _index(coeff, "coefficient")
            key = key_of(*ring, key)
            if key is not None and coeff:
                out[key] = out.get(key, 0) + coeff
        return cls(*ring, tuple(sorted([term for term in out.items() if term[1]])))

    @property
    def ring(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__ if f != "terms"}

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if type(other) is not type(self) or other.ring != self.ring:
            raise self.mismatch(f"{self.ring} versus {type(other).__name__} {other.ring}")

    def __add__(self, other):
        self._check(other)
        return self.make(*self.ring.values(), self.terms + other.terms)

    def __neg__(self):
        return self.make(*self.ring.values(), [(k, -c) for k, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __str__(self):
        return signed_sum(
            [self._monomial(k) if c == 1 else f"{_decimal(c)}*{self._monomial(k)}" for k, c in self.terms]
        )


@dataclass(frozen=True)
class SchubertClass(Combination):
    """An integer combination of Schubert classes in a fixed box."""

    box: tuple[int, int]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    mismatch = BoxMismatch

    @classmethod
    def make(cls, box, terms) -> "SchubertClass":
        rows, cols = box
        return super().make((rows, cols), terms)

    @staticmethod
    def _key(box, parts):
        rows, cols = box
        parts = _norm_partition(parts)
        if len(parts) > rows or (parts and parts[0] > cols):
            raise ValueError(f"{parts} does not fit a {rows}x{cols} box")
        return parts

    @staticmethod
    def _monomial(parts) -> str:
        return "s" + str(list(parts)).replace(" ", "")

    @classmethod
    def basis(cls, box, parts) -> "SchubertClass":
        return cls.make(box, {_norm_partition(parts): 1})

    @classmethod
    def one(cls, box) -> "SchubertClass":
        return cls.basis(box, ())

    def coefficient(self, parts) -> int:
        return self.as_dict().get(_norm_partition(parts), 0)

    def point_coefficient(self) -> int:
        rows, cols = self.box
        return self.coefficient((cols,) * rows if cols else ())

    def codimensions(self) -> set[int]:
        return {sum(p) for p, _ in self.terms}

    def __mul__(self, other):
        return lr_multiply(self, other)

    def to_json(self):
        return {
            "box": list(self.box),
            "terms": [{"partition": list(p), "coeff": c} for p, c in self.terms],
        }

    @classmethod
    def from_json(cls, data) -> "SchubertClass":
        return cls.make(
            tuple(_index(v, "box size") for v in data["box"]),
            [(tuple(t["partition"]), t["coeff"]) for t in data["terms"]],
        )


def lr_multiply(x: SchubertClass, y: SchubertClass) -> SchubertClass:
    """Product in the cohomology ring, truncated to the box."""
    x._check(y)
    rows, cols = x.box
    return SchubertClass.make(x.box, [
        (lam, c1 * c2 * co)
        for p1, c1 in x.terms
        for p2, c2 in y.terms
        for lam, co in _lr_fillings(p1, p2, (cols,) * rows).items()
    ])


def pieri_multiply(x: SchubertClass) -> SchubertClass:
    """Multiply by the codimension-one class by adding a box in all legal
    ways; kept as an independent cross-check of the tableau rule."""
    rows, cols = x.box
    return SchubertClass.make(x.box, [
        (padded[:r] + (padded[r] + 1,) + padded[r + 1:], c)
        for p, c in x.terms
        for padded in [p + (0,) * (rows - len(p))]
        for r in range(rows)
        if padded[r] < cols and (r == 0 or padded[r - 1] > padded[r])
    ])


# Largest dimension d(n - d) that grass_degree accepts (README, "Class rings").
MAX_GRASS_DIM = 64


def grass_degree(d: int, n: int) -> int:
    """Self-intersection number of the hyperplane class on Grass(d, n),
    equal to the degree of its Pluecker embedding; ``OutOfRange`` when
    d(n - d) is above ``MAX_GRASS_DIM``."""
    if not 1 <= d <= n:
        raise DimensionMismatch(f"need 1 <= d <= n, got ({d}, {n})")
    dim = d * (n - d)
    if dim > MAX_GRASS_DIM:
        raise OutOfRange(f"Grass({d}, {n}) has dimension {dim}, more than the limit {MAX_GRASS_DIM}")
    box = (d, n - d)
    acc = SchubertClass.one(box)
    for _ in range(dim):
        acc = pieri_multiply(acc)
    return acc.point_coefficient()


def qram_of_monomial_space(powers, j: int | None = None) -> tuple[int, ...]:
    """Ramification partition of the monomial space with the given x-powers.

    ``powers`` must be strictly increasing.  The sum of the result is the
    total ramification of the space at the point x = 0.
    """
    powers = list(powers)
    if not powers or any(powers[i] >= powers[i + 1] for i in range(len(powers) - 1)):
        raise MalformedE(f"x-powers must be strictly increasing, got {powers}")
    if powers[0] < 0 or (j is not None and powers[-1] > j):
        raise MalformedE(f"x-powers out of range for degree {j}: {powers}")
    return ramification_partition(powers)


def intersect_ramification(d: int, j: int, conditions) -> SchubertClass:
    """Class of the intersection of ramification conditions at distinct
    points, each given by the x-powers of a d-dimensional monomial space of
    degree-j forms.  A zero class signals an empty intersection; otherwise
    every term has codimension equal to the total ramification imposed."""
    if not 0 <= d <= j + 1:
        raise DimensionMismatch(f"need 0 <= d <= j + 1, got ({d}, {j})")
    box = (d, j + 1 - d)
    acc = SchubertClass.one(box)
    for powers in conditions:
        powers = list(powers)
        if len(powers) != d:
            raise DimensionMismatch(f"condition {powers} is not {d}-dimensional")
        acc = lr_multiply(acc, SchubertClass.basis(box, qram_of_monomial_space(powers, j)))
    return acc
