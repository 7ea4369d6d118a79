"""The hook code: box-bounded partition sequences attached to a shape.

For a shape with diagonal lengths T, the degree-i component of the code
records how the difference-one hooks with hand degree i are distributed over
the hand monomials, hands taken in order of decreasing x-power.  The
component fits in a rectangle with ``t_i - t_{i+1}`` rows of width
``1 + t_{i-1} - t_i``; the code is a bijection from the shapes of diagonal
lengths T onto all box-bounded sequences, turns duals into complements, and
its total length is the number of difference-one hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, prod

from . import unipoly
from .errors import InternalError, NotFound
from .partitions import (
    HilbertFunction,
    Partition,
    as_hilbert,
    box_complement,
    box_partitions,
    enumerate_with_diagonal_lengths,
    hooks,
    json_int,
)


class BoxSequence:
    """The bounding rectangles, one per degree from mu to j."""

    def __init__(self, T):
        T = as_hilbert(T)
        self.mu = T.mu
        self.j = T.j
        self.boxes = tuple(
            (T.value(i) - T.value(i + 1), 1 + T.delta(i)) for i in range(T.mu, T.j + 1)
        )

    def box(self, i: int) -> tuple[int, int]:
        """(rows, cols) of the degree-i rectangle."""
        return self.boxes[i - self.mu]

    def fits(self, code: "HookCode") -> bool:
        if (code.mu, code.j) != (self.mu, self.j) or len(code.qs) != len(self.boxes):
            return False
        return all(
            len(q) == rows and all(cols >= q[k] >= 0 for k in range(rows))
            and all(q[k] >= q[k + 1] for k in range(rows - 1))
            for q, (rows, cols) in zip(code.qs, self.boxes)
        )


@dataclass(frozen=True)
class HookCode:
    """A sequence of box-bounded partitions, indexed by degree mu..j.

    Components are stored zero-padded to the full number of box rows, so
    membership in the box is a plain shape check.
    """

    mu: int
    j: int
    qs: tuple[tuple[int, ...], ...]

    @property
    def length(self) -> int:
        return sum(sum(q) for q in self.qs)

    def component(self, i: int) -> tuple[int, ...]:
        return self.qs[i - self.mu]

    def to_json(self):
        return {"mu": self.mu, "j": self.j, "qs": [list(q) for q in self.qs]}

    @classmethod
    def from_json(cls, data) -> "HookCode":
        return cls(
            json_int(data["mu"], "mu"), json_int(data["j"], "j"),
            tuple(tuple(json_int(v, "code entry") for v in q) for q in data["qs"]),
        )


def code(p: Partition) -> HookCode:
    """Hook code of a shape.

    For each degree the hands (cells ending a row) are listed by decreasing
    x-power and each receives the number of difference-one hooks it tips.
    When the shape has a cell in column 0 of the next diagonal there is one
    hand more than the box has rows; that lowest hand never carries a hook
    and is dropped.
    """
    T = p.diagonal_lengths()
    bx = BoxSequence(T)
    by_hand: dict[tuple[int, int], int] = {}
    hands_by_deg: dict[int, set] = {}
    for h in hooks(p):
        hands_by_deg.setdefault(h.hand_degree, set()).add(h.hand)
        if h.difference == 1:
            by_hand[h.hand] = by_hand.get(h.hand, 0) + 1
    qs = []
    for i in range(T.mu, T.j + 1):
        rows, _cols = bx.box(i)
        hands = sorted(hands_by_deg.get(i, ()), key=lambda rc: rc[0])  # decreasing x-power
        counts = [by_hand.get(h, 0) for h in hands]
        if len(counts) == rows + 1 and counts[-1] == 0:
            counts = counts[:-1]
        if len(counts) != rows:
            raise InternalError(f"shape {list(p.parts)}, degree {i}: counts {counts}, {rows} rows")
        qs.append(tuple(counts))
    return HookCode(T.mu, T.j, tuple(qs))


@lru_cache(maxsize=None)
def _decode_table(t: tuple[int, ...]):
    return {code(p): p for p in enumerate_with_diagonal_lengths(HilbertFunction(t))}


def decode(T, d: HookCode) -> Partition:
    """The unique shape of diagonal lengths ``T`` with hook code ``d``.

    Inverted through a per-T lookup table built from the enumeration.
    """
    T = as_hilbert(T)
    if not BoxSequence(T).fits(d):
        raise NotFound(f"code {d} does not fit the boxes of {list(T.t)}")
    table = _decode_table(T.t)
    try:
        return table[d]
    except KeyError as exc:  # pragma: no cover - contradicts bijectivity
        raise NotFound(f"no shape with code {d}") from exc


def complement(T, d: HookCode) -> HookCode:
    """Componentwise complement inside the bounding boxes."""
    T = as_hilbert(T)
    qs = tuple(box_complement(q, rows, cols) for q, (rows, cols) in zip(d.qs, BoxSequence(T).boxes))
    return HookCode(T.mu, T.j, qs)


def all_codes(T) -> tuple[HookCode, ...]:
    """Every box-bounded code sequence for ``T``."""
    T = as_hilbert(T)
    pools = [
        [q + (0,) * (rows - len(q)) for q in box_partitions(rows, cols)]
        for rows, cols in BoxSequence(T).boxes
    ]
    return tuple(HookCode(T.mu, T.j, seq) for seq in product(*pools))


@lru_cache(maxsize=None)
def _gaussian(n: int, k: int) -> tuple[int, ...]:
    if k in (0, n):
        return (1,)
    left, right = _gaussian(n - 1, k - 1), _gaussian(n - 1, k)
    out = [0] * max(len(left), k + len(right))
    for i, v in enumerate(left):
        out[i] += v
    for i, v in enumerate(right):
        out[k + i] += v
    return tuple(out)


def gaussian_binomial(a: int, b: int) -> tuple[int, ...]:
    """Coefficients of the q-binomial [a+b, a]: partitions in an a x b box.

    Computed by the q-Pascal recurrence; degree a*b and palindromic.
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")

    return _gaussian(a + b, a)


def poincare_factors(T) -> tuple[tuple[int, ...], ...]:
    """One q-binomial per degree: the Betti numbers of each small Grassmannian."""
    return tuple(gaussian_binomial(rows, cols) for rows, cols in BoxSequence(T).boxes)


def betti_numbers(T) -> tuple[int, ...]:
    """Coefficient u counts the shapes of diagonal lengths T with u
    difference-one hooks (equivalently the cells of that dimension)."""
    out = [1]
    for f in poincare_factors(T):
        out = unipoly.mul(out, f)
    return tuple(out)


def poincare(T) -> tuple[int, ...]:
    """Poincare polynomial in q; only even powers occur."""
    b = betti_numbers(T)
    out = [0] * (2 * len(b) - 1)
    out[::2] = b
    return tuple(out)


def cell_count(T) -> int:
    """Product-of-binomials count of shapes with diagonal lengths ``T``: one
    binomial per box, the number of partitions that fit it."""
    return prod(comb(rows + cols, rows) for rows, cols in BoxSequence(T).boxes)
