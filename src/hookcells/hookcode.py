"""The hook code: box-bounded partition sequences attached to a shape.

For a shape with diagonal lengths T, the degree-i component of the code
records how the difference-one hooks with hand degree i are distributed over
the hand monomials, hands taken in order of decreasing x-power.  The
component fits in the degree-i box of ``T.boxes``: ``t_i - t_{i+1}`` rows of
width ``1 + t_{i-1} - t_i``.  The code is a bijection from the shapes of
diagonal lengths T onto all box-bounded sequences, turns duals into
complements, and its total length is the number of difference-one hooks.

:func:`code` reads the code off the boundary walk of the shape, and
:func:`decode` builds that walk from the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import comb, prod

from . import unipoly
from .errors import InternalError, NotFound, OutOfRange
from .partitions import Partition, _index, _list, as_hilbert, box_complement, box_partitions


@dataclass(frozen=True)
class HookCode:
    """A sequence of box-bounded partitions, indexed by degree mu..j.

    Components are stored zero-padded to the full number of box rows, so
    membership in the box is a plain shape check.  ``mu``, ``j`` and every
    entry are read as integers, and the components are stored as tuples: a
    float, a boolean or a string among them, or a ``qs`` or a component that
    is not iterable, raises ValueError.
    """

    mu: int
    j: int
    qs: tuple[tuple[int, ...], ...]

    def __init__(self, mu, j, qs):
        if type(qs) is not tuple or not {tuple}.issuperset(map(type, qs)):
            qs = tuple(_tuple(q, "code component") for q in _tuple(qs, "qs"))
        if not {int}.issuperset(map(type, chain.from_iterable(qs))):
            qs = tuple(tuple([_index(v, "code entry") for v in q]) for q in qs)
        object.__setattr__(self, "mu", mu if type(mu) is int else _index(mu, "mu"))
        object.__setattr__(self, "j", j if type(j) is int else _index(j, "j"))
        object.__setattr__(self, "qs", qs)

    @property
    def length(self) -> int:
        return sum(sum(q) for q in self.qs)

    def to_json(self):
        return {"mu": self.mu, "j": self.j, "qs": [list(q) for q in self.qs]}

    @classmethod
    def from_json(cls, data) -> "HookCode":
        return cls(data["mu"], data["j"], [_list(q, "code component") for q in _list(data["qs"], "qs")])


def _tuple(value, what: str) -> tuple:
    """``value`` as a tuple; a ValueError naming ``what`` when it is not
    iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {value!r}") from None


# Largest number of cells of a shape that code, and so `code`, accepts: its
# diagonal lengths take one step per cell (README).
MAX_CODE_CELLS = 100_000


def code(p: Partition) -> HookCode:
    """Hook code of a shape, read off its boundary walk in one pass;
    ``OutOfRange``, before any other work, for a shape of more than
    ``MAX_CODE_CELLS`` cells.

    The walk runs from ``(0, rows)`` to ``(p[0], 0)``; an east step raises
    the level x + y by one and a north step lowers it.  The north step that
    ends a row on diagonal i leaves level i + 2: that row end is a hand, and
    the difference-one hooks it tips are the east steps out of level i
    taken before it.  Each degree lists its hands in reverse walk order.
    When a degree has one hand more than its box has rows, the first one on
    the walk never carries a hook and is dropped.
    """
    size = sum(p.parts)
    if size > MAX_CODE_CELLS:
        raise OutOfRange(f"shape of {size} cells is above the limit {MAX_CODE_CELLS}")
    T = p.diagonal_lengths()
    east = [0] * (T.j + 2)  # east steps out of each level so far
    hands: dict[int, list[int]] = {}
    x = 0
    for r in reversed(range(len(p))):
        for level in range(x + r + 1, p[r] + r + 1):
            east[level] += 1
        x = p[r]
        hands.setdefault(x + r - 1, []).append(east[x + r - 1])
    qs = []
    for i, (rows, _cols) in enumerate(T.boxes, T.mu):
        counts = hands.get(i, [])[::-1]
        if len(counts) == rows + 1 and counts[-1] == 0:
            counts.pop()
        if len(counts) != rows:
            raise InternalError(f"shape {list(p.parts)}, degree {i}: counts {counts}, {rows} rows")
        qs.append(tuple(counts))
    return HookCode(T.mu, T.j, tuple(qs))


def _fitted(T, d: HookCode):
    """``T`` as a HilbertFunction when ``d`` fits its boxes: the degrees
    mu..j of ``T`` and one component per box, each a weakly decreasing
    sequence of ``rows`` entries between 0 and ``cols``.  NotFound otherwise."""
    T = as_hilbert(T)
    if (d.mu, d.j) != (T.mu, T.j) or len(d.qs) != len(T.boxes) or not all(
        len(q) == rows and all(cols >= a >= b >= 0 for a, b in zip(q, (*q[1:], 0)))
        for q, (rows, cols) in zip(d.qs, T.boxes)
    ):
        raise NotFound(f"code {d} does not fit the boxes of {list(T.t)}")
    return T


def decode(T, d: HookCode) -> Partition:
    """The unique shape of diagonal lengths ``T`` with hook code ``d``.

    Builds the list of levels of the boundary walk of :func:`code`.  It
    starts as a run down from ``rows`` to mu and up to ``p[0]``: 1 + the last
    degree whose component holds a 0, resp. its box width, or mu if none
    does.  Then for c = mu, ..., j + 1 the visit to level c after k east
    steps out of c - 1 gets one excursion up to c + 1 per entry k of
    ``Q_{c-1}``, reading ``Q_{mu-1}`` as mu - t_mu zeros.  The walk has at
    most 2j + 4 points.
    """
    T = _fitted(T, d)
    mu, boxes = T.mu, T.boxes
    rows = 1 + max((i for i, q in enumerate(d.qs, mu) if 0 in q), default=mu - 1)
    widths = enumerate(zip(d.qs, boxes), mu)
    top = 1 + max((i for i, (q, (_rows, cols)) in widths if cols in q), default=mu - 1)
    walk = [*range(rows, mu, -1), *range(mu, top + 1)]
    for c, q in enumerate(((0,) * (mu - T.value(mu)),) + d.qs, mu):
        out, k, prev = [], 0, None
        for level in walk:
            out.append(level)
            if level == c:
                if prev == c - 1:
                    k += 1
                out.extend((c + 1, c) * q.count(k))
            prev = level
        walk = out
    # point s of the walk is (x, y) with x + y = walk[s] and x - y = s - rows
    p = Partition(reversed([(s + a - rows) // 2 for s, (a, b) in enumerate(zip(walk, walk[1:])) if b < a]))
    if p.diagonal_profile() != T.t:
        raise InternalError(f"code {d} of {list(T.t)} decoded to {list(p.parts)}")
    return p


def complement(T, d: HookCode) -> HookCode:
    """Componentwise complement inside the bounding boxes; NotFound, as in
    :func:`decode`, for a code that does not fit them."""
    T = _fitted(T, d)
    qs = tuple(box_complement(q, rows, cols) for q, (rows, cols) in zip(d.qs, T.boxes))
    return HookCode(T.mu, T.j, qs)


# Largest cell_count(T) that all_codes, and so enumeration and `cells enum`,
# accept: T = (1, 2, ..., 10, ..., 2, 1) has 19683 cells (README).
MAX_CELLS = 50_000


def all_codes(T) -> tuple[HookCode, ...]:
    """Every box-bounded code sequence for ``T``; ``OutOfRange`` when there
    are more than ``MAX_CELLS``."""
    T = as_hilbert(T)
    count = cell_count(T)
    if count > MAX_CELLS:
        raise OutOfRange(f"T = {list(T.t)} has {count} cells, more than the limit {MAX_CELLS}")
    pools = [
        [q + (0,) * (rows - len(q)) for q in box_partitions(rows, cols)]
        for rows, cols in T.boxes
    ]
    return tuple(HookCode(T.mu, T.j, seq) for seq in product(*pools))


@lru_cache(maxsize=None)
def _gaussian(n: int, k: int) -> tuple[int, ...]:
    if k in (0, n):
        return (1,)
    return tuple(unipoly.add(_gaussian(n - 1, k - 1), [0] * k + list(_gaussian(n - 1, k))))


def gaussian_binomial(a: int, b: int) -> tuple[int, ...]:
    """Coefficients of the q-binomial [a+b, a]: partitions in an a x b box.

    Computed by the q-Pascal recurrence; degree a*b and palindromic.
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")

    return _gaussian(a + b, a)


def poincare_factors(T) -> tuple[tuple[int, ...], ...]:
    """One q-binomial per degree: the Betti numbers of each small Grassmannian."""
    return tuple(gaussian_binomial(rows, cols) for rows, cols in as_hilbert(T).boxes)


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
    return prod(comb(rows + cols, rows) for rows, cols in as_hilbert(T).boxes)
