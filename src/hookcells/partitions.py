"""Partitions, diagonal lengths and hooks.

A partition is drawn as a left-justified array of cells ``(row, col)`` with
``row`` counted downwards; the cell ``(r, c)`` stands for the monomial
``x^c y^r``.  The *diagonal lengths* of a shape count its cells on each
anti-diagonal ``row + col = i``; they always form an admissible Hilbert
function (1, 2, ..., mu, t_mu, ..., t_j) with ``mu >= t_mu >= ... >= t_j > 0``.

Every cell is the corner of exactly one hook, whose arm runs to the end of
its row and whose leg runs to the bottom of its column.  Hooks with
arm - leg = 1 index the free parameters of the cells studied in
:mod:`hookcells.cells` and are the raw material of :mod:`hookcells.hookcode`.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidT, NonAdmissible


def _index(value, what: str, error=ValueError) -> int:
    """``value`` as an integer through ``operator.index``; ``error`` naming
    ``what`` when it is a boolean, a float or anything else without an exact
    integer value, which ``int()`` would truncate or coerce."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _list(value, what: str) -> list:
    """``value`` when it is a list; a ValueError naming ``what`` otherwise,
    so that a string is never read character by character."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _rational(value, what: str, error=ValueError) -> Fraction:
    """``value`` as an exact ``Fraction`` when it is an integer other than a
    boolean, another rational number or a string such as ``"-3/4"`` or
    ``"0.25"``; ``error`` naming ``what`` when it is a float (NaN and
    infinities too), a boolean, a zero denominator, a string in exponent
    notation (where a few characters such as ``"1e4000000"`` name a huge
    integer) or anything else without an exact rational value, which
    ``Fraction()`` would coerce or fail on with its own error."""
    if type(value) is Fraction:
        return value
    if isinstance(value, numbers.Rational) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise error(f"{what} must be an exact rational, got {value!r}")


def signed_sum(terms) -> str:
    """Printed terms joined into a sum, a term's leading minus sign read as a
    subtraction: ``["x", "-2*y", "3"]`` gives ``"x - 2*y + 3"``; ``"0"`` when
    there is none."""
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t[0] == "-" else f" + {t}" for t in terms[1:])


@dataclass(frozen=True, slots=True)
class Partition:
    """An integer partition (weakly decreasing positive parts)."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        parts = tuple(_index(p, "part") for p in parts)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    @property
    def weight(self) -> int:
        """Number of cells."""
        return sum(self.parts)

    def cells(self):
        return [(r, c) for r, pr in enumerate(self.parts) for c in range(pr)]

    def col_len(self, c: int) -> int:
        return sum(1 for pr in self.parts if pr > c)

    def dual(self) -> "Partition":
        """Conjugate shape (rows and columns switched)."""
        if not self.parts:
            return Partition()
        return Partition(self.col_len(c) for c in range(self.parts[0]))

    def diagonal_profile(self) -> tuple[int, ...]:
        """Raw count of cells on each anti-diagonal."""
        if not self.parts:
            return ()
        top = 1 + max(r + pr - 1 for r, pr in enumerate(self.parts))
        t = [0] * top
        for r, pr in enumerate(self.parts):
            for c in range(pr):
                t[r + c] += 1
        return tuple(t)

    def diagonal_lengths(self) -> "HilbertFunction":
        return diagonal_lengths(self)

    def hooks(self) -> tuple["Hook", ...]:
        return hooks(self)

    def to_json(self):
        return list(self.parts)

    @classmethod
    def from_json(cls, data) -> "Partition":
        return cls(_index(v, "part") for v in data)


@dataclass(frozen=True)
class Hook:
    """The hook of the shape cornered at ``(row, col)``.

    ``arm`` counts the cells from the corner to the end of its row, ``leg``
    the cells down to the bottom of its column (both include the corner, so
    both are at least 1).
    """

    row: int
    col: int
    arm: int
    leg: int

    @property
    def difference(self) -> int:
        return self.arm - self.leg

    @property
    def hand(self) -> tuple[int, int]:
        """Cell at the tip of the arm."""
        return (self.row, self.col + self.arm - 1)

    @property
    def foot(self) -> tuple[int, int]:
        """Cell at the tip of the leg."""
        return (self.row + self.leg - 1, self.col)

    @property
    def hand_degree(self) -> int:
        return self.row + self.col + self.arm - 1


def hooks(p: Partition) -> tuple[Hook, ...]:
    """One hook per cell of the shape."""
    cols = [p.col_len(c) for c in range(p.parts[0])] if p else []
    return tuple(
        Hook(r, c, p.parts[r] - c, cols[c] - r)
        for r, pr in enumerate(p.parts)
        for c in range(pr)
    )


def count_hooks_diff(p: Partition, a: int, i: int | None = None) -> int:
    """Number of hooks with arm - leg = ``a``, optionally of hand degree ``i``."""
    return sum(
        1 for h in hooks(p) if h.difference == a and (i is None or h.hand_degree == i)
    )


@dataclass(frozen=True, slots=True)
class HilbertFunction:
    """An admissible sequence (t_0, ..., t_j) of graded dimensions.

    The shape is ``t_i = i + 1`` for ``i < mu`` followed by a weakly
    decreasing positive tail; anything else raises :class:`InvalidT`.  The
    empty sequence is allowed and corresponds to the empty partition.
    ``mu``, the order, is the first degree where the sequence leaves the
    staircase: the first i with t_i <= i, reading t_i = 0 past the end.
    """

    t: tuple[int, ...]
    mu: int = field(compare=False, repr=False)

    def __init__(self, t=()):
        t = tuple(_index(x, "Hilbert function value", InvalidT) for x in t)
        mu = next((i for i, v in enumerate(t) if v <= i), len(t))
        if any(t[i] != i + 1 for i in range(mu)):
            raise InvalidT(f"prefix of {t} is not 1, 2, 3, ...")
        tail = t[mu:]
        if any(tail[k] < tail[k + 1] for k in range(len(tail) - 1)):
            raise InvalidT(f"tail of {t} is not weakly decreasing")
        if t and t[-1] < 1:
            raise InvalidT(f"last entry of {t} must be positive")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "mu", mu)

    def __len__(self):
        return len(self.t)

    def __iter__(self):
        return iter(self.t)

    def __getitem__(self, i):
        return self.t[i]

    def __repr__(self):
        return f"HilbertFunction({list(self.t)})"

    @property
    def j(self) -> int:
        """Socle degree (index of the last positive entry; -1 when empty)."""
        return len(self.t) - 1

    @property
    def n(self) -> int:
        return sum(self.t)

    def value(self, i: int) -> int:
        return self.t[i] if 0 <= i < len(self.t) else 0

    def delta(self, i: int) -> int:
        """First difference t_{i-1} - t_i."""
        return self.value(i - 1) - self.value(i)

    def to_json(self):
        return list(self.t)

    @classmethod
    def from_json(cls, data) -> "HilbertFunction":
        return cls(_index(v, "Hilbert function value") for v in data)


def as_hilbert(T) -> "HilbertFunction":
    """Coerce a sequence to a validated Hilbert function."""
    return T if isinstance(T, HilbertFunction) else HilbertFunction(T)


@dataclass(frozen=True)
class TInvariants:
    """Scalar invariants of an admissible Hilbert function.

    ``delta`` holds (delta_mu, ..., delta_{j+1}).  ``dim_gt`` is the dimension
    of the variety of graded ideals, ``dim_zt`` of the variety of all ideals,
    ``f_t`` the fibre dimension between the two, and ``dim_bgrass`` the
    dimension of the ambient product of Grassmannians.
    """

    mu: int
    j: int
    n: int
    delta: tuple[int, ...]
    dim_gt: int
    dim_zt: int
    f_t: int
    dim_bgrass: int


def t_invariants(T) -> TInvariants:
    T = as_hilbert(T)
    mu, j, n = T.mu, T.j, T.n
    deltas = tuple(T.delta(i) for i in range(mu, j + 2))
    balanced = sum(d * (d + 1) // 2 for d in deltas)
    dim_gt = sum((T.delta(i) + 1) * T.delta(i + 1) for i in range(mu, j + 2))
    dim_zt = n - balanced
    dim_bgrass = sum(T.value(i) * (i + 1 - T.value(i)) for i in range(mu, j + 1))
    return TInvariants(mu, j, n, deltas, dim_gt, dim_zt, dim_zt - dim_gt, dim_bgrass)


def diagonal_lengths(p: Partition) -> HilbertFunction:
    """Diagonal lengths of a shape, validated as a Hilbert function.

    Left-justified shapes always produce admissible sequences, so the
    :class:`NonAdmissible` branch guards against internal errors only.
    """
    try:
        return HilbertFunction(p.diagonal_profile())
    except InvalidT as exc:  # pragma: no cover - impossible for partitions
        raise NonAdmissible(str(exc)) from exc


def dual(p: Partition) -> Partition:
    return p.dual()


@lru_cache(maxsize=None)
def box_partitions(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """Every partition inside a rows x cols rectangle, trailing zeros
    dropped, in descending lexicographic order."""
    if rows == 0 or cols == 0:
        return ((),)
    out = []
    for first in range(cols, 0, -1):
        out.extend((first,) + rest for rest in box_partitions(rows - 1, first))
    out.append(())
    return tuple(out)


def box_complement(parts, rows: int, cols: int) -> tuple[int, ...]:
    """Complement of a zero-padded partition inside a rows x cols rectangle."""
    parts = tuple(parts)
    if len(parts) != rows or any(v > cols or v < 0 for v in parts):
        raise ValueError(f"{parts} does not fit a {rows}x{cols} box")
    return tuple(cols - parts[rows - 1 - k] for k in range(rows))


def ramification_partition(increasing) -> tuple[int, ...]:
    """A strictly increasing sequence minus the staircase (0, 1, 2, ...),
    sorted decreasingly: the ramification partition of a degree sequence."""
    return tuple(sorted((n - i for i, n in enumerate(increasing)), reverse=True))


def enumerate_with_diagonal_lengths(T) -> tuple[Partition, ...]:
    """All partitions whose diagonal lengths equal ``T``.

    Rows are chosen top-down; once row ``r`` is fixed, every anti-diagonal
    below ``r`` is complete and must already match ``T``, which prunes hard.
    Each row tries its lengths from the largest down, so the depth-first
    search emits the shapes in descending lexicographic order on the parts.
    """
    T = as_hilbert(T)
    if not T.t:
        return (Partition(),)
    j = T.j
    target = T.t
    counts = [0] * (j + 1)
    parts: list[int] = []
    out = []

    def rec(r, prev, rem):
        if r > 0 and counts[r - 1] != target[r - 1]:
            return
        if rem == 0:
            if counts == list(target):
                out.append(Partition(parts))
            return
        hi = min(prev, j + 1 - r)
        for pr in range(hi, 0, -1):
            if any(counts[r + c] >= target[r + c] for c in range(pr)):
                continue
            for c in range(pr):
                counts[r + c] += 1
            parts.append(pr)
            rec(r + 1, pr, rem - pr)
            parts.pop()
            for c in range(pr):
                counts[r + c] -= 1

    rec(0, j + 1, T.n)
    return tuple(out)


def hilbert_functions_upto(max_n: int) -> tuple[HilbertFunction, ...]:
    """All nonempty admissible Hilbert functions with total at most ``max_n``."""

    def tails(mx, budget, pref, acc):
        acc.append(tuple(pref))
        for first in range(min(mx, budget), 0, -1):
            pref.append(first)
            tails(first, budget - first, pref, acc)
            pref.pop()

    out = []
    mu = 1
    while mu * (mu + 1) // 2 <= max_n:
        stair = tuple(range(1, mu + 1))
        acc: list[tuple[int, ...]] = []
        tails(mu, max_n - mu * (mu + 1) // 2, [], acc)
        out.extend(HilbertFunction(stair + tl) for tl in acc)
        mu += 1
    return tuple(sorted(out, key=lambda T: (T.n, T.t)))
