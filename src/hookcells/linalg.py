"""Exact row reduction, fraction-free.

Matrices are lists of rows whose entries are integers or
:class:`~fractions.Fraction`.  Elimination runs on integer rows only, in the
fraction-free style of Bareiss (*Math. Comp.* 22, 1968): each row is first
cleared of denominators and divided by its content, a row is cleared at a
pivot by cross-multiplying with the pivot row, and every new row is divided
by its content (its gcd) again, which keeps the entries no larger than the
primitive echelon rows need.  There is one forward elimination,
:func:`_echelon`, and one reduction loop, :func:`_reduce`, which serves
membership and, with the content divided out at the end, back-substitution.
:func:`rref` reverses its rows, since :func:`_echelon` pivots at the last
nonzero column, and reverses the reduced rows back.
"""

import math
from fractions import Fraction


def integer_model(row):
    """The primitive integer multiple of the coefficient list ``row``: ``row``
    times the lcm of its denominators, divided by the gcd of the result."""
    if {int}.issuperset(map(type, row)):
        ip = list(row)
    else:
        den = math.lcm(*[c.denominator for c in row])
        ip = [c.numerator * (den // c.denominator) for c in row]
    g = math.gcd(*ip)
    return [c // g for c in ip] if g > 1 else ip


def rref(rows, ncols):
    """The reduced row echelon form of ``rows``, each of ``ncols`` entries
    (ValueError otherwise), as ``(reduced, pivots)``: the nonzero reduced
    rows by increasing pivot column, and those columns.  Each row is the
    primitive integer multiple, positive at its pivot, of the rational
    reduced row, which it gives when divided by its pivot entry.
    """
    ech, piv = _echelon([row[::-1] for row in _integer_rows(rows, ncols)])
    return [row[::-1] for row in _back_substitute(ech, piv)], [ncols - 1 - p for p in piv]


def _integer_rows(rows, ncols):
    """:func:`integer_model` of each row, all of ``ncols`` entries (ValueError otherwise)."""
    out = [integer_model(row) for row in rows]
    for i, row in enumerate(out):
        if len(row) != ncols:
            raise ValueError(f"row {i} has length {len(row)}, not {ncols}")
    return out


def _back_substitute(ech, piv):
    """The reduced row echelon basis, each row primitive with a positive
    pivot, of the rows and pivots that :func:`_echelon` returns."""
    return [integer_model(_reduce(row, ech[i + 1:], piv[i + 1:])) for i, row in enumerate(ech)]


def _echelon(rows):
    """An echelon basis of the span of the integer ``rows``, built by
    insertion: each row is cleared at its last nonzero column, against the
    basis row already ending there, until that column is new, and a row
    cleared to zero is dropped.  Returns ``(basis, pivots)`` by decreasing
    pivot, each row zero past its pivot and positive there, and primitive
    once cleared or when given so.  The pivots depend only on the span."""
    basis = {}
    for row in rows:
        k = _last(row)
        while k in basis:
            row = _clear(row, basis[k], k)
            k = _last(row)
        if k >= 0:
            basis[k] = [-x for x in row] if row[k] < 0 else row
    pivots = sorted(basis, reverse=True)
    return [basis[k] for k in pivots], pivots


def _last(row):
    """The last nonzero column of ``row``, -1 for a zero row."""
    k = len(row) - 1
    while k >= 0 and not row[k]:
        k -= 1
    return k


def _clear(row, prow, c):
    """The primitive multiple of ``prow[c] * row - row[c] * prow``: integer
    ``row`` cleared at column ``c`` by the pivot row ``prow``, both nonzero
    there: the step of :func:`_echelon`."""
    g = math.gcd(prow[c], row[c])
    s, t = prow[c] // g, row[c] // g
    out = [s * x - t * y for x, y in zip(row, prow)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def _reduce(row, ech, piv):
    """Integer ``row`` cross-multiplied clear at each pivot of the echelon
    rows ``ech``, highest first: zero exactly when it is in their span, and
    scaled by a positive integer past their top pivot.  It keeps the
    content, which :func:`_clear` divides out: a zero test needs no division."""
    for prow, p in zip(ech, piv):
        c = row[p]
        if c:
            g = math.gcd(prow[p], c)
            s, t = prow[p] // g, c // g
            row = [s * x - t * y for x, y in zip(row, prow)]
    return row


def rank(rows, ncols):
    """The rank of ``rows``, each of ``ncols`` entries (ValueError otherwise)."""
    return len(_echelon(_integer_rows(rows, ncols))[1])


def nullspace(rows, ncols):
    """Basis of the right null space, one vector per free column."""
    red, pivots = rref(rows, ncols)
    piv_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in piv_set:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = Fraction(-row[c], row[p])
        basis.append(v)
    return basis


def in_rowspace(vector, rows, ncols):
    """Whether ``vector`` lies in the span of ``rows``."""
    return rank(rows, ncols) == rank(list(rows) + [vector], ncols)
