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
:func:`rref` permutes the columns to follow an arbitrary column priority,
which is how the monomial orders elsewhere in the package are imposed.
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


def rref(rows, ncols, col_order=None):
    """Bring ``rows`` into reduced row echelon form, scaled to integers.

    ``col_order``, a permutation of ``range(ncols)`` (ValueError otherwise),
    lists the columns in pivot-priority order; the default is left to right.
    Returns ``(reduced, pivots)`` where ``reduced`` drops zero rows and is
    sorted so pivot columns appear in priority order, and ``pivots`` is the
    list of pivot columns in the same order.  Each reduced row is the
    primitive integer multiple of the reduced row echelon row with a positive
    entry at its pivot; dividing it by that entry gives the rational row.
    """
    order = list(range(ncols) if col_order is None else col_order)
    if sorted(order) != list(range(ncols)):
        raise ValueError(f"column order {order} is not a permutation of range({ncols})")
    perm = order[::-1]  # _echelon pivots at the last nonzero column
    ech, piv = _echelon([integer_model([r[c] for c in perm]) for r in rows])
    back = sorted(range(ncols), key=perm.__getitem__)
    return [[row[k] for k in back] for row in _back_substitute(ech, piv)], [perm[p] for p in piv]


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
    return len(_echelon([integer_model(r) for r in rows])[1])


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
