"""Exact row reduction, fraction-free.

Matrices are lists of rows whose entries are integers or
:class:`~fractions.Fraction`.  Elimination runs on integer rows only, in the
fraction-free style of Bareiss (*Math. Comp.* 22, 1968): each row is first
cleared of denominators and divided by its content, a row is cleared at a
pivot by cross-multiplying with the pivot row, and every new row is divided
by its content (its gcd) again, which keeps the entries no larger than the
primitive echelon rows need.  Pivot search may follow an arbitrary column
priority, which is how the monomial orders elsewhere in the package are
imposed.
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

    ``col_order`` lists column indices in pivot-priority order; the default is
    left to right.  Returns ``(reduced, pivots)`` where ``reduced`` drops zero
    rows and is sorted so pivot columns appear in priority order, and
    ``pivots`` is the list of pivot columns in the same order.  Each reduced
    row is the primitive integer multiple of the reduced row echelon row with
    a positive entry at its pivot; dividing it by that entry gives the
    rational echelon row.
    """
    return _rref_primitive([integer_model(r) for r in rows], ncols, col_order)


def _rref_primitive(m, ncols, col_order=None):
    """:func:`rref` of a new list ``m`` of primitive integer rows, reordered and overwritten in place."""
    if col_order is None:
        col_order = range(ncols)
    pivots = []
    nrows = len(m)
    r = 0
    for c in col_order:
        if r == nrows:
            break
        src = next((i for i in range(r, nrows) if m[i][c]), None)
        if src is None:
            continue
        prow = m[src]
        if prow[c] < 0:
            prow = [-x for x in prow]
        m[src], m[r] = m[r], prow
        for i in range(nrows):
            if m[i][c] and i != r:
                m[i] = _clear(m[i], prow, c)
        pivots.append(c)
        r += 1
    return m[:r], pivots


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
    there: the step of :func:`rref` and :func:`_echelon`."""
    g = math.gcd(prow[c], row[c])
    s, t = prow[c] // g, row[c] // g
    out = [s * x - t * y for x, y in zip(row, prow)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def rank(rows, ncols):
    return len(rref(rows, ncols)[0])


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
