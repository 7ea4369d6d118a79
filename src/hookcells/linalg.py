"""Exact row reduction over the rationals.

Matrices are lists of rows, each row a list of :class:`~fractions.Fraction`.
Pivot search may follow an arbitrary column priority, which is how the
monomial orders elsewhere in the package are imposed.
"""

from fractions import Fraction


def rref(rows, ncols, col_order=None):
    """Bring ``rows`` into reduced row echelon form.

    ``col_order`` lists column indices in pivot-priority order; the default is
    left to right.  Returns ``(reduced, pivots)`` where ``reduced`` drops zero
    rows and is sorted so pivot columns appear in priority order, and
    ``pivots`` is the list of pivot columns in the same order.
    """
    if col_order is None:
        col_order = range(ncols)
    m = [list(map(Fraction, r)) for r in rows]
    pivots = []
    nrows = len(m)
    r = 0
    for c in col_order:
        if r == nrows:
            break
        src = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if src is None:
            continue
        m[r], m[src] = m[src], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


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
            v[p] = -row[c]
        basis.append(v)
    return basis


def in_rowspace(vector, rows, ncols):
    """Whether ``vector`` lies in the span of ``rows``."""
    return rank(rows, ncols) == rank(list(rows) + [vector], ncols)
