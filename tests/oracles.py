"""Slow reference implementations kept as differential test oracles.

These are the straightforward versions the library's fast paths replaced:
row reduction and row-space membership over :class:`~fractions.Fraction`,
a Laplace determinant over Fraction polynomials, a
rational root search that evaluates every rational-root-theorem candidate
with Fraction arithmetic, a frame change that expands every monomial
binomially, and ideal pieces spanned by every monomial multiple of the
generators, a Littlewood-Richardson product that counts the tableaux of
every shape in the box, and every partition of n by recursion on the largest
part.  They share no code with the paths they check.

Two cross-checks that the library leaves to the tests live here too: the
Wronskian dehomogenized at x = 1 as well as at y = 1, and the
complement-dual identity between the two ramification partitions.
"""

import math
from fractions import Fraction
from functools import lru_cache

from hookcells import BinaryForm, FormSpace, Partition, SchubertClass
from hookcells.partitions import box_complement, box_partitions
from hookcells.unipoly import _divisors


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


def in_rowspace(vector, rows, ncols):
    """Whether ``vector`` lies in the span of ``rows``, by comparing Fraction
    ranks."""
    return len(rref(rows, ncols)[0]) == len(rref(list(rows) + [vector], ncols)[0])


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _is_zero(p):
    return all(c == 0 for c in p)


def _add(p, q):
    n = max(len(p), len(q))
    return _trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return _trim(out)


def _derivative(p):
    return _trim([Fraction(i) * p[i] for i in range(1, len(p))]) if len(p) > 1 else [Fraction(0)]


def eval_at(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def divmod_(p, q):
    """Polynomial long division over the rationals."""
    p, q = _trim(p), _trim(q)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    rem = [Fraction(c) for c in p]
    dq = len(q) - 1
    while not _is_zero(rem) and len(rem) - 1 >= dq:
        shift = len(rem) - 1 - dq
        c = rem[-1] / q[-1]
        quo[shift] = c
        for i in range(len(q)):
            rem[shift + i] -= c * q[i]
        rem = _trim(rem)
    return _trim(quo), rem


def laplace_det(matrix):
    """Determinant of a square matrix of polynomials, by Laplace expansion
    along the first row over Fraction coefficients."""
    matrix = [[[Fraction(c) for c in e] for e in row] for row in matrix]
    n = len(matrix)
    if n == 0:
        return [Fraction(1)]
    memo = {}

    def minor(row, colmask):
        if row == n:
            return [Fraction(1)]
        if colmask in memo:
            return memo[colmask]
        acc = [Fraction(0)]
        sign = 1
        for c in range(n):
            bit = 1 << c
            if not colmask & bit:
                continue
            entry = matrix[row][c]
            if not _is_zero(entry):
                term = _mul(entry, minor(row + 1, colmask & ~bit))
                acc = _add(acc, term if sign > 0 else [-x for x in term])
            sign = -sign
        memo[colmask] = acc
        return acc

    return minor(0, (1 << n) - 1)


def wronskian(space, at="y"):
    """The Wronskian of the space from its Fraction basis, dehomogenized at
    y = 1 (``at="y"``) or at x = 1 (``at="x"``), rehomogenized and
    normalized to leading coefficient 1.  Both must give the same form."""
    d = space.dim
    n_deg = d * space.codim
    if at == "y":
        polys = [f.coeff_poly_in_x() for f in space.basis]
    else:
        polys = [_trim(f.coeffs) for f in space.basis]  # f(1, y) by y-power
    rows = [polys]
    for _ in range(d - 1):
        rows.append([_derivative(q) for q in rows[-1]])
    w = laplace_det(rows)
    terms = {(m, n_deg - m) if at == "y" else (n_deg - m, m): c for m, c in enumerate(w) if c != 0}
    return BinaryForm.from_monomials(n_deg, terms).normalized()


def rational_roots(p):
    """Rational roots with multiplicities: every candidate a/b of the
    rational root theorem is evaluated in Fractions, none skipped."""
    p = _trim(p)
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ip = [int(c * den) for c in p]
    roots = {}
    k = 0
    while ip[k] == 0:
        k += 1
    if k:
        roots[Fraction(0)] = k
        ip = ip[k:]
    if len(ip) == 1:
        return roots
    cands = {Fraction(s * num, d) for num in _divisors(abs(ip[0]))
             for d in _divisors(abs(ip[-1])) for s in (1, -1)}
    fp = [Fraction(c) for c in ip]
    for r in sorted(cands):
        mult = 0
        while eval_at(fp, r) == 0:
            fp, rem = divmod_(fp, [-r, Fraction(1)])
            assert _is_zero(rem)
            mult += 1
        if mult:
            roots[r] = mult
    return roots


def point_valuation(form, p):
    """Multiplicity of the point's linear form in ``form``, by repeated
    Fraction division."""
    poly = form.coeff_poly_in_x()
    if p.a == 0:
        return form.degree - (len(_trim(poly)) - 1)
    mult = 0
    while eval_at(poly, -p.b) == 0:
        poly, _ = divmod_(poly, [p.b, Fraction(1)])
        mult += 1
    return mult


def conjugate_with_zeros(parts, width: int) -> tuple[int, ...]:
    """Conjugate of a padded partition, returned with ``width`` parts."""
    return tuple(sum(1 for v in parts if v > k) for k in range(width))


def change_basis(space, p, c_form=None):
    """Coordinates of the space in the basis (L, C), expanding the images of
    x and y binomially for every monomial of every row."""
    a, b = p.a, p.b
    c, d = (Fraction(v) for v in (c_form if c_form is not None else p.complement_form()))
    det = a * d - b * c
    x_lc = (d / det, -b / det)
    y_lc = (-c / det, a / det)
    j = space.degree

    def pow_coeffs(lin, n):
        u, v = lin
        return [math.comb(n, k) * u ** (n - k) * v**k for k in range(n + 1)]

    rows = []
    for f in space.basis:
        acc = [Fraction(0)] * (j + 1)
        for (xp, yp), coef in f.monomials().items():
            for k1, c1 in enumerate(pow_coeffs(x_lc, xp)):
                for k2, c2 in enumerate(pow_coeffs(y_lc, yp)):
                    acc[k1 + k2] += coef * c1 * c2
        rows.append(acc)
    return FormSpace.span(j, rows)


def ram_data(space, p, c_form=None):
    """(degree sequence, qram, code) read off the binomial frame change."""
    lc = change_basis(space, p, c_form)
    j, d = space.degree, space.dim
    ns = sorted(j - k for k in lc.pivots)
    qram = tuple(sorted((n - i for i, n in enumerate(ns)), reverse=True))
    cob = sorted(j - k for k in range(j + 1) if k not in set(lc.pivots))
    q = tuple(sorted((a - i for i, a in enumerate(cob)), reverse=True))
    assert qram == conjugate_with_zeros(box_complement(q, j + 1 - d, d), d)
    return tuple(ns), qram, q


def ideal_pieces(generators, T):
    """Degreewise pieces of the ideal generated by ``generators`` in degrees
    T.mu..T.j, each the span of every monomial multiple of every generator of
    at most that degree, reduced from the overcomplete set."""
    pieces = {}
    for d in range(T.mu, T.j + 1):
        spanning = [
            BinaryForm(d, (0,) * yp + g.coeffs + (0,) * (d - g.degree - yp))
            for g in generators
            for yp in range(d - g.degree + 1)
        ]
        pieces[d] = FormSpace.span(d, spanning)
    return pieces


def lr_coefficient(lam, mu, nu) -> int:
    """The Littlewood-Richardson number, counting fillings of the skew shape
    lam/mu with content nu, weakly increasing along rows, strictly down
    columns, whose reverse reading word (rows read right to left, top to
    bottom) is a lattice word."""
    lam, mu, nu = (tuple(v for v in p if v) for p in (lam, mu, nu))
    if len(mu) > len(lam) or any(m > l for l, m in zip(lam, mu)):
        return 0
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    mu = mu + (0,) * (len(lam) - len(mu))
    cells = [(r, c) for r in range(len(lam)) for c in range(lam[r] - 1, mu[r] - 1, -1)]
    nvals = len(nu)
    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (nvals + 2)
    found = 0

    def rec(idx):
        nonlocal found
        if idx == len(cells):
            found += 1
            return
        r, c = cells[idx]
        right = grid.get((r, c + 1))
        up = grid.get((r - 1, c))
        lo = 1 if up is None else up + 1
        hi = nvals if right is None else right
        for v in range(lo, hi + 1):
            if counts[v] >= nu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            grid[(r, c)] = v
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
        grid.pop((r, c), None)

    rec(0)
    return found


def lr_multiply(x, y):
    """Product of two Schubert classes: the tableau count of every partition
    in the box of the right size, for every pair of terms."""
    rows, cols = x.box
    out = {}
    for p1, c1 in x.terms:
        for p2, c2 in y.terms:
            size = sum(p1) + sum(p2)
            if size > rows * cols:
                continue
            for lam in box_partitions(rows, cols):
                if sum(lam) != size:
                    continue
                co = lr_coefficient(lam, p1, p2)
                if co:
                    out[lam] = out.get(lam, 0) + c1 * c2 * co
    return SchubertClass.make(x.box, out)


@lru_cache(maxsize=None)
def _partitions_of(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for k in range(min(n, max_part), 0, -1):
        out.extend((k,) + rest for rest in _partitions_of(n - k, k))
    return tuple(out)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in descending lexicographic order."""
    return tuple(Partition(p) for p in _partitions_of(n, n))
