"""Slow reference implementations kept as differential test oracles.

These are the straightforward versions the library's fast paths replaced:
a Laplace determinant over :class:`~fractions.Fraction` polynomials, a
rational root search that evaluates every rational-root-theorem candidate
with Fraction arithmetic, a frame change that expands every monomial
binomially, and ideal pieces spanned by every monomial multiple of the
generators.  They share no code with the paths they check.

Two cross-checks that the library leaves to the tests live here too: the
Wronskian dehomogenized at x = 1 as well as at y = 1, and the
complement-dual identity between the two ramification partitions.
"""

import math
from fractions import Fraction

from hookcells import BinaryForm, FormSpace
from hookcells.partitions import box_complement
from hookcells.unipoly import _divisors


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
