"""Slow reference implementations kept as differential test oracles.

These are the straightforward versions the library's fast paths replaced:
row reduction and row-space membership over :class:`~fractions.Fraction`,
a Laplace determinant over integer or Fraction polynomials, a
rational root search that evaluates every rational-root-theorem candidate
with Fraction arithmetic, a frame change that expands every monomial
binomially, standard generators built on monomial dicts and reduced by a
search for the smallest ideal monomial after every subtraction, ideal pieces
spanned by every monomial multiple of the generators, the closure of the
pieces under x and y with every shift reduced, a Littlewood-Richardson
product that counts the tableaux of every shape in the box, products,
pushforwards and pullbacks of cell classes summed in dicts, with every
binomial spread taken over its whole range, the class of the bundle variety
with every binomial term formed, every partition of n by
recursion on the largest part, the hook code read off the hooks of a shape,
the boxes of T and the box check of a code, both read off ``T.value``, a
depth-first search for the shapes of given diagonal lengths, the dense
cell built row by row from the largest degree each row reaches, the pair set
S(E) read off the hooks of the shape, the initial ideal regrouped row by
row from the set of its cobasis cells, and the small-Grassmannian charts by
a second elimination of each piece under a column priority.  They share no
code with the paths they check.

The torus weights of the tangent space Hom_R(E, R/E)_0 at a monomial ideal
E, by linear algebra on the syzygies of adjacent generators, check
``t_invariants`` (the dimension of G_T) and ``cells.dims`` (the dimension of
each cell) by a route of their own.  Summed by Atiyah-Bott localization over
the fixed points, they give the integrals of the ambient classes
zeta^u eta^v over the pencil-bundle varieties, which check ``iota_pullback``.

A multi-modular determinant of integer polynomial matrices, by elimination
modulo 62-bit primes, interpolation and Chinese remaindering, checks
``unipoly.det`` on matrices too large for the Laplace expansion, and on the
Taylor matrix of the given rows with nothing divided out, the Wronskian's
integer polynomial.

Two cross-checks that the library leaves to the tests live here too: the
Wronskian dehomogenized at x = 1 as well as at y = 1, and the
complement-dual identity between the two ramification partitions.  So do
``from_monomials``, which writes a form from a dict of monomials, and
``monomials``, which reads that dict back.
"""

import math
from fractions import Fraction
from functools import lru_cache

from hookcells import (
    AmbientClass, BinaryForm, BundleClass, FormSpace, HookCode, MonomialIdeal, Partition, SchubertClass,
)
from hookcells.cells import SmallGrassChart
from hookcells.errors import InternalError, InvalidT, NotInBigCell
from hookcells.partitions import as_hilbert, box_complement, box_partitions, hooks
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
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return _trim(out)


def _derivative(p):
    return _trim([i * p[i] for i in range(1, len(p))]) if len(p) > 1 else [0]


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
    along the first row; integer coefficients stay integers and any other
    coefficient is read as a Fraction."""
    matrix = [[[c if type(c) is int else Fraction(c) for c in e] for e in row] for row in matrix]
    n = len(matrix)
    if n == 0:
        return [1]
    memo = {}

    def minor(row, colmask):
        if row == n:
            return [1]
        if colmask in memo:
            return memo[colmask]
        acc = [0]
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


def _is_prime(n):
    """Miller-Rabin on the first twelve prime bases, deterministic for
    n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _det_mod(m, p):
    """Determinant mod the prime ``p`` by Gaussian elimination."""
    m = [row[:] for row in m]
    n, out = len(m), 1
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r], out = m[r], m[c], -out
        out = out * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r][c:] = [(a - f * b) % p for a, b in zip(m[r][c:], m[c][c:])]
    return out % p


def _interpolate_mod(ys, p):
    """Coefficients mod ``p`` of the polynomial of degree below len(ys) that
    takes the value ys[x] at x = 0, 1, ...: Newton divided differences, then
    Horner in the Newton basis."""
    c = list(ys)
    for k in range(1, len(c)):
        inv = pow(k, -1, p)
        for i in range(len(c) - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    out = [c[-1]]
    for k in range(len(c) - 2, -1, -1):
        # out * (x - k) + c[k]
        out = [(c[k] - k * out[0]) % p] + [(a - k * b) % p for a, b in zip(out, out[1:])] + [out[-1]]
    return out


def det_multimodular(matrix):
    """Determinant of a square matrix of integer polynomials, modulo primes
    just below 2^62: each prime takes the determinants of the matrix's
    values at 0, 1, ..., D by elimination and interpolates them, and the
    coefficients are lifted by the Chinese remainder theorem until the
    modulus passes twice the height H.  D is the smaller sum of the rows'
    (or the columns') largest entry degrees, and H the smaller product of
    the row (or column) sums of the entries' l1 norms."""
    n = len(matrix)
    if n == 0:
        return [1]
    lens = [[len(e) for e in row] for row in matrix]
    deg = min(sum(map(max, lens)), sum(map(max, zip(*lens)))) - n
    norms = [[sum(map(abs, e)) for e in row] for row in matrix]
    height = min(math.prod(map(sum, norms)), math.prod(map(sum, zip(*norms))))
    values = []
    for x in range(deg + 1):
        values.append([[sum(c * x**k for k, c in enumerate(e)) for e in row] for row in matrix])
    coeffs, modulus, p = [0] * (deg + 1), 1, 1 << 62
    while modulus <= 2 * height:
        p -= 1
        while not _is_prime(p):
            p -= 1
        residues = _interpolate_mod([_det_mod([[v % p for v in row] for row in m], p) for m in values], p)
        lift = pow(modulus, -1, p)
        coeffs = [a + modulus * ((r - a) * lift % p) for a, r in zip(coeffs, residues)]
        modulus *= p
    coeffs = [a - modulus if 2 * a > modulus else a for a in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def wronskian(space, at="y"):
    """The Wronskian of the space from its stored rows, dehomogenized at
    y = 1 (``at="y"``) or at x = 1 (``at="x"``), rehomogenized and
    normalized to leading coefficient 1, which also undoes any scaling of
    the rows.  Both must give the same form."""
    d = space.dim
    n_deg = d * space.codim
    if at == "y":
        polys = [_trim(row[::-1]) for row in space.rows]  # f(x, 1) by x-power
    else:
        polys = [_trim(row) for row in space.rows]  # f(1, y) by y-power
    rows = [polys]
    for _ in range(d - 1):
        rows.append([_derivative(q) for q in rows[-1]])
    w = laplace_det(rows)
    terms = {(m, n_deg - m) if at == "y" else (n_deg - m, m): c for m, c in enumerate(w) if c != 0}
    return from_monomials(n_deg, terms).normalized()


def taylor_wronskian(space):
    """``(d * codim, w)``, the Wronskian's integer polynomial at y = 1 with
    nothing divided out: the determinant of the Taylor coefficients
    C(s, k) c_s x^(s-k) of the given rows, by ``det_multimodular``, with
    every zero at x = 0 inside it."""
    d = space.dim
    polys = [_trim(row[::-1]) for row in space._given]
    matrix = [[[math.comb(s, k) * q[s] for s in range(k, len(q))] or [0] for q in polys] for k in range(d)]
    return d * space.codim, tuple(det_multimodular(matrix))


def from_monomials(degree, terms):
    """The degree-``degree`` form with coefficient ``c`` on x^xp y^yp for
    each entry ``(xp, yp): c`` of ``terms``."""
    coeffs = [Fraction(0)] * (degree + 1)
    for (xp, yp), c in terms.items():
        if xp + yp != degree:
            raise ValueError(f"monomial x^{xp} y^{yp} has wrong degree")
        coeffs[yp] += Fraction(c)
    return BinaryForm(degree, coeffs)


def monomials(form):
    """The dict ``{(xp, yp): c}`` of the nonzero terms c x^xp y^yp of ``form``."""
    return {(form.degree - k, k): c for k, c in enumerate(form.coeffs) if c != 0}


def rational_roots(p):
    """Rational roots with multiplicities: every candidate a/b of the
    rational root theorem in lowest terms is evaluated, none skipped, as the
    integer b^n p(a/b) = sum c_k a^k b^(n-k); each root found is then
    divided out in Fractions as often as it goes."""
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
    found = []
    for num in _divisors(abs(ip[0])):
        for d in _divisors(abs(ip[-1])):
            if math.gcd(num, d) == 1:
                for a in (num, -num):
                    acc, d_k = 0, 1
                    for c in reversed(ip):
                        acc = acc * a + c * d_k
                        d_k *= d
                    if not acc:
                        found.append(Fraction(a, d))
    fp = [Fraction(c) for c in ip]
    for r in sorted(found):
        mult = 0
        while eval_at(fp, r) == 0:
            fp, rem = divmod_(fp, [-r, Fraction(1)])
            if not _is_zero(rem):
                raise AssertionError(f"root {r} left the remainder {rem}")
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
        for (xp, yp), coef in monomials(f).items():
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
    if qram != conjugate_with_zeros(box_complement(q, j + 1 - d, d), d):
        raise AssertionError(f"qram {qram} is not dual to the code {q}")
    return tuple(ns), qram, q


def pair_set_S(E):
    """The pairs (mu, nu) of S(E) read off the hooks of the shape: one per
    hook of difference one, mu = y * foot and nu = hand."""
    out = []
    for h in hooks(E.partition):
        if h.difference == 1:
            fr, fc = h.foot
            hr, hc = h.hand
            out.append(((fc, fr + 1), (hc, hr)))
    return tuple(sorted(out, key=lambda pair: (_mono_key(pair[0]), _mono_key(pair[1]))))


def initial_ideal(ideal, p):
    """The initial monomial ideal of a graded ideal at ``p``: the set of
    cobasis cells (d - a, a), a an L-power missing from the degree sequence
    of the degree-d piece read off the binomial frame change, regrouped row
    by row; None when the cells do not form a partition shape."""
    T = ideal.hilbert_function
    cob_cells = set()
    for d in range(T.j + 1):
        lpows = set(ram_data(ideal.pieces[d], p)[0]) if d >= T.mu else set()
        cob_cells.update((d - a, a) for a in range(d + 1) if a not in lpows)
    nrows = 1 + max((r for (r, _) in cob_cells), default=-1)
    parts = []
    for r in range(nrows):
        cs = sorted(c for (rr, c) in cob_cells if rr == r)
        if cs != list(range(len(cs))):
            return None
        parts.append(len(cs))
    if 0 in parts or any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return None
    return MonomialIdeal(Partition(parts))


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


def unclosed_degree(pieces, T):
    """The first degree i in T.mu..T.j - 1 where x or y times a stored
    echelon row of the degree-i piece is not in the degree-(i + 1) piece,
    or None: every shift reduced by ``FormSpace._holds``, as the closure
    check of ``GradedIdeal`` did before it took a shift that equals a
    stored row of the next piece as a member unreduced.  It checks that
    row identity, and shares the reduction with the check."""
    for i in range(T.mu, T.j):
        nxt = pieces[i + 1]
        for row in pieces[i]._echelon:
            if not (nxt._holds((*row, 0)) and nxt._holds((0, *row))):
                return i
    return None


def _shift(term, dm):
    return {(m[0] + dm[0], m[1] + dm[1]): c for m, c in term.items()}


def _column_shift(m, q):
    k = min(m[0], len(q) - 1)
    return k, (m[0] - k, m[1] - q[k])


def _mono_key(m):
    return (m[0] + m[1], m[0])


def _reduce_by_generators(g, gens, E, q):
    """Divide away every ideal-monomial term of ``g``, smallest first, each
    time searching the remaining terms again."""
    g = {m: c for m, c in g.items() if c != 0}
    while True:
        inside = [m for m in g if E.contains(m)]
        if not inside:
            return g
        m = min(inside, key=_mono_key)
        k, shift = _column_shift(m, q)
        coef = g[m]
        for mm, cc in _shift(gens[k], shift).items():
            g[mm] = g.get(mm, Fraction(0)) - coef * cc
            if g[mm] == 0:
                del g[mm]


def standard_generators(params):
    """The standard generators of the ideal with cell coordinates ``params``,
    built on monomial dicts: each starts as its leading monomial minus the
    free multiples of the S(E) hands, read off the hooks by ``pair_set_S``,
    and x times it, reduced against the generators of larger column, forces
    the rest of its tail."""
    E = params.ideal
    q = E.column_heights()
    p0 = len(q) - 1
    cob = set(E.cobasis())
    free_by_mu = {}
    for (mu, nu) in pair_set_S(E):
        free_by_mu.setdefault(mu, []).append(nu)
    gens = {p0: {(p0, 0): Fraction(1)}}
    for c in range(p0 - 1, -1, -1):
        beta = (c, q[c])
        f = {beta: Fraction(1)}
        for nu in free_by_mu.get(beta, ()):
            f[nu] = -params.values[(beta, nu)]
        rem = _reduce_by_generators(_shift(f, (1, 0)), gens, E, q)
        for m, coef in rem.items():
            nu = (m[0] - 1, m[1])
            if m[0] < 1 or nu not in cob or _mono_key(nu) <= _mono_key(beta):
                raise ValueError(f"reduction left an unexpected term {m}")
            f[nu] = -coef
        gens[c] = f
    return tuple(from_monomials(c + q[c], gens[c]) for c in range(p0 + 1))


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


def _bundle_class(mu, j, out):
    """The cell class of the nonzero in-range entries of ``out``, built
    without ``make``."""
    return BundleClass(mu, j, tuple(sorted(
        (k, c) for k, c in out.items() if c and 0 <= k[0] <= mu - 1 and 0 <= k[1] <= mu
    )))


def _restrict(mu, j, kept, spread):
    """c [u, v] for every c at (u, v) in ``kept`` plus the binomial spread
    sum_i C(j+1-mu, i) c [u+i-1, v-i+1], i = 0..j+1-mu, of every c at (u, v)
    in ``spread``."""
    n = j + 1 - mu
    out = dict(kept)
    for (u, v), c in spread.items():
        for i in range(n + 1):
            key = (u + i - 1, v - i + 1)
            out[key] = out.get(key, 0) + c * math.comb(n, i)
    return _bundle_class(mu, j, out)


def t_multiply(x, y):
    """Product of cell classes: [a+c, b+e] while at most one factor has
    codimension >= mu, spread binomially when both are below mu and the
    total is not."""
    mu, j = x.mu, x.j
    kept, spread = {}, {}
    for (a, b), c1 in x.terms:
        for (ce, e), c2 in y.terms:
            cod1, cod2 = a + b, ce + e
            if cod1 < mu or cod2 < mu:
                part = spread if cod1 < mu and cod2 < mu <= cod1 + cod2 else kept
                key = (a + ce, b + e)
                part[key] = part.get(key, 0) + c1 * c2
    return _restrict(mu, j, kept, spread)


def class_gt(mu, j):
    """(zeta + eta)^(j+1-mu) with every binomial term formed, the ones past
    zeta^mu dropped by ``make``."""
    n = j + 1 - mu
    return AmbientClass.make(mu, j, {(i, n - i): math.comb(n, i) for i in range(n + 1)})


def iota_pullback(x):
    """zeta^u eta^v to [u, v] below codimension mu, spread from there on."""
    return _restrict(
        x.mu, x.j,
        {k: c for k, c in x.terms if sum(k) < x.mu},
        {k: c for k, c in x.terms if sum(k) >= x.mu},
    )


def iota_pushforward(x):
    """[a, b] to zeta^(a+1) eta^(b+j-mu) at codimension >= mu, else to
    zeta^a eta^b (zeta + eta)^(j+1-mu) expanded binomially; truncated to
    P^mu x P^j."""
    mu, j = x.mu, x.j
    n = j + 1 - mu
    out = {}
    for (a, b), c in x.terms:
        if a + b >= mu:
            image = {(a + 1, b + j - mu): c}
        else:
            image = {(a + i, b + n - i): c * math.comb(n, i) for i in range(n + 1)}
        for k, v in image.items():
            out[k] = out.get(k, 0) + v
    return AmbientClass(mu, j, tuple(sorted(
        (k, c) for k, c in out.items() if c and 0 <= k[0] <= mu and 0 <= k[1] <= j
    )))


def secant_pullback(mu, j, i):
    """Pullback of the rank-i stratum: the coefficient of t^(mu-i) in
    (1 - zeta t)^(j-mu-i+1) (1 + eta t)^(i+1), each term skipped where a
    binomial is out of range, pulled back."""
    k = mu - i
    terms = {}
    for u in range(k + 1):
        v = k - u
        if u > j - mu - i + 1 or v > i + 1:
            continue
        c = (-1) ** u * math.comb(j - mu - i + 1, u) * math.comb(i + 1, v)
        if c:
            terms[(u, v)] = c
    return iota_pullback(AmbientClass(mu, j, tuple(sorted(terms.items()))))


def secant_preimage_class(mu, j, i):
    """The class in P^mu x P^j of Z_i, the degree-mu forms whose Hankel
    matrix has rank at most i: the preimage of the i-th secant variety of
    the rational normal curve C_j, of dimension mu + i - 1 when
    2 mu < j + 1.  Z_i is the birational image of P(R_{mu-i}) x P(E),
    f = g h, with E over P(R_i) the rank-i bundle (g R_{j-i})^perp in
    R_j^*, so for a + b = mu + i - 1 the integral of zeta^a eta^b over Z_i
    is C(a, mu-i) C(j-i+1, b-i+1): the coefficient of
    zeta^(mu-a) eta^(j-b)."""
    terms = {}
    for a in range(mu - i, mu + 1):
        b = mu + i - 1 - a
        terms[(mu - a, j - b)] = math.comb(a, mu - i) * math.comb(j - i + 1, b - i + 1)
    return AmbientClass.make(mu, j, terms)


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


def boxes(T) -> tuple[tuple[int, int], ...]:
    """The (rows, cols) = (t_i - t_{i+1}, 1 + t_{i-1} - t_i) box of each
    degree i = mu..j."""
    T = as_hilbert(T)
    v = T.value
    return tuple((v(i) - v(i + 1), 1 + v(i - 1) - v(i)) for i in range(T.mu, T.j + 1))


def fits(T, code: HookCode) -> bool:
    """Whether ``code`` has the degrees of ``T`` and each component is a
    zero-padded partition in its box."""
    T = as_hilbert(T)
    bx = boxes(T)
    if (code.mu, code.j) != (T.mu, T.j) or len(code.qs) != len(bx):
        return False
    return all(
        len(q) == rows and all(cols >= q[k] >= 0 for k in range(rows))
        and all(q[k] >= q[k + 1] for k in range(rows - 1))
        for q, (rows, cols) in zip(code.qs, bx)
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
    by_hand: dict[tuple[int, int], int] = {}
    hands_by_deg: dict[int, set] = {}
    for h in hooks(p):
        hands_by_deg.setdefault(h.hand_degree, set()).add(h.hand)
        if h.difference == 1:
            by_hand[h.hand] = by_hand.get(h.hand, 0) + 1
    qs = []
    for i in range(T.mu, T.j + 1):
        rows = T.value(i) - T.value(i + 1)
        hands = sorted(hands_by_deg.get(i, ()), key=lambda rc: rc[0])  # decreasing x-power
        counts = [by_hand.get(h, 0) for h in hands]
        if len(counts) == rows + 1 and counts[-1] == 0:
            counts = counts[:-1]
        if len(counts) != rows:
            raise InternalError(f"shape {list(p.parts)}, degree {i}: counts {counts}, {rows} rows")
        qs.append(tuple(counts))
    return HookCode(T.mu, T.j, tuple(qs))


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


def big_cell(T) -> MonomialIdeal:
    """The dense cell: the unique shape with distinct parts."""
    T = as_hilbert(T)
    if not T.t:
        return MonomialIdeal(Partition())
    parts = []
    r = 0
    while True:
        ds = [d for d in range(T.j + 1) if T.value(d) >= r + 1]
        if not ds:
            break
        parts.append(max(ds) - r + 1)
        r += 1
    E = MonomialIdeal(Partition(parts))
    if E.hilbert_function != T or len(set(parts)) != len(parts):
        raise InvalidT(f"no distinct-parts shape with diagonal lengths {list(T.t)}")
    return E


def small_grass_chart(ideal):
    """The charts of ``cells.small_grass_coords`` by a second elimination of
    each degree-i piece, on its stored echelon rows, under a column
    priority: first the monomials outside the shifts of the previous
    cobasis diagonal, then the ideal monomials among those shifts, then the
    hands, then the shifts whose x-shift stays in the shape.  The rows that
    pivot past the first group span the vectors of the piece supported on
    the shifts, and those pivoting on an ideal monomial give the chart.  The
    ideal is in the dense cell when the pivots of each piece under the
    reverse column order, its initial monomials, are the shape's.  A column
    in a coefficient row is the y-power of its monomial."""
    T = ideal.hilbert_function
    E0 = big_cell(T)
    charts = []
    for i in range(T.mu, T.j + 1):
        lead = rref(ideal.pieces[i]._echelon, i + 1, col_order=range(i, -1, -1))[1]
        if sorted(lead) != [yp for yp in range(i + 1) if E0.contains((i - yp, yp))]:
            raise NotInBigCell("ideal is not in the dense cell")
        prev = E0.cobasis(i - 1)
        shifted = {(m[0] + 1, m[1]) for m in prev} | {(m[0], m[1] + 1) for m in prev}
        u_set = {m for m in shifted if not E0.contains((m[0] + 1, m[1]))}
        ambient = sorted(shifted - u_set, key=_mono_key)
        hands = sorted((m for m in ambient if not E0.contains(m)), key=lambda m: -m[0])
        others = [m for m in ambient if E0.contains(m)]
        outside = [yp for yp in range(i + 1) if (i - yp, yp) not in shifted]
        order = outside + [m[1] for m in others + hands] + [m[1] for m in u_set]
        red, piv = rref(ideal.pieces[i]._echelon, i + 1, col_order=order)
        rows = {(i - p, p): row for row, p in zip(red, piv) if (i - p, p) in ambient}
        if list(rows) != others:
            raise NotInBigCell(f"degree-{i} chart is degenerate")
        matrix = tuple(
            tuple(-rows[m][h[1]] if m in rows else Fraction(int(m == h)) for m in ambient) for h in hands
        )
        charts.append(SmallGrassChart(i, tuple(hands), tuple(ambient), matrix))
    return tuple(charts)


def tangent_weights(E) -> list[int]:
    """The torus weights of Hom_R(E, R/E)_0, the tangent space of G_T at the
    monomial ideal E, with multiplicity, by exact linear algebra.

    A degree-0 map phi sends each minimal generator g = x^a y^b to a
    combination of the cobasis monomials n of its degree; the unknown of the
    pair (g, n) has weight n_x - a.  The maps are the solutions of one
    syzygy x^(a' - a) phi(g) = y^(b - b') phi(g') in R/E per pair of
    adjacent generators g, g' = x^a' y^b' with a < a'.  Its coefficient at a
    cobasis monomial m involves unknowns of weight m_x - a' only, so each
    weight space is solved on its own: its dimension is the number of its
    unknowns less the rank of its equations.
    """
    parts = tuple(E.partition.parts) + (0,)
    cobasis = {(c, r) for r, pr in enumerate(parts) for c in range(pr)}
    # the corners of the shape, x^parts[r] y^r where the row is shorter than
    # the one above it, by increasing x-power
    gens = [(parts[r], r) for r in range(len(parts) - 1, -1, -1) if r == 0 or parts[r] < parts[r - 1]]
    unknowns = {}  # weight -> {(g, n): column}
    for a, b in gens:
        for nx in range(a + b + 1):
            if (nx, a + b - nx) in cobasis:
                column = unknowns.setdefault(nx - a, {})
                column[(a, b), (nx, a + b - nx)] = len(column)
    equations = {}  # weight -> [{column: coefficient}]
    for (a, b), (a2, b2) in zip(gens, gens[1:]):
        for mx in range(a2 + b + 1):
            m = (mx, a2 + b - mx)
            if m not in cobasis:
                continue
            column = unknowns.get(mx - a2, {})
            row = {}
            n = (mx - (a2 - a), m[1])
            if n in cobasis:
                row[column[(a, b), n]] = 1
            n2 = (mx, m[1] - (b - b2))
            if n2 in cobasis:
                row[column[(a2, b2), n2]] = -1
            if row:
                equations.setdefault(mx - a2, []).append(row)
    weights = []
    for w, column in unknowns.items():
        rows = [[row.get(k, 0) for k in range(len(column))] for row in equations.get(w, ())]
        weights += [w] * (len(column) - len(rref(rows, len(column))[0]))
    return sorted(weights)


@lru_cache(maxsize=None)
def _fixed_points(mu, j):
    """For each monomial ideal E with Hilbert function (1, 2, ..., mu, mu,
    ..., mu, 1) of socle degree j: its one monomial of degree mu, its one
    cobasis monomial of degree j and its tangent weights."""
    T = (*range(1, mu + 1), *[mu] * (j - mu), 1)
    out = []
    for p in enumerate_with_diagonal_lengths(T):
        E = MonomialIdeal(p)
        (low,) = E.piece(mu)
        (top,) = (m for m in ((j - y, y) for y in range(j + 1)) if not E.contains(m))
        out.append((low, top, tuple(tangent_weights(E))))
    return tuple(out)


def localized_integral(mu, j, u, v, weights):
    """The integral of zeta^u eta^v over the variety of graded ideals with
    Hilbert function (1, 2, ..., mu, mu, ..., mu, 1) of socle degree j, by
    Atiyah-Bott localization: the sum over its torus-fixed points, the
    monomial ideals E, of zeta_E^u eta_E^v / e(T_E).

    The torus scales x and y with the weights (w1, w2), so the monomial
    x^a y^b has weight a w1 + b w2.  zeta_E is minus the weight of the one
    monomial of E in degree mu, eta_E the weight of the one cobasis monomial
    in degree j, and e(T_E) the product of the tangent weights, each weight
    w of ``tangent_weights`` being w (w1 - w2).  Only u + v = 2 mu - 1, the
    dimension, gives a number."""
    w1, w2 = weights
    total = Fraction(0)
    for (a, b), (c, d), tangent in _fixed_points(mu, j):
        euler = math.prod(w * (w1 - w2) for w in tangent)
        total += Fraction(-(a * w1 + b * w2)) ** u * (c * w1 + d * w2) ** v / euler
    return total
