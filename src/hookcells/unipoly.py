"""Dense univariate polynomials with exact coefficients.

A polynomial is a list of coefficients indexed by power; the zero polynomial
is ``[0]``.  The arithmetic keeps the coefficient type it is given, so
integer polynomials stay integer and :class:`~fractions.Fraction` ones stay
rational.  Just enough of it for Wronskians, determinants with polynomial
entries and exact rational root extraction.

``det`` takes integer polynomials only and computes over the integers, on one
of two paths chosen by the size of the matrix: Kronecker substitution up to
``KRONECKER_MAX`` rows, evaluation, Bareiss elimination and interpolation
above it.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from .errors import InternalError, ZeroForm
from .linalg import integer_model


def trim(p):
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def is_zero(p):
    return all(c == 0 for c in p)


def degree(p):
    p = trim(p)
    return -1 if is_zero(p) else len(p) - 1


def add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def mul_linear(g, u, v):
    """``g`` times ``u + v x``, untrimmed: one coefficient longer than ``g``."""
    return [u * g[0]] + [u * g[i] + v * g[i - 1] for i in range(1, len(g))] + [v * g[-1]]


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for k, b in enumerate(q):
                out[i + k] += a * b
    return trim(out)


# Largest matrix size for which Kronecker substitution is faster than
# evaluation and interpolation (measured on Wronskian matrices; README).
KRONECKER_MAX = 7


def det(matrix, degree=None, height=None):
    """Determinant of a square matrix of integer polynomials.

    Every coefficient of every entry must be an ``int`` (``TypeError``
    otherwise); the result is an integer polynomial.  Up to
    ``KRONECKER_MAX`` rows the matrix is evaluated at one large power of 2
    and expanded by Laplace over the integers; above it, it is evaluated at
    one integer point per possible coefficient of the result, each
    determinant is taken by Bareiss elimination and the values are
    interpolated.

    A caller that knows more than the entries tell may pass ``degree``, an
    upper bound on the degree of the determinant, and ``height``, an upper
    bound on the absolute value of each of its coefficients; a wrong bound
    gives a wrong result.  Without them ``det`` takes generic bounds from
    the degrees and l1 norms of the entries.
    """
    n = len(matrix)
    if n == 0:
        return [1]
    if n <= KRONECKER_MAX:
        return _det_kronecker(matrix, height)
    return _det_interpolated(matrix, degree)


def _at(matrix, x):
    """The matrix of the entries' values at the integer ``x``, each by
    Horner; ``TypeError`` when a coefficient is not an ``int``."""
    values = []
    for row in matrix:
        vrow = []
        for e in row:
            acc = 0
            for c in reversed(e):
                if type(c) is not int:
                    raise TypeError("det needs polynomial entries with int coefficients")
                acc = acc * x + c
            vrow.append(acc)
        values.append(vrow)
    return values


def _det_kronecker(matrix, height=None):
    """Kronecker substitution: the determinant at x = 2^B, read back as
    balanced base-2^B digits, with B one bit above the bit length of
    ``height``, so every digit is exact.  The generic height is the smaller
    product of the row (or column) sums of the entries' l1 norms."""
    if height is None:
        norms = _at([[list(map(abs, e)) for e in row] for row in matrix], 1)
        height = min(math.prod(map(sum, norms)), math.prod(map(sum, zip(*norms))))
    bits = height.bit_length() + 1
    return balanced_digits(_laplace(_at(matrix, 1 << bits)), bits)


def balanced_digits(v, bits):
    """The integer polynomial whose value at 2^bits is ``v``, each of its
    coefficients below 2^(bits - 1) in absolute value: the balanced base
    2^bits digits of ``v``, lowest first, ``[0]`` for 0."""
    out = []
    mask, half, base = (1 << bits) - 1, 1 << (bits - 1), 1 << bits
    while v:
        digit = v & mask
        if digit >= half:
            digit -= base
        out.append(digit)
        v = (v - digit) >> bits
    return out or [0]


def _laplace(m):
    """Determinant of an integer matrix by Laplace expansion along the first
    remaining row, memoised on the set of unused columns."""
    n = len(m)
    memo = {}

    def minor(row, colmask):
        if row == n:
            return 1
        if colmask in memo:
            return memo[colmask]
        acc, sign = 0, 1
        for c, v in enumerate(m[row]):
            bit = 1 << c
            if colmask & bit:
                if v:
                    t = v * minor(row + 1, colmask ^ bit)
                    acc = acc + t if sign > 0 else acc - t
                sign = -sign
        memo[colmask] = acc
        return acc

    return minor(0, (1 << n) - 1)


def _det_interpolated(matrix, deg=None):
    """Evaluation and interpolation: the determinant at deg + 1 consecutive
    integers centred on 0, each by Bareiss elimination, interpolated by
    Newton forward differences.  The generic deg is the smaller sum of the
    rows' (or the columns') largest entry degrees."""
    if deg is None:
        lens = [[len(e) for e in row] for row in matrix]
        deg = min(sum(map(max, lens)), sum(map(max, zip(*lens)))) - len(matrix)
    x0 = -(deg // 2)
    ys = [_bareiss(_at(matrix, x)) for x in range(x0, x0 + deg + 1)]
    # Newton coefficients a_k = Delta^k y_0 / k!, integers because the
    # determinant has integer coefficients
    newton, fact = [], 1
    for k in range(deg + 1):
        if k:
            fact *= k
            ys = [b - a for a, b in zip(ys, ys[1:])]
        a, r = divmod(ys[0], fact)
        if r:
            raise InternalError(f"interpolated determinant has a non-integer coefficient: {ys[0]}/{fact}")
        newton.append(a)
    # sum of a_k (x - x0)(x - x0 - 1)...(x - x0 - k + 1), by Horner from the top
    out = [newton[-1]]
    for k in range(deg - 1, -1, -1):
        out = mul_linear(out, -(x0 + k), 1)
        out[0] += newton[k]
    return trim(out)


def _bareiss(m):
    """Determinant of an integer matrix by fraction-free elimination
    (Bareiss 1968): each step replaces the matrix by its Schur complement
    scaled by the pivot and divided, exactly, by the previous pivot."""
    sign, prev = 1, 1
    while len(m) > 1:
        if not m[0][0]:
            swap = next((i for i, row in enumerate(m) if row[0]), None)
            if swap is None:
                return 0
            m[0], m[swap] = m[swap], m[0]
            sign = -sign
        (piv, *top), rest = m[0], m[1:]
        m = [[(piv * x - a * y) // prev for x, y in zip(row, top)] for a, *row in rest]
        prev = piv
    return sign * m[0][0]


# -- integer factorisation (for rational root candidates) --------------------

def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def _pollard_rho(n, rng):
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n):
    """Prime factorisation of a positive integer as a dict prime -> exponent."""
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = None  # seeded on the first composite, which few calls meet
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        rng = rng or random.Random(0xC0FFEE)
        d = _pollard_rho(m, rng)
        stack.append(d)
        stack.append(m // d)
    return out


def _divisors(n):
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def _divides(m, n):
    return n % m == 0 if m else n == 0


def _deflate(ip, a, b):
    """Exact integer quotient of ``ip`` by ``b x - a``, or None when the
    division is not exact.  By Gauss's lemma, for a/b in lowest terms that
    is exactly when a/b is not a root."""
    n = len(ip) - 1
    quo = [0] * n
    carry = 0  # g_(k-1) = (c_k + a g_k) / b, from the top down
    for k in range(n, 0, -1):
        carry, rem = divmod(ip[k] + a * carry, b)
        if rem:
            return None
        quo[k - 1] = carry
    return quo if ip[0] == -a * quo[0] else None


def root_multiplicity(ip, a, b):
    """Multiplicity of the root a/b (b > 0, a/b in lowest terms) of the
    integer polynomial ``ip``, and the cofactor left after removing it: the
    number of times ``b x - a`` divides ``ip`` exactly, and the quotient."""
    mult = 0
    while len(ip) > 1 and (quo := _deflate(ip, a, b)) is not None:
        ip, mult = quo, mult + 1
    return mult, ip


# Primes for the no-root certificate of rational_roots: the primes below
# 30, where trying every residue costs little (README, "Wronskians")
CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _no_root_mod(ip, p):
    """Whether the integer polynomial ``ip`` has no root modulo the prime
    ``p``.  Every x mod p has x^p = x, so x^i is x^r with r = 1 + (i - 1)
    mod (p - 1) for i >= 1, and summing the coefficients of each class r
    gives a polynomial g of degree below p with the same values.  Those are
    taken at every x at once: ``_residue_powers`` packs x^r mod p for each r
    into one integer, slot x holding x^r, and the sum of g_r times it holds
    g(x) in slot x, below 2^bits."""
    bits, packed = _residue_powers(p)
    v = (ip[0] % p) * packed[0]
    for r in range(1, min(p, len(ip))):  # the classes past the degree are empty
        v += (sum(ip[r::p - 1]) % p) * packed[r]
    mask = (1 << bits) - 1
    for _ in range(p):
        if (v & mask) % p == 0:
            return False
        v >>= bits
    return True


@functools.cache
def _residue_powers(p):
    """``(bits, packed)``: packed[r] holds x^r mod p in bits x * bits and up,
    for x = 0..p-1, with 0^0 = 1; a slot of ``bits`` bits holds any sum of
    p products of two residues."""
    bits = (p**3).bit_length()
    return bits, tuple(sum(pow(x, r, p) << (bits * x) for x in range(p)) for r in range(p))


def rational_roots(p):
    """Rational roots of ``p`` with multiplicities, as a dict root -> mult.

    Exact: candidates a/b come from the rational root theorem applied to the
    primitive integer model of ``p``.  The root 0 is read off the leading
    zero coefficients and comes first; the others follow in increasing
    order.

    Every other root a/b has b dividing the leading coefficient, so for a
    prime that does not divide it, a/b is a root modulo that prime too.
    When one of the ``CERTIFICATE_PRIMES`` that does not divide the leading
    coefficient leaves no root modulo it, that proves there is no rational
    root besides 0, and no end coefficient is factored.

    Otherwise the candidates come from the divisors of the end coefficients.
    A root a/b makes ``b x - a`` an integer factor, so ``b - a`` divides
    ``p(1)`` and ``b + a`` divides ``p(-1)``; candidates failing either test
    are skipped, and the others are tested, with their multiplicities, by
    repeated exact division by ``b x - a`` (``root_multiplicity``).  The
    search stops when the cofactor left is constant.
    """
    p = trim(p)
    if is_zero(p):
        raise ZeroForm("the zero polynomial has every root")
    ip = integer_model(p)
    # the root 0 by counting leading zeros, one pass, where k deflations by x
    # would take k passes (measurably slower on Wronskians vanishing at x = 0)
    k = next(i for i, c in enumerate(ip) if c)
    roots, ip = ({Fraction(0): k} if k else {}), ip[k:]
    if len(ip) == 1 or any(ip[-1] % q and _no_root_mod(ip, q) for q in CERTIFICATE_PRIMES):
        return roots
    at_one, at_minus_one = sum(ip), sum(ip[::2]) - sum(ip[1::2])
    found = {}
    nums, dens = _divisors(abs(ip[0])), _divisors(abs(ip[-1]))
    for num, b in itertools.product(nums, dens):
        if len(ip) == 1:
            break  # a constant cofactor has no root left
        if ip[0] % num or ip[-1] % b:
            continue  # no longer divides the deflated end coefficients
        for a in (num, -num):
            if not (_divides(b - a, at_one) and _divides(b + a, at_minus_one)):
                continue
            if math.gcd(a, b) != 1:
                continue  # a/b in lowest terms is another candidate
            mult, ip = root_multiplicity(ip, a, b)
            if mult:
                found[Fraction(a, b)] = mult
                at_one, at_minus_one = sum(ip), sum(ip[::2]) - sum(ip[1::2])
    roots.update(sorted(found.items()))
    return roots
