"""Dense univariate polynomials with exact coefficients.

A polynomial is a list of coefficients indexed by power; the zero polynomial
is ``[0]``.  The arithmetic keeps the coefficient type it is given, so
integer polynomials stay integer and :class:`~fractions.Fraction` ones stay
rational.  Just enough of it for Wronskians, determinants with polynomial
entries and exact rational root extraction.
"""

import math
import random
from fractions import Fraction

from .errors import InternalError, ZeroForm
from .linalg import integer_model

ZERO = (0,)


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


def mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for k, b in enumerate(q):
                out[i + k] += a * b
    return trim(out)


def derivative(p):
    return trim([i * p[i] for i in range(1, len(p))]) if len(p) > 1 else list(ZERO)


def det(matrix):
    """Determinant of a square matrix with polynomial entries.

    Laplace expansion along the first remaining row, memoised on the set of
    unused columns; fine for the small matrices that arise here.
    """
    n = len(matrix)
    if n == 0:
        return [1]
    memo = {}

    def minor(row, colmask):
        if row == n:
            return [1]
        key = colmask
        if key in memo:
            return memo[key]
        acc = list(ZERO)
        sign = 1
        for c in range(n):
            bit = 1 << c
            if not colmask & bit:
                continue
            entry = matrix[row][c]
            if not is_zero(entry):
                term = mul(entry, minor(row + 1, colmask & ~bit))
                acc = add(acc, term if sign > 0 else [-x for x in term])
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, (1 << n) - 1)


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
    rng = random.Random(0xC0FFEE)
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
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


def _value(ip, a, b):
    """``b^n ip(a/b)`` for an integer polynomial ``ip`` of degree n: the
    integer sum of ``c_i a^i b^(n-i)``, zero exactly when a/b is a root."""
    acc, bp = 0, 1
    for c in reversed(ip):
        acc = acc * a + c * bp
        bp *= b
    return acc


def _deflate(ip, a, b):
    """Exact integer quotient of ``ip`` by ``b x - a``; a/b must be a root."""
    n = len(ip) - 1
    quo = [0] * n
    carry = 0  # g_(k-1) = (c_k + a g_k) / b, from the top down
    for k in range(n, 0, -1):
        carry, rem = divmod(ip[k] + a * carry, b)
        if rem:
            raise InternalError(f"{a}/{b} is not a root: inexact deflation of {ip}")
        quo[k - 1] = carry
    if ip[0] != -a * quo[0]:
        raise InternalError(f"{a}/{b} is not a root: nonzero remainder deflating {ip}")
    return quo


def root_multiplicity(ip, a, b):
    """Multiplicity of the root a/b (b > 0, a/b in lowest terms) of the
    integer polynomial ``ip``, and the cofactor left after removing it."""
    mult = 0
    while len(ip) > 1 and _value(ip, a, b) == 0:
        ip = _deflate(ip, a, b)
        mult += 1
    return mult, ip


def rational_roots(p):
    """Rational roots of ``p`` with multiplicities, as a dict root -> mult.

    Exact: candidates a/b come from the rational root theorem applied to the
    primitive integer model of ``p``.  A root a/b makes ``b x - a`` an
    integer factor, so ``b - a`` divides ``p(1)`` and ``b + a`` divides
    ``p(-1)``; candidates failing either test are skipped, and the others are
    tested with the exact integer value ``b^n p(a/b)``.  Multiplicities come
    from repeated exact integer deflation.
    """
    p = trim(p)
    if is_zero(p):
        raise ZeroForm("the zero polynomial has every root")
    ip = integer_model(p)
    roots = {}
    k = 0
    while ip[k] == 0:
        k += 1
    if k:
        roots[Fraction(0)] = k
        ip = ip[k:]
    if len(ip) == 1:
        return roots
    at_one, at_minus_one = sum(ip), sum(ip[::2]) - sum(ip[1::2])
    found = {}
    nums, dens = _divisors(abs(ip[0])), _divisors(abs(ip[-1]))
    for num in nums:
        for b in dens:
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
    for r in sorted(found):
        roots[r] = found[r]
    return roots
