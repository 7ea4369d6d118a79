"""The homology ring of the pencil-bundle varieties and the Hankel strata.

For the Hilbert functions (1, 2, ..., mu, mu, ..., mu, 1) of socle degree j
the variety of graded ideals is a projective (mu-1)-plane bundle over
projective mu-space; it embeds in P^mu x P^j and desingularizes the locus of
degree-j forms that are sums of at most mu powers of linear forms -- the
rank-mu stratum of the (mu+1) x (j+1-mu) Hankel matrices.  This module
implements the cell-class ring with basis [a, b] (0 <= a <= mu-1,
0 <= b <= mu, codimension a + b), its comparison with the ambient ring in
the hyperplane classes zeta and eta, the pullbacks of the rank strata, and
exact Hankel ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg, unipoly
from .binforms import BinaryForm
from .errors import OutOfRange, ZeroForm
from .partitions import _index, _rational, as_hilbert
from .schubert import Combination, grass_degree


@dataclass(frozen=True)
class BundleClass(Combination):
    """Integer combination of the cell classes [a, b]."""

    mu: int
    j: int
    terms: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def _key(mu, j, key):
        a, b = key
        if type(a) is not int or type(b) is not int:
            a, b = key = _index(a, "a"), _index(b, "b")
        return key if 0 <= a <= mu - 1 and 0 <= b <= mu else None

    @staticmethod
    def _monomial(key) -> str:
        return f"[{key[0]},{key[1]}]"

    @classmethod
    def basis(cls, mu: int, j: int, a: int, b: int) -> "BundleClass":
        if not (0 <= a <= mu - 1 and 0 <= b <= mu):
            raise OutOfRange(f"[{a},{b}] is not a basis class for mu={mu}")
        return cls.make(mu, j, {(a, b): 1})

    def coefficient(self, a: int, b: int) -> int:
        return self.as_dict().get((a, b), 0)

    def point_coefficient(self) -> int:
        """Coefficient of the class of a point, [mu-1, mu]."""
        return self.coefficient(self.mu - 1, self.mu)

    def __mul__(self, other):
        return t_multiply(self, other)

    def to_json(self):
        return {
            "mu": self.mu,
            "j": self.j,
            "terms": [{"a": a, "b": b, "coeff": c} for (a, b), c in self.terms],
        }

    @classmethod
    def from_json(cls, data) -> "BundleClass":
        return cls.make(
            _index(data["mu"], "mu"), _index(data["j"], "j"),
            [((t["a"], t["b"]), t["coeff"]) for t in data["terms"]],
        )


# Largest mu (j + 1 - mu) of a ring in t_multiply, iota_pullback and
# secant_pullback (README, "Class rings"): each spreads a class over up to mu
# binomials C(j + 1 - mu, i), each of at most j + 1 - mu bits.
MAX_RING_SIZE = 16_000_000


def _check_size(mu: int, j: int) -> None:
    if mu * (j + 1 - mu) > MAX_RING_SIZE:
        raise OutOfRange(f"mu (j + 1 - mu) is above the limit {MAX_RING_SIZE} at mu = {mu}, j = {j}")


def _restrict(mu: int, j: int, kept, lifted) -> BundleClass:
    """The cell class with c [u, v] for every pair ((u, v), c) of ``kept``
    plus the pullback of every ambient term c zeta^u eta^v of ``lifted``:
    c [u, v] below codimension mu, and from there on the terms of the
    binomial spread sum_i C(j+1-mu, i) c [u+i-1, v-i+1] that lie in range,
    max(0, v+1-mu) <= i <= mu-u; ``OutOfRange`` past ``MAX_RING_SIZE``."""
    _check_size(mu, j)
    n = j + 1 - mu
    return BundleClass._sum(mu, j, kept + [t for t in lifted if sum(t[0]) < mu] + [
        ((u + i - 1, v - i + 1), c * comb(n, i))
        for (u, v), c in lifted if u + v >= mu
        for i in range(max(0, v + 1 - mu), min(n, mu - u) + 1)
    ])


def t_multiply(x: BundleClass, y: BundleClass) -> BundleClass:
    """Product of cell classes.

    On basis classes: [a,b][c,e] = [a+c, b+e] while at most one factor has
    codimension >= mu; when both codimensions are below mu but the total is
    not, the product spreads binomially as
    sum_i C(j+1-mu, i) [a+c+i-1, b+e-i+1]; two factors of codimension >= mu
    multiply to zero.  Out-of-range targets are dropped before they are
    summed.  Below codimension mu, [a,b] is the pullback of zeta^a eta^b, so
    the product of two such terms is the pullback of zeta^(a+c) eta^(b+e).
    """
    x._check(y)
    mu = x.mu
    lifted, kept = [], []
    for (a, b), c1 in x.terms:
        x_low = a + b < mu
        for (ce, e), c2 in y.terms:
            if x_low or ce + e < mu:
                if x_low and ce + e < mu:
                    lifted.append(((a + ce, b + e), c1 * c2))
                elif a + ce < mu and b + e <= mu:
                    kept.append(((a + ce, b + e), c1 * c2))
    return _restrict(mu, x.j, kept, lifted)


@dataclass(frozen=True)
class AmbientClass(Combination):
    """Integer combination of zeta^u eta^v on P^mu x P^j (truncated)."""

    mu: int
    j: int
    terms: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def _key(mu, j, key):
        u, v = key
        if type(u) is not int or type(v) is not int:
            u, v = key = _index(u, "u"), _index(v, "v")
        return key if 0 <= u <= mu and 0 <= v <= j else None

    @staticmethod
    def _monomial(key) -> str:
        bits = [f"{s}^{n}" if n > 1 else s for s, n in zip("ze", key) if n]
        return "*".join(bits) or "1"

    def __mul__(self, other):
        self._check(other)
        return AmbientClass.make(self.mu, self.j, [
            ((u1 + u2, v1 + v2), c1 * c2)
            for (u1, v1), c1 in self.terms
            for (u2, v2), c2 in other.terms
        ])


def class_gt(mu: int, j: int) -> AmbientClass:
    """Class of the bundle variety in P^mu x P^j: (zeta + eta)^(j+1-mu),
    of which only the terms zeta^i eta^(n-i) with i <= mu are formed, since
    zeta^(mu+1) = 0; eta^(n-i) never passes eta^j."""
    if mu < 1 or j < mu:
        raise OutOfRange(f"need 1 <= mu <= j, got ({mu}, {j})")
    n = j + 1 - mu
    return AmbientClass.make(mu, j, {(i, n - i): comb(n, i) for i in range(min(mu, n) + 1)})


def iota_pullback(x: AmbientClass) -> BundleClass:
    """Restriction of an ambient class to the bundle variety.

    zeta^u eta^v pulls back to [u, v] below the critical codimension and
    spreads binomially past it, mirroring the product rule.
    """
    return _restrict(x.mu, x.j, [], x.terms)


def iota_pushforward(x: BundleClass) -> AmbientClass:
    """Image of a cell class in the ambient product.

    Classes of codimension >= mu push to single monomials, [a, b] to
    zeta^(a+1) eta^(b+j-mu); the others are multiplied by the full class of
    the variety.
    """
    mu, j = x.mu, x.j
    gt, shift = class_gt(mu, j).terms, (((1, j - mu), 1),)
    return AmbientClass.make(mu, j, [
        ((a + u, b + v), c * g)
        for (a, b), c in x.terms
        for (u, v), g in (shift if a + b >= mu else gt)
    ])


def secant_pullback(mu: int, j: int, i: int) -> BundleClass:
    """Pullback to the bundle variety of the rank-i Hankel stratum.

    Extracts the coefficient of t^(mu-i) in
    (1 - zeta t)^(j-mu-i+1) (1 + eta t)^(i+1) -- signs included -- and
    restricts it.  Requires 2*mu < j + 1, 1 <= i <= mu and mu (j+1-mu) at most
    ``MAX_RING_SIZE``; i = mu gives the identity class.
    """
    if not 2 * mu < j + 1:
        raise OutOfRange(f"need 2*mu < j+1, got ({mu}, {j})")
    if not 1 <= i <= mu:
        raise OutOfRange(f"rank {i} outside 1..{mu}")
    _check_size(mu, j)
    k = mu - i
    terms = {(u, k - u): (-1) ** u * comb(j - mu - i + 1, u) * comb(i + 1, k - u) for u in range(k + 1)}
    return iota_pullback(AmbientClass.make(mu, j, terms))


# -- Hankel matrices and apolarity ranks -------------------------------------

def hankel_matrix(coeffs, mu: int):
    """The (mu+1) x (j+1-mu) matrix with entry (r, c) = a_(r+c).

    Any window 0 <= mu <= j is allowed so ranks can be compared across
    window shapes; the secant interpretation needs 2*mu < j + 1.
    """
    a = [_rational(x, "coefficient") for x in coeffs]
    j = len(a) - 1
    if not 0 <= mu <= j:
        raise OutOfRange(f"need 0 <= mu <= j, got mu={mu}, j={j}")
    return [[a[r + c] for c in range(j + 1 - mu)] for r in range(mu + 1)]


def hankel_rank(coeffs, mu: int) -> int:
    """Exact rank of the Hankel matrix of a coefficient vector.

    ``coeffs`` uses the binomially scaled convention: the form is
    sum_i C(j, i) a_i x^(j-i) y^i.  The rank is at most ``i`` exactly when
    the form is a sum of ``i`` powers of linear forms (or a limit of such).
    """
    m = hankel_matrix(coeffs, mu)
    if not any(map(any, m)):
        raise ZeroForm("Hankel rank of the zero form")
    return linalg.rank(m, len(m[0]))


def scaled_coefficients(form: BinaryForm) -> tuple[Fraction, ...]:
    """Convert a plain coefficient vector to the scaled Hankel convention."""
    j = form.degree
    return tuple(c / comb(j, k) for k, c in enumerate(form.coeffs))


def wronskian_cover_degree(T) -> int:
    """Degree of the product-of-Wronskians map on the graded-ideal variety:
    the product of the Pluecker degrees of the ambient Grassmannians."""
    T = as_hilbert(T)
    out = 1
    for i in range(T.mu, T.j + 1):
        out *= grass_degree(i + 1 - T.value(i), i + 1)
    return out


@dataclass(frozen=True)
class TripleRamificationCount:
    """Outcome of the fixed worked intersection on the (3, 6) ring."""

    product_class: BundleClass
    count: int
    det_poly: tuple[int, ...]
    det_degree: int
    root_count: int


def ramification_count_example() -> TripleRamificationCount:
    """Count ideals with prescribed ramification at three points (mu=3, j=6).

    Two independent routes: the ring product [1,1]*[0,2]*[1,0], whose point
    coefficient is the count, and an explicit elimination -- the generator
    x(x+y)(x+a*y) forced by the first two conditions leads to a 4 x 4
    matrix over the quotient by <y^6, x*y^5, x^6> whose determinant in a has
    one root per solution ideal.
    """
    mu, j = 3, 6
    prod = t_multiply(
        t_multiply(BundleClass.basis(mu, j, 1, 1), BundleClass.basis(mu, j, 0, 2)),
        BundleClass.basis(mu, j, 1, 0),
    )
    count = prod.point_coefficient()

    # f_a = x (x + y)(x + a y) = x^3 + (1+a) x^2 y + a x y^2 has the
    # coefficient f[k], a polynomial in a, on x^(3-k) y^k.  Row s is
    # x^(3-s) y^s f_a and column c the monomial x^(5-c) y^(1+c) of the basis
    # (x^5 y, x^4 y^2, x^3 y^3, x^2 y^4) of R_6 mod <y^6, x y^5, x^6>, so
    # entry (s, c) is f[k] with k = c + 1 - s when 0 <= k <= 2, and 0 otherwise.
    f = ([1], [1, 1], [0, 1])
    matrix = [[f[c + 1 - s] if 0 <= c + 1 - s <= 2 else [0] for c in range(4)] for s in range(4)]
    det = unipoly.det(matrix)
    deg = unipoly.degree(det)
    return TripleRamificationCount(prod, count, tuple(det), deg, deg)
