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
            {
                (_index(t["a"], "a"), _index(t["b"], "b")): _index(t["coeff"], "coeff")
                for t in data["terms"]
            },
        )


def _restrict(mu: int, j: int, kept: dict, spread: dict) -> BundleClass:
    """The cell class with c [u, v] for every c at (u, v) in ``kept`` plus the
    binomial spread sum_i C(j+1-mu, i) c [u+i-1, v-i+1] of every c at (u, v)
    in ``spread``; ``BundleClass.make`` drops the keys out of range."""
    n = j + 1 - mu
    out = dict(kept)
    for (u, v), c in spread.items():
        for i in range(n + 1):
            key = (u + i - 1, v - i + 1)
            out[key] = out.get(key, 0) + c * comb(n, i)
    return BundleClass.make(mu, j, out)


def t_multiply(x: BundleClass, y: BundleClass) -> BundleClass:
    """Product of cell classes.

    On basis classes: [a,b][c,e] = [a+c, b+e] while at most one factor has
    codimension >= mu; when both codimensions are below mu but the total is
    not, the product spreads binomially as
    sum_i C(j+1-mu, i) [a+c+i-1, b+e-i+1]; two factors of codimension >= mu
    multiply to zero.  Out-of-range targets are dropped.
    """
    x._check(y)
    mu, j = x.mu, x.j
    kept: dict[tuple[int, int], int] = {}
    spread: dict[tuple[int, int], int] = {}
    for (a, b), c1 in x.terms:
        for (ce, e), c2 in y.terms:
            cod1, cod2 = a + b, ce + e
            if cod1 < mu or cod2 < mu:
                part = spread if cod1 < mu and cod2 < mu <= cod1 + cod2 else kept
                key = (a + ce, b + e)
                part[key] = part.get(key, 0) + c1 * c2
    return _restrict(mu, j, kept, spread)


@dataclass(frozen=True)
class AmbientClass(Combination):
    """Integer combination of zeta^u eta^v on P^mu x P^j (truncated)."""

    mu: int
    j: int
    terms: tuple[tuple[tuple[int, int], int], ...]

    @staticmethod
    def _key(mu, j, key):
        u, v = key
        return key if 0 <= u <= mu and 0 <= v <= j else None

    @staticmethod
    def _monomial(key) -> str:
        bits = [f"{s}^{n}" if n > 1 else s for s, n in zip("ze", key) if n]
        return "*".join(bits) or "1"

    def __mul__(self, other):
        self._check(other)
        out: dict[tuple[int, int], int] = {}
        for (u1, v1), c1 in self.terms:
            for (u2, v2), c2 in other.terms:
                k = (u1 + u2, v1 + v2)
                out[k] = out.get(k, 0) + c1 * c2
        return AmbientClass.make(self.mu, self.j, out)


def class_gt(mu: int, j: int) -> AmbientClass:
    """Class of the bundle variety in P^mu x P^j: (zeta + eta)^(j+1-mu)."""
    if mu < 1 or j < mu:
        raise OutOfRange(f"need 1 <= mu <= j, got ({mu}, {j})")
    n = j + 1 - mu
    return AmbientClass.make(mu, j, {(i, n - i): comb(n, i) for i in range(n + 1)})


def iota_pullback(x: AmbientClass) -> BundleClass:
    """Restriction of an ambient class to the bundle variety.

    zeta^u eta^v pulls back to [u, v] below the critical codimension and
    spreads binomially past it, mirroring the product rule.
    """
    kept = {k: c for k, c in x.terms if sum(k) < x.mu}
    spread = {k: c for k, c in x.terms if sum(k) >= x.mu}
    return _restrict(x.mu, x.j, kept, spread)


def iota_pushforward(x: BundleClass) -> AmbientClass:
    """Image of a cell class in the ambient product.

    Classes of codimension >= mu push to single monomials; the others are
    supported on the full class of the variety.
    """
    mu, j = x.mu, x.j
    total = AmbientClass.make(mu, j, {})
    gt = class_gt(mu, j)
    for (a, b), c in x.terms:
        if a + b >= mu:
            total = total + AmbientClass.make(mu, j, {(a + 1, b + j - mu): c})
        else:
            total = total + AmbientClass.make(mu, j, {(a, b): c}) * gt
    return total


def secant_pullback(mu: int, j: int, i: int) -> BundleClass:
    """Pullback to the bundle variety of the rank-i Hankel stratum.

    Extracts the coefficient of t^(mu-i) in
    (1 - zeta t)^(j-mu-i+1) (1 + eta t)^(i+1) -- signs included -- and
    restricts it.  Requires 2*mu < j + 1 and 1 <= i <= mu; i = mu gives the
    identity class.
    """
    if not 2 * mu < j + 1:
        raise OutOfRange(f"need 2*mu < j+1, got ({mu}, {j})")
    if not 1 <= i <= mu:
        raise OutOfRange(f"rank {i} outside 1..{mu}")
    k = mu - i
    terms = {}
    for u in range(k + 1):
        v = k - u
        if u > j - mu - i + 1 or v > i + 1:
            continue
        c = (-1) ** u * comb(j - mu - i + 1, u) * comb(i + 1, v)
        if c:
            terms[(u, v)] = c
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

    # f_a = x (x + y)(x + a y) = x^3 + (1+a) x^2 y + a x y^2, coefficients as
    # polynomials in a; rows are x^3 f, x^2 y f, x y^2 f, y^3 f written in the
    # basis (x^5 y, x^4 y^2, x^3 y^3, x^2 y^4) of R_6 mod <y^6, x y^5, x^6>.
    one, a_lin, one_plus_a = [1], [0, 1], [1, 1]
    f_coeffs = {(3, 0): one, (2, 1): one_plus_a, (1, 2): a_lin}  # (xpow, ypow) -> poly in a
    basis = [(5, 1), (4, 2), (3, 3), (2, 4)]
    dropped = {(0, 6), (1, 5), (6, 0)}
    matrix = []
    for (mx, my) in [(3, 0), (2, 1), (1, 2), (0, 3)]:
        row = {b: list(unipoly.ZERO) for b in basis}
        for (fx, fy), poly in f_coeffs.items():
            mono = (fx + mx, fy + my)
            if mono in dropped:
                continue
            row[mono] = unipoly.add(row[mono], poly)
        matrix.append([row[b] for b in basis])
    det = unipoly.det(matrix)
    deg = unipoly.degree(det)
    return TripleRamificationCount(prod, count, tuple(det), deg, deg)
