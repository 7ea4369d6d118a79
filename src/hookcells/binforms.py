"""Binary forms, subspaces, ramification data and Wronskians.

All coefficients are exact rationals.  A degree-j form is stored by its
coefficients on ``x^(j-k) y^k`` for k = 0..j; the monomials of each degree
are ordered ``y^j < x y^(j-1) < ... < x^j`` (increasing x-power), and the
*initial monomial* of a form is its smallest term in that order.  At a point
``p: ax + by = 0`` the same conventions apply with the basis (L, C), where
``L = ax + by`` and C is a fixed complement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, unipoly
from .errors import DegenerateBasis, InternalError, ZeroForm
from .partitions import _index, _list, _rational, ramification_partition, signed_sum


@dataclass(frozen=True, slots=True)
class BinaryForm:
    """A homogeneous polynomial in two variables."""

    degree: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, degree: int, coeffs):
        coeffs = tuple(
            c if type(c) is Fraction else Fraction(c) if type(c) is int else _rational(c, "coefficient")
            for c in coeffs
        )
        if len(coeffs) != degree + 1:
            raise ValueError(f"degree {degree} needs {degree + 1} coefficients")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def normalized(self) -> "BinaryForm":
        """Scale so the first nonzero coefficient (highest x-power) is 1."""
        lead = next((c for c in self.coeffs if c != 0), None)
        if lead is None:
            return self
        return BinaryForm(self.degree, [c / lead for c in self.coeffs])

    def coeff_poly_in_x(self):
        """Coefficients of f(x, 1) indexed by x-power."""
        return unipoly.trim([self.coeffs[self.degree - i] for i in range(self.degree + 1)])

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            xp, yp = self.degree - k, k
            mono = "*".join(
                s for s in (
                    f"x^{xp}" if xp > 1 else ("x" if xp == 1 else ""),
                    f"y^{yp}" if yp > 1 else ("y" if yp == 1 else ""),
                ) if s
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        return signed_sum(parts)

    def __repr__(self):
        return f"BinaryForm({self.degree}, {self!s})"

    def to_json(self):
        return {"degree": self.degree, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data) -> "BinaryForm":
        return cls(_index(data["degree"], "degree"), _list(data["coeffs"], "coeffs"))


@dataclass(frozen=True)
class PointP1:
    """A point of the projective line, named by the linear form a*x + b*y
    vanishing on it, normalized so the first nonzero coordinate is 1."""

    a: Fraction
    b: Fraction

    def __init__(self, a, b):
        a, b = _rational(a, "point coordinate"), _rational(b, "point coordinate")
        if a == 0 and b == 0:
            raise ValueError("point needs a nonzero linear form")
        if a != 0:
            a, b = Fraction(1), b / a
        else:
            b = Fraction(1)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def complement_form(self) -> tuple[Fraction, Fraction]:
        """The default complement C: y when the form involves x, else x."""
        if self.a != 0:
            return (Fraction(0), Fraction(1))
        return (Fraction(1), Fraction(0))

    @classmethod
    def parse(cls, text: str) -> "PointP1":
        a, b = text.split(",")
        return cls(a, b)

    def __str__(self):
        return f"{self.a},{self.b}"

    def to_json(self):
        return [str(self.a), str(self.b)]


POINT_X = PointP1(1, 0)  # the point x = 0
POINT_Y = PointP1(0, 1)  # the point y = 0


@dataclass(frozen=True, slots=True)
class FormSpace:
    """A subspace of the degree-j forms, held as a reduced row echelon basis.

    Pivot search runs through the monomials in increasing order, so each
    basis row's initial monomial is a pivot and row i has strictly larger
    x-adic valuation than row i-1.

    ``rows`` stores each echelon row as its primitive integer multiple with
    a positive entry at the pivot.  The reduced row echelon basis of a space
    is unique, and so is that multiple of each of its rows, so two spaces are
    equal (and hash equally) exactly when they are the same subspace.
    ``basis`` gives the rational echelon rows, each stored row divided by its
    pivot entry.
    """

    degree: int
    rows: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    def __init__(self, degree: int, forms):
        rows = [self._row(degree, f) for f in forms]
        red, piv = linalg.rref(rows, degree + 1, col_order=range(degree, -1, -1))
        if len(red) != len(rows):
            raise DegenerateBasis(f"{len(rows)} forms span only {len(red)} dimensions")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rows", tuple(map(tuple, red)))
        object.__setattr__(self, "pivots", tuple(piv))

    @staticmethod
    def _row(degree, f):
        """The coefficients of a form or coefficient row, each an integer or
        a Fraction; any other entry is read by ``_rational``."""
        if isinstance(f, BinaryForm):
            if f.degree != degree:
                raise ValueError("mixed degrees in form space")
            return f.coeffs
        row = [c if type(c) is int or type(c) is Fraction else _rational(c, "coefficient") for c in f]
        if len(row) != degree + 1:
            raise ValueError("coefficient row has wrong length")
        return row

    @classmethod
    def span(cls, degree: int, forms) -> "FormSpace":
        """Like the constructor but silently drops dependent forms."""
        rows = [cls._row(degree, f) for f in forms]
        red, _ = linalg.rref(rows, degree + 1, col_order=range(degree, -1, -1))
        return cls(degree, red)

    def __repr__(self):
        return f"FormSpace({self.degree}, dim={self.dim})"

    @property
    def basis(self) -> tuple[BinaryForm, ...]:
        return tuple(
            BinaryForm(self.degree, [Fraction(c, row[p]) for c in row])
            for row, p in zip(self.rows, self.pivots)
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return self.degree + 1 - self.dim

    def contains(self, form) -> bool:
        """Membership by reduction against the stored rows: each row is 0 at
        every other pivot, so cross-multiplying at each pivot in turn clears
        the form there, and leaves zero exactly when the form lies in the
        space.  ``form`` is a :class:`BinaryForm` or a coefficient row."""
        v = linalg.integer_model(self._row(self.degree, form))
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                a = row[p]
                g = math.gcd(a, c)
                s, t = a // g, c // g
                v = [s * x - t * y for x, y in zip(v, row)]
        return not any(v)

    def initial_monomials(self) -> tuple[tuple[int, int], ...]:
        """Initial monomials of the space as (x_power, y_power), by valuation."""
        return tuple((self.degree - k, k) for k in self.pivots)

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": [[str(c) for c in f.coeffs] for f in self.basis],
        }

    @classmethod
    def from_json(cls, data) -> "FormSpace":
        degree = _index(data["degree"], "degree")
        return cls(degree, [_list(row, "basis row") for row in _list(data["basis"], "basis")])


@dataclass(frozen=True)
class RamData:
    """Ramification of a form space at a point.

    ``degree_sequence`` holds the strictly increasing L-adic valuations of an
    adapted basis; ``qram`` is that sequence minus (0, 1, ..., d-1), sorted
    decreasingly, one part per basis row; ``code`` is the analogous partition
    built from the cobasis monomials and has codim-many parts.  ``total`` is
    the sum of ``qram``.
    """

    degree_sequence: tuple[int, ...]
    qram: tuple[int, ...]
    code: tuple[int, ...]
    total: int

    def to_json(self):
        return {
            "degree_sequence": list(self.degree_sequence),
            "qram": list(self.qram),
            "code": list(self.code),
            "r": self.total,
        }


def change_basis(space: FormSpace, p: PointP1) -> FormSpace:
    """Coordinates of the space in the basis (L, C) at ``p``, with C the
    point's default complement.

    Returned as a :class:`FormSpace` whose k-th coordinate is the coefficient
    of ``L^(j-k) C^k``; its pivots therefore read off the degree sequence.
    """
    if p == POINT_X or space.dim in (0, space.degree + 1):
        # (L, C) = (x, y) is the identity frame, and the zero and the full
        # space are the same in every frame
        return space
    a, b = p.a, p.b
    c, d = p.complement_form()
    # det = a*d - b*c is a = 1 or -b = -1, never 0.
    # x = (d*L - b*C)/det and y = (-c*L + a*C)/det.  A common factor of the
    # two images scales every row by the same power and leaves the span
    # unchanged, so they are taken as primitive integer vectors; the stored
    # rows are integer already.
    xu, xv, yu, yv = linalg.integer_model([d, -b, -c, a])
    j = space.degree
    y_pows = [[1]]
    for _ in range(j):
        y_pows.append(unipoly.mul_linear(y_pows[-1], yu, yv))
    rows = []
    for coeffs in space.rows:
        # homogeneous Horner: acc <- acc * x + c_k y^k
        acc = [coeffs[0]]
        for k in range(1, j + 1):
            acc = unipoly.mul_linear(acc, xu, xv)
            if coeffs[k]:
                acc = [s + coeffs[k] * t for s, t in zip(acc, y_pows[k])]
        rows.append(acc)
    return FormSpace(j, rows)


def initial_space(space: FormSpace, p: PointP1) -> tuple[tuple[int, int], ...]:
    """Initial monomials at ``p`` as (L_power, C_power) pairs, by valuation."""
    lc = change_basis(space, p)
    return lc.initial_monomials()


def ram_data(space: FormSpace, p: PointP1) -> RamData:
    """Degree sequence and ramification partitions of the space at ``p``.

    They do not depend on the complement C of the frame."""
    lc = change_basis(space, p)
    j = space.degree
    ns = sorted(j - k for k in lc.pivots)
    qram = ramification_partition(ns)
    piv = set(lc.pivots)
    cob = sorted(j - k for k in range(j + 1) if k not in piv)
    return RamData(tuple(ns), qram, ramification_partition(cob), sum(qram))


def wronskian(space: FormSpace) -> BinaryForm:
    """The Wronskian form of the space, of degree dim * codim.

    Computed as a classical one-variable Wronskian after substituting y = 1,
    then rehomogenized with the known degree.  The result is normalized to
    leading coefficient 1; its valuation at any point is the total
    ramification of the space there.
    """
    n_deg, w = _wronskian_poly(space)
    # the coefficient of x^m y^(n_deg - m) sits at index n_deg - m
    lead = w[-1]
    return BinaryForm(n_deg, [0] * (n_deg + 1 - len(w)) + [Fraction(c, lead) for c in reversed(w)])


def _wronskian_poly(space: FormSpace):
    """``(d * codim, w)``: the Wronskian's degree and the Wronskian at y = 1
    as an integer polynomial, up to a constant factor.

    Row k of the matrix holds the Taylor coefficients f^(k) / k! of the
    stored integer rows, smaller than the derivatives; the factors k! and
    the rows' scalings only scale the result.  The division by k is exact,
    since i C(i+k-1, k-1) = k C(i+k-1, k).

    The matrix is T A^t, with A the d x (j+1) stored rows and T[k][s] =
    C(s, k) x^(s-k), so by Cauchy-Binet its determinant is the sum over the
    d-subsets S of {0..j} of det A_S det B_S x^(sum S - C(d, 2)), with
    B[k][s] = C(s, k).  Its degree is at most max sum S - 2 C(d, 2) =
    d * codim, and ``_wronskian_height`` bounds its coefficients.
    """
    d = space.dim
    if d < 1:
        raise DegenerateBasis("Wronskian needs a nonzero space")
    n_deg = d * space.codim
    rows = [[unipoly.trim(row[::-1]) for row in space.rows]]
    for k in range(1, d):
        rows.append([[i * q[i] // k for i in range(1, len(q))] or [0] for q in rows[-1]])
    w = unipoly.trim(unipoly.det(rows, n_deg, _wronskian_height(space)))
    if unipoly.is_zero(w):
        raise InternalError(f"zero Wronskian for the independent basis {space.basis}")
    if len(w) > n_deg + 1:
        raise InternalError(f"Wronskian of degree {len(w) - 1} exceeds dim * codim = {n_deg}")
    return n_deg, w


def _wronskian_height(space: FormSpace) -> int:
    """A number larger than the absolute value of every coefficient of the
    determinant in ``_wronskian_poly``.  A coefficient is a sum of
    det A_S det B_S over some of the subsets S, so by Cauchy-Schwarz its
    square is at most the sum of all det A_S^2 times the sum of all
    det B_S^2.  By Cauchy-Binet these are det(A A^t), at most the product of
    the squared row norms of A by Hadamard, and det(B B^t)."""
    norms = math.prod(sum(c * c for c in row) for row in space.rows)
    return math.isqrt(norms * _binomial_gram(space.dim, space.degree)) + 1


def _binomial_gram(d, j):
    """det(B B^t) for the d x (j+1) matrix B[k][s] = C(s, k), in closed
    form: the product over k < d of C(j+1+k, 2k+1) / C(2k, k)."""
    num = math.prod(math.comb(j + 1 + k, 2 * k + 1) for k in range(d))
    return num // math.prod(math.comb(2 * k, k) for k in range(d))


def point_valuation(form: BinaryForm, p: PointP1) -> int:
    """Multiplicity of the linear form of ``p`` as a factor of ``form``."""
    if form.is_zero:
        raise ZeroForm("valuation of the zero form")
    px = form.coeff_poly_in_x()
    if p.a == 0:
        return form.degree - unipoly.degree(px)
    # root of f(x, 1) at x = -b/a = -b (a normalized to 1)
    root = -p.b
    return unipoly.root_multiplicity(linalg.integer_model(px), root.numerator, root.denominator)[0]


@dataclass(frozen=True)
class RamificationSummary:
    """Where a Wronskian vanishes over the rationals."""

    degree: int
    rational_point_valuations: dict
    irrational_degree: int


def total_ramification_check(space: FormSpace) -> RamificationSummary:
    """Factor the Wronskian over the rationals and cross-check each point.

    Every rational zero of the Wronskian is located by exact root extraction;
    at each such point the valuation is compared against the total
    ramification computed independently from the degree sequence.  The
    multiplicities, together with the degree left in irrational factors, sum
    to dim * codim.
    """
    n_deg, px = _wronskian_poly(space)
    vals = {}
    at_y = n_deg + 1 - len(px)
    if at_y:
        vals[POINT_Y] = at_y
    for root, mult in unipoly.rational_roots(px).items():
        vals[PointP1(1, -root)] = mult
    for point, mult in vals.items():
        if ram_data(space, point).total != mult:
            raise InternalError(f"valuation {mult} at {point} disagrees with ramification data")
    irr = n_deg - sum(vals.values())
    return RamificationSummary(n_deg, vals, irr)
