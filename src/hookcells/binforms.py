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
from .errors import DegenerateBasis, InternalError, OutOfRange, ZeroForm
from .partitions import _decimal, _index, _list, _rational, ramification_partition, signed_sum


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
                parts.append(_decimal(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{_decimal(c)}*{mono}")
        return signed_sum(parts)

    def __repr__(self):
        return f"BinaryForm({self.degree}, {self!s})"

    def to_json(self):
        return {"degree": self.degree, "coeffs": [_decimal(c) for c in self.coeffs]}

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


# Largest degree of a form space that FormSpace.from_json, and so
# `wronskian` and `qram`, accepts: the ramification data of even the zero
# space take one step per degree (README, "Wronskians").
MAX_FORM_DEGREE = 10_000


@dataclass(frozen=True, slots=True, eq=False)
class FormSpace:
    """A subspace of the degree-j forms, held as a row echelon basis.

    Each basis row pivots at its initial monomial, its last nonzero column,
    and the rows run by decreasing pivot, so row i has strictly larger
    x-adic valuation than row i-1.

    The space stores the echelon basis that ``linalg._echelon`` or the
    triangular constructor yields: primitive integer rows, each ending at
    its pivot with a positive entry, the pivots decreasing.  Membership, the
    closure check of an ideal and the frame change read them as they are.

    ``rows``, back-substituted on first read and kept, is the reduced row
    echelon basis, each row its primitive integer multiple with a positive
    entry at the pivot.  That basis is unique, and so is that multiple of
    each of its rows, so two spaces are equal (and hash equally) exactly
    when they are the same subspace.  ``basis`` gives the rational reduced
    rows, each divided by its pivot entry.

    A space also keeps the rows it was built from, each as its primitive
    integer multiple: a basis whose entries are usually much smaller than
    those of the reduced rows, which are minors of it.  The work that does
    not depend on the basis runs on them: the Wronskian (:func:`wronskian`)
    and the vanishing orders at a point other than x = 0 (:func:`ram_data`,
    :func:`initial_space`).  It keeps its integer Wronskian polynomial too,
    once :func:`wronskian` or :func:`total_ramification_check` has computed
    it, so the two share one determinant.  Only the degree, the reduced
    rows and the pivots take part in equality, hashing, ``repr`` and
    ``to_json``.
    """

    degree: int
    pivots: tuple[int, ...]
    _echelon: tuple[tuple[int, ...], ...]
    _given: tuple[tuple[int, ...], ...]
    _wronskian: tuple | None
    _reduced: tuple[tuple[int, ...], ...] | None

    def __init__(self, degree: int, forms):
        given = [linalg.integer_model(self._row(degree, f)) for f in forms]
        ech, piv = linalg._echelon(given)
        if len(ech) != len(given):
            raise DegenerateBasis(f"{len(given)} forms span only {len(ech)} dimensions")
        self._fill(degree, ech, piv, given)

    @classmethod
    def _of_triangular_rows(cls, degree: int, rows) -> "FormSpace":
        """The space spanned by ``rows``, a list of primitive integer rows
        of length ``degree + 1`` whose initial monomials (last nonzero
        entries) fall in strictly increasing columns: the constructor
        without elimination, each pivot read as the last nonzero column of
        its row.  The rows are an echelon basis already and are stored
        as they are, each with a positive entry at its pivot.  Rows out of
        that order, a zero row included, are a :class:`DegenerateBasis`."""
        ech, piv = [], []
        for row in rows:
            p = linalg._last(row)
            if p <= (piv[-1] if piv else -1):
                raise DegenerateBasis(f"rows of degree {degree} do not have increasing initial monomials")
            ech.append([-x for x in row] if row[p] < 0 else row)
            piv.append(p)
        return object.__new__(cls)._fill(degree, ech[::-1], piv[::-1], rows)

    def _fill(self, degree, ech, piv, given):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "pivots", tuple(piv))
        object.__setattr__(self, "_echelon", tuple(map(tuple, ech)))
        object.__setattr__(self, "_given", tuple(map(tuple, given)))
        object.__setattr__(self, "_wronskian", None)
        object.__setattr__(self, "_reduced", None)
        return self

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The reduced row echelon basis, each row primitive with a positive
        pivot entry, back-substituted from the stored rows once."""
        if self._reduced is None:
            red = linalg._back_substitute(self._echelon, self.pivots)
            object.__setattr__(self, "_reduced", tuple(map(tuple, red)))
        return self._reduced

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.degree, self.pivots) == (other.degree, other.pivots) and self.rows == other.rows

    def __hash__(self):
        return hash((self.degree, self.rows, self.pivots))

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
        ech, piv = linalg._echelon([linalg.integer_model(cls._row(degree, f)) for f in forms])
        return object.__new__(cls)._fill(degree, ech, piv, ech)

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
        return len(self.pivots)

    @property
    def codim(self) -> int:
        return self.degree + 1 - self.dim

    def contains(self, form) -> bool:
        """Membership by ``linalg._reduce`` against the stored echelon rows,
        which are zero past their pivots.  ``form`` is a :class:`BinaryForm`
        or a coefficient row."""
        return self._holds(linalg.integer_model(self._row(self.degree, form)))

    def _holds(self, v) -> bool:
        """:meth:`contains` for an integer coefficient row of the right
        length, taken as it is: its reduction, content kept, is zero."""
        return not any(linalg._reduce(v, self._echelon, self.pivots))

    def to_json(self):
        return {
            "degree": self.degree,
            "basis": [[_decimal(c) for c in f.coeffs] for f in self.basis],
        }

    @classmethod
    def from_json(cls, data) -> "FormSpace":
        """The space of a JSON payload; ``OutOfRange`` for a degree above
        ``MAX_FORM_DEGREE``."""
        degree = _index(data["degree"], "degree")
        if degree > MAX_FORM_DEGREE:
            raise OutOfRange(f"form space of degree {degree} is above the limit {MAX_FORM_DEGREE}")
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
    :func:`ram_data` and :func:`initial_space` read the degree sequence
    without this frame change; it stays as their cross-check.
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
    for coeffs in space._echelon:
        # homogeneous Horner: acc <- acc * x + c_k y^k
        acc = [coeffs[0]]
        for k in range(1, j + 1):
            acc = unipoly.mul_linear(acc, xu, xv)
            if coeffs[k]:
                acc = [s + coeffs[k] * t for s, t in zip(acc, y_pows[k])]
        rows.append(acc)
    return FormSpace(j, rows)


def _orders(space: FormSpace, p: PointP1) -> tuple[int, ...]:
    """The L-adic vanishing orders of the forms of the space at ``p``, in
    increasing order: its degree sequence there, one order per dimension.

    At x = 0 they are the stored pivots.  Elsewhere the given rows are
    written as polynomials in a parameter t of L, each reversed so that it
    ends at its lowest power of t, and ``linalg._echelon`` of them finds
    one pivot k, so one order j - k, per row.  At y = 0 the
    parameter is y itself, and coefficient k of a row is already that of
    y^k.  At L = x - (u/v) y, with u/v in lowest terms, a form F becomes
    F(u + t, v): since F = L^m H with H(u, v) != 0, its order in t is m.
    The substitution is invertible, so independent rows stay independent.

    The Taylor shift F(u + t, v) is one Horner pass at t = 2^B, read back
    as balanced digits.  Its coefficient of t^i is the sum over k of
    c_k v^k C(j - k, i) u^(j-k-i), below sum |c_k| * max(v, |u| + 1)^j in
    absolute value, and B is one bit above that bound, so each digit is
    exact.
    """
    j = space.degree
    if p == POINT_X:
        return tuple(j - k for k in space.pivots)
    if space.dim == j + 1:  # every order, without eliminating j + 1 rows
        return tuple(range(j + 1))
    if p == POINT_Y:
        rows = [row[::-1] for row in space._given]
    else:
        root = -p.b
        u, v = root.numerator, root.denominator
        scale = max(v, abs(u) + 1) ** j
        rows = []
        for coeffs in space._given:
            bits = (sum(map(abs, coeffs)) * scale).bit_length() + 1
            x = (1 << bits) + u
            acc, v_k = 0, 1
            for c in coeffs:
                acc = acc * x + c * v_k
                v_k *= v
            digits = unipoly.balanced_digits(acc, bits)
            rows.append([0] * (j + 1 - len(digits)) + digits[::-1])
    piv = linalg._echelon(rows)[1]
    if len(piv) != space.dim:
        raise InternalError(f"the {space.dim} independent rows of a degree-{j} space turned dependent at {p}")
    return tuple(j - k for k in piv)


def initial_space(space: FormSpace, p: PointP1) -> tuple[tuple[int, int], ...]:
    """Initial monomials at ``p`` as (L_power, C_power) pairs, by valuation."""
    j = space.degree
    return tuple((n, j - n) for n in _orders(space, p))


def ram_data(space: FormSpace, p: PointP1) -> RamData:
    """Degree sequence and ramification partitions of the space at ``p``.

    They do not depend on the complement C of the frame."""
    ns = _orders(space, p)
    qram = ramification_partition(ns)
    taken = set(ns)
    cob = [n for n in range(space.degree + 1) if n not in taken]
    return RamData(ns, qram, ramification_partition(cob), sum(qram))


def wronskian(space: FormSpace) -> BinaryForm:
    """The Wronskian form of the space, of degree dim * codim.

    Computed as a classical one-variable Wronskian after substituting y = 1,
    then rehomogenized with the known degree.  The result is normalized to
    leading coefficient 1; its valuation at any point is the total
    ramification of the space there.
    """
    n_deg, w = _wronskian_poly(space)
    # the coefficient of x^m y^(n_deg - m) sits at index n_deg - m
    lead, zero = w[-1], Fraction(0)
    coeffs = [Fraction(c, lead) if c else zero for c in reversed(w)]
    return BinaryForm(n_deg, [zero] * (n_deg + 1 - len(w)) + coeffs)


def _wronskian_poly(space: FormSpace):
    """``(d * codim, w)``: the Wronskian's degree and the Wronskian at y = 1
    as an integer polynomial, up to a constant factor, with ``w`` a tuple.
    The first call on a space stores the pair on it and later calls return
    it.

    Row k of the matrix holds the Taylor coefficients f^(k) / k! of the
    given integer rows, smaller than the derivatives; the factors k! and
    the rows' scalings only scale the result.  The division by k is exact,
    since i C(i+k-1, k-1) = k C(i+k-1, k).

    The matrix is T A^t, with A the d x (j+1) given rows and T[k][s] =
    C(s, k) x^(s-k), so by Cauchy-Binet its determinant is the sum over the
    d-subsets S of {0..j} of det A_S det B_S x^(sum S - C(d, 2)), with
    B[k][s] = C(s, k).  Its degree is at most max sum S - 2 C(d, 2) =
    d * codim, and ``_wronskian_height`` bounds its coefficients.

    A given row f_i = x^(o_i) g_i of x-adic order o_i has Taylor
    coefficients divisible by x^(o_i - k).  When the orders sum to
    s = sum o_i - C(d, 2) > 0, row k is multiplied by x^k and column i
    divided by x^(o_i): entry (k, i) becomes sum_t C(t + o_i, k) g_t x^t,
    a polynomial, and the determinant W / x^s, with the same coefficients
    and a degree bound lower by s.  Each step k - 1 -> k multiplies the
    coefficient of x^t by (t + o_i - k + 1) / k, again exactly.  The s
    zeros are put back in the stored polynomial.
    """
    if space._wronskian is not None:
        return space._wronskian
    d = space.dim
    if d < 1:
        raise DegenerateBasis("Wronskian needs a nonzero space")
    n_deg = d * space.codim
    polys = [unipoly.trim(row[::-1]) for row in space._given]
    orders = [next(t for t, c in enumerate(q) if c) for q in polys]
    shift = sum(orders) - d * (d - 1) // 2
    if shift > 0:
        rows = [[q[o:] for q, o in zip(polys, orders)]]
        for k in range(1, d):
            rows.append([[c * (t + o - k + 1) // k for t, c in enumerate(q)] for q, o in zip(rows[-1], orders)])
    else:
        shift, rows = 0, [polys]
        for k in range(1, d):
            rows.append([[i * q[i] // k for i in range(1, len(q))] or [0] for q in rows[-1]])
    w = unipoly.trim(unipoly.det(rows, n_deg - shift, _wronskian_height(space)))
    if unipoly.is_zero(w):
        raise InternalError(f"zero Wronskian for the independent basis {space.basis}")
    if shift + len(w) > n_deg + 1:
        raise InternalError(f"Wronskian of degree {shift + len(w) - 1} exceeds dim * codim = {n_deg}")
    object.__setattr__(space, "_wronskian", (n_deg, (0,) * shift + tuple(w)))
    return space._wronskian


def _wronskian_height(space: FormSpace) -> int:
    """A number larger than the absolute value of every coefficient of the
    determinant in ``_wronskian_poly``.  A coefficient is a sum of
    det A_S det B_S over some of the subsets S, so by Cauchy-Schwarz its
    square is at most the sum of all det A_S^2 times the sum of all
    det B_S^2.  By Cauchy-Binet these are det(A A^t), at most the product of
    the squared row norms of A by Hadamard, and det(B B^t)."""
    norms = math.prod(sum(c * c for c in row) for row in space._given)
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
    """Find the rational zeros of the Wronskian and cross-check each point.

    The rational roots of the Wronskian are extracted exactly with
    ``unipoly.rational_roots`` (and the point y = 0 read off the degree
    drop); no full factorization is made.  At each such point the
    multiplicity is compared against the total ramification computed
    independently from the degree sequence, on every call.  The degree
    left over, that of the factor without rational roots, is reported as
    ``irrational_degree``; with the multiplicities it sums to dim * codim.
    The Wronskian polynomial itself is the one :func:`wronskian` stores on
    the space, computed here if it is not there yet.
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
