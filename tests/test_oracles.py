"""Differential tests: fraction-free row reduction, the echelon basis
built by insertion, both integer determinant paths, the integer
Wronskian, with the known power of x divided out, the filtered rational
root search and its mod-p no-root certificate, the Horner frame change,
the vanishing orders read off the given rows, the echelon storage of a
space with its reduced rows formed on demand, membership by pivot
reduction on the echelon rows, the one-pass generator rows, the stored
Wronskian, the triangular ideal pieces, the closure check by row
identity, the one-scan pair sets and the one-pass initial shape against
the slow paths in ``oracles``, ``linalg.in_rowspace`` and
``change_basis``; the Hilbert function a monomial ideal derives from its
shape; the tangent spaces at the torus-fixed points against
``t_invariants`` and ``cells.dims``; and the ring of the pencil-bundle
varieties against Atiyah-Bott localization."""

import copy
import math
import pickle
from collections import Counter
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from hookcells import (
    AmbientClass,
    BinaryForm,
    CellParams,
    FormSpace,
    GradedIdeal,
    MonomialIdeal,
    Partition,
    POINT_X,
    POINT_Y,
    PointP1,
    build_ideal,
    change_basis,
    diagonal_lengths,
    dims,
    initial_ideal,
    iota_pullback,
    pair_set_S,
    point_valuation,
    ram_data,
    t_invariants,
    total_ramification_check,
    wronskian,
)
from hookcells import binforms, linalg, unipoly
from hookcells.errors import DegenerateBasis, NotAnIdeal, ZeroForm

SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

small = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
nonzero = small.filter(bool)
# zero entries make ramification at x = 0 and y = 0 likely
entries = st.one_of(st.just(F(0)), small)
points = st.one_of(
    st.sampled_from([POINT_X, POINT_Y]),
    st.builds(PointP1, nonzero, small),
    st.builds(PointP1, st.just(0), nonzero),
)
# large primes: candidate sets whose divisors need Pollard rho
PRIMES = (2, 3, 7, 101, 1000003, 999999937, 2147483647, 2**61 - 1)


def dim_and_degree(draw, min_d, max_d, max_j):
    """d in min_d..max_d and j in max(d - 1, 1)..max_j, or ..2d + 3 when
    max_j is None."""
    d = draw(st.integers(min_d, max_d))
    return d, draw(st.integers(max(d - 1, 1), 2 * d + 3 if max_j is None else max_j))


@st.composite
def dense_spaces(draw, max_d=5, max_j=10, min_d=1, entry=entries):
    d, j = dim_and_degree(draw, min_d, max_d, max_j)
    rows = draw(st.lists(st.lists(entry, min_size=j + 1, max_size=j + 1), min_size=d, max_size=d))
    try:
        return FormSpace(j, rows)
    except DegenerateBasis:
        assume(False)


@st.composite
def two_point_spaces(draw, max_d=5, max_j=10, min_d=1):
    """span{x^a (x - r y)^(j - a)}: ramified only at x = 0 and x = r y."""
    d, j = dim_and_degree(draw, min_d, max_d, max_j)
    powers = draw(st.lists(st.integers(0, j), min_size=d, max_size=d, unique=True))
    r = draw(nonzero)
    rows = [[comb(j - a, k) * (-r) ** k if k <= j - a else 0 for k in range(j + 1)] for a in powers]
    return FormSpace(j, rows)


@st.composite
def monomial_spaces(draw, max_d=5, max_j=10, min_d=1):
    """span{x^a}: every stored row is a unit vector."""
    d, j = dim_and_degree(draw, min_d, max_d, max_j)
    powers = draw(st.lists(st.integers(0, j), min_size=d, max_size=d, unique=True))
    return FormSpace(j, [[int(k == j - a) for k in range(j + 1)] for a in powers])


spaces = st.one_of(dense_spaces(), two_point_spaces())


@SETTINGS
@given(spaces)
def test_wronskian_matches_laplace_oracle(V):
    assert wronskian(V) == oracles.wronskian(V) == oracles.wronskian(V, at="x")


@SETTINGS
@given(st.one_of(dense_spaces(6, None), two_point_spaces(6, None)))
def test_stored_wronskian_is_invisible(V):
    """A space that keeps its Wronskian answers as an equal space built
    afresh, the slow path, and compares, hashes, prints and serializes as it
    did before; its copies and pickles compare equal."""
    before = (hash(V), repr(V), V.to_json())
    w = wronskian(V)
    assert V._wronskian is not None
    fresh = FormSpace(V.degree, V.rows)
    assert fresh._wronskian is None
    assert V == fresh and (hash(V), repr(V), V.to_json()) == before == (hash(fresh), repr(fresh), fresh.to_json())
    assert total_ramification_check(V) == total_ramification_check(FormSpace(V.degree, V.rows))
    assert wronskian(V) == w == wronskian(fresh)
    for other in (copy.copy(V), pickle.loads(pickle.dumps(V)), pickle.loads(pickle.dumps(FormSpace(V.degree, V.rows)))):
        assert other == V and hash(other) == hash(V)
        assert wronskian(other) == w


# d = 6..8 and j up to 2d + 3: Wronskian matrices on both sides of
# unipoly.KRONECKER_MAX.  The Fraction oracle takes seconds at d = 8.
@settings(SETTINGS, max_examples=6)
@given(st.one_of(dense_spaces(8, None, min_d=6), two_point_spaces(8, None, min_d=6)))
def test_large_wronskian_matches_laplace_oracle(V):
    assert wronskian(V) == oracles.wronskian(V) == oracles.wronskian(V, at="x")


def taylor_matrix(V):
    """Row k holds the Taylor coefficients f^(k) / k! of the given rows at
    y = 1, the matrix whose determinant the Wronskian bounds are about."""
    j = V.degree
    return [[[comb(s, k) * row[j - s] for s in range(k, j + 1)] for row in V._given] for k in range(V.dim)]


def test_binomial_gram_closed_form():
    """det(B B^t) for B[k][s] = C(s, k), k < d, s <= j, by integer Bareiss
    against the closed form, for 1 <= d <= j + 1 <= 40."""
    for n in range(1, 41):
        for d in range(1, n + 1):
            B = [[comb(s, k) for s in range(n)] for k in range(d)]
            gram = [[sum(a * b for a, b in zip(r, t)) for t in B] for r in B]
            assert binforms._binomial_gram(d, n - 1) == unipoly._bareiss(gram), (d, n - 1)


# d = 1..8, j up to 2d + 3; entries up to 10^6 in the dense spaces, unit
# rows (full spaces among them) where the bound is closest
bound_spaces = st.one_of(
    dense_spaces(8, None, entry=st.integers(-10**6, 10**6)),
    two_point_spaces(8, None),
    monomial_spaces(8, None),
)


@settings(SETTINGS, max_examples=25)
@given(bound_spaces)
def test_wronskian_bounds_hold_on_the_laplace_oracle(V):
    """Every coefficient of the determinant lies below the height and its
    degree within d * codim, and both det paths give it with and without
    the bounds."""
    m = taylor_matrix(V)
    w = oracles._trim(oracles.laplace_det(m))
    n_deg, height = V.dim * V.codim, binforms._wronskian_height(V)
    assert len(w) - 1 <= n_deg
    assert all(abs(c) < height for c in w)
    assert unipoly.det(m, n_deg, height) == w
    if V.dim <= unipoly.KRONECKER_MAX:  # the rows unipoly.det sends to that path
        assert unipoly._det_kronecker(m, height) == unipoly._det_kronecker(m) == w
    assert unipoly._det_interpolated(m, n_deg) == unipoly._det_interpolated(m) == w


coeffs = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6))


@st.composite
def poly_matrices(draw):
    """Square integer polynomial matrices of size 0..9 with zero and
    constant entries and mixed degrees; in about half of those of size 2 or
    more one row is an integer multiple of another, so the matrix is
    singular."""
    n = draw(st.integers(0, 9))
    entry = st.one_of(st.just([0]), st.lists(coeffs, min_size=1, max_size=draw(st.integers(1, 4))))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    singular = n >= 2 and draw(st.booleans())
    if singular:
        src, dst = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        m[dst] = [[c * x for x in e] for e in m[src]]
    return m, singular


@SETTINGS
@given(poly_matrices())
def test_det_matches_laplace_oracle(case):
    m, singular = case
    got = unipoly.det(m)
    assert got == oracles.laplace_det(m) == oracles.det_multimodular(m)
    if singular:
        assert got == [0]
    if m:
        # both paths, whichever side of the crossover n is on
        assert unipoly._det_kronecker(m) == unipoly._det_interpolated(m) == got


@pytest.mark.parametrize("n", [1, unipoly.KRONECKER_MAX + 1])
def test_det_refuses_non_integer_coefficients(n):
    # n = 1 takes the Kronecker path, n = 8 the evaluation path; with bounds
    # passed the Kronecker path reads no l1 norms, and a height above 2^1024
    # makes x = 2^B too large for a float
    m = [[[1] if r == c else [0] for c in range(n)] for r in range(n)]
    for entry in ([0, F(1, 2)], [F(1, 2), 1], [F(2)], [1.0], [0, 1, 0.5]):
        m[-1][-1] = entry
        for bounds in ((), (2, 1), (2, 1 << 2000)):
            with pytest.raises(TypeError, match="int coefficients"):
                unipoly.det(m, *bounds)


@SETTINGS
@given(st.lists(st.one_of(st.integers(-9, 9), small), min_size=1, max_size=8), small, small)
def test_mul_linear_matches_mul(g, u, v):
    got = unipoly.mul_linear(g, u, v)
    assert len(got) == len(g) + 1  # untrimmed, as change_basis needs
    assert unipoly.trim(got) == unipoly.mul(g, [u, v])


@SETTINGS
@given(dense_spaces(max_d=4, max_j=8), points, st.one_of(st.none(), st.tuples(small, small)))
def test_change_basis_matches_binomial_oracle(V, p, c_form):
    # the oracle's frame may use any complement; the ramification data must
    # not depend on it
    if c_form is not None:
        assume(p.a * c_form[1] - p.b * c_form[0] != 0)
    assert change_basis(V, p) == oracles.change_basis(V, p)
    rd = ram_data(V, p)
    assert (rd.degree_sequence, rd.qram, rd.code) == oracles.ram_data(V, p, c_form)


def test_change_basis_identity_frame():
    V = FormSpace(4, [[1, 2, 0, F(1, 3), 5], [0, 0, 1, 1, 1]])
    assert change_basis(V, POINT_X) is V


# d <= 8 with j <= 12, the zero space and full spaces among them
order_spaces = st.one_of(
    dense_spaces(8, 12),
    two_point_spaces(8, 12),
    monomial_spaces(8, 12),
    st.builds(lambda j: FormSpace(j, ()), st.integers(0, 12)),
    st.integers(0, 8).map(lambda j: FormSpace(j, [[int(k == m) for k in range(j + 1)] for m in range(j + 1)])),
)


@st.composite
def spaces_and_points(draw):
    """A space and a point: x = 0, y = 0, a random rational point, or a
    zero of the space's Wronskian.  The zeros are taken on spaces whose
    Wronskians have end coefficients that factor quickly."""
    if draw(st.booleans()):
        return draw(order_spaces), draw(points)
    V = draw(st.one_of(dense_spaces(3, 7), two_point_spaces(8, 12), monomial_spaces(8, 12)))
    zeros = sorted(total_ramification_check(V).rational_point_valuations, key=str)
    return V, draw(st.sampled_from(zeros) if zeros else points)


@SETTINGS
@given(spaces_and_points())
def test_vanishing_orders_match_the_frame_change(case):
    """The orders read off the given rows equal the pivots of the frame
    change and the binomial oracle's degree sequence, at every point."""
    V, p = case
    j = V.degree
    orders = binforms._orders(V, p)
    assert orders == tuple(sorted(j - k for k in change_basis(V, p).pivots))
    rd = ram_data(V, p)
    assert rd.degree_sequence == orders
    assert (rd.degree_sequence, rd.qram, rd.code) == oracles.ram_data(V, p)
    assert binforms.initial_space(V, p) == tuple((n, j - n) for n in orders)


@st.composite
def rebased_spaces(draw):
    """A space and the same subspace built from another basis: its given
    rows times a random invertible integer matrix."""
    V = draw(st.one_of(dense_spaces(6, None), two_point_spaces(6, None), monomial_spaces(6, None)))
    d = V.dim
    m = draw(st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=d, max_size=d))
    assume(oracles.laplace_det([[[c] for c in row] for row in m]) != [0])
    rows = [[sum(c * r[k] for c, r in zip(coeffs, V._given)) for k in range(V.degree + 1)] for coeffs in m]
    return V, FormSpace(V.degree, rows)


@SETTINGS
@given(rebased_spaces())
def test_wronskian_does_not_depend_on_the_basis(case):
    V, W = case
    assert V == W
    assert wronskian(V) == wronskian(W)
    assert total_ramification_check(V) == total_ramification_check(W)


@st.composite
def factored_polys(draw):
    """A polynomial with known rational roots times a cofactor c x^k - P
    (k >= 2; irreducible by Eisenstein at the prime P, which does not
    divide c), scaled by a random rational."""
    roots = draw(st.dictionaries(
        st.builds(F, st.integers(-12, 12), st.integers(1, 6)), st.integers(1, 3), max_size=4))
    k = draw(st.integers(2, 3))
    c = draw(st.integers(1, 5))
    prime = draw(st.sampled_from(PRIMES))
    assume(c % prime)
    p = [F(-prime)] + [F(0)] * (k - 1) + [F(c)]
    for r, m in roots.items():
        for _ in range(m):
            p = unipoly.mul(p, [-r.numerator, r.denominator])
    scale = draw(nonzero)
    return [scale * v for v in p], roots


CERTIFIED = math.prod(unipoly.CERTIFICATE_PRIMES)


@st.composite
def certificate_polys(draw):
    """Planted rational roots whose denominators are certificate primes,
    times a cofactor ``CERTIFIED * c * x^k - P`` (k >= 2, irreducible by
    Eisenstein at the prime P), so that every certificate prime divides the
    leading coefficient."""
    roots = draw(st.lists(st.builds(F, st.integers(-6, 6), st.sampled_from((1,) + unipoly.CERTIFICATE_PRIMES)),
                          max_size=2))
    k, c = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    prime = draw(st.sampled_from([31, 37, 101]))
    p = [-prime] + [0] * (k - 1) + [CERTIFIED * c]
    for r in roots:
        p = unipoly.mul(p, [-r.numerator, r.denominator])
    return p, dict(sorted(Counter(roots).items(), key=lambda rm: (rm[0] != 0, rm[0])))


@SETTINGS
@given(certificate_polys())
def test_rational_roots_when_the_primes_divide_the_lead(case):
    """The mod-p certificate skips each prime that divides the leading
    coefficient: modulo such a prime, a root with that prime in its
    denominator is no root."""
    p, roots = case
    assert unipoly.rational_roots(p) == roots


# the oracle tries every divisor pair of the end coefficients, over 2048
# leading ones here, so it checks a few fixed polynomials
@pytest.mark.parametrize("p, roots", [
    ([-1, 2 * CERTIFIED], {F(1, 2 * CERTIFIED): 1}),  # no root modulo any certificate prime
    (unipoly.mul([-1, 2], [-31, 0, CERTIFIED]), {F(1, 2): 1}),
    (unipoly.mul(unipoly.mul([3, 29], [-5, 7]), [-37, 0, 0, CERTIFIED]), {F(-3, 29): 1, F(5, 7): 1}),
])
def test_rational_roots_when_the_primes_divide_the_lead_match_the_oracle(p, roots):
    assert unipoly.rational_roots(p) == roots == oracles.rational_roots(p)


@SETTINGS
@given(st.integers(2, 64).flatmap(lambda n: st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n))
       .filter(lambda p: p[-1] and p[0]),
       st.sampled_from(unipoly.CERTIFICATE_PRIMES))
def test_no_root_mod_matches_every_residue(p, q):
    # lengths drawn evenly up to 64, so most polynomials fold powers into classes for every prime
    assert unipoly._no_root_mod(p, q) == all(sum(c * x**i for i, c in enumerate(p)) % q for x in range(q))


def test_factorize_seeds_no_generator_without_a_composite(monkeypatch):
    def refuse(seed):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(unipoly.random, "Random", refuse)
    assert unipoly.factorize(2**10 * 3**5 * 1000003) == {2: 10, 3: 5, 1000003: 1}
    with pytest.raises(AssertionError, match="seeded"):
        unipoly.factorize(1000003 * 999999937)


@SETTINGS
@given(factored_polys())
def test_rational_roots_of_known_factors(case):
    p, roots = case
    got = unipoly.rational_roots(p)
    assert got == roots
    assert list(got) == sorted(got, key=lambda r: (r != 0, r))
    assert got == oracles.rational_roots(p)
    form = BinaryForm(len(p) - 1, p[::-1])  # f(x, 1) = p
    for r, m in roots.items():
        assert point_valuation(form, PointP1(1, -r)) == m
    for pt in (POINT_X, POINT_Y, PointP1(1, 7), PointP1(1, F(-5, 2))):
        assert point_valuation(form, pt) == oracles.point_valuation(form, pt)


def test_root_multiplicity_leaves_a_non_root_unchanged():
    # 3x - 1 by 2x - 1: 2 does not divide 3, so the first step fails; a
    # floor quotient 1 would leave the remainder -1 + 1 = 0
    ip = [-1, 3]
    got = unipoly.root_multiplicity(ip, 1, 2)
    assert got == (0, ip) and got[1] is ip
    # 2x + 3 by 2x - 1: the quotient 1 is exact, the remainder 3 + 1 is not 0
    ip = [3, 2]
    got = unipoly.root_multiplicity(ip, 1, 2)
    assert got == (0, ip) and got[1] is ip


def test_root_multiplicity_of_a_triple_root():
    ip = unipoly.mul([2, 1], [-1, 9, -27, 27])  # (x + 2)(3x - 1)^3
    assert unipoly.root_multiplicity(ip, 1, 3) == (3, [2, 1])
    assert unipoly.root_multiplicity(ip, -2, 1) == (1, [-1, 9, -27, 27])


def test_rational_roots_order_zero_first_then_increasing():
    # x^2 (x + 2) (3x - 1)^2
    p = unipoly.mul([0, 0, 2, 1], [1, -6, 9])
    got = unipoly.rational_roots(p)
    assert list(got.items()) == [(F(0), 2), (F(-2), 1), (F(1, 3), 2)]


def test_rational_roots_factorizes_each_end_coefficient_once(monkeypatch):
    # constant term -360360 has 192 divisors; the leading coefficient is a
    # semiprime that only Pollard rho splits
    lead = 1000003 * 999999937
    p = unipoly.mul(unipoly.mul([-1, 1], [3, 1]), [120120, 0, lead])
    calls = []
    factorize = unipoly.factorize
    monkeypatch.setattr(unipoly, "factorize", lambda n: calls.append(n) or factorize(n))
    assert unipoly.rational_roots(p) == {F(-3): 1, F(1): 1}
    assert sorted(calls) == [360360, lead]
    monkeypatch.undo()
    assert unipoly.rational_roots(p) == oracles.rational_roots(p)


@SETTINGS
@given(st.one_of(dense_spaces(max_d=3, max_j=7), two_point_spaces(max_d=4, max_j=8)))
def test_total_ramification_points_match_oracles(V):
    summary = total_ramification_check(V)
    w = oracles.wronskian(V)
    for pt, mult in summary.rational_point_valuations.items():
        assert oracles.point_valuation(w, pt) == mult
        assert oracles.ram_data(V, pt)[1] == ram_data(V, pt).qram
    assert summary.irrational_degree == w.degree - sum(summary.rational_point_valuations.values())


def test_rational_roots_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    @SETTINGS
    @given(factored_polys())
    def check(case):
        p, _ = case
        expected = sympy.roots(sympy.Poly(list(reversed(p)), x), filter="Q")
        assert unipoly.rational_roots(p) == {F(int(r.p), int(r.q)): m for r, m in expected.items()}

    check()


def test_wronskian_sympy_cross_check():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    @settings(max_examples=15, deadline=None)
    @given(dense_spaces(max_d=3, max_j=6))
    def check(V):
        polys = [sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f.coeff_poly_in_x()))
                 for f in V.basis]
        w = sympy.Poly(sympy.wronskian(polys, x), x)
        coeffs = [F(int(c.p), int(c.q)) for c in reversed(w.all_coeffs())]
        assert wronskian(V).coeff_poly_in_x() == [c / coeffs[-1] for c in coeffs]

    check()


def test_zero_polynomial_has_no_root_set():
    with pytest.raises(ZeroForm):
        unipoly.rational_roots([F(0), 0, F(0)])


@st.composite
def spaces_and_vectors(draw):
    """A space of degree-j forms, j <= 8, of any dimension, with a vector
    inside it (a combination of its rows) or, as likely, a random vector."""
    j = draw(st.integers(0, 8))
    d = draw(st.integers(0, j + 1))
    rows = draw(st.lists(st.lists(entries, min_size=j + 1, max_size=j + 1), min_size=d, max_size=d))
    try:
        V = FormSpace(j, rows)
    except DegenerateBasis:
        assume(False)
    if draw(st.booleans()):
        combo = draw(st.lists(small, min_size=d, max_size=d))
        v = [sum((a * r for a, r in zip(combo, col)), F(0)) for col in zip(*rows)] if d else [F(0)] * (j + 1)
    else:
        v = draw(st.lists(entries, min_size=j + 1, max_size=j + 1))
    return V, rows, v


@SETTINGS
@given(spaces_and_vectors())
def test_contains_matches_in_rowspace(case):
    V, rows, v = case
    inside = oracles.in_rowspace(v, rows, V.degree + 1)
    assert V.contains(BinaryForm(V.degree, v)) == linalg.in_rowspace(v, rows, V.degree + 1) == inside
    assert V.contains(v) == inside


@SETTINGS
@given(spaces_and_vectors(), st.integers(-5, 5).filter(bool))
def test_integer_membership_matches_contains(case, scale):
    """The closure check's membership test, which takes an integer row as
    it is, answers as ``contains`` on integer multiples of the vector,
    primitive or not, inside the space or not."""
    V, _, v = case
    den = lcm(*[c.denominator for c in v])
    w = [int(c * den) * scale for c in v]
    assert V._holds(w) == V._holds(tuple(w)) == V.contains(v)


@st.composite
def triangular_rows(draw):
    """Primitive integer rows of degree j <= 8 whose last nonzero entries,
    of either sign, fall in increasing columns."""
    j = draw(st.integers(0, 8))
    pivots = sorted(draw(st.lists(st.integers(0, j), min_size=0, max_size=j + 1, unique=True)))
    rows = []
    for p in pivots:
        row = draw(st.lists(st.integers(-30, 30), min_size=p, max_size=p))
        row = row + [draw(st.integers(-30, 30).filter(bool))] + [0] * (j - p)
        g = gcd(*row)
        rows.append([x // g for x in row])
    return j, rows


@SETTINGS
@given(triangular_rows())
def test_triangular_constructor_matches_the_constructor(case):
    j, rows = case
    V, W = FormSpace._of_triangular_rows(j, rows), FormSpace(j, rows)
    assert V == W and (V.rows, V.pivots) == (W.rows, W.pivots) and V._wronskian is None


@pytest.mark.parametrize("rows", [[[1, 2, 0], [3, 1, 0]], [[0, 1, 0], [1, 0, 0]], [[0, 0, 0]], [[1, 0, 0], [0, 0, 0]]],
                         ids=["repeated", "decreasing", "zero", "zero last"])
def test_triangular_constructor_refuses_rows_out_of_order(rows):
    with pytest.raises(DegenerateBasis, match="do not have increasing initial monomials"):
        FormSpace._of_triangular_rows(2, rows)


@st.composite
def rational_matrices(draw):
    """A rational matrix, possibly empty or without columns, with zero rows
    and rows dependent on the others mixed in."""
    ncols = draw(st.integers(0, 7))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        combo = draw(st.lists(small, min_size=len(base), max_size=len(base)))
        row = [sum((a * r[k] for a, r in zip(combo, base)), F(0)) for k in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_oracle(case):
    rows, ncols = case
    red, piv = linalg.rref(rows, ncols)
    expect, expect_piv = oracles.rref(rows, ncols)
    assert piv == expect_piv
    assert [[F(x, row[p]) for x in row] for row, p in zip(red, piv)] == expect
    for row, p in zip(red, piv):
        assert all(type(x) is int for x in row)
        assert row[p] > 0 and gcd(*row) == 1
    assert linalg.rank(rows, ncols) == len(expect)
    null = linalg.nullspace(rows, ncols)
    assert len(null) == ncols - len(expect)
    assert all(sum((a * b for a, b in zip(row, v)), F(0)) == 0 for row in rows for v in null)


@pytest.mark.parametrize("rows, ncols, message", [
    ([[1]], 2, "row 0 has length 1, not 2"),
    ([[0, 0, 1]], 2, "row 0 has length 3, not 2"),
    ([[1, 2, 3], [4, 5], [6, 7, 8]], 3, "row 1 has length 2, not 3"),
], ids=["short", "long", "ragged"])
def test_rref_and_rank_reject_a_row_whose_length_is_not_ncols(rows, ncols, message):
    for f in (linalg.rref, linalg.rank, linalg.nullspace):
        with pytest.raises(ValueError, match=message):
            f(rows, ncols)


# integer entries, small or of a few hundred bits
int_entries = st.one_of(st.integers(-9, 9), st.integers(-2**300, 2**300))


@st.composite
def colliding_rows(draw):
    """Independent integer rows that lead in at most three columns, so that
    their leading columns collide again and again, with a drawn order of
    the same rows."""
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, ncols))
    rows = []
    for _ in range(nrows):
        lead = draw(st.integers(0, min(2, ncols - nrows)))
        tail = draw(st.lists(int_entries, min_size=ncols - lead - 1, max_size=ncols - lead - 1))
        rows.append([0] * lead + [draw(int_entries.filter(bool))] + tail)
    assume(len(oracles.rref(rows, ncols)[0]) == nrows)
    return rows, ncols, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(colliding_rows())
def test_orders_are_the_pivots_of_the_echelon_form(case):
    rows, ncols, shuffled = case
    expect = tuple(oracles.rref(rows, ncols)[1])
    assert binforms._orders(FormSpace(ncols - 1, rows), POINT_Y) == expect
    assert binforms._orders(FormSpace(ncols - 1, shuffled), POINT_Y) == expect


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_insertion_echelon_matches_fraction_oracle(case):
    """``linalg._echelon`` keeps one row per dimension, dropping the
    dependent and zero rows, with the pivots of the oracle's reduced form
    under decreasing column order, each row primitive, zero past its pivot
    and positive there, and spans the same space."""
    rows, ncols = case
    rows = [linalg.integer_model(row) for row in rows]
    order = range(ncols - 1, -1, -1)
    expect, expect_piv = oracles.rref(rows, ncols, order)
    ech, piv = linalg._echelon(rows)
    assert piv == expect_piv and len(ech) == len(expect)
    for row, p in zip(ech, piv):
        assert row[p] > 0 and not any(row[p + 1:]) and gcd(*row) == 1
    assert oracles.rref(ech, ncols, order)[0] == expect


@st.composite
def clearing_steps(draw):
    """Two integer rows, both nonzero at a drawn column, the second sometimes
    a multiple of the first."""
    ncols = draw(st.integers(1, 7))
    c = draw(st.integers(0, ncols - 1))
    row, prow = (draw(st.lists(int_entries, min_size=ncols, max_size=ncols)) for _ in range(2))
    if draw(st.booleans()):
        prow = [draw(st.integers(-9, 9).filter(bool)) * x for x in row]
    assume(row[c] and prow[c])
    return row, prow, c


@settings(max_examples=300, deadline=None)
@given(clearing_steps())
def test_clearing_step_is_primitive_and_zero_at_its_column(case):
    row, prow, c = case
    out = linalg._clear(row, prow, c)
    full = [prow[c] * x - row[c] * y for x, y in zip(row, prow)]
    g = gcd(*full)
    assert out[c] == 0 and gcd(*out) in (0, 1)
    assert out == ([x // g for x in full] if g else full)


@st.composite
def generator_changes(draw):
    """Independent rows of a degree-j space, and other generators of the same
    space: the rows scaled by nonzero rationals of either sign, shuffled and
    padded with zero rows and combinations of the rows."""
    j = draw(st.integers(0, 6))
    d = draw(st.integers(1, j + 1))
    rows = draw(st.lists(st.lists(entries, min_size=j + 1, max_size=j + 1), min_size=d, max_size=d))
    if linalg.rank(rows, j + 1) < d:
        assume(False)
    other = [[c * x for x in row] for c, row in zip(draw(st.lists(nonzero, min_size=d, max_size=d)), rows)]
    for _ in range(draw(st.integers(0, 3))):
        combo = draw(st.lists(small, min_size=d, max_size=d))
        other.append([sum((a * r[k] for a, r in zip(combo, rows)), F(0)) for k in range(j + 1)])
    return j, rows, draw(st.permutations(other))


@SETTINGS
@given(generator_changes())
def test_form_space_does_not_depend_on_its_generators(case):
    j, rows, other = case
    V, W = FormSpace(j, rows), FormSpace.span(j, other)
    assert V == W and hash(V) == hash(W) and V.to_json() == W.to_json()
    red, piv = oracles.rref(rows, j + 1, col_order=range(j, -1, -1))
    assert V.basis == tuple(BinaryForm(j, r) for r in red) and V.pivots == tuple(piv)


# prime denominators up to 10^6: the common denominator of a generator's
# values is often a product of several, and the reduction scales by them
DENOMINATORS = (2, 3, 5, 7, 11, 101, 9973, 65537, 999983)
cell_values = st.one_of(
    st.just(F(0)), small, st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(DENOMINATORS)),
)


@st.composite
def shapes(draw, min_n, max_n):
    """A random partition of min_n to max_n boxes."""
    left = draw(st.integers(min_n, max_n))
    parts = []
    while left:
        parts.append(draw(st.integers(1, min(left, parts[-1] if parts else left))))
        left -= parts[-1]
    return Partition(parts)


@st.composite
def cell_params(draw, max_n=12):
    """Random coordinates on the cell of a random shape with at most max_n
    boxes: zero, small and large-denominator values."""
    E = MonomialIdeal(draw(shapes(1, max_n)))
    return CellParams(E, {pair: draw(cell_values) for pair in pair_set_S(E)})


@SETTINGS
@given(cell_params())
def test_build_ideal_pieces_match_overcomplete_span(params):
    ideal = build_ideal(params)
    assert ideal._generators is None
    assert ideal.generators == oracles.standard_generators(params)
    assert ideal.generators is ideal.generators
    assert ideal.pieces == oracles.ideal_pieces(ideal.generators, ideal.hilbert_function)
    assert initial_ideal(ideal) == params.ideal


@st.composite
def closure_cases(draw):
    """``(kind, T, pieces)`` from a built ideal: its pieces as they are
    ("built"); each piece rebuilt from its rows after random row additions,
    so that its stored rows are seldom the shifts of the rows one degree
    below and the reduction runs ("mixed"); or one stored row that is such
    a shift replaced by the shift plus a multiple of the unit row of a
    non-pivot column before its end ("forged"): a row still ends where the
    shift does, but the shift has left the span."""
    ideal = build_ideal(draw(cell_params(max_n=10)))
    T, pieces = ideal.hilbert_function, dict(ideal.pieces)
    kind = draw(st.sampled_from(["built", "mixed", "forged"]))
    if kind == "mixed":
        for d, piece in pieces.items():
            rows = [list(row) for row in piece._echelon]
            n = len(rows)
            steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small)
            for r, c, a in draw(st.lists(steps, max_size=2 * n)):
                if r != c:
                    rows[r] = [x + a * y for x, y in zip(rows[r], rows[c])]
            pieces[d] = FormSpace(d, rows)
    elif kind == "forged":
        spots = []
        for i in range(T.mu, T.j):
            nxt = pieces[i + 1]
            stored = dict(zip(nxt.pivots, nxt._echelon))
            for row, p in zip(pieces[i]._echelon, pieces[i].pivots):
                for v, end in (((*row, 0), p), ((0, *row), p + 1)):
                    free = [m for m in range(end) if m not in stored]
                    if stored.get(end) == v and free:
                        spots.append((i + 1, v, free))
        assume(spots)
        d, v, free = draw(st.sampled_from(spots))
        m, c = draw(st.sampled_from(free)), draw(st.integers(-3, 3).filter(bool))
        forged = [x + c * (k == m) for k, x in enumerate(v)]
        pieces[d] = FormSpace(d, [forged if row == v else row for row in pieces[d]._echelon])
    return kind, T, pieces


@settings(SETTINGS, max_examples=100)
@given(closure_cases())
def test_closure_check_matches_the_all_reducing_oracle(case):
    """``GradedIdeal`` accepts exactly the pieces whose shifts all reduce to
    zero, and otherwise names the first degree where one does not."""
    kind, T, pieces = case
    bad = oracles.unclosed_degree(pieces, T)
    assert (bad is None) == (kind != "forged")
    if bad is None:
        GradedIdeal(T, pieces)
    else:
        with pytest.raises(NotAnIdeal, match=f"^degree-{bad} piece is not closed under multiplication$"):
            GradedIdeal(T, pieces)


@SETTINGS
@given(shapes(0, 40))
def test_pair_set_matches_the_hooks(parts):
    E = MonomialIdeal(parts)
    want = oracles.pair_set_S(E)
    assert pair_set_S(E) == want
    # one degree below and one above every hand: degrees without pairs
    top = max((r + pr - 1 for r, pr in enumerate(parts)), default=-1)
    for d in range(-1, top + 2):
        assert pair_set_S(E, d) == tuple(pair for pair in want if sum(pair[0]) == d)


@SETTINGS
@given(cell_params(max_n=10), points)
def test_initial_ideal_matches_the_regrouped_cells(params, p):
    """The one-pass shape is the regrouped one, and has the ideal's Hilbert
    function, which ``initial_ideal`` does not check."""
    ideal = build_ideal(params)
    for pt in (POINT_X, POINT_Y, p):
        E = initial_ideal(ideal, pt)
        assert E.hilbert_function == ideal.hilbert_function
        assert E == oracles.initial_ideal(ideal, pt)


@SETTINGS
@given(shapes(0, 40))
def test_monomial_ideal_derives_its_hilbert_function(p):
    """The Hilbert function read off the stored shape counts its cells on
    each antidiagonal; equality, hashing, copies and pickles see the shape."""
    E = MonomialIdeal(p)
    count = Counter(r + c for r, pr in enumerate(p.parts) for c in range(pr))
    assert E.hilbert_function == diagonal_lengths(p)
    assert E.hilbert_function.t == tuple(count[d] for d in range(len(count)))
    fresh = MonomialIdeal(Partition(list(p.parts)))
    for other in (fresh, copy.copy(E), copy.deepcopy(E), pickle.loads(pickle.dumps(E))):
        assert other == E and hash(other) == hash(E) and repr(other) == repr(E)
        assert other.partition == p and other.hilbert_function == E.hilbert_function


def test_tangent_space_at_every_fixed_point():
    """G_T is smooth with isolated torus-fixed points, and each cell has as
    many dimensions as the tangent space at its centre has positive weights
    (Bialynicki-Birula): checked on the weights of Hom_R(E, R/E)_0 from
    ``oracles.tangent_weights``, for every shape of at most 16 cells."""
    for n in range(17):
        for p in oracles.partitions_of(n):
            E = MonomialIdeal(p)
            weights = oracles.tangent_weights(E)
            assert 0 not in weights
            assert len(weights) == t_invariants(E.hilbert_function).dim_gt
            assert sum(w > 0 for w in weights) == dims(E).dim_v


def test_pencil_bundle_ring_matches_atiyah_bott_localization():
    """The point coefficient of the pullback of zeta^u eta^v, u + v = 2 mu - 1,
    is its integral over the variety of ideals of T = (1, 2, ..., mu, mu,
    ..., mu, 1), summed over the torus-fixed points by
    ``oracles.localized_integral`` at two torus weights: every mu <= 5 and
    mu + 1 <= j <= mu + 6.  The terms with v > j are 0 on both sides."""
    for mu in range(1, 6):
        for j in range(mu + 1, mu + 7):
            for u in range(mu + 1):
                v = 2 * mu - 1 - u
                want = iota_pullback(AmbientClass.make(mu, j, {(u, v): 1})).point_coefficient()
                for weights in ((3, 7), (-2, 5)):
                    assert oracles.localized_integral(mu, j, u, v, weights) == want, (mu, j, u, v, weights)
    known = {(2, 4, 1, 2): 3, (3, 7, 2, 3): 5, (5, 11, 0, 9): 21}
    assert {case: oracles.localized_integral(*case, (3, 7)) for case in known} == known


@st.composite
def ordered_spaces(draw, max_d=5, min_d=1):
    """A space whose given rows have x-adic orders drawn distinct, repeated
    or all 0: row i is x^(o_i) times a form of degree j - o_i with nonzero
    coefficients at x^(j - o_i) and y^(j - o_i), so its last nonzero entry
    sits in column j - o_i."""
    d, j = dim_and_degree(draw, min_d, max_d, None)
    kind = draw(st.sampled_from(["distinct", "repeated", "zero"]))
    if kind == "distinct":
        orders = draw(st.lists(st.integers(0, j), min_size=d, max_size=d, unique=True))
    elif kind == "repeated":
        pool = draw(st.lists(st.integers(0, j + 1 - d), min_size=1, max_size=max(1, d - 1), unique=True))
        orders = draw(st.lists(st.sampled_from(pool), min_size=d, max_size=d))
    else:
        orders = [0] * d
    ints = st.integers(-9, 9)
    rows = []
    for o in orders:
        body = draw(st.lists(ints, min_size=j - o, max_size=j - o))
        lead = [draw(ints.filter(bool))] if o < j else []
        rows.append(lead + body[1:] + [draw(ints.filter(bool))] + [0] * o)
    try:
        return FormSpace(j, rows)
    except DegenerateBasis:
        assume(False)


def check_shifted_wronskian(V, monkeypatch):
    """The stored Wronskian polynomial equals the Taylor-row determinant,
    and the degree bound handed to ``unipoly.det`` is d * codim lowered by
    the known x-power, when that is positive."""
    degrees = []
    det = unipoly.det
    monkeypatch.setattr(unipoly, "det", lambda m, degree, height: degrees.append(degree) or det(m, degree, height))
    d, j = V.dim, V.degree
    shift = max(0, sum(j - max(k for k, c in enumerate(row) if c) for row in V._given) - comb(d, 2))
    got = binforms._wronskian_poly(V)
    assert got == oracles.taylor_wronskian(V)
    assert degrees == [d * V.codim - shift]


@SETTINGS
@given(ordered_spaces())
def test_shifted_wronskian_matches_the_taylor_rows(V):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_shifted_wronskian(V, monkeypatch)


# d = 8..9, above unipoly.KRONECKER_MAX: _det_interpolated takes the lowered degree
@settings(SETTINGS, max_examples=8)
@given(ordered_spaces(9, min_d=unipoly.KRONECKER_MAX + 1))
def test_large_shifted_wronskian_matches_the_taylor_rows(V):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check_shifted_wronskian(V, monkeypatch)


def primitive(row):
    """The primitive integer multiple of a Fraction row, sign kept."""
    den = lcm(*[c.denominator for c in row])
    ints = [int(c * den) for c in row]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


@st.composite
def spaces_by_route(draw):
    """``(V, rows)``: a space and rows spanning it, built by the
    constructor, by the triangular constructor or by ``span`` from rows
    with dependent ones among them."""
    route = draw(st.sampled_from(["constructor", "triangular", "span"]))
    if route == "triangular":
        j, rows = draw(triangular_rows())
        return FormSpace._of_triangular_rows(j, rows), rows
    j = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(entries, min_size=j + 1, max_size=j + 1), max_size=j + 1))
    if route == "span":
        for _ in range(draw(st.integers(0, 2))):
            combo = draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((a * r[k] for a, r in zip(combo, rows)), F(0)) for k in range(j + 1)])
        return FormSpace.span(j, rows), rows
    try:
        return FormSpace(j, rows), rows
    except DegenerateBasis:
        assume(False)


def assert_echelon(V):
    """Each stored row ends at its pivot with a positive entry, the pivots
    decreasing."""
    assert list(V.pivots) == sorted(set(V.pivots), reverse=True) and len(V._echelon) == len(V.pivots)
    for row, p in zip(V._echelon, V.pivots):
        assert row[p] > 0 and not any(row[p + 1:])


@SETTINGS
@given(spaces_by_route())
def test_reduced_rows_are_formed_on_demand(case):
    """The stored rows are an echelon basis; ``rows`` and ``basis`` are
    formed on first read, and equal the reduced rows of the Fraction
    oracle."""
    V, rows = case
    j = V.degree
    assert V._reduced is None
    assert_echelon(V)
    assert all(oracles.in_rowspace(row, rows, j + 1) for row in V._echelon)
    red, piv = oracles.rref(rows, j + 1, col_order=range(j, -1, -1))
    assert V.dim == len(red) and V._reduced is None
    assert V.rows == tuple(map(primitive, red)) and V.pivots == tuple(piv)
    assert V._reduced is V.rows
    assert V.basis == tuple(BinaryForm(j, r) for r in red)


@SETTINGS
@given(spaces_by_route(), st.data())
def test_equality_before_and_after_the_reduced_rows(case, data):
    """``==`` and ``hash`` compare the degree, the canonical reduced rows
    and the pivots: copies and pickles taken before and after the rows are
    formed, and the space built again from another basis, are equal and
    hash equally; a smaller space is not equal."""
    V, _ = case
    j, d = V.degree, V.dim
    mix = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d))
    assume(d == 0 or oracles.laplace_det([[[c] for c in r] for r in mix]) != [0])
    W = FormSpace(j, [[sum(a * r[k] for a, r in zip(m, V._given)) for k in range(j + 1)] for m in mix])
    before = [copy.copy(V), copy.deepcopy(V), pickle.loads(pickle.dumps(V))]
    assert all(other._reduced is None for other in before)
    assert V == W and hash(V) == hash(W) == hash((j, V.rows, V.pivots))
    after = [copy.copy(V), copy.deepcopy(V), pickle.loads(pickle.dumps(V))]
    assert all(other._reduced == V.rows for other in after)
    for other in before + after:
        assert other == V and hash(other) == hash(V) and other.rows == V.rows and repr(other) == repr(V)
        assert other.to_json() == V.to_json()
    if d:
        smaller = FormSpace(j, V._given[1:])
        assert smaller != V and V != smaller
    assert V != V.to_json() and V != FormSpace(j + 1, ())


@SETTINGS
@given(spaces_by_route(), st.data())
def test_membership_on_the_echelon_rows(case, data):
    """``_holds`` on the stored, unreduced echelon rows answers as the
    Fraction rank oracle, on combinations of the rows and on random rows."""
    V, rows = case
    j = V.degree
    if rows and data.draw(st.booleans()):
        combo = data.draw(st.lists(small, min_size=len(rows), max_size=len(rows)))
        v = [sum((a * r[k] for a, r in zip(combo, rows)), F(0)) for k in range(j + 1)]
    else:
        v = data.draw(st.lists(entries, min_size=j + 1, max_size=j + 1))
    w = list(primitive(v)) if any(v) else [0] * (j + 1)
    assert V._holds(w) == oracles.in_rowspace(v, rows, j + 1)
    assert V._reduced is None
