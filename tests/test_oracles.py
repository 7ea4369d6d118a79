"""Differential tests: fraction-free row reduction, both integer
determinant paths, the integer Wronskian, the filtered rational root
search, the Horner frame change, membership by pivot reduction, the
one-pass generator rows and the triangular ideal pieces against the slow
paths in ``oracles`` and ``linalg.in_rowspace``."""

from fractions import Fraction as F
from math import comb, gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracles
from hookcells import (
    BinaryForm,
    CellParams,
    FormSpace,
    MonomialIdeal,
    Partition,
    POINT_X,
    POINT_Y,
    PointP1,
    build_ideal,
    change_basis,
    initial_ideal,
    pair_set_S,
    point_valuation,
    ram_data,
    total_ramification_check,
    wronskian,
)
from hookcells import binforms, linalg, unipoly
from hookcells.errors import DegenerateBasis, ZeroForm

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


# d = 6..8 and j up to 2d + 3: Wronskian matrices on both sides of
# unipoly.KRONECKER_MAX.  The Fraction oracle takes seconds at d = 8.
@settings(SETTINGS, max_examples=6)
@given(st.one_of(dense_spaces(8, None, min_d=6), two_point_spaces(8, None, min_d=6)))
def test_large_wronskian_matches_laplace_oracle(V):
    assert wronskian(V) == oracles.wronskian(V) == oracles.wronskian(V, at="x")


def taylor_matrix(V):
    """Row k holds the Taylor coefficients f^(k) / k! of the stored rows at
    y = 1, the matrix whose determinant the Wronskian bounds are about."""
    j = V.degree
    return [[[comb(s, k) * row[j - s] for s in range(k, j + 1)] for row in V.rows] for k in range(V.dim)]


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
    assert got == oracles.laplace_det(m)
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


@st.composite
def rational_matrices(draw):
    """A rational matrix, possibly empty or without columns, with zero rows
    and rows dependent on the others mixed in, and a column priority that is
    the default or a random permutation."""
    ncols = draw(st.integers(0, 7))
    base = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=5))
    rows = list(base)
    for _ in range(draw(st.integers(0, 3))):
        combo = draw(st.lists(small, min_size=len(base), max_size=len(base)))
        row = [sum((a * r[k] for a, r in zip(combo, base)), F(0)) for k in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), row)
    col_order = draw(st.one_of(st.none(), st.permutations(range(ncols))))
    return rows, ncols, col_order


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rref_matches_fraction_oracle(case):
    rows, ncols, col_order = case
    red, piv = linalg.rref(rows, ncols, col_order)
    expect, expect_piv = oracles.rref(rows, ncols, col_order)
    assert piv == expect_piv
    assert [[F(x, row[p]) for x in row] for row, p in zip(red, piv)] == expect
    for row, p in zip(red, piv):
        assert all(type(x) is int for x in row)
        assert row[p] > 0 and gcd(*row) == 1
    assert linalg.rank(rows, ncols) == len(expect)
    null = linalg.nullspace(rows, ncols)
    assert len(null) == ncols - len(expect)
    assert all(sum((a * b for a, b in zip(row, v)), F(0)) == 0 for row in rows for v in null)


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


@st.composite
def cell_params(draw, max_n=8):
    """Random coordinates on the cell of a random shape with at most max_n boxes."""
    left = draw(st.integers(1, max_n))
    parts = []
    while left:
        parts.append(draw(st.integers(1, min(left, parts[-1] if parts else left))))
        left -= parts[-1]
    E = MonomialIdeal(Partition(parts))
    return CellParams(E, {pair: draw(entries) for pair in pair_set_S(E)})


@SETTINGS
@given(cell_params())
def test_build_ideal_pieces_match_overcomplete_span(params):
    ideal = build_ideal(params)
    assert ideal.generators == oracles.standard_generators(params)
    assert ideal.pieces == oracles.ideal_pieces(ideal.generators, ideal.hilbert_function)
    assert initial_ideal(ideal) == params.ideal
