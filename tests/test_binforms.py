import random
from fractions import Fraction as F

import pytest

from hookcells import (
    BinaryForm,
    FormSpace,
    POINT_X,
    POINT_Y,
    PointP1,
    change_basis,
    initial_space,
    point_valuation,
    ram_data,
    total_ramification_check,
    wronskian,
)
from hookcells.errors import DegenerateBasis
from hookcells.partitions import box_complement
import oracles
from conftest import random_fraction, random_space


def mono_space(j, terms_list):
    return FormSpace(j, [BinaryForm.from_monomials(j, t) for t in terms_list])


def v_a(a):
    """<y^2 x - a^2 x^3, y x^2 + a x^3>"""
    return mono_space(3, [{(1, 2): 1, (3, 0): -a * a}, {(2, 1): 1, (3, 0): a}])


def test_change_basis_monomial_space():
    V = mono_space(3, [{(3, 0): 1}, {(0, 3): 1}])
    rd = ram_data(V, POINT_X)
    assert rd.degree_sequence == (0, 3)


def test_degree_sequence_examples():
    assert ram_data(v_a(2), POINT_X).degree_sequence == (1, 2)
    V = mono_space(4, [{(4, 0): 1}, {(3, 1): 1},
                       {(4, 0): 1, (3, 1): 3, (2, 2): 3, (1, 3): 1}])
    assert ram_data(V, POINT_X).degree_sequence == (1, 3, 4)


def test_ram_data_examples():
    V = mono_space(4, [{(4, 0): 1}, {(3, 1): 1},
                       {(4, 0): 1, (3, 1): 3, (2, 2): 3, (1, 3): 1}])
    rd = ram_data(V, POINT_X)
    assert rd.qram == (2, 2, 1)
    assert rd.code == (1, 0)
    assert rd.total == 5
    # unramified monomial staircase
    V0 = mono_space(5, [{(0, 5): 1}, {(1, 4): 1}, {(2, 3): 1}])
    assert ram_data(V0, POINT_X).qram == (0, 0, 0)
    rda = ram_data(v_a(2), POINT_X)
    assert rda.qram == (1, 1) and rda.total == 2
    # the zero and the full space have an empty partition, not an error
    assert ram_data(FormSpace(3, []), POINT_Y).qram == ()
    assert ram_data(FormSpace(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), POINT_Y).code == ()


def test_initial_space_examples():
    V = mono_space(3, [{(0, 3): 1, (1, 2): 1}, {(2, 1): 1}])
    assert initial_space(V, POINT_X) == ((0, 3), (2, 1))
    E = mono_space(4, [{(1, 3): 1}, {(3, 1): 1}, {(4, 0): 1}])
    assert initial_space(E, POINT_X) == ((1, 3), (3, 1), (4, 0))


def test_wronskian_examples():
    for a in (1, 2, 3):
        w = wronskian(v_a(a))
        expect = BinaryForm.from_monomials(
            4, {(2, 2): 1, (3, 1): 2 * a, (4, 0): a * a}
        ).normalized()
        assert w == expect
    j = 5
    w = wronskian(mono_space(j, [{(j, 0): 1}, {(0, j): 1}]))
    assert w == BinaryForm.from_monomials(2 * (j - 1), {(j - 1, j - 1): 1})
    # the full space of forms is everywhere unramified
    full = FormSpace(3, [[F(k == m) for k in range(4)] for m in range(4)])
    assert wronskian(full).degree == 0


def test_wronskian_rejects_dependent_rows():
    with pytest.raises(DegenerateBasis):
        FormSpace(3, [[1, 0, 0, 0], [2, 0, 0, 0]])


def test_zero_space_of_huge_degree_is_immediate():
    # row reduction stops once every row holds a pivot, so no rows scan no columns
    V = FormSpace(10**12, [])
    assert V.dim == 0 and V.pivots == ()


def test_change_basis_of_zero_or_full_space_is_immediate():
    # both are the same in every frame; a frame change would first build the
    # y-power table, quadratic in the degree (seconds at degree 6000)
    zero = FormSpace(6000, [])
    full = FormSpace(200, [[int(k == m) for k in range(201)] for m in range(201)])
    for V in (zero, full):
        assert change_basis(V, PointP1(1, 2)) is V
        assert ram_data(V, PointP1(1, 2)).total == 0


def test_total_ramification_examples():
    summary = total_ramification_check(v_a(2))
    assert summary.degree == 4
    vals = summary.rational_point_valuations
    assert vals[POINT_X] == 2
    assert vals[PointP1(1, F(1, 2))] == 2  # y + 2x = 0, normalized
    assert summary.irrational_degree == 0

    V = mono_space(5, [{(5, 0): 1}, {(0, 5): 1}])
    vals = total_ramification_check(V).rational_point_valuations
    assert vals == {POINT_X: 4, POINT_Y: 4}

    # ramified in two different directions y - x and y + x
    V2 = mono_space(3, [{(1, 2): 1, (3, 0): 1}, {(2, 1): 1}])
    vals = total_ramification_check(V2).rational_point_valuations
    assert vals[PointP1(1, 1)] == 1 and vals[PointP1(1, -1)] == 1


def test_point_valuation_roundtrip():
    w = wronskian(v_a(3))
    assert point_valuation(w, POINT_X) == 2
    assert point_valuation(w, PointP1(1, F(1, 3))) == 2
    assert point_valuation(w, PointP1(1, 5)) == 0
    assert point_valuation(w, POINT_Y) == 0


def test_wronskian_degree_and_divisibility_random():
    rng = random.Random(0xABCDE)
    for _ in range(60):
        d = rng.randint(1, 4)
        j = rng.randint(max(d - 1, 1), 8)
        if d > j + 1:
            continue
        V = random_space(rng, d, j)
        w = wronskian(V)
        assert w.degree == d * (j + 1 - d)
        for pt in (POINT_X, POINT_Y, PointP1(1, 1), PointP1(1, rng.randint(-3, 3))):
            val = point_valuation(w, pt)
            # positive valuation iff some member is divisible by L^d
            ns = ram_data(V, pt).degree_sequence
            assert (val > 0) == (ns[-1] >= d)
            assert val == ram_data(V, pt).total


def test_complement_dual_identity_random():
    rng = random.Random(0xF00D)
    for _ in range(50):
        d = rng.randint(1, 4)
        j = rng.randint(d, 7)
        V = random_space(rng, d, j)
        pt = PointP1(random_fraction(rng, 4, 2) or 1, random_fraction(rng, 4, 2))
        rd = ram_data(V, pt)
        t = j + 1 - d
        assert rd.qram == oracles.conjugate_with_zeros(box_complement(rd.code, t, d), d)
        assert all(0 <= q <= d for q in rd.code)


def test_code_parts_count_smaller_monomials():
    rng = random.Random(0xBEEF)
    for _ in range(25):
        d = rng.randint(1, 4)
        j = rng.randint(d, 7)
        V = random_space(rng, d, j)
        lc = change_basis(V, POINT_X)
        pivots = sorted(j - k for k in lc.pivots)  # L-powers of In(V)
        cob = sorted(set(range(j + 1)) - set(pivots))
        expected = tuple(
            sorted((sum(1 for m in pivots if m < nu) for nu in cob), reverse=True)
        )
        assert ram_data(V, POINT_X).code == expected


def test_ram_data_gl_invariance():
    rng = random.Random(0xCAFE)
    for _ in range(20):
        d = rng.randint(2, 4)
        j = rng.randint(d, 7)
        V = random_space(rng, d, j)
        rows = [list(f.coeffs) for f in V.basis]
        # random invertible row operations
        for _ in range(4):
            i, k = rng.randrange(d), rng.randrange(d)
            if i != k:
                c = random_fraction(rng, 3, 2)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
        W = FormSpace(j, rows)
        pt = PointP1(1, rng.randint(-3, 3))
        assert ram_data(V, pt) == ram_data(W, pt)
        assert V == W


def test_ram_data_independent_of_complement_choice():
    rng = random.Random(0xDEAD)
    for _ in range(20):
        d = rng.randint(1, 3)
        j = rng.randint(d, 6)
        V = random_space(rng, d, j)
        pt = PointP1(1, rng.randint(2, 4))  # C = x + y stays independent of L
        rd = ram_data(V, pt)
        assert (rd.degree_sequence, rd.qram, rd.code) == oracles.ram_data(V, pt, c_form=(F(1), F(1)))


def test_total_codimension_sum_rule_random():
    # codimensions of the codes at all ramification points sum to dim x codim
    rng = random.Random(0x7777)
    for _ in range(25):
        d = rng.randint(1, 3)
        j = rng.randint(d, 6)
        V = random_space(rng, d, j, num=4, den=2)
        summary = total_ramification_check(V)
        n_deg = d * (j + 1 - d)
        acc = summary.irrational_degree
        for pt in summary.rational_point_valuations:
            rd = ram_data(V, pt)
            assert n_deg - sum(rd.code) == rd.total
            acc += rd.total
        assert acc == n_deg


def test_form_serialization_roundtrip():
    f = BinaryForm(3, [F(1, 2), F(-3), F(0), F(5, 7)])
    assert BinaryForm.from_json(f.to_json()) == f
    assert f.to_json() == {"degree": 3, "coeffs": ["1/2", "-3", "0", "5/7"]}
    V = v_a(1)
    assert FormSpace.from_json(V.to_json()) == V


def test_point_normalization():
    assert PointP1(2, 4) == PointP1(1, 2)
    assert PointP1(0, 5) == PointP1(0, 1)
    with pytest.raises(ValueError):
        PointP1(0, 0)


def test_rows_are_primitive_with_positive_pivots():
    V = FormSpace(2, [[-2, -2, -2], [-2, -1, 1]])
    assert V.rows == ((-1, 0, 2), (3, 2, 0)) and V.pivots == (2, 1)
    assert V.basis == (BinaryForm(2, [F(-1, 2), 0, 1]), BinaryForm(2, [F(3, 2), 1, 0]))
    # the entry at the first pivot is not a multiple of the pivot entry 2
    assert V.contains([-4, -3, -1]) and not V.contains([-4, -3, 0])


def test_contains_rejects_a_form_of_another_degree():
    V = FormSpace(2, [[1, 0, 0], [0, 1, 0]])
    assert V.contains(BinaryForm(2, [3, -2, 0]))
    assert not V.contains(BinaryForm(2, [0, 0, 1]))
    for form in (BinaryForm(3, [1, 0, 0, 5]), BinaryForm(1, [0, 1])):
        with pytest.raises(ValueError, match="mixed degrees"):
            V.contains(form)
