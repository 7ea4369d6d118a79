import random
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from hookcells import (
    SchubertClass,
    grass_degree,
    intersect_ramification,
    lr_coefficient,
    lr_multiply,
    pieri_multiply,
    qram_of_monomial_space,
)
from hookcells.errors import BoxMismatch, DimensionMismatch, MalformedE, OutOfRange
from hookcells.schubert import MAX_GRASS_DIM
from hookcells.partitions import box_partitions as _box_partitions
from hookcells.schubert import _lr_fillings
import oracles


def plucker_degree(d, n):
    """Hook-content closed form for the degree of the Grassmannian."""
    big_n = d * (n - d)
    v = factorial(big_n)
    for i in range(d):
        v = v * factorial(i) // factorial(n - d + i)
    return v


def test_pieri_square():
    box = (2, 2)
    s1 = SchubertClass.basis(box, (1,))
    assert lr_multiply(s1, s1).as_dict() == {(2,): 1, (1, 1): 1}


def test_identity():
    box = (3, 4)
    one = SchubertClass.one(box)
    x = SchubertClass.make(box, {(2, 1): 3, (4,): -2})
    assert lr_multiply(one, x) == x


def test_sigma1_fourth_power():
    box = (2, 2)
    acc = SchubertClass.one(box)
    s1 = SchubertClass.basis(box, (1,))
    for _ in range(4):
        acc = lr_multiply(acc, s1)
    assert acc.as_dict() == {(2, 2): 2}


def test_grass_degree_examples():
    assert grass_degree(2, 4) == 2
    assert grass_degree(1, 7) == 1
    assert grass_degree(2, 5) == 5  # Catalan number


def test_grass_degree_closed_form():
    for n in range(1, 13):
        for d in range(1, n + 1):
            assert grass_degree(d, n) == plucker_degree(d, n)


def test_grass_degree_refuses_dimensions_above_the_limit():
    assert grass_degree(1, MAX_GRASS_DIM + 1) == 1  # d(n - d) at the limit
    for d, n in [(1, MAX_GRASS_DIM + 2), (9, 17), (15, 30)]:
        with pytest.raises(OutOfRange, match="more than the limit"):
            grass_degree(d, n)


def test_degree_covering_discrepancy_documented():
    # the naive closed form N!/binomial(j, d) does not compute the covering
    # degree for Grass(2, R_3): the tableau value 2 is authoritative
    n_deg = 2 * 2
    naive = factorial(n_deg) // comb(3, 2)
    assert naive == 8
    assert grass_degree(2, 4) == 2
    assert naive != grass_degree(2, 4)


def test_lr_symmetry_and_associativity():
    rng = random.Random(0xACED)
    boxes = [(2, 2), (2, 3), (3, 3), (3, 4)]
    for box in boxes:
        pool = _box_partitions(*box)
        for _ in range(12):
            a, b, c = (SchubertClass.basis(box, rng.choice(pool)) for _ in range(3))
            assert lr_multiply(a, b) == lr_multiply(b, a)
            assert lr_multiply(lr_multiply(a, b), c) == lr_multiply(a, lr_multiply(b, c))


def test_lr_against_pieri():
    rng = random.Random(0xB0B)
    for box in [(2, 3), (3, 3), (3, 4)]:
        pool = _box_partitions(*box)
        s1 = SchubertClass.basis(box, (1,))
        for _ in range(10):
            x = SchubertClass.basis(box, rng.choice(pool))
            assert lr_multiply(x, s1) == pieri_multiply(x)


def test_poincare_pairing_exhaustive():
    rows, cols = 3, 3
    box = (rows, cols)
    full = rows * cols
    for lam in _box_partitions(rows, cols):
        for mu in _box_partitions(rows, cols):
            if sum(lam) + sum(mu) != full:
                continue
            prod = lr_multiply(SchubertClass.basis(box, lam), SchubertClass.basis(box, mu))
            padded = tuple(list(lam) + [0] * (rows - len(lam)))
            comp = tuple(cols - padded[rows - 1 - k] for k in range(rows))
            comp = tuple(v for v in comp if v)
            if mu == comp:
                assert prod.point_coefficient() == 1
                assert prod.as_dict() == {(cols,) * rows: 1}
            else:
                assert prod.is_zero


def test_codimension_additivity():
    rng = random.Random(0x1CE)
    for box in [(2, 3), (3, 4)]:
        pool = _box_partitions(*box)
        for _ in range(20):
            lam, mu = rng.choice(pool), rng.choice(pool)
            prod = lr_multiply(SchubertClass.basis(box, lam), SchubertClass.basis(box, mu))
            if not prod.is_zero:
                assert prod.codimensions() == {sum(lam) + sum(mu)}


def test_lr_coefficient_known_values():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((2, 2), (2, 1), (1,)) == 1
    assert lr_coefficient((2, 2), (1, 1), (1, 1)) == 1
    assert lr_coefficient((2, 2), (2,), (1, 1)) == 0  # fails the lattice condition
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2  # classic multiplicity


def _inside(mu, lam):
    return len(mu) <= len(lam) and all(m <= l for m, l in zip(mu, lam))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lr_coefficient_matches_tableau_oracle(data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    pool = _box_partitions(rows, cols)
    lam = data.draw(st.sampled_from(pool))
    # half the draws take mu inside lam and nu of the missing size, so many counts are nonzero
    mu = data.draw(st.sampled_from([p for p in pool if _inside(p, lam)]) | st.sampled_from(pool))
    fits = [p for p in pool if sum(p) == sum(lam) - sum(mu)] or pool
    nu = data.draw(st.sampled_from(fits) | st.sampled_from(pool))
    assert lr_coefficient(lam, mu, nu) == oracles.lr_coefficient(lam, mu, nu)
    if _inside(mu, lam):
        # the generator under the bound lam yields exactly the shapes inside lam
        expected = {k: oracles.lr_coefficient(k, mu, nu) for k in pool if _inside(k, lam)}
        assert _lr_fillings(mu, nu, lam) == {k: c for k, c in expected.items() if c}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lr_multiply_matches_tableau_oracle(data):
    box = (data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6)))
    pool = _box_partitions(*box)
    x, y = (
        SchubertClass.make(box, data.draw(st.dictionaries(
            st.sampled_from(pool), st.integers(-3, 3), min_size=1, max_size=4)))
        for _ in range(2)
    )
    assert lr_multiply(x, y) == oracles.lr_multiply(x, y)


def test_qram_of_monomial_space_examples():
    assert qram_of_monomial_space((1, 3, 4), 4) == (2, 2, 1)
    assert qram_of_monomial_space(range(5)) == (0, 0, 0, 0, 0)
    # degree-6 piece of (y^2 x, y^6, x^6): everything except x-power 5
    powers = (0, 1, 2, 3, 4, 6)
    q = qram_of_monomial_space(powers, 6)
    assert sum(q) == sum(powers) - 6 * 5 // 2 == 1
    with pytest.raises(MalformedE):
        qram_of_monomial_space((2, 2, 3))
    with pytest.raises(MalformedE):
        qram_of_monomial_space((0, 9), 4)


def test_intersect_ramification_duality():
    d, j = 2, 4
    e = (1, 4)
    e_dual = tuple(sorted(j - n for n in e))
    cls = intersect_ramification(d, j, [e, e_dual])
    assert cls.point_coefficient() == 1
    assert cls.as_dict() == {(3, 3): 1}
    other = (1, 2)  # same codimension as the dual but a different space
    assert sum(qram_of_monomial_space(other, j)) == sum(qram_of_monomial_space(e_dual, j))
    assert other != e_dual
    assert intersect_ramification(d, j, [e, other]).is_zero


def test_intersect_ramification_simple_conditions():
    d, j = 2, 3
    n_deg = d * (j + 1 - d)
    simple = (0, 2)  # QRAM (0, 1): one simple condition
    assert qram_of_monomial_space(simple, j) == (1, 0)
    cls = intersect_ramification(d, j, [simple] * n_deg)
    assert cls.point_coefficient() == grass_degree(d, j + 1)


def test_intersect_codimension_additivity():
    d, j = 2, 4
    conds = [(0, 3), (1, 3)]
    total = sum(sum(qram_of_monomial_space(c, j)) for c in conds)
    cls = intersect_ramification(d, j, conds)
    assert not cls.is_zero
    assert cls.codimensions() == {total}


def test_errors():
    with pytest.raises(BoxMismatch):
        lr_multiply(SchubertClass.one((2, 2)), SchubertClass.one((2, 3)))
    with pytest.raises(DimensionMismatch):
        intersect_ramification(2, 3, [(0, 1, 2)])
    for d, j in [(-1, 1), (2, 0)]:  # no d x (j + 1 - d) box
        with pytest.raises(DimensionMismatch):
            intersect_ramification(d, j, [])
    with pytest.raises(DimensionMismatch):
        grass_degree(3, 2)


def test_basis_refuses_non_integer_parts():
    with pytest.raises(ValueError, match="1.9"):
        SchubertClass.basis((2, 2), [1.9])
    with pytest.raises(ValueError, match="True"):
        SchubertClass.basis((2, 2), [True])


def test_serialization():
    box = (2, 2)
    cls = lr_multiply(SchubertClass.basis(box, (1,)), SchubertClass.basis(box, (1,)))
    data = cls.to_json()
    assert data == {
        "box": [2, 2],
        "terms": [{"partition": [1, 1], "coeff": 1}, {"partition": [2], "coeff": 1}],
    }
    assert SchubertClass.from_json(data) == cls
