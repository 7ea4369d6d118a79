"""The contract that the three class rings share through one base class:
Schubert classes in a box, the cell classes [a, b] of the bundle variety and
the ambient classes zeta^u eta^v."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hookcells import (
    AmbientClass,
    BundleClass,
    SchubertClass,
    iota_pullback,
    lr_multiply,
    pieri_multiply,
    secant_pullback,
    t_multiply,
)
from hookcells.errors import BoxMismatch, ShapeMismatch
from hookcells.partitions import box_partitions


def test_schubert_make_raises_on_a_key_outside_the_box():
    with pytest.raises(ValueError):
        SchubertClass.make((2, 2), {(3,): 1})
    with pytest.raises(ValueError):
        SchubertClass.make((2, 2), {(1, 1, 1): 0})  # checked before the coefficient
    with pytest.raises(ValueError):
        SchubertClass.make((2, 2), {(1, 2): 1})  # not a partition


def test_bundle_and_ambient_make_drop_out_of_range_keys():
    bundle = BundleClass.make(3, 6, {(3, 0): 5, (0, 4): 1, (-1, 2): 2, (1, 1): 2})
    assert bundle.terms == (((1, 1), 2),)
    ambient = AmbientClass.make(3, 6, {(4, 0): 1, (0, 7): 1, (-1, 0): 3, (3, 6): -2})
    assert ambient.terms == (((3, 6), -2),)


@pytest.mark.parametrize("ring, terms", [
    (BundleClass, (3, 6, {(1, 1): 1.5})),
    (BundleClass, (3, 6, {(1, 1): Fraction(3, 2)})),
    (BundleClass, (3, 6, {(1, 1): Fraction(2)})),
    (SchubertClass, ((2, 2), {(1,): 0.5})),
    (SchubertClass, ((2, 2), {(1,): True})),
    (SchubertClass, ((2, 2), [((1,), True)])),
    (BundleClass, (3, 6, [((1, 1), 1), ((1, 1), 0.5)])),
    (BundleClass, (3, 6, {(1.0, 1): 1})),
    (BundleClass, (3, 6, [((1, True), 1)])),
    (AmbientClass, (3, 6, {(1, 2.0): 1})),
    (AmbientClass, (3, 6, {(0, 0): 1.0})),
    (SchubertClass, ((2, 2), {(1.0,): 1})),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_make_refuses_inexact_input(ring, terms):
    """A float, a Fraction or a boolean is refused as a coefficient or an
    index, never truncated or read as 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        ring.make(*terms)


def test_terms_are_sorted_and_equal_keys_summed():
    x = SchubertClass.make((2, 2), {(2,): 1, (1,): 4, (2, 0): 2})
    assert x.terms == (((1,), 4), ((2,), 3))
    y = BundleClass.make(3, 6, {(1, 0): 1, (0, 2): 5})
    assert y.terms == (((0, 2), 5), ((1, 0), 1))


@pytest.mark.parametrize("x", [
    SchubertClass.make((2, 3), {(2, 1): 3, (1,): -1}),
    BundleClass.make(3, 6, {(1, 1): 2, (0, 3): -5}),
    AmbientClass.make(3, 6, {(1, 2): 4, (0, 0): 1}),
])
def test_zero_coefficients_vanish(x):
    zero = x - x
    assert zero.is_zero and zero.terms == () and zero.as_dict() == {}
    assert str(zero) == "0"
    assert x + (-x) == zero
    assert type(x).make(*x.ring.values(), {k: 0 for k in x.as_dict()}) == zero
    assert x + zero == x


def test_mixing_rings_raises():
    s22, s23 = SchubertClass.one((2, 2)), SchubertClass.one((2, 3))
    with pytest.raises(BoxMismatch):
        s22 + s23
    with pytest.raises(BoxMismatch):
        s22 * s23
    with pytest.raises(BoxMismatch):
        lr_multiply(s22, s23)
    b36, b37 = BundleClass.basis(3, 6, 0, 0), BundleClass.basis(3, 7, 0, 0)
    with pytest.raises(ShapeMismatch):
        b36 + b37
    with pytest.raises(ShapeMismatch):
        b36 * b37
    a36, a37 = AmbientClass.make(3, 6, {(0, 0): 1}), AmbientClass.make(3, 7, {(0, 0): 1})
    with pytest.raises(ShapeMismatch):
        a36 + a37
    with pytest.raises(ShapeMismatch):
        a36 * a37
    # a bundle class and an ambient class of the same (mu, j) are different rings
    with pytest.raises(ShapeMismatch):
        b36 + a36
    with pytest.raises(ShapeMismatch):
        t_multiply(b36, a36)


def test_str_of_negative_combinations():
    assert str(SchubertClass.make((2, 2), {(1,): -1, (2,): 2, (1, 1): -3})) == "-1*s[1] - 3*s[1,1] + 2*s[2]"
    assert str(BundleClass.make(3, 6, {(0, 1): 3, (1, 0): -2})) == "3*[0,1] - 2*[1,0]"
    assert str(BundleClass.make(3, 6, {(0, 1): -1, (1, 0): 1})) == "-1*[0,1] + [1,0]"
    assert str(AmbientClass.make(3, 6, {(0, 0): 1, (0, 1): -1, (2, 3): -4})) == "1 - 1*e - 4*z^2*e^3"


def test_repeated_json_terms_sum():
    """Every JSON term adds to the class, whether it repeats a key exactly
    or only after normalization."""
    one = {"partition": [1], "coeff": 1}
    for second in ([1], [1, 0]):
        data = {"box": [2, 2], "terms": [one, {**one, "partition": second}]}
        assert SchubertClass.from_json(data) == SchubertClass.make((2, 2), {(1,): 2})
    term = {"a": 1, "b": 1, "coeff": 2}
    assert BundleClass.from_json({"mu": 3, "j": 6, "terms": [term, term]}).as_dict() == {(1, 1): 4}


def _normal(ring, key):
    """The key ``make`` files a raw key under, or None when it drops it."""
    if ring is SchubertClass:
        parts = tuple(v for v in key if v)
        return parts if len(parts) <= 3 else "outside the box"
    limits = (2, 3) if ring is BundleClass else (3, 6)
    return key if all(0 <= v <= m for v, m in zip(key, limits)) else None


@st.composite
def raw_terms(draw):
    """A ring and raw (key, coefficient) pairs for it: Schubert keys with
    trailing zeros, such as (2, 0) and (2,), and some outside the 3x3 box;
    bundle (mu = 3) and ambient (mu = 3, j = 6) keys in and out of range;
    repeated keys, and some pairs repeated with the opposite sign so that
    their sums cancel."""
    ring = draw(st.sampled_from([SchubertClass, BundleClass, AmbientClass]))
    if ring is SchubertClass:
        keys = st.lists(st.integers(0, 3), max_size=4).map(lambda p: tuple(sorted(p, reverse=True)))
    else:
        keys = st.tuples(st.integers(-1, 7), st.integers(-1, 7))
    pairs = draw(st.lists(st.tuples(keys, st.integers(-3, 3)), max_size=12))
    cancel = draw(st.integers(0, len(pairs)))
    return ring, pairs + [(k, -c) for k, c in pairs[:cancel]]


@settings(max_examples=300, deadline=None)
@given(raw_terms())
def test_make_of_pairs_matches_the_hand_summed_dict(case):
    ring, pairs = case
    args = ((3, 3),) if ring is SchubertClass else (3, 6)
    summed, expect = {}, {}
    for k, c in pairs:
        summed[k] = summed.get(k, 0) + c
        key = _normal(ring, k)
        if key is not None:
            expect[key] = expect.get(key, 0) + c
    if "outside the box" in expect:
        for terms in (iter(pairs), summed):
            with pytest.raises(ValueError):
                ring.make(*args, terms)
        return
    got = ring.make(*args, iter(pairs))
    assert got == ring.make(*args, summed)
    assert got.terms == tuple(sorted((k, c) for k, c in expect.items() if c))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rule_outputs_are_in_normal_form(data):
    """The products, the pullbacks, + and - hand the keys they build to
    ``_sum`` without the key check of ``make``.  So every key they emit must
    already be in normal form and in range, the terms sorted and no
    coefficient zero: ``make`` then gives the same class back.
    ``pieri_multiply`` goes through ``make`` and is held to the same."""
    draw, coeffs = data.draw, st.integers(-3, 3)
    box = (draw(st.integers(1, 4)), draw(st.integers(1, 6)))
    x, y = (SchubertClass.make(box, draw(st.dictionaries(
        st.sampled_from(box_partitions(*box)), coeffs, max_size=6))) for _ in range(2))
    mu = draw(st.integers(1, 5))
    j = draw(st.integers(mu, 13))
    b, c = (BundleClass.make(mu, j, draw(st.dictionaries(
        st.tuples(st.integers(0, mu - 1), st.integers(0, mu)), coeffs, max_size=6))) for _ in range(2))
    a = AmbientClass.make(mu, j, draw(st.dictionaries(
        st.tuples(st.integers(0, mu), st.integers(0, j)), coeffs, max_size=6)))
    outputs = [lr_multiply(x, y), pieri_multiply(x), x + y, x - y, -x,
               t_multiply(b, c), b + c, b - c, -b, iota_pullback(a), -a]
    if 2 * mu < j + 1:
        outputs.append(secant_pullback(mu, j, draw(st.integers(1, mu))))
    for z in outputs:
        assert list(z.terms) == sorted(z.terms) and all(coeff for _, coeff in z.terms)
        assert type(z).make(*z.ring.values(), z.terms) == z
