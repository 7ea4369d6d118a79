"""The contract that the three class rings share through one base class:
Schubert classes in a box, the cell classes [a, b] of the bundle variety and
the ambient classes zeta^u eta^v."""

import pytest

from hookcells import AmbientClass, BundleClass, SchubertClass, lr_multiply, t_multiply
from hookcells.errors import BoxMismatch, ShapeMismatch


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
