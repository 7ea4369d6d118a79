import random
import time
from fractions import Fraction as F
from math import comb

import pytest

import oracles
from hookcells import (
    AmbientClass,
    BinaryForm,
    BundleClass,
    class_gt,
    grass_degree,
    hankel_matrix,
    hankel_rank,
    iota_pullback,
    iota_pushforward,
    ramification_count_example,
    scaled_coefficients,
    secant_pullback,
    t_multiply,
    wronskian_cover_degree,
)
from hookcells.errors import OutOfRange, ShapeMismatch, ZeroForm

RINGS = [(2, 5), (3, 6), (3, 7)]


def basis_classes(mu, j):
    return [BundleClass.basis(mu, j, a, b) for a in range(mu) for b in range(mu + 1)]


def test_t_multiply_examples():
    x = t_multiply(BundleClass.basis(3, 6, 1, 1), BundleClass.basis(3, 6, 0, 2))
    # binomial spread C(4,i)[i, 4-i] truncated to the valid range
    assert x.as_dict() == {(1, 3): comb(4, 1), (2, 2): comb(4, 2)}
    assert t_multiply(
        BundleClass.basis(3, 6, 1, 0), BundleClass.basis(3, 6, 0, 1)
    ) == BundleClass.basis(3, 6, 1, 1)
    assert t_multiply(BundleClass.basis(3, 6, 2, 2), BundleClass.basis(3, 6, 1, 2)).is_zero


def test_t_multiply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        t_multiply(BundleClass.basis(3, 6, 0, 0), BundleClass.basis(3, 7, 0, 0))


def test_ring_commutative_associative_exhaustive():
    for mu, j in RINGS:
        classes = basis_classes(mu, j)
        for x in classes:
            for y in classes:
                assert t_multiply(x, y) == t_multiply(y, x)
        for x in classes:
            for y in classes:
                for z in classes:
                    assert t_multiply(t_multiply(x, y), z) == t_multiply(x, t_multiply(y, z))


def test_exact_duality_exhaustive():
    for mu, j in RINGS:
        top = 2 * mu - 1
        for a in range(mu):
            for b in range(mu + 1):
                for c in range(mu):
                    for e in range(mu + 1):
                        if a + b + c + e != top:
                            continue
                        prod = t_multiply(
                            BundleClass.basis(mu, j, a, b), BundleClass.basis(mu, j, c, e)
                        )
                        if a + c == mu - 1 and b + e == mu:
                            assert prod.as_dict() == {(mu - 1, mu): 1}
                        else:
                            assert prod.is_zero


def test_class_gt_examples():
    assert class_gt(2, 3).as_dict() == {(0, 2): 1, (1, 1): 2, (2, 0): 1}
    assert class_gt(3, 3).as_dict() == {(0, 1): 1, (1, 0): 1}
    gt = class_gt(3, 6).as_dict()
    assert gt == {(i, 4 - i): comb(4, i) for i in range(4)}  # zeta^4 truncated away


def test_class_gt_forms_only_the_surviving_terms():
    """The class equals the full binomial expansion truncated by ``make``,
    and stays cheap at j = 10000, where the full expansion forms 10001
    binomials of up to 10000 bits."""
    for mu in range(1, 8):
        for j in range(mu, 16):
            assert class_gt(mu, j) == oracles.class_gt(mu, j), (mu, j)
    start = time.perf_counter()
    assert class_gt(1, 10000).as_dict() == {(0, 10000): 1, (1, 9999): 10000}
    assert iota_pushforward(BundleClass.basis(1, 10000, 0, 0)).as_dict() == {(0, 10000): 1, (1, 9999): 10000}
    assert time.perf_counter() - start < 0.1


def test_iota_pullback_examples():
    assert iota_pullback(AmbientClass.make(3, 6, {(1, 1): 1})) == BundleClass.basis(3, 6, 1, 1)
    # the binomial spread C(4,i)[1+i, 3-i], with the out-of-range i = 2 term dropped
    spread = iota_pullback(AmbientClass.make(3, 6, {(2, 2): 1}))
    assert spread.as_dict() == {(1, 3): comb(4, 0), (2, 2): comb(4, 1)}


def test_iota_pushforward_examples():
    push = iota_pushforward(BundleClass.basis(3, 6, 2, 2))
    assert push.as_dict() == {(3, 5): 1}
    low = iota_pushforward(BundleClass.basis(2, 5, 0, 1))
    # eta * (zeta+eta)^4 with the zeta powers past zeta^2 truncated away
    assert low.as_dict() == {(0, 5): 1, (1, 4): 4, (2, 3): 6}


def test_pullback_is_ring_map_on_hyperplanes():
    for mu, j in RINGS:
        zeta = BundleClass.basis(mu, j, 1, 0)
        eta = BundleClass.basis(mu, j, 0, 1)
        for u in range(mu + 1):
            for v in range(j + 1):
                acc = BundleClass.make(mu, j, {(0, 0): 1})
                for _ in range(u):
                    acc = t_multiply(acc, zeta)
                for _ in range(v):
                    acc = t_multiply(acc, eta)
                assert acc == iota_pullback(AmbientClass.make(mu, j, {(u, v): 1}))


def test_pullback_pushforward_projection_formula():
    for mu, j in RINGS:
        self_int = iota_pullback(iota_pushforward(BundleClass.make(mu, j, {(0, 0): 1})))
        for x in basis_classes(mu, j):
            assert iota_pullback(iota_pushforward(x)) == t_multiply(x, self_int)


def test_products_match_the_dict_oracles_exhaustively():
    """t_multiply on every pair of basis classes, iota_pushforward and
    iota_pullback on every basis class of each ring, and secant_pullback on
    every rank, for 1 <= mu <= 5 and mu <= j <= 2 mu + 3, and t_multiply on
    one combination of all of them, against the versions in ``oracles``."""
    for mu in range(1, 6):
        for j in range(mu, 2 * mu + 4):
            classes = basis_classes(mu, j)
            for x in classes:
                assert iota_pushforward(x) == oracles.iota_pushforward(x)
                for y in classes:
                    assert t_multiply(x, y) == oracles.t_multiply(x, y)
            for u in range(mu + 1):
                for v in range(j + 1):
                    z = AmbientClass.make(mu, j, {(u, v): 1})
                    assert iota_pullback(z) == oracles.iota_pullback(z)
            dense = BundleClass.make(mu, j, {x.terms[0][0]: k % 7 - 3 for k, x in enumerate(classes)})
            assert t_multiply(dense, dense) == oracles.t_multiply(dense, dense)
            if 2 * mu < j + 1:
                for i in range(1, mu + 1):
                    assert secant_pullback(mu, j, i) == oracles.secant_pullback(mu, j, i)


def test_secant_pullback_examples():
    assert secant_pullback(3, 6, 2).as_dict() == {(0, 1): 3, (1, 0): -2}
    assert secant_pullback(3, 6, 1).as_dict() == {(0, 2): 1, (1, 1): -6, (2, 0): 3}
    assert secant_pullback(3, 6, 3).as_dict() == {(0, 0): 1}


def test_secant_pullback_closed_form_top_rank():
    for mu in range(1, 5):
        for j in range(2 * mu, 10):
            if not 2 * mu < j + 1 or mu < 2:
                continue
            got = secant_pullback(mu, j, mu - 1)
            expect = BundleClass.make(
                mu, j, {(0, 1): mu, (1, 0): -(j + 2 - 2 * mu)}
            )
            assert got == expect


def test_secant_pullback_pushes_forward_to_the_secant_preimage_near_the_top_rank():
    """For i = mu and i = mu - 1 the pushforward of the rank-i pullback is
    [Z_i], whose integral of zeta^(mu-i) eta^(2i-1) is the degree
    C(j+1-i, i) of the i-th secant variety of the rational normal curve."""
    for mu in range(2, 7):
        for j in range(2 * mu, 2 * mu + 6):
            for i in (mu - 1, mu):
                expect = oracles.secant_preimage_class(mu, j, i)
                assert expect.as_dict()[(i, j - 2 * i + 1)] == comb(j + 1 - i, i)
                assert iota_pushforward(secant_pullback(mu, j, i)) == expect


def test_eta_power_integrates_to_the_degree_of_the_secant_variety():
    """G_T maps birationally onto the mu-th secant variety of the rational
    normal curve of degree j, and eta pulls back its hyperplane class, so
    the integral of eta^(2 mu - 1) over G_T is its degree C(j + 1 - mu, mu)."""
    for mu in range(1, 8):
        for j in range(2 * mu, 2 * mu + 9):
            eta = iota_pullback(AmbientClass.make(mu, j, {(0, 2 * mu - 1): 1}))
            assert eta.point_coefficient() == comb(j + 1 - mu, mu)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: secant_pullback for i <= mu - 2 is not [Z_i]")
def test_secant_pullback_pushes_forward_to_the_secant_preimage_below():
    """For i <= mu - 2 the library's class differs from [Z_i]: at (3, 6, 1)
    its pushforward has negative coefficients, e^6 - 2*z*e^5 - ..., where
    [Z_1] is 3*e^6 + 6*z*e^5."""
    differ = [
        (mu, j, i)
        for mu in range(3, 7)
        for j in range(2 * mu, 2 * mu + 6)
        for i in range(1, mu - 1)
        if iota_pushforward(secant_pullback(mu, j, i)) != oracles.secant_preimage_class(mu, j, i)
    ]
    assert not differ


def test_secant_pullback_range_errors():
    with pytest.raises(OutOfRange):
        secant_pullback(3, 6, 0)
    with pytest.raises(OutOfRange):
        secant_pullback(3, 6, 4)
    with pytest.raises(OutOfRange):
        secant_pullback(3, 5, 1)  # needs 2*mu < j+1


def test_hankel_matrix_and_rank_examples():
    a = [1, 0, 0, 0, 0, 0, 0]
    assert hankel_rank(a, 3) == 1
    assert hankel_rank([1, 0, 0, 0, 0, 0, 1], 3) == 2
    m = hankel_matrix([0, 1, 2, 3, 4, 5, 6], 2)
    assert m == [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [2, 3, 4, 5, 6]]
    with pytest.raises(ZeroForm):
        hankel_rank([0, 0, 0, 0, 0, 0, 0], 3)
    with pytest.raises(OutOfRange):
        hankel_rank([1, 0, 0], 5)  # window outside 0..j


def power_sum_coeffs(j, points):
    """Scaled coefficients of sum of c * (alpha x + beta y)^j."""
    a = [F(0)] * (j + 1)
    for c, alpha, beta in points:
        for i in range(j + 1):
            a[i] += c * alpha ** (j - i) * beta**i
    return a


def test_hankel_rank_generic_full():
    rng = random.Random(0xFEED)
    for _ in range(20):
        j = rng.randint(5, 9)
        mu = rng.randint(1, (j - 1) // 2)
        a = [F(rng.randint(-9, 9)) for _ in range(j + 1)]
        if all(v == 0 for v in a):
            continue
        # random vectors are almost surely off every secant stratum
        assert hankel_rank(a, mu) == min(mu + 1, j + 1 - mu)


def test_hankel_rank_detects_power_sums():
    rng = random.Random(0x5CA1E)
    for _ in range(30):
        j = rng.randint(6, 9)
        mu = rng.randint(2, (j - 1) // 2)
        m = rng.randint(1, mu)
        pts = [(F(rng.randint(1, 5)), F(k + 1), F(rng.randint(-3, 3))) for k in range(m)]
        a = power_sum_coeffs(j, pts)
        assert hankel_rank(a, mu) <= m


def test_fiber_dimension_spot_check():
    # over a point of secant rank exactly i the desingularization fibre is a
    # projective space of dimension mu - i: equivalently the catalecticant
    # kernel has dimension mu + 1 - i, i.e. the rank is exactly i
    for j, mu in ((7, 3), (9, 4)):
        for i in range(1, mu + 1):
            pts = [(F(1), F(1), F(k)) for k in range(i)]  # i distinct points
            a = power_sum_coeffs(j, pts)
            assert hankel_rank(a, mu) == i
            kernel_dim = mu + 1 - i
            assert (mu - kernel_dim + 1) == i


def test_hankel_window_independence():
    rng = random.Random(0xA11CE)
    checked = 0
    while checked < 100:
        j = rng.randint(6, 9)
        mu = rng.randint(2, (j - 1) // 2)
        m = rng.randint(1, mu)
        pts = [
            (F(rng.randint(1, 9)), F(1), F(rng.randint(-4, 4)))
            for _ in range(m)
        ]
        a = power_sum_coeffs(j, pts)
        if all(v == 0 for v in a):
            continue
        ranks = {
            hankel_rank(a, mup)
            for mup in range(mu, j + 1)
            if mu <= min(mup, j - mup)
        }
        assert len(ranks) == 1
        checked += 1


def test_scaled_coefficients():
    # (x + y)^4 has plain coefficients C(4, k) and scaled coefficients 1
    form = BinaryForm(4, [comb(4, k) for k in range(5)])
    assert scaled_coefficients(form) == (1, 1, 1, 1, 1)
    assert hankel_rank(scaled_coefficients(form), 2) == 1


def test_ramification_count_example():
    res = ramification_count_example()
    assert res.count == 4
    assert res.product_class.as_dict() == {(2, 3): 4}
    assert res.det_degree == 4
    assert res.root_count == 4
    assert res.det_poly == (1, 1, 1, 1, 1)
    # the coefficient picked out of [1,1]*[0,2] is C(4,1) = 4
    partial = t_multiply(BundleClass.basis(3, 6, 1, 1), BundleClass.basis(3, 6, 0, 2))
    assert partial.coefficient(1, 3) == comb(4, 1)


def test_wronskian_cover_degree_examples():
    assert wronskian_cover_degree([1, 2, 1]) == 1
    assert wronskian_cover_degree([1, 2, 2]) == 1
    assert wronskian_cover_degree([1, 2, 3, 2, 1]) == grass_degree(2, 4) * grass_degree(4, 5) == 2


def test_bundle_class_serialization():
    x = secant_pullback(3, 6, 2)
    data = x.to_json()
    assert data == {
        "mu": 3,
        "j": 6,
        "terms": [{"a": 0, "b": 1, "coeff": 3}, {"a": 1, "b": 0, "coeff": -2}],
    }
    assert BundleClass.from_json(data) == x
