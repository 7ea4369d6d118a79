from enum import IntEnum
from fractions import Fraction
from itertools import accumulate, takewhile

import pytest
from hypothesis import given, strategies as st

from hookcells import (
    HilbertFunction,
    MonomialIdeal,
    Partition,
    count_hooks_diff,
    diagonal_lengths,
    enumerate_with_diagonal_lengths,
    hilbert_functions_upto,
    hooks,
    t_invariants,
)
from hookcells.errors import InvalidT
from hookcells.partitions import _conjugate, _index
import oracles

partitions = st.lists(st.integers(1, 9), max_size=8).map(
    lambda xs: Partition(sorted(xs, reverse=True))
)


def test_diagonal_lengths_examples():
    assert diagonal_lengths(Partition([5, 2, 1, 1])).t == (1, 2, 3, 2, 1)
    assert diagonal_lengths(Partition([])).t == ()
    assert diagonal_lengths(Partition([2, 2])).t == (1, 2, 1)


def test_diagonal_profile_raw_flag():
    assert Partition([3, 1]).diagonal_profile() == (1, 2, 1)


def test_dual_examples():
    assert Partition([3, 1]).dual() == Partition([2, 1, 1])
    assert Partition([2, 2]).dual() == Partition([2, 2])
    assert Partition([5, 2, 1, 1]).dual() == Partition([4, 2, 1, 1, 1])


def test_hooks_examples():
    diffs = sorted(h.difference for h in hooks(Partition([2, 2])))
    assert diffs == [-1, 0, 0, 1]
    (h,) = hooks(Partition([1]))
    assert (h.arm, h.leg, h.difference) == (1, 1, 0)
    p31 = hooks(Partition([3, 1]))
    assert sorted(h.difference for h in p31) == [0, 0, 1, 1]
    ones = [h for h in p31 if h.difference == 1]
    assert all(h.hand == (0, 2) and h.hand_degree == 2 for h in ones)


def test_count_hooks_diff_examples():
    assert count_hooks_diff(Partition([2, 2]), 1) == 1
    assert count_hooks_diff(Partition([1]), 1) == 0
    assert count_hooks_diff(Partition([5, 2, 1, 1]), 1) == 2


def test_enumerate_examples():
    assert [p.parts for p in enumerate_with_diagonal_lengths([1, 2, 1])] == [
        (3, 1),
        (2, 2),
        (2, 1, 1),
    ]
    assert [p.parts for p in enumerate_with_diagonal_lengths([1])] == [(1,)]
    assert len(enumerate_with_diagonal_lengths([1, 2, 3, 2, 1])) == 9
    # enumeration sorts the decoded shapes in descending lexicographic order
    for T in hilbert_functions_upto(16):
        shapes = [p.parts for p in enumerate_with_diagonal_lengths(T)]
        assert shapes == sorted(shapes, reverse=True)


def test_enumerate_matches_naive_filter():
    for T in hilbert_functions_upto(9):
        naive = sorted(
            (p for p in oracles.partitions_of(T.n) if p.diagonal_profile() == T.t),
            key=lambda p: p.parts,
            reverse=True,
        )
        assert list(enumerate_with_diagonal_lengths(T)) == naive


def test_t_invariants_examples():
    inv = t_invariants(HilbertFunction([1, 2, 3, 2, 1]))
    assert inv.dim_gt == 4
    assert inv.f_t == 2
    inv2 = t_invariants(HilbertFunction([1, 2, 3, 3, 3, 3, 1]))
    assert inv2.dim_bgrass == 24
    assert inv2.dim_gt == 5 == 2 * inv2.mu - 1
    # the whole ideal variety over the staircase is a single point
    stair = t_invariants(HilbertFunction([1, 2, 3]))
    assert stair.dim_zt == 0 and stair.dim_gt == 0


def test_invalid_t_rejected():
    for bad in ([2], [1, 1, 2], [1, 2, 0, 1], [1, 3], [1, 2, 2, 3]):
        with pytest.raises(InvalidT):
            HilbertFunction(bad)


def test_mu_j_edge_cases():
    T = HilbertFunction([1])
    assert (T.mu, T.j, T.n) == (1, 0, 1)
    stair = HilbertFunction([1, 2, 3])
    assert (stair.mu, stair.j) == (3, 2)
    empty = HilbertFunction([])
    assert (empty.mu, empty.j, empty.n) == (0, -1, 0)


def test_mu_is_the_first_degree_off_the_staircase():
    for T in (HilbertFunction(()), *hilbert_functions_upto(12)):
        assert T.mu == next(i for i in range(len(T) + 1) if T.value(i) <= i)


def test_hilbert_function_equality_and_hash_read_t_alone():
    T, U = HilbertFunction([1, 2, 1]), HilbertFunction((1, 2, 1))
    object.__setattr__(U, "mu", 99)
    assert T == U and hash(T) == hash(U) and repr(U) == "HilbertFunction([1, 2, 1])"
    assert T != HilbertFunction([1, 2, 2, 1])


def test_partition_refuses_non_integer_parts():
    with pytest.raises(ValueError, match="2.7"):
        Partition([2.7, 1])
    with pytest.raises(ValueError, match="True"):
        Partition([True, True])


class Two(IntEnum):
    TWO = 2


@pytest.mark.parametrize("value, want", [(5, 5), (-3, -3), (Two.TWO, 2)])
def test_index_reads_integers(value, want):
    got = _index(value, "part")
    assert got == want and type(got) is int


@pytest.mark.parametrize("value, shown", [(True, "True"), (1.0, "1.0"), (Fraction(2), "Fraction(2, 1)"), ("3", "'3'")])
def test_index_refuses_other_values(value, shown):
    with pytest.raises(InvalidT) as info:
        _index(value, "part", InvalidT)
    assert str(info.value) == f"part must be an integer, got {shown}"


def test_hilbert_function_refuses_non_integer_values():
    with pytest.raises(InvalidT, match="2.9"):
        HilbertFunction([1, 2.9, 1.2])
    with pytest.raises(InvalidT, match="True"):
        HilbertFunction([True, 2, True])


@given(partitions)
def test_dual_is_involution(p):
    assert p.dual().dual() == p


def _shape_within(xs, n=40):
    """The shape of the leading entries of ``xs`` whose total stays within ``n``."""
    kept = len(list(takewhile(lambda total: total <= n, accumulate(xs))))
    return Partition(sorted(xs[:kept], reverse=True))


@given(st.lists(st.integers(1, 20), max_size=40).map(_shape_within))
def test_conjugate_matches_oracle(p):
    cols = oracles.conjugate_with_zeros(p.parts, p.parts[0] if p else 0)
    assert tuple(_conjugate(p.parts)) == cols
    assert MonomialIdeal(p).column_heights() == (*cols, 0)
    assert p.dual() == Partition(cols)
    assert p.dual().dual() == p


@given(partitions)
def test_diagonals_invariant_under_dual(p):
    assert p.dual().diagonal_profile() == p.diagonal_profile()


@given(partitions)
def test_hook_count_equals_weight(p):
    assert len(hooks(p)) == sum(p.parts)


@given(partitions)
def test_hook_differences_mirror_under_dual(p):
    from collections import Counter

    c1 = Counter(h.difference for h in hooks(p))
    c2 = Counter(-h.difference for h in hooks(p.dual()))
    assert c1 == c2


@given(partitions)
def test_raw_diagonals_always_admissible(p):
    HilbertFunction(p.diagonal_profile())  # must not raise


@given(partitions)
def test_hook_arm_leg_geometry(p):
    d = p.dual()
    for h in hooks(p):
        assert h.arm == p[h.row] - h.col >= 1
        assert h.leg == d[h.col] - h.row >= 1
        assert h.hand_degree == h.row + h.col + h.arm - 1


def test_balanced_hook_counts_per_degree():
    # number of balanced degree-i hooks is a binomial in the next diagonal drop
    from math import comb

    for T in hilbert_functions_upto(12):
        for p in enumerate_with_diagonal_lengths(T):
            for i in range(T.mu - 1, T.j + 2):
                drop = T.value(i) - T.value(i + 1)
                assert count_hooks_diff(p, 0, i) == comb(drop + 1, 2)


def test_hook_difference_classes_partition_all_hooks():
    for T in hilbert_functions_upto(10):
        for p in enumerate_with_diagonal_lengths(T):
            n = sum(p.parts)
            total = sum(count_hooks_diff(p, a) for a in range(-n, n + 1))
            assert total == T.n == n


def test_hilbert_functions_upto_count():
    ts = hilbert_functions_upto(12)
    assert len(ts) == 69
    assert all(T.n <= 12 for T in ts)
    assert HilbertFunction([1, 2, 3, 2, 1]) in ts


def test_partition_serialization():
    p = Partition([5, 2, 1, 1])
    assert Partition.from_json(p.to_json()) == p
    assert p.to_json() == [5, 2, 1, 1]
