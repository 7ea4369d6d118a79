import pytest
from hypothesis import given, strategies as st

from hookcells import (
    BoxSequence,
    HilbertFunction,
    HookCode,
    Partition,
    all_codes,
    betti_numbers,
    cell_count,
    code,
    complement,
    count_hooks_diff,
    decode,
    enumerate_with_diagonal_lengths,
    gaussian_binomial,
    hilbert_functions_upto,
    poincare,
    t_invariants,
)
from hookcells.errors import NotFound


def test_code_examples():
    assert code(Partition([5, 2, 1, 1])).qs == ((0,), (2,))
    assert code(Partition([5, 2, 2])).qs == ((1,), (2,))
    assert code(Partition([2, 1, 1])).qs == ((0,),)


def test_decode_examples():
    T = HilbertFunction([1, 2, 3, 2, 1])
    assert decode(T, HookCode(3, 4, ((0,), (2,)))) == Partition([5, 2, 1, 1])
    assert decode([1, 2, 1], HookCode(2, 2, ((2,),))) == Partition([3, 1])
    assert decode([1], HookCode(1, 0, ())) == Partition([1])


def test_decode_rejects_oversized_code():
    with pytest.raises(NotFound):
        decode([1, 2, 1], HookCode(2, 2, ((3,),)))


def test_complement_examples():
    T = HilbertFunction([1, 2, 1])
    assert complement(T, HookCode(2, 2, ((2,),))).qs == ((0,),)
    assert complement(T, HookCode(2, 2, ((1,),))).qs == ((1,),)
    full = HookCode(3, 4, ((2,), (2,)))
    assert complement([1, 2, 3, 2, 1], full).qs == ((0,), (0,))


def test_box_sequence():
    bx = BoxSequence(HilbertFunction([1, 2, 3, 2, 1]))
    assert bx.boxes == ((1, 2), (1, 2))
    assert bx.fits(HookCode(3, 4, ((2,), (1,))))
    assert not bx.fits(HookCode(3, 4, ((3,), (1,))))


def test_gaussian_binomial_examples():
    assert gaussian_binomial(2, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(0, 5) == (1,)
    assert gaussian_binomial(1, 2) == (1, 1, 1)


def test_gaussian_binomial_against_box_enumeration():
    def brute(a, b):
        # partitions with at most b parts, each at most a
        counts = [0] * (a * b + 1)

        def rec(remaining_rows, mx, size):
            counts[size] += 1
            if remaining_rows == 0:
                return
            for v in range(1, mx + 1):
                rec(remaining_rows - 1, v, size + v)

        rec(b, a, 0)
        return tuple(counts)

    for a in range(5):
        for b in range(5):
            g = gaussian_binomial(a, b)
            assert g == brute(a, b)
            assert g == g[::-1]  # palindromic
            assert len(g) - 1 == a * b


def test_poincare_examples():
    assert betti_numbers([1, 2, 3, 2, 1]) == (1, 2, 3, 2, 1)
    assert poincare([1, 2, 1]) == (1, 0, 1, 0, 1)
    # single-degree case is a plain Grassmannian
    assert betti_numbers([1, 2, 3, 2]) == gaussian_binomial(2, 2)
    assert betti_numbers([1, 2, 2]) == gaussian_binomial(1, 2)


def test_cell_count_examples():
    assert cell_count([1, 2, 3, 2, 1]) == 9
    assert cell_count([1, 2, 1]) == 3
    assert cell_count([1]) == 1


def test_bijectivity_small():
    for T in hilbert_functions_upto(9):
        ps = enumerate_with_diagonal_lengths(T)
        codes = {code(p) for p in ps}
        assert len(codes) == len(ps)
        assert codes == set(all_codes(T))
        for p in ps:
            assert decode(T, code(p)) == p


def test_duality_small():
    for T in hilbert_functions_upto(9):
        for p in enumerate_with_diagonal_lengths(T):
            assert code(p.dual()) == complement(T, code(p))


def test_dimension_formulas():
    for T in hilbert_functions_upto(10):
        inv = t_invariants(T)
        for p in enumerate_with_diagonal_lengths(T):
            dim = code(p).length
            codim = code(p.dual()).length
            assert dim == count_hooks_diff(p, 1)
            assert codim == count_hooks_diff(p, -1)
            assert dim + codim == inv.dim_gt


def test_code_refines_piecewise_schubert_order():
    """Inclusion of hook codes implies degreewise inclusion of the Schubert
    codes of the pieces; the converse fails, e.g. for (3,1,1,1) vs (4,1,1)."""

    def schubert_codes(p, T):
        out = []
        for i in range(T.mu, T.j + 1):
            cob = sorted(c for (r, c) in p.cells() if r + c == i)
            out.append(tuple(sorted((a - k for k, a in enumerate(cob)), reverse=True)))
        return out

    def leq(qs1, qs2):
        def one(q1, q2):
            length = max(len(q1), len(q2))
            get = lambda q, k: q[k] if k < len(q) else 0
            return all(get(q1, k) <= get(q2, k) for k in range(length))

        return all(one(a, b) for a, b in zip(qs1, qs2))

    converse_failures = 0
    for T in hilbert_functions_upto(10):
        ps = enumerate_with_diagonal_lengths(T)
        for p1 in ps:
            for p2 in ps:
                code_le = leq(code(p1).qs, code(p2).qs)
                piece_le = leq(schubert_codes(p1, T), schubert_codes(p2, T))
                if code_le:
                    assert piece_le
                elif piece_le:
                    converse_failures += 1
    assert converse_failures > 0  # the two orders genuinely differ


def test_code_order_covers_are_covers():
    """Cover relations of the hook-code lattice stay covers after decoding:
    the rank function (code length) steps by one along covers."""
    for T in hilbert_functions_upto(8):
        codes = all_codes(T)

        def leq(d1, d2):
            return all(
                all(a <= b for a, b in zip(q1, q2)) for q1, q2 in zip(d1.qs, d2.qs)
            )

        for d1 in codes:
            for d2 in codes:
                if d1 == d2 or not leq(d1, d2):
                    continue
                is_cover = not any(
                    d3 != d1 and d3 != d2 and leq(d1, d3) and leq(d3, d2)
                    for d3 in codes
                )
                if is_cover:
                    assert d2.length == d1.length + 1


box_partition = st.integers(0, 3).flatmap(
    lambda rows: st.tuples(
        st.just(rows),
        st.integers(0, 4),
    )
).flatmap(
    lambda rc: st.tuples(
        st.just(rc),
        st.lists(st.integers(0, rc[1]), min_size=rc[0], max_size=rc[0]).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
    )
)


@given(box_partition)
def test_box_complement_involution(data):
    from hookcells.partitions import box_complement

    (rows, cols), q = data
    cq = box_complement(q, rows, cols)
    assert all(cq[k] >= cq[k + 1] for k in range(rows - 1))
    assert box_complement(cq, rows, cols) == q
    assert sum(q) + sum(cq) == rows * cols


def test_code_serialization():
    d = code(Partition([5, 2, 2]))
    assert HookCode.from_json(d.to_json()) == d
    assert d.to_json() == {"mu": 3, "j": 4, "qs": [[1], [2]]}


def test_empty_and_singleton_shapes():
    empty = code(Partition([]))
    assert empty.qs == () and empty.length == 0
    assert decode([], empty) == Partition([])
    single = code(Partition([1]))
    assert single.qs == () and decode([1], single) == Partition([1])
    assert cell_count([]) == 1 and betti_numbers([]) == (1,)
