import random
import time
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from hookcells import (
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
    hookcode,
    poincare,
    t_invariants,
)
from hookcells.errors import NotFound, OutOfRange

# n = 60 and n = 100; (1..10..1) has 19683 shapes
LARGE_T = (HilbertFunction([*range(1, 11), 5]), HilbertFunction([*range(1, 11), *range(9, 0, -1)]))


def test_code_examples():
    assert code(Partition([5, 2, 1, 1])).qs == ((0,), (2,))
    assert code(Partition([5, 2, 2])).qs == ((1,), (2,))
    assert code(Partition([2, 1, 1])).qs == ((0,),)


def test_decode_examples():
    T = HilbertFunction([1, 2, 3, 2, 1])
    assert decode(T, HookCode(3, 4, ((0,), (2,)))) == Partition([5, 2, 1, 1])
    assert decode([1, 2, 1], HookCode(2, 2, ((2,),))) == Partition([3, 1])
    assert decode([1], HookCode(1, 0, ())) == Partition([1])


def test_hookcode_reads_its_fields():
    T = HilbertFunction([1, 2, 3, 2, 1])
    d = HookCode(3, 4, [[0], [2]])
    assert d == HookCode(3, 4, ((0,), (2,))) and d.qs == ((0,), (2,))
    assert decode(T, d) == Partition([5, 2, 1, 1])
    assert complement(T, d) == HookCode(3, 4, [[2], [0]])


@pytest.mark.parametrize("value", [0.5, 3.0, True, "3"])
@pytest.mark.parametrize("field", ["mu", "j", "entry"])
def test_hookcode_refuses_a_non_integer(field, value):
    fields = {"mu": 3, "j": 4, "qs": [[0], [2]]}
    if field == "entry":
        fields["qs"] = [[0], [value]]
    else:
        fields[field] = value
    with pytest.raises(ValueError, match="must be an integer"):
        HookCode(**fields)


@pytest.mark.parametrize(
    "qs, what", [(5, "qs"), ([5], "code component"), ([[0], 2], "code component"), (((0,), 2), "code component")]
)
def test_hookcode_refuses_a_non_iterable(qs, what):
    with pytest.raises(ValueError, match=f"^{what} must be a sequence"):
        HookCode(3, 4, qs)


def test_decode_rejects_oversized_code():
    with pytest.raises(NotFound):
        decode([1, 2, 1], HookCode(2, 2, ((3,),)))


def test_complement_examples():
    T = HilbertFunction([1, 2, 1])
    assert complement(T, HookCode(2, 2, ((2,),))).qs == ((0,),)
    assert complement(T, HookCode(2, 2, ((1,),))).qs == ((1,),)
    full = HookCode(3, 4, ((2,), (2,)))
    assert complement([1, 2, 3, 2, 1], full).qs == ((0,), (0,))


def test_boxes_of_T():
    T = HilbertFunction([1, 2, 3, 2, 1])
    assert T.boxes == ((1, 2), (1, 2))
    assert decode(T, HookCode(3, 4, ((2,), (1,)))) == Partition([4, 4, 1])
    with pytest.raises(NotFound, match="does not fit the boxes"):
        decode(T, HookCode(3, 4, ((3,), (1,))))


def test_boxes_are_the_factors_of_sgrass():
    """Each box is a factor Grass(rows, rows + cols) of SGrass(T): their
    dimensions add up to dim G_T and their cell counts multiply to the
    number of shapes, found by the search oracle."""
    for T in hilbert_functions_upto(14):
        assert T.boxes == oracles.boxes(T)
        assert sum(rows * cols for rows, cols in T.boxes) == t_invariants(T).dim_gt
        shapes = oracles.enumerate_with_diagonal_lengths(T)
        assert prod(comb(rows + cols, rows) for rows, cols in T.boxes) == len(shapes)


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


def test_code_and_decode_match_the_hook_oracle_on_every_shape_up_to_n_22():
    for n in range(23):
        for p in oracles.partitions_of(n):
            d = code(p)
            assert d == oracles.code(p)
            assert decode(p.diagonal_lengths(), d) == p


def test_every_code_decodes_to_a_shape_with_that_code():
    for T in hilbert_functions_upto(16):
        for d in all_codes(T):
            assert code(decode(T, d)) == d


def test_enumeration_matches_the_depth_first_oracle():
    for T in hilbert_functions_upto(16):
        assert enumerate_with_diagonal_lengths(T) == oracles.enumerate_with_diagonal_lengths(T)


def random_code(T, draw_entry):
    """A code with every component drawn into its box by ``draw_entry(cols)``."""
    qs = tuple(
        tuple(sorted((draw_entry(cols) for _ in range(rows)), reverse=True))
        for rows, cols in T.boxes
    )
    return HookCode(T.mu, T.j, qs)


@st.composite
def hilbert_functions(draw, max_n=30):
    """An admissible T with n(T) <= max_n: the staircase up to mu, then a
    weakly decreasing tail of values at most mu."""
    mu = draw(st.integers(1, 7))
    budget, top, tail = max_n - mu * (mu + 1) // 2, mu, []
    while budget and draw(st.booleans()):
        top = draw(st.integers(1, min(top, budget)))
        tail.append(top)
        budget -= top
    return HilbertFunction([*range(1, mu + 1), *tail])


# the ways a code is made to miss its boxes, each with the number of box
# rows that the component it changes needs; "none" leaves the code fitting
NEAR_MISSES = {
    "none": None, "mu": None, "j": None, "extra": None, "missing": 0, "longer": 0,
    "shorter": 1, "above": 1, "negative": 1, "increasing": 2,
}


@settings(max_examples=400, deadline=None)
@given(hilbert_functions(), st.sampled_from(list(NEAR_MISSES)), st.data())
def test_decode_refuses_exactly_the_codes_the_fit_oracle_refuses(T, kind, data):
    qs = [list(q) for q in random_code(T, lambda cols: data.draw(st.integers(0, cols))).qs]
    mu, j = T.mu, T.j
    need = NEAR_MISSES[kind]
    ks = [k for k, q in enumerate(qs) if need is not None and len(q) >= need]
    k = data.draw(st.sampled_from(ks)) if ks else None
    if kind == "mu":
        mu += data.draw(st.sampled_from((-1, 1)))
    elif kind == "j":
        j += data.draw(st.sampled_from((-1, 1)))
    elif kind == "extra":
        qs.insert(data.draw(st.integers(0, len(qs))), [0] * data.draw(st.integers(0, 2)))
    elif k is None:
        pass
    elif kind == "missing":
        del qs[k]
    elif kind == "longer":
        qs[k].append(0)
    elif kind == "shorter":
        qs[k].pop()
    elif kind == "above":
        qs[k][0] = oracles.boxes(T)[k][1] + 1
    elif kind == "negative":
        qs[k][-1] = -1
    else:
        e = data.draw(st.integers(0, len(qs[k]) - 2))
        qs[k][e + 1] = qs[k][e] + 1
    d = HookCode(mu, j, qs)
    missed = kind in ("mu", "j", "extra") or k is not None
    assert oracles.fits(T, d) == (not missed)
    if missed:
        for refuse in (decode, complement):
            with pytest.raises(NotFound, match="does not fit the boxes"):
                refuse(T, d)
    else:
        assert oracles.code(decode(T, d)) == d
        assert oracles.fits(T, complement(T, d))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LARGE_T), st.data())
def test_decode_round_trips_random_codes_of_large_T(T, data):
    d = random_code(T, lambda cols: data.draw(st.integers(0, cols)))
    p = decode(T, d)
    assert p.diagonal_lengths() == T
    assert oracles.code(p) == d


def test_decode_at_n_100_takes_microseconds():
    """300 decodes at n = 100 take about 25 ms on a shared 2-core machine,
    so the 1 s bound catches a return to a per-T table, whose build took
    34 s there."""
    T = LARGE_T[1]
    rng = random.Random(3)
    codes = [random_code(T, lambda cols: rng.randint(0, cols)) for _ in range(300)]
    start = time.perf_counter()
    shapes = [decode(T, d) for d in codes]
    assert time.perf_counter() - start < 1
    assert [code(p) for p in shapes] == codes


def test_enumeration_refuses_T_above_the_cell_limit():
    assert cell_count(LARGE_T[1]) == 19683 <= hookcode.MAX_CELLS
    # 3^29 cells: refused before any code is built
    T = [*range(1, 31), *range(29, 0, -1)]
    for enumerate_ in (all_codes, enumerate_with_diagonal_lengths):
        with pytest.raises(OutOfRange, match="more than the limit"):
            enumerate_(T)
