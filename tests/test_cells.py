import copy
import dataclasses
import pickle
import random
from fractions import Fraction as F
from itertools import accumulate

import pytest

from hookcells import (
    CellParams,
    FormSpace,
    GradedIdeal,
    HilbertFunction,
    HookCode,
    MonomialIdeal,
    Partition,
    PointP1,
    POINT_X,
    POINT_Y,
    big_cell,
    build_ideal,
    code,
    count_hooks_diff,
    dims,
    enumerate_with_diagonal_lengths,
    hilbert_functions_upto,
    initial_ideal,
    pair_set_S,
    pair_set_W,
    qram_ideal,
    qram_monomial,
    small_grass_coords,
    t_invariants,
)
from hookcells.cells import MAX_IDEAL_DEGREE
from hookcells.errors import InconsistentParams, InvalidT, NotAnIdeal, NotInBigCell, OutOfRange
import oracles


def ideal_of(parts):
    return MonomialIdeal(Partition(parts))


def random_params(rng, E, num=9, den=4):
    return CellParams(
        E, {pair: F(rng.randint(-num, num), rng.randint(1, den)) for pair in pair_set_S(E)}
    )


def test_pair_set_s_examples():
    assert pair_set_S(ideal_of([2, 2])) == (((0, 2), (1, 1)),)
    big = pair_set_S(ideal_of([6, 4, 3, 1, 1]))
    assert ((1, 3), (2, 2)) in big  # (y^3 x, y^2 x^2)
    assert ((1, 3), (3, 1)) in big  # (y^3 x, y x^3)
    assert pair_set_S(ideal_of([1])) == ()


def test_pair_set_s_matches_difference_one_hooks():
    for T in hilbert_functions_upto(9):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            pairs = pair_set_S(E)
            assert len(pairs) == count_hooks_diff(p, 1)
            for (mu, nu) in pairs:
                assert E.contains(mu) and not E.contains(nu)
                assert not E.contains((mu[0], mu[1] - 1))
                assert E.contains((nu[0] + 1, nu[1]))
                assert mu[0] + mu[1] == nu[0] + nu[1]
                assert mu[0] < nu[0]


def test_pair_set_w_examples():
    assert pair_set_W(ideal_of([1])).w == 0
    assert pair_set_W(ideal_of([2, 2])).w == 0
    for p in enumerate_with_diagonal_lengths([1, 2, 3, 2, 1]):
        assert pair_set_W(MonomialIdeal(p)).w == 2  # f(T) for this T


def test_pair_set_w_counts_far_hooks():
    for T in hilbert_functions_upto(10):
        inv = t_invariants(T)
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            wp = pair_set_W(E)
            n = sum(p.parts)
            far = sum(count_hooks_diff(p, a) for a in range(-n, n + 1) if abs(a) >= 2)
            assert wp.w == far
            assert wp.w == inv.n - count_hooks_diff(p, 0) - count_hooks_diff(p, 1) - count_hooks_diff(p, -1)
            assert wp.w == inv.f_t
            for (mu, nu) in wp.wplus:
                assert mu[0] + mu[1] < nu[0] + nu[1]
            for (mu, nu) in wp.wminus:
                assert mu[0] + mu[1] < nu[0] + nu[1]


def test_build_ideal_hand_example():
    E = ideal_of([2, 2])
    ((mu, nu),) = pair_set_S(E)
    I = build_ideal(CellParams(E, {(mu, nu): F(3)}))
    f = next(g for g in I.generators if g.degree == 2 and g.coeffs[2] == 1)
    # f(y^2) = y^2 - 3*xy
    assert oracles.monomials(f) == {(0, 2): F(1), (1, 1): F(-3)}
    assert I.hilbert_function.t == (1, 2, 1)


def test_build_ideal_zero_params_is_monomial():
    for T in hilbert_functions_upto(8):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            I = build_ideal(CellParams.zeros(E))
            for g in I.generators:
                assert len(oracles.monomials(g)) == 1
            assert initial_ideal(I) == E


def test_build_ideal_reproduces_table_cell():
    # the codimension-2 cell on (1,2,3,2,1) with its two printed generators
    E = ideal_of([5, 2, 1, 1])
    a, b = F(7), F(-4)
    I = build_ideal(CellParams(E, {((0, 4), (4, 0)): -a, ((3, 1), (4, 0)): -b}))
    by_mono = {frozenset(oracles.monomials(g)): g for g in I.generators}
    p2 = by_mono[frozenset({(0, 4), (4, 0)})]
    assert oracles.monomials(p2) == {(0, 4): F(1), (4, 0): a}  # y^4 + a x^4
    p1 = by_mono[frozenset({(3, 1), (4, 0)})]
    assert oracles.monomials(p1) == {(3, 1): F(1), (4, 0): b}  # x^3 y + b x^4
    # forced tails: f = x^2 y + b x^3 and g = x y^2 - b^2 x^3
    f = by_mono[frozenset({(2, 1), (3, 0)})] if frozenset({(2, 1), (3, 0)}) in by_mono else None
    assert f is not None and oracles.monomials(f) == {(2, 1): F(1), (3, 0): b}
    g = by_mono[frozenset({(1, 2), (3, 0)})]
    assert oracles.monomials(g) == {(1, 2): F(1), (3, 0): -b * b}


def test_generators_lead_with_the_beta_chain():
    rng = random.Random(0xB37A)
    for parts in ([2, 2], [5, 2, 1, 1], [4, 2, 1]):
        E = ideal_of(parts)
        I = build_ideal(random_params(rng, E))
        q = E.column_heights()
        betas = [(c, q[c]) for c in range(len(q))]
        assert len(I.generators) == len(betas)
        for g, beta in zip(I.generators, betas):
            lead = min(oracles.monomials(g), key=lambda m: (m[0] + m[1], m[0]))
            assert lead == beta and oracles.monomials(g)[lead] == 1


def test_params_must_match_pair_set():
    E = ideal_of([2, 2])
    with pytest.raises(InconsistentParams):
        CellParams(E, {})
    with pytest.raises(InconsistentParams):
        CellParams(E, {((0, 2), (1, 1)): F(1), ((9, 9), (8, 8)): F(1)})


def test_params_keyed_by_mixed_types_name_the_unexpected_and_missing_pairs():
    with pytest.raises(InconsistentParams) as info:
        CellParams(ideal_of([2, 2]), {1: 2, "a": 3})
    assert str(info.value) == (
        "values must match S(E): unexpected ['a', 1], missing [((0, 2), (1, 1))]"
    )


def test_params_from_json_refuse_a_repeated_pair():
    data = CellParams.zeros(ideal_of([3, 1])).to_json()
    data["params"].append({**data["params"][0], "value": "5"})
    with pytest.raises(InconsistentParams, match=r"\(x\^0 y\^2, x\^2 y\^0\) is given twice"):
        CellParams.from_json(data)


def test_params_refuse_inexact_values():
    E = ideal_of([2, 2])
    pair = ((0, 2), (1, 1))
    for bad in (0.1, 2.0, True):
        with pytest.raises(InconsistentParams, match=r"x\^0 y\^2, x\^1 y\^1"):
            CellParams(E, {pair: bad})
    for good in (2, F(1, 10), "1/10", "0.1"):
        assert CellParams(E, {pair: good}).values[pair] == F(good)
    with pytest.raises(InconsistentParams) as info:
        CellParams(E, {pair: 0.5})
    assert str(info.value) == "value of pair (x^0 y^2, x^1 y^1) must be an exact rational, got 0.5"
    value = F(-3, 7)
    assert CellParams(E, {pair: value}).values[pair] is value


def test_initial_ideal_examples():
    E = ideal_of([2, 2])
    I = build_ideal(CellParams(E, {((0, 2), (1, 1)): F(5)}))
    assert initial_ideal(I, POINT_X) == E

    # I_a = (y^4 + a x^4, y x^2, y^2 x): same cell shape at both x and y
    EC = ideal_of([5, 2, 1, 1])
    Ia = build_ideal(CellParams(EC, {((0, 4), (4, 0)): F(-2), ((3, 1), (4, 0)): F(0)}))
    assert initial_ideal(Ia, POINT_X).partition == Partition([5, 2, 1, 1])
    assert initial_ideal(Ia, POINT_Y).partition == Partition([5, 2, 1, 1])
    # at a generic point the ideal falls into the dense cell
    assert initial_ideal(Ia, PointP1(1, 1)) == big_cell([1, 2, 3, 2, 1])


def test_qram_ideal_examples():
    E = ideal_of([2, 2])
    I = build_ideal(CellParams(E, {((0, 2), (1, 1)): F(1)}))
    assert qram_ideal(I, POINT_X) == ((1, 0),)
    assert qram_monomial(E, 2) == (1, 0)

    # monomial ideal: degreewise ramification is read off the x-powers
    E1 = ideal_of([6, 6, 1, 1, 1, 1])
    I1 = build_ideal(CellParams.zeros(E1))
    T = E1.hilbert_function
    assert T.t == (1, 2, 3, 3, 3, 3, 1)
    expected = tuple(qram_monomial(E1, i) for i in range(T.mu, T.j + 1))
    assert qram_ideal(I1, POINT_X) == expected


def test_qram_matches_initial_ideal_at_random_points():
    rng = random.Random(0x1234)
    for T in ([1, 2, 1], [1, 2, 3, 2, 1], [1, 2, 2, 1]):
        T = HilbertFunction(T)
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            I = build_ideal(random_params(rng, E))
            assert qram_ideal(I, POINT_X) == tuple(
                qram_monomial(E, i) for i in range(T.mu, T.j + 1)
            )
            for _ in range(3):
                pt = PointP1(1, F(rng.randint(1, 9), rng.randint(1, 3)))
                E2 = initial_ideal(I, pt)
                assert qram_ideal(I, pt) == tuple(
                    qram_monomial(E2, i) for i in range(T.mu, T.j + 1)
                )


def test_dims_examples():
    d = dims(ideal_of([5, 2, 1, 1]))
    assert (d.dim_v, d.codim_v) == (2, 2)
    assert dims(ideal_of([3, 1])).dim_v == 2
    for T in hilbert_functions_upto(10):
        E0 = big_cell(T)
        assert dims(E0).dim_v == t_invariants(T).dim_gt


def test_goettsche_reconciliation():
    for T in hilbert_functions_upto(10):
        inv = t_invariants(T)
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            d = dims(E)
            assert d.z == len(pair_set_S(E)) + inv.f_t
            assert d.v == d.z - inv.f_t == len(pair_set_S(E))
            dual_pairs = pair_set_S(E.dual())
            assert d.z == inv.n - len(dual_pairs) - count_hooks_diff(p, 0)


def test_pair_count_duality_per_degree():
    for T in hilbert_functions_upto(10):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            for i in range(T.mu, T.j + 1):
                lhs = len(pair_set_S(E.dual(), i))
                rhs = (T.delta(i) + 1) * (T.value(i) - T.value(i + 1)) - len(pair_set_S(E, i))
                assert lhs == rhs


def test_big_cell_examples():
    assert big_cell([1, 2, 3, 2, 1]).partition == Partition([5, 3, 1])
    assert big_cell([1, 2, 1]).partition == Partition([3, 1])
    assert big_cell([1]).partition == Partition([1])
    with pytest.raises(InvalidT):
        big_cell([1, 1, 2])


def test_big_cell_is_the_full_code_and_matches_the_search_oracle():
    for T in hilbert_functions_upto(24):
        E = big_cell(T)
        assert E == oracles.big_cell(T)
        assert code(E.partition) == HookCode(T.mu, T.j, [[cols] * rows for rows, cols in T.boxes])


def test_roundtrip_random_params():
    rng = random.Random(0x9999)
    for T in hilbert_functions_upto(8):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            for _ in range(3):
                I = build_ideal(random_params(rng, E))
                assert initial_ideal(I) == E
                assert I.hilbert_function == T


@pytest.mark.parametrize("read_first", [False, True])
def test_graded_ideal_copies_before_and_after_the_generators_are_read(read_first):
    assert "generators" not in {f.name for f in dataclasses.fields(GradedIdeal)}  # a property
    params = random_params(random.Random(11), ideal_of([4, 3, 1]))
    want = build_ideal(params).generators
    I = build_ideal(params)
    if read_first:
        I.generators
    for J in (copy.copy(I), copy.deepcopy(I), pickle.loads(pickle.dumps(I))):
        assert (J._generators is None) == (not read_first)
        assert J.hilbert_function == I.hilbert_function and J.pieces == I.pieces
        assert J.generators == want
    given = GradedIdeal(I.hilbert_function, I.pieces, want)
    assert given.generators == want
    assert pickle.loads(pickle.dumps(given)).generators == want


def test_round_trip_and_generators_leave_the_reduced_rows_unformed():
    # build-ideal reads the generators and the initial ideal, never the
    # reduced rows of the pieces
    rng = random.Random(5)
    for parts in ([1] * 12, [6, 4, 3, 1, 1], [7, 6, 5, 4, 3, 2, 1]):
        E = ideal_of(parts)
        I = build_ideal(random_params(rng, E))
        assert initial_ideal(I) == E
        I.generators
        assert all(piece._reduced is None for piece in I.pieces.values())


def test_small_grass_coords_origin():
    T = HilbertFunction([1, 2, 3, 2, 1])
    E0 = big_cell(T)
    I = build_ideal(CellParams.zeros(E0))
    for chart in small_grass_coords(I):
        rows_, cols_ = len(chart.hands), len(chart.columns)
        i = chart.degree
        assert rows_ == T.value(i) - T.value(i + 1)
        assert cols_ == 1 + T.delta(i) + (T.value(i) - T.value(i + 1))
        for hand, row in zip(chart.hands, chart.matrix):
            for mono, entry in zip(chart.columns, row):
                assert entry == (1 if mono == hand else 0)


def test_small_grass_coords_reads_off_parameters():
    rng = random.Random(0x4242)
    for T in hilbert_functions_upto(10):
        E0 = big_cell(T)
        params = random_params(rng, E0)
        charts = small_grass_coords(build_ideal(params))
        seen = 0
        for chart in charts:
            for hand, row in zip(chart.hands, chart.matrix):
                for mono, entry in zip(chart.columns, row):
                    if mono == hand:
                        assert entry == 1
                    elif mono in chart.hands:
                        assert entry == 0
                    else:
                        assert entry == params.values[(mono, hand)]
                        seen += 1
        assert seen == len(pair_set_S(E0))


def test_small_grass_coords_match_the_priority_order_oracle():
    """The charts read off the reduced rows each piece keeps equal those of
    a second elimination under a column priority, with one-digit integer
    values and with nine-digit numerators over nine-digit denominators."""
    rng = random.Random(28)
    for T in hilbert_functions_upto(12):
        E0 = big_cell(T)
        for num, den in ((9, 1), (10**9, 10**9)):
            I = build_ideal(random_params(rng, E0, num, den))
            assert small_grass_coords(I) == oracles.small_grass_chart(I)


def test_small_grass_coords_of_pieces_rebuilt_from_their_basis():
    """Pieces rebuilt through the public constructor from running sums of
    their basis forms, from the lowest pivot up, store rows that are not
    reduced, unlike the generator multiples that ``build_ideal`` stores:
    the stored rows differ, the reduced rows and the charts do not."""
    I = build_ideal(random_params(random.Random(29), big_cell([1, 2, 3, 4, 5, 4, 3, 2, 1]), 10**9, 10**9))
    sums = {d: accumulate((f.coeffs for f in reversed(piece.basis)), lambda a, b: [x + y for x, y in zip(a, b)])
            for d, piece in I.pieces.items()}
    J = GradedIdeal(I.hilbert_function, {d: FormSpace(d, list(rows)) for d, rows in sums.items()})
    assert any(J.pieces[d]._echelon not in (I.pieces[d]._echelon, I.pieces[d].rows) for d in I.pieces)
    assert all(J.pieces[d].rows == I.pieces[d].rows for d in I.pieces)
    assert small_grass_coords(J) == small_grass_coords(I) == oracles.small_grass_chart(J)


def test_small_grass_requires_big_cell():
    E = ideal_of([2, 2])  # not the dense cell of (1,2,1)
    I = build_ideal(CellParams(E, {((0, 2), (1, 1)): F(1)}))
    with pytest.raises(NotInBigCell):
        small_grass_coords(I)


def test_graded_ideal_validates_closure():
    from hookcells import FormSpace
    from hookcells.errors import NotAnIdeal

    T = HilbertFunction([1, 2, 2, 1])
    x2 = FormSpace(2, [oracles.from_monomials(2, {(2, 0): 1})])
    good3 = FormSpace(3, [
        oracles.from_monomials(3, {(3, 0): 1}),
        oracles.from_monomials(3, {(2, 1): 1}),
        oracles.from_monomials(3, {(1, 2): 1}),
    ])
    GradedIdeal(T, {2: x2, 3: good3})  # closed: x*x^2 and y*x^2 both land inside
    bad3 = FormSpace(3, [
        oracles.from_monomials(3, {(0, 3): 1}),
        oracles.from_monomials(3, {(1, 2): 1}),
        oracles.from_monomials(3, {(2, 1): 1}),
    ])
    with pytest.raises(NotAnIdeal):
        GradedIdeal(T, {2: x2, 3: bad3})  # x * x^2 falls outside
    only_x = FormSpace(3, [
        oracles.from_monomials(3, {(3, 0): 1}),
        oracles.from_monomials(3, {(1, 2): 1}),
        oracles.from_monomials(3, {(0, 3): 1}),
    ])
    with pytest.raises(NotAnIdeal):
        GradedIdeal(T, {2: x2, 3: only_x})  # x * x^2 lies inside, y * x^2 does not
    with pytest.raises(NotAnIdeal):
        GradedIdeal(T, {2: x2})  # missing piece
    with pytest.raises(NotAnIdeal):
        GradedIdeal(HilbertFunction([1, 2, 1]), {2: FormSpace(2, [[1, 0, 0]])})


@pytest.mark.parametrize("wrong", [
    FormSpace(4, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]),
    FormSpace(2, [[1, 0, 0], [0, 1, 0]]),
    [[1, 0, 0, 0], [0, 1, 0, 0]],
], ids=["degree 4", "degree 2", "rows"])
def test_graded_ideal_checks_the_degree_of_each_piece(wrong):
    # T = (1, 2, 3, 2, 1): the degree-3 piece has dimension 2
    I = build_ideal(CellParams.zeros(ideal_of([5, 2, 1, 1])))
    GradedIdeal(I.hilbert_function, dict(I.pieces))
    with pytest.raises(NotAnIdeal, match="degree-3 piece is not a FormSpace of degree 3"):
        GradedIdeal(I.hilbert_function, {**I.pieces, 3: wrong})


def test_cell_params_refuse_a_shape_above_the_degree_limit():
    # a column of n ones has top degree j = n - 1
    top = ideal_of([1] * (MAX_IDEAL_DEGREE + 1))
    assert initial_ideal(build_ideal(CellParams.zeros(top))) == top
    with pytest.raises(OutOfRange, match=f"j = {MAX_IDEAL_DEGREE + 1} is above the limit"):
        CellParams.zeros(ideal_of([1] * (MAX_IDEAL_DEGREE + 2)))
    with pytest.raises(OutOfRange, match="j = 999999 is above the limit"):
        CellParams.from_json({"partition": [10**6], "params": []})


def test_cell_params_serialization():
    E = ideal_of([5, 2, 1, 1])
    params = CellParams(E, {((0, 4), (4, 0)): F(1, 2), ((3, 1), (4, 0)): F(-3)})
    data = params.to_json()
    assert data["partition"] == [5, 2, 1, 1]
    assert data["params"][0] == {"mu": "x^0 y^4", "nu": "x^4 y^0", "value": "1/2"}
    rebuilt = CellParams.from_json(data)
    assert rebuilt.values == params.values
