import random
from fractions import Fraction as F

import pytest

from hookcells import (
    CellParams,
    GradedIdeal,
    HilbertFunction,
    MonomialIdeal,
    Partition,
    PointP1,
    POINT_X,
    POINT_Y,
    big_cell,
    build_ideal,
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
from hookcells.errors import InconsistentParams, InvalidT, NotInBigCell


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
            far = sum(
                count_hooks_diff(p, a)
                for a in range(-p.weight, p.weight + 1)
                if abs(a) >= 2
            )
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
    assert f.monomials() == {(0, 2): F(1), (1, 1): F(-3)}
    assert I.hilbert_function.t == (1, 2, 1)


def test_build_ideal_zero_params_is_monomial():
    for T in hilbert_functions_upto(8):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            I = build_ideal(CellParams.zeros(E))
            for g in I.generators:
                assert len(g.monomials()) == 1
            assert initial_ideal(I) == E


def test_build_ideal_reproduces_table_cell():
    # the codimension-2 cell on (1,2,3,2,1) with its two printed generators
    E = ideal_of([5, 2, 1, 1])
    a, b = F(7), F(-4)
    I = build_ideal(CellParams(E, {((0, 4), (4, 0)): -a, ((3, 1), (4, 0)): -b}))
    by_mono = {frozenset(g.monomials()): g for g in I.generators}
    p2 = by_mono[frozenset({(0, 4), (4, 0)})]
    assert p2.monomials() == {(0, 4): F(1), (4, 0): a}  # y^4 + a x^4
    p1 = by_mono[frozenset({(3, 1), (4, 0)})]
    assert p1.monomials() == {(3, 1): F(1), (4, 0): b}  # x^3 y + b x^4
    # forced tails: f = x^2 y + b x^3 and g = x y^2 - b^2 x^3
    f = by_mono[frozenset({(2, 1), (3, 0)})] if frozenset({(2, 1), (3, 0)}) in by_mono else None
    assert f is not None and f.monomials() == {(2, 1): F(1), (3, 0): b}
    g = by_mono[frozenset({(1, 2), (3, 0)})]
    assert g.monomials() == {(1, 2): F(1), (3, 0): -b * b}


def test_generators_lead_with_the_beta_chain():
    rng = random.Random(0xB37A)
    for parts in ([2, 2], [5, 2, 1, 1], [4, 2, 1]):
        E = ideal_of(parts)
        I = build_ideal(random_params(rng, E))
        betas = E.betas()
        assert len(I.generators) == len(betas)
        for g, beta in zip(I.generators, betas):
            lead = min(g.monomials(), key=lambda m: (m[0] + m[1], m[0]))
            assert lead == beta and g.monomials()[lead] == 1


def test_params_must_match_pair_set():
    E = ideal_of([2, 2])
    with pytest.raises(InconsistentParams):
        CellParams(E, {})
    with pytest.raises(InconsistentParams):
        CellParams(E, {((0, 2), (1, 1)): F(1), ((9, 9), (8, 8)): F(1)})


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


def test_roundtrip_random_params():
    rng = random.Random(0x9999)
    for T in hilbert_functions_upto(8):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            for _ in range(3):
                I = build_ideal(random_params(rng, E))
                assert initial_ideal(I) == E
                assert I.hilbert_function == T


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
    for tt in ([1, 2, 1], [1, 2, 3, 2, 1], [1, 2, 2, 2, 1]):
        T = HilbertFunction(tt)
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


def test_small_grass_requires_big_cell():
    E = ideal_of([2, 2])  # not the dense cell of (1,2,1)
    I = build_ideal(CellParams(E, {((0, 2), (1, 1)): F(1)}))
    with pytest.raises(NotInBigCell):
        small_grass_coords(I)


def test_graded_ideal_validates_closure():
    from hookcells import BinaryForm, FormSpace
    from hookcells.errors import NotAnIdeal

    T = HilbertFunction([1, 2, 2, 1])
    x2 = FormSpace(2, [BinaryForm.from_monomials(2, {(2, 0): 1})])
    good3 = FormSpace(3, [
        BinaryForm.from_monomials(3, {(3, 0): 1}),
        BinaryForm.from_monomials(3, {(2, 1): 1}),
        BinaryForm.from_monomials(3, {(1, 2): 1}),
    ])
    GradedIdeal(T, {2: x2, 3: good3})  # closed: x*x^2 and y*x^2 both land inside
    bad3 = FormSpace(3, [
        BinaryForm.from_monomials(3, {(0, 3): 1}),
        BinaryForm.from_monomials(3, {(1, 2): 1}),
        BinaryForm.from_monomials(3, {(2, 1): 1}),
    ])
    with pytest.raises(NotAnIdeal):
        GradedIdeal(T, {2: x2, 3: bad3})  # x * x^2 falls outside
    only_x = FormSpace(3, [
        BinaryForm.from_monomials(3, {(3, 0): 1}),
        BinaryForm.from_monomials(3, {(1, 2): 1}),
        BinaryForm.from_monomials(3, {(0, 3): 1}),
    ])
    with pytest.raises(NotAnIdeal):
        GradedIdeal(T, {2: x2, 3: only_x})  # x * x^2 lies inside, y * x^2 does not
    with pytest.raises(NotAnIdeal):
        GradedIdeal(T, {2: x2})  # missing piece
    with pytest.raises(NotAnIdeal):
        GradedIdeal(HilbertFunction([1, 2, 1]), {2: FormSpace(2, [[1, 0, 0]])})


def test_cell_params_serialization():
    E = ideal_of([5, 2, 1, 1])
    params = CellParams(E, {((0, 4), (4, 0)): F(1, 2), ((3, 1), (4, 0)): F(-3)})
    data = params.to_json()
    assert data["partition"] == [5, 2, 1, 1]
    assert data["params"][0] == {"mu": "x^0 y^4", "nu": "x^4 y^0", "value": "1/2"}
    rebuilt = CellParams.from_json(data)
    assert rebuilt.values == params.values
