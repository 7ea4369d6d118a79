"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion; any failure raises with the criterion number in the test name.
"""

import random
import time
from fractions import Fraction as F
from math import comb, factorial

from hookcells import (
    BundleClass,
    CellParams,
    FormSpace,
    HilbertFunction,
    MonomialIdeal,
    POINT_X,
    all_codes,
    betti_numbers,
    build_ideal,
    cell_count,
    code,
    complement,
    count_hooks_diff,
    dims,
    enumerate_with_diagonal_lengths,
    gaussian_binomial,
    grass_degree,
    hilbert_functions_upto,
    initial_ideal,
    pair_set_S,
    pair_set_W,
    ram_data,
    ramification_count_example,
    secant_pullback,
    t_invariants,
    t_multiply,
    total_ramification_check,
    wronskian,
)
import oracles
from conftest import random_space


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS  [{detail}]")


def test_criterion_1_hook_code_bijection():
    t0 = time.time()
    n_t = 0
    for T in hilbert_functions_upto(12):
        ps = enumerate_with_diagonal_lengths(T)
        codes = {code(p): p for p in ps}
        assert len(codes) == len(ps), f"code not injective on {list(T.t)}"
        assert set(codes) == set(all_codes(T)), f"image mismatch on {list(T.t)}"
        for p in ps:
            assert code(p.dual()) == complement(T, code(p))
        n_t += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, "hook-code bijection", f"{n_t} Hilbert functions, {elapsed:.1f}s")


def test_criterion_2_betti_consistency():
    for T in hilbert_functions_upto(12):
        ps = enumerate_with_diagonal_lengths(T)
        betti = betti_numbers(T)
        hist = [0] * len(betti)
        for p in ps:
            hist[count_hooks_diff(p, 1)] += 1
        assert tuple(hist) == betti, f"histogram mismatch on {list(T.t)}"
        assert len(ps) == cell_count(T) == sum(betti)
    special = HilbertFunction([1, 2, 3, 2, 1])
    factor = gaussian_binomial(2, 1)
    assert factor == (1, 1, 1)
    assert betti_numbers(special) == (1, 2, 3, 2, 1)  # (1+q^2+q^4)^2
    assert cell_count(special) == 9
    _report(2, "Betti consistency", "all T with n(T) <= 12; (1,2,3,2,1) = (1+q^2+q^4)^2, b=9")


def test_criterion_3_cell_roundtrip():
    t0 = time.time()
    rng = random.Random(0x0ACC3)
    built = 0
    for T in hilbert_functions_upto(10):
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            pairs = pair_set_S(E)
            for _ in range(20):
                values = {
                    pr: F(rng.randint(-9, 9), rng.randint(1, 4)) for pr in pairs
                }
                ideal = build_ideal(CellParams(E, values))
                assert initial_ideal(ideal) == E
                assert ideal.hilbert_function == T
                built += 1
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(3, "cell roundtrip", f"{built} ideals rebuilt, {elapsed:.1f}s")


def _v_a(a):
    return FormSpace(3, [
        oracles.from_monomials(3, {(1, 2): 1, (3, 0): -a * a}),
        oracles.from_monomials(3, {(2, 1): 1, (3, 0): a}),
    ])


def test_criterion_4_wronskian():
    for a in (1, 2, 3):
        expect = oracles.from_monomials(
            4, {(2, 2): 1, (3, 1): 2 * a, (4, 0): a * a}
        ).normalized()
        assert wronskian(_v_a(a)) == expect

    rng = random.Random(0x4ACC)
    checked = 0
    while checked < 200:
        d = rng.randint(1, 4)
        j = rng.randint(d, 8)
        space = random_space(rng, d, j, num=5, den=2)
        w = wronskian(space)
        assert w.degree == d * (j + 1 - d)
        summary = total_ramification_check(space)
        # every rational zero's multiplicity was already cross-checked against
        # the degree sequence inside the call; the total accounts for the
        # whole degree
        assert summary.degree == d * (j + 1 - d)
        assert sum(summary.rational_point_valuations.values()) + summary.irrational_degree == summary.degree
        # divisibility: positive valuation at p iff some member divisible by L_p^d
        for pt in list(summary.rational_point_valuations)[:2]:
            assert ram_data(space, pt).degree_sequence[-1] >= d
        checked += 1

    v110 = FormSpace(4, [
        oracles.from_monomials(4, {(4, 0): 1}),
        oracles.from_monomials(4, {(3, 1): 1}),
        oracles.from_monomials(4, {(4, 0): 1, (3, 1): 3, (2, 2): 3, (1, 3): 1}),
    ])
    assert ram_data(v110, POINT_X).qram == (2, 2, 1)
    _report(4, "Wronskian", "V_a for a=1,2,3; 200 random spaces; QRAM example")


def test_criterion_5_dimension_reconciliation():
    cells_checked = 0
    for T in hilbert_functions_upto(10):
        inv = t_invariants(T)
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            d = dims(E)
            s = len(pair_set_S(E))
            assert d.z == s + inv.f_t
            w = pair_set_W(E)
            assert w.w == inv.n - count_hooks_diff(p, 0) - count_hooks_diff(p, 1) - count_hooks_diff(p, -1)
            assert w.w == inv.f_t
            # balanced hooks per degree (index shifted to the following drop)
            for i in range(T.mu - 1, T.j + 2):
                drop = T.value(i) - T.value(i + 1)
                assert count_hooks_diff(p, 0, i) == comb(drop + 1, 2)
            # degreewise pair-count duality
            for i in range(T.mu, T.j + 1):
                assert len(pair_set_S(E.dual(), i)) == (T.delta(i) + 1) * (
                    T.value(i) - T.value(i + 1)
                ) - len(pair_set_S(E, i))
            cells_checked += 1
    _report(5, "dimension reconciliation", f"{cells_checked} cells, n(T) <= 10")


def test_criterion_6_bundle_ring():
    for mu, j in ((2, 5), (3, 6), (3, 7)):
        classes = [
            BundleClass.basis(mu, j, a, b) for a in range(mu) for b in range(mu + 1)
        ]
        for x in classes:
            for y in classes:
                assert t_multiply(x, y) == t_multiply(y, x)
                for z in classes:
                    assert t_multiply(t_multiply(x, y), z) == t_multiply(x, t_multiply(y, z))
        top = 2 * mu - 1
        for x in classes:
            for y in classes:
                (a, b) = x.terms[0][0]
                (c, e) = y.terms[0][0]
                if a + b + c + e != top:
                    continue
                prod = t_multiply(x, y)
                if a + c == mu - 1 and b + e == mu:
                    assert prod.as_dict() == {(mu - 1, mu): 1}
                else:
                    assert prod.is_zero
    res = ramification_count_example()
    assert res.count == 4
    assert res.det_degree == 4
    assert res.root_count == 4
    _report(6, "bundle ring", "rings (2,5),(3,6),(3,7) exhaustive; worked count = 4")


def test_criterion_7_secant_classes():
    assert secant_pullback(3, 6, 2).as_dict() == {(0, 1): 3, (1, 0): -2}

    from hookcells import hankel_rank

    rng = random.Random(0x7ACC)
    checked = 0
    while checked < 100:
        j = rng.randint(6, 9)
        mu = rng.randint(2, (j - 1) // 2)
        m = rng.randint(1, mu)
        a = [F(0)] * (j + 1)
        for k in range(m):
            c, alpha, beta = rng.randint(1, 9), F(1), F(rng.randint(-4, 4))
            for i in range(j + 1):
                a[i] += c * alpha ** (j - i) * beta**i
        if all(v == 0 for v in a):
            continue
        ranks = {
            hankel_rank(a, mup) for mup in range(mu, j + 1) if mu <= min(mup, j - mup)
        }
        assert len(ranks) == 1 and ranks.pop() <= mu
        checked += 1
    _report(7, "secant classes", "pullback formula; 100 window-independence samples")


def test_criterion_8_schubert_oracle():
    assert grass_degree(2, 4) == 2
    assert grass_degree(2, 5) == 5
    for n in range(1, 8):
        for d in range(1, min(n, 3) + 1):
            big_n = d * (n - d)
            closed = factorial(big_n)
            for i in range(d):
                closed = closed * factorial(i) // factorial(n - d + i)
            assert grass_degree(d, n) == closed
    # the naive covering-degree closed form disagrees with the tableau value
    naive = factorial(4) // comb(3, 2)
    assert naive == 8 and grass_degree(2, 4) == 2 and naive != grass_degree(2, 4)
    _report(8, "Schubert oracle", "degrees match hook-content form, 8 != 2 documented")


def _rational_points_of(space):
    summary = total_ramification_check(space)
    if summary.irrational_degree:
        return None
    return summary.rational_point_valuations


def test_criterion_9_total_ramification_sum():
    details = []
    for tt in ([1, 2, 1], [1, 2, 3, 2, 1]):
        T = HilbertFunction(tt)
        target = t_invariants(T).dim_bgrass
        samples = 0
        skipped = 0
        candidates = []
        for p in enumerate_with_diagonal_lengths(T):
            E = MonomialIdeal(p)
            pairs = pair_set_S(E)
            candidates.append(CellParams.zeros(E))
            for pr in pairs:
                for v in (1, -1, 2, -2, 3, -3, 4, -4):
                    vals = {q: F(0) for q in pairs}
                    vals[pr] = F(v)
                    candidates.append(CellParams(E, vals))
            for k in range(len(pairs) - 1):
                for v1 in (1, -1, 2, -2, 3, -3):
                    for v2 in (1, -1, 2, -2, 3, -3):
                        vals = {q: F(0) for q in pairs}
                        vals[pairs[k]] = F(v1)
                        vals[pairs[k + 1]] = F(v2)
                        candidates.append(CellParams(E, vals))
        for params in candidates:
            if samples >= 25:
                break
            ideal = build_ideal(params)
            points = set()
            split = True
            for i in range(T.mu, T.j + 1):
                vals = _rational_points_of(ideal.pieces[i])
                if vals is None:
                    split = False
                    break
                points.update(vals)
            if not split:
                skipped += 1
                continue
            total = sum(
                ram_data(ideal.pieces[i], pt).total
                for i in range(T.mu, T.j + 1)
                for pt in points
            )
            assert total == target, f"sum {total} != {target} for T={tt}"
            samples += 1
        assert samples >= 20, f"only {samples} split samples for T={tt}"
        details.append(f"T={tt}: {samples} split ideals (skipped {skipped}), sum {target}")
    _report(9, "ramification sum", "; ".join(details))
