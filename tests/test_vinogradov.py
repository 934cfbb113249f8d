from __future__ import annotations

import math
from itertools import product

import pytest

from sparsemv import exact, vinogradov
from sparsemv.errors import BudgetExceededError, InvalidInputError
from sparsemv.numberfield import MinimalPolynomial
from sparsemv.vinogradov import (
    _key_columns,
    _single_keys,
    count_solutions,
    count_solutions_brute,
    fit_growth,
)

LINE = MinimalPolynomial.parse("0")       # P = x, d = 1
X2P1 = MinimalPolynomial.parse("1,0")     # x^2 + 1
X2M2 = MinimalPolynomial.parse("-2,0")    # x^2 - 2
X3M2 = MinimalPolynomial.parse("-2,0,0")  # x^3 - 2


def _direct_pair_count(poly, s, k, N):
    """Fully independent oracle: enumerate pairs and compare power sums
    computed by plain integer polynomial arithmetic plus explicit reduction."""
    d = poly.degree
    assert all(c.denominator == 1 for c in poly.coeffs)
    coeffs = [int(c) for c in poly.coeffs]

    def reduce_mod(vec):
        vec = list(vec)
        while len(vec) > d:
            top = vec.pop()
            for i in range(d):
                vec[len(vec) - d + i] -= top * coeffs[i]
        return tuple(vec + [0] * (d - len(vec)))

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return reduce_mod(out)

    def powersums(tup):
        sums = []
        for t in range(1, k + 1):
            total = [0] * d
            for beta in tup:
                acc = beta
                for _ in range(t - 1):
                    acc = mul(acc, beta)
                total = [x + y for x, y in zip(total, acc)]
            sums.append(tuple(total))
        return tuple(sums)

    singles = [tuple(c) for c in product(range(N), repeat=d)]
    tuples = list(product(singles, repeat=s))
    table = [powersums(t) for t in tuples]
    return sum(1 for a in table for b in table if a == b)


def test_s1_diagonal_only():
    for poly in (LINE, X2P1, X3M2):
        for k in (1, 2, 3):
            for N in (2, 3, 4):
                rec = count_solutions(poly, 1, k, N)
                assert rec.J == N**poly.degree
                assert rec.method == "hash"


def test_classic_parabola_count():
    rec = count_solutions(LINE, 2, 2, 4)
    assert rec.J == 28  # 2 N^2 - N
    brute = count_solutions_brute(LINE, 2, 2, 4)
    assert brute.J == 28
    assert brute.method == "brute"


def test_x2p1_s1_example():
    assert count_solutions(X2P1, 1, 3, 2).J == 4


def test_hash_equals_brute_on_grid():
    polys = [LINE, X2P1, X2M2]
    for poly in polys:
        for s in (1, 2):
            for k in (1, 2, 3):
                for N in (2, 3, 4, 5, 6):
                    hash_rec = count_solutions(poly, s, k, N)
                    brute_rec = count_solutions_brute(poly, s, k, N)
                    assert hash_rec.J == brute_rec.J, (poly.coeffs, s, k, N)
    # s = 3 is the first s at which the key histogram is convolved twice
    for poly, N_max in ((LINE, 4), (X2P1, 3)):
        for k in (1, 2, 3):
            for N in range(2, N_max + 1):
                assert count_solutions(poly, 3, k, N).J == \
                    count_solutions_brute(poly, 3, k, N).J, (poly.coeffs, k, N)


def test_hash_equals_brute_x3m2_small():
    # degree 3 is brute-feasible only at s = 1
    for k in (1, 2, 3):
        for N in (2, 3):
            assert count_solutions(X3M2, 1, k, N).J == \
                count_solutions_brute(X3M2, 1, k, N).J


def test_hash_matches_independent_pair_oracle():
    for poly, s, k, N in [
        (LINE, 2, 2, 5),
        (X2P1, 2, 2, 3),
        (X2P1, 2, 3, 3),
        (X2M2, 2, 2, 3),
        (X3M2, 1, 3, 3),
        (X2P1, 3, 2, 2),
    ]:
        assert count_solutions(poly, s, k, N).J == _direct_pair_count(poly, s, k, N)


def test_diagonal_lower_bound_and_monotonicity():
    for poly in (LINE, X2P1):
        last = 0
        for N in (2, 3, 4, 5):
            rec = count_solutions(poly, 2, 2, N)
            assert rec.J >= N ** (poly.degree * 2)
            assert rec.J >= last
            last = rec.J


def test_transcendental_count_no_more_solutions():
    for poly, s, k, N in [
        (X2P1, 2, 2, 3),
        (X2P1, 2, 3, 3),
        (X2M2, 2, 2, 3),
        (X3M2, 2, 2, 2),
    ]:
        reduced = count_solutions(poly, s, k, N).J
        formal = count_solutions(poly, s, k, N, transcendental=True).J
        assert formal <= reduced
        assert formal >= N ** (poly.degree * s)


def test_transcendental_keys_refine_reduced_keys():
    # formal keys determine reduced keys (reduction is linear), so equal
    # formal keys force equal reduced keys tuple-by-tuple, not just in count
    from sparsemv.vinogradov import _single_keys

    def pair_keys(single):
        return [tuple(map(sum, zip(a, b))) for a, b in product(single, repeat=2)]

    formal = pair_keys(_single_keys(X2P1, 2, 3, True))
    reduced = pair_keys(_single_keys(X2P1, 2, 3, False))
    seen = {}
    for fk, rk in zip(formal, reduced):
        assert seen.setdefault(fk, rk) == rk


def test_budgets():
    with pytest.raises(BudgetExceededError):
        count_solutions(X2P1, 2, 2, 10, budget=10**3)
    with pytest.raises(BudgetExceededError):
        count_solutions_brute(X2P1, 2, 2, 10, budget=10**4)


def test_budgets_bound_the_work_of_a_huge_s():
    # the hash count's budget covers its s - 1 passes, read before any runs
    with pytest.raises(BudgetExceededError):
        count_solutions(LINE, 10**9, 1, 1)
    assert count_solutions(LINE, 1000, 1, 1).J == 1
    # each pass costs _PASS_PAIRS pair terms, however small the histogram
    with pytest.raises(BudgetExceededError):
        count_solutions(LINE, 10**6, 1, 1)
    with pytest.raises(BudgetExceededError):
        count_solutions(LINE, 10**4, 1, 3)
    # the refusal states W plus the pass costs: keys 0, 1, 2 (|H| = 3) with
    # packed radix 2s + 1 give sum_t min(3^t, 2s + 1) 3 pairs over 9999
    # passes, and the counts, below 3^s < 2^(2s), are Python ints of at most
    # ceil(2s / 62) = 323 words, which W charges per pair
    s = 10**4
    work = 323 * sum(min(3**t, 2 * s + 1) * 3 for t in range(1, s))
    with pytest.raises(BudgetExceededError) as refusal:
        count_solutions(LINE, s, 1, 3)
    requested = work + (s - 1) * vinogradov._PASS_PAIRS
    assert (refusal.value.requested, refusal.value.budget) == (requested, 10**8)
    assert f"W = {work} " in str(refusal.value) and str(requested) in str(refusal.value)
    # the oracle's budget covers its pairs and its s-term tuple keys
    with pytest.raises(BudgetExceededError):
        count_solutions_brute(LINE, 10**9, 1, 1)
    with pytest.raises(BudgetExceededError):
        count_solutions_brute(LINE, 10**4, 1, 3)
    assert count_solutions_brute(LINE, 1000, 1, 1).J == 1


def test_int64_counts_charge_the_pairs_alone():
    # keys (n, n^2), n < 40, are 40 distinct keys: W = 40^2 + 40^3 pairs over
    # the two passes of s = 3, plus _PASS_PAIRS per pass; the counts stay in
    # int64, so no word width is charged
    work = 40**2 + 40**3 + 2 * vinogradov._PASS_PAIRS
    with pytest.raises(BudgetExceededError) as refusal:
        count_solutions(LINE, 3, 2, 40, budget=work - 1)
    assert refusal.value.requested == work
    assert count_solutions(LINE, 3, 2, 40, budget=work).J == \
        count_solutions(LINE, 3, 2, 40).J


def test_fit_growth_s1_slope_is_d():
    fit = fit_growth(LINE, 1, 2, (4, 8, 16, 32))
    assert fit.slope == pytest.approx(1.0, abs=1e-9)
    fit2 = fit_growth(X2P1, 1, 2, (2, 4, 8))
    assert fit2.slope == pytest.approx(2.0, abs=1e-9)


def test_fit_growth_parabola_slope_near_two():
    fit = fit_growth(LINE, 2, 2, (4, 8, 16, 32))
    assert 1.9 <= fit.slope <= 2.1
    assert fit.envelope_exponent == 2.0  # max(ds, 2ds - dk(k+1)/2) = max(2, 1)
    assert [p[0] for p in fit.points] == [4, 8, 16, 32]
    assert [p[1] for p in fit.points] == [28, 120, 496, 2016]


def test_envelope_exponent_formula():
    fit = fit_growth(X2P1, 2, 2, (2, 3, 4))
    assert fit.envelope_exponent == 4.0  # max(4, 8 - 6)


def test_fit_growth_input_validation():
    with pytest.raises(InvalidInputError):
        fit_growth(LINE, 2, 2, (4, 8))
    with pytest.raises(InvalidInputError):
        fit_growth(LINE, 2, 2, (8, 4, 2))


def test_rational_coefficient_minpoly_keys():
    # x^2 - 5/2 has no rational root; keys fall back to exact rationals
    poly = MinimalPolynomial.parse("-5/2,0")
    rec = count_solutions(poly, 2, 2, 3)
    brute = count_solutions_brute(poly, 2, 2, 3)
    assert rec.J == brute.J >= 3**4


@pytest.mark.parametrize("minpoly, s, k, N", [
    ("-5/2,0", 1, 3, 4), ("-5/2,0", 2, 3, 3), ("-5/2,0", 2, 2, 4), ("-5/2,0", 3, 2, 2),
    ("1/2,0", 2, 2, 4), ("1/2,0", 3, 2, 3), ("3/4,1/2", 2, 3, 4), ("-1/3,0,0", 2, 2, 3),
])
def test_rational_coefficient_minpoly_matches_brute(minpoly, s, k, N):
    # the integer keys scale alpha by the lcm D of the denominators; the brute
    # oracle keeps Fractions.  With D = 1 the last four cases would count
    # x^2 or x^3 instead and disagree with the oracle.
    poly = MinimalPolynomial.parse(minpoly)
    assert count_solutions(poly, s, k, N).J == count_solutions_brute(poly, s, k, N).J


@pytest.mark.parametrize("minpoly, N", [
    ("-2/1162261467,0,0", 8),   # 7 * D^2 = 7 * 3^38 passes 2^63
    ("-2/3486784401,0,0", 4),   # D^2 = 3^40 lies in [2^63, 2^64)
    ("-5/2,0", 6),
])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_scaled_keys_match_rational_keys(minpoly, N, k):
    # beta'^t = D^(t(d-1)) beta^t and alpha^i = gamma^i / D^i, so coordinate
    # i of beta'^t is D^(t(d-1) - i) times the rational oracle's coordinate
    poly = MinimalPolynomial.parse(minpoly)
    d = poly.degree
    D = math.lcm(*(c.denominator for c in poly.coeffs))
    columns = _key_columns(poly, k, N, False)
    for n, key in enumerate(_single_keys(poly, k, N, False)):
        expected = [D ** (t * (d - 1) - i) * key[(t - 1) * d + i]
                    for t in range(1, k + 1) for i in range(d)]
        assert [int(col[n]) for col in columns] == expected


def test_wide_scaled_keys_count_like_any_field_at_k1():
    # at k = 1 the keys are the scaled coordinates, a linear bijection, so
    # J = (sum_h r(h)^2)^d with r(h) the number of pairs in [0, 8) summing to h
    poly = MinimalPolynomial.parse("-2/1162261467,0,0")
    ones_squared = sum(min(h + 1, 15 - h) ** 2 for h in range(15))
    assert count_solutions(poly, 2, 1, 8).J == ones_squared**3
    assert count_solutions(poly, 2, 1, 8).J == count_solutions(X3M2, 2, 1, 8).J


def test_wide_keys_match_brute():
    # coordinates up to 19^15 > 2^62: the keys and codes are Python ints
    keys = _key_columns(LINE, 15, 20, False)
    assert keys[-1].dtype == object and max(keys[-1]) > 2**62
    J = count_solutions(LINE, 2, 15, 20).J
    assert J == count_solutions_brute(LINE, 2, 15, 20).J == 2 * 20**2 - 20


def test_count_does_not_depend_on_the_block_size(monkeypatch):
    cases = [(LINE, 3, 2, 8), (X2P1, 3, 2, 3), (X3M2, 2, 3, 3)]
    expected = [count_solutions(*case).J for case in cases]
    for block in (1, 300):  # one row of pairs per chunk, then a few
        monkeypatch.setattr(exact, "_BLOCK_BYTES", block)
        assert [count_solutions(*case).J for case in cases] == expected
