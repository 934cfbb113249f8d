from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

from sparsemv.counterexample import (
    CounterexampleFamily,
    growth_table,
    log_slope,
    single_norm,
    sum_norm,
    verify_paraboloid_membership,
)
from sparsemv.errors import BudgetExceededError, InvalidInputError
from sparsemv.padic import HenselRoot, ScaleSpec, hensel_sqrt_minus_one


def _family(p, k, r):
    return CounterexampleFamily.build(p, k, r)


def test_single_norm_values():
    assert single_norm(_family(5, 1, 6.0)) == pytest.approx(5.0)
    assert single_norm(_family(5, 1, 2.0)) == pytest.approx(125.0)
    assert single_norm(_family(13, 1, 3.0)) == pytest.approx(169.0)


def test_family_validation():
    scale = ScaleSpec(p=5, K=1)
    xi = hensel_sqrt_minus_one(5, 2)
    with pytest.raises(InvalidInputError):
        CounterexampleFamily(scale=scale, xi=hensel_sqrt_minus_one(5, 1), r=4.0)
    with pytest.raises(InvalidInputError):
        CounterexampleFamily(scale=scale, xi=xi, r=1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            CounterexampleFamily(scale=scale, xi=xi, r=bad)


def test_sum_norm_r2_orthogonality():
    # distinct characters on the ball are orthogonal: ||sum f||_2 = N^(7/2)
    for p, k in ((5, 1), (5, 2), (13, 1)):
        fam = _family(p, k, 2.0)
        assert sum_norm(fam) == pytest.approx(fam.N**3.5, rel=1e-9)


def test_sum_norm_w0_lower_bound():
    # the w = 0 residue class alone contributes N^(r+4)
    for r in (3.0, 4.0, 6.0):
        fam = _family(5, 2, r)
        assert sum_norm(fam) >= fam.N ** (1.0 + 4.0 / r)


def test_sum_norm_direct_oracle_n5():
    # direct finite-sum evaluation at N = 5: 25 inner sums of length 5
    fam = _family(5, 1, 4.0)
    N, M = 5, 25
    total = 0.0
    for w in range(M):
        inner = sum(np.exp(2j * np.pi * (w * n % M) / M) for n in range(N))
        total += abs(inner) ** 4
    expected = (N**4 * total) ** 0.25
    assert sum_norm(fam) == pytest.approx(expected, rel=1e-12)


def _sum_norm_by_loop(fam):
    """The O(N^3) residue loop that sum_norm replaced: one root-table lookup per
    (w, n), accumulated over n, then the same |S|^r reduction."""
    N = fam.N
    M = N * N
    table = np.exp(2j * np.pi * (np.arange(M) / M))
    w = np.arange(M, dtype=np.int64)
    S = np.zeros(M, dtype=np.complex128)
    for n in range(N):
        S += table[(w * n) % M]
    total = math.fsum(np.abs(S) ** fam.r)
    return (float(N) ** 4 * total) ** (1.0 / fam.r)


# p = 13, k = 3 is left out: N^3 = 1.1e10 loop terms
@pytest.mark.parametrize("p, k", [(5, 1), (5, 2), (5, 3), (13, 1), (13, 2)])
@pytest.mark.parametrize("r", [2.0, 6.0])
def test_sum_norm_transform_matches_residue_loop(p, k, r):
    fam = _family(p, k, r)
    assert sum_norm(fam) == pytest.approx(_sum_norm_by_loop(fam), rel=1e-12)
    if r == 2.0:
        [row] = growth_table(p, [k], r)
        assert row["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_sum_norm_budget_counts_transform_length():
    fam = _family(5, 2, 4.0)  # N = 25, transform length N^2 = 625
    assert sum_norm(fam, budget=625) > 0
    with pytest.raises(BudgetExceededError):
        sum_norm(fam, budget=624)


def test_sum_norm_matches_two_dimensional_residue_enumeration():
    # (u1, u2) -> u1 xi + u2 is exactly N^2-to-1 onto Z/N^2, so the plane
    # enumeration reproduces the line reduction
    fam = _family(5, 1, 4.0)
    N, M = 5, 25
    xi = fam.xi.xi
    total = 0.0
    for u1, u2 in product(range(M), repeat=2):
        t = (u1 * xi + u2) % M
        inner = sum(np.exp(2j * np.pi * (t * n % M) / M) for n in range(N))
        total += abs(inner) ** 4
    plane_value = (N**6 * total / M**2) ** 0.25
    assert sum_norm(fam) == pytest.approx(plane_value, rel=1e-12)


def test_normalized_average_monotone_in_r():
    # Holder on the fixed measure space: measure-normalized L^r averages rise
    for p, k in ((5, 1), (5, 2)):
        values = []
        for r in (2.0, 4.0, 6.0):
            fam = _family(p, k, r)
            values.append(sum_norm(fam) / fam.N ** (6.0 / r))
        assert values[0] <= values[1] * (1 + 1e-12)
        assert values[1] <= values[2] * (1 + 1e-12)


def test_decoupling_ratio_r2_is_one():
    # the ratio column of the counterexample command's rows
    for p, ks in ((5, (1, 2)), (13, (1,))):
        for row in growth_table(p, ks, 2.0):
            assert row["ratio"] == pytest.approx(1.0, rel=1e-9)


def test_decoupling_ratio_lower_bound():
    for r in (4.0, 6.0):
        for row in growth_table(5, (1, 2), r):
            assert row["ratio"] >= row["N"] ** (0.5 - 2.0 / r) * (1 - 1e-12)


def test_paraboloid_membership():
    assert verify_paraboloid_membership(_family(5, 1, 4.0))
    assert verify_paraboloid_membership(_family(13, 2, 4.0))


def test_broken_lift_detected():
    # xi + 1 is not a square root of -1 mod N^2, and membership fails at n = 1
    fam = _family(5, 1, 4.0)
    good = fam.xi.xi
    corrupt = object.__new__(HenselRoot)
    object.__setattr__(corrupt, "p", 5)
    object.__setattr__(corrupt, "K", 2)
    object.__setattr__(corrupt, "xi", good + 1)
    broken = object.__new__(CounterexampleFamily)
    object.__setattr__(broken, "scale", fam.scale)
    object.__setattr__(broken, "xi", corrupt)
    object.__setattr__(broken, "r", 4.0)
    assert not verify_paraboloid_membership(broken)
    assert ((1 * (good + 1)) ** 2 + 1) % 25 != 0


def test_growth_table_and_slopes():
    rows = growth_table(5, (1, 2, 3), 6.0)
    assert [row["N"] for row in rows] == [5, 25, 125]
    Ns = [row["N"] for row in rows]
    slope_sum = log_slope(Ns, [row["sum_norm"] for row in rows])
    slope_ratio = log_slope(Ns, [row["ratio"] for row in rows])
    assert abs(slope_sum - (1 + 5 / 6)) < 0.2
    assert abs(slope_ratio - (0.5 - 1 / 6)) < 0.2
    for row in rows:
        assert row["single_norm"] == pytest.approx(row["N"] ** 1.0)  # N^(6/6)
        assert row["log_ratio"] == pytest.approx(math.log(row["ratio"]))
