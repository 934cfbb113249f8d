from __future__ import annotations

import time

import pytest

from sparsemv.errors import InvalidInputError, UnsupportedPrimeError
from sparsemv.padic import (
    HenselRoot,
    ScaleSpec,
    hensel_sqrt_minus_one,
    is_prime,
)


def test_is_prime_small_and_large():
    primes = [2, 3, 5, 7, 13, 97, 7919, 2**31 - 1]
    composites = [0, 1, 4, 9, 91, 561, 2**31, 7919 * 7927]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_scale_spec():
    scale = ScaleSpec(p=3, K=4)
    assert scale.N == 81
    with pytest.raises(InvalidInputError):
        ScaleSpec(p=6, K=1)
    with pytest.raises(InvalidInputError):
        ScaleSpec(p=5, K=0)


def test_hensel_examples():
    assert hensel_sqrt_minus_one(5, 1).xi == 2
    assert hensel_sqrt_minus_one(5, 2).xi == 7
    assert hensel_sqrt_minus_one(13, 1).xi == 5


def test_hensel_exactness():
    for p in (5, 13, 17, 29):
        for K in range(1, 13):
            root = hensel_sqrt_minus_one(p, K)
            assert (root.xi**2 + 1) % p**K == 0


def test_hensel_lift_coherence():
    for p in (5, 13, 17):
        top = hensel_sqrt_minus_one(p, 12)
        for K in range(1, 13):
            assert top.xi % p**K == hensel_sqrt_minus_one(p, K).xi


def test_hensel_base_root_matches_linear_search():
    # oracle: the smaller root of x^2 + 1 found by trying every residue
    for p in range(5, 5000, 4):
        if not is_prime(p):
            continue
        smaller = next(x for x in range(2, p - 1) if (x * x + 1) % p == 0)
        assert hensel_sqrt_minus_one(p, 1).xi == smaller


def test_hensel_large_prime_is_fast():
    start = time.perf_counter()
    root = hensel_sqrt_minus_one(1000000009, 2)
    assert time.perf_counter() - start < 1.0
    assert (root.xi**2 + 1) % 1000000009**2 == 0
    assert root.xi % 1000000009 <= 1000000009 // 2


def test_hensel_rejects_bad_primes():
    with pytest.raises(UnsupportedPrimeError):
        hensel_sqrt_minus_one(7, 2)
    with pytest.raises(UnsupportedPrimeError):
        hensel_sqrt_minus_one(3, 1)
    with pytest.raises(InvalidInputError):
        hensel_sqrt_minus_one(10, 1)


def test_hensel_root_validation_and_digits():
    root = HenselRoot(p=5, K=3, xi=57)  # 57^2 + 1 = 3250 = 26 * 125
    assert root.digits() == [2, 1, 2]
    with pytest.raises(InvalidInputError):
        HenselRoot(p=5, K=3, xi=58)
