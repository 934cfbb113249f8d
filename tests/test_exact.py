from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemv.exact import (
    PhaseFraction,
    convolution_counts,
    extract_partials,
    fsum_rows,
    modulus_power,
    root_table,
    tree_sum,
    unit_root,
)

ULP = 2.0**-52


def test_unit_root_identity_cases():
    assert unit_root(Fraction(0)) == 1 + 0j
    assert unit_root(Fraction(1, 2)) == -1 + 0j
    assert unit_root(Fraction(1, 4)) == 1j
    assert unit_root(Fraction(3, 4)) == -1j


def test_unit_root_modulus_one():
    for num in range(97):
        z = unit_root(Fraction(num, 97))
        assert abs(abs(z) - 1.0) <= 4 * ULP


rationals = st.fractions(
    min_value=0, max_value=1, max_denominator=10**6
)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_unit_root_homomorphism(q1, q2):
    lhs = unit_root(q1) * unit_root(q2)
    rhs = unit_root((q1 + q2) % 1)
    assert abs(lhs - rhs) <= 4 * ULP


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, st.integers(min_value=-50, max_value=50))
def test_phase_fraction_arithmetic_exact(q1, q2, m):
    # oracle: integer arithmetic on numerators over the common denominator
    a = PhaseFraction(q1)
    b = PhaseFraction(q2)
    total = a + b
    den = q1.denominator * q2.denominator
    num = (q1.numerator * q2.denominator + q2.numerator * q1.denominator) % den
    assert total.value == Fraction(num, den)
    scaled = a * m
    assert scaled.value == Fraction((q1.numerator * m) % q1.denominator, q1.denominator)


def test_phase_fraction_range():
    assert PhaseFraction(Fraction(7, 4)).value == Fraction(3, 4)
    assert PhaseFraction(Fraction(-1, 4)).value == Fraction(3, 4)
    assert PhaseFraction(3).value == 0


def test_compensated_sum_trivial_cases():
    assert tree_sum([]) == 0j
    assert tree_sum([1, -1]) == 0j


def test_compensated_sum_roots_of_unity_cancel():
    # oracle: the full set of 8th roots of unity cancels symbolically
    values = [unit_root(Fraction(k, 8)) for k in range(8)]
    assert abs(tree_sum(values)) <= 1e-12


def test_tree_sum_matches_fsum():
    rng = np.random.default_rng(7)
    vals = rng.normal(size=5000)
    assert tree_sum(vals) == math.fsum(vals)


def test_tree_sum_permutation_invariance_large():
    rng = np.random.default_rng(99)
    theta = rng.random(10**6)
    vals = np.exp(2j * np.pi * theta)
    base = tree_sum(vals)
    for seed in (0, 1):
        perm = np.random.default_rng(seed).permutation(vals.size)
        other = tree_sum(vals[perm])
        assert abs(other - base) <= 1e-12 * abs(base)


def test_tree_sum_chunk_boundaries():
    # sizes straddling the width of the former fixed-shape tree
    for n in (0, 1, 1023, 1024, 1025, 3 * 1024 + 17):
        vals = np.arange(n, dtype=np.float64)
        assert tree_sum(vals) == pytest.approx(n * (n - 1) / 2.0, rel=1e-14, abs=1e-12)


def test_root_table_agrees_with_unit_root():
    table = root_table(360)
    for t in range(0, 360, 7):
        assert table[t] == pytest.approx(unit_root(Fraction(t, 360)), abs=1e-14)


def test_modulus_power_even_and_general():
    a2 = np.array([0.0, 1.0, 4.0, 2.25])
    assert np.allclose(modulus_power(a2, 4), a2**2)
    assert np.allclose(modulus_power(a2, 3), a2**1.5)
    assert modulus_power(np.array([0.0]), 2.5)[0] == 0.0


# --- the extraction sum against math.fsum -----------------------------------

SIZES = (0, 1, 1023, 1024, 1025, 3 * 1024 + 17)


def _mixed(rng, n):
    """Signed terms with exponents spread from 1e-30 to 1e30."""
    return rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30, size=n)


def _cancelling(rng, n):
    """Pairs that cancel exactly, plus a few small terms that survive."""
    half = rng.normal(size=n // 2) * 10.0 ** rng.uniform(-12, 12, size=n // 2)
    rest = rng.normal(size=n - 2 * (n // 2)) * 1e-20
    vals = np.concatenate([half, -half, rest])
    rng.shuffle(vals)
    return vals


def _power_like(rng, n):
    """Nonnegative |S|^r-like terms: |S|^2 spread over decades, raised to 5/2."""
    return (rng.random(n) * 10.0 ** rng.uniform(-8, 4, size=n)) ** 2.5


KINDS = (_mixed, _cancelling, _power_like)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
def test_tree_sum_equals_fsum_real(kind, n, seed):
    vals = kind(np.random.default_rng(seed), n)
    assert tree_sum(vals) == math.fsum(vals)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(KINDS), st.sampled_from(SIZES),
       st.integers(0, 2**32 - 1))
def test_tree_sum_equals_fsum_complex_part_by_part(kind_re, kind_im, n, seed):
    rng = np.random.default_rng(seed)
    vals = kind_re(rng, n) + 1j * kind_im(rng, n)
    total = tree_sum(vals)
    assert total.real == math.fsum(vals.real)
    assert total.imag == math.fsum(vals.imag)
    assert tree_sum(vals.tolist()) == total


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(SIZES[1:]), st.integers(0, 2**32 - 1))
def test_tree_sum_permutation_invariant(kind, n, seed):
    rng = np.random.default_rng(seed)
    vals = kind(rng, n)
    assert tree_sum(vals[rng.permutation(n)]) == tree_sum(vals)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(SIZES), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
def test_column_form_equals_fsum_per_column(kind, n, width, seed):
    cols = kind(np.random.default_rng(seed), n * width).reshape(n, width)
    sums = fsum_rows(extract_partials(np.array(cols, dtype=np.float64)))
    assert sums.shape == (width,)
    assert sums.tolist() == [math.fsum(cols[:, j]) for j in range(width)]


def test_partials_of_chunks_combine_to_the_whole():
    rng = np.random.default_rng(5)
    vals = _mixed(rng, 5000)
    for cuts in ((1000,), (1, 2, 4999), tuple(range(0, 5000, 7))):
        rows = np.concatenate([extract_partials(np.array(part, dtype=np.float64))
                               for part in np.split(vals, cuts)])
        assert fsum_rows(rows) == math.fsum(vals)
    block = vals.reshape(1000, 5)
    rows = np.concatenate([extract_partials(np.array(block[:600], dtype=np.float64)),
                           extract_partials(np.array(block[600:], dtype=np.float64))])
    assert fsum_rows(rows).tolist() == [math.fsum(block[:, j]) for j in range(5)]


def test_tree_sum_extreme_magnitudes_terminate():
    # the bare extraction loop never ends here: sigma would overflow
    assert tree_sum(np.array([1e308, 1e308, -1e308])) == 1e308
    assert tree_sum(np.array([1e308, 1e308])) == math.inf
    tiny = np.array([5e-324, 5e-324, -1e-320, 2.5e-310])
    assert tree_sum(tiny) == math.fsum(tiny)
    spread = _mixed(np.random.default_rng(3), 4000) * 10.0 ** np.linspace(-270, 270, 4000)
    assert tree_sum(spread) == math.fsum(spread)


def test_tree_sum_non_finite_propagates_like_numpy():
    assert math.isnan(tree_sum(np.array([1.0, math.nan, 2.0])))
    assert tree_sum(np.array([1.0, math.inf])) == math.inf
    assert tree_sum(np.array([-math.inf, 3.0])) == -math.inf
    assert math.isnan(tree_sum(np.array([math.inf, -math.inf])))
    cols = np.array([[1.0, math.nan, 1e-300], [2.0, 1.0, 1e300]])
    sums = fsum_rows(extract_partials(np.array(cols, dtype=np.float64)))
    assert sums[0] == 3.0 and math.isnan(sums[1]) and sums[2] == 1e300
    # an infinite chunk beside a finite chunk whose total overflows
    rows = np.concatenate([extract_partials(np.array([math.inf, 1.0])),
                           extract_partials(np.array([1e308, 1e308]))])
    assert fsum_rows(rows) == math.inf


# --- the exact convolution count ---------------------------------------------

def _dict_convolution_count(keys, weights, s, moduli=None):
    """Oracle: sum_h |H^{*s}(h)|^2 by a dict loop over Python-int key tuples."""
    def fold(key):
        return tuple(x % m for x, m in zip(key, moduli)) if moduli else tuple(key)

    hist = Counter()
    for key, w in zip(keys, weights):
        hist[fold(key)] += w
    acc = dict(hist)
    for _ in range(s - 1):
        nxt = Counter()
        for ka, wa in acc.items():
            for kb, wb in hist.items():
                nxt[fold(x + y for x, y in zip(ka, kb))] += wa * wb
        acc = nxt
    return sum(w.real**2 + w.imag**2 if isinstance(w, complex) else w * w
               for w in acc.values())


@st.composite
def _convolution_case(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=10))
    coord = st.integers(min_value=-6, max_value=6)
    row = st.lists(coord, min_size=k, max_size=k)
    keys = draw(st.lists(row, min_size=n, max_size=n))
    part = st.integers(min_value=-2, max_value=2)
    if draw(st.booleans()):
        weights = draw(st.lists(st.builds(complex, part, part), min_size=n, max_size=n))
    else:
        weights = draw(st.lists(part, min_size=n, max_size=n))
    moduli = draw(st.none() | st.lists(st.integers(min_value=1, max_value=7),
                                       min_size=k, max_size=k))
    return k, keys, weights, draw(st.integers(min_value=1, max_value=4)), moduli


@settings(max_examples=200, deadline=None)
@given(_convolution_case())
def test_convolution_counts_match_dict_loop(case):
    k, keys, weights, s, moduli = case
    axes = np.array(keys, dtype=np.int64).reshape(len(keys), k).T
    got = convolution_counts(axes, np.array(weights), s, moduli)
    # complex oracle values are small Gaussian integers, exact in floats
    assert got == _dict_convolution_count(keys, weights, s, moduli)


def test_convolution_counts_past_int64():
    # keys past 2^62 (Python-int codes), radix products past 2^62 (two
    # words), and weights whose powers pass int64
    wide = [[n**15] for n in range(6)]
    assert convolution_counts(np.array(wide, dtype=object).T, [1] * 6, 2) == \
        _dict_convolution_count(wide, [1] * 6, 2)
    split = [[n * 2**40, n**3 * 2**30] for n in range(5)]
    assert convolution_counts(np.array(split).T, [1, 2, 1, 3, 1], 3) == \
        _dict_convolution_count(split, [1, 2, 1, 3, 1], 3)
    heavy = [2**40, 3, -(2**41)]
    assert convolution_counts([[0, 1, 3]], heavy, 3, [4]) == \
        _dict_convolution_count([[0], [1], [3]], heavy, 3, [4])
