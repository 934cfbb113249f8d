from __future__ import annotations

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsemv.exact as exact
from sparsemv.exact import (
    certified,
    convolution_counts,
    extract_once,
    extract_partials,
    fsum_rows,
    modulus_power,
    root_table,
    tree_sum,
)

ULP = 2.0**-52


def _expj(q: Fraction) -> complex:
    """e(q) = exp(2 pi i q) by mpmath at 100 bits, rounded to a complex."""
    with mpmath.workprec(100):
        return complex(mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator))


def test_compensated_sum_trivial_cases():
    assert tree_sum([]) == 0j
    assert tree_sum([1, -1]) == 0j


def test_compensated_sum_roots_of_unity_cancel():
    # oracle: the full set of 8th roots of unity cancels symbolically
    values = [_expj(Fraction(k, 8)) for k in range(8)]
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
        assert table[t] == pytest.approx(_expj(Fraction(t, 360)), abs=1e-14)


def test_modulus_power_even_and_general():
    a2 = np.array([0.0, 1.0, 4.0, 2.25])
    assert np.allclose(modulus_power(a2, 4), a2**2)
    assert np.allclose(modulus_power(a2, 3), a2**1.5)
    assert modulus_power(np.array([0.0]), 2.5)[0] == 0.0


@pytest.mark.parametrize("r", [3, 5, 7, 9])
def test_odd_modulus_powers_against_mpmath(r):
    # |z|^r = |z|^(r-1) sqrt(|z|^2): within 2 ulps of the 120-bit value, where
    # exp and log are off by up to 1e-15 at r = 3
    rng = np.random.default_rng(r)
    a2 = np.concatenate([10.0 ** rng.uniform(-60, 60, 2000), rng.uniform(0, 4, 1000)])
    got = modulus_power(a2, float(r))
    worst = 0.0
    with mpmath.workprec(120):
        for x, y in zip(a2.tolist(), got.tolist()):
            exact_power = mpmath.mpf(x) ** (mpmath.mpf(r) / 2)
            worst = max(worst, float(abs(mpmath.mpf(y) / exact_power - 1)))
    assert worst <= 4.5e-16


@pytest.mark.parametrize("r", [2.0, 4.0, 8.0, 3.0, 5.0, 9.0, 2.5, 3.7])
def test_modulus_power_into_a_buffer_gives_the_same_bits(r):
    # the GEMM path writes |S|^r into its block buffer, often over |S|^2
    # itself, and takes odd roots in a scratch block
    rng = np.random.default_rng(11)
    a2 = np.concatenate([[0.0, 5e-324, 1e-300, 1e300, np.inf, np.nan],
                         10.0 ** rng.uniform(-40, 40, 200)]).reshape(2, -1)
    with np.errstate(over="ignore"):
        want = modulus_power(a2, r)
        out, work = np.empty_like(a2), np.empty_like(a2)
        assert exact._power_into(a2, r, out, work) is out
        in_place = a2.copy()
        exact._power_into(in_place, r, in_place, work)
        strided = np.empty((2, 2 * a2.shape[1]))
        strided[:, 0::2] = a2
        from_view = exact._power_into(strided[:, 0::2], r, np.empty_like(a2))
    for got in (out, in_place, from_view):
        assert got.tobytes() == want.tobytes()
    assert want[0, 0] == 0.0 and want[0, 4] == np.inf and np.isnan(want[0, 5])


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


# ties with 1.0 and its neighbours, signed zeros, subnormals, huge and infinite
EDGE_TERMS = (1.0, -1.0, 1.0 - 2.0**-53, 2.0**-53, -2.0**-53, 3 * 2.0**-53, 2.0**-54,
              0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1e308, -1e308,
              math.inf, -math.inf)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_TERMS), st.floats(allow_nan=False)),
                max_size=40))
def test_short_sums_are_math_fsum(terms):
    vals = np.array(terms, dtype=np.float64)
    assert len(vals) < exact._FSUM_TERMS  # the one-call branch
    got = tree_sum(vals)
    try:
        want = math.fsum(terms)
    except (OverflowError, ValueError):  # fsum gives up on a partial sum or inf - inf
        special = [t for t in terms if not math.isfinite(t)]
        if special:  # numpy's value
            want = sum(special)
        else:  # the exact sum, correctly rounded
            total = sum(map(Fraction, terms))
            try:
                want = float(total)
            except OverflowError:
                want = math.inf if total > 0 else -math.inf
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


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


# --- the vectorised fsum and the one-round certificate -----------------------

def _fsum_oracle(col):
    """math.fsum; where it raises, numpy's value for non-finite terms and the
    correctly rounded exact sum (infinite past the range) for finite ones."""
    try:
        return math.fsum(col)
    except (OverflowError, ValueError):
        special = [t for t in col if not math.isfinite(t)]
        if special:
            return sum(special)
        exact_sum = sum(map(Fraction, col))
        try:
            return float(exact_sum)
        except OverflowError:
            return math.inf if exact_sum > 0 else -math.inf


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


_EDGE_TERMS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022), 1.0, -1.0, 2.0**-53,
    -(2.0**-53), 1e16, -1e16, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan,
])
_TERMS = st.one_of(st.floats(), _EDGE_TERMS, st.floats(-1e-300, 1e-300))


@st.composite
def _near_tie(draw, k):
    """a, half an ulp of a, a nudge of one ulp of that half or none, in any
    order among zeros: the exact sum is a rounding tie or just beside one."""
    a = draw(st.floats(2.0**-1000, 2.0**1000)) * draw(st.sampled_from([1.0, -1.0]))
    half = math.ulp(a) / 2 * draw(st.sampled_from([1.0, -1.0]))
    nudge = math.ulp(half) * draw(st.sampled_from([0.0, 1.0, -1.0]))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=k - 3, max_size=k - 3))
    return draw(st.permutations([a, half, nudge] + zeros))


@st.composite
def _columns(draw):
    k = draw(st.one_of(st.integers(1, 6), st.integers(7, 2 * exact._VECTOR_ROWS)))
    column = st.lists(_TERMS, min_size=k, max_size=k)
    if k >= 3:
        column = st.one_of(column, _near_tie(k))
    return draw(st.lists(column, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(_columns())
def test_fsum_rows_matches_fsum_per_column(columns):
    sums = fsum_rows(np.array(columns, dtype=np.float64).T)
    assert sums.shape == (len(columns),)
    for got, col in zip(sums.tolist(), columns):
        assert _same_float(got, _fsum_oracle(col)), col


@st.composite
def _long_column(draw, k):
    """k seeded terms of one kind: mixed signs over 80 binades, terms >= 0,
    signed zeros, ones of one sign with a rounding tie of their total or a
    total just beside one, or a nan or inf among normal terms."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "non-negative", "zero", "tie", "special"]))
    if kind == "mixed":
        return np.ldexp(rng.standard_normal(k), rng.integers(-40, 40, k)).tolist()
    if kind == "non-negative":
        return rng.random(k).tolist()
    if kind == "zero":
        return rng.choice([0.0, -0.0], k).tolist()
    if kind == "special":
        x = rng.standard_normal(k)
        count = draw(st.integers(1, 2))
        x[rng.integers(0, k, count)] = rng.choice([math.nan, math.inf, -math.inf], count)
        return x.tolist()
    sign = rng.choice([1.0, -1.0])
    x = np.full(k, sign)
    i, j = rng.choice(k, 2, replace=False)
    x[i] += sign * rng.choice([1.0, -1.0]) * math.ulp(float(k)) / 2  # a tie ...
    x[j] += rng.choice([0.0, 0.0, ULP, -ULP])  # ... or beside one
    return x.tolist()


@st.composite
def _sum_columns(draw):
    k = draw(st.one_of(st.integers(1, 16), st.sampled_from([exact._FSUM_TERMS - 1,
                                                            exact._FSUM_TERMS])))
    column = st.lists(_TERMS, min_size=k, max_size=k)
    if k >= 3:
        column = st.one_of(column, _near_tie(k))
    if k > 16:
        column = _long_column(k)
    count = draw(st.one_of(st.sampled_from([1, exact._FEW_COLUMNS, exact._FEW_COLUMNS + 1]),
                           st.integers(1, 12)))
    return draw(st.lists(column, min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(_sum_columns(), st.booleans())
def test_column_sums_match_fsum_per_column(columns, flat):
    # one extraction round, its certificate and full extraction of the
    # open columns: math.fsum per column on few rows and many, on both
    # sides of the short sum's 512 terms and of the few columns' 4; a
    # single column also as a 1-d array
    x = np.array(columns, dtype=np.float64).T
    if flat and len(columns) == 1:
        x = x[:, 0]
    before = x.copy()
    sums = exact._column_sums(x)
    np.testing.assert_array_equal(x, before)  # only read
    if x.ndim == 1:
        assert isinstance(sums, float)
        sums = np.array([sums])
    assert sums.shape == (len(columns),)
    for got, col in zip(sums.tolist(), columns):
        assert _same_float(got, _fsum_oracle(col)), col


def test_fsum_rows_edge_columns():
    columns = [
        [1e-16, 1.0, 1e16],  # the half-even fix rounds up to ...02
        [1.0, 2.0**-53, 2.0**-106],  # a tie pushed up by the partial below
        [1.0, 2.0**-53, 0.0, -0.0, -(2.0**-106)],  # ... and down, past zeros
        [-0.0, -0.0, -0.0],
        [1.0, -1.0, 0.0],
        [1e308, 1e308, -1e308],  # fsum overflows a partial; the sum fits
        [1.7976931348623157e308, 1e292, 0.0],  # the total rounds past the range
        [math.inf, 1.0, 2.0],
        [math.inf, -math.inf, 0.0],
        [math.nan, 1.0, 0.0],
        [5e-324, 5e-324, -5e-324],
    ]
    columns = [col + [0.0] * (5 - len(col)) for col in columns]
    sums = fsum_rows(np.array(columns).T)
    for got, col in zip(sums.tolist(), columns):
        assert _same_float(got, _fsum_oracle(col)), col
    assert fsum_rows(np.zeros((0, 3))).tolist() == [0.0, 0.0, 0.0]


@st.composite
def _adversarial_block(draw):
    """Terms whose remainders after one round are as large as they get, at a
    scale anywhere in the range.  Either every term is a multiple of half an
    ulp of sigma plus just under half of that, or one term sets sigma and
    all others lie below half its ulp with full mantissas, so the whole of
    them is remainder and its float sum rounds at every step."""
    n = draw(st.sampled_from([2, 3, 7, 64, 1000, 4096]))
    width = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.integers(-1060, 1000 - n.bit_length()))
    log_m = (n + 1).bit_length()
    half_ulp = 2.0 ** (log_m - 53)  # ulp(sigma) / 2 for mu just below 1
    sign = rng.choice([1.0, -1.0], (n, width)) if draw(st.booleans()) else 1.0
    if draw(st.booleans()):
        big = np.floor(rng.random((n, width)) / half_ulp) * half_ulp
        x = big + half_ulp * rng.uniform(0.49, 0.5, (n, width))
    else:
        x = half_ulp * rng.uniform(0.5, 1.0, (n, width))
        x[0] = 0.75
    return np.ldexp(sign * x, scale)


@settings(max_examples=40, deadline=None)
@given(_adversarial_block())
def test_one_round_tail_within_bound(x):
    terms = [[Fraction(v) for v in col] for col in x.T.tolist()]
    rows, bound, rest = extract_once(x.copy())
    assert rows.shape == (2, x.shape[1]) and rest.shape == x.shape
    for j, col in enumerate(terms):
        rest_sum = sum(map(Fraction, rest[:, j].tolist()))
        hi, tail, e = float(rows[0, j]), float(rows[1, j]), float(bound[j])
        assert Fraction(hi) + rest_sum == sum(col)  # the extracted part is exact
        assert abs(Fraction(tail) - rest_sum) <= Fraction(e)
        assert e == 0.0 or math.frexp(e)[0] == 0.5  # a power of two


def test_one_round_bounds_of_zero_and_whole_columns():
    x = np.array([[0.0, 1e308, math.nan, 1.0], [-0.0, 1e308, 1.0, 2.0]])
    rows, bound, rest = extract_once(x.copy())
    assert bound[0] == 0.0 and rows[:, 0].tolist() == [0.0, 0.0]
    assert bound[1] == math.inf and bound[2] == math.inf
    assert rows[0, 1] == 0.0 and rest[:, 1].tolist() == [1e308, 1e308]
    assert rows[:, 3].tolist() == [3.0, 0.0] and 0.0 < bound[3] < 2.0**-90


@st.composite
def _non_negative_block(draw):
    """A finite block of terms >= 0 whose columns lie up to 2^70 below the
    block's maximum, some of them zero, with full mantissas or few bits."""
    n = draw(st.sampled_from([1, 2, 3, 9, 64, 1000]))
    width = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.integers(-1070, 1000 - n.bit_length()))
    x = rng.random((n, width))
    if draw(st.booleans()):
        x = np.round(x * 8) / 8  # few bits: exact sums, ties among them
    x = np.ldexp(x, top - rng.integers(0, 71, width))
    x[:, rng.random(width) < 0.2] = 0.0
    return x


@settings(max_examples=60, deadline=None)
@given(_non_negative_block())
def test_one_round_on_a_non_negative_block(x):
    # one sigma for the block: the extraction is exact and the tail within
    # a power-of-two bound, 0 exactly on the zero columns
    rows, bound, rest = extract_once(x.copy())
    assert rows.shape == (2, x.shape[1]) and rest.shape == x.shape
    for j, col in enumerate(x.T.tolist()):
        rest_sum = sum(map(Fraction, rest[:, j].tolist()))
        hi, tail, e = float(rows[0, j]), float(rows[1, j]), float(bound[j])
        assert Fraction(hi) + rest_sum == sum(map(Fraction, col))
        assert abs(Fraction(tail) - rest_sum) <= Fraction(e)
        assert e == 0.0 or math.frexp(e)[0] == 0.5
        if not any(col):
            assert e == hi == tail == 0.0
    assert len(set(bound[bound != 0].tolist())) <= 1  # one E for the block
    sums = exact._column_sums(x)
    assert sums.tolist() == [math.fsum(col) for col in x.T.tolist()]


def test_one_round_fast_path_and_per_column_fallbacks():
    # six columns over 1000 rows: random terms below 1, a zero column, a
    # column at 2^-60 of the block's maximum, and two columns whose exact
    # totals are rounding ties, 999 + u/2 (rounded down to even) and 1001 +
    # 3u/2 (rounded up to even), u the ulp of both
    rng = np.random.default_rng(91)
    x = np.empty((1000, 6))
    x[:, 0] = rng.random(1000)
    x[:, 1] = 0.0
    x[:, 2] = np.ldexp(rng.random(1000), -60)
    x[:, 3] = 1.0
    x[0, 3] = math.ulp(1000.0) / 2
    x[:, 4] = 1.0
    x[0, 4] = 2.0 + math.ulp(1001.0) * 1.5
    x[:, 5] = rng.random(1000)
    expected = [math.fsum(col) for col in x.T.tolist()]
    assert expected[3:5] == [999.0, 1001.0 + 2 * math.ulp(1001.0)]
    rows, bound, _ = extract_once(x.copy())
    E = bound[0]
    assert bound.tolist() == [E, 0.0, E, E, E, E]  # one E, 0 on the zero column
    # the small column and the ties are left open, and fall back
    assert certified(rows, bound)[1].tolist() == [True, True, False, False, False, True]
    assert exact._column_sums(x).tolist() == expected
    for j in range(6):
        assert tree_sum(x[:, j]) == expected[j]
    # one negative term, or a nan: every column takes its own sigma
    for bad in (-(2.0**-70), math.nan):
        y = x.copy()
        y[7, 0] = bad
        rows, bound, rest = extract_once(y.copy())
        per_column = np.array([extract_once(y[:, [j]].copy())[1][0] if j else bound[0]
                               for j in range(6)])
        assert bound[1] == 0.0 and bound[2] < 2.0**-50 * E
        np.testing.assert_array_equal(bound, per_column)
        sums = exact._column_sums(y)
        assert sums[1:].tolist() == expected[1:]
        if math.isnan(bad):
            assert math.isnan(sums[0])
        else:
            assert sums[0] == math.fsum(y[:, 0].tolist())


def test_certified_needs_both_ends_to_round_alike():
    partials = np.array([[3.0, 3.0], [2.0**-52, 2.0**-53]])
    sums, ok = certified(partials, np.array([2.0**-60, 2.0**-60]))
    assert ok.tolist() == [False, True]  # 3 + 2^-52 is a tie, 3 + 2^-53 is not
    assert sums[1] == 3.0


def _counting_fallback(monkeypatch):
    calls = []
    original = exact.extract_partials

    def counting(x):
        calls.append(len(x))
        return original(x)

    monkeypatch.setattr(exact, "extract_partials", counting)
    return calls


def test_tree_sum_falls_back_on_a_near_tie(monkeypatch):
    calls = _counting_fallback(monkeypatch)
    # 100000 - 2^-37 is a tie halfway between 100000 and its lower neighbour
    vals = np.ones(100000)
    vals[12345] = 1.0 - 2.0**-37
    assert tree_sum(vals) == math.fsum(vals) == 100000.0
    assert calls == [100000]  # full extraction ran on a copy of the terms
    vals[12345] = 1.0 - 2.0**-36  # no tie: one round settles it
    assert tree_sum(vals) == math.fsum(vals) == 100000.0 - 2.0**-36
    assert calls == [100000]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(SIZES), st.integers(0, 2**32 - 1))
def test_tree_sum_falls_back_when_the_bound_is_huge(kind, n, seed):
    vals = kind(np.random.default_rng(seed), n)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_fallback(mp)
        original = exact.extract_once

        def inflated(x, **kw):
            rows, bound, rest = original(x, **kw)
            return rows, bound + 2.0**600, rest

        mp.setattr(exact, "extract_once", inflated)
        assert tree_sum(vals) == math.fsum(vals)
        # sums below the crossover are one math.fsum call: no extraction
        assert calls == ([n] if n >= exact._FSUM_TERMS else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_blocked_sums_equal_fsum_and_fall_back_on_a_tie(threads):
    # 5000 rows in eight blocks: random magnitudes over 80 binades, signs
    # that cancel, and a column whose exact total 100000 - 2^-37 is a tie
    # halfway between two doubles, which no one-round bound certifies
    rng = np.random.default_rng(89)
    x = np.empty((5000, 4))
    x[:, 0] = rng.random(5000)
    x[:, 1] = np.ldexp(rng.random(5000), rng.integers(-40, 40, 5000))
    x[:, 2] = rng.standard_normal(5000) * 1e10
    x[:, 3] = 20.0
    x[1234, 3] = 20.0 - 2.0**-37
    blocks = [(lo, min(lo + 700, 5000)) for lo in range(0, 5000, 700)]
    for columns, rounds in ((3, 1), (4, 2)):
        calls = []

        def terms(block, buf):
            lo, hi = block
            calls.append(block)
            buf[0, :hi - lo] = x[lo:hi, :columns]
            return buf[0, :hi - lo], buf[1, :hi - lo]

        sums = exact._blocked_sums(blocks, terms,
                                   lambda: np.empty((2, 700, columns)), threads)
        assert sums.tolist() == [math.fsum(col) for col in x[:, :columns].T.tolist()]
        # the tie reruns every block with full extraction
        assert sorted(calls) == sorted(blocks * rounds)
    assert sums[3] == 100000.0  # the tie rounds to even


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


def test_convolution_work_is_its_sum_in_few_steps_for_any_s():
    for n in range(6):
        for s in range(6):
            for cap in (1, 5, 27, 10**9):
                assert exact._convolution_work(n, s, cap) == \
                    sum(min(n**t, cap) * n for t in range(1, s))
    # r = 1e308 is an even exponent: s = 5e307 passes, summed in closed form
    s = 5 * 10**307
    assert exact._convolution_work(3, s, 27) == 9 + 27 + 81 * (s - 3)
    assert exact._convolution_work(1, s, 27) == s - 1


def test_convolution_chunks_count_the_offset_columns(monkeypatch):
    # 50 keys with 64 complex columns each: one pass forms 2500 pairs of
    # 1 KB, so at a 256 KB block the pairs must be split into chunks
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 1 << 18)
    rng = np.random.default_rng(5)
    weights = rng.standard_normal((50, 64)) + 1j * rng.standard_normal((50, 64))
    tracemalloc.start()
    try:
        G = exact.convolution_power([np.arange(50)], [weights], 2)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * exact._BLOCK_BYTES  # 3.5 blocks measured; 20 in one chunk
    for j in range(64):  # keys 0..49 summed in pairs: a plain convolution
        np.testing.assert_allclose(G[:, j], np.convolve(weights[:, j], weights[:, j]),
                                   rtol=1e-12, atol=1e-12)


def test_python_int_weights_chunk_by_their_size(monkeypatch):
    # 400 keys 0..399 with weights near 2^70: each of the 80200 pair terms
    # of the first pass holds a Python int of about 140 bits, several times
    # the 8 bytes of its pointer, so chunks are sized by the ints' bytes
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 1 << 18)
    rng = np.random.default_rng(6)
    weights = np.array([(1 << 70) + int(x) for x in rng.integers(0, 1000, 400)],
                       dtype=object)
    tracemalloc.start()
    try:
        G = exact.convolution_power([np.arange(400)], [weights], 2)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * exact._BLOCK_BYTES  # 1.7 blocks measured; 4 sized by pointers
    assert G.tolist() == np.convolve(weights, weights).tolist()


def _sorted_rows(monkeypatch) -> list[int]:
    """Wrap exact._sort_reduce: the rows of each call that is not a merge of
    pieces, that is the histogram's first and every pass chunk."""
    rows = []
    sort_reduce, concat_reduce = exact._sort_reduce, exact._concat_reduce

    def counting(words, parts):
        rows.append(len(parts[0]))
        return sort_reduce(words, parts)

    def merging(pieces):
        with mock.patch.object(exact, "_sort_reduce", sort_reduce):
            return concat_reduce(pieces)

    monkeypatch.setattr(exact, "_sort_reduce", counting)
    monkeypatch.setattr(exact, "_concat_reduce", merging)
    return rows


@st.composite
def _segmented_part(draw):
    """A part of float64, complex128 or int64 rows with 1, 2 or 8192
    columns, a row order and segment starts, segments of 1 to 10 rows."""
    dtype = draw(st.sampled_from([np.float64, np.complex128, np.int64]))
    columns = draw(st.sampled_from([1, 2, 8192]))
    lengths = draw(st.lists(st.integers(1, 10), min_size=1,
                            max_size=4 if columns == 8192 else 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    if dtype is np.int64:
        part = rng.integers(-2**62, 2**62, (n, columns))  # sums wrap around
    else:
        # magnitudes over 60 binades, so that the order of the adds shows
        part = np.ldexp(rng.standard_normal((n, columns)),
                        rng.integers(-30, 30, (n, columns)))
        if dtype is np.complex128:
            part = part + 1j * np.ldexp(rng.standard_normal((n, columns)), 20)
        part[rng.random((n, columns)) < 0.05] = -0.0
    starts = np.cumsum(lengths) - lengths
    return part, rng.permutation(n), starts


@settings(max_examples=100, deadline=None)
@given(_segmented_part(), st.booleans())
def test_segment_sums_equal_reduceat_bit_for_bit(case, floors):
    # row adds where every segment is short enough, reduceat past that: at
    # the module's floors, or at floors of 1 that send every part of short
    # segments to the row adds
    part, order, starts = case
    expected = np.add.reduceat(part[order], starts)
    with pytest.MonkeyPatch.context() as mp:
        if floors:
            mp.setattr(exact, "_ROW_COLUMNS", 1)
            mp.setattr(exact, "_ROW_SUMS", 1)
        got = exact._segment_sums(part, order, starts)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_segment_sums_bracket_the_rows_after_the_first():
    # reduceat forms a + (b + c): here 1 + (2^53 - 2^53) = 1, where the
    # sum from the left, (1 + 2^53) - 2^53, is 0
    part = np.array([[1.0], [2.0**53], [-(2.0**53)]]).repeat(8192, axis=1)
    order, starts = np.arange(3), np.array([0])
    got = exact._segment_sums(part, order, starts)
    assert got.tolist() == np.add.reduceat(part, starts).tolist() == [[1.0] * 8192]


@pytest.mark.parametrize("moduli", [None, (5, 7, 9, 11)])
def test_passes_form_at_most_the_work_bound(monkeypatch, moduli):
    # random keys, and the moment curve (x, ..., x^k) with k >= s, whose
    # sums of s keys are all distinct (Sidon type); the first pass forms
    # only the pairs i <= j (its floor lowered so that 12 keys take it)
    monkeypatch.setattr(exact, "_HALF_PASS", 2)
    rows = _sorted_rows(monkeypatch)
    rng = np.random.default_rng(7)
    n = 12
    x = np.arange(n)
    for s in (2, 3, 4):
        moment = [x**e for e in range(1, s + 1)]
        for keys in (moment, list(rng.integers(-4, 5, (3, n)))):
            weights = rng.choice([-2, -1, 1, 3], n)
            k = len(keys)
            rows.clear()
            G = exact.convolution_power(keys, [weights], s,
                                        None if moduli is None else moduli[:k])
            if moduli is None:
                cap = math.prod(s * (int(c.max()) - int(c.min())) + 1 for c in keys)
                support = len({tuple(key) for key in zip(*keys)})
            else:
                cap = math.prod(moduli[:k])
                support = len({tuple(c % m for c, m in zip(key, moduli))
                               for key in zip(*keys)})
            assert rows[0] == n  # the histogram
            assert rows[1] == support * (support + 1) // 2  # one chunk, i <= j
            assert sum(rows[1:]) <= exact._convolution_work(support, s, cap)
            key_rows = [list(map(int, key)) for key in zip(*keys)]
            assert int(np.dot(G[0], G[0])) == _dict_convolution_count(
                key_rows, weights.tolist(), s, None if moduli is None else moduli[:k])


@pytest.mark.parametrize("over", [0, 1])
def test_codes_at_the_packed_word_limit(monkeypatch, over):
    # 60 keys: a first pass of 1830 pairs i <= j, so b = 11 index bits; the
    # cyclic codes reach M - 1 (the pair of digits 0 and M - 1), which is
    # 2^51 - 1 and fits one packed word, or 2^51, which takes argsort
    M = 2**51 + over
    rng = np.random.default_rng(8)
    digits = np.concatenate(([0, M - 1], rng.integers(1, M - 1, 58)))
    weights = rng.choice([-2, -1, 1, 3], 60)
    packed_shift, shifts = exact._packed_shift, {}

    def recording(code):
        shifts[len(code)] = packed_shift(code)
        return shifts[len(code)]

    monkeypatch.setattr(exact, "_packed_shift", recording)
    assert convolution_counts([digits], weights, 2, [M]) == \
        _dict_convolution_count([[int(d)] for d in digits], weights.tolist(), 2, [M])
    assert shifts == {1830: None if over else 11}


@pytest.mark.parametrize("wide_first", [True, False])
def test_two_word_codes_rank_only_the_wide_word(monkeypatch, wide_first):
    # radices of about 2^57 and 2^11 take two code words whose joint code
    # would pass 2^62: the wide one is ranked, as the accumulated code when
    # it comes first and as the word when it comes second
    rng = np.random.default_rng(9)
    wide, narrow = rng.integers(0, 2**56, 60), rng.integers(0, 2**10, 60)
    words = [wide, narrow] if wide_first else [narrow, wide]
    rank, ranked = exact._rank, []

    def spying(values):
        ranked.append(values)
        return rank(values)

    monkeypatch.setattr(exact, "_rank", spying)
    code = exact._joint_code(words)
    assert len(ranked) == 1 and ranked[0] is wide
    # equal exactly where both words are, in the words' order
    np.testing.assert_array_equal(np.argsort(code, kind="stable"),
                                  np.lexsort(words[::-1]))
    monkeypatch.undo()
    weights = rng.choice([-2, -1, 1, 3], 60)
    keys = [[int(a), int(b)] for a, b in zip(*words)]
    assert convolution_counts(words, weights, 2) == \
        _dict_convolution_count(keys, weights.tolist(), 2)


def test_python_int_codes_take_the_first_pass_of_pairs_i_le_j():
    # one axis past 2^62: Python-int codes, sorted by argsort, in a first
    # pass of pairs i <= j (50 keys)
    keys = [[n**13 + 7 * n] for n in range(50)]
    weights = [(-1) ** n * (n % 5 + 1) for n in range(50)]
    assert convolution_counts(np.array(keys, dtype=object).T, weights, 2) == \
        _dict_convolution_count(keys, weights, 2)


@pytest.mark.parametrize("moduli", [None, (257,)])
def test_offset_columns_on_the_first_pass_of_pairs_i_le_j(monkeypatch, moduli):
    # 200 keys with 4 complex columns: 20100 pairs i <= j of 208 bytes in
    # chunks of a 256 KB block, against np.convolve (folded mod 257 for the
    # cyclic pass); the chunks count the index arrays and the two gathered
    # operands of each product
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 1 << 18)
    rng = np.random.default_rng(10)
    weights = rng.standard_normal((200, 4)) + 1j * rng.standard_normal((200, 4))
    tracemalloc.start()
    try:
        G = exact.convolution_power([np.arange(200)], [weights], 2, moduli)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.4 blocks measured; 1.9 without the operands, 2.2 forming all pairs
    assert peak < 1.6 * exact._BLOCK_BYTES
    expected = np.array([np.convolve(weights[:, j], weights[:, j]) for j in range(4)]).T
    if moduli is not None:
        expected = np.array([expected[t::257].sum(axis=0) for t in range(257)])
    np.testing.assert_allclose(G, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_convolution_case())
def test_convolution_counts_match_dict_loop_on_packed_sorts_and_half_passes(case):
    # the packed sort and the first pass of pairs i <= j at any size
    k, keys, weights, s, moduli = case
    axes = np.array(keys, dtype=np.int64).reshape(len(keys), k).T
    with mock.patch.object(exact, "_PACKED_SORT", 1), \
            mock.patch.object(exact, "_HALF_PASS", 1):
        got = convolution_counts(axes, np.array(weights), s, moduli)
    assert got == _dict_convolution_count(keys, weights, s, moduli)


def test_counts_do_not_depend_on_the_block_size_or_the_floors(monkeypatch):
    rng = np.random.default_rng(12)
    keys = rng.integers(-20, 20, (2, 70))
    weights = rng.integers(-2, 3, 70) + 1j * rng.integers(-2, 3, 70)
    cases = [(3, None), (3, (7, 9)), (2, None)]
    expected = [convolution_counts(keys, weights, s, moduli) for s, moduli in cases]
    for floor in (None, 1):  # the module's floors, then every path at any size
        if floor:
            monkeypatch.setattr(exact, "_PACKED_SORT", floor)
            monkeypatch.setattr(exact, "_HALF_PASS", floor)
        for block in (1, 3000):  # one row of pairs per chunk, then a few
            monkeypatch.setattr(exact, "_BLOCK_BYTES", block)
            assert [convolution_counts(keys, weights, s, moduli)
                    for s, moduli in cases] == expected
