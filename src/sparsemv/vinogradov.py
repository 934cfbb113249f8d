"""Exact solution counting for power-sum systems with algebraic indeterminates.

J(s, k, d; N, alpha) counts ordered pairs of s-tuples of field elements
beta = n_0 + n_1 alpha + ... + n_{d-1} alpha^{d-1}, coordinates in [0, N),
whose power sums sum_i beta_i^t agree for t = 1..k.  Counting goes through
exact moment keys: the power-sum coordinates of one element, integers with
no floating content.  With H the histogram of single-element keys, the number
of s-tuples with power-sum key h is the s-fold convolution H^{*s}(h), so
J = sum_h H^{*s}(h)^2, which :func:`exact.convolution_counts` counts by
sorting packed integer keys; the work and memory follow the support of the
convolution powers instead of the N^(ds) tuples.

Keys are integers for every minimal polynomial: with D the lcm of its
denominators, gamma = D alpha has a monic integer minimal polynomial, and
beta' = D^(d-1) beta has integer coordinates in the powers of gamma.  Since
beta'^t = D^(t(d-1)) beta^t, two tuples have equal power sums exactly when
their scaled power sums agree, so J does not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DEFAULT_BUDGET, BudgetExceededError, InvalidInputError
from .exact import _WORD_LIMIT, convolution_counts
from .numberfield import MinimalPolynomial, field_multiply

#: What one convolution pass costs beyond its pairs, in pair terms: on one
#: core of a 2-core x86_64 machine (numpy 2.4) a pass over a one-key
#: histogram takes about 22 us and a pair term 60-100 ns.
_PASS_PAIRS = 256


@dataclass(frozen=True)
class SolutionCountRecord:
    s: int
    k: int
    d: int
    N: int
    minpoly: MinimalPolynomial
    J: int
    method: str

    def __post_init__(self):
        if self.J < self.N ** (self.d * self.s):
            raise InvalidInputError("J below the diagonal count; counting bug")


def _power_exceeds(base: int, exponent: int, budget: int) -> bool:
    """base**exponent > budget, without forming a power far past the budget."""
    if base > 1 and exponent * (base.bit_length() - 1) > budget.bit_length():
        return True  # base**exponent >= 2^(exponent (bitlen - 1)) > budget
    return base**exponent > budget


def _single_keys(
    minpoly: MinimalPolynomial, k: int, N: int, transcendental: bool
) -> list[tuple]:
    """Moment key of each single element beta, by exact rational arithmetic.

    The key builder of the brute-force oracle, independent of the scaled
    integer keys of :func:`_key_columns`.  With reduction (the default), the
    key is the concatenation of the d power-basis coordinates of beta^t for
    t = 1..k.  In the transcendental reading, beta^t is expanded as a
    polynomial in a formal alpha with no reduction, contributing t(d-1)+1
    coefficients.
    """
    d = minpoly.degree
    integral = all(c.denominator == 1 for c in minpoly.coeffs)
    keys = []
    for coords in product(range(N), repeat=d):
        if transcendental:
            poly = tuple(coords)  # coefficients of beta in the formal variable
            acc = (1,)
            key_parts: list[int] = []
            for _ in range(k):
                new = [0] * (len(acc) + len(poly) - 1)
                for i, ai in enumerate(acc):
                    if ai:
                        for j, bj in enumerate(poly):
                            new[i + j] += ai * bj
                acc = tuple(new)
                key_parts.extend(acc)
            keys.append(tuple(key_parts))
        else:
            beta = tuple(Fraction(c) for c in coords)
            acc = beta
            key_parts = []
            for t in range(1, k + 1):
                if t > 1:
                    acc = field_multiply(acc, beta, minpoly)
                if integral:
                    key_parts.extend(int(c) for c in acc)
                else:
                    key_parts.extend(acc)
            keys.append(tuple(key_parts))
    return keys


def _key_columns(
    minpoly: MinimalPolynomial, k: int, N: int, transcendental: bool
) -> list[np.ndarray]:
    """Integer moment keys of every element beta in [0, N)^d, one array per axis.

    The axes are the coordinates of beta'^t for t = 1..k: reduced modulo
    the integer minimal polynomial of gamma = D alpha (module docs), or, in
    the transcendental reading, the t(d-1)+1 coefficients of beta^t as a
    polynomial in a formal alpha.  They are int64 when an a priori bound on
    every coordinate fits, else Python ints.
    """
    d = minpoly.degree
    if transcendental:
        reduce_by, scales = None, [1] * d
        bound = (d * (N - 1)) ** k
    else:
        D = math.lcm(*(c.denominator for c in minpoly.coeffs))
        reduce_by = [int(c * D ** (d - i)) for i, c in enumerate(minpoly.coeffs)]
        scales = [D ** (d - 1 - i) for i in range(d)]
        # |beta'|_1 grows by at most |beta'|_1 per product and by
        # (1 + sum |c'_i|) per reduced top coefficient
        bound = ((N - 1) * sum(scales)) ** k * (
            1 + sum(map(abs, reduce_by))) ** ((d - 1) * (k - 1))
    # the dtype is fixed before scaling, so wide scales multiply Python ints
    dtype = np.int64 if bound < _WORD_LIMIT else object
    coords = np.indices((N,) * d).reshape(d, -1).astype(dtype)
    base = list(coords * np.array(scales, dtype=dtype)[:, None])
    acc, columns = base, list(base)
    for _ in range(k - 1):
        prod = [0] * (len(acc) + d - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(base):
                prod[i + j] = prod[i + j] + a * b
        if reduce_by is not None:  # gamma^d = -(c'_{d-1} gamma^{d-1} + ... + c'_0)
            for top in range(2 * d - 2, d - 1, -1):
                for i, c in enumerate(reduce_by):
                    prod[top - d + i] = prod[top - d + i] - c * prod[top]
            prod = prod[:d]
        acc = prod
        columns.extend(acc)
    return columns


def count_solutions(
    minpoly: MinimalPolynomial,
    s: int,
    k: int,
    N: int,
    *,
    transcendental: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> SolutionCountRecord:
    """J = sum over keys h of H^{*s}(h)^2, H the single-element key histogram.

    The budget bounds the N^d single-element keys, and the work bound
    W = sum_{t=1}^{s-1} min(|H|^t, C) |H| of the s - 1 convolution passes,
    C the size of the packed key space (:func:`exact.convolution_power`),
    plus _PASS_PAIRS per pass; W is read from the histogram before any pass
    runs.  When the counts pass the int64 range, W is charged per 62-bit
    word of their bound (:func:`exact.convolution_counts`).
    """
    if s < 1 or k < 1 or N < 1:
        raise InvalidInputError("s, k, N must be positive")
    d = minpoly.degree
    if N**d > budget:
        raise BudgetExceededError(
            f"{N}^{d} single-element keys exceed budget {budget}",
            requested=N**d,
            budget=budget,
        )
    pass_cost = (s - 1) * _PASS_PAIRS
    try:
        J = convolution_counts(_key_columns(minpoly, k, N, transcendental),
                               np.ones(N**d, dtype=np.int64), s,
                               max_work=budget - pass_cost)
    except BudgetExceededError as exc:
        work = exc.requested + pass_cost
        raise BudgetExceededError(
            f"{s - 1} convolution passes over {N}^{d} keys need work W = "
            f"{exc.requested} plus {pass_cost} for the passes = {work}, over "
            f"budget {budget}", requested=work, budget=budget) from None
    return SolutionCountRecord(s=s, k=k, d=d, N=N, minpoly=minpoly, J=J, method="hash")


def count_solutions_brute(
    minpoly: MinimalPolynomial,
    s: int,
    k: int,
    N: int,
    *,
    transcendental: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> SolutionCountRecord:
    """Oracle: enumerate all pairs of s-tuples and compare their power sums.

    The budget bounds the N^(2ds) pairs and the s N^(ds) single keys summed
    into the keys of the s-tuples.
    """
    if s < 1 or k < 1 or N < 1:
        raise InvalidInputError("s, k, N must be positive")
    d = minpoly.degree
    if _power_exceeds(N, 2 * d * s, budget):
        raise BudgetExceededError(
            f"{N}^{2 * d * s} pairs exceed budget {budget}",
            requested=budget + 1,  # the pair count is at least this
            budget=budget,
        )
    if s * N ** (d * s) > budget:  # N^(ds) is at most the square root of budget
        raise BudgetExceededError(
            f"{s} x {N}^{d * s} tuple terms exceed budget {budget}",
            requested=s * N ** (d * s),
            budget=budget,
        )
    single = _single_keys(minpoly, k, N, transcendental)
    # every s-tuple enumerated on its own, independently of the convolution
    tuple_keys = [tuple(map(sum, zip(*combo))) for combo in product(single, repeat=s)]
    J = 0
    int_ok = all(
        isinstance(v, int) and abs(v) < 2**62 // max(1, s)
        for key in single
        for v in key
    )
    if int_ok:
        arr = np.array(tuple_keys, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr[:, None]
        for row in arr:
            J += int(np.count_nonzero((arr == row).all(axis=1)))
    else:
        for a in tuple_keys:
            for b in tuple_keys:
                if a == b:
                    J += 1
    return SolutionCountRecord(s=s, k=k, d=d, N=N, minpoly=minpoly, J=J, method="brute")


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares slope of log J against log N, with the per-point table."""

    slope: float
    points: tuple[tuple[int, int, float, float], ...]  # (N, J, logN, logJ)
    residuals: tuple[float, ...]
    envelope_exponent: float


def fit_growth(
    minpoly: MinimalPolynomial,
    s: int,
    k: int,
    N_values: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> GrowthFit:
    """Fit the growth exponent of J over an increasing list of scales.

    The envelope exponent column is max(ds, 2ds - d k(k+1)/2), the polynomial
    growth the counting bound predicts up to sub-polynomial factors.
    """
    if len(N_values) < 3:
        raise InvalidInputError("need at least 3 scales to fit a slope")
    if list(N_values) != sorted(set(N_values)):
        raise InvalidInputError("scales must be strictly increasing")
    d = minpoly.degree
    points = []
    for N in N_values:
        rec = count_solutions(minpoly, s, k, N, budget=budget)
        points.append((N, rec.J, math.log(N), math.log(rec.J)))
    x = np.array([p[2] for p in points])
    y = np.array([p[3] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = tuple(float(yi - (slope * xi + intercept)) for xi, yi in zip(x, y))
    envelope = float(max(d * s, 2 * d * s - d * k * (k + 1) / 2))
    return GrowthFit(
        slope=float(slope),
        points=tuple(points),
        residuals=residuals,
        envelope_exponent=envelope,
    )
