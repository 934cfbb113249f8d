"""Exact solution counting for power-sum systems with algebraic indeterminates.

J(s, k, d; N, alpha) counts ordered pairs of s-tuples of field elements
beta = n_0 + n_1 alpha + ... + n_{d-1} alpha^{d-1}, coordinates in [0, N),
whose power sums sum_i beta_i^t agree for t = 1..k.  Counting goes through
exact moment keys: the power-sum coordinates of one element, with no floating
content.  With H the histogram of single-element keys, the number of s-tuples
with power-sum key h is the s-fold convolution H^{*s}(h), so
J = sum_h H^{*s}(h)^2, and the work and memory follow the support of H^{*s}
instead of the N^(ds) tuples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import add
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .numberfield import MinimalPolynomial, field_multiply

DEFAULT_KEY_BUDGET = 10**8
DEFAULT_PAIR_BUDGET = 10**8


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


def _single_keys(
    minpoly: MinimalPolynomial, k: int, N: int, transcendental: bool
) -> list[tuple]:
    """Moment key of each single element beta, indexed by its coordinate tuple.

    With reduction (the default), the key is the concatenation of the d
    power-basis coordinates of beta^t for t = 1..k.  In the transcendental
    reading, beta^t is expanded as a polynomial in a formal alpha with no
    reduction, contributing t(d-1)+1 coefficients.
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


def count_solutions(
    minpoly: MinimalPolynomial,
    s: int,
    k: int,
    N: int,
    *,
    transcendental: bool = False,
    budget: int = DEFAULT_KEY_BUDGET,
) -> SolutionCountRecord:
    """J = sum over keys h of H^{*s}(h)^2, H the single-element key histogram.

    The budget bounds N^(ds), the number of s-tuples, which also bounds the
    work of the s - 1 convolutions.
    """
    if s < 1 or k < 1 or N < 1:
        raise InvalidInputError("s, k, N must be positive")
    d = minpoly.degree
    n_keys = N ** (d * s)
    if n_keys > budget:
        raise BudgetExceededError(
            f"{n_keys} moment keys exceed budget {budget}",
            requested=n_keys,
            budget=budget,
        )
    hist = Counter(_single_keys(minpoly, k, N, transcendental))
    acc = hist
    for _ in range(s - 1):  # convolve acc with H: keys add, counts multiply
        nxt: Counter = Counter()
        for ka, ca in acc.items():
            for kb, cb in hist.items():
                nxt[tuple(map(add, ka, kb))] += ca * cb
        acc = nxt
    J = sum(c * c for c in acc.values())
    return SolutionCountRecord(s=s, k=k, d=d, N=N, minpoly=minpoly, J=J, method="hash")


def count_solutions_brute(
    minpoly: MinimalPolynomial,
    s: int,
    k: int,
    N: int,
    *,
    transcendental: bool = False,
    budget: int = DEFAULT_PAIR_BUDGET,
) -> SolutionCountRecord:
    """Oracle: enumerate all pairs of s-tuples and compare their power sums."""
    if s < 1 or k < 1 or N < 1:
        raise InvalidInputError("s, k, N must be positive")
    d = minpoly.degree
    n_tuples = N ** (d * s)
    if n_tuples * n_tuples > budget:
        raise BudgetExceededError(
            f"{n_tuples * n_tuples} pairs exceed budget {budget}",
            requested=n_tuples * n_tuples,
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
    intercept: float
    points: tuple[tuple[int, int, float, float], ...]  # (N, J, logN, logJ)
    residuals: tuple[float, ...]
    envelope_exponent: float


def fit_growth(
    minpoly: MinimalPolynomial,
    s: int,
    k: int,
    N_values: Sequence[int],
    *,
    transcendental: bool = False,
    budget: int = DEFAULT_KEY_BUDGET,
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
        rec = count_solutions(
            minpoly, s, k, N, transcendental=transcendental, budget=budget
        )
        points.append((N, rec.J, math.log(N), math.log(rec.J)))
    x = np.array([p[2] for p in points])
    y = np.array([p[3] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = tuple(float(yi - (slope * xi + intercept)) for xi, yi in zip(x, y))
    envelope = float(max(d * s, 2 * d * s - d * k * (k + 1) / 2))
    return GrowthFit(
        slope=float(slope),
        intercept=float(intercept),
        points=tuple(points),
        residuals=residuals,
        envelope_exponent=envelope,
    )
