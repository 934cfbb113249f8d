"""Exact phase arithmetic and exact, order-independent summation.

Phases are tracked as exact rationals modulo 1; floating point enters only
when a phase is finally turned into a point on the unit circle.  Every large
reduction splits its terms by error-free extraction into a few partial sums
that numpy forms without rounding, then rounds them once with math.fsum, so
each total is the correctly rounded sum of its terms and does not depend on
their order or on how the work was chunked or parallelised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

RationalLike = Union[int, Fraction, "PhaseFraction"]


class PhaseFraction:
    """An exact rational phase reduced into [0, 1).

    Supports exact addition and integer scalar multiplication; the value is
    always kept reduced modulo 1.
    """

    __slots__ = ("value",)

    def __init__(self, q: RationalLike):
        if isinstance(q, PhaseFraction):
            self.value = q.value
        else:
            self.value = Fraction(q) % 1

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def __add__(self, other: RationalLike) -> "PhaseFraction":
        other_value = other.value if isinstance(other, PhaseFraction) else other
        return PhaseFraction(self.value + other_value)

    __radd__ = __add__

    def __mul__(self, scalar: int) -> "PhaseFraction":
        if not isinstance(scalar, int):
            return NotImplemented
        return PhaseFraction(self.value * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "PhaseFraction":
        return PhaseFraction(-self.value)

    def __eq__(self, other) -> bool:
        if isinstance(other, PhaseFraction):
            return self.value == other.value
        return self.value == other

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"PhaseFraction({self.value})"


def unit_root(q: RationalLike | float) -> complex:
    """Return e(q) = exp(2*pi*i*q) as a Python complex whose components are
    accurate to a couple of ulps."""
    if isinstance(q, PhaseFraction):
        q = q.value
    # Exact quadrant reduction keeps the evaluated angle below pi/2, where a
    # single libm call stays within ~1 ulp; the quadrant rotation is exact.
    if isinstance(q, (int, Fraction)):
        x = Fraction(q) % 1
        quadrant = int(4 * x)
        t = float(x - Fraction(quadrant, 4))
    else:
        x = float(q) % 1.0
        quadrant = min(int(4.0 * x), 3)
        t = x - 0.25 * quadrant  # exact: quarter steps are representable
    angle = math.tau * t
    c, s = math.cos(angle), math.sin(angle)
    if quadrant == 0:
        return complex(c, s)
    if quadrant == 1:
        return complex(-s, c)
    if quadrant == 2:
        return complex(-c, -s)
    return complex(s, -c)


def root_table(modulus: int) -> np.ndarray:
    """All modulus-th roots of unity e(t/modulus), t = 0..modulus-1."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    t = np.arange(modulus, dtype=np.float64)
    return np.exp(2j * np.pi * (t / modulus))


def extract_partials(x: np.ndarray) -> np.ndarray:
    """Exact partial sums of a 1-d or 2-d float64 x along axis 0, as rows.

    It consumes x: the caller hands over an array it no longer reads, and
    no copy is made.  The rows of several chunks of the same terms may be
    concatenated before :func:`fsum_rows` rounds them once.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31, 2008): for n terms take
    sigma = 2^ceil(log2(n+2)) 2^e with 2^e > max|x|.  Then q = (sigma + x) -
    sigma and x - q are exact, and every sum of the n values q is a multiple
    of 2^-53 sigma below sigma, which numpy forms without rounding in any
    order.  Rounds repeat on the remainder until it is zero.  A column whose
    maximum is not finite, or too large for a finite sigma, yields its terms.
    """
    rows = [np.zeros((0,) + x.shape[1:])]
    if len(x):
        log_m = (len(x) + 1).bit_length()
        mu = np.maximum(x.max(axis=0), -x.min(axis=0))
        whole = ~(mu < 2.0 ** (1023 - log_m))  # not finite, or sigma would not be
        if whole.any():
            rows.append(np.where(whole, x, 0.0))
            np.copyto(x, 0.0, where=whole)
            mu = np.where(whole, 0.0, mu)
        q = np.empty_like(x)
        while mu.any():
            sigma = np.ldexp(1.0, np.frexp(mu)[1] + log_m)
            np.add(x, sigma, out=q)
            q -= sigma
            x -= q
            rows.append(q.sum(axis=0))
            mu = np.maximum(x.max(axis=0), -x.min(axis=0))
    return np.concatenate([np.reshape(row, (-1,) + x.shape[1:]) for row in rows])


def _fsum(terms: list[float]) -> float:
    """math.fsum, with np.sum's value for non-finite terms and none of fsum's
    overflow errors when only a partial sum leaves the float range."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum out of range, or inf - inf
        special = [t for t in terms if not math.isfinite(t)]
        if special:
            return sum(special)
        scale = 1 << 1074  # every finite double is a multiple of 2^-1074
        total = sum(n * (scale // d) for n, d in map(float.as_integer_ratio, terms))
        try:
            return total / scale  # correctly rounded
        except OverflowError:
            return math.inf if total > 0 else -math.inf


def fsum_rows(rows: np.ndarray) -> float | np.ndarray:
    """math.fsum down 1-d rows, or down each column of 2-d rows."""
    if rows.ndim == 1:
        return _fsum(rows.tolist())
    return np.array([_fsum(col) for col in rows.T.tolist()])


def _total(values: np.ndarray) -> float:
    return _fsum(extract_partials(np.array(values, dtype=np.float64).ravel()).tolist())


def tree_sum(values: np.ndarray | Iterable) -> complex | float:
    """The correctly rounded sum of an array: math.fsum's value, bit for bit.

    It depends neither on the order of the elements nor on any chunking or
    parallel partitioning of them.  Complex input is summed part by part.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    if np.iscomplexobj(arr):
        return complex(_total(arr.real), _total(arr.imag))
    return _total(arr)


def modulus_power(abs_squared: np.ndarray, r: float) -> np.ndarray:
    """|z|^r from |z|^2, for real r >= 2.

    Even integer exponents stay in pure multiplications; other exponents use
    exp((r/2) log |z|^2), in one output array, which maps zeros to zero.
    """
    half = r / 2.0
    if half == int(half):
        return abs_squared ** int(half)
    with np.errstate(divide="ignore"):  # log 0 = -inf and exp(-inf) = 0
        out = np.log(abs_squared)
    out *= half
    return np.exp(out, out=out)
