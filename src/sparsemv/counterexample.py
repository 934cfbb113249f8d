"""Exact norms for the p-adic paraboloid wave packet family.

For p = 1 mod 4, N = p^k, and xi with xi^2 = -1 mod N^2, the family is

    f_n(x) = 1[x in p^(-2k) Z_p^3] * e_p(x . (n xi, n, 0)),   0 <= n < N,

e_p the standard additive character of Q_p, e_p(q) = e(q) for rationals q
with p-power denominators.

Each frequency (n xi, n, 0) lies on the paraboloid (a, b, a^2 + b^2) to cap
scale because (n xi)^2 + n^2 = n^2 (xi^2 + 1) = 0 mod N^2.

Norm reduction, used by sum_norm
--------------------------------
On the ball B = p^(-2k) Z_p^3 (Haar measure N^6, with mu(Z_p) = 1):

    sum_n f_n(x) = sum_n e_p(x_1 n xi + x_2 n)  =  sum_n e_p(t n),

with t = x_1 xi + x_2; the third coordinate never enters because the third
frequency component is 0.  e_p(t n) only depends on t modulo Z_p, and t mod
Z_p ranges over the N^2 classes w / N^2, w in Z/N^2 (denominators divide N^2
since x_1, x_2 in p^(-2k) Z_p).  The map (x_1, x_2) -> t is measure-preserving
onto each class: for fixed x_1 it is a translation in x_2.  Hence each class
carries equal measure N^6 / N^2 and

    || sum_n f_n ||_r^r = N^6 * N^(-2) * sum_{w in Z/N^2} | sum_{n<N} e(w n / N^2) |^r,

an exact finite sum with rational phases.  The N^2 inner sums are one
length-N^2 inverse DFT of the indicator of [0, N), which collapses the naive
O(N^12) quotient integration to O(N^2 log N) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidInputError
from .meanvalue import _transform_power_sum
from .padic import HenselRoot, ScaleSpec, hensel_sqrt_minus_one

DEFAULT_TERM_BUDGET = 10**8


@dataclass(frozen=True)
class CounterexampleFamily:
    """The wave packet family at scale N = p^k with exponent r."""

    scale: ScaleSpec
    xi: HenselRoot
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 2):
            raise InvalidInputError(
                f"exponent r must be a finite number >= 2, got {self.r}"
            )
        if self.xi.p != self.scale.p or self.xi.K != 2 * self.scale.K:
            raise InvalidInputError("xi must be a root modulo p^(2k)")

    @classmethod
    def build(cls, p: int, k: int, r: float) -> "CounterexampleFamily":
        scale = ScaleSpec(p=p, K=k)
        return cls(scale=scale, xi=hensel_sqrt_minus_one(p, 2 * k), r=r)

    @property
    def N(self) -> int:
        return self.scale.N


def single_norm(fam: CounterexampleFamily) -> float:
    """||f_n||_r = N^(6/r): unit modulus on a ball of Haar measure N^6."""
    return float(fam.N) ** (6.0 / fam.r)


def sum_norm(fam: CounterexampleFamily, budget: int = DEFAULT_TERM_BUDGET) -> float:
    """|| sum_n f_n ||_r via the exact residue-sum reduction (module docs)."""
    N = fam.N
    M = N * N
    if M > budget:
        raise BudgetExceededError(
            f"residue sum needs a length-{M} transform, over budget {budget}",
            requested=M,
            budget=budget,
        )
    # S(w) = sum_{n<N} e(wn/M): the unnormalised inverse DFT of 1[0 <= n < N]
    total = _transform_power_sum((M,), (np.arange(N),), 1.0, fam.r)
    # ||sum f||_r^r = N^6 N^(-2) * total = N^4 * total
    return (float(N) ** 4 * total) ** (1.0 / fam.r)


def verify_paraboloid_membership(fam: CounterexampleFamily) -> bool:
    """Check (n xi)^2 + n^2 = 0 mod N^2 for every 0 <= n < N."""
    M = fam.N * fam.N
    xi = fam.xi.xi
    return all(((n * xi) ** 2 + n * n) % M == 0 for n in range(fam.N))


def growth_table(
    p: int, k_values, r: float, budget: int = DEFAULT_TERM_BUDGET
) -> list[dict]:
    """Norm and ratio rows for a range of scales at fixed p and r."""
    rows = []
    for k in k_values:
        fam = CounterexampleFamily.build(p, k, r)
        sn = single_norm(fam)
        total = sum_norm(fam, budget=budget)
        # || sum f_n ||_r / (sum_n ||f_n||_r^2)^(1/2), whose denominator is
        # (N * N^(12/r))^(1/2); orthogonality makes the ratio 1 at r = 2
        ratio = total / float(fam.N) ** (0.5 + 6.0 / fam.r)
        rows.append(
            {
                "p": p,
                "k": k,
                "N": fam.N,
                "r": r,
                "single_norm": sn,
                "sum_norm": total,
                "ratio": ratio,
                "log_ratio": math.log(ratio) if ratio > 0 else float("-inf"),
            }
        )
    return rows


def log_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    slope, _ = np.polyfit(lx, ly, 1)
    return float(slope)
