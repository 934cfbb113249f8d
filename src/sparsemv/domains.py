"""Sparse product-cell subdomains of the torus R^k/Z^k.

A domain is the disjoint union, over index tuples iota with
0 <= iota_j < N^(deg_j - sigma_j), of axis-aligned cells centered at
iota_j * N^(sigma_j - deg_j) with half-width N^(-deg_j)/2 on axis j.  All
counts, centers and widths are exact rationals; the total measure is
N^(-sum sigma_j).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Sequence

from .errors import BudgetExceededError, InvalidInputError
from .padic import ScaleSpec

DEFAULT_CELL_BUDGET = 10**8


@dataclass(frozen=True)
class LocalizationVector:
    """Per-component localization exponents sigma, with sigma_j * K integral."""

    sigma: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(Fraction(s) for s in self.sigma))

    def __len__(self) -> int:
        return len(self.sigma)

    def validated(self, scale: ScaleSpec, degrees: Sequence[int]) -> "LocalizationVector":
        if len(self.sigma) != len(degrees):
            raise InvalidInputError(
                f"sigma has {len(self.sigma)} entries for {len(degrees)} components"
            )
        for j, (s, deg) in enumerate(zip(self.sigma, degrees)):
            if s < 0 or s > deg:
                raise InvalidInputError(
                    f"sigma_{j + 1}={s} outside [0, {deg}]"
                )
            if (s * scale.K).denominator != 1:
                raise InvalidInputError(
                    f"sigma_{j + 1}*K = {s * scale.K} is not an integer"
                )
        return self

    @classmethod
    def zeros(cls, k: int) -> "LocalizationVector":
        return cls(tuple(Fraction(0) for _ in range(k)))


@dataclass(frozen=True)
class SparseDomain:
    """Exact cell layout of a sparse subdomain."""

    scale: ScaleSpec
    sigma: LocalizationVector
    degrees: tuple[int, ...]
    cell_counts: tuple[int, ...]
    cell_halfwidths: tuple[Fraction, ...]

    @property
    def total_cells(self) -> int:
        return math.prod(self.cell_counts)

    @property
    def measure(self) -> Fraction:
        vol = Fraction(1)
        for count, h in zip(self.cell_counts, self.cell_halfwidths):
            vol *= count * 2 * h
        return vol

    @property
    def spacings(self) -> tuple[Fraction, ...]:
        """Center-to-center spacing N^(sigma_j - deg_j) on each axis."""
        return tuple(
            _scale_power(self.scale, s - deg)
            for s, deg in zip(self.sigma.sigma, self.degrees)
        )


def _scale_power(scale: ScaleSpec, exponent: Fraction | int) -> Fraction:
    # N^exponent with exponent*K integral, as an exact rational p-power.
    e = Fraction(exponent) * scale.K
    assert e.denominator == 1
    return Fraction(scale.p) ** int(e)


def build_domain(
    scale: ScaleSpec, sigma: LocalizationVector, degrees: Sequence[int]
) -> SparseDomain:
    """Exact descriptor of the sparse domain for the given degrees."""
    degrees = tuple(int(d) for d in degrees)
    if any(d < 1 for d in degrees):
        raise InvalidInputError("component degrees must be positive")
    sigma = sigma.validated(scale, degrees)
    p, K, N = scale.p, scale.K, scale.N
    counts = []
    halfwidths = []
    for s, deg in zip(sigma.sigma, degrees):
        exp = (deg - s) * K
        counts.append(p ** int(exp))
        halfwidths.append(Fraction(1, 2 * N**deg))
    return SparseDomain(
        scale=scale,
        sigma=sigma,
        degrees=degrees,
        cell_counts=tuple(counts),
        cell_halfwidths=tuple(halfwidths),
    )


def cell_center(domain: SparseDomain, iota: Sequence[int]) -> tuple[Fraction, ...]:
    return tuple(i * sp for i, sp in zip(iota, domain.spacings))


def enumerate_cells(
    domain: SparseDomain, budget: int = DEFAULT_CELL_BUDGET
) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Yield (iota, center, halfwidths) in lexicographic iota order."""
    total = domain.total_cells
    if total > budget:
        raise BudgetExceededError(
            f"domain has {total} cells, exceeding budget {budget}",
            requested=total,
            budget=budget,
        )
    for iota in product(*(range(c) for c in domain.cell_counts)):
        yield iota, cell_center(domain, iota), domain.cell_halfwidths


def emit_cell_csv(domain: SparseDomain, path, budget: int = DEFAULT_CELL_BUDGET) -> int:
    """Write one row per cell; returns the row count."""
    k = len(domain.degrees)
    header = (
        [f"iota_{j + 1}" for j in range(k)]
        + [f"center_{j + 1}" for j in range(k)]
        + [f"halfwidth_{j + 1}" for j in range(k)]
    )
    from .csvio import _open_overwrite  # deferred: csvio imports this module

    rows = 0
    with _open_overwrite(path) as fh:
        fh.write(
            "# domain cells: p=%d K=%d sigma=%s degrees=%s\n"
            % (
                domain.scale.p,
                domain.scale.K,
                ",".join(str(s) for s in domain.sigma.sigma),
                ",".join(str(d) for d in domain.degrees),
            )
        )
        writer = csv.writer(fh)
        writer.writerow(header)
        for iota, center, halfwidth in enumerate_cells(domain, budget=budget):
            writer.writerow(
                [str(i) for i in iota]
                + [str(c) for c in center]
                + [str(h) for h in halfwidth]
            )
            rows += 1
    return rows
