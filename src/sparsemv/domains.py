"""Sparse product-cell subdomains of the torus R^k/Z^k.

A domain is the disjoint union, over index tuples iota with
0 <= iota_j < N^(deg_j - sigma_j), of axis-aligned cells centered at
iota_j * N^(sigma_j - deg_j) with half-width N^(-deg_j)/2 on axis j.  All
counts, centers and widths are exact rationals; the total measure is
N^(-sum sigma_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
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
    if not degrees:
        raise InvalidInputError("a domain needs at least one component degree")
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


def _check_budget(domain: SparseDomain, budget: int) -> None:
    total = domain.total_cells
    if total > budget:
        raise BudgetExceededError(
            f"domain has {total} cells, exceeding budget {budget}",
            requested=total,
            budget=budget,
        )


def enumerate_cells(
    domain: SparseDomain, budget: int = DEFAULT_CELL_BUDGET
) -> Iterator[tuple[tuple[int, ...], tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Yield (iota, center, halfwidths) in lexicographic iota order."""
    _check_budget(domain, budget)
    spacings, halfwidths = domain.spacings, domain.cell_halfwidths
    for iota in product(*(range(c) for c in domain.cell_counts)):
        yield iota, tuple(i * sp for i, sp in zip(iota, spacings)), halfwidths


# Rows per block of last-axis strings in emit_cell_csv; the block is the
# writer's only buffer, so memory does not grow with the cell count.
_BLOCK_ROWS = 4096


def _center_text(i: int, count: int) -> str:
    # str(Fraction(i, count)): the center of cell i on an axis of count cells.
    g = math.gcd(i, count)
    return str(i // g) if g == count else f"{i // g}/{count // g}"


def _axis_block(count: int, start: int) -> list[tuple[str, str]]:
    """(iota, center) strings of cells start.. of one block on a count-cell axis."""
    return [
        (str(i), _center_text(i, count))
        for i in range(start, min(start + _BLOCK_ROWS, count))
    ]


def emit_cell_csv(domain: SparseDomain, path, budget: int = DEFAULT_CELL_BUDGET) -> int:
    """Write one row per cell in lexicographic iota order; returns the row count.

    The rows are what csv.writer writes for (iota..., center..., halfwidth...)
    with exact rational centers: comma-separated, ending in "\\r\\n".  The
    budget is checked before the file is opened, so an over-budget call leaves
    an existing file as it was.
    """
    _check_budget(domain, budget)
    k = len(domain.degrees)
    *outer, last = domain.cell_counts
    header = ",".join(
        [f"iota_{j + 1}" for j in range(k)]
        + [f"center_{j + 1}" for j in range(k)]
        + [f"halfwidth_{j + 1}" for j in range(k)]
    )
    suffix = "".join(f",{h}" for h in domain.cell_halfwidths) + "\r\n"
    # Every prefix of outer indices reuses the last axis's block strings; the
    # cache misses only when that axis runs over more than one block.
    block = lru_cache(maxsize=1)(partial(_axis_block, last))
    from .csvio import _open_overwrite  # deferred: csvio imports this module

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
        fh.write(header + "\r\n")
        for prefix in product(*(range(c) for c in outer)):
            head = "".join(f"{i}," for i in prefix)
            mid = "".join(f"{_center_text(i, c)}," for i, c in zip(prefix, outer))
            for start in range(0, last, _BLOCK_ROWS):
                rows = [f"{head}{i},{mid}{c}{suffix}" for i, c in block(start)]
                fh.write("".join(rows))
    return domain.total_cells
