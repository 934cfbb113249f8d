"""Tensor-product Gauss quadrature over centered cells, with dyadic subdivision.

Nodes live in the centered cell prod_j [-h_j, h_j].  Each axis is split into
2^depth_j equal subintervals carrying a fixed-order Gauss-Legendre rule; the
default depth is the smallest making the phase variation across a subinterval
at most a quarter period, using width_j * max_n |P_j(n)| as the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError


#: Cap on exact-grid samples and on Gauss node evaluations (nodes x cells).
NODE_BUDGET = 2 * 10**8


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre order and uniform dyadic depth of real cell integration.

    depth None means the per-axis quarter-period rule.
    """

    order: int = 4
    depth: int | None = None

    def __post_init__(self):
        if self.order < 1:
            raise InvalidInputError("quadrature order must be >= 1")
        if self.depth is not None and self.depth < 0:
            raise InvalidInputError(f"quadrature depth must be >= 0, got {self.depth}")


@lru_cache(maxsize=8)
def gauss_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only: one rule per
    order is computed (an eigen-solve) and shared by every caller."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quarter_period_depths(
    widths: Sequence[Fraction], max_abs_phase: Sequence[int]
) -> tuple[int, ...]:
    """Smallest dyadic depths with subcell phase variation <= 1/4 period."""
    depths = []
    for w, m in zip(widths, max_abs_phase):
        variation = float(w) * float(m)
        s = 0
        while variation * 2.0**-s > 0.25:
            s += 1
        depths.append(s)
    return tuple(depths)


def resolve_depths(
    config: QuadratureConfig,
    widths: Sequence[Fraction],
    max_abs_phase: Sequence[int],
) -> tuple[int, ...]:
    if config.depth is None:
        return quarter_period_depths(widths, max_abs_phase)
    return (config.depth,) * len(widths)


def tensor_offsets(
    halfwidths: Sequence[Fraction], depths: Sequence[int], order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Node offsets (V, k) within the centered cell and their volume weights (V,).

    Weights sum to the cell volume prod_j 2 h_j.  Node ordering is the C-order
    tensor product of the per-axis ladders, so it is deterministic.
    """
    xi, w = gauss_rule(order)
    axis_nodes = []
    axis_weights = []
    for h, s in zip(halfwidths, depths):
        h = float(h)
        half = h / 2**s
        centers = -h + (2 * np.arange(2**s) + 1) * half
        axis_nodes.append((centers[:, None] + half * xi).ravel())
        axis_weights.append(np.tile(half * w, 2**s))
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    offsets = np.stack([g.ravel(order="C") for g in grids], axis=1)
    wgrids = np.meshgrid(*axis_weights, indexing="ij")
    weights = np.ones(offsets.shape[0])
    for g in wgrids:
        weights = weights * g.ravel(order="C")
    return offsets, weights


def node_count(depths: Sequence[int], order: int) -> int:
    return math.prod(order * 2**s for s in depths)
