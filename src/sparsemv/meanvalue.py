"""Mean values of exponential sums over p-adically shaped domains.

The p-adic short mean value is an exact finite sum over the cell-index grid:
with M_j = N^(deg_j - sigma_j),

    value = N^(sum_j (sigma_j - deg_j)) *
            sum_{0 <= iota_j < M_j} | sum_n a_n e(sum_j iota_j P_j(n) / M_j) |^r,

and already includes the N^(sum sigma_j) normalization of the defining
inequality.  The residues P_j(n) mod M_j are reduced exactly with Python
integers and the coefficients scattered into the phase histogram
H[h] = sum {a_n : P(n) = h mod M}; the unnormalised inverse DFT of H gives the
inner sum at every cell, so floating point enters only in the transform and
in the final reduction.  On large grids the transform's passes skip the
fibres that are still zero and the reduction runs block by block (see
:func:`_transform_power_sum`).  For r = 2s the value is sum_h |G(h)|^2,
G = H^{*s} cyclic on prod Z/M_j (Parseval; the prefactor is 1/T), and three
methods compute it, the first that applies: for Gaussian-integer coefficients the
integer is counted exactly with no floating point when that takes less work
than the transform touches cells (``padic-count``, see :func:`_even_count`);
for any other coefficients the same convolution engine forms G in floating
point when its work and fixed cost come to less than the transform's
(``padic-convolution``, see :func:`_offset_free_reports`), with a rounding
bound derived for it; otherwise the value is the transform's
(``padic-exact``), reported with a rounding estimate as its error bound.

Sums with quadrature offsets v (below) are taken per offset, S(iota, v)
being the grid sum of the modulated coefficients a_n e(v . P(n)).  For
r = 2s the identity above gives T sum_h |G_v(h)|^2 for the histogram H_v of
those coefficients, which the convolution engine of the count
(:func:`exact.convolution_power`) forms for a block of offsets at once, one
complex column per offset, when its work W is at most T/4 (see
:meth:`_GridSum.per_offset_power_sum`); these sums agree with the direct
ones to rounding.  Every other case is one matrix product per block of
cells: the point table
E[iota, n] = a_n prod_j e(iota_j (P_j(n) mod M_j) / M_j), reduced exactly per
axis, times the offset table e(v . P(n)) gives S(iota, v) for every cell and
offset at once.

The real sparse mean value integrates |sum_n a_n e(x . P(n))|^r over the
union of cells.  Substituting x = center + v turns each cell integral into an
integral over the centered cell of the same grid sum with modulated
coefficients a_n(v) = a_n e(v . P(n)), which is evaluated either by
tensor-Gauss quadrature with dyadic subdivision, or, at canonical scale with
an even integer exponent, exactly: the integrand is then a trigonometric
polynomial whose per-axis frequencies are bounded by F_j = (r/2) * (max P_j -
min P_j), so averaging over any grid finer than F_j is the exact integral.
On that grid the same three methods apply (``real-count``,
``real-convolution``, ``real-exact``): its moduli L_j = F_j + 1 exceed the
support of G per axis, so the cyclic convolution is the acyclic one and the
value is sum_h |G(h)|^2 over Z^k.

Because the Gauss weights are positive and the real value is a weighted
average over node offsets v of p-adic values of the modulated coefficients,
the transference comparison real <= sup over v of p-adic holds for the
computed quantities up to rounding; transfer_check tests it per coefficient
vector, reading both sides from one fine-level pass of per-offset sums.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .domains import (
    DEFAULT_CELL_BUDGET,
    LocalizationVector,
    SparseDomain,
    _check_budget,
    _scale_power,
    build_domain,
)
from .errors import BudgetExceededError, InvalidInputError
from . import exact
from .exact import (
    _column_sums,
    _convolution_work,
    convolution_counts,
    convolution_power,
    modulus_power,
    root_table,
    tree_sum,
)
from .numberfield import PhaseSystem
from .padic import ScaleSpec
from .quadrature import (
    NODE_BUDGET,
    QuadratureConfig,
    node_count,
    resolve_depths,
    tensor_offsets,
)

SAMPLER_NAMES = ("all-ones", "single-point", "random-phase", "random-sparse")

#: The convolution engine's cost per call, in pairs of its work W, that an
#: offset-free value pays against the transform (see _offset_free_reports).
_CONVOLUTION_FIXED = 1024

#: Most cells of a grid whose transform is one np.fft.ifftn call: the
#: measured break-even of the pruned passes (see _transform_power_sum).
_PRUNE_CELLS = 16384


@dataclass(frozen=True)
class IndexDomain:
    """A finite set of integer d-tuples."""

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.points:
            raise InvalidInputError("index domain must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise InvalidInputError("index domain contains duplicate points")
        widths = {len(p) for p in self.points}
        if len(widths) != 1:
            raise InvalidInputError("index domain points have mixed dimensions")

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    @classmethod
    def box(cls, N: int, d: int) -> "IndexDomain":
        """The half-open box [0, N)^d in lexicographic order."""
        if N < 1 or d < 1:
            raise InvalidInputError("box needs N >= 1 and d >= 1")
        pts = [()]
        for _ in range(d):
            pts = [p + (i,) for p in pts for i in range(N)]
        return cls(points=tuple(pts))


class CoefficientVector:
    """Complex coefficients a_n over an index domain."""

    def __init__(self, domain: IndexDomain, amplitude: Sequence[complex]):
        self.domain = domain
        self.amplitude = np.asarray(amplitude, dtype=np.complex128)
        if self.amplitude.shape != (len(domain),):
            raise InvalidInputError("amplitude length does not match domain")

    @classmethod
    def ones(cls, domain: IndexDomain) -> "CoefficientVector":
        return cls(domain, np.ones(len(domain), dtype=np.complex128))

    def values(self) -> np.ndarray:
        """A copy of the working values a_n."""
        return self.amplitude.copy()

    def ell_r(self, r: float) -> float:
        """sum_n |a_n|^r."""
        a2 = self.amplitude.real**2 + self.amplitude.imag**2
        return float(tree_sum(modulus_power(a2, r)))


@dataclass(frozen=True)
class MeanValueReport:
    """A computed mean value with its error metadata.

    ``value`` includes the N^(sum sigma_j) prefactor of the defining
    inequality.  Integer counts ("padic-count", "real-count") report a zero
    error bound, convolutions ("padic-convolution", "real-convolution") a
    rounding bound, transforms ("padic-exact", "real-exact") a rounding
    estimate and Gauss cells ("real-gauss") the gap between two levels plus
    a rounding estimate.
    """

    value: float
    method: str
    quadrature_error_bound: float

    def __post_init__(self):
        _check_value("mean value", self.value)


@dataclass(frozen=True)
class TransferReport:
    real_value: float
    padic_sup_over_grid: float
    passed: bool
    quadrature_error_bound: float
    grid_size: int

    def __post_init__(self):
        _check_value("real value", self.real_value)
        _check_value("p-adic sup", self.padic_sup_over_grid)


def _check_value(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise InvalidInputError(f"{name} must be finite and nonnegative, got {value}")


@dataclass(frozen=True)
class SamplerRow:
    sampler: str
    draw: int
    seed: int
    value: float
    denominator: float
    ratio: float
    error_bound: float


@dataclass(frozen=True)
class RestrictionEstimate:
    """A certified lower bound for the optimal restriction constant."""

    value: float
    best_sampler: str
    best_draw: int
    rows: tuple[SamplerRow, ...]


def _phase_values(system: PhaseSystem, domain: IndexDomain) -> list[list[int]]:
    """P_j(n) for every component j and point n, exact integers."""
    if domain.dimension != system.dimension:
        raise InvalidInputError(
            f"domain dimension {domain.dimension} != system dimension {system.dimension}"
        )
    return [[comp.evaluate(pt) for pt in domain.points] for comp in system.components]


def _transform_passes(shape: Sequence[int], index: tuple[np.ndarray, ...]):
    """The pruned transform's plan (order, keeps), or None when the grid has
    at most _PRUNE_CELLS cells or no pass would skip enough cells to pay
    for pruning (see :func:`_transform_power_sum`).

    Axes run in ``order``, by increasing modulus, the largest last.  Before
    the pass over the i-th of them, the axes after it are still
    untransformed, so a fibre along it is zero unless its coordinates on
    them are those of a point of H's support: the flat codes of those
    coordinates, for every value of the axes already transformed.  The
    cells of these fibres never decrease from one pass to the next, so the
    passes that run pruned are the first len(keeps), keeps[i] the codes of
    the i-th; each skips at least twice the cells it gathers, which
    outweighs the gather and the scatter.  A pass gathers at least one
    cell per distinct point of H, so a histogram of more than a third as
    many points as cells is taken as dense without finding its fibres.
    """
    cells = math.prod(shape)
    if cells <= _PRUNE_CELLS or 3 * len(index[0]) > cells:
        return None
    order = sorted(range(len(shape)), key=lambda j: shape[j])
    dims = [shape[j] for j in order]
    # the codes of the points on every axis but the first
    codes = np.ravel_multi_index([index[j] for j in order[1:]], dims[1:])
    keeps, transformed = [], 1
    for size in dims[:-1]:
        transformed *= size
        fibres = np.zeros(cells // transformed, dtype=bool)
        fibres[codes % len(fibres) if keeps else codes] = True
        codes = np.flatnonzero(fibres)
        if 3 * transformed * len(codes) > cells:
            break
        keeps.append(codes)
    return (order, keeps) if keeps else None


def _inverse_transform(shape: Sequence[int], index: tuple[np.ndarray, ...],
                       values, plan) -> np.ndarray:
    """S = T ifftn(H), the unnormalised inverse DFT of the histogram
    H[h] = sum {values[i] : index[i] = h} on a grid of the given shape.

    H is scattered into a complex array which the transform overwrites.
    Without a ``plan`` (:func:`_transform_passes`) that is one np.fft.ifftn
    call.  With one, the axes run in the plan's order: each pruned pass is
    one np.fft.ifft of the fibres it gathers, which it scatters back, and
    one np.fft.ifftn over the remaining axes runs on the whole array in
    place.  The array then holds the axes in the plan's order; the result
    is a view of it with the axes in the order of ``shape``.
    """
    if plan is None:
        S = np.zeros(shape, dtype=np.complex128)
        np.add.at(S, index, values)
        # norm="forward" leaves the inverse transform unscaled: S = T ifftn(H)
        return np.fft.ifftn(S, norm="forward", out=S)
    order, keeps = plan
    dims = [shape[j] for j in order]
    S = np.zeros(dims, dtype=np.complex128)
    np.add.at(S, tuple(index[j] for j in order), values)
    for i, keep in enumerate(keeps):
        axis = S.reshape(math.prod(dims[:i]), dims[i], -1)
        fibres = axis[:, :, keep]
        axis[:, :, keep] = np.fft.ifft(fibres, axis=1, norm="forward", out=fibres)
    rest = S.reshape([-1] + dims[len(keeps):])
    np.fft.ifftn(rest, axes=range(1, rest.ndim), norm="forward", out=rest)
    return S.transpose(np.argsort(order))


def _transform_power_sum(
    shape: Sequence[int], index: tuple[np.ndarray, ...], values, r: float,
    threads: int = 1,
) -> float:
    """sum over the grid of |S|^r, S the unnormalised inverse DFT of the
    histogram (:func:`_inverse_transform`), correctly rounded.

    A grid of more than _PRUNE_CELLS cells runs the pruned passes that
    :func:`_transform_passes` finds worth it, else one np.fft.ifftn call.
    Then every grid takes |S|^2, |S|^r and one extraction round block by
    block over S in :func:`exact._blocked_sums`, on ``threads`` threads.  A
    block holds at most exact._BLOCK_BYTES // 64 = 65536 cells, so a
    grid of up to that many is one block, which under exact._FSUM_TERMS
    cells is one math.fsum call.  One worker's two float buffers take 16
    bytes per cell of its block (1 MB at most), and a full extraction one
    block of floats more.  The sum is the correctly rounded sum of the
    |S|^r; the pruned passes move S itself by rounding.

    The floor, the pass rule and the block size are measured.  A pruned
    pass cost about 2.2 times as much per gathered cell as a full pass per
    cell, plus some 10 us, so it runs where it skips at least twice the
    cells it gathers.  On 28 grids under 4096 cells the passes cost 1.9
    times one ifftn (median).  Timed against one ifftn and one whole-array
    tree_sum of |S|^r on 144 grids (the four systems of the test suite, p =
    2, 3, 5, 7, T from 27 to 14348907, sigma 0 and the last axis localized
    by 1, r = 3; random phases on the domain's points, and up to T = 531441
    a random value on every cell, which leaves no fibre to skip;
    interleaved on one core of a 2-core x86_64 machine, numpy 2.4), as time
    over that time, where the ``sum`` column gives the reduction of that
    measurement (one whole-array tree_sum up to 65536 cells, above it
    blocks of 131072 cells or half the grid):

        T                 transform  sum       values  grids  median  range
        27-16384          ifftn      tree_sum  both      78    1.02    0.99-1.10
        16385-65536       ifftn      tree_sum  both      13    1.01    0.99-1.03
        16385-65536       pruned     tree_sum  points    11    0.78    0.48-0.90
        65537-1048575     ifftn      blocks    both      17    1.00    0.86-1.04
        65537-1048575     pruned     blocks    points    11    0.66    0.48-0.90
        1048576-14348907  ifftn      blocks    points     3    0.51    0.51-0.57
        1048576-14348907  pruned     blocks    points    11    0.42    0.30-0.70

    At T = 14348907 (parabola p = 3, K = 5, sigma 0) that was 0.35, and the
    peak fell from 24 to 16 bytes per cell.  On grids of 131072 and 262144
    cells with a random value on every cell (r = 3, medians of 11
    interleaved runs on the same machine), blocks of 65536 cells took 0.70
    to 1.00 times as long as blocks of 131072 cells, and 0.87 to 1.01 times
    as long as blocks of 32768.
    """
    cells = math.prod(shape)
    block = min(exact._BLOCK_BYTES // 64, cells)
    plan = None
    try:
        plan = _transform_passes(shape, index)
        S = np.ravel(_inverse_transform(shape, index, values, plan), order="K")

        def terms(bounds: tuple[int, int], buf) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = bounds
            x, scratch = buf[0][:hi - lo], buf[1][:hi - lo]
            np.square(S[lo:hi].real, out=x)
            x += np.square(S[lo:hi].imag, out=scratch)
            return exact._power_into(x, r, x, scratch), scratch

        # two arrays, not one of twice the size: on a grid of 15625 cells
        # glibc's malloc mapped that one afresh on every call (counterexample
        # p = 5 took 414 minor faults per run against 180)
        blocks = [(lo, min(lo + block, cells)) for lo in range(0, cells, block)]
        return exact._blocked_sums(blocks, terms, lambda: (np.empty(block), np.empty(block)),
                                   threads)
    except MemoryError:
        # S, and the larger of the cells that the last (largest) pruned pass
        # gathers and the reduction's work space: two blocks of floats per
        # worker and one more in a full extraction
        gathered = 0
        if plan is not None:
            order, keeps = plan
            gathered = math.prod(shape[j] for j in order[:len(keeps)]) * len(keeps[-1])
        work = 24 * block * min(threads, -(-cells // block))
        needed = 16 * cells + max(16 * gathered, work)
        raise BudgetExceededError(
            f"grid transform over {cells} cells needs about {needed} "
            "bytes, more than the machine could allocate",
            requested=needed,
        ) from None


class _GridSum:
    """Exact-phase grid sums S(iota, v) over the mixed-radix grid prod Z/M_j.

    Without offsets, S(iota) = sum_n a_n e(sum_j iota_j P_j(n) / M_j) is the
    unnormalised inverse DFT of the phase histogram
    H[h] = sum {a_n : P(n) = h mod M}, so one scatter and one inverse FFT give
    every cell in O(T log T + #points), T = prod M_j; its passes skip the
    fibres that are still zero (:func:`_inverse_transform`), and its |S|^r
    are summed block by block (:func:`_transform_power_sum`).  With
    quadrature offsets v the sums of |S|^r are taken per offset: for even r
    by convolving the modulated histogram when that is cheap, else by
    S(iota, v) = sum_n E[iota, n] e(v . P(n)), one GEMM per block of cells;
    with a single zero offset that path is the reference the transform is
    tested against.

    The grid holds what no coefficient changes: phases, residues and root
    tables.  Sums run on a :meth:`view`, which adds one
    vector's coefficients as ``base`` and shares the rest.
    """

    def __init__(self, phase_vals: list[list[int]], moduli: Sequence[int],
                 threads: int = 1):
        if threads < 1:
            raise InvalidInputError(f"threads must be >= 1, got {threads}")
        self.moduli = tuple(int(m) for m in moduli)
        self.total = math.prod(self.moduli)
        self.threads = threads
        self.phase_vals = phase_vals
        # P_j(n) mod M_j for every axis j, reduced exactly with Python integers
        self._residues = tuple(
            np.array([v % m for v in vals], dtype=np.intp)
            for vals, m in zip(phase_vals, self.moduli)
        )
        self._roots = tuple(root_table(m) for m in self.moduli)
        self.base = None

    def view(self, coeffs: CoefficientVector) -> "_GridSum":
        """This grid with the coefficients a_n of one vector as ``base``."""
        view = copy.copy(self)
        view.base = coeffs.values()
        return view

    def _point_tables(self) -> list[np.ndarray]:
        """U_j[i, n] = e(i P_j(n) / M_j) for every axis j and i < M_j.

        Only the GEMM path reads them; each of its calls builds them once,
        sum_j M_j x points entries against its T x V x points products.
        """
        return [roots[np.multiply.outer(np.arange(len(roots)), res) % len(roots)]
                for res, roots in zip(self._residues, self._roots)]

    def _block_buffers(self, rows: int, offsets: int) -> tuple[np.ndarray, ...]:
        """Work space for row blocks of up to ``rows`` cells, in one
        allocation: the point rows E, the complex sums S, their |S|^r and a
        float scratch block."""
        points = len(self.base)
        space = np.empty(rows * (points + 2 * offsets), dtype=np.complex128)
        E = space[:rows * points].reshape(rows, points)
        S = space[rows * points:rows * (points + offsets)].reshape(rows, offsets)
        power, scratch = space[rows * (points + offsets):].view(np.float64).reshape(
            2, rows, offsets)
        return E, S, power, scratch

    def _power_block(self, lo: int, hi: int, r: float, offset_factors: np.ndarray,
                     buffers: tuple[np.ndarray, ...],
                     tables: list[np.ndarray]) -> np.ndarray:
        """|S(iota, v)|^r for iota in [lo, hi) and every offset v: one GEMM.

        It runs in the first hi - lo rows of :meth:`_block_buffers` and
        returns them as the power block.  E[iota, n] = a_n prod_j
        U_j[iota_j, n], U_j the :meth:`_point_tables`, takes its factors in
        axis order.
        """
        n = hi - lo
        E, S, power, scratch = (buf[:n] for buf in buffers)
        E[:] = self.base
        cols = np.unravel_index(np.arange(lo, hi), self.moduli)
        for col, table in zip(cols, tables):
            E *= table[col]
        np.matmul(E, offset_factors.T, out=S)
        parts = S.view(np.float64)  # re, im interleaved
        parts *= parts
        a2 = np.add(parts[:, 0::2], parts[:, 1::2], out=power)
        return exact._power_into(a2, r, power, scratch)

    def per_offset_power_sum(self, r: float, offset_factors: np.ndarray) -> np.ndarray:
        """For each offset v: sum over iota of |S(iota, v)|^r.

        For r = 2s the sum is T sum_h |G_v(h)|^2 by Parseval, G_v = H_v^{*s}
        cyclic on prod Z/M_j for the histogram H_v of a_n e(v . P(n)), which
        :meth:`convolved_power_sums` forms for a block of offsets, one
        complex column each.  It runs when :meth:`_convolution_plan` admits
        it with no fixed cost: its work W = sum_{t=1}^{s-1} min(|H|^t, T)
        |H| is at most T/4 and one offset column fits.  Timed against the
        direct path on 204 grids (the four systems of the test suite, T from
        1 to 4096, r = 4, 6, 8, random-phase and random-sparse coefficients,
        each domain's fine Gauss node set of V = 512 to 65536 offsets; one
        core of a 2-core x86_64 machine, numpy 2.4), the convolution was
        faster on all 68 grids with W <= T/4 (median 0.11 of the direct
        time, worst 0.97), on 9 of 11 with T/4 < W <= T/2 (median 0.54, worst
        1.44), and on 18 of 125 beyond (median 1.3 to 1.5 up to W = 3T, 3.2
        past it).  Offsets are taken in column blocks, each one chunk of the
        engine, which may run on several threads; columns are independent,
        so neither changes a bit.  Each column's sum is rounded once and then
        multiplied by T, so it agrees with the direct sum to rounding, not
        bit for bit.

        The direct path returns the correctly rounded sum of the |S|^r.  It
        takes row blocks of iota, one GEMM each, sized so that a block's
        complex sums, powers and scratch (32 bytes per sample) fill
        exact._BLOCK_BYTES, and sums them in :func:`exact._blocked_sums`:
        each worker thread runs a contiguous run of blocks through buffers
        allocated once per call, so no block allocates its samples afresh,
        and each block takes one extraction round.  Columns that the
        combined bound does not certify rerun the same blocks, the same
        GEMMs on the same terms, with full extraction.  Either way the sums
        depend on neither the thread count nor the order of the blocks.
        """
        offsets = offset_factors.shape[0]
        plan = self._convolution_plan(_half_even(r), 1, fixed=0)
        if plan is not None:
            points = plan.points

            def convolved(block: np.ndarray) -> np.ndarray:
                with np.errstate(over="ignore", invalid="ignore"):  # inf is rejected later
                    terms = block[:, points].T * self.base[points, None]
                return self.convolved_power_sums(plan, terms)

            blocks = [offset_factors[lo:lo + plan.columns]
                      for lo in range(0, offsets, plan.columns)]
            return np.concatenate(exact._map_threads(convolved, blocks, self.threads))
        # S, |S|^r and scratch take 32 bytes per sample; the point rows are
        # a few percent more
        rows = min(self.total, max(1, exact._BLOCK_BYTES // (32 * offsets)))
        bounds = [(lo, min(lo + rows, self.total)) for lo in range(0, self.total, rows)]
        tables = self._point_tables()

        def terms(block: tuple[int, int], buf) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = block
            return (self._power_block(lo, hi, r, offset_factors, buf, tables),
                    buf[3][:hi - lo])

        try:
            sums = exact._blocked_sums(bounds, terms,
                                       lambda: self._block_buffers(rows, offsets),
                                       self.threads)
        except MemoryError:
            workers = min(self.threads, len(bounds))
            needed = workers * rows * (16 * len(self.base) + 32 * offsets)
            raise BudgetExceededError(
                f"offset grid blocks of {rows} cells x {offsets} offsets take "
                f"{needed} bytes of buffers on {workers} workers, more than the "
                "machine could allocate with the pass's other arrays",
                requested=needed) from None
        return sums

    def _convolution_plan(self, s: int | None, columns: int,
                          fixed: int) -> "_Convolution | None":
        """The convolution's plan for this view's coefficients, or None when
        its work says the transform or the GEMM is cheaper.

        Its work is W = sum_{t=1}^{s-1} min(|H|^t, T) |H| (as in
        :func:`_even_count`), |H| the distinct residue keys of the points
        with a_n != 0, counted only when 4 fixed <= T.  It runs when
        4 (W + fixed) <= T and at least ``columns`` term columns fit one
        chunk of the engine: each pass over an offset column block is one
        chunk of exact._convolve, where a pair takes 32 bytes and 32 more per
        column (48 and 48 in a first pass of pairs i <= j, which forms about
        half as many).  ``fixed`` is the engine's cost per call in pairs, 0
        where its calls share a block of offsets.  A value without offsets needs
        no column to fit (``columns`` = 0): the engine chunks its passes
        itself.
        """
        if s is None or 4 * fixed > self.total:
            return None
        points = np.flatnonzero(self.base)
        keys = [res[points] for res in self._residues]
        # one code per point, equal exactly where all its residues are
        codes = np.sort(np.ravel_multi_index(keys, self.moduli)
                        if self.total <= exact._WORD_LIMIT else exact._joint_code(keys))
        classes = int(np.count_nonzero(codes[1:] != codes[:-1])) + 1 if len(codes) else 0
        work = _convolution_work(classes, s, self.total)
        fit = max(0, (exact._BLOCK_BYTES // max(work, len(self.base)) - 32) // 32)
        if 4 * (work + fixed) > self.total or fit < columns:
            return None
        # every other class holds a point: a bound on the largest class
        return _Convolution(s, points, keys, classes, len(points) - max(classes - 1, 0), fit)

    def convolved_power_sums(self, plan: "_Convolution", terms: np.ndarray) -> np.ndarray:
        """T sum_h |G_v(h)|^2 for each column v of ``terms`` (one row per
        point of the plan), G_v = H_v^{*s} cyclic on prod Z/M_j for the
        residue histogram H_v of that column: by Parseval the sum over the
        grid of |S_v|^r, r = 2s, S_v the grid sum of the column's terms.
        Each column's sum of |G_v|^2 is correctly rounded, then multiplied by
        T.  A value past the float range is inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            G = convolution_power(plan.keys, [terms], plan.s, self.moduli)[0]
            parts = G.view(np.float64)  # re, im interleaved
            parts *= parts
            return self.total * _column_sums(parts[:, 0::2] + parts[:, 1::2])

    def weighted_power_sum(self, r: float) -> float:
        """sum over iota of |S(iota)|^r, by the transform."""
        return _transform_power_sum(self.moduli, self._residues, self.base, r,
                                    self.threads)


class _Convolution(NamedTuple):
    """The convolution's plan for one grid view (:meth:`_GridSum._convolution_plan`)."""

    s: int  # r / 2
    points: np.ndarray  # the points n with a_n != 0
    keys: list[np.ndarray]  # their residues P_j(n) mod M_j, per axis
    classes: int  # |H|, the distinct keys among them
    largest: int  # at least the most points that share one key
    columns: int  # term columns that one chunk of the engine holds


def _offset_factors(
    phase_vals: list[list[int]], offsets: np.ndarray
) -> np.ndarray:
    """e(sum_j v_j P_j(n)) for each offset v and point n; shape (V, npts)."""
    P = np.asarray(phase_vals, dtype=np.float64)  # (k, npts)
    phases = offsets @ P  # (V, npts), in turns
    return np.exp(2j * np.pi * phases)


def _half_even(r: float) -> int | None:
    """r / 2 when r is an even integer, else None."""
    return int(r) // 2 if float(r).is_integer() and int(r) % 2 == 0 else None


def _even_count(grid: _GridSum, s: int | None) -> int | None:
    """sum_h |G(h)|^2, G = H^{*s} cyclic on prod Z/M_j, for a grid view, or None.

    By Parseval, sum_iota |S(iota)|^r = T sum_h |G(h)|^2 for r = 2s, so the
    exact count replaces the transform when r is an even integer (s is not
    None) and every amplitude is a Gaussian integer.
    It runs only when its work bound W = sum_{t=1}^{s-1} min(|H|^t, T) |H|
    is at most the T = prod M_j cells the transform would touch, |H| the
    support of the residue histogram.  Timed against the transform on 562
    p-adic grids (T from 4 to 531441, r = 4, 6, 8; one core of a 2-core
    x86_64 machine, numpy 2.4), the count is faster for
    W < 0.3 T, costs about 1.3 times as much (median) for W from 0.3 T to
    3 T, and 2 to 35 times as much beyond: W <= T takes the exact value
    wherever it costs no more than that break-even band.
    """
    if s is None:
        return None
    try:
        return convolution_counts(grid._residues, grid.base, s, grid.moduli,
                                  max_work=grid.total)
    except BudgetExceededError:
        return None


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: a product of n factors
    (1 + delta), |delta| <= u, is within gamma_n of 1 (for n u < 1)."""
    nu = n * 2.0**-53
    return nu / (1.0 - nu) if nu < 1.0 else math.inf


def _rounding_estimate(value: float, samples: int) -> float:
    """The rounding error that a value summed from |S|^r at ``samples``
    samples reports, O(log) ulps per sample: value 4e-15 log2(samples + 2).
    Transforms (T cells) and Gauss cells (cells x fine offsets) report it."""
    return value * 4e-15 * math.log2(samples + 2)


def _count_value(count: int) -> float:
    """The count as a float; a count past the float range reads inf, which
    MeanValueReport rejects like an overflowing transform."""
    try:
        return float(count)
    except OverflowError:
        return math.inf


def _prepare(system: PhaseSystem, vectors, r: float, scale: ScaleSpec,
             sigma: LocalizationVector, budget: int):
    """The checks and the set-up that every vector of one call shares: the
    vectors as a list, the sparse domain, and P_j(n) on the one index domain
    the vectors must share."""
    if not (math.isfinite(r) and r >= 2):
        raise InvalidInputError(f"exponent r must be a finite number >= 2, got {r}")
    vectors = list(vectors)
    if not vectors:
        raise InvalidInputError("no coefficient vector given")
    index = vectors[0].domain
    if any(coeffs.domain != index for coeffs in vectors[1:]):
        raise InvalidInputError("coefficient vectors must share one index domain")
    domain = build_domain(scale, sigma, system.degrees)
    _check_budget(domain, budget)
    return vectors, domain, _phase_values(system, index)


def _convolved_value(view: _GridSum, plan: _Convolution, normalise) -> tuple[float, float]:
    """normalise(T sum_h |G(h)|^2), G = H^{*s} for the view's coefficients,
    and a bound on its rounding error, by :meth:`_GridSum.convolved_power_sums`.

    The bound is gamma_n sum_h Gc(h)^2 for Gc = |H|^{*s}, the convolution
    power of the histogram of the |a_n|, formed as a second column of the
    same passes (Higham, "Accuracy and Stability of Numerical Algorithms",
    2002, sections 3.1 and 3.6).  Each term of G(h) is a product of s
    coefficients, and on its way to G(h) it meets at most c - 1 additions in
    the histogram (c the largest class of points sharing a key), then per
    pass one complex product (within sqrt(2) gamma_2 < 3 u) and at most
    |H| - 1 additions, since at most |H| pairs land on one key.  A first
    pass of the pairs i <= j doubles the product t_i t_j for i < j, which
    is exact and equals the sum of the two rounded products t_i t_j and
    t_j t_i (the same bits): each doubled term stands for two terms of
    Gc(h) with the error of one product, and a key sums fewer terms, so
    its additions stay at most |H| - 1.  So the
    computed G(h) is within gamma_K Gc(h) of G(h), K = c - 1 + (s - 1)(|H| +
    2), and the reported value, whose terms are products of two such sums
    further rounded by |G|^2 (two roundings), the sum (correctly rounded),
    the factor T and normalise (two), is within gamma_n sum_h Gc(h)^2 with n
    = 2 K + 6.  The factor 2 on the reported bound covers the rounding of
    Gc itself, whose nonnegative terms each round by less than a factor
    1 - u, and of the bound's own arithmetic.
    """
    terms = np.empty((len(plan.points), 2), dtype=np.complex128)
    terms[:, 0] = view.base[plan.points]
    terms[:, 1] = np.abs(terms[:, 0])
    total, check = view.convolved_power_sums(plan, terms).tolist()
    chain = plan.largest - 1 + (plan.s - 1) * (plan.classes + 2)
    return normalise(total), 2 * _gamma(2 * chain + 6) * normalise(check)


def _offset_free_reports(grid: _GridSum, vectors, r: float, s: int | None,
                         kind: str, normalise) -> list[MeanValueReport]:
    """One report per vector on a grid without offsets, the first of three
    methods that applies: the exact count ("<kind>-count", error bound 0)
    where :func:`_even_count` applies; for even r the convolution of complex
    coefficients ("<kind>-convolution", see :func:`_convolved_value`) where
    it is cheaper than the transform; else normalise(sum of |S|^r) by the
    transform ("<kind>-exact"), whose error bound estimates its rounding:
    O(log T) ulps per sample of T samples.

    The convolution runs when 4 (W + _CONVOLUTION_FIXED) <= T, W its work
    (see :meth:`_GridSum._convolution_plan`): its fixed cost per call, some
    100-250 us, is worth about 1024 pairs of W, and a pair costs about as
    much as four cells of the transform.  Timed against the transform on 94
    grids with 4 W <= T (the four systems of the test suite on p-adic grids
    at sigma 0 and localized and on real L_j grids, T from 27 to 531441,
    r = 4, 6, 8, random-phase coefficients; two sweeps on one core of a
    2-core x86_64 machine, numpy 2.4), as convolution time over transform
    time:

        T               gate   grids  median  range
        27-999          no     28     2.37    0.58-5.33
        1000-4095       no      8     1.04    0.45-1.61
        4096-16383      no      9     1.00    0.65-1.58
        4096-16383      yes    11     0.42    0.17-0.94
        16384-131071    yes    20     0.10    0.03-0.67
        131072-531441   yes    18     0.03    0.00-0.12

    The gate lost on none of its 49 grids; the offset rule 4 W <= T alone
    would take all 94 and lose on 33 to 38 of them, by up to 5.3 times.
    """
    reports = []
    for coeffs in vectors:
        view = grid.view(coeffs)
        count = _even_count(view, s)
        if count is not None:
            value, err, method = _count_value(count), 0.0, f"{kind}-count"
        elif (plan := view._convolution_plan(s, 0, fixed=_CONVOLUTION_FIXED)) is not None:
            (value, err), method = _convolved_value(view, plan, normalise), f"{kind}-convolution"
        else:
            value = normalise(view.weighted_power_sum(r))
            err, method = _rounding_estimate(value, grid.total), f"{kind}-exact"
        reports.append(MeanValueReport(value, method, err))
    return reports


def padic_short_mv(
    system: PhaseSystem,
    vectors: Sequence[CoefficientVector],
    r: float,
    scale: ScaleSpec,
    sigma: LocalizationVector,
    *,
    budget: int = DEFAULT_CELL_BUDGET,
    threads: int = 1,
) -> list[MeanValueReport]:
    """The p-adic short mean value of each vector as an exact finite sum
    (see module docs): one report per vector, in order.

    The vectors share one index domain, so the grid is set up once.  Each
    vector takes the first of three methods that applies (see
    :func:`_offset_free_reports`): "padic-count" counts a value exactly in
    integers when :func:`_even_count` applies (the prefactor
    N^(sum(sigma_j - deg_j)) = 1/T cancels Parseval's T), with error bound
    0; for even r, "padic-convolution" convolves the complex histogram when
    4 (W + 1024) <= T, with a rounding bound; every other vector runs the
    transform ("padic-exact").
    """
    vectors, domain, phase_vals = _prepare(system, vectors, r, scale, sigma, budget)
    grid = _GridSum(phase_vals, domain.cell_counts, threads)
    prefactor = 1 / grid.total  # N^(sum(sigma_j - deg_j)), correctly rounded
    return _offset_free_reports(grid, vectors, r, _half_even(r), "padic",
                                lambda total: prefactor * total)


def real_sparse_mv(
    system: PhaseSystem,
    vectors: Sequence[CoefficientVector],
    r: float,
    scale: ScaleSpec,
    sigma: LocalizationVector,
    quad: QuadratureConfig | None = None,
    *,
    budget: int = DEFAULT_CELL_BUDGET,
    threads: int = 1,
) -> list[MeanValueReport]:
    """Real mean value of each vector over the sparse domain (see module docs
    for methods): one report per vector, in order.

    The exact grid runs at sigma = 0 with an even integer r when its
    T = prod_j L_j samples fit NODE_BUDGET, by the first of three methods
    that applies (see :func:`_offset_free_reports`): an exact integer count
    ("real-count", error bound 0) when :func:`_even_count` applies, the
    convolution of the complex histogram ("real-convolution") when
    4 (W + 1024) <= T, else a transform ("real-exact").  Every other input
    runs Gauss cells ("real-gauss").
    """
    quad = quad or QuadratureConfig()
    vectors, domain, phase_vals = _prepare(system, vectors, r, scale, sigma, budget)
    # for even r, |f|^r has axis-j frequencies up to (r/2)(max P_j - min P_j),
    # so the average over a grid one finer is the exact integral (module docs)
    half = _half_even(r) if all(s == 0 for s in sigma.sigma) else None
    moduli = [half * (max(vals) - min(vals)) + 1 for vals in phase_vals] if half else None
    if moduli and math.prod(moduli) <= NODE_BUDGET:
        grid = _GridSum(phase_vals, moduli, threads)
        # L_j exceeds the support of G per axis: the cyclic count is acyclic
        return _offset_free_reports(grid, vectors, r, half, "real",
                                    lambda total: total / grid.total)
    grid = _GridSum(phase_vals, domain.cell_counts, threads)
    levels, _ = _real_gauss(grid, vectors, r, scale, sigma, domain, quad)
    return [MeanValueReport(value, "real-gauss", err) for value, err, _ in levels]


def _real_gauss(
    grid: _GridSum,
    vectors: list[CoefficientVector],
    r: float,
    scale: ScaleSpec,
    sigma: LocalizationVector,
    domain: SparseDomain,
    quad: QuadratureConfig,
) -> tuple[list[tuple[float, float, float]], int]:
    """Two-level Gauss evaluation over the cell grid of ``domain``.

    Each level's offsets, weights and offset factors are built once, and
    every vector runs one per-offset pass on them; a level's value is
    fsum(w_v * sum_v) bit for bit, by one extraction round from
    exact._FSUM_TERMS offsets on.  Only scalars are kept per vector, so
    memory does not grow with the number of vectors.  Returns (value,
    error, max of the fine per-offset sums) per vector, and the number of
    fine offsets.  The error is the gap between the levels plus the fine
    level's rounding estimate (:func:`_rounding_estimate`), so it is not 0
    where the two levels round alike.
    """
    max_abs = [max(abs(v) for v in vals) for vals in grid.phase_vals]
    widths = [2 * h for h in domain.cell_halfwidths]
    depths = resolve_depths(quad, widths, max_abs)
    fine_depths = tuple(s + 1 for s in depths)
    # the fine level has the more nodes of the two
    evaluations = node_count(fine_depths, quad.order) * domain.total_cells
    if evaluations > NODE_BUDGET:
        raise BudgetExceededError(
            f"{evaluations} node evaluations exceed budget {NODE_BUDGET}",
            requested=evaluations,
            budget=NODE_BUDGET,
        )
    levels = []
    for level in (depths, fine_depths):
        offsets, weights = tensor_offsets(domain.cell_halfwidths, level, quad.order)
        factors = _offset_factors(grid.phase_vals, offsets)
        values, tops = [], []
        for coeffs in vectors:
            sums = grid.view(coeffs).per_offset_power_sum(r, factors)
            values.append(_column_sums(weights * sums))
            tops.append(sums.max())
        levels.append(values)
    prefactor = float(_scale_power(scale, Fraction(sum(sigma.sigma))))
    coarse, fine = ([prefactor * v for v in values] for values in levels)
    samples = grid.total * len(offsets)
    return [(f, abs(f - c) + _rounding_estimate(f, samples), top)
            for c, f, top in zip(coarse, fine, tops)], len(offsets)


def transfer_check(
    system: PhaseSystem,
    vectors: Sequence[CoefficientVector],
    r: float,
    scale: ScaleSpec,
    sigma: LocalizationVector,
    quad: QuadratureConfig | None = None,
    tol: float = 1e-6,
    *,
    budget: int = DEFAULT_CELL_BUDGET,
    threads: int = 1,
) -> list[TransferReport]:
    """Per-coefficient transference: real value <= sup of modulated p-adic
    values, one report per vector, in order.

    The grid is the fine-level quadrature node set, for which the real value
    is a positively weighted average of the p-adic values at the grid points,
    so the comparison is guaranteed up to quadrature error.  Both sides read
    the same fine-level per-offset sums.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidInputError(f"tolerance must be a finite number >= 0, got {tol}")
    quad = quad or QuadratureConfig()
    vectors, domain, phase_vals = _prepare(system, vectors, r, scale, sigma, budget)
    grid = _GridSum(phase_vals, domain.cell_counts, threads)
    levels, grid_size = _real_gauss(grid, vectors, r, scale, sigma, domain, quad)
    prefactor = 1 / grid.total  # N^(sum(sigma_j - deg_j)), correctly rounded
    reports = []
    for real_value, qerr, top in levels:
        padic_sup = float(prefactor * top)
        passed = bool(real_value <= (1.0 + tol) * padic_sup + qerr)
        reports.append(TransferReport(real_value, padic_sup, passed, qerr, grid_size))
    return reports


def sample_coefficients(
    sampler: str, domain: IndexDomain, seed: int, draw: int = 0
) -> CoefficientVector:
    """Deterministic coefficient families driven by a counter-based generator."""
    npts = len(domain)
    if sampler == "all-ones":
        return CoefficientVector.ones(domain)
    if sampler == "single-point":
        amp = np.zeros(npts, dtype=np.complex128)
        amp[0] = 1.0
        return CoefficientVector(domain, amp)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, draw % 2**64], dtype=np.uint64))
    )
    if sampler == "random-phase":
        theta = rng.random(npts)
        return CoefficientVector(domain, np.exp(2j * np.pi * theta))
    if sampler == "random-sparse":
        theta = rng.random(npts)
        mask = rng.random(npts) < 0.5
        if not mask.any():
            mask[0] = True
        return CoefficientVector(domain, np.where(mask, np.exp(2j * np.pi * theta), 0.0))
    raise InvalidInputError(f"unknown sampler {sampler!r}; choose from {SAMPLER_NAMES}")


def epsilon_factors(
    system: PhaseSystem, domain: IndexDomain, scale: ScaleSpec
) -> list[float]:
    """The per-component factors 1 / max(1, max_n |P_j(n / N)|).

    Uses the raw (scale-restored) coefficients of each component, since
    normalization rescales them; P_j(n/N) = scale_j * P_j^norm(n) / N^deg_j.
    """
    out = []
    N = scale.N
    for comp in system.components:
        m = max(
            abs(float(comp.scale) * comp.evaluate(pt)) / N**comp.degree
            for pt in domain.points
        )
        out.append(1.0 / max(1.0, m))
    return out


def estimate_restriction_constant(
    system: PhaseSystem,
    domain: IndexDomain,
    r: float,
    scale: ScaleSpec,
    sigma: LocalizationVector,
    side: str = "padic",
    samplers: Sequence[str] = SAMPLER_NAMES,
    draws: int = 4,
    seed: int = 0,
    *,
    budget: int = DEFAULT_CELL_BUDGET,
    threads: int = 1,
) -> RestrictionEstimate:
    """Max of value(a) / sum |a_n|^r over sampled coefficient vectors.

    Every ratio is a certified lower bound for the optimal constant on the
    chosen side; the report records which sampler attained the maximum.  The
    real side runs with the default QuadratureConfig().
    """
    if side not in ("padic", "real"):
        raise InvalidInputError("side must be 'padic' or 'real'")
    if not samplers:
        raise InvalidInputError(f"no sampler given; choose from {SAMPLER_NAMES}")
    if draws < 1:
        raise InvalidInputError(f"draws must be >= 1, got {draws}")
    labels = [(sampler, draw) for sampler in samplers
              for draw in range(draws if sampler.startswith("random") else 1)]
    vectors = [sample_coefficients(sampler, domain, seed, draw)
               for sampler, draw in labels]
    if side == "padic":
        reports = padic_short_mv(system, vectors, r, scale, sigma,
                                 budget=budget, threads=threads)
    else:
        reports = real_sparse_mv(system, vectors, r, scale, sigma,
                                 budget=budget, threads=threads)
    rows = []
    best = (-math.inf, "", -1)
    for (sampler, draw), coeffs, report in zip(labels, vectors, reports):
        denom = coeffs.ell_r(r)
        ratio = report.value / denom
        rows.append(SamplerRow(sampler, draw, seed, report.value, denom, ratio,
                               report.quadrature_error_bound))
        if ratio > best[0]:
            best = (ratio, sampler, draw)
    return RestrictionEstimate(
        value=best[0], best_sampler=best[1], best_draw=best[2], rows=tuple(rows)
    )
