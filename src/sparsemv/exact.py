"""Root tables, exact order-independent summation, exact counting.

Grid phases arrive as exact integer residues t mod m; floating point enters
only when :func:`root_table` turns them into points e(t/m) on the unit
circle.  Every large reduction takes one round of error-free extraction,
which numpy forms without rounding, plus a float sum of the remainder with a
power-of-two error bound, and rounds the two once with math.fsum's
algorithm.  When the bound leaves
the rounding open, the remaining extraction rounds run on the remainder.  So
each total is the correctly rounded sum of its terms and does not depend on
their order or on how the work was chunked or parallelised.  A short sum is
a single math.fsum call, which gives the same bits for less fixed cost.

Convolution powers G = H^{*s} of a sparse histogram of integer key vectors
have one engine (:func:`convolution_power`): each key vector is packed into
one integer by mixed radix (Kronecker substitution), so adding keys is
adding codes, and each convolution pass is an outer sum of codes and an
outer product of weights, grouped by a sort and summed per group in the
order of ``np.add.reduceat``.  The first pass, H * H, forms only the pairs
i <= j and doubles the others' products.  The sort packs each code and its
row index into one int64 word where they fit, so a single np.sort yields
both the order and the sorted codes; codes of several words are joined into
one, ranking a word only where the joint code would pass 2^62.  Its weights
are integer parts for the counts sum_h |G(h)|^2, which
:func:`convolution_counts` forms with no floating point at all (Vinogradov
counts, ``padic-count`` and ``real-count``), or complex for the even-r grid
sums of ``meanvalue``: one column per quadrature offset, or the coefficients
and their moduli for a value without offsets (``padic-convolution`` and
``real-convolution``).
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

import numpy as np

from .errors import BudgetExceededError, InvalidInputError

#: Byte target of one block of intermediate terms: the cells x offsets
#: samples of a grid-sum block, or the pair terms of one convolution chunk,
#: which meanvalue's offset column blocks are sized to fill.  meanvalue reads
#: it from here, so one value sizes both.
_BLOCK_BYTES = 1 << 22

#: Largest radix product packed into one int64 code word, so that the sum of
#: two codes cannot overflow.
_WORD_LIMIT = 1 << 62

#: Fewest codes that _sorted_codes sorts as packed words: np.sort of one
#: word per code against argsort and a gather of the codes.  The packed sort
#: has a few more numpy calls, worth 3-4 us.  Timed on one core of a 2-core
#: x86_64 machine with AVX-512 (numpy 2.4), _sort_reduce of n codes, about
#: n/2 distinct, packed over argsort time (one int64 word with integer or
#: two complex columns, or two words): 1.24-1.42 at n = 256, 1.10-1.18 at
#: 512, 0.97-1.03 at 768, 0.96-0.99 at 1024, 0.84-0.92 at 1536, 0.71-0.86
#: at 4096.
_PACKED_SORT = 1024

#: Fewest keys of H for which the first pass forms only the pairs i <= j.
#: Its index arrays and gathers cost a few more numpy calls than an outer
#: sum.  Timed as _PACKED_SORT, convolution_power at s = 2 of |H| random
#: keys (integer weights acyclic and cyclic, complex weights cyclic), half
#: over full pass time: 1.14-1.22 at |H| = 16, 0.94-1.08 at 32, 0.88-1.01
#: at 48, 0.85-0.90 at 64, 0.59-0.78 at 128.
_HALF_PASS = 48

#: Fewest columns, and fewest sums (segments x columns), of a part whose
#: segment sums _segment_sums forms by gathered row adds.  Their index work
#: and gathers cost a few more numpy calls than reduceat, which pays per
#: segment and column.  Timed as _PACKED_SORT on complex parts of 3 to 3000
#: rows and 1 to 8192 columns, segments of 1 to 2, 3 or 4 rows, row adds over
#: reduceat time: 1.8-15 below 1000 sums, 0.8-2.7 at 1000-4095, and from
#: 4096 sums 0.7-1.4 with 4 columns, 0.2-0.9 with 8 or more (0.25-0.38 at
#: 9 rows x 8192 columns).
_ROW_COLUMNS = 8
_ROW_SUMS = 4096

#: Sums of fewer terms are one math.fsum call.  Timed on one core of a
#: 2-core x86_64 machine (numpy 2.4): fsum of a list takes 0.5 us for one
#: term, 12-16 us for 256 and 23-33 us for 512, one extraction round with its
#: certificate 49-57 us at any length up to 2048, and about 100 us when a
#: rounding tie sends it on to full extraction; fsum costs more from 700-1000
#: terms on.
_FSUM_TERMS = 512

#: Most rows that fsum_rows sums a row at a time across all columns: that
#: work grows with the square of the row count, a math.fsum call per column
#: only linearly.  Extraction partials have a few rows; only the terms of
#: columns past the float range (which extraction passes on whole) have more.
_VECTOR_ROWS = 16

#: Most columns that _column_sums sums one column at a time (see there).
_FEW_COLUMNS = 4


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


def extract_once(
    x: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One round of :func:`extract_partials` down axis 0 of a nonempty 1-d or
    2-d float64 x, with an error bound in place of the further rounds.

    Returns the rows [hi, tail], a bound E per column and the remainder r,
    in ``out`` (x's shape) when given, else in a new array; x is only read.
    hi + sum r is the sum of x exactly, and tail is numpy's sum of r.  With
    mu < 2^e and sigma = 2^(e + log_m) as in
    extract_partials, every |r_i| <= ulp(sigma)/2 = 2^(e + log_m - 53), so
    any summation order of the n < 2^log_m remainders is off by less than
    gamma_(n-1) n 2^(e + log_m - 53) < E = 2^(e + 3 log_m - 105) (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, section 4.2).  E
    underflows to 0 only where every partial sum is subnormal, hence exact.
    A zero column has E = 0.  A column that extract_partials yields whole
    has hi = 0, its terms as the remainder and E = inf.

    A finite, non-negative block (every mean value's |S|^r or |G|^2) takes
    one sigma from the block's maximum, a scalar that its add and subtract
    broadcast without a row of sigmas: a larger sigma than a column's own
    keeps the extraction exact and the analysis above, with E from the
    block's e.  Its bound is 0 where hi = tail = 0, which for terms >= 0
    happens only on a zero column: every q >= 0, so hi = 0 forces q = 0, and
    a float sum of non-negative remainders is 0 only when all of them are.
    Signed blocks, blocks with a nan or inf and blocks too large for one
    sigma take the per-column sigmas.
    """
    log_m = (len(x) + 1).bit_length()
    limit = 2.0 ** (1023 - log_m)  # sigma is finite for mu below it
    top = x.max()
    per_column = not (top < limit and x.min() >= 0.0)  # True for nan
    if per_column:
        mu = np.maximum(x.max(axis=0), -x.min(axis=0))
        whole = ~(mu < limit)  # not finite, or sigma would not be
        e = np.frexp(np.where(whole, 0.0, mu))[1]
    else:
        e = math.frexp(top)[1]
    sigma = np.ldexp(1.0, e + log_m)
    q = np.add(x, sigma, out=out)
    q -= sigma
    if per_column and whole.any():
        np.copyto(q, 0.0, where=whole)
    hi = q.sum(axis=0)
    rest = np.subtract(x, q, out=q)
    with np.errstate(over="ignore", invalid="ignore"):  # terms of whole columns
        tail = rest.sum(axis=0)
    if per_column:
        scale = np.where(whole, np.inf, mu != 0.0)
    else:  # 0 exactly on the zero columns (see above)
        scale = np.where((hi != 0.0) | (tail != 0.0), 1.0, 0.0)
    return np.array([hi, tail]), np.ldexp(scale, e + 3 * log_m - 105), rest


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
    """math.fsum down 1-d rows, or down each column of 2-d rows, bit for bit.

    The 2-d form runs CPython's fsum (Shewchuk, Discrete Comput. Geom. 18,
    1997) on every column at once.  Partials stay in place, zeros among them,
    so the nonzero ones of each column are fsum's list.  The sum from the top
    partial down stops per column at the first inexact step, and the
    half-even fix reads the next nonzero partial below that step.  A column
    with a non-finite partial (a non-finite term, or a partial sum out of
    range) goes to :func:`_fsum`, and so does every column of more than
    _VECTOR_ROWS rows, and a single column, which costs one call.
    """
    if rows.ndim == 1:
        return _fsum(rows.tolist())
    if len(rows) > _VECTOR_ROWS or rows.shape[1] == 1:
        return np.array([_fsum(col) for col in rows.T.tolist()], dtype=np.float64)
    partials = np.array(rows, dtype=np.float64)
    if not len(partials):
        return np.zeros(partials.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(partials)):
            x = partials[i].copy()
            for y in partials[:i]:  # two-sum x + y: x takes hi, y keeps lo
                hi = x + y
                yy = hi - x
                y -= yy
                np.subtract(hi, yy, out=yy)
                np.subtract(x, yy, out=yy)
                y += yy
                x = hi
            partials[i] = x
        total = partials[-1].copy()
        lo, below = np.zeros_like(total), np.zeros_like(total)
        done = np.zeros(total.shape, dtype=bool)
        for y in partials[-2::-1]:
            np.copyto(below, y, where=done & (below == 0.0))
            hi = total + y
            step = y - (hi - total)
            np.copyto(total, hi, where=~done)
            broke = ~done & (step != 0.0)
            np.copyto(lo, step, where=broke)
            done |= broke
        # half-even across partials: lo and the partial below it push the
        # same way, and total + 2 lo is the neighbour they push towards
        fix = ((lo < 0.0) & (below < 0.0)) | ((lo > 0.0) & (below > 0.0))
        if fix.any():
            twice = 2.0 * lo
            hi = total + twice
            np.copyto(total, hi, where=fix & (hi - total == twice))
        special = ~np.isfinite(partials).all(axis=0)
    total += 0.0  # fsum's zero is +0.0
    for col in np.flatnonzero(special):
        total[col] = _fsum(rows[:, col].tolist())
    return total


def certified(partials: np.ndarray, bound: np.ndarray) -> tuple:
    """The rounded total of partials + [bound] (down axis 0), and whether it
    is also that of partials + [-bound], per column.

    Rounding to nearest is monotone, so where the two agree they are the
    correctly rounded value of every number within the bound of the
    partials' exact total.
    """
    upper = fsum_rows(np.concatenate([partials, bound[None]]))
    lower = fsum_rows(np.concatenate([partials, -bound[None]]))
    return upper, upper == lower


def _total(values: np.ndarray) -> float:
    x = np.asarray(values, dtype=np.float64).ravel()
    if len(x) < _FSUM_TERMS:
        return _fsum(x.tolist())
    rows, bound, rest = extract_once(x)
    total, ok = certified(rows, bound)
    if ok:
        return total
    return _fsum([float(rows[0])] + extract_partials(rest).tolist())


def _column_sums(x: np.ndarray) -> np.ndarray:
    """math.fsum down each column of a 2-d float64 x, bit for bit: one
    extraction round and its certificate, full extraction for the columns it
    leaves open.  x is only read.

    Up to _FEW_COLUMNS columns are summed one at a time by :func:`_total`,
    which gives the same bits.  Timed on one core of a 2-core x86_64 machine
    (numpy 2.4), the vectorised round with its certificate costs 150-280 us
    on one to four columns of 9 to 600 rows, one column at a time 4-140 us;
    at 5000 and 50000 rows it took 160-7000 us against 40-800 us."""
    if not len(x):
        return np.zeros(x.shape[1])
    if x.shape[1] <= _FEW_COLUMNS:
        return np.array([_total(col) for col in x.T], dtype=np.float64)
    rows, bound, _ = extract_once(x)
    sums, ok = certified(rows, bound)
    if not ok.all():
        sums[~ok] = fsum_rows(extract_partials(x[:, ~ok]))
    return sums


def _blocked_sums(blocks: list, terms, buffers, threads: int = 1) -> np.ndarray:
    """math.fsum down each column of the terms of all blocks together, bit
    for bit, with one extraction round per block.

    ``terms(block, buf)`` forms one block's terms as a 2-d float64 array in
    the work space ``buf`` and returns them with a scratch array of the same
    shape; ``buffers()`` allocates the work space of one worker.  Workers
    take contiguous runs of the blocks on up to ``threads`` threads, each
    through the work space it allocates once.  Each block takes one round
    of :func:`extract_once`: its [hi, tail] rows fold exactly into a few
    rows of partials, and its bounds E_b add up to at most
    2^ceil(log2 B) max_b E_b over the B blocks.  Columns this bound does not
    certify rerun the same blocks with full extraction.  Either way the sums
    depend on neither the thread count nor the order or size of the blocks.
    """
    workers = min(threads, len(blocks))
    runs = [blocks[w * len(blocks) // workers:(w + 1) * len(blocks) // workers]
            for w in range(workers)]
    jobs = [(run, buffers()) for run in runs]

    def fold(pieces) -> tuple[np.ndarray, np.ndarray]:
        # several pieces' rows as one, taken down to their exact partials
        # past two pieces' worth, so that the certificate sums a few rows
        pieces = list(pieces)
        rows = np.concatenate([rows for rows, _ in pieces])
        if len(rows) > 4:
            rows = extract_partials(rows)
        return rows, np.max([bound for _, bound in pieces], axis=0)

    def reduced(one_round: bool) -> tuple[np.ndarray, np.ndarray]:
        def run(job) -> tuple[np.ndarray, np.ndarray]:
            pieces = []
            for block in job[0]:
                x, scratch = terms(block, job[1])
                if one_round:
                    pieces.append(extract_once(x, out=scratch)[:2])
                else:
                    pieces.append((extract_partials(x), np.zeros(x.shape[1])))
                if len(pieces) == 8:  # holds a few rows per column
                    pieces = [fold(pieces)]
            return fold(pieces)

        return fold(_map_threads(run, jobs, threads))

    partials, bound = reduced(one_round=True)
    sums, ok = certified(partials, np.ldexp(bound, (len(blocks) - 1).bit_length()))
    if not ok.all():
        sums[~ok] = fsum_rows(reduced(one_round=False)[0][:, ~ok])
    return sums


def _map_threads(fn, items: list, threads: int) -> list:
    """list(map(fn, items)), on up to ``threads`` threads for several items."""
    if threads == 1 or len(items) == 1:
        return list(map(fn, items))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def tree_sum(values: np.ndarray | Iterable) -> complex | float:
    """The correctly rounded sum of an array: math.fsum's value, bit for bit.

    It depends neither on the order of the elements nor on any chunking or
    parallel partitioning of them.  Complex input is summed part by part.
    Fewer than _FSUM_TERMS terms go to math.fsum itself.  For longer input
    one extraction round and the certificate of :func:`certified` settle
    almost every sum; the rest finish the extraction on the remainder.
    """
    arr = values if isinstance(values, np.ndarray) else np.asarray(list(values))
    if np.iscomplexobj(arr):
        return complex(_total(arr.real), _total(arr.imag))
    return _total(arr)


def modulus_power(abs_squared: np.ndarray, r: float) -> np.ndarray:
    """|z|^r from |z|^2, for real r >= 2, in a new array (see :func:`_power_into`)."""
    return _power_into(abs_squared, r, np.empty(np.shape(abs_squared)))


def _power_into(abs_squared: np.ndarray, r: float, out: np.ndarray,
                work: np.ndarray | None = None) -> np.ndarray:
    """|z|^r from |z|^2, for real r >= 2, written into and returned as out.

    Even integer exponents stay in pure multiplications.  Odd integer
    exponents take |z|^(r-1) sqrt(|z|^2), the root in ``work`` (a new array
    when None): each factor is within an ulp, where exp and log lose a few
    ulps to the rounding of the log.  Other exponents use exp((r/2) log
    |z|^2), which maps zeros to zero.  out may be abs_squared itself, which
    is otherwise only read.  A power past the float range is inf, without
    numpy's warning: the callers reject an infinite mean value with a
    one-line message.
    """
    half = r / 2.0
    with np.errstate(over="ignore"):
        if half == int(half):
            return np.power(abs_squared, int(half), out=out)
        if r == int(r):
            root = np.sqrt(abs_squared, out=work)
            rest = abs_squared if half < 2 else np.power(abs_squared, int(half), out=out)
            return np.multiply(rest, root, out=out)
        with np.errstate(divide="ignore"):  # log 0 = -inf and exp(-inf) = 0
            np.log(abs_squared, out=out)
        out *= half
        return np.exp(out, out=out)


def _integer_parts(weights, s: int) -> tuple[list[np.ndarray], bool, int] | None:
    """The real and (when nonzero) imaginary parts of Gaussian-integer weights,
    or None when some weight is not a (finite) Gaussian integer.

    With m the largest |Re w| or |Im w| times their count, at least the mass
    sum |Re w| + |Im w|, m^s bounds every value of every convolution power:
    the parts are int64 when m^s stays below 2^62, and Python ints otherwise.
    The flag says whether m^(2s), which bounds the final sum of squares,
    reaches 2^62.  Last comes the number of 62-bit words that a value of
    the powers takes at most: 1 for int64 parts, else that of 2^(s b) > m^s,
    b the bit length of m.
    """
    w = np.ascontiguousarray(weights)
    flat = w.view(np.float64) if w.dtype.kind == "c" else w  # re, im interleaved
    if flat.dtype.kind == "f":
        if np.abs(flat).max(initial=0.0) < _WORD_LIMIT:  # False for nan
            ints = flat.astype(np.int64)
            exact = (ints == flat).all()
        else:
            values = flat.tolist()
            exact = all(x.is_integer() for x in values)
            ints = np.array([int(x) for x in values] if exact else [], dtype=object)
        if not exact:
            return None
    else:
        ints = flat if flat.dtype == object else flat.astype(np.int64)
    parts = [ints[0::2], ints[1::2]] if w.dtype.kind == "c" else [ints]
    if len(parts) == 2 and not parts[1].any():
        parts.pop()
    bound = int(np.abs(ints).max(initial=0)) * len(ints)
    words = 1
    # a bound of 2 or more passes 2^62 by its 62nd power: a larger s adds nothing
    if bound ** min(s, 62) >= _WORD_LIMIT:
        parts = [part.astype(object) for part in parts]
        words = -(-s * bound.bit_length() // 62)
    return parts, bound ** min(2 * s, 62) >= _WORD_LIMIT, words


def _word_groups(radices: list[int]) -> tuple[list[list[int]], type]:
    """Axis groups packed into one code word each, and the words' dtype.

    One int64 word when the radix product fits, several (greedy groups)
    when every single radix fits, else one word of Python ints.
    """
    if math.prod(radices) <= _WORD_LIMIT:
        return [list(range(len(radices)))], np.int64
    if max(radices) > _WORD_LIMIT:
        return [list(range(len(radices)))], object
    groups, size = [[]], 1
    for axis, radix in enumerate(radices):
        if size * radix > _WORD_LIMIT:
            groups.append([])
            size = 1
        groups[-1].append(axis)
        size *= radix
    return groups, np.int64


def _pack(digits, groups, radices) -> list[np.ndarray]:
    """Mixed-radix code words of the per-axis digits (Horner order)."""
    words = []
    for group in groups:
        word = digits[group[0]]
        for axis in group[1:]:
            word = word * radices[axis] + digits[axis]
        words.append(word)
    return words


def _unpack(words, groups, radices) -> list[np.ndarray]:
    """The per-axis digits of mixed-radix code words."""
    digits = [None] * len(radices)
    for word, group in zip(words, groups):
        for axis in reversed(group):
            digits[axis] = word % radices[axis]
            word = word // radices[axis]
    return digits


def _packed_shift(code: np.ndarray) -> int | None:
    """b, the bit length of n - 1 for n codes, when every code is a
    non-negative int64 below 2^(62 - b), so that (code << b) | row fits one
    int64 word; else None."""
    shift = (len(code) - 1).bit_length()
    # negative codes pass 2^63 as unsigned words
    if code.dtype == np.int64 and code.view(np.uint64).max() >> (62 - shift) == 0:
        return shift
    return None


def _sorted_codes(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The codes in ascending order and the permutation that sorts them.

    From _PACKED_SORT codes on, codes that fit (:func:`_packed_shift`) are
    sorted as one packed word each, (code << b) | row, by np.sort: the high
    bits are the sorted codes and the low bits the permutation, rows of
    equal codes in ascending order.  Other codes (fewer, wider, or Python
    ints) take argsort.
    """
    shift = _packed_shift(code) if len(code) >= _PACKED_SORT else None
    if shift is None:
        order = code.argsort()
        return code[order], order
    packed = code << shift
    packed |= np.arange(len(code))
    packed.sort()
    order = packed & ((1 << shift) - 1)
    packed >>= shift
    return packed, order


def _rank(values: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank of each value among the distinct values, and their number."""
    ordered, order = _sorted_codes(values)
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.concatenate(([0], np.cumsum(ordered[1:] != ordered[:-1])))
    return ranks, int(ranks.max()) + 1


def _joint_code(words: list[np.ndarray]) -> np.ndarray:
    """One int64 code per row that is equal exactly where all words are and
    orders the rows as their words do, first word first.

    Words are non-negative int64.  Each word joins the code by mixed radix,
    code * width + word with width its largest value + 1.  Only where that
    product would pass 2^62 is the wider of the two replaced by its ranks
    among its distinct values (one sort), and then the other if that is not
    enough.  Ranks keep the order, so the code does too.
    """
    code = words[0]
    if len(words) == 1:
        return code
    size = int(code.max()) + 1
    for word in words[1:]:
        width = int(word.max()) + 1
        # ranks each of the two at most once: n rows have at most n ranks,
        # and n^2 < 2^62
        while size * width > _WORD_LIMIT:
            if size >= width:
                code, size = _rank(code)
            else:
                word, width = _rank(word)
        code = code * width + word
        size *= width
    return code


def _sort_reduce(words, parts):
    """Sum the weight parts over equal codes: one entry per distinct code,
    in ascending order of the codes (:func:`_joint_code` for several words).

    A part may carry trailing axes (one column per offset, say): rows are
    grouped and summed along its first axis (:func:`_segment_sums`).
    """
    if len(parts[0]) == 0:
        return words, parts
    code, order = _sorted_codes(_joint_code(words))
    new = np.empty(len(code), dtype=bool)
    new[0] = True
    np.not_equal(code[1:], code[:-1], out=new[1:])
    starts = new.nonzero()[0]
    if len(words) == 1:  # the code is the word itself
        words = [code[starts]]
    else:
        first = order[starts]
        words = [word[first] for word in words]
    del code, new  # freed before the gathers below
    return words, [_segment_sums(part, order, starts) for part in parts]


def _segment_sums(part: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """np.add.reduceat(part[order], starts), bit for bit.

    reduceat sums a segment a_0, ..., a_(L-1) of rows as a_0 + (a_1 + ... +
    a_(L-1)), the bracket by numpy's pairwise summation, which adds in
    sequence while it holds fewer than 8 doubles per column: L <= 8 float64
    rows, or L <= 4 complex128 rows.  When every segment is that short and
    the part has at least _ROW_COLUMNS columns and _ROW_SUMS sums, the rows
    are gathered and added in that order, one row of every segment at a
    time, which skips reduceat's inner loop per segment and column.  Other
    parts, 1-d ones among them (counts and histograms), take reduceat.
    """
    columns = math.prod(part.shape[1:])
    if part.ndim == 1 or columns < _ROW_COLUMNS or len(starts) * columns < _ROW_SUMS:
        return np.add.reduceat(part[order], starts)
    lengths = np.diff(starts, append=len(order))
    longest = int(lengths.max())
    if (longest - 1) * part.itemsize >= 64:
        return np.add.reduceat(part[order], starts)
    out = part[order[starts]]
    if longest > 1:
        segs = np.flatnonzero(lengths > 1)
        rest = part[order[starts[segs] + 1]]
        for k in range(2, longest):
            more = np.flatnonzero(lengths[segs] > k)
            rest[more] += part[order[starts[segs[more]] + k]]
        out[segs] += rest
    return out


def _concat_reduce(pieces):
    """One sort-reduced histogram of several (words, parts) pieces."""
    if len(pieces) == 1:
        return pieces[0]
    words = [np.concatenate(ws) for ws in zip(*(p[0] for p in pieces))]
    parts = [np.concatenate(ps) for ps in zip(*(p[1] for p in pieces))]
    return _sort_reduce(words, parts)


def _products(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """The weights a times the weights b, broadcast: the real part's, or the
    two parts of Gaussian products."""
    if len(b) == 1:
        return [a[0] * b[0]]
    return [a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]]


def _upper_pairs(lo: int, hi: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs (i, j), i <= j < n, of the rows lo <= i < hi, row-major, as
    index arrays, and the positions of the pairs (i, i) among them."""
    rows = np.arange(lo, hi)
    lengths = n - rows
    diagonal = np.cumsum(lengths) - lengths
    i = np.repeat(rows, lengths)
    j = np.repeat(rows - diagonal, lengths)
    j += np.arange(len(j))
    return i, j, diagonal


def convolution_counts(
    keys, weights, s: int, moduli=None, max_work=None
) -> int | None:
    """sum_h |G(h)|^2 for G = H^{*s}, H[h] = sum {weights[i] : keys[i] = h}.

    ``weights`` holds n numbers, the other arguments are those of
    :func:`convolution_power`, which convolves their real and imaginary
    parts as integers.  The result is an exact Python int, or None when some
    weight is not a Gaussian integer; work over ``max_work`` raises as in
    :func:`convolution_power`.  When the parts are Python ints, the work W is
    charged once per 62-bit word of their bound m^s (:func:`_integer_parts`),
    since each pair multiplies and adds numbers that wide.
    """
    if s < 1:
        raise InvalidInputError(f"convolution power must be >= 1, got {s}")
    integer_parts = _integer_parts(weights, s)
    if integer_parts is None:
        return None
    parts, wide_squares, words = integer_parts
    # a pass over Python ints costs per 62-bit word of the values it forms:
    # W pairs of `words` words each are charged W * words
    try:
        G = convolution_power(keys, parts, s, moduli,
                              None if max_work is None else max_work // words)
    except BudgetExceededError as exc:
        if words == 1:
            raise
        work = exc.requested * words
        raise BudgetExceededError(
            f"convolution work {exc.requested} pairs x {words} words of 62 bits "
            f"= {work} exceeds budget {max_work}", requested=work, budget=max_work
        ) from None
    total = 0
    for part in G:
        if wide_squares:
            part = part.astype(object)
        total += int(np.dot(part, part))
    return total


def convolution_power(keys, parts, s: int, moduli=None, max_work=None):
    """The parts of G = H^{*s}, one row per key of its support, for the
    histogram H[h] = sum {parts[i] : keys[i] = h}.

    ``keys`` holds the k coordinates of the n keys as k integer arrays, one
    per axis (int64, or Python ints in object arrays), and ``parts`` the
    weights as a list of arrays of n rows: the real and imaginary parts of
    integer weights, say, or one complex array whose trailing axes carry a
    column per quadrature offset.  Parts are added and multiplied in their
    own dtype, column by column.  Without moduli the convolution is acyclic
    on Z^k; with moduli M_j it is cyclic on prod Z/M_j.  When the work bound
    W = sum_{t=1}^{s-1} min(|H|^t, prod M_j) |H| read from the histogram
    exceeds ``max_work``, BudgetExceededError(requested=W, budget=max_work)
    is raised before any pair is formed.  Keys whose parts cancel to 0 in
    every column are not in H.

    Each key is shifted by its axis minimum and packed by mixed radix, axis
    j with radix s * span_j + 1 (acyclic), so a sum of at most s packed keys
    never carries, or M_j (cyclic), folding digits mod M_j after every pass,
    so the support never exceeds prod M_j.  Each of the s - 1 passes forms
    the outer sum of codes with H's and the outer product of parts, in
    chunks of about _BLOCK_BYTES, each summed over equal codes by
    :func:`_sort_reduce`, which also merges the chunks.  The passes form
    sum_{t=2}^{s-1} |H^{*t}| |H| pairs after a first pass of |H|^2, or of
    |H| (|H| + 1) / 2 (the pairs i <= j, :func:`_convolve`) from _HALF_PASS
    keys on; since |H^{*t}| <= min(|H|^t, prod of the radices), that is at
    most the work bound W.
    """
    if s < 1:
        raise InvalidInputError(f"convolution power must be >= 1, got {s}")
    columns = [np.asarray(col) for col in keys]
    if any(col.shape != (len(parts[0]),) for col in columns):
        raise InvalidInputError("every key axis needs one coordinate per weight")
    if not len(parts[0]):
        return parts
    if moduli is None:
        lows = [int(col.min()) for col in columns]
        radices = [s * (int(col.max()) - low) + 1 for col, low in zip(columns, lows)]
    else:
        radices = [int(m) for m in moduli]
    groups, dtype = _word_groups(radices)
    if dtype is object:
        columns = [col.astype(object) for col in columns]
    if moduli is None:
        digits = [col - low for col, low in zip(columns, lows)]
    else:
        digits = [col % radix for col, radix in zip(columns, radices)]
    digits = [d.astype(dtype, copy=False) for d in digits]
    words, parts = _sort_reduce(_pack(digits, groups, radices), parts)
    keep = np.zeros(len(parts[0]), dtype=bool)
    for part in parts:
        keep |= (part != 0).reshape(len(part), -1).any(axis=1)
    hist = [word[keep] for word in words], [part[keep] for part in parts]
    support = len(hist[1][0])
    # the radices bound the support of every power, cyclic or acyclic
    cap = math.prod(radices)
    if max_work is not None and (work := _convolution_work(support, s, cap)) > max_work:
        raise BudgetExceededError(f"convolution work {work} exceeds budget {max_work}",
                                  requested=work, budget=max_work)
    if not support:
        return hist[1]
    # cyclic passes add digits and fold them; acyclic passes add codes
    hist_digits = _unpack(hist[0], groups, radices) if moduli is not None else None
    acc = hist
    for _ in range(s - 1):
        acc = _convolve(acc, hist, hist_digits, groups, radices)
    return acc[1]


def _convolution_work(support: int, s: int, cap: int) -> int:
    """W = sum_{t=1}^{s-1} min(|H|^t, cap) |H|: the pairs that the s - 1
    passes of H^{*s} form at most, for a histogram of |H| = support keys
    whose convolution powers have at most cap keys.  It takes at most
    log2(cap) steps, whatever s."""
    work, size = 0, support
    for t in range(1, s):
        if size >= cap or support < 2:  # the remaining passes are all alike
            return work + (s - t) * min(size, cap) * support
        work += size * support
        size *= support
    return work


def _value_bytes(a: np.ndarray, h: np.ndarray, copies: int) -> int:
    """Bytes per pair term of ``copies`` entries for a product of a value of
    a and one of h.  A Python int (object arrays) is a pointer per entry and
    one int object as wide as the product of the widest values of a and h."""
    entries = copies * a[:1].nbytes
    if a.dtype != object:
        return entries
    bits = int(np.abs(a).max()).bit_length() + int(np.abs(h).max()).bit_length()
    return entries + sys.getsizeof(1 << bits)


def _convolve(acc, hist, hist_digits, groups, radices):
    """One pass acc * H, chunked over the rows of acc (convolution_power).

    With H's digits the pass is cyclic: digit sums are folded mod the radix.
    The first pass, H * H, forms only the pairs i <= j once |H| reaches
    _HALF_PASS, with the products of the pairs i < j doubled: the products
    t_i t_j and t_j t_i are the same number, in floating point the same
    bits, so twice one is exactly their sum.  A pair term takes 16 bytes
    per code word and 16 for its sort order, and per part two entries, its
    product and the sorted copy (:func:`_value_bytes`).  In a first pass of
    pairs i <= j it takes 16 more for its two indices, and a third entry,
    since each product forms from two gathered operands.
    """
    acc_words, acc_parts = acc
    hist_words, hist_parts = hist
    n, width = len(acc_parts[0]), len(hist_parts[0])
    half = acc is hist and width >= _HALF_PASS
    term_bytes = 16 * len(acc_words) + 16 + 16 * half + sum(
        _value_bytes(a, h, 2 + half) for a, h in zip(acc_parts, hist_parts))
    block = max(1, _BLOCK_BYTES // (term_bytes * width)) * width
    if hist_digits is not None:
        acc_digits = hist_digits if acc is hist else _unpack(acc_words, groups, radices)
    pieces, size, merged, lo = [], 0, 0, 0
    while lo < n:
        # a chunk's rows hold at most a block of pair terms: width each, or
        # at most width - lo from row lo on in a first pass of pairs i <= j
        hi = min(n, lo + max(1, block // (width - lo if half else width)))
        # the operands of the pair terms are acc[left] and H[right]:
        # broadcast rows lo..hi against all of H, or index arrays
        if half:
            left, right, diagonal = _upper_pairs(lo, hi, width)
        else:
            left, right = (slice(lo, hi), None), None
        if hist_digits is not None:
            digits = []
            for a, h, m in zip(acc_digits, hist_digits, radices):
                d = (a[left] + h[right]).reshape(-1)
                d %= m
                digits.append(d)
            words = _pack(digits, groups, radices)
        else:
            words = [(a[left] + h[right]).reshape(-1)
                     for a, h in zip(acc_words, hist_words)]
        parts = _products([a[left] for a in acc_parts], [h[right] for h in hist_parts])
        parts = [part.reshape((-1,) + acc_parts[0].shape[1:]) for part in parts]
        del left, right
        if half:
            rows = [part[lo:hi] for part in acc_parts]
            squares = _products(rows, rows)
            for part, square in zip(parts, squares):
                part *= 2
                part[diagonal] = square
        pieces.append(_sort_reduce(words, parts))
        del words, parts
        size += len(pieces[-1][1][0])
        # merge once the pieces pass a block and twice the last merge, so
        # memory stays near one block and the merges near linear total work
        if size > max(block, 2 * merged):
            pieces = [_concat_reduce(pieces)]
            size = merged = len(pieces[0][1][0])
        lo = hi
    return _concat_reduce(pieces)
