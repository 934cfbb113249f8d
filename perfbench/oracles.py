"""Reference values for the benchmark's correctness checks.

Nothing here calls the package's grid evaluator (`meanvalue._GridSum`) or its
solution counters.  Grid sums are one inverse FFT of the phase histogram:

    S(iota) = sum_n a_n e(sum_j iota_j P_j(n) / M_j) = T * ifftn(H)[iota],
    H[h] = sum {a_n : P(n) = h mod M},  T = prod_j M_j.

Integer mean values (Gaussian-integer coefficients, even r = 2s) and
Vinogradov counts come from exact sparse-histogram convolution over Python
integers: sum_iota |S|^(2s) / T = sum_h |H^{*s}(h)|^2, cyclic on prod Z/M_j
for p-adic sums and acyclic on Z^k for the real torus integral and for J.

Phase values P_j(n) = Tr(beta^j alpha^l) / scale_(j,l) are computed with
integer companion-matrix arithmetic; only the positive normalising scale of
each component is read from the package.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

#: Relative tolerance of every floating-point comparison against an oracle.
RTOL = 1e-9

SAMPLERS = ("all-ones", "single-point", "random-phase", "random-sparse")


# --- number fields by companion matrix ------------------------------------

def parse_minpoly(text: str) -> list[int]:
    """Ascending coefficients c_0..c_{d-1} of the monic minimal polynomial."""
    coeffs = [Fraction(part) for part in text.split(",")]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"oracle needs an integral minimal polynomial, got {text}")
    return [int(c) for c in coeffs]


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def _identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _companion(coeffs):
    """Matrix of multiplication by alpha on the basis 1, alpha, ..., alpha^(d-1)."""
    d = len(coeffs)
    c = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        c[i + 1][i] = 1
    for i in range(d):
        c[i][d - 1] = -coeffs[i]
    return c


def _alpha_powers(coeffs, count):
    d = len(coeffs)
    comp = _companion(coeffs)
    out = [_identity(d)]
    for _ in range(1, count):
        out.append(_matmul(out[-1], comp))
    return out


def _element_matrix(alpha_pows, coords):
    d = len(coords)
    m = [[0] * d for _ in range(d)]
    for n_i, a_pow in zip(coords, alpha_pows):
        if n_i:
            for r in range(d):
                for c in range(d):
                    m[r][c] += n_i * a_pow[r][c]
    return m


def _trace(m):
    return sum(m[i][i] for i in range(len(m)))


def power_traces(minpoly: str, kappa_max: int) -> list[int]:
    """Tr(alpha^kappa) for kappa = 0..kappa_max."""
    coeffs = parse_minpoly(minpoly)
    return [_trace(m) for m in _alpha_powers(coeffs, kappa_max + 1)]


def raw_phases(minpoly: str, k: int, points) -> list[list[int]]:
    """Tr(beta^j alpha^l) per component (j = 1..k, l = 0..d-1) and point."""
    coeffs = parse_minpoly(minpoly)
    d = len(coeffs)
    alpha_pows = _alpha_powers(coeffs, d)
    rows = [[] for _ in range(k * d)]
    for pt in points:
        beta = _element_matrix(alpha_pows, pt)
        acc = _identity(d)
        for j in range(1, k + 1):
            acc = _matmul(acc, beta)
            for ell in range(d):
                rows[(j - 1) * d + ell].append(_trace(_matmul(acc, alpha_pows[ell])))
    return rows


def phases(minpoly: str, k: int, points, scales) -> list[list[int]]:
    """Normalised integer phases P_j(n) = Tr(beta^j alpha^l) / scale_j."""
    out = []
    for raw, scale in zip(raw_phases(minpoly, k, points), scales):
        row = []
        for v in raw:
            q = Fraction(v) / Fraction(scale)
            if q.denominator != 1:
                raise ValueError(f"trace {v} not divisible by scale {scale}")
            row.append(int(q))
        out.append(row)
    return out


def field_keys(minpoly: str, k: int, N: int) -> list[tuple[int, ...]]:
    """Power-basis coordinates of beta^1..beta^k for every beta in [0, N)^d."""
    coeffs = parse_minpoly(minpoly)
    d = len(coeffs)
    alpha_pows = _alpha_powers(coeffs, d)
    keys = []
    for pt in box_points(N, d):
        beta = _element_matrix(alpha_pows, pt)
        col = [[v] for v in pt]  # coordinates of beta
        parts = list(pt)
        for _ in range(k - 1):
            col = [[sum(beta[r][t] * col[t][0] for t in range(d))] for r in range(d)]
            parts.extend(c[0] for c in col)
        keys.append(tuple(parts))
    return keys


def box_points(N: int, d: int) -> list[tuple[int, ...]]:
    """[0, N)^d in lexicographic order."""
    pts = [()]
    for _ in range(d):
        pts = [p + (i,) for p in pts for i in range(N)]
    return pts


# --- coefficient families -------------------------------------------------

def sampler_values(sampler: str, npts: int, seed: int, draw: int) -> np.ndarray:
    """The documented CLI sampler families (Philox keyed by seed and draw)."""
    if sampler == "all-ones":
        return np.ones(npts, dtype=np.complex128)
    if sampler == "single-point":
        out = np.zeros(npts, dtype=np.complex128)
        out[0] = 1.0
        return out
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, draw % 2**64], dtype=np.uint64))
    )
    theta = rng.random(npts)
    if sampler == "random-phase":
        return np.exp(2j * np.pi * theta)
    if sampler == "random-sparse":
        mask = rng.random(npts) < 0.5
        if not mask.any():
            mask[0] = True
        return np.where(mask, np.exp(2j * np.pi * theta), 0.0)
    raise ValueError(f"unknown sampler {sampler}")


def gaussian_integers(values) -> list[tuple[int, int]] | None:
    """(re, im) integer pairs when every value is a Gaussian integer, else None."""
    out = []
    for z in values:
        z = complex(z)
        if z.real != int(z.real) or z.imag != int(z.imag):
            return None
        out.append((int(z.real), int(z.imag)))
    return out


# --- grid sums ------------------------------------------------------------

def grid_power_sum(phase_rows, values, moduli, r, offsets=None, weights=None) -> float:
    """sum_iota |S(iota)|^r, or sum_v w_v sum_iota |S(iota, v)|^r with offsets.

    With offsets v the coefficients are modulated a_n e(v . P(n)) first; every
    offset is one batched inverse FFT of its histogram.
    """
    values = np.asarray(values, dtype=np.complex128)
    moduli = tuple(int(m) for m in moduli)
    total = math.prod(moduli)
    residues = [np.array([x % m for x in row], dtype=np.int64)
                for row, m in zip(phase_rows, moduli)]
    flat = np.ravel_multi_index(tuple(residues), moduli)
    if offsets is None:
        batch = values[None, :]
        weights = np.ones(1)
    else:
        turns = np.asarray(offsets, dtype=np.float64) @ np.asarray(
            phase_rows, dtype=np.float64)
        batch = values[None, :] * np.exp(2j * np.pi * turns)
    hist = np.zeros((batch.shape[0], total), dtype=np.complex128)
    for n, h in enumerate(flat):
        hist[:, h] += batch[:, n]
    axes = tuple(range(1, len(moduli) + 1))
    S = total * np.fft.ifftn(hist.reshape((batch.shape[0],) + moduli), axes=axes)
    power = np.abs(S) ** r
    per_offset = power.reshape(batch.shape[0], -1).sum(axis=1)
    return float(np.dot(per_offset, np.asarray(weights, dtype=np.float64)))


def exact_power_sum(phase_rows, gints, s: int, moduli=None) -> int:
    """sum_h |H^{*s}(h)|^2 over Gaussian-integer coefficients, exactly.

    Cyclic on prod Z/M_j when moduli are given (the p-adic value), acyclic on
    Z^k otherwise (the real torus integral of |f|^(2s)).
    """
    base: dict[tuple, tuple[int, int]] = {}
    for n, (re, im) in enumerate(gints):
        if re == 0 and im == 0:
            continue
        key = tuple(row[n] % m for row, m in zip(phase_rows, moduli)) if moduli \
            else tuple(row[n] for row in phase_rows)
        a, b = base.get(key, (0, 0))
        base[key] = (a + re, b + im)
    acc = dict(base)
    for _ in range(s - 1):
        nxt: dict[tuple, tuple[int, int]] = {}
        for k1, (a1, b1) in acc.items():
            for k2, (a2, b2) in base.items():
                if moduli:
                    key = tuple((x + y) % m for x, y, m in zip(k1, k2, moduli))
                else:
                    key = tuple(x + y for x, y in zip(k1, k2))
                a, b = nxt.get(key, (0, 0))
                nxt[key] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
        acc = nxt
    return sum(a * a + b * b for a, b in acc.values())


def count_J(keys, s: int) -> int:
    """J = sum over keys of (s-fold sum multiplicity)^2, by histogram convolution."""
    single = Counter(keys)
    acc = Counter(single)
    for _ in range(s - 1):
        nxt: Counter = Counter()
        for k1, c1 in acc.items():
            for k2, c2 in single.items():
                nxt[tuple(x + y for x, y in zip(k1, k2))] += c1 * c2
        acc = nxt
    return sum(c * c for c in acc.values())


# --- quadrature nodes -----------------------------------------------------

def gauss_offsets(halfwidths, max_abs, order: int = 4):
    """Fine-level tensor Gauss nodes and weights of the real Gauss path.

    The coarse depth on each axis is the smallest s with subcell phase
    variation (2 h_j max|P_j|) 2^-s <= 1/4; the reported value uses s + 1.
    """
    xi, w = np.polynomial.legendre.leggauss(order)
    axis_nodes, axis_weights = [], []
    for h, m in zip(halfwidths, max_abs):
        variation = float(2 * h) * float(m)
        s = 0
        while variation * 2.0**-s > 0.25:
            s += 1
        pieces = 2 ** (s + 1)
        half = float(h) / pieces
        centers = -float(h) + (2 * np.arange(pieces) + 1) * half
        axis_nodes.append((centers[:, None] + half * xi[None, :]).ravel())
        axis_weights.append(np.tile(half * w, pieces))
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.ones(offsets.shape[0])
    for g in np.meshgrid(*axis_weights, indexing="ij"):
        weights = weights * g.ravel()
    return offsets, weights


# --- mean values ----------------------------------------------------------

def padic_cells(p: int, K: int, degrees, sigma) -> list[int]:
    """Cell counts p^((deg_j - sigma_j) K) of the sparse domain."""
    out = []
    for deg, sig in zip(degrees, sigma):
        e = (deg - Fraction(sig)) * K
        if e.denominator != 1:
            raise ValueError("sigma*K not integral")
        out.append(p ** int(e))
    return out


def padic_mean(phase_rows, values, p, K, degrees, sigma, r) -> dict:
    """Expected p-adic short mean value; exact when the inputs allow it."""
    moduli = padic_cells(p, K, degrees, sigma)
    exponent = sum(Fraction(s) - d for s, d in zip(sigma, degrees)) * K
    prefactor = Fraction(p) ** int(exponent)
    value = float(prefactor) * grid_power_sum(phase_rows, values, moduli, r)
    return {"value": value, "exact": _exact_or_none(phase_rows, values, r, moduli)}


def real_grid_mean(phase_rows, values, r) -> dict:
    """Expected real value on the exact sampling grid (sigma = 0, even r)."""
    moduli = [(int(r) // 2) * (max(row) - min(row)) + 1 for row in phase_rows]
    value = grid_power_sum(phase_rows, values, moduli, r) / math.prod(moduli)
    return {"value": value, "exact": _exact_or_none(phase_rows, values, r, None)}


def real_gauss_mean(phase_rows, values, p, K, degrees, sigma, r) -> dict:
    """Expected fine-level value of the real Gauss path."""
    N = p**K
    moduli = padic_cells(p, K, degrees, sigma)
    halfwidths = [Fraction(1, 2 * N**d) for d in degrees]
    max_abs = [max(abs(v) for v in row) for row in phase_rows]
    offsets, weights = gauss_offsets(halfwidths, max_abs)
    prefactor = Fraction(p) ** int(sum(Fraction(s) for s in sigma) * K)
    total = grid_power_sum(phase_rows, values, moduli, r, offsets, weights)
    return {"value": float(prefactor) * total, "exact": None}


def _exact_or_none(phase_rows, values, r, moduli):
    if float(r) != int(r) or int(r) % 2:
        return None
    gints = gaussian_integers(values)
    if gints is None:
        return None
    return str(exact_power_sum(phase_rows, gints, int(r) // 2, moduli))


def counterexample_row(p: int, k: int, r: float) -> dict:
    """sum_norm and decoupling ratio of the paraboloid family at N = p^k.

    S(w) = sum_{n<N} e(w n / N^2) is N^2 times the inverse FFT of the
    indicator of [0, N) in Z/N^2.
    """
    N = p**k
    M = N * N
    indicator = np.zeros(M, dtype=np.complex128)
    indicator[:N] = 1.0
    S = M * np.fft.ifft(indicator)
    sum_norm = (float(N) ** 4 * float(np.sum(np.abs(S) ** r))) ** (1.0 / r)
    return {"sum_norm": sum_norm, "ratio": sum_norm / float(N) ** (0.5 + 6.0 / r)}


def least_squares_slope(xs, ys) -> float:
    x = [math.log(v) for v in xs]
    y = [math.log(v) for v in ys]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))
