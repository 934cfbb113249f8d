from __future__ import annotations

import functools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemv.domains import LocalizationVector
from sparsemv.errors import BudgetExceededError, InvalidInputError
from sparsemv import exact
from sparsemv.exact import convolution_counts, fsum_rows
from sparsemv.meanvalue import (
    SAMPLER_NAMES,
    CoefficientVector,
    IndexDomain,
    epsilon_factors,
    estimate_restriction_constant,
    padic_short_mv,
    real_sparse_mv,
    sample_coefficients,
    transfer_check,
)
from sparsemv import meanvalue
from sparsemv.meanvalue import (  # internal, exercised on purpose
    _GridSum,
    _offset_factors,
    _real_gauss,
)
from sparsemv.domains import build_domain
from sparsemv.numberfield import (
    MinimalPolynomial,
    PhaseComponent,
    expand_trace_phase,
    moment_curve,
    parabola_system,
)
from sparsemv.padic import ScaleSpec
from sparsemv.quadrature import QuadratureConfig, gauss_rule, tensor_offsets

PARABOLA = parabola_system()
MOMENT3 = moment_curve(3)
GAUSSIAN = expand_trace_phase(MinimalPolynomial.parse("1,0"), 2)  # Q(i), k = 2
CUBE_ROOT_2 = expand_trace_phase(MinimalPolynomial.parse("-2,0,0"), 2)  # Q(2^(1/3))


def _sigma(*vals):
    return LocalizationVector(tuple(Fraction(v) for v in vals))


def _grid(system, coeffs, moduli, threads=1):
    """The grid of the system's phases on the vector's domain, viewed with
    the vector's coefficients."""
    phases = meanvalue._phase_values(system, coeffs.domain)
    return _GridSum(phases, moduli, threads).view(coeffs)


def _gemm_terms(grid, r, factors, rows):
    """|S(iota, v)|^r of every cell, block by block as the GEMM path forms
    them from row blocks of ``rows`` cells, each in buffers of its own."""
    tables = grid._point_tables()
    blocks = []
    for lo in range(0, grid.total, rows):
        hi = min(lo + rows, grid.total)
        buffers = grid._block_buffers(hi - lo, len(factors))
        blocks.append(grid._power_block(lo, hi, r, factors, buffers, tables))
    return np.concatenate(blocks)


# --- oracles ----------------------------------------------------------------

def congruence_count(system, N, s):
    """Ordered 2s-tuples of [0,N) points with componentwise congruent phase
    sums modulo N^degree; counted by exhaustive enumeration, no exponentials."""
    domain = IndexDomain.box(N, system.dimension)
    mods = [N**c.degree for c in system.components]
    keys = Counter()
    for tup in product(domain.points, repeat=s):
        key = tuple(
            sum(c.evaluate(pt) for pt in tup) % m
            for c, m in zip(system.components, mods)
        )
        keys[key] += 1
    return sum(v * v for v in keys.values())


def exact_solution_count(system, N, s):
    """Same, but with exact (uncongruenced) equality of the phase sums."""
    domain = IndexDomain.box(N, system.dimension)
    keys = Counter()
    for tup in product(domain.points, repeat=s):
        key = tuple(sum(c.evaluate(pt) for pt in tup) for c in system.components)
        keys[key] += 1
    return sum(v * v for v in keys.values())


def naive_padic_value(system, coeffs, N, sigma, r):
    """Direct double-loop evaluation of the defining cell-grid sum."""
    K = 1
    mods = [N ** (c.degree - int(s)) for c, s in zip(system.components, sigma)]
    values = coeffs.values()
    total = 0.0
    for iota in product(*(range(m) for m in mods)):
        s = 0j
        for pt, a in zip(coeffs.domain.points, values):
            phase = sum(
                i * comp.evaluate(pt) / m
                for i, comp, m in zip(iota, system.components, mods)
            )
            s += a * np.exp(2j * np.pi * phase)
        total += abs(s) ** r
    prefactor = math.prod(N ** (int(s) - c.degree) for c, s in zip(system.components, sigma))
    return prefactor * total


# --- p-adic short mean values ------------------------------------------------

def test_orthogonality_r2_random_coefficients():
    # p=5 K=2 has T = 15625 cells: W = 0 at s = 1, so it takes the convolution
    for p, K, method in ((3, 1, "padic-exact"), (3, 2, "padic-exact"),
                         (5, 1, "padic-exact"), (5, 2, "padic-convolution")):
        scale = ScaleSpec(p=p, K=K)
        domain = IndexDomain.box(scale.N, 1)
        coeffs = sample_coefficients("random-phase", domain, seed=11, draw=K)
        report = padic_short_mv(PARABOLA, [coeffs], 2.0, scale, _sigma(0, 0))[0]
        expected = coeffs.ell_r(2.0)
        assert report.value == pytest.approx(expected, rel=1e-9)
        # a rounded value: its bound is a rounding estimate, not 0
        assert abs(report.value - expected) <= report.quadrature_error_bound
        assert report.method == method


def test_padic_equals_congruence_count_parabola():
    # the even-exponent meaning of the cell-grid sum, verified against an
    # enumeration oracle that never touches floating point
    for N, p, K in ((3, 3, 1), (9, 3, 2), (5, 5, 1)):
        scale = ScaleSpec(p=p, K=K)
        coeffs = CoefficientVector.ones(IndexDomain.box(N, 1))
        report = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0]
        expected = congruence_count(PARABOLA, N, 2)
        assert report.value == pytest.approx(expected, rel=1e-9)


def test_padic_n3_matches_exact_quadruple_count():
    # at N = 3 the congruence system has no off-diagonal solutions, so the
    # value is the brute-force count of a+b=c+d, a^2+b^2=c^2+d^2
    scale = ScaleSpec(p=3, K=1)
    coeffs = CoefficientVector.ones(IndexDomain.box(3, 1))
    report = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0]
    count = sum(
        1
        for a, b, c, d in product(range(3), repeat=4)
        if a + b == c + d and a * a + b * b == c * c + d * d
    )
    assert count == 15
    assert report.value == pytest.approx(15.0, rel=1e-9)


def test_padic_parabola_n9_aliasing_value():
    # at N = 9 the congruence count (161) strictly exceeds the exact
    # Vinogradov count (153 = 2N^2 - N): e.g. (1,4) vs (7,7) has sums 5 and 14
    # (equal mod 9) and square sums 17 and 98 (equal mod 81)
    scale = ScaleSpec(p=3, K=2)
    coeffs = CoefficientVector.ones(IndexDomain.box(9, 1))
    report = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0]
    assert congruence_count(PARABOLA, 9, 2) == 161
    assert exact_solution_count(PARABOLA, 9, 2) == 153
    assert report.value == pytest.approx(161.0, rel=1e-9)


def test_padic_moment_curve_matches_exact_count():
    for N, p, K in ((3, 3, 1), (9, 3, 2), (5, 5, 1)):
        scale = ScaleSpec(p=p, K=K)
        coeffs = CoefficientVector.ones(IndexDomain.box(N, 1))
        report = padic_short_mv(MOMENT3, [coeffs], 4.0, scale, _sigma(0, 0, 0))[0]
        cong = congruence_count(MOMENT3, N, 2)
        assert cong == exact_solution_count(MOMENT3, N, 2)
        assert report.value == pytest.approx(float(cong), rel=1e-9)


def test_padic_matches_naive_evaluation_with_localization():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=3, draw=0)
    report = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0]
    assert report.value == pytest.approx(
        naive_padic_value(PARABOLA, coeffs, 3, (0, 1), 4.0), rel=1e-9
    )


def test_padic_single_point_is_one():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("single-point", domain, seed=0)
    for sigma in (_sigma(0, 0), _sigma(0, 1), _sigma(1, 2)):
        for r in (2.0, 3.0, 4.0):
            report = padic_short_mv(PARABOLA, [coeffs], r, scale, sigma)[0]
            assert report.value == pytest.approx(1.0, rel=1e-12)


def test_padic_scaling_covariance():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=8)
    base = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0].value
    scaled = padic_short_mv(
        PARABOLA, [CoefficientVector(domain, (0.5 - 1.25j) * coeffs.amplitude)], 4.0,
        scale, _sigma(0, 1)
    )[0].value
    assert scaled == pytest.approx(abs(0.5 - 1.25j) ** 4 * base, rel=1e-9)


def _mpmath_padic_mv(system, coeffs, r, scale, sigma, prec=100):
    """High-precision oracle for the p-adic short mean value

        N^(sum_j (sigma_j - deg_j)) sum_iota |sum_n a_n e(sum_j iota_j P_j(n)/M_j)|^r

    with M_j = p^(K (deg_j - sigma_j)): phases P_j(n) from
    PhaseComponent.evaluate, reduced as exact Fractions, then mpmath unit
    roots and sums at ``prec`` bits.  Shares no code with meanvalue."""
    p, K = scale.p, scale.K
    degrees = [c.degree for c in system.components]
    moduli = [p ** int((d - s) * K) for d, s in zip(degrees, sigma.sigma)]
    P = [[c.evaluate(pt) for pt in coeffs.domain.points] for c in system.components]
    roots = {}
    with mpmath.workprec(prec):
        def e(q):
            if q not in roots:
                roots[q] = mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
            return roots[q]

        base = [mpmath.mpc(a.real, a.imag) for a in coeffs.amplitude]
        total = mpmath.mpf(0)
        for iota in product(*(range(m) for m in moduli)):
            inner = mpmath.mpc(0)
            for n, a in enumerate(base):
                q = sum(Fraction(i * P[j][n], m)
                        for j, (i, m) in enumerate(zip(iota, moduli))) % 1
                inner += a * e(q)
            total += abs(inner) ** r
        exponent = K * sum(s - d for d, s in zip(degrees, sigma.sigma))
        return float(mpmath.mpf(p) ** int(exponent) * total)


def test_padic_high_precision_path_agrees():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=4)
    fast = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0]
    slow = _mpmath_padic_mv(PARABOLA, coeffs, 4.0, scale, _sigma(0, 0))
    assert slow == pytest.approx(fast.value, rel=1e-12)


def test_padic_budget():
    scale = ScaleSpec(p=3, K=2)
    coeffs = CoefficientVector.ones(IndexDomain.box(9, 1))
    with pytest.raises(BudgetExceededError):
        padic_short_mv(PARABOLA, [coeffs], 2.0, scale, _sigma(0, 0), budget=100)[0]


# --- transform path against the direct evaluator and mpmath ------------------

def _direct_power_sum(grid, r):
    """The offset engine (one GEMM per row block) at a single zero offset:
    the same sum without the transform."""
    return grid.per_offset_power_sum(r, np.ones((1, len(grid.base))))[0]


@pytest.mark.parametrize("system, p, K, sig", [
    (PARABOLA, 3, 2, (0, 0)),
    (PARABOLA, 3, 2, (0, 1)),
    (MOMENT3, 3, 1, (0, 0, 0)),
    (MOMENT3, 3, 2, (0, 1, 2)),
    (GAUSSIAN, 5, 1, (0, 0, 0, 0)),
    (GAUSSIAN, 5, 1, (0, 0, 1, 1)),
    (CUBE_ROOT_2, 3, 1, (0, 0, 0, 0, 0, 0)),
    (CUBE_ROOT_2, 3, 1, (0, 0, 0, 1, 1, 1)),
])
@pytest.mark.parametrize("r", [3.0, 4.0, 5.0])
def test_padic_transform_matches_direct_evaluator(system, p, K, sig, r):
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        "random-phase", IndexDomain.box(scale.N, system.dimension), seed=31
    )
    cells = build_domain(scale, _sigma(*sig), system.degrees).cell_counts
    grid = _grid(system, coeffs, cells)
    assert grid.weighted_power_sum(r) == pytest.approx(
        _direct_power_sum(grid, r), rel=1e-12
    )


@pytest.mark.parametrize("system, p, K", [
    (PARABOLA, 3, 2), (MOMENT3, 3, 1), (GAUSSIAN, 3, 1), (CUBE_ROOT_2, 2, 1),
])
def test_real_exact_grid_transform_matches_direct_evaluator(system, p, K):
    r = 4
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        "random-phase", IndexDomain.box(scale.N, system.dimension), seed=37
    )
    sig = _sigma(*([0] * len(system.components)))
    report = real_sparse_mv(system, [coeffs], float(r), scale, sig)[0]
    # the 10395 samples of Q(2^(1/3)) at W = 64 take the convolution
    assert report.method == ("real-convolution" if system is CUBE_ROOT_2 else "real-exact")
    phase_rows = [[c.evaluate(pt) for pt in coeffs.domain.points]
                  for c in system.components]
    moduli = [(r // 2) * (max(row) - min(row)) + 1 for row in phase_rows]
    grid = _grid(system, coeffs, moduli)
    direct = _direct_power_sum(grid, r) / grid.total
    assert report.value == pytest.approx(direct, rel=1e-12)
    assert grid.weighted_power_sum(r) / grid.total == pytest.approx(direct, rel=1e-12)


def test_padic_transform_matches_mpmath_number_field_localized():
    scale = ScaleSpec(p=3, K=1)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(3, 2), seed=41)
    sig = _sigma(0, 0, 1, 1)
    fast = padic_short_mv(GAUSSIAN, [coeffs], 5.0, scale, sig)[0]
    slow = _mpmath_padic_mv(GAUSSIAN, coeffs, 5.0, scale, sig, prec=80)
    assert fast.value == pytest.approx(slow, rel=1e-12)


@pytest.mark.parametrize("system, p, K, sig", [
    (MOMENT3, 3, 1, (0, 0, 0)),
    (MOMENT3, 3, 2, (0, 1, 2)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 0, 0, 0)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 1, 1, 1)),
])
@pytest.mark.parametrize("r", [3.0, 4.5])
def test_padic_transform_matches_mpmath_oracle(system, p, K, sig, r):
    # at most 6561 cell-point terms per case
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        "random-phase", IndexDomain.box(scale.N, system.dimension), seed=53
    )
    fast = padic_short_mv(system, [coeffs], r, scale, _sigma(*sig))[0]
    assert fast.value == pytest.approx(
        _mpmath_padic_mv(system, coeffs, r, scale, _sigma(*sig)), rel=1e-12
    )


# --- the pruned transform and its blocked reduction --------------------------

def _ifftn_reference(shape, index, values):
    """T ifftn(H) by numpy's own n-d transform of the scattered histogram."""
    H = np.zeros(shape, dtype=np.complex128)
    np.add.at(H, index, values)
    return np.fft.ifftn(H, norm="forward")


def _assert_transform_matches_ifftn(shape, index, values):
    plan = meanvalue._transform_passes(shape, index)
    S = meanvalue._inverse_transform(shape, index, values, plan)
    want = _ifftn_reference(shape, index, values)
    assert S.shape == want.shape
    # every |S| is at most sum |a_n|, the scale of the rounding
    np.testing.assert_allclose(S, want, rtol=0, atol=1e-13 * np.abs(values).sum())
    return plan


@pytest.mark.parametrize("system, p, K, sig", [
    (PARABOLA, 2, 6, (0, 0)),  # parabola-p2K6 of the benchmark, 262144 cells
    (PARABOLA, 2, 8, (0, 1)),
    (MOMENT3, 3, 2, (0, 0, 0)),
    (MOMENT3, 3, 2, (0, 0, 1)),
    (GAUSSIAN, 7, 1, (0, 0, 0, 0)),
    (GAUSSIAN, 3, 2, (0, 0, 0, 1)),
    (CUBE_ROOT_2, 3, 1, (0, 0, 0, 0, 0, 0)),
    (CUBE_ROOT_2, 2, 2, (0, 0, 0, 0, 0, 1)),
])
def test_pruned_transform_matches_ifftn(system, p, K, sig):
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        "random-phase", IndexDomain.box(scale.N, system.dimension), seed=61)
    cells = build_domain(scale, _sigma(*sig), system.degrees).cell_counts
    grid = _grid(system, coeffs, cells)
    plan = _assert_transform_matches_ifftn(grid.moduli, grid._residues, grid.base)
    assert plan is not None  # at least one pass runs pruned
    assert [grid.moduli[j] for j in plan[0]] == sorted(grid.moduli)


def test_pruned_transform_on_one_point_and_on_full_fibres():
    rng = np.random.default_rng(67)
    shape = (4, 9, 27, 81)
    # one point: every pass keeps one fibre per cell of the axes before it
    point = tuple(np.array([c]) for c in (3, 5, 11, 70))
    plan = _assert_transform_matches_ifftn(shape, point, np.array([0.6 - 0.8j]))
    assert [len(keep) for keep in plan[1]] == [1, 1, 1]
    # a value on every cell fills every fibre: no pass prunes, and the
    # transform is numpy's ifftn itself
    index = tuple(np.indices(shape).reshape(len(shape), -1))
    values = np.exp(2j * np.pi * rng.random(math.prod(shape)))
    assert meanvalue._transform_passes(shape, index) is None
    S = meanvalue._inverse_transform(shape, index, values, None)
    assert np.array_equal(S, _ifftn_reference(shape, index, values))


@pytest.mark.parametrize("r", [3.0, 5.0, 2.5])
@pytest.mark.parametrize("system, p, K, sig", [
    (PARABOLA, 3, 2, (0, 0)),
    (GAUSSIAN, 3, 1, (0, 0, 0, 0)),
])
def test_pruned_blocked_transform_within_its_bound_of_mpmath(monkeypatch, system, p,
                                                            K, sig, r):
    # small grids run the pruned passes and the blocked reduction when the
    # gates' cell counts are lowered; blocks of 32 cells make 23 blocks
    monkeypatch.setattr(meanvalue, "_PRUNE_CELLS", 64)
    monkeypatch.setattr(meanvalue, "_BLOCKED_CELLS", 64)
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 32 * 32)
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        "random-phase", IndexDomain.box(scale.N, system.dimension), seed=73)
    cells = build_domain(scale, _sigma(*sig), system.degrees).cell_counts
    grid = _grid(system, coeffs, cells)
    assert meanvalue._transform_passes(grid.moduli, grid._residues) is not None
    with mock.patch.object(exact, "_blocked_sums", wraps=exact._blocked_sums) as blocked:
        report = padic_short_mv(system, [coeffs], r, scale, _sigma(*sig))[0]
        assert blocked.call_count == 1
    assert report.method == "padic-exact"
    oracle = _mpmath_padic_mv(system, coeffs, r, scale, _sigma(*sig))
    assert abs(report.value - oracle) <= report.quadrature_error_bound


# --- even-r values of complex coefficients by the convolution --------------------

def _mpmath_grid_mean(system, coeffs, r, moduli, prec=100):
    """(1/T) sum over the grid prod Z/M_j of |sum_n a_n e(sum_j iota_j P_j(n) / M_j)|^r
    at ``prec`` bits: integer phases over the common denominator D of the M_j,
    mpmath unit roots and sums.  Shares no code with meanvalue."""
    P = [[c.evaluate(pt) for pt in coeffs.domain.points] for c in system.components]
    D = math.lcm(*moduli)
    steps = [[p * (D // m) % D for p in row] for row, m in zip(P, moduli)]
    with mpmath.workprec(prec):
        roots = {}
        base = [mpmath.mpc(a.real, a.imag) for a in coeffs.amplitude]
        total = mpmath.mpf(0)
        for iota in product(*(range(m) for m in moduli)):
            inner = mpmath.mpc(0)
            for n, a in enumerate(base):
                t = sum(i * row[n] for i, row in zip(iota, steps)) % D
                if t not in roots:
                    roots[t] = mpmath.expjpi(2 * mpmath.mpf(t) / D)
                inner += a * roots[t]
            total += abs(inner) ** r
        return float(total / math.prod(moduli))


#: (system, p, K, sigma or None for the real L_j grid, even r, sampler): the
#: parabola, the moment curve k=3 and Q(i), with six points sharing a key
#: (parabola sigma (1,1)) and zero coefficients (random-sparse)
CONVOLUTION_CASES = [
    (PARABOLA, 3, 1, (0, 0), 4, "random-phase"),
    (PARABOLA, 5, 1, (0, 0), 4, "random-sparse"),
    (PARABOLA, 3, 2, (1, 1), 4, "random-phase"),
    (PARABOLA, 5, 1, None, 4, "random-phase"),
    (PARABOLA, 5, 1, None, 6, "random-sparse"),
    (MOMENT3, 3, 1, (0, 0, 0), 4, "random-phase"),
    (MOMENT3, 3, 1, (0, 0, 0), 6, "random-phase"),
    (MOMENT3, 3, 1, None, 4, "random-phase"),
    (MOMENT3, 3, 1, None, 6, "random-phase"),
    (GAUSSIAN, 3, 1, (0, 0, 0, 0), 4, "random-phase"),
    (GAUSSIAN, 3, 1, (0, 0, 1, 1), 6, "random-phase"),
    (GAUSSIAN, 2, 1, None, 4, "random-phase"),
    (GAUSSIAN, 2, 1, None, 6, "random-phase"),
]


@pytest.mark.parametrize("system, p, K, sig, r, sampler", CONVOLUTION_CASES)
def test_convolution_matches_transform_and_mpmath_within_its_bound(
        system, p, K, sig, r, sampler):
    # the convolution route called directly: _convolution_work is patched to
    # 0 so that every grid here passes the gate
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        sampler, IndexDomain.box(scale.N, system.dimension), seed=71)
    phases = meanvalue._phase_values(system, coeffs.domain)
    if sig is None:
        moduli = [(r // 2) * (max(row) - min(row)) + 1 for row in phases]
        normalise = lambda total: total / math.prod(moduli)  # noqa: E731
    else:
        moduli = build_domain(scale, _sigma(*sig), system.degrees).cell_counts
        normalise = lambda total: (1 / math.prod(moduli)) * total  # noqa: E731
    grid = _GridSum(phases, moduli).view(coeffs)
    with mock.patch.object(meanvalue, "_convolution_work", return_value=0):
        plan = grid._convolution_plan(r // 2, 0, fixed=0)
    value, bound = meanvalue._convolved_value(grid, plan, normalise)
    transform = normalise(grid.weighted_power_sum(float(r)))
    assert value == pytest.approx(transform, rel=1e-12)
    oracle = _mpmath_grid_mean(system, coeffs, r, moduli)
    assert abs(value - oracle) <= bound <= 1e-12 * value


@pytest.mark.parametrize("moduli", [(9, 81), (2**9,) * 7])  # T = 729 and 2^63
def test_convolution_plan_counts_residue_classes(moduli):
    rng = np.random.default_rng(83)
    phases = [rng.integers(0, 3 * m, 40).tolist() for m in moduli]
    amplitude = np.where(rng.random(40) < 0.3, 0.0, np.exp(2j * rng.random(40)))
    coeffs = CoefficientVector(IndexDomain.box(40, 1), amplitude)
    with mock.patch.object(meanvalue, "_convolution_work", return_value=0):
        plan = _GridSum(phases, moduli).view(coeffs)._convolution_plan(2, 0, fixed=0)
    keys = Counter(tuple(v % m for v, m in zip(point, moduli))
                   for point, a in zip(zip(*phases), amplitude) if a != 0)
    assert plan.points.tolist() == np.flatnonzero(amplitude).tolist()
    assert plan.classes == len(keys)
    assert plan.largest >= max(keys.values())


def test_offset_free_methods_on_the_benchmark_shapes():
    # the large grids of random phases take the convolution; the small grids
    # of the other commands keep the count or the transform
    sig = _sigma(0, 0)
    for system, p, K, sig_large in ((PARABOLA, 3, 4, sig), (MOMENT3, 3, 2, _sigma(0, 0, 0)),
                                    (GAUSSIAN, 7, 1, _sigma(0, 0, 0, 0))):
        scale = ScaleSpec(p=p, K=K)
        phase = sample_coefficients(
            "random-phase", IndexDomain.box(scale.N, system.dimension), seed=3)
        report = padic_short_mv(system, [phase], 4.0, scale, sig_large)[0]
        assert report.method == "padic-convolution"
        assert 0 < report.quadrature_error_bound < 1e-13 * report.value
        # the engine chunks its own passes: no column needs to fit a block
        with mock.patch.object(exact, "_BLOCK_BYTES", 64):
            chunked = padic_short_mv(system, [phase], 4.0, scale, sig_large)[0]
        assert chunked.method == "padic-convolution"
        assert chunked.value == pytest.approx(report.value, rel=1e-13)
    small = ScaleSpec(p=3, K=1)
    ones = CoefficientVector.ones(IndexDomain.box(3, 1))
    assert padic_short_mv(PARABOLA, [ones], 4.0, small, sig)[0].method == "padic-count"
    assert real_sparse_mv(PARABOLA, [ones], 4.0, small, sig)[0].method == "real-count"
    five = ScaleSpec(p=5, K=1)
    units = CoefficientVector(IndexDomain.box(5, 1), [1, 0, 1j, -1, 0])
    assert padic_short_mv(PARABOLA, [units], 6.0, five, sig)[0].method == "padic-count"
    phase = sample_coefficients("random-phase", IndexDomain.box(5, 1), seed=3)
    assert real_sparse_mv(PARABOLA, [phase], 4.0, five, sig)[0].method == "real-exact"
    # restriction-estimate --side both at p=3 K=1 and corollary-ratio at
    # K = 1, 2, 3: a count for the Gaussian-integer samplers, else the transform
    for K, sides, sigma in ((1, (padic_short_mv, real_sparse_mv), sig),
                            (2, (padic_short_mv,), _sigma(0, 1)),
                            (3, (padic_short_mv,), _sigma(0, 1))):
        scale = ScaleSpec(p=3, K=K)
        domain = IndexDomain.box(scale.N, 1)
        for fn, kind in zip(sides, ("padic", "real")):
            for name in SAMPLER_NAMES:
                coeffs = sample_coefficients(name, domain, seed=5)
                method = fn(PARABOLA, [coeffs], 4.0, scale, sigma)[0].method
                gaussian = name in ("all-ones", "single-point")
                assert method == f"{kind}-{'count' if gaussian else 'exact'}"


# --- exact integer counts against the transform ---------------------------------

# (system, p, K, sigma): canonical and localized scales of the four systems
COUNT_CASES = [
    (PARABOLA, 3, 1, (0, 0)),
    (PARABOLA, 3, 2, (0, 1)),
    (MOMENT3, 3, 1, (0, 0, 0)),
    (MOMENT3, 3, 1, (0, 0, 1)),
    (GAUSSIAN, 3, 1, (0, 0, 0, 0)),
    (GAUSSIAN, 3, 1, (0, 0, 1, 1)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 0, 0, 0)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 1, 1, 1)),
]


@st.composite
def _gaussian_integer_case(draw):
    system, p, K, sig = draw(st.sampled_from(COUNT_CASES))
    domain = IndexDomain.box(p**K, system.dimension)
    parts = st.integers(min_value=-2, max_value=2)
    amplitude = draw(st.lists(st.builds(complex, parts, parts),
                              min_size=len(domain), max_size=len(domain)))
    r = draw(st.sampled_from([4, 6]))
    coeffs = CoefficientVector(domain, amplitude)
    return system, ScaleSpec(p=p, K=K), _sigma(*sig), coeffs, r


@settings(max_examples=60, deadline=None)
@given(_gaussian_integer_case())
def test_count_equals_rounded_transform(case):
    system, scale, sig, coeffs, r = case
    s = r // 2
    # p-adic: the cyclic count on the cells against the transform
    cells = build_domain(scale, sig, system.degrees).cell_counts
    grid = _grid(system, coeffs, cells)
    count = convolution_counts(grid._residues, coeffs.amplitude, s, grid.moduli)
    exponent = sum(x - c.degree for x, c in zip(sig.sigma, system.components))
    prefactor = float(meanvalue._scale_power(scale, exponent))
    transform = prefactor * grid.weighted_power_sum(r)
    assert round(transform) == count
    assert transform == pytest.approx(count, rel=1e-12)
    report = padic_short_mv(system, [coeffs], float(r), scale, sig)[0]
    if report.method == "padic-count":
        assert report.value == count
    # real at sigma = 0: the acyclic count of the raw phases against the
    # transform on the L_j grid
    phase_rows = grid.phase_vals
    acyclic = convolution_counts(phase_rows, coeffs.amplitude, s)
    moduli = [s * (max(row) - min(row)) + 1 for row in phase_rows]
    real_grid = _GridSum(phase_rows, moduli).view(coeffs)
    real_transform = real_grid.weighted_power_sum(r) / math.prod(moduli)
    assert round(real_transform) == acyclic
    assert real_transform == pytest.approx(acyclic, rel=1e-12)
    canonical = _sigma(*([0] * len(system.components)))
    real = real_sparse_mv(system, [coeffs], float(r), scale, canonical)[0]
    if real.method == "real-count":
        assert real.value == acyclic and real.quadrature_error_bound == 0.0


def test_count_runs_only_when_its_work_fits_the_grid():
    # parabola, N = 3: |H| = 3 residue keys.  p-adic at r = 8 (T = 27 cells):
    # W = 3*3 + 9*3 + 27*3 = 117 > 27.  Real at r = 10 (T = 11 * 21 = 231
    # samples): W = 9 + 27 + 81 + 231*3 = 810 > 231.  Real at r = 8
    # (T = 9 * 17 = 153): W = 117 <= 153.
    scale = ScaleSpec(p=3, K=1)
    ones = CoefficientVector.ones(IndexDomain.box(3, 1))
    sig = _sigma(0, 0)
    keys = [[0, 1, 2], [0, 1, 4]]  # n and n^2
    padic = padic_short_mv(PARABOLA, [ones], 8.0, scale, sig)[0]
    assert padic.method == "padic-exact"
    assert padic.value == pytest.approx(convolution_counts(keys, [1, 1, 1], 4, (3, 9)),
                                        rel=1e-12)
    real = real_sparse_mv(PARABOLA, [ones], 10.0, scale, sig)[0]
    assert real.method == "real-exact" and real.quadrature_error_bound > 0
    assert real.value == pytest.approx(convolution_counts(keys, [1, 1, 1], 5),
                                       rel=1e-12)
    counted = real_sparse_mv(PARABOLA, [ones], 8.0, scale, sig)[0]
    assert counted.method == "real-count" and counted.quadrature_error_bound == 0.0
    assert counted.value == convolution_counts(keys, [1, 1, 1], 4)


@pytest.mark.parametrize("system, p, K, sig, r, amplitude, work", [
    # parabola N = 3 at r = 8: W = 117 > T = 27 (as above)
    (PARABOLA, 3, 1, (0, 0), 8, [1, 1, 1], 117),
    # moment curve N = 3 at r = 8: W = 117 > T = 27
    (MOMENT3, 3, 1, (0, 1, 2), 8, [1, -1j, 2], 117),
    # Q(i), N = 2 at r = 6: W = 16 + 64 = 80 > T = 64
    (GAUSSIAN, 2, 1, (0, 0, 0, 0), 6, [1, 1j, -1 + 1j, 2], 80),
])
def test_padic_exact_error_bound_covers_the_integer(system, p, K, sig, r, amplitude,
                                                    work):
    scale = ScaleSpec(p=p, K=K)
    coeffs = CoefficientVector(IndexDomain.box(scale.N, system.dimension), amplitude)
    cells = build_domain(scale, _sigma(*sig), system.degrees).cell_counts
    grid = _grid(system, coeffs, cells)
    count = convolution_counts(grid._residues, coeffs.amplitude, r // 2, grid.moduli)
    # the count's work bound is W = work > T: it runs under max_work = W only
    assert work > grid.total
    assert convolution_counts(grid._residues, coeffs.amplitude, r // 2, grid.moduli,
                              max_work=work) == count
    with pytest.raises(BudgetExceededError) as refusal:
        convolution_counts(grid._residues, coeffs.amplitude, r // 2, grid.moduli,
                           max_work=work - 1)
    assert (refusal.value.requested, refusal.value.budget) == (work, work - 1)
    report = padic_short_mv(system, [coeffs], float(r), scale, _sigma(*sig))[0]
    assert report.method == "padic-exact"
    # the transform leaves rounding noise (686.9999999999997 for the first)
    assert abs(report.value - count) <= report.quadrature_error_bound < 1e-12 * count


def test_huge_even_exponent_runs_without_looping_over_its_passes():
    # r = 1e308 is an even integer, s = 5e307: the work bound and the
    # integer-size checks stay small, and the transform gives |S|^r
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    single = sample_coefficients("single-point", domain, seed=0)
    report = padic_short_mv(PARABOLA, [single], 1e308, scale, _sigma(0, 0))[0]
    assert (report.value, report.method) == (1.0, "padic-exact")  # |S| = 1
    assert transfer_check(PARABOLA, [single], 1e308, scale, _sigma(0, 1))[0].passed
    with pytest.raises(InvalidInputError):  # |S| = 3 at the zero cell: inf
        padic_short_mv(PARABOLA, [CoefficientVector.ones(domain)], 1e308, scale,
                       _sigma(0, 0))[0]


@pytest.mark.parametrize("real, sup", [(math.inf, 1.0), (1.0, math.inf),
                                       (math.nan, 1.0), (1.0, -1.0)])
def test_transfer_report_rejects_a_side_that_is_not_finite(real, sup):
    with pytest.raises(InvalidInputError):
        meanvalue.TransferReport(real_value=real, padic_sup_over_grid=sup, passed=True,
                                 quadrature_error_bound=0.0, grid_size=1)


def test_count_needs_gaussian_integers_without_phase_shift():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    sig = _sigma(0, 0)
    halves = CoefficientVector(domain, [0.5, 1.0, 1j])
    assert padic_short_mv(PARABOLA, [halves], 4.0, scale, sig)[0].method == "padic-exact"
    assert real_sparse_mv(PARABOLA, [halves], 4.0, scale, sig)[0].method == "real-exact"
    units = CoefficientVector(domain, [1.0, -1j, 0.0])
    assert padic_short_mv(PARABOLA, [units], 4.0, scale, sig)[0].method == "padic-count"


def test_count_past_the_float_range_is_rejected_like_the_transform():
    scale = ScaleSpec(p=3, K=1)
    huge = CoefficientVector(IndexDomain.box(3, 1), [1e200, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        padic_short_mv(PARABOLA, [huge], 4.0, scale, _sigma(0, 0))[0]
    with pytest.raises(InvalidInputError):
        real_sparse_mv(PARABOLA, [huge], 4.0, scale, _sigma(0, 0))[0]


def test_counts_do_not_depend_on_the_block_size(monkeypatch):
    scale = ScaleSpec(p=3, K=2)
    coeffs = CoefficientVector(IndexDomain.box(9, 1),
                               [1, 1j, -1, 2, 0, 1 - 1j, 1, -2j, 1])
    def values():
        return (padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0],
                real_sparse_mv(PARABOLA, [coeffs], 6.0, scale, _sigma(0, 0))[0])
    default = values()
    assert [rep.method for rep in default] == ["padic-count", "real-count"]
    for block in (1, 200, 2000):  # one row of pairs per chunk, then a few
        monkeypatch.setattr(exact, "_BLOCK_BYTES", block)
        assert values() == default


# --- real sparse mean values ---------------------------------------------------

def test_real_grid_path_matches_exact_counts():
    # canonical scale, even exponent: the sampling grid is exact, so the value
    # is the exact solution count, which the enumeration oracle provides
    cases = [
        (PARABOLA, 3, 3, 1, 4.0, (0, 0)),
        (PARABOLA, 9, 3, 2, 4.0, (0, 0, )),
        (MOMENT3, 3, 3, 1, 4.0, (0, 0, 0)),
    ]
    for system, N, p, K, r, sig in cases:
        scale = ScaleSpec(p=p, K=K)
        coeffs = CoefficientVector.ones(IndexDomain.box(N, system.dimension))
        report = real_sparse_mv(system, [coeffs], r, scale, _sigma(*sig))[0]
        expected = exact_solution_count(system, N, int(r) // 2)
        assert report.value == pytest.approx(float(expected), rel=1e-9)
        assert report.method == "real-count"


def _gauss_at(system, coeffs, r, scale, sig):
    """(value, error) of the two-level Gauss path, whatever real_sparse_mv picks."""
    domain = build_domain(scale, sig, system.degrees)
    grid = _GridSum(meanvalue._phase_values(system, coeffs.domain), domain.cell_counts)
    ((value, err, _),), _ = _real_gauss(grid, [coeffs], r, scale, sig, domain,
                                        QuadratureConfig())
    return value, err


def test_real_gauss_matches_grid_at_canonical_scale():
    scale = ScaleSpec(p=3, K=1)
    coeffs = CoefficientVector.ones(IndexDomain.box(3, 1))
    grid = real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0]
    assert grid.method == "real-count"
    gauss, err = _gauss_at(PARABOLA, coeffs, 4.0, scale, _sigma(0, 0))
    assert gauss == pytest.approx(grid.value, rel=1e-6)
    assert err < 1e-6 * grid.value


def test_real_gauss_bound_covers_its_rounding():
    # mv-real --p 5 --K 2 --sigma 0,1/2 --r 4 --sampler all-ones: the exact
    # value is 1225 (a 50-digit mpmath evaluation of the lattice double sum),
    # and both Gauss levels round to 1225.0000000000002, so their gap is 0
    scale = ScaleSpec(p=5, K=2)
    ones = CoefficientVector.ones(IndexDomain.box(25, 1))
    report = real_sparse_mv(PARABOLA, [ones], 4.0, scale, _sigma(0, Fraction(1, 2)))[0]
    assert report.method == "real-gauss"
    assert report.value == 1225.0000000000002
    assert report.quadrature_error_bound >= abs(report.value - 1225) > 0


def test_real_method_follows_sigma_exponent_and_budget(monkeypatch):
    # the exact grid runs only at sigma = 0 with an even integer r; every
    # other input runs Gauss cells
    scale = ScaleSpec(p=3, K=1)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(3, 1), seed=61)
    cases = [((0, 0), 4.0, "real-exact"), ((0, 1), 4.0, "real-gauss"),
             ((0, 0), 3.0, "real-gauss"), ((0, 0), 4.5, "real-gauss")]
    for sig, r, method in cases:
        report, = real_sparse_mv(PARABOLA, [coeffs], r, scale, _sigma(*sig))
        assert report.method == method
    # r = 100 at N = 3: the exact grid needs 101 x 201 = 20301 samples and the
    # fine Gauss level 27 cells x 512 nodes = 13824 evaluations
    ones = CoefficientVector.ones(IndexDomain.box(3, 1))
    sig = _sigma(0, 0)
    assert real_sparse_mv(PARABOLA, [ones], 100.0, scale, sig)[0].method == "real-exact"
    monkeypatch.setattr(meanvalue, "NODE_BUDGET", 15000)
    over = real_sparse_mv(PARABOLA, [ones], 100.0, scale, sig)[0]
    assert over.method == "real-gauss"
    assert over.value == _gauss_at(PARABOLA, ones, 100.0, scale, sig)[0]
    monkeypatch.setattr(meanvalue, "NODE_BUDGET", 3000)
    with pytest.raises(BudgetExceededError):
        real_sparse_mv(PARABOLA, [ones], 100.0, scale, sig)[0]


def test_real_single_point_max_localization():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("single-point", domain, seed=0)
    report = real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(1, 2))[0]
    assert report.method == "real-gauss"
    assert report.value == pytest.approx(1.0, rel=1e-9)


def test_real_zero_coefficients():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = CoefficientVector(domain, np.zeros(3, dtype=np.complex128))
    report = real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0]
    assert report.value == 0.0


def test_real_non_even_exponent_against_riemann_oracle():
    # independent oracle: plain Riemann sum on a fine uniform torus grid
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=21)
    r = 2.5
    report = real_sparse_mv(PARABOLA, [coeffs], r, scale, _sigma(0, 0))[0]
    assert report.method == "real-gauss"
    M = 420
    xs = (np.arange(M) + 0.5) / M
    values = coeffs.values()
    pts = np.array([pt[0] for pt in domain.points])
    total = 0.0
    for x1 in xs:
        inner = np.zeros(M, dtype=np.complex128)
        for pt, a in zip(pts, values):
            inner += a * np.exp(2j * np.pi * (x1 * pt + xs * pt * pt))
        total += float(np.sum(np.abs(inner) ** r))
    oracle = total / (M * M)
    assert report.value == pytest.approx(oracle, rel=2e-3)


def test_real_localized_equals_weighted_padic_average(monkeypatch):
    # the change-of-variables decomposition behind the quadrature: the real
    # value is the weighted average over node offsets of modulated p-adic
    # values, with weights summing to the cell volume
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=13)
    sig = _sigma(0, 1)
    sparse = build_domain(scale, sig, PARABOLA.degrees)
    levels = []  # the (offsets, weights) of each Gauss level

    def recording(*args):
        levels.append(tensor_offsets(*args))
        return levels[-1]

    monkeypatch.setattr(meanvalue, "tensor_offsets", recording)
    grid = _GridSum(meanvalue._phase_values(PARABOLA, domain), sparse.cell_counts)
    ((value, err, _),), _ = _real_gauss(grid, [coeffs], 4.0, scale, sig, sparse,
                                        QuadratureConfig())
    offsets, weights = levels[-1]  # the fine level
    P = np.array([[c.evaluate(pt) for pt in domain.points] for c in PARABOLA.components])
    # the modulated coefficients a_n e(v . P(n)), one vector per offset v
    mods = [CoefficientVector(domain, coeffs.amplitude * np.exp(2j * np.pi * (v @ P)))
            for v in offsets]
    recomputed = 0.0
    for w, report in zip(weights, padic_short_mv(PARABOLA, mods, 4.0, scale, sig)):
        recomputed += w * report.value
    cell_volume = math.prod(float(2 * h) for h in sparse.cell_halfwidths)
    recomputed /= cell_volume
    assert value == pytest.approx(recomputed, rel=1e-9)


# --- transference ---------------------------------------------------------------

def test_transfer_single_point_passes_with_both_sides_one():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("single-point", domain, seed=0)
    report = transfer_check(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0]
    assert report.passed
    assert report.real_value == pytest.approx(1.0, rel=1e-6)
    assert report.padic_sup_over_grid == pytest.approx(1.0, rel=1e-9)


def test_cov_identity_random_coefficients_where_sets_match():
    # where the congruence and exact solution sets coincide, the identity
    # holds for every coefficient vector, not just a = 1
    for system, sig in ((PARABOLA, _sigma(0, 0)), (MOMENT3, _sigma(0, 0, 0))):
        scale = ScaleSpec(p=3, K=1)
        coeffs = sample_coefficients("random-phase", IndexDomain.box(3, 1), seed=19)
        padic = padic_short_mv(system, [coeffs], 4.0, scale, sig)[0].value
        real = real_sparse_mv(system, [coeffs], 4.0, scale, sig)[0].value
        assert real == pytest.approx(padic, rel=1e-9)


def test_transfer_sigma_zero_degenerate():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=17)
    report = transfer_check(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0]
    assert report.passed
    padic = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0].value
    # at N = 3 the congruence and exact solution sets coincide, so every
    # shifted grid average equals the torus integral
    assert report.real_value == pytest.approx(padic, rel=1e-6)


def test_transfer_random_vectors_parabola_localized():
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    for draw in range(5):
        coeffs = sample_coefficients("random-phase", domain, seed=42, draw=draw)
        report = transfer_check(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0]
        assert report.passed, draw
        assert report.real_value <= (1 + 1e-6) * report.padic_sup_over_grid + \
            report.quadrature_error_bound


def test_transfer_moment_curve_localized():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=7, draw=2)
    report = transfer_check(MOMENT3, [coeffs], 4.0, scale, _sigma(0, 0, 1))[0]
    assert report.passed


# --- restriction estimates -------------------------------------------------------

def test_restriction_single_point_ratio_one():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    est = estimate_restriction_constant(
        PARABOLA, domain, 4.0, scale, _sigma(0, 1), side="padic",
        samplers=("single-point",),
    )
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_restriction_r2_canonical_all_samplers_give_one():
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    est = estimate_restriction_constant(
        PARABOLA, domain, 2.0, scale, _sigma(0, 0), side="padic", draws=3, seed=1
    )
    for row in est.rows:
        assert row.ratio == pytest.approx(1.0, rel=1e-9)
    assert est.value == pytest.approx(1.0, rel=1e-9)


def test_restriction_all_ones_real_side_matches_count_ratio():
    # numerator = exact Vinogradov count 2 N^2 - N = 153, denominator = N = 9
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    est = estimate_restriction_constant(
        PARABOLA, domain, 4.0, scale, _sigma(0, 0), side="real",
        samplers=("all-ones",),
    )
    assert est.value == pytest.approx(153.0 / 9.0, rel=1e-9)
    assert est.best_sampler == "all-ones"


def test_restriction_all_ones_padic_side_congruence_ratio():
    # the p-adic grid sum counts congruent tuples: 161 at N = 9 (see above)
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    est = estimate_restriction_constant(
        PARABOLA, domain, 4.0, scale, _sigma(0, 0), side="padic",
        samplers=("all-ones",),
    )
    assert est.value == pytest.approx(161.0 / 9.0, rel=1e-9)


def test_corollary_ratio_rows():
    # the rows corollary-ratio is built from: the p-adic parabola estimate at
    # sigma (0, 1), one draw per sampler, for each K
    rows = []
    for K in (1, 2):
        scale = ScaleSpec(p=3, K=K)
        est = estimate_restriction_constant(
            PARABOLA, IndexDomain.box(scale.N, 1), 4.0, scale, _sigma(0, 1),
            side="padic", samplers=("single-point", "all-ones"), draws=1,
        )
        rows += est.rows
    assert len(rows) == 4  # one row per (N, sampler)
    assert [row.sampler for row in rows] == ["single-point", "all-ones"] * 2
    for row in rows:
        if row.sampler == "single-point":
            assert row.ratio == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("samplers, draws", [((), 4), (("random-phase",), 0)])
def test_restriction_rejects_no_sampler_or_no_draw(samplers, draws):
    with pytest.raises(InvalidInputError):
        estimate_restriction_constant(
            PARABOLA, IndexDomain.box(3, 1), 4.0, ScaleSpec(p=3, K=1),
            _sigma(0, 1), samplers=samplers, draws=draws,
        )


def test_epsilon_factors_bounds():
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    eps = epsilon_factors(PARABOLA, domain, scale)
    assert len(eps) == 2
    for e in eps:
        assert 0 < e <= 1
    # parabola on [0, N): max |n/N| = 8/9 < 1, so epsilon_1 = 1
    assert eps[0] == 1.0


# --- misc --------------------------------------------------------------------------

def test_index_domain_validation():
    with pytest.raises(InvalidInputError):
        IndexDomain(points=())
    with pytest.raises(InvalidInputError):
        IndexDomain(points=((0,), (0,)))
    box = IndexDomain.box(2, 2)
    assert box.points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_threads_do_not_change_values():
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    coeffs = sample_coefficients("random-phase", domain, seed=23)
    lone = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0), threads=1)[0]
    four = padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0), threads=4)[0]
    assert lone.value == four.value  # bit identical
    real1 = real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1), threads=1)[0]
    real4 = real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1), threads=4)[0]
    assert real1.value == real4.value
    # mv-padic --p 3 --K 4 --sigma 0,0 --r 4 takes the convolution
    scale = ScaleSpec(p=3, K=4)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(81, 1), seed=23)
    one, two = (padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0),
                               threads=threads)[0] for threads in (1, 2))
    assert one.method == "padic-convolution"
    assert repr(one) == repr(two)
    # mv-padic --p 2 --K 6 --sigma 0,0 --r 5 takes the pruned transform and
    # the blocked reduction, its two blocks on two threads
    scale = ScaleSpec(p=2, K=6)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(64, 1), seed=23)
    one, two = (padic_short_mv(PARABOLA, [coeffs], 5.0, scale, _sigma(0, 0),
                               threads=threads)[0] for threads in (1, 2))
    assert one.method == "padic-exact"
    assert repr(one) == repr(two)


def test_gauss_rule_is_one_read_only_rule_per_order():
    nodes, weights = gauss_rule(5)
    assert gauss_rule(5)[0] is nodes and gauss_rule(5)[1] is weights
    expected = np.polynomial.legendre.leggauss(5)
    assert [nodes.tolist(), weights.tolist()] == [a.tolist() for a in expected]
    with pytest.raises(ValueError):
        weights *= 2  # shared by every caller


def test_chunking_and_threads_do_not_change_offset_sums(monkeypatch):
    # a transfer-check case: the localized parabola with its fine node set
    scale = ScaleSpec(p=3, K=2)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(9, 1), seed=29)
    domain = build_domain(scale, _sigma(0, 1), PARABOLA.degrees)
    offsets, weights = tensor_offsets(domain.cell_halfwidths, (1, 1), 4)
    grid = _grid(PARABOLA, coeffs, domain.cell_counts)
    factors = _offset_factors(grid.phase_vals, offsets)
    V = len(offsets)
    default_rows = exact._BLOCK_BYTES // (32 * V)
    assert default_rows >= grid.total  # the default is one block here
    columns_by_rows = {}
    for rows in (1, 7, default_rows):
        # oracle: math.fsum over the terms of the same row blocks.  BLAS may
        # round a one-row product differently from a many-row one, so the
        # terms are taken block by block from the engine's own block function
        terms = _gemm_terms(grid, 4.0, factors, rows)
        assert terms.shape == (grid.total, V)
        expected_columns = [math.fsum(terms[:, j]) for j in range(V)]
        expected_total = math.fsum(w * c for w, c in zip(weights, expected_columns))
        monkeypatch.setattr(exact, "_BLOCK_BYTES", 32 * V * rows)
        for threads in (1, 2):
            grid = _grid(PARABOLA, coeffs, domain.cell_counts, threads=threads)
            per_offset = grid.per_offset_power_sum(4.0, factors)
            assert per_offset.tolist() == expected_columns
            assert fsum_rows(weights * per_offset) == expected_total
        columns_by_rows[rows] = np.array(expected_columns)
    for columns in columns_by_rows.values():
        np.testing.assert_allclose(columns, columns_by_rows[default_rows], rtol=1e-13)


def test_offset_gemm_blocks_reuse_their_buffers(monkeypatch):
    # Gauss p=5 K=2 sigma (0,1/2) at r = 3 with 1024 offsets in 25 row blocks:
    # the point rows, S, |S|^r and scratch of 128 cells are allocated once,
    # so the peak stays near them
    scale = ScaleSpec(p=5, K=2)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(25, 1), seed=3)
    domain = build_domain(scale, _sigma(0, Fraction(1, 2)), PARABOLA.degrees)
    offsets, _ = tensor_offsets(domain.cell_halfwidths, (3, 3), 4)
    grid = _grid(PARABOLA, coeffs, domain.cell_counts)
    factors = _offset_factors(grid.phase_vals, offsets)
    V, rows = len(offsets), 128
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 32 * V * rows)
    assert -(-grid.total // rows) >= 20
    buffers = rows * (32 * V + 16 * len(grid.base))
    tracemalloc.start()
    try:
        grid.per_offset_power_sum(3.0, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * buffers  # 1.15 measured; 3.1 with arrays per block


def test_point_tables_are_built_once_per_gemm_call():
    # the Gauss levels of r = 3 take the GEMM path: one set of point tables
    # per per-offset call; the transform and the count build none
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    vectors = [sample_coefficients(name, domain, 37) for name in SAMPLER_NAMES]
    with mock.patch.object(_GridSum, "_point_tables", autospec=True,
                           side_effect=_GridSum._point_tables) as tables, \
         mock.patch.object(_GridSum, "per_offset_power_sum", autospec=True,
                           side_effect=_GridSum.per_offset_power_sum) as passes:
        transfer_check(PARABOLA, vectors, 3.0, scale, _sigma(0, 1))
        assert tables.call_count == passes.call_count == 2 * len(vectors)
        padic_short_mv(PARABOLA, vectors, 3.0, scale, _sigma(0, 1))
        padic_short_mv(PARABOLA, vectors, 4.0, scale, _sigma(0, 1))
        assert tables.call_count == 2 * len(vectors)


def test_uncertified_offset_columns_rerun_with_full_extraction(monkeypatch):
    # the one-round bound is inflated for every other offset, so those
    # columns fail their certificate and the blocks run again in full
    scale = ScaleSpec(p=3, K=2)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(9, 1), seed=31)
    domain = build_domain(scale, _sigma(0, 1), PARABOLA.degrees)
    offsets, _ = tensor_offsets(domain.cell_halfwidths, (1, 1), 4)
    grid = _grid(PARABOLA, coeffs, domain.cell_counts)
    factors = _offset_factors(grid.phase_vals, offsets)
    V = len(offsets)
    rows = 7
    terms = _gemm_terms(grid, 4.0, factors, rows)
    expected = [math.fsum(terms[:, j]) for j in range(V)]
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 32 * V * rows)
    original = exact.extract_once

    def inflated(x, out=None):
        partials, bound, rest = original(x, out=out)
        bound[::2] = 2.0**600
        return partials, bound, rest

    monkeypatch.setattr(exact, "extract_once", inflated)
    blocks = []
    original_block = _GridSum._power_block

    def counting(self, *args):
        blocks.append(args[:2])
        return original_block(self, *args)

    monkeypatch.setattr(_GridSum, "_power_block", counting)
    for threads in (1, 2):
        blocks.clear()
        grid = _grid(PARABOLA, coeffs, domain.cell_counts, threads=threads)
        assert grid.per_offset_power_sum(4.0, factors).tolist() == expected
        assert len(blocks) == 2 * -(-grid.total // rows)  # every block twice


@pytest.mark.parametrize("r", [340.0, 400.0])
@pytest.mark.parametrize("rows", [2, None])
def test_offset_sums_near_and_past_the_float_range(monkeypatch, r, rows):
    # at r = 340 some |S|^r pass 2^1000, where extraction takes the whole
    # column; at r = 400 some are inf.  Every column reads math.fsum's value.
    scale = ScaleSpec(p=3, K=2)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(9, 1), seed=31)
    domain = build_domain(scale, _sigma(0, 1), PARABOLA.degrees)
    offsets, _ = tensor_offsets(domain.cell_halfwidths, (1, 1), 4)
    grid = _grid(PARABOLA, coeffs, domain.cell_counts)
    factors = _offset_factors(grid.phase_vals, offsets)
    if rows is None:
        rows = grid.total
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 32 * len(offsets) * rows)
    with np.errstate(over="ignore"):
        terms = _gemm_terms(grid, r, factors, rows)
        sums = grid.per_offset_power_sum(r, factors)
    assert (terms >= 2.0**1000).any()
    for got, col in zip(sums.tolist(), terms.T.tolist()):
        try:
            want = math.fsum(col)
        except OverflowError:  # a partial sum past the range: the sum is too
            want = math.inf
        assert got == want


# --- the offset engine against a direct, exact-phase oracle --------------------

@functools.lru_cache(maxsize=1 << 16)
def _expj(q: Fraction) -> complex:
    """e(q) = exp(2 pi i q) by mpmath at 100 bits, rounded to a complex."""
    with mpmath.workprec(100):
        return complex(mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator))


def _direct_abs_squared(system, coeffs, cells, offsets):
    """|S(iota, v)|^2 for every cell iota (rows) and offset v (columns), by a
    Python loop over points: exact rational phases, mpmath unit roots and
    math.fsum; no root table, no common modulus and no BLAS."""
    points = coeffs.domain.points
    values = [complex(a) for a in coeffs.values()]
    P = [[c.evaluate(pt) for pt in points] for c in system.components]
    shifts = [
        [_expj(sum(Fraction(float(x)) * P[j][n] for j, x in enumerate(v)))
         for n in range(len(points))]
        for v in offsets
    ]
    rows = []
    for iota in product(*(range(m) for m in cells)):
        cell = [
            _expj(sum(Fraction(i * P[j][n], m)
                          for j, (i, m) in enumerate(zip(iota, cells))))
            for n in range(len(points))
        ]
        row = []
        for shift in shifts:
            terms = [a * c * e for a, c, e in zip(values, cell, shift)]
            re = math.fsum(t.real for t in terms)
            im = math.fsum(t.imag for t in terms)
            row.append(re * re + im * im)
        rows.append(row)
    return rows


def _direct_offset_sums(rows, r):
    return [math.fsum(row[j] ** (r / 2) for row in rows) for j in range(len(rows[0]))]


def _random_offsets(halfwidths, count, seed):
    rng = np.random.default_rng(seed)
    h = np.array([float(x) for x in halfwidths])
    return rng.uniform(-1.0, 1.0, (count, len(h))) * h


@pytest.mark.parametrize("system, p, K, sig", [
    (PARABOLA, 3, 2, (0, 0)),
    (PARABOLA, 3, 2, (0, 1)),
    (MOMENT3, 3, 1, (0, 0, 0)),
    (MOMENT3, 3, 1, (0, 1, 2)),
    (GAUSSIAN, 3, 1, (0, 0, 0, 0)),
    (GAUSSIAN, 3, 1, (0, 0, 1, 1)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 0, 0, 0)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 1, 1, 1)),
])
def test_offset_sums_match_direct_oracle(system, p, K, sig):
    scale = ScaleSpec(p=p, K=K)
    coeffs = sample_coefficients(
        "random-phase", IndexDomain.box(scale.N, system.dimension), seed=43
    )
    domain = build_domain(scale, _sigma(*sig), system.degrees)
    offsets = _random_offsets(domain.cell_halfwidths, 3, seed=47)
    weights = np.array([0.5, 1.25, 2.0])
    grid = _grid(system, coeffs, domain.cell_counts)
    factors = _offset_factors(grid.phase_vals, offsets)
    rows = _direct_abs_squared(system, coeffs, domain.cell_counts, offsets)
    for r in (3.0, 4.0, 5.0):
        expected = _direct_offset_sums(rows, r)
        sums = grid.per_offset_power_sum(r, factors)
        np.testing.assert_allclose(sums, expected, rtol=1e-12)
        assert fsum_rows(weights * sums) == pytest.approx(
            math.fsum(w * e for w, e in zip(weights, expected)), rel=1e-12
        )


def _counting_convolutions(monkeypatch):
    """Record the grid size and the offset columns of every call that the
    per-offset sums make to the convolution engine."""
    runs = []
    original = meanvalue.convolution_power

    def counting(keys, parts, s, moduli=None, max_work=None):
        runs.append((math.prod(moduli), parts[0].shape[1]))
        return original(keys, parts, s, moduli, max_work)

    monkeypatch.setattr(meanvalue, "convolution_power", counting)
    return runs


@pytest.mark.parametrize("system, p, K, sig", [
    (MOMENT3, 3, 1, (0, 0, 1)),
    (MOMENT3, 3, 2, (0, 1, 2)),
    (GAUSSIAN, 3, 1, (0, 0, 0, 0)),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 0, 0, 0)),
])
@pytest.mark.parametrize("sampler", ["random-phase", "random-sparse", "single-point",
                                     "zero"])
def test_even_offset_sums_by_convolution_match_direct_oracle(
        monkeypatch, system, p, K, sig, sampler):
    # every case takes the convolution at r = 4 (W <= T/4); at r = 6 the
    # random-phase cases but moment3 p=3 K=1 have W > T/4 and run direct
    runs = _counting_convolutions(monkeypatch)
    scale = ScaleSpec(p=p, K=K)
    domain = IndexDomain.box(scale.N, system.dimension)
    if sampler == "zero":
        coeffs = CoefficientVector(domain, np.zeros(len(domain)))
    else:
        coeffs = sample_coefficients(sampler, domain, seed=59)
    cells = build_domain(scale, _sigma(*sig), system.degrees)
    offsets = _random_offsets(cells.cell_halfwidths, 3, seed=61)
    grid = _grid(system, coeffs, cells.cell_counts)
    factors = _offset_factors(grid.phase_vals, offsets)
    rows = _direct_abs_squared(system, coeffs, cells.cell_counts, offsets)
    for r in (4.0, 6.0):
        runs.clear()
        sums = grid.per_offset_power_sum(r, factors)
        np.testing.assert_allclose(sums, _direct_offset_sums(rows, r), rtol=1e-12)
        if r == 4.0:
            assert runs == [(grid.total, len(offsets))]
    if sampler == "zero":
        assert sums.tolist() == [0.0, 0.0, 0.0]


#: (system, p, K, sigma, even r) whose offset sums take the convolution for
#: every Gaussian-integer coefficient vector: W <= T/4 at full support
ZERO_OFFSET_CASES = [
    (PARABOLA, 3, 2, (0, 0), 4),
    (PARABOLA, 5, 2, (0, Fraction(1, 2)), 4),
    (MOMENT3, 3, 1, (0, 0, 0), 6),
    (MOMENT3, 3, 1, (0, 0, 1), 4),
    (MOMENT3, 3, 1, (0, 0, 1), 6),
    (GAUSSIAN, 3, 1, (0, 0, 0, 0), 4),
    (GAUSSIAN, 2, 2, (0, 0, Fraction(1, 2), Fraction(1, 2)), 4),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 0, 0, 0), 4),
    (CUBE_ROOT_2, 2, 1, (0, 0, 0, 0, 0, 1), 4),
]


@st.composite
def _zero_offset_case(draw):
    system, p, K, sig, r = draw(st.sampled_from(ZERO_OFFSET_CASES))
    domain = IndexDomain.box(p**K, system.dimension)
    parts = st.integers(min_value=-2, max_value=2)
    amplitude = draw(st.lists(st.builds(complex, parts, parts),
                              min_size=len(domain), max_size=len(domain)))
    return system, ScaleSpec(p=p, K=K), _sigma(*sig), CoefficientVector(domain, amplitude), r


@settings(max_examples=60, deadline=None)
@given(_zero_offset_case())
def test_offset_convolution_at_zero_offset_is_the_integer_count(case):
    # the engine's two users: complex offset columns against integer parts
    system, scale, sig, coeffs, r = case
    cells = build_domain(scale, sig, system.degrees).cell_counts
    grid = _grid(system, coeffs, cells)
    zero = _offset_factors(grid.phase_vals, np.zeros((1, len(system.components))))
    with mock.patch.object(meanvalue, "convolution_power",
                           wraps=meanvalue.convolution_power) as engine:
        sums = grid.per_offset_power_sum(float(r), zero)
    assert engine.call_count == 1  # the convolution, not the GEMM
    count = convolution_counts(grid._residues, coeffs.amplitude, r // 2, grid.moduli)
    np.testing.assert_allclose(sums, [grid.total * count], rtol=1e-15, atol=0)


@settings(max_examples=40, deadline=None)
@given(_zero_offset_case(), st.data())
def test_offset_engines_agree_at_a_random_offset(case, data):
    # one nonzero offset v: the GEMM, the offset convolution and the
    # transform of the modulated coefficients a_n e(v . P(n)) sum the same
    # |S|^r over Q, Q(i) and Q(2^(1/3)), at sigma 0 and localized
    system, scale, sig, coeffs, r = case
    k = len(system.components)
    v = np.array(data.draw(st.lists(st.floats(-0.5, 0.5), min_size=k, max_size=k)
                           .filter(any)))
    grid = _grid(system, coeffs, build_domain(scale, sig, system.degrees).cell_counts)
    factors = _offset_factors(grid.phase_vals, v[None])
    transform = meanvalue._transform_power_sum(
        grid.moduli, grid._residues, coeffs.amplitude * factors[0], float(r))
    with mock.patch.object(meanvalue, "convolution_power",
                           wraps=meanvalue.convolution_power) as engine:
        convolved = grid.per_offset_power_sum(float(r), factors)[0]
        assert engine.call_count == 1
        # a work bound past T/4 sends the same column to the GEMM
        with mock.patch.object(meanvalue, "_convolution_work", return_value=grid.total):
            direct = grid.per_offset_power_sum(float(r), factors)[0]
        assert engine.call_count == 1
    np.testing.assert_allclose([convolved, direct], transform, rtol=1e-12, atol=0)


def test_even_offset_sums_take_the_convolution_only_below_a_quarter_grid(monkeypatch):
    runs = _counting_convolutions(monkeypatch)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(9, 1), seed=5)
    # parabola p=3 K=2 sigma (0,1): |H| = 9, W = 81 = T
    report, = transfer_check(PARABOLA, [coeffs], 4.0, ScaleSpec(p=3, K=2), _sigma(0, 1))
    assert report.passed
    assert runs == []
    # moment curve p=3 K=1 sigma (0,0,1): |H| = 3, W = 9, T = 243, both levels
    coeffs = sample_coefficients("random-phase", IndexDomain.box(3, 1), seed=5)
    assert transfer_check(MOMENT3, [coeffs], 4.0, ScaleSpec(p=3, K=1),
                          _sigma(0, 0, 1))[0].passed
    assert [total for total, _ in runs] == [243, 243]
    runs.clear()  # odd r runs direct
    transfer_check(MOMENT3, [coeffs], 3.0, ScaleSpec(p=3, K=1), _sigma(0, 0, 1))[0]
    assert runs == []


def test_convolution_blocks_and_threads_do_not_change_offset_sums(monkeypatch):
    runs = _counting_convolutions(monkeypatch)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(3, 1), seed=67)
    domain = build_domain(ScaleSpec(p=3, K=1), _sigma(0, 0, 1), MOMENT3.degrees)
    offsets, _ = tensor_offsets(domain.cell_halfwidths, (1, 1, 1), 4)
    factors = _offset_factors(meanvalue._phase_values(MOMENT3, coeffs.domain), offsets)
    V = len(offsets)
    default = _grid(MOMENT3, coeffs, domain.cell_counts).per_offset_power_sum(
        4.0, factors)
    assert runs == [(243, V)]  # one block
    # a pass of W = 9 pairs takes 32 bytes per pair and 32 more per offset column
    for columns in (1, 7, 100):
        monkeypatch.setattr(exact, "_BLOCK_BYTES", 9 * 32 * (columns + 1))
        for threads in (1, 2):
            runs.clear()
            grid = _grid(MOMENT3, coeffs, domain.cell_counts, threads=threads)
            assert grid.per_offset_power_sum(4.0, factors).tolist() == default.tolist()
            blocks = [width for _, width in runs]
            assert sum(blocks) == V and max(blocks) == columns
            assert len(blocks) == -(-V // columns)
    monkeypatch.setattr(exact, "_BLOCK_BYTES", 9 * 64 - 1)  # no column fits
    runs.clear()
    direct = _grid(MOMENT3, coeffs, domain.cell_counts).per_offset_power_sum(
        4.0, factors)
    assert runs == []
    np.testing.assert_allclose(direct, default, rtol=1e-13)


def test_phase_values_evaluated_once_per_call(monkeypatch):
    calls = []
    original = meanvalue._phase_values

    def counting(system, domain):
        calls.append(1)
        return original(system, domain)

    monkeypatch.setattr(meanvalue, "_phase_values", counting)
    scale = ScaleSpec(p=3, K=2)
    coeffs = sample_coefficients("random-phase", IndexDomain.box(9, 1), seed=3)
    runs = [
        lambda: padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0],
        lambda: real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0))[0],
        lambda: real_sparse_mv(PARABOLA, [coeffs], 3.0, scale, _sigma(0, 1))[0],
        lambda: transfer_check(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1))[0],
    ]
    for call in runs:
        calls.clear()
        call()
        assert len(calls) == 1


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, 1.5])
def test_non_finite_or_small_exponent_rejected(r):
    scale = ScaleSpec(p=3, K=1)
    coeffs = CoefficientVector.ones(IndexDomain.box(3, 1))
    for fn in (padic_short_mv, real_sparse_mv, transfer_check):
        with pytest.raises(InvalidInputError):
            fn(PARABOLA, [coeffs], r, scale, _sigma(0, 1))


def test_threads_below_one_rejected():
    scale = ScaleSpec(p=3, K=1)
    coeffs = CoefficientVector.ones(IndexDomain.box(3, 1))
    for threads in (0, -3):
        with pytest.raises(InvalidInputError):
            padic_short_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 0), threads=threads)
        with pytest.raises(InvalidInputError):
            real_sparse_mv(PARABOLA, [coeffs], 4.0, scale, _sigma(0, 1), threads=threads)


# --- one grid set-up per call, shared by every vector ----------------------------

#: (system, p, K, sigma, r) and the engines its vectors run on: the count or
#: the transform without offsets, the GEMM or the offset convolution with them
SHARED_SETUP_CASES = [
    (PARABOLA, 3, 2, (0, 1), 4.0),  # padic-count (all-ones) and padic-exact
    (PARABOLA, 3, 2, (0, 0), 4.0),  # real-count and real-exact
    (PARABOLA, 3, 1, (0, 1), 3.0),  # odd r: Gauss offsets by GEMM
    (MOMENT3, 3, 1, (0, 0, 1), 4.0),  # even r, W <= T/4: offset convolution
]


@st.composite
def _mixed_vectors(draw):
    """All four samplers, in any order, plus a few more draws, on one domain."""
    labels = [(name, 0) for name in draw(st.permutations(SAMPLER_NAMES))]
    labels += draw(st.lists(st.tuples(st.sampled_from(SAMPLER_NAMES),
                                      st.integers(1, 3)), max_size=2))
    seed = draw(st.integers(0, 2**16))
    return draw(st.permutations(labels)), seed


@pytest.mark.parametrize("system, p, K, sig, r", SHARED_SETUP_CASES)
@settings(max_examples=4, deadline=None)
@given(_mixed_vectors())
def test_multi_vector_reports_equal_one_vector_reports(system, p, K, sig, r, mixed):
    labels, seed = mixed
    scale = ScaleSpec(p=p, K=K)
    domain = IndexDomain.box(scale.N, system.dimension)
    vectors = [sample_coefficients(name, domain, seed, d) for name, d in labels]
    for fn in (padic_short_mv, real_sparse_mv, transfer_check):
        with mock.patch.object(meanvalue, "convolution_power",
                               wraps=meanvalue.convolution_power) as engine, \
             mock.patch.object(_GridSum, "_power_block", autospec=True,
                               side_effect=_GridSum._power_block) as gemm:
            together = fn(system, vectors, r, scale, _sigma(*sig))
        alone = [fn(system, [coeffs], r, scale, _sigma(*sig))[0] for coeffs in vectors]
        assert repr(together) == repr(alone)  # bit for bit, -0.0 included
        if fn is transfer_check and r == 3.0:
            assert gemm.call_count > 0
        if fn is transfer_check and system is MOMENT3:
            assert engine.call_count > 0 and gemm.call_count == 0
    methods = {rep.method for fn in (padic_short_mv, real_sparse_mv)
               for rep in fn(system, vectors, r, scale, _sigma(*sig))}
    if sig == (0, 1) and r == 4.0:
        assert methods >= {"padic-count", "padic-exact"}
    if sig == (0, 0):
        assert methods >= {"real-count", "real-exact"}


def test_transfer_check_sets_up_offsets_and_phases_once(monkeypatch):
    calls = Counter()
    original_offsets = meanvalue.tensor_offsets
    original_evaluate = PhaseComponent.evaluate

    def counting_offsets(*args):
        calls["tensor_offsets"] += 1
        return original_offsets(*args)

    def counting_evaluate(self, pt):
        calls["evaluate"] += 1
        return original_evaluate(self, pt)

    monkeypatch.setattr(meanvalue, "tensor_offsets", counting_offsets)
    monkeypatch.setattr(PhaseComponent, "evaluate", counting_evaluate)
    scale = ScaleSpec(p=3, K=2)
    domain = IndexDomain.box(9, 1)
    for n in (1, 7):
        vectors = [sample_coefficients("random-phase", domain, 3, d) for d in range(n)]
        calls.clear()
        reports = transfer_check(PARABOLA, vectors, 4.0, scale, _sigma(0, 1))
        assert len(reports) == n
        assert calls == {"tensor_offsets": 2,  # the coarse and the fine level
                         "evaluate": len(PARABOLA.components) * len(domain)}


def test_vectors_must_share_one_index_domain():
    scale = ScaleSpec(p=3, K=1)
    three = CoefficientVector.ones(IndexDomain.box(3, 1))
    other = CoefficientVector.ones(IndexDomain(points=((0,), (1,), (5,))))
    twin = CoefficientVector.ones(IndexDomain.box(3, 1))  # an equal domain
    assert len(padic_short_mv(PARABOLA, [three, twin], 4.0, scale, _sigma(0, 0))) == 2
    for fn in (padic_short_mv, real_sparse_mv, transfer_check):
        for vectors in ([three, other], []):
            with pytest.raises(InvalidInputError):
                fn(PARABOLA, vectors, 4.0, scale, _sigma(0, 1))


def test_transfer_check_memory_does_not_grow_with_vectors():
    # the moment curve k=3 at p=3 K=1: 8192 fine offsets, each vector's
    # per-offset sums as large as 8192 floats
    scale = ScaleSpec(p=3, K=1)
    domain = IndexDomain.box(3, 1)
    peaks = {}
    for n in (1, 16):
        vectors = [sample_coefficients("random-phase", domain, 5, d) for d in range(n)]
        transfer_check(MOMENT3, vectors[:1], 4.0, scale, _sigma(0, 0, 1))  # warm caches
        tracemalloc.start()
        try:
            reports = transfer_check(MOMENT3, vectors, 4.0, scale, _sigma(0, 0, 1))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports[0].grid_size >= 4096
    assert peaks[16] <= 1.1 * peaks[1]
