from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest

from sparsemv.errors import InvalidInputError
from sparsemv.numberfield import (
    MinimalPolynomial,
    _divisors,
    epsilon_table,
    evaluate_phase,
    expand_trace_phase,
    field_multiply,
    moment_curve,
    parabola_system,
    trace_power,
    trace_powers,
)

X2P1 = MinimalPolynomial.parse("1,0")     # x^2 + 1
X3M2 = MinimalPolynomial.parse("-2,0,0")  # x^3 - 2
X2M2 = MinimalPolynomial.parse("-2,0")    # x^2 - 2


def _coefficient_map(comp) -> dict[tuple[int, ...], int]:
    """A phase component's terms as {exponents: coefficient}."""
    return {t.exponents: t.coefficient for t in comp.terms}


# --- independent oracle: trace via companion-matrix powers -----------------

def _companion_trace(poly: MinimalPolynomial, kappa: int) -> Fraction:
    d = poly.degree
    mat = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        mat[i][i - 1] = Fraction(1)
    for i in range(d):
        mat[i][d - 1] = -poly.coeffs[i]
    power = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(kappa):
        power = [
            [sum(power[i][t] * mat[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
    return sum(power[i][i] for i in range(d))


def _random_checked_polys(count: int, seed: int = 2024):
    rng = random.Random(seed)
    polys = []
    while len(polys) < count:
        d = rng.randint(1, 5)
        coeffs = tuple(Fraction(rng.randint(-10, 10)) for _ in range(d))
        try:
            polys.append(MinimalPolynomial(coeffs))
        except InvalidInputError:
            continue
    return polys


def test_trace_power_base_cases():
    assert trace_power(X2P1, 0) == 2
    assert trace_power(X3M2, 0) == 3
    assert trace_power(X2P1, 2) == -2
    assert trace_power(X3M2, 3) == 6
    assert trace_power(X3M2, 4) == 0


def test_trace_power_matches_companion_matrix():
    fixed = [X2P1, X3M2, X2M2, MinimalPolynomial.parse("0")]
    for poly in fixed + _random_checked_polys(20):
        for kappa in range(13):
            assert trace_power(poly, kappa) == _companion_trace(poly, kappa), (
                poly.coeffs,
                kappa,
            )


def test_trace_powers_prefix_consistency():
    values = trace_powers(X3M2, 9)
    for kappa in range(10):
        assert values[kappa] == trace_power(X3M2, kappa)


def test_divisors_match_trial_division():
    for n in list(range(1, 400)) + [-12, 2**20, 3**7 * 5**3 * 7, 9973 * 9967]:
        small = [d for d in range(1, math.isqrt(abs(n)) + 1) if n % d == 0]
        assert _divisors(n) == sorted(set(small + [abs(n) // d for d in small]))


def test_rational_root_test_factors_large_constants():
    # x^2 - 2/3^39: the old divisor search trial-divided up to 3^39.5
    start = time.perf_counter()
    MinimalPolynomial.parse("-2/4052555153018976267,0")
    assert time.perf_counter() - start < 1.0
    with pytest.raises(InvalidInputError, match="2/1162261467"):
        MinimalPolynomial.parse("-4/1350851717672992089,0")  # x^2 - (2/3^19)^2


def test_rational_root_rejection():
    with pytest.raises(InvalidInputError):
        MinimalPolynomial.parse("-1,0")  # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(InvalidInputError):
        MinimalPolynomial.parse("0,0")  # x^2, root 0
    with pytest.raises(InvalidInputError):
        MinimalPolynomial.parse("-8,0,0")  # x^3 - 8, root 2
    with pytest.raises(InvalidInputError):
        MinimalPolynomial((Fraction(1), Fraction(-5, 2)))  # x^2 - 5/2 x + 1, root 2
    # degree 1 is always fine, including the rational line P = x
    MinimalPolynomial.parse("0")
    MinimalPolynomial.parse("-1")


def test_field_multiply_examples():
    assert field_multiply((0, 1), (0, 1), X2P1) == (-1, 0)
    assert field_multiply((0, 0, 1), (0, 0, 1), X3M2) == (0, 2, 0)
    assert field_multiply((1, 0), (3, 0), X2P1) == (3, 0)
    with pytest.raises(InvalidInputError):
        field_multiply((1, 0, 0), (1, 0), X2P1)


def test_epsilon_table_paper_cases():
    assert epsilon_table(0, 0) == 1
    assert epsilon_table(1, 1) == -1
    assert epsilon_table(0, 1) == 0


def test_epsilon_table_is_half_trace():
    for kappa in range(21):
        assert 2 * epsilon_table(0, kappa) == trace_power(X2P1, kappa)


def test_moment_curve_reduction():
    system = moment_curve(3)
    maps = [_coefficient_map(c) for c in system.components]
    assert maps == [{(1,): 1}, {(2,): 1}, {(3,): 1}]
    assert all(c.scale == 1 for c in system.components)
    assert evaluate_phase(system, (2,)) == (2, 4, 8)
    assert parabola_system().degrees == (1, 2)


# --- independent oracle: symbolic field-power expansion ---------------------
#
# Compute Tr(beta^j alpha^l) for beta = sum_i n_i alpha^i with the n_i formal,
# via exact multivariate-polynomial coordinates in Q(alpha) -- no multinomial
# formula involved -- and compare with the generated components.

def _symbolic_trace_component(poly: MinimalPolynomial, j: int, ell: int):
    d = poly.degree
    zero = {}

    def padd(a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
            if out[e] == 0:
                del out[e]
        return out

    def pmul(a, b):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, Fraction(0)) + ca * cb
        return {e: c for e, c in out.items() if c != 0}

    beta = [dict() for _ in range(d)]
    for i in range(d):
        e = [0] * d
        e[i] = 1
        beta[i] = {tuple(e): Fraction(1)}
    acc = [dict() for _ in range(d)]
    acc[0] = {(0,) * d: Fraction(1)}  # beta^0 = 1
    for _ in range(j):
        new = [dict() for _ in range(d)]
        for i in range(d):  # multiply acc by beta: coords convolve mod P
            if not acc[i]:
                continue
            for t in range(d):
                idx = i + t
                term = pmul(acc[i], beta[t])
                if idx < d:
                    new[idx] = padd(new[idx], term)
                else:
                    # alpha^idx reduced via alpha^d = -(c_{d-1} alpha^{d-1}+...+c_0)
                    reduction = _alpha_power_coords(poly, idx)
                    for rpos, rcoeff in enumerate(reduction):
                        if rcoeff:
                            scaled = {e: c * rcoeff for e, c in term.items()}
                            new[rpos] = padd(new[rpos], scaled)
        acc = new
    # multiply by alpha^ell, then take the trace coordinatewise
    shifted = [dict() for _ in range(d)]
    for i in range(d):
        if not acc[i]:
            continue
        idx = i + ell
        if idx < d:
            shifted[idx] = padd(shifted[idx], acc[i])
        else:
            reduction = _alpha_power_coords(poly, idx)
            for rpos, rcoeff in enumerate(reduction):
                if rcoeff:
                    scaled = {e: c * rcoeff for e, c in acc[i].items()}
                    shifted[rpos] = padd(shifted[rpos], scaled)
    traces = trace_powers(poly, d - 1)
    total = zero
    for i in range(d):
        if shifted[i]:
            total = padd(total, {e: c * traces[i] for e, c in shifted[i].items()})
    return total


def _alpha_power_coords(poly: MinimalPolynomial, power: int) -> tuple[Fraction, ...]:
    d = poly.degree
    coords = [Fraction(0)] * d
    if power < d:
        coords[power] = Fraction(1)
        return tuple(coords)
    coords[d - 1] = Fraction(1)
    for _ in range(power - (d - 1)):
        top = coords[d - 1]
        coords = [Fraction(0)] + coords[:-1]
        for i, c in enumerate(poly.coeffs):
            coords[i] -= top * c
    return tuple(coords)


@pytest.mark.parametrize("poly", [X2P1, X3M2, X2M2])
def test_expand_matches_symbolic_field_oracle(poly):
    k = 3
    system = expand_trace_phase(poly, k)
    for comp in system.components:
        oracle = _symbolic_trace_component(poly, comp.j, comp.ell)
        generated = {
            e: Fraction(c) * comp.scale for e, c in _coefficient_map(comp).items()
        }
        assert generated == oracle, (poly.coeffs, comp.j, comp.ell)


@pytest.mark.parametrize("poly, k", [(X3M2, 1), (MinimalPolynomial.parse("-2,0,0,0"), 1),
                                     (MinimalPolynomial.parse("-2,0,0,0"), 2)])
def test_expand_below_degree_matches_symbolic_field_oracle(poly, k):
    # k < d - 1 needs traces past alpha^(k d): up to alpha^((k + 1)(d - 1))
    for comp in expand_trace_phase(poly, k).components:
        generated = {
            e: Fraction(c) * comp.scale for e, c in _coefficient_map(comp).items()
        }
        assert generated == _symbolic_trace_component(poly, comp.j, comp.ell)


def test_expand_x2p1_k3_components():
    # frozen expected system: real/imaginary parts of (n0 + i n1)^j, i.e. the
    # epsilon-table expansion, content-normalized with the scale recorded
    system = expand_trace_phase(X2P1, 3)
    expected = {
        (1, 0): ({(1, 0): 1}, Fraction(2)),
        (1, 1): ({(0, 1): -1}, Fraction(2)),
        (2, 0): ({(2, 0): 1, (0, 2): -1}, Fraction(2)),
        (2, 1): ({(1, 1): -1}, Fraction(4)),
        (3, 0): ({(3, 0): 1, (1, 2): -3}, Fraction(2)),
        (3, 1): ({(2, 1): -3, (0, 3): 1}, Fraction(2)),
    }
    for comp in system.components:
        want_map, want_scale = expected[(comp.j, comp.ell)]
        assert _coefficient_map(comp) == want_map
        assert comp.scale == want_scale


def test_expand_x3m2_k3_components():
    # frozen expected system for x^3 - 2 at k = 3
    system = expand_trace_phase(X3M2, 3)
    expected = {
        (1, 0): {(1, 0, 0): 1},
        (1, 1): {(0, 0, 1): 1},
        (1, 2): {(0, 1, 0): 1},
        (2, 0): {(2, 0, 0): 1, (0, 1, 1): 4},
        (2, 1): {(1, 0, 1): 2, (0, 2, 0): 1},
        (2, 2): {(1, 1, 0): 1, (0, 0, 2): 1},
        (3, 0): {(3, 0, 0): 1, (1, 1, 1): 12, (0, 3, 0): 2, (0, 0, 3): 4},
        (3, 1): {(2, 0, 1): 1, (1, 2, 0): 1, (0, 1, 2): 2},
        (3, 2): {(2, 1, 0): 1, (1, 0, 2): 2, (0, 2, 1): 2},
    }
    for comp in system.components:
        assert _coefficient_map(comp) == expected[(comp.j, comp.ell)]
    # leading (ell = 0) components carry exactly the field degree as scale
    for comp in system.components:
        if comp.ell == 0:
            assert comp.scale == 3


def test_phase_evaluation_examples():
    system = expand_trace_phase(X3M2, 3)
    comp20 = next(c for c in system.components if (c.j, c.ell) == (2, 0))
    assert comp20.evaluate((1, 1, 1)) == 5  # n0^2 + 4 n1 n2
    assert evaluate_phase(system, (0, 0, 0)) == (0,) * 9


def test_homogeneity():
    for poly, k in ((X2P1, 3), (X3M2, 2)):
        system = expand_trace_phase(poly, k)
        rng = random.Random(5)
        for _ in range(10):
            n = tuple(rng.randint(-4, 4) for _ in range(poly.degree))
            base = evaluate_phase(system, n)
            for t in (2, 3):
                scaled = evaluate_phase(system, tuple(t * x for x in n))
                for comp, b, sval in zip(system.components, base, scaled):
                    assert sval == t**comp.degree * b


def test_normalized_coefficients_have_unit_content():
    import math as _math

    for poly in (X2P1, X3M2, X2M2):
        for comp in expand_trace_phase(poly, 3).components:
            g = 0
            for term in comp.terms:
                g = _math.gcd(g, abs(term.coefficient))
            assert g == 1
            assert comp.scale > 0
