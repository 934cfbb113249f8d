"""Number fields by minimal polynomial, power traces, and trace phase systems.

A degree-d field Q(alpha) is represented through the monic minimal polynomial
P(x) = x^d + c_{d-1} x^{d-1} + ... + c_0; elements are coordinate vectors in
the power basis 1, alpha, ..., alpha^{d-1}.  The phase-system generator
expands Tr((n_0 + n_1 alpha + ... + n_{d-1} alpha^{d-1})^j alpha^l) into a
homogeneous integer-coefficient polynomial in n for every pair (j, l), which
is what the mean-value machinery consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import InvalidInputError


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, from its factorisation by trial
    division; each prime is divided out as it is found, so the search stops
    at the square root of the largest remaining cofactor."""
    n = abs(n)
    out = [1]
    cand = 2
    while n > 1:
        if cand * cand > n:
            cand = n  # what is left is prime
        power = len(out)
        while n % cand == 0:
            n //= cand
            out += [d * cand for d in out[-power:]]
        cand += 1
    return sorted(out)


@dataclass(frozen=True)
class MinimalPolynomial:
    """Monic P(x) = x^d + coeffs[d-1] x^{d-1} + ... + coeffs[0].

    Degree-1 inputs are always accepted.  For d > 1 the constructor runs the
    rational-root test (a necessary condition for irreducibility); certifying
    full irreducibility is the caller's responsibility.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise InvalidInputError("minimal polynomial needs degree >= 1")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        if self.degree > 1:
            root = self._rational_root()
            if root is not None:
                raise InvalidInputError(
                    f"polynomial has rational root {root}; not irreducible"
                )

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, x: Fraction) -> Fraction:
        acc = Fraction(1)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        # Horner above folds the implicit leading 1 through all d steps.
        return acc

    def _rational_root(self) -> Fraction | None:
        # Clear denominators: candidates u/v need u | constant, v | leading.
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        lead = den_lcm
        const = int(self.coeffs[0] * den_lcm)
        if const == 0:
            return Fraction(0)
        for u in _divisors(const):
            for v in _divisors(lead):
                for cand in (Fraction(u, v), Fraction(-u, v)):
                    if self(cand) == 0:
                        return cand
        return None

    @classmethod
    def parse(cls, text: str) -> "MinimalPolynomial":
        """Parse ascending coefficients "c_0,c_1,...,c_{d-1}" (monic implied)."""
        parts = [p.strip() for p in text.split(",")]
        try:
            coeffs = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad minimal polynomial {text!r}: {exc}") from exc
        return cls(coeffs)

    def format(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


# The rational line as a degree-1 field; collapses every trace expansion to
# the plain moment curve.
RATIONAL_LINE = MinimalPolynomial((Fraction(0),))


def field_multiply(
    a: Sequence[Fraction], b: Sequence[Fraction], minpoly: MinimalPolynomial
) -> tuple[Fraction, ...]:
    """Exact product of two power-basis coordinate vectors modulo P."""
    d = minpoly.degree
    if len(a) != d or len(b) != d:
        raise InvalidInputError(
            f"coordinate length mismatch: got {len(a)}, {len(b)} for degree {d}"
        )
    prod = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    # reduce: alpha^d = -(c_{d-1} alpha^{d-1} + ... + c_0)
    for top in range(2 * d - 2, d - 1, -1):
        lead = prod[top]
        if lead == 0:
            continue
        prod[top] = Fraction(0)
        for i, c in enumerate(minpoly.coeffs):
            prod[top - d + i] -= lead * c
    return tuple(prod[:d])


def trace_powers(minpoly: MinimalPolynomial, kappa_max: int) -> list[Fraction]:
    """Tr(alpha^kappa) for kappa = 0..kappa_max via Newton's identities.

    With P = x^d + a_1 x^{d-1} + ... + a_d the power sums p_k of the roots
    satisfy p_k = -k a_k - sum_{i<k} a_i p_{k-i} for k <= d and the pure
    recurrence p_k = -sum_{i<=d} a_i p_{k-i} beyond.
    """
    d = minpoly.degree
    a = [Fraction(0)] + [minpoly.coeffs[d - i] for i in range(1, d + 1)]
    p: list[Fraction] = [Fraction(d)]
    for k in range(1, kappa_max + 1):
        if k <= d:
            s = -k * a[k]
            for i in range(1, k):
                s -= a[i] * p[k - i]
        else:
            s = Fraction(0)
            for i in range(1, d + 1):
                s -= a[i] * p[k - i]
        p.append(s)
    return p


def trace_power(minpoly: MinimalPolynomial, kappa: int) -> Fraction:
    """Tr_{Q(alpha)/Q}(alpha^kappa), exact."""
    if kappa < 0:
        raise InvalidInputError("kappa must be nonnegative")
    return trace_powers(minpoly, kappa)[kappa]


def epsilon_table(ell: int, e1: int) -> int:
    """Sign table driving the x^2+1 phase system: Tr(i^(ell+e1)) / 2."""
    if ell not in (0, 1):
        raise InvalidInputError("ell must be 0 or 1")
    m = ell + e1
    if m % 2 == 1:
        return 0
    return -1 if m % 4 == 2 else 1


@dataclass(frozen=True)
class MonomialTerm:
    """coefficient * n_0^{e_0} ... n_{d-1}^{e_{d-1}} with a nonzero coefficient."""

    exponents: tuple[int, ...]
    coefficient: int


@dataclass(frozen=True)
class PhaseComponent:
    """One homogeneous component of a phase system.

    ``scale`` records the positive rational by which the raw trace expansion
    was divided to reach integer coefficients of collective gcd 1.
    """

    j: int
    ell: int
    degree: int
    terms: tuple[MonomialTerm, ...]
    scale: Fraction

    def evaluate(self, point: Sequence[int]) -> int:
        total = 0
        for term in self.terms:
            v = term.coefficient
            for exp, x in zip(term.exponents, point):
                if exp:
                    v *= x**exp
            total += v
        return total


@dataclass(frozen=True)
class PhaseSystem:
    """A vector of homogeneous integer-coefficient polynomial phases."""

    dimension: int
    components: tuple[PhaseComponent, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(c.degree for c in self.components)

    def __len__(self) -> int:
        return len(self.components)

    def evaluate(self, point: Sequence[int]) -> tuple[int, ...]:
        if len(point) != self.dimension:
            raise InvalidInputError(
                f"point has length {len(point)}, system dimension is {self.dimension}"
            )
        return tuple(c.evaluate(point) for c in self.components)


def evaluate_phase(system: PhaseSystem, point: Sequence[int]) -> tuple[int, ...]:
    """Exact integer vector of component values at an integer point."""
    return system.evaluate(point)


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Lexicographically descending in the leading entry, then recursively.
    if parts == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions_desc(total - head, parts - 1):
            yield (head,) + rest


def _normalize_component(
    j: int, ell: int, raw: dict[tuple[int, ...], Fraction]
) -> PhaseComponent:
    terms = {e: c for e, c in raw.items() if c != 0}
    if not terms:
        # A vanishing component would break homogeneity bookkeeping downstream.
        raise InvalidInputError(f"trace phase component (j={j}, l={ell}) is zero")
    den_lcm = 1
    for c in terms.values():
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = {e: int(c * den_lcm) for e, c in terms.items()}
    content = 0
    for v in ints.values():
        content = math.gcd(content, abs(v))
    scale = Fraction(content, den_lcm)
    ordered = tuple(
        MonomialTerm(e, ints[e] // content)
        for e in sorted(ints, reverse=True)
    )
    return PhaseComponent(j=j, ell=ell, degree=j, terms=ordered, scale=scale)


@lru_cache(maxsize=64)
def expand_trace_phase(minpoly: MinimalPolynomial, k: int) -> PhaseSystem:
    """The d*k-component trace phase system for Q(alpha) up to degree k.

    Component (j, l) is the multinomial expansion of
    Tr((n_0 + n_1 alpha + ... + n_{d-1} alpha^{d-1})^j alpha^l), a homogeneous
    degree-j polynomial: sum over e_0+...+e_{d-1}=j of
    multinomial(j; e) * Tr(alpha^{l + sum_i i*e_i}) * n^e.
    Components are normalized to integer coefficients of collective gcd 1,
    preserving the sign of the lexicographically leading term, with the
    applied positive rational recorded as the component scale.
    """
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    d = minpoly.degree
    traces = trace_powers(minpoly, (k + 1) * (d - 1))  # the largest power below
    components = []
    for j in range(1, k + 1):
        for ell in range(d):
            raw: dict[tuple[int, ...], Fraction] = {}
            for e in _compositions_desc(j, d):
                multinom = math.factorial(j)
                for part in e:
                    multinom //= math.factorial(part)
                power = ell + sum(i * e_i for i, e_i in enumerate(e))
                coeff = multinom * traces[power]
                if coeff != 0:
                    raw[e] = raw.get(e, Fraction(0)) + coeff
            components.append(_normalize_component(j, ell, raw))
    return PhaseSystem(dimension=d, components=tuple(components))


def moment_curve(k: int) -> PhaseSystem:
    """The moment curve phases (n, n^2, ..., n^k) as a degree-1 trace system."""
    return expand_trace_phase(RATIONAL_LINE, k)


def parabola_system() -> PhaseSystem:
    """The parabola phases (n, n^2)."""
    return moment_curve(2)


def phase_system_rows(system: PhaseSystem) -> list[tuple]:
    """CSV rows (j, ell, multiindex dash-joined, coefficient, component_scale)."""
    rows = []
    for comp in system.components:
        for term in comp.terms:
            rows.append(
                (
                    comp.j,
                    comp.ell,
                    "-".join(str(e) for e in term.exponents),
                    term.coefficient,
                    str(comp.scale),
                )
            )
    return rows
