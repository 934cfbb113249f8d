"""Exponential-sum mean values over real and p-adic sparse domains.

Library layout:

- :mod:`sparsemv.exact` — root tables, exact order-independent summation,
  exact convolution counts.
- :mod:`sparsemv.numberfield` — minimal polynomials, power traces, and the
  trace-expanded phase systems.
- :mod:`sparsemv.padic` — scales N = p**K, primality, Hensel lifting of
  sqrt(-1).
- :mod:`sparsemv.domains` — sparse product-cell subdomains of the torus.
- :mod:`sparsemv.meanvalue` — p-adic short mean values, real sparse mean
  values, transference checks, restriction-constant lower bounds.
- :mod:`sparsemv.vinogradov` — exact solution counting for power-sum systems
  with algebraic indeterminates.
- :mod:`sparsemv.counterexample` — norms of the p-adic paraboloid wave
  packet family.
- :mod:`sparsemv.cli` — the ``sparsemv`` command-line front end.
"""

from .counterexample import (
    CounterexampleFamily,
    single_norm,
    sum_norm,
    verify_paraboloid_membership,
)
from .domains import (
    LocalizationVector,
    build_domain,
    emit_cell_csv,
    enumerate_cells,
)
from .exact import tree_sum
from .meanvalue import (
    CoefficientVector,
    IndexDomain,
    estimate_restriction_constant,
    padic_short_mv,
    real_sparse_mv,
    sample_coefficients,
    transfer_check,
)
from .numberfield import (
    MinimalPolynomial,
    epsilon_table,
    evaluate_phase,
    expand_trace_phase,
    field_multiply,
    moment_curve,
    parabola_system,
    trace_power,
)
from .padic import (
    HenselRoot,
    ScaleSpec,
    hensel_sqrt_minus_one,
    is_prime,
)
from .quadrature import QuadratureConfig
from .vinogradov import count_solutions, count_solutions_brute, fit_growth

__version__ = "0.1.0"

__all__ = [
    "CoefficientVector",
    "CounterexampleFamily",
    "HenselRoot",
    "IndexDomain",
    "LocalizationVector",
    "MinimalPolynomial",
    "QuadratureConfig",
    "ScaleSpec",
    "build_domain",
    "count_solutions",
    "count_solutions_brute",
    "emit_cell_csv",
    "enumerate_cells",
    "epsilon_table",
    "estimate_restriction_constant",
    "evaluate_phase",
    "expand_trace_phase",
    "field_multiply",
    "fit_growth",
    "hensel_sqrt_minus_one",
    "is_prime",
    "moment_curve",
    "padic_short_mv",
    "parabola_system",
    "real_sparse_mv",
    "sample_coefficients",
    "single_norm",
    "sum_norm",
    "trace_power",
    "transfer_check",
    "tree_sum",
    "verify_paraboloid_membership",
]
