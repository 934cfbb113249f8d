"""p-adic short mean values, real sparse mean values, and transference.

The p-adic mean value at scale N is an exact finite sum over the cell-index
grid; at canonical scale (sigma = 0) with an even exponent it counts
congruence solutions of the associated power-sum system.  The real mean value
integrates the same exponential sum over the sparse cell union; at canonical
scale it counts exact solutions.  The two agree until the congruence system
picks up non-trivial solutions, and in general the real value is bounded by
the sup over cell-offset modulations of the p-adic value, an inequality
transfer_check verifies per coefficient vector.

Each of padic_short_mv, real_sparse_mv and transfer_check takes a sequence of
coefficient vectors on one index domain and returns one report per vector, in
order; the grid set-up (phases, residues, quadrature offsets) is built once
per call and shared by every vector.
"""

from fractions import Fraction

from sparsemv import (
    CoefficientVector,
    IndexDomain,
    LocalizationVector,
    ScaleSpec,
    padic_short_mv,
    parabola_system,
    real_sparse_mv,
    sample_coefficients,
    transfer_check,
)

parabola = parabola_system()


def sigma(*vals):
    return LocalizationVector(tuple(Fraction(v) for v in vals))


print("canonical scale (sigma = 0), a = 1, r = 4: counting interpretations")
for p, K in ((3, 1), (5, 1), (3, 2)):
    scale = ScaleSpec(p=p, K=K)
    ones = CoefficientVector.ones(IndexDomain.box(scale.N, 1))
    padic, = padic_short_mv(parabola, [ones], 4.0, scale, sigma(0, 0))
    real, = real_sparse_mv(parabola, [ones], 4.0, scale, sigma(0, 0))
    note = "" if abs(real.value - padic.value) < 1e-6 * padic.value else \
        "   <-- congruence solutions exceed exact solutions"
    print(f"  N={scale.N:2d}: padic={padic.value:10.4f} (congruence count)  "
          f"real={real.value:10.4f} (exact count){note}")

print("\nParseval at r = 2 (random unit-modulus coefficients):")
scale = ScaleSpec(p=5, K=1)
coeffs = sample_coefficients("random-phase", IndexDomain.box(5, 1), seed=1)
report, = padic_short_mv(parabola, [coeffs], 2.0, scale, sigma(0, 0))
print(f"  value = {report.value:.12f}, sum |a_n|^2 = {coeffs.ell_r(2.0):.12f}")

print("\nlocalized strips (sigma = (0,1)) at N = 9, r = 4, five random vectors:")
scale = ScaleSpec(p=3, K=2)
domain = IndexDomain.box(9, 1)
vectors = [sample_coefficients("random-phase", domain, seed=12, draw=draw)
           for draw in range(5)]
# one call: the fine quadrature offsets are built once for all five vectors
reports = transfer_check(parabola, vectors, 4.0, scale, sigma(0, 1))
for draw, rep in enumerate(reports):
    verdict = "ok" if rep.passed else "VIOLATION"
    print(
        f"  draw {draw}: real={rep.real_value:9.4f} <= "
        f"sup padic={rep.padic_sup_over_grid:9.4f} over {rep.grid_size} "
        f"modulations  [{verdict}]"
    )
