"""Vinogradov systems with algebraic indeterminates.

J(s, k, d; N, alpha) counts ordered pairs of s-tuples of field elements
beta = n_0 + n_1 alpha + ... + n_{d-1} alpha^{d-1} (coordinates in [0, N))
with equal power sums up to degree k.  Counting is exact: moment keys are
exact coordinate vectors, J is the sum of squared counts of the key histogram
convolved with itself s times, and a pairwise brute-force oracle
cross-checks small cases.  The growth exponent of J against the
envelope max(ds, 2ds - d k(k+1)/2) is the quantity of interest.
"""

from sparsemv import MinimalPolynomial, count_solutions, count_solutions_brute, fit_growth

line = MinimalPolynomial.parse("0")      # P = x: the classical integer case
gauss = MinimalPolynomial.parse("1,0")   # x^2 + 1

print("classical (d=1) parabola system, s=2, k=2: J = 2N^2 - N")
for N in (4, 8, 16):
    rec = count_solutions(line, 2, 2, N)
    brute = count_solutions_brute(line, 2, 2, N)
    print(f"  N={N:2d}: J={rec.J:5d} (hash) = {brute.J} (brute) = {2*N*N - N}")

print("\nGaussian-integer indeterminates (d=2), s=2, k=2:")
for N in (2, 3, 4):
    rec = count_solutions(gauss, 2, 2, N)
    formal = count_solutions(gauss, 2, 2, N, transcendental=True)
    print(f"  N={N}: J={rec.J} (reduced)  {formal.J} (formal generator)  "
          f"diagonal floor N^(ds) = {N**4}")

print("\ngrowth fit for (d,s,k) = (1,2,2) over N in {4,8,16,32}:")
fit = fit_growth(line, 2, 2, (4, 8, 16, 32))
print(f"  slope = {fit.slope:.4f}, envelope exponent = {fit.envelope_exponent}")
for (N, J, logN, logJ), res in zip(fit.points, fit.residuals):
    print(f"    N={N:2d}  J={J:5d}  residual={res:+.4f}")

print("\ns = 1 sanity: the power basis is independent, so J = N^d exactly:")
for poly, name in ((line, "x"), (gauss, "x^2+1")):
    rec = count_solutions(poly, 1, 3, 4)
    print(f"  P = {name}: J = {rec.J} = 4^{poly.degree}")
