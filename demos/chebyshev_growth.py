"""
Growth of polynomials outside a convex body
===========================================

Chebyshev polynomials composed with slab functionals give multivariate
polynomials that are bounded by 1 on K and provably as large as possible
outside.  alpha(K, x) is exactly the quantity that controls the growth.
"""

import numpy as np

from minkgauge import (VPolytope, alpha, bernstein_bound, cheb_T,
                       cheb_growth, extremal_polynomial, leading_growth)

interval = VPolytope(np.array([[-1.0], [1.0]]))

# the univariate sanity anchor: T_2(2) = 7
rep = cheb_growth(interval, np.array([2.0]), 2)
print(f"degree-2 growth at x=2 on [-1,1]: {rep.growth}   (T_2(2) = {cheb_T(2, 2.0)})")

T = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))
x = np.array([30.0, 30.0])
a = alpha(T, x).alpha
print(f"\nalpha at {x.tolist()} = {a:.9f}")
for n in (1, 2, 4, 8):
    rep = cheb_growth(T, x, n)
    print(f"  max |p(x)| over degree-{n} polynomials bounded on K "
          f">= {rep.growth:.6f} = T_{n}(alpha)")

# the witness polynomial is explicit and can be evaluated anywhere
res = alpha(T, x)
P = extremal_polynomial(T, res.witness_dir, 3)
print(f"\nwitness polynomial value  = {P(x):.9f}")
print(f"T_3(alpha)                = {cheb_T(3, a):.9f}")
samples = np.array([[12, 12], [10, 10], [16, 10], [10, 16], [13, 12]], float)
print(f"|P| at body points        = "
      f"{max(abs(P(s)) for s in samples):.9f}  (<= 1)")

# leading coefficients grow with the reciprocal chord length
for n in (2, 3, 5):
    rep = leading_growth(T, np.array([1.0, 1.0]) / np.sqrt(2), n)
    print(f"leading coefficient growth, degree {n}: {rep.value:.9e}")

# Bernstein: gradients of bounded polynomials are controlled at interior
# points, degrading as alpha approaches 1
for pt in ([12.0, 12.0], [11.0, 10.5]):
    rep = bernstein_bound(T, pt, 4)
    print(f"degree-4 gradient bound at {pt}: {rep.theorem_bound:.6f} "
          f"(alpha = {rep.alpha:.4f})")
