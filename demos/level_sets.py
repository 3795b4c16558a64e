"""
Level sets of the functional
============================

K^lambda = {x : alpha(K, x) <= lambda} is again a convex body.  Below the
symmetry constant it is empty; at 1 it is K itself; above 1 it grows like
K + (lambda - 1) C where C is the central symmetrization.
"""

import numpy as np

from minkgauge import (VPolytope, alpha, central_symm, contains, hausdorff,
                       homothety, level_set, support, sphere_dirs)

T = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))

for lam in (0.2, 1.0 / 3.0, 0.5, 1.0, 2.0):
    L = level_set(T, lam)
    tag = "empty" if L.empty else f"built ({L.source})"
    print(f"lambda = {lam:<9.6g} -> {tag}")

# at the symmetry constant the level set collapses to the single minimizer
L = level_set(T, 1.0 / 3.0)
print(f"\nthe 1/3 level set contains (12,12): {L.contains([12.0, 12.0])}")

# membership in the constructed body agrees with thresholding alpha
rng = np.random.default_rng(5)
L = level_set(T, 1.5)
agree = sum(contains(L.body, x) == (alpha(T, x).alpha <= 1.5)
            for x in rng.uniform(5, 20, size=(500, 2)))
print(f"membership vs alpha threshold: {agree}/500 agree")

# dilation formula: K^lam = K + (lam-1) C for lam >= 1, checked by support
C = central_symm(T)
lam = 2.5
L = level_set(T, lam).body
worst = max(abs(support(L, u) - (support(T, u) + (lam - 1) * support(C, u)))
            for u in sphere_dirs(2, 400, 1))
print(f"dilation support formula, worst residual = {worst:.2e}")

# level sets compose multiplicatively
A = level_set(level_set(T, 1.5).body, 2.0).body
B = level_set(T, 3.0).body
print(f"(K^1.5)^2.0 vs K^3.0 hausdorff = {hausdorff(A, B).value:.2e}")

# and the family stays centered: distance to the scaled symmetrization
# is bounded independent of lambda
for lam in (1.0, 2.0, 4.0):
    d = hausdorff(level_set(T, lam).body, homothety(C, lam)).value
    print(f"delta(K^{lam}, {lam} C) = {d:.6f}")
