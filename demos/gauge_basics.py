"""
Generalized Minkowski functional, first contact
===============================================

alpha(K, x) measures how far x sits from the "center" of a convex body K:
0 at the most symmetric point, 1 on the boundary, > 1 outside, growing
linearly along rays.  It is built from chord ratios, so unlike the classic
gauge it needs no distinguished center point.
"""

import numpy as np

from minkgauge import VPolytope, alpha, make_box, t_func

T = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))

# the incenter-like minimum of a triangle is at the centroid, value 1/3
res = alpha(T, [12.0, 12.0])
print(f"alpha at the centroid      = {res.alpha:.12f}   ({res.method})")

# vertices always sit at exactly 1
print(f"alpha at a vertex          = {alpha(T, [16.0, 10.0]).alpha:.12f}")

# outside the body the value exceeds 1 and the witness direction tells you
# which supporting slab is responsible
far = alpha(T, [30.0, 30.0])
print(f"alpha at (30,30)           = {far.alpha:.12f}")
print(f"witness direction          = {np.round(far.witness_dir, 6)}")

# the witness attains the supremum of the slab functional t(K, v, x)
attained = t_func(T, far.witness_dir, [30.0, 30.0])
print(f"t along the witness        = {attained:.12f}")

# alpha is convex, so it is bounded by chords of its own graph
a, b = np.array([11.0, 11.0]), np.array([14.0, 12.0])
mid = alpha(T, (a + b) / 2).alpha
print(f"midpoint convexity         : {mid:.6f} <= "
      f"{(alpha(T, a).alpha + alpha(T, b).alpha) / 2:.6f}")

# a quick raster over a box shows the level structure
B = make_box([-1.0, -1.0], [1.0, 1.0])
for y in (0.8, 0.4, 0.0):
    row = [alpha(B, [x, y]).alpha for x in np.linspace(-1, 1, 9)]
    print("  ".join(f"{v:4.2f}" for v in row))
