"""Reference geometry computed without minkgauge.

Each class knows the support function of one body from the benchmark's own
description of it (vertices, box bounds, ellipsoid weights) and, where one
exists, a closed form for the gauge alpha.  The checks in ``workloads``
compare the package's answers with these, so they never run the timed code.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def cheb_T(n, a):
    """T_n(a) from numpy's Chebyshev basis, independent of minkgauge.cheb."""
    return float(np.polynomial.chebyshev.chebval(a, [0.0] * n + [1.0]))


def close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


class Ref:
    def h(self, v):
        raise NotImplementedError

    def t(self, v, x):
        """The slab functional t(K, v, x) from reference support values."""
        v = np.asarray(v, dtype=float)
        hp, hm = self.h(v), self.h(-v)
        return (2.0 * float(v @ x) - hp + hm) / (hp + hm)

    def sampled_alpha(self, x, n=2048, seed=0):
        """Max of t over seeded directions: a lower bound on alpha."""
        U = np.random.default_rng(seed).normal(size=(n, len(x)))
        return max(self.t(u, x) for u in U)


class VSet(Ref):
    """Convex hull of a finite point set."""

    def __init__(self, V):
        self.V = np.asarray(V, dtype=float)
        self.d = self.V.shape[1]

    def h(self, v):
        return float(np.max(self.V @ v))

    def center(self):
        return self.V.mean(axis=0)

    def tau(self, v):
        """Maximal chord by LP over convex weights: max t with y - z = t v."""
        n, d = self.V.shape
        c = np.zeros(2 * n + 1)
        c[-1] = -1.0
        A_eq = np.zeros((d + 2, 2 * n + 1))
        A_eq[:d, :n], A_eq[:d, n:2 * n], A_eq[:d, -1] = self.V.T, -self.V.T, -v
        A_eq[d, :n] = A_eq[d + 1, n:2 * n] = 1.0
        b_eq = np.r_[np.zeros(d), 1.0, 1.0]
        res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * (2 * n + 1),
                      method="highs")
        return -res.fun


class Polygon(VSet):
    """Planar convex polygon with vertices in counterclockwise order."""

    def __init__(self, W):
        super().__init__(W)
        edges = np.roll(self.V, -1, axis=0) - self.V
        N = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
        self.N = N / np.linalg.norm(N, axis=1, keepdims=True)
        M = self.N @ self.V.T
        self.hp, self.hm = M.max(axis=1), (-M).max(axis=1)

    def halfspaces(self):
        return self.N, self.hp

    def t_all(self, x):
        return (2.0 * (self.N @ x) - self.hp + self.hm) / (self.hp + self.hm)

    def alpha(self, x):
        # in the plane the sup of t is attained at +-edge normals
        return float(np.max(np.abs(self.t_all(x))))

    def width(self):
        return float(np.min(self.hp + self.hm))

    def alpha_inf(self):
        # min s subject to +-t_i(x) <= s
        w = self.hp + self.hm
        G = 2.0 * self.N / w[:, None]
        off = (self.hm - self.hp) / w
        A = np.vstack([np.hstack([G, -np.ones((len(w), 1))]),
                       np.hstack([-G, -np.ones((len(w), 1))])])
        b = np.r_[-off, off]
        res = linprog([0.0, 0.0, 1.0], A_ub=A, b_ub=b,
                      bounds=[(None, None)] * 3, method="highs")
        return float(res.fun)

    def far_radius(self):
        return float(np.max(np.linalg.norm(self.V, axis=1)))


class Simplex(VSet):
    """d+1 affinely independent points; alpha inside from barycentric weights."""

    def bary(self, x):
        d = self.V.shape[1]
        M = np.vstack([self.V.T, np.ones(d + 1)])
        return np.linalg.solve(M, np.r_[x, 1.0])

    def alpha_inside(self, x):
        # t along the normal of the facet opposite vertex i is 1 - 2 lambda_i
        return float(np.max(np.abs(1.0 - 2.0 * self.bary(x))))

    def alpha_inf(self):
        d = self.V.shape[1]
        return (d - 1.0) / (d + 1.0)

    def halfspaces(self):
        d = self.V.shape[1]
        A, b = [], []
        for i in range(d + 1):
            F = np.delete(self.V, i, axis=0)
            n = np.linalg.svd(F[1:] - F[0])[2][-1]
            if n @ (self.V[i] - F[0]) > 0:
                n = -n
            A.append(n)
            b.append(n @ F[0])
        return np.array(A), np.array(b)


class Box(Ref):
    def __init__(self, lo, hi):
        self.lo, self.hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        self.d = len(self.lo)

    def h(self, v):
        return float(np.sum(np.maximum(self.lo * v, self.hi * v)))

    def center(self):
        return 0.5 * (self.lo + self.hi)

    def alpha(self, x):
        return float(np.max(np.abs(2.0 * x - self.lo - self.hi) / (self.hi - self.lo)))

    def alpha_inf(self):
        return 0.0

    def tau(self, v):
        nz = np.abs(v) > 0
        return float(np.min((self.hi - self.lo)[nz] / np.abs(v[nz])))


class Product(Ref):
    """Cartesian product of reference bodies."""

    def __init__(self, parts):
        self.parts = parts
        self.d = sum(p.d for p in parts)

    def _blocks(self, x):
        at = 0
        for p in self.parts:
            yield p, np.asarray(x[at:at + p.d], dtype=float)
            at += p.d

    def center(self):
        return np.concatenate([p.center() for p in self.parts])

    def h(self, v):
        return sum(p.h(b) for p, b in self._blocks(v))

    def alpha(self, x):
        return max(p.alpha(b) for p, b in self._blocks(x))

    def alpha_inf(self):
        return max(p.alpha_inf() for p in self.parts)

    def tau(self, v):
        return min(p.tau(b) for p, b in self._blocks(v) if np.any(b))


class Ellipsoid(Ref):
    """{x : sum w_n x_n^2 <= 1}, the weighted l2 ball."""

    def __init__(self, d, mode):
        n = np.arange(1, d + 1, dtype=float)
        self.w = 1.0 + 1.0 / n if mode == "i" else 2.0 - 1.0 / n

    def h(self, v):
        return float(np.sqrt(np.sum(np.asarray(v) ** 2 / self.w)))

    def alpha(self, x):
        return float(np.sqrt(np.sum(self.w * np.asarray(x) ** 2)))

    def tau(self, v):
        return 2.0 / self.alpha(v)

    def width(self):
        return 2.0 / float(np.sqrt(np.max(self.w)))

    def hausdorff_centered_ball(self, r):
        lo, hi = 1.0 / np.sqrt(np.max(self.w)), 1.0 / np.sqrt(np.min(self.w))
        return float(max(abs(lo - r), abs(hi - r)))


class BallRef(Ref):
    def __init__(self, c, r):
        self.c, self.r = np.asarray(c, dtype=float), float(r)

    def h(self, v):
        return float(self.c @ v + self.r * np.linalg.norm(v))

    def alpha(self, x):
        return float(np.linalg.norm(np.asarray(x) - self.c)) / self.r


def planar_hausdorff_bracket(P, Q, n=8192):
    """(lower, upper) bounds on the Hausdorff distance of two polygons.

    The support difference sampled at n equally spaced angles is a lower
    bound; it is Lipschitz with constant R_P + R_Q in the direction, which
    bounds the gap to the true maximum.
    """
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    lo = float(np.max(np.abs((P.V @ U.T).max(axis=0) - (Q.V @ U.T).max(axis=0))))
    slack = (P.far_radius() + Q.far_radius()) * np.pi / n
    return lo, lo + slack
