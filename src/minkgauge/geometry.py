"""Metric quantities of convex bodies: widths, chords, diameter, Hausdorff.

Polytopes in dimension at most ``body.MAX_VERTEX_DIM``, and products of
them in any dimension, get exact widths and maximal chords from the facet
rows of the central symmetrization C, which every body builds once and
keeps (``symm_rows``; a product's C is the product of its factors' C, its
rows theirs stacked): the width extrema are attained on its facet normals,
and the maximal chord in direction v is twice where the ray {t v} leaves
C.  Every chord question is a section of a body by lines, answered by one
routine batched over the line directions (``_line_sections``).  Support
oracles, and widths of other polytopes above that dimension, fall back to
seeded multi-start direction sweeps, and a width found so carries an
``exact`` flag set to False.  The width sweep (``_width_sweep``) depends on
the body alone and runs once per body, which keeps its result
(``swept_width``); the maximal chord of an oracle depends on v and sweeps
on every call.

The multi-start search works on batched objectives: a function of an (n, d)
array of unit directions, evaluated through ``support_many``.  The dense
prepass is one call.  The best starts then descend together, each with its
own BFGS inverse Hessian and Armijo step (Nocedal & Wright, Numerical
Optimization, 2006, ch. 3 and 6), and are put back on the unit sphere after
every accepted step (a retraction, as in Absil, Mahony & Sepulchre,
Optimization Algorithms on Matrix Manifolds, 2008).  Each iteration is one
call on the trial points and their d forward-difference neighbours, and
pays only for the work its starts need: the BFGS update, the rescaling of
a fresh inverse Hessian and the restart run only when some start takes
them, and the first iteration, whose trial points are the starts
themselves, accepts all of them with no update.

The diameter and the Hausdorff distance of intervals and planar pairs read
every body's cached extreme points (``extreme``), the far radius
``body.hull_points``.  A planar pair's Hausdorff distance takes one exact
route, the set-distance definition, a fixed number of array operations
over all vertices and edges.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import lp
from .body import (Ball, BodyError, Product, as_vector, contains, dim, halfspaces,
                   hull_points, lp_encoding, section_lp, sphere_dirs, support_many)

# absolute forward-difference step of the direction search (scipy's default
# for finite-difference gradients)
FD_STEP = 1e-8
# a start of the search stops once an accepted step lowers f by at most this
# much relative to max(|f|, 1): L-BFGS-B's default factr * eps
SWEEP_FTOL = 1e7 * np.finfo(float).eps
# bound on the search's iterations, each one batched call of the objective
SWEEP_MAX_ITER = 200
# Armijo sufficient-decrease constant, and the weak Wolfe curvature constant
# (Nocedal & Wright (3.6)) under which an accepted step counts as too short
ARMIJO_C1 = 1e-4
WOLFE_C2 = 0.9
# starts and seed of the width search on bodies without rows of C
WIDTH_STARTS = 64
WIDTH_SEED = 0


class WidthResult(NamedTuple):
    value: float
    direction: np.ndarray
    exact: bool


class HausdorffResult(NamedTuple):
    value: float
    exact: bool


def width_dir(K, v) -> float:
    """Width of K in direction v: h(K, v) + h(K, -v), the one-row case of
    ``_widths``."""
    v = as_vector(v, dim(K))
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    return float(_widths(K, v[None, :])[0])


def central_symm(K):
    """Central symmetrization (K + (-K)) / 2, an origin-symmetric body: the
    one K caches (``symm_body``), whose facet rows are K's ``symm_rows``."""
    return K.symm_body


def _axis_dirs(d):
    E = np.eye(d)
    return np.vstack([E, -E])


def _support_pm(K, U):
    """h(K, u) and h(K, -u) for every row u of U, from one batched call."""
    H = support_many(K, np.vstack([U, -U]))
    return H[:len(U)], H[len(U):]


def _widths(K, U):
    hp, hm = _support_pm(K, U)
    return hp + hm


def _sphere_starts(d, seed, extra_starts=None):
    """Seeded unit directions, the coordinate axes, and any extra starts."""
    cands = [sphere_dirs(d, max(256, 32 * d), seed), _axis_dirs(d)]
    if extra_starts is not None and len(extra_starts):
        E = np.atleast_2d(np.asarray(extra_starts, dtype=float))
        cands.append(E / np.linalg.norm(E, axis=1, keepdims=True))
    return np.vstack(cands)


def _multistart_sphere(f, C, sense="min", n_starts=64):
    """Optimize a batched f over unit directions: prepass over C, local descent.

    f maps an (n, d) array of unit rows to their n values.  The n_starts best
    rows of C descend together on v -> f(v / |v|), each by its own BFGS
    quasi-Newton steps with Armijo backtracking, and every iteration is one
    call of f on the trial points and their forward-difference neighbours.
    Accepted points go back onto the unit sphere.  A start stops when an
    accepted step lowers f by at most SWEEP_FTOL relative, when its step
    vanishes or when its gradient is not finite; at most SWEEP_MAX_ITER
    iterations run.  The best value is one f took, so a sampled bound stays
    one-sided.  Returns (best unit direction, best value, best prepass
    value); deterministic for fixed C.  Steps that no live start needs are
    skipped, which changes no bit of the result.
    """
    sign = 1.0 if sense == "min" else -1.0

    def g(V):
        nv = np.linalg.norm(V, axis=1)
        ok = nv >= 1e-12
        if ok.all():
            return sign * np.asarray(f(V / nv[:, None]), dtype=float)
        # zero and NaN rows read inf
        out = np.full(len(V), np.inf)
        if np.any(ok):
            out[ok] = sign * np.asarray(f(V[ok] / nv[ok, None]), dtype=float)
        return out

    vals = g(C)
    order = np.argsort(vals)[:n_starts]
    best_v, best = C[order[0]], vals[order[0]]
    pre = best
    X = C[order] / np.linalg.norm(C[order], axis=1, keepdims=True)
    m, d = X.shape
    E = np.eye(d)
    FE = FD_STEP * E
    F, G, P = vals[order], np.zeros((m, d)), np.zeros((m, d))
    H = np.tile(E, (m, 1, 1))
    fresh = np.ones(m, dtype=bool)      # H is the unscaled identity
    step, pn = np.zeros(m), np.zeros(m)     # pn: the norm of each row of P
    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(SWEEP_MAX_ITER):
            if not len(X):
                break
            T = X + step[:, None] * P
            # forward differences over the step as represented, like scipy's
            vals = g(np.concatenate([T, (T[:, None, :] + FE).reshape(-1, d)]))
            Ft = vals[:len(T)]
            Gt = (vals[len(T):].reshape(-1, d) - Ft[:, None]) / ((T + FD_STEP) - T)
            if it == 0:
                # the first trials are the starts themselves, taken as they
                # are; T = X there, so no start has a step to update H from
                acc, reach = np.ones(len(T), dtype=bool), 0.0
                small = ~acc
            else:
                slope = np.einsum("ij,ij->i", G, P)
                acc = Ft <= F + ARMIJO_C1 * step * slope
                scale = np.maximum(np.maximum(np.abs(F), np.abs(Ft)), 1.0)
                small = acc & (F - Ft <= SWEEP_FTOL * scale)
                # an accepted step along which f still falls steeply (the weak
                # Wolfe curvature test fails) makes the next one at least twice as long
                reach = np.where(np.einsum("ij,ij->i", Gt, P) < WOLFE_C2 * slope,
                                 2.0 * step * pn, 0.0)
                # BFGS where the accepted step has positive curvature (Nocedal &
                # Wright (6.17)); a first update scales the identity by s.y / y.y (6.20)
                S, Y = T - X, Gt - G
                sy = np.einsum("ij,ij->i", S, Y)
                upd = acc & (sy > 0.0) & np.all(np.isfinite(Y), axis=1)
                if upd.any():
                    Hs = H
                    if fresh.any():
                        Hs = H * np.where(fresh, sy / np.einsum("ij,ij->i", Y, Y),
                                          1.0)[:, None, None]
                    Hy = np.einsum("kij,kj->ki", Hs, Y)
                    r = 1.0 / sy
                    c = r * (1.0 + r * np.einsum("ij,ij->i", Y, Hy))
                    SHy = r[:, None, None] * np.einsum("ki,kj->kij", S, Hy)
                    SS = np.einsum("ki,kj->kij", S, S)
                    Hn = Hs + c[:, None, None] * SS - SHy - SHy.transpose(0, 2, 1)
                    H = np.where(upd[:, None, None], Hn, H)
                    fresh &= ~upd
            every = acc.all()
            # accepted points go back onto the sphere: at v / n, f(v / |v|) has
            # gradient n g and inverse Hessian H / n^2
            n = np.linalg.norm(T, axis=1)
            if every:
                X, F, G, H = T / n[:, None], Ft, Gt * n[:, None], H / (n * n)[:, None, None]
            else:
                X = np.where(acc[:, None], T / n[:, None], X)
                F = np.where(acc, Ft, F)
                G = np.where(acc[:, None], Gt * n[:, None], G)
                H = np.where(acc[:, None, None], H / (n * n)[:, None, None], H)
            # the next direction; one that does not descend restarts from -G
            D = -np.einsum("kij,kj->ki", H, G)
            reset = acc & ~(np.einsum("ij,ij->i", D, G) < 0.0)
            if reset.any():
                H = np.where(reset[:, None, None], E, H)
                fresh |= reset
                D = np.where(reset[:, None], -G, D)
            gn = np.linalg.norm(D, axis=1)
            # a steepest-descent step first tries unit length, as L-BFGS-B's
            # first step does, a quasi-Newton step its full length
            nxt = np.maximum(np.where(fresh, 1.0, gn), reach) / gn
            if every:
                P, pn, step = D, gn, nxt
            else:
                P = np.where(acc[:, None], D, P)
                pn = np.where(acc, gn, pn)
                step = np.where(acc, nxt, 0.5 * step)
            i = int(np.argmin(F))
            if F[i] < best:
                best_v, best = X[i], F[i]
            stop = small | (acc & ~np.all(np.isfinite(G), axis=1)) | ~(step * pn > eps)
            if np.any(stop):
                X, F, G, P, pn, H, step, fresh = (
                    a[~stop] for a in (X, F, G, P, pn, H, step, fresh))
    return best_v / np.linalg.norm(best_v), sign * best, sign * pre


def _line_sections(K, x, D):
    """Sections of K by the lines {x + t v}, one per row v of D: (lo, hi).

    Both are arrays of parameters t, NaN where a line misses K.  Facet rows
    are clipped for every line in one array operation (rows parallel to a
    line within 1e-12 only decide whether it misses), and a 1-d body without
    rows clips against those of its exact end points ``extreme``; a ball
    solves its quadratic; other encodable bodies take one stacked LP per
    line, for the largest and least t (``body.section_lp``).  A product that
    no LP encodes intersects its factors' sections (a factor that a line
    does not move keeps the line where it holds x's block).  The rest
    (support oracles above d = 1, sums with ball terms) raise BodyError.
    """
    if isinstance(K, Ball):
        # |x + t v - c|^2 = r^2, standard quadratic
        u = x - K.center
        aa = np.linalg.norm(D, axis=1) ** 2
        bb = 2.0 * (D @ u)
        disc = bb * bb - 4.0 * aa * (float(u @ u) - K.radius ** 2)
        root = np.sqrt(np.where(disc > 0.0, disc, np.nan))
        return (-bb - root) / (2 * aa), (-bb + root) / (2 * aa)
    hs = halfspaces(K)
    if hs is None and x.size == 1:
        (lo,), (hi,) = K.extreme
        hs = np.array([[1.0], [-1.0]]), np.array([hi, -lo])
    if hs is not None:
        return _clip_sections(*hs, x, D)
    enc = lp_encoding(K)
    if enc is not None:
        return section_lp(enc, x, D)
    if not isinstance(K, Product):
        raise BodyError("chord needs a polytope-backed body")
    lo, hi = np.full(len(D), -np.inf), np.full(len(D), np.inf)
    for f, sl in K.blocks:
        moved = np.any(D[:, sl] != 0.0, axis=1)
        if np.any(moved):
            f_lo, f_hi = _line_sections(f, x[sl], D[moved][:, sl])
            lo[moved] = np.maximum(lo[moved], f_lo)
            hi[moved] = np.minimum(hi[moved], f_hi)
        if not np.all(moved) and not contains(f, x[sl]):
            lo[~moved] = hi[~moved] = np.nan
    return np.where(lo <= hi, lo, np.nan), np.where(lo <= hi, hi, np.nan)


def _clip_sections(A, b, x, D):
    den = D @ A.T
    num = b - A @ x
    par = np.abs(den) <= 1e-12 * np.outer(np.linalg.norm(D, axis=1), np.linalg.norm(A, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
    hi = np.where(~par & (den > 0.0), t, np.inf).min(axis=1)
    lo = np.where(~par & (den < 0.0), t, -np.inf).max(axis=1)
    miss = np.any(par & (num < 0.0), axis=1) | ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    return np.where(miss, np.nan, lo), np.where(miss, np.nan, hi)


def _row_exit(A, b, v):
    """Where the ray {t v} leaves {y : A y <= b} with b > 0, and the unit
    row that stops it.

    ``_clip_sections`` for the one line through the origin, upper end only:
    the origin is inside, so the line never misses and b - A 0 = b.  Kept
    apart from it on purpose: a prototype that called ``_clip_sections`` for
    this ray cut polytope_lp's throughput from 29.5-30.0k to 23.8-26.2k
    queries/s and raised its p90 latency from 0.061 to 0.088-0.093 ms
    (paired 8 s runs of ``perfbench``, shared 2-core x86_64 host).
    """
    den = (v[None, :] @ A.T)[0]
    # norms and products taken as _clip_sections takes them, to the bit
    nv = np.linalg.norm(v[None, :], axis=1)[0]
    par = np.abs(den) <= 1e-12 * (nv * np.linalg.norm(A, axis=1))
    with np.errstate(divide="ignore"):
        hi = np.where(~par & (den > 0.0), b / den, np.inf).min()
    i = int(np.argmax(den / b))
    return float(hi), A[i] / np.linalg.norm(A[i])


def max_chord(K, v) -> float:
    """Longest translation parameter tau(K, v) = sup {t : K and K + t v intersect}.

    Twice where the ray {t v} leaves the central symmetrization C: a clip of
    C's facet rows (no LP) for every polytope in dimension at most
    MAX_VERTEX_DIM and every product of them, closed form for balls, one LP
    for the other linearly encodable bodies.  Products whose C has no facet
    rows take the least chord over their factors; support oracles
    approximate the infimum formula tau = inf_u w(K, u)/<u, v> over a
    direction sweep.
    """
    v = as_vector(v, dim(K))
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    return _max_chord(K, v)[0]


def _max_chord(K, v):
    """(tau(K, v), the unit facet row of C that sets it or None), from one C.

    The row clip, the ball quadratic and the section LP see v scaled by the
    power of two 2^-e that puts max |v_i| in [1/2, 1), and tau(K, v) =
    2^-e tau(K, 2^-e v) after; the scaling is exact, so no length of v
    underflows, overflows or meets the LP's absolute tolerances.  The
    oracle sweep keeps the v it is given.
    """
    hs = K.symm_rows
    if hs is None and isinstance(K, Product):
        # the least chord over the factors that v moves, inf if it moves none
        return float(min([np.inf] + [max_chord(f, v[sl]) for f, sl in K.blocks
                                     if np.any(v[sl])])), None
    e = math.frexp(max(map(abs, v.tolist())))[1]
    u = np.ldexp(v, -e)
    if hs is not None:
        hi, row = _row_exit(*hs, u)
        return float(np.ldexp(2.0 * hi, -e)), row
    try:
        hi = _line_sections(central_symm(K), np.zeros(u.size), u[None, :])[1][0]
    except BodyError:           # no encoding: support oracles, sums with ball terms
        return _swept_chord(K, v), None
    if np.isnan(hi):
        raise lp.NumericalError("chord LP ended without a section")
    # a chord is never negative: a flat body's section LP can end at -0.0
    return float(np.ldexp(2.0 * max(0.0, hi), -e)), None


def _swept_chord(K, v):
    """tau = inf over u with <u, v> > 0 of w(K, u)/<u, v>, over a sweep; the
    unit rows u with <u, v> at most 1e-12 |v| are left out, a floor that
    scales with v."""
    floor = 1e-12 * np.linalg.norm(v)

    def ratio(U):
        s = U @ v
        out = np.full(len(U), np.inf)
        ok = s > floor
        if np.any(ok):
            out[ok] = _widths(K, U[ok]) / s[ok]
        return out
    _, val, _ = _multistart_sphere(ratio, _sphere_starts(v.size, 5, [v]),
                                   sense="min", n_starts=32)
    return val


def global_width(K) -> WidthResult:
    """Minimal width over all directions, with the minimizing direction.

    Exact wherever the central symmetrization C has facet rows (every
    polytope in dimension at most MAX_VERTEX_DIM, and every product of
    them, whose C rows stack its factors'): C is origin-symmetric
    with w(K, u) = 2 h(C, u), so the minimal width is twice the least
    b_i / |a_i| over its facets.  A flagged multi-start upper bound
    otherwise, swept once per body (``swept_width``).
    """
    d = dim(K)
    if d == 1:
        w = width_dir(K, np.ones(1))
        return WidthResult(float(w), np.ones(1), True)
    hs = K.symm_rows
    if hs is not None:
        A, b = hs
        norms = np.linalg.norm(A, axis=1)
        vals = 2.0 * b / norms
        i = int(np.argmin(vals))
        return WidthResult(float(vals[i]), A[i] / norms[i], True)
    val, v = K.swept_width
    return WidthResult(val, v.copy(), False)


def diameter(K) -> float:
    """Largest distance between two points of K.

    Exact for vertex-accessible bodies, balls and products of such; equals
    the maximal width over directions, which is how the multi-start fallback
    computes it for oracles (a certified lower bound).
    """
    if isinstance(K, Ball):
        return 2.0 * K.radius
    if isinstance(K, Product):
        return float(np.sqrt(sum(diameter(f) ** 2 for f in K.factors)))
    V = K.extreme
    if V is not None:
        D = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)
        return float(D.max())
    _, val, _ = _multistart_sphere(lambda U: _widths(K, U), _sphere_starts(dim(K), 3),
                                   sense="max", n_starts=32)
    return float(val)


def far_radius(K) -> float:
    """sup of the euclidean norm over K: the reach from the origin.

    Exact for balls, products of exact bodies, and every body with a
    finite point set (``hull_points``: polytopes, H-polytopes through their
    prepared vertices, and every one-dimensional body), whose largest norm
    it is; for the rest the maximum of h over unit directions is taken by
    multi-start search (a certified lower bound).
    """
    if isinstance(K, Ball):
        return float(np.linalg.norm(K.center)) + K.radius
    if isinstance(K, Product):
        return float(np.sqrt(sum(far_radius(f) ** 2 for f in K.factors)))
    V = hull_points(K)
    if V is not None:
        return float(np.max(np.linalg.norm(V, axis=1)))
    _, val, _ = _multistart_sphere(lambda U: support_many(K, U), _sphere_starts(dim(K), 4),
                                   sense="max", n_starts=32)
    return float(val)


def _width_sweep(K):
    """(least width, read-only unit direction that takes it) over unit
    directions by multi-start search, K's facet rows among the starts; run
    once per body, which keeps it (``swept_width``)."""
    hs = halfspaces(K)
    v, val, _ = _multistart_sphere(lambda U: _widths(K, U),
                                   _sphere_starts(dim(K), WIDTH_SEED, None if hs is None else hs[0]),
                                   sense="min", n_starts=WIDTH_STARTS)
    v.setflags(write=False)
    return float(val), v


# ---------------------------------------------------------------------------
# planar helpers

# a planar extreme-point set is flat (a segment or a point) when twice its
# shoelace area, taken about its first point, is at most this fraction of its
# squared extent; rounding leaves a collinear set about 1e-16 of it
FLAT_TOL = 1e-12


def _planar_points(K):
    """K's vertices, counterclockwise, from its cached ``extreme``; the two
    end points along their line (or the one point) of a flat K; None for a
    body without vertex access.  Builds no hull once K has been used."""
    E = K.extreme
    if E is None or len(E) < 3:
        return E
    R = E[1:] - E[0]
    area2 = float(np.sum(R[:-1, 0] * R[1:, 1] - R[:-1, 1] * R[1:, 0]))
    if area2 > FLAT_TOL * float(np.max(np.sum(R * R, axis=1))):
        return E
    t = E @ (E[-1] - E[0])
    return E[[int(np.argmin(t)), int(np.argmax(t))]]


def polygon_vertices(K):
    """Counterclockwise vertices of a planar body with vertex access, exact.

    A copy of the body's cached extreme points; H-polytopes qualify through
    their prepared vertices.  Flat bodies (segments, points) raise.
    """
    if dim(K) != 2:
        raise BodyError("polygon_vertices needs a planar body")
    W = _planar_points(K)
    if W is None:
        raise BodyError("planar body without polygon access")
    if len(W) < 3:
        raise BodyError("flat planar body has no polygon")
    return W.copy()


def _vertex_distances(P, W):
    """Distance from every row of P to the polygon, segment or point whose
    counterclockwise vertices are the rows of W.

    One clamped point-to-segment array over all (point, edge) pairs, set to
    0 where the polygon's edge rows put the point inside.
    """
    E = np.roll(W, -1, axis=0) - W                   # the edge W_j -> W_j+1
    L2 = np.sum(E * E, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("nmk,mk->nm", P[:, None, :] - W, E) / L2
    t = np.where(L2 > 0.0, np.clip(t, 0.0, 1.0), 0.0)
    D = np.linalg.norm(P[:, None, :] - (W + t[:, :, None] * E), axis=2).min(axis=1)
    if len(W) > 2:
        A = np.stack([E[:, 1], -E[:, 0]], axis=1)   # outward edge normals
        slack = 1e-12 * np.maximum(np.sqrt(L2), 1.0)
        D[np.all(P @ A.T <= np.sum(A * W, axis=1) + slack, axis=1)] = 0.0
    return D


def hausdorff(K, M, n_dirs=4096, seed=0) -> HausdorffResult:
    """Hausdorff distance between two convex bodies.

    Planar pairs with vertex access are exact from their cached extreme
    points by the set-distance definition, the larger of the two
    vertex-to-body maxima, in one batch of array operations.  Flat planar
    sets are reduced to their end points.  Intervals and balls against
    balls are closed form.  Everything else is a sampled support-difference
    lower bound over a nested direction family, flagged inexact.
    """
    if dim(K) != dim(M):
        raise BodyError("bodies must share a dimension")
    if isinstance(K, Ball) and isinstance(M, Ball):
        v = float(np.linalg.norm(K.center - M.center)) + abs(K.radius - M.radius)
        return HausdorffResult(v, True)
    if dim(K) == 1:
        return HausdorffResult(float(np.max(np.abs(K.extreme - M.extreme))), True)
    if dim(K) == 2:
        WK, WM = _planar_points(K), _planar_points(M)
        if WK is not None and WM is not None:
            return HausdorffResult(float(max(_vertex_distances(WK, WM).max(),
                                             _vertex_distances(WM, WK).max())), True)
    dirs = sphere_dirs(dim(K), n_dirs, seed)
    if not len(dirs):
        raise ValueError("n_dirs must be positive for a sampled Hausdorff distance")
    best = np.max(np.abs(support_many(K, dirs) - support_many(M, dirs)))
    return HausdorffResult(float(best), False)


def chord_witness_dir(K, v):
    """Direction v* pairing the maximal chord with a width.

    The point (tau/2) v lies on the boundary of the central symmetrization
    C; the unit facet row of C that stops the ray {t v} there satisfies
    w(K, v*) = tau(K, v) <v*, v>, the inequality-to-equality witness that
    turns the chord bound into an attained width.  None where C has no
    facet rows (support oracles, balls, polytopes above MAX_VERTEX_DIM
    other than products of lower factors).
    """
    v = as_vector(v, dim(K))
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    hs = K.symm_rows
    return None if hs is None else _row_exit(*hs, v)[1]
