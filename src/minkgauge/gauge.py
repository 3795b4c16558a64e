"""The asymmetry gauge alpha(K, x), its level sets, and symmetry reports.

For an origin-symmetric body the gauge is the norm whose unit ball is K; in
general it is the supremum over directions v of the normalized functional

    t(K, v, x) = (2 <v, x> - h(K, v) + h(K, -v)) / w(K, v),

which is 0 at a symmetry center, 1 on the boundary, and grows linearly far
away.  Level sets K^lam = {x : alpha <= lam} have two exact descriptions:

* lam <= 1: the erosion ((1+lam)/2) K - ((1-lam)/2)(-K) (Minkowski
  difference); on a facet system it erodes each tight row inward by
  (1 - lam) * w(K, a_i) / 2,
* lam >= 1: the sum (lam+1)/2 K + (lam-1)/2 (-K), generated by the points
  ((lam+1) u - (lam-1) w) / 2 over vertex pairs (u, w).

Every polytope in dimension at most ``body.MAX_VERTEX_DIM`` has facet rows
(``body.halfspaces``), and so does its central symmetrization
C = (K - K)/2 (``symm_rows``, built once per body).  The normal fan of C is
the common refinement of the fans of K and -K (Ziegler, Lectures on
Polytopes, 1995, 7.2).  On each of its cones h(K, v) and h(K, -v) are
linear, so t(K, ., x) is a ratio of two linear functions with a positive
denominator, and its maximum over the cone is on an extreme ray: a facet
normal of C.  Hence alpha(K, x) is the maximum of |t| over C's rows at every
point, inside K or out.  K's own rows are fewer and answer first where
they give the same maximum: inside K, where it is at most 1 and the
erosions K^lam are cut out by K's rows, and in dimensions 1 and 2 at every
point (between consecutive merged-fan normals t is a monotone ratio of
sinusoids).  Bodies without C rows (flat sets, and dimensions above
``body.MAX_VERTEX_DIM``) take the least lam with x in K^lam: writing each
copy of K in the sum or the erosion in perspective form makes that one LP
in lam, and the duals of its coupling rows give the witness direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .body import (Ball, BodyError, HPolytope, Product, SupportOracle, VPolytope,
                   _hull_body, as_vector, dim, lp_encoding, support, vertex_candidates)
from .geometry import _multistart_sphere, _support_pm, sphere_dirs

T_MEMBER_TOL = 1e-9
# within this distance of alpha_inf(K), a Chebyshev LP decides whether the
# erosion K^lam is empty; farther away lam < alpha_inf(K) does
EMPTY_BAND = 1e-7


@dataclass
class GaugeResult:
    """Gauge value with a certified witness: t(K, witness_dir, x) >= alpha - tol."""

    alpha: float
    witness_dir: np.ndarray
    method: str            # closed_form | lp | sampled
    tol: float


class LevelSet:
    """The set {x : alpha(K, x) <= lam} with an explicit representation.

    ``body`` is an HPolytope (lam <= 1), a VPolytope (lam >= 1), a Ball,
    or a Product of these; it may be lower dimensional.  ``empty`` marks lam
    below the symmetry constant of K.  Given ``build``, a function of no
    arguments, the body is built on its first read: above lam = 1 the
    vertex-pair prune costs more than ``contains``, which reads only the
    rows of the source body.
    """

    def __init__(self, lam, body, empty, source, build=None):
        self.lam, self.empty, self.source = lam, empty, source
        self._body, self._build = body, build

    @property
    def body(self):
        if self._build is not None:
            self._body, self._build = self._build(), None
        return self._body

    def contains(self, x, tol=T_MEMBER_TOL):
        if self.empty:
            return False
        return _level_membership(self.source, as_vector(x, dim(self.source)),
                                 self.lam, tol=tol)


@dataclass
class SymmetryReport:
    alpha_inf: float
    measure: float
    minimizer: np.ndarray
    critical_body: object
    critical_dim_estimate: int
    klee_lhs: float


def t_func(K, v, x) -> float:
    """The normalized linear functional whose sup over directions is alpha."""
    v = as_vector(v, dim(K))
    if not np.any(v):
        raise ValueError("direction must be nonzero")
    x = as_vector(x, dim(K))
    hp = support(K, v)
    hm = support(K, -v)
    return (2.0 * float(v @ x) - hp + hm) / (hp + hm)


def t_many(K, D, x) -> np.ndarray:
    """t(K, v, x) for every row v of an (n, d) direction array, batched."""
    x = as_vector(x, dim(K))
    D = np.asarray(D, dtype=float)
    if D.ndim == 2 and not np.all(np.any(D, axis=1)):
        raise ValueError("directions must be nonzero")
    hp, hm = _support_pm(K, D)
    return (2.0 * (D @ x) - hp + hm) / (hp + hm)


def facet_profile(K):
    """Tight facet data (A, hplus, hminus) or None.

    A holds the rows of ``halfspaces(K)`` (the two unit rows in dimension
    one), and hplus/hminus are the support values in the row directions
    and their negations, so each row is supporting.  None when K has no
    rows.  Built on the first call and cached on the body (``profile``),
    read-only.
    """
    return K.profile


def _t_values(profile, x):
    A, hp, hm = profile
    return (2.0 * (A @ x) - hp + hm) / (hp + hm)


def _facet_max(profile, x):
    """The largest |t| over the profile's rows, with the signed unit row that
    attains it."""
    tv = _t_values(profile, x)
    i = int(np.argmax(np.abs(tv)))
    A = profile[0]
    w = A[i] * np.sign(tv[i]) if tv[i] != 0 else A[i]
    return float(abs(tv[i])), w / np.linalg.norm(w)


# ---------------------------------------------------------------------------
# the level bodies as linear programs in lam


def _scaled_copies(e, coefs):
    """Rows for u_k in (a_k lam + b_k) U, one copy per (a_k, b_k), over the
    columns [lam, u_1, u_2, ...], U being the encoded body.

    This is the perspective form of each copy: the encoding bounds are
    homogeneous (free or nonnegative), so only the right-hand sides scale.
    """
    a, b = np.array(coefs, dtype=float).T
    k = a.size
    return (np.hstack([-np.kron(a, e.b_ub)[:, None], np.kron(np.eye(k), e.A_ub)]),
            np.kron(b, e.b_ub),
            np.hstack([-np.kron(a, e.b_eq)[:, None], np.kron(np.eye(k), e.A_eq)]),
            np.kron(b, e.b_eq),
            [(None, None)] + e.bounds * k)


def _level_lp(K, x, lo, hi):
    """Minimize lam in [lo, hi] subject to x in K^lam, as one LP.

    Outside K (lo >= 1) this is the sum form x in (lam+1)/2 K + (lam-1)/2 (-K),
    two copies coupled by P (u_1 - u_2) = x - q.  Inside K (hi <= 1) it is
    the erosion: x - (1-lam)/2 v_j in (1+lam)/2 K for every extreme point
    v_j, one copy each.  Returns the LP result and the duals of the coupling
    rows summed over copies, the gradient of the optimal lam in x.
    """
    e = lp_encoding(K)
    if e is None:
        raise BodyError("level-set LP needs a linearly encodable body")
    if lo >= 1.0:
        A_ub, b_ub, A_eq, b_eq, bounds = _scaled_copies(e, [(0.5, 0.5), (0.5, -0.5)])
        C = np.hstack([np.zeros((x.size, 1)), e.P, -e.P])
        rhs = x - e.q
    else:
        # the constraints of non-extreme candidates (most of a Minkowski
        # sum's) are implied by the extreme ones
        V = K.extreme
        if V is None:
            raise BodyError("level-set LP inside the body needs vertex access")
        A_ub, b_ub, A_eq, b_eq, bounds = _scaled_copies(e, [(0.5, 0.5)] * len(V))
        C = np.hstack([((e.q - V) / 2.0).reshape(-1, 1), np.kron(np.eye(len(V)), e.P)])
        rhs = (x - (e.q + V) / 2.0).ravel()
    bounds[0] = (lo, hi)
    c = np.zeros(C.shape[1])
    c[0] = 1.0
    res = lp.solve(c, A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
                   A_eq=np.vstack([A_eq, C]), b_eq=np.concatenate([b_eq, rhs]),
                   bounds=bounds)
    if not res.optimal:
        return res, None
    return res, res.eq_duals[b_eq.size:].reshape(-1, x.size).sum(axis=0)


def _level_membership(K, x, lam, tol=T_MEMBER_TOL):
    """Exact membership x in K^lam for polytopal bodies and balls.

    alpha(K, x) <= lam + tol, decided on K's rows for lam <= 1 and on C's
    rows above; bodies without those rows take the level-set LP.
    """
    if lam < 0:
        return False
    if isinstance(K, Ball):
        return float(np.linalg.norm(x - K.center)) <= lam * K.radius + tol * max(1.0, K.radius)
    if isinstance(K, Product):
        at = 0
        for f in K.factors:
            k = dim(f)
            if not _level_membership(f, x[at:at + k], lam, tol):
                return False
            at += k
        return True
    if isinstance(K, SupportOracle):
        raise BodyError("level membership is not available for support oracles")
    if lam <= 1.0:
        profile = facet_profile(K)
        if profile is not None:
            return bool(np.max(_t_values(profile, x)) <= lam + tol)
    else:
        profile = K.symm_profile
        if profile is not None:
            return _facet_max(profile, x)[0] <= lam + tol
    return _level_lp(K, x, lam + tol, lam + tol)[0].optimal


# ---------------------------------------------------------------------------
# alpha


def alpha(K, x) -> GaugeResult:
    """Gauge value alpha(K, x) with witness direction.

    Closed form on facet rows, with no LP: K's rows in dimensions 1 and 2
    and at points inside K, the rows of the central symmetrization C at every other
    point of a polytope that has them (dimension at most MAX_VERTEX_DIM, not
    flat); the witness is the signed row that attains the maximum.  Other
    polytopal bodies take the level-set LP, balls their closed form, support
    oracles direction sampling.
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Ball):
        gap = x - K.center
        r = float(np.linalg.norm(gap))
        wdir = gap / r if r > 0 else np.eye(K.center.size)[0]
        return GaugeResult(r / K.radius, wdir, "closed_form", 1e-12)
    if isinstance(K, Product):
        return _alpha_product(K, x)
    if isinstance(K, SupportOracle):
        return _alpha_sampled(K, x)
    profile = facet_profile(K)
    if profile is not None:
        a0, w = _facet_max(profile, x)
        # above the plane K's rows give alpha only inside K, which is
        # exactly where their maximum is at most 1
        if x.size <= 2 or a0 <= 1.0 + 1e-12:
            return GaugeResult(a0, w, "closed_form", 1e-12)
        symm = K.symm_profile
        if symm is not None:
            a0, w = _facet_max(symm, x)
            # the rounding of t grows with its value, here above 1
            return GaugeResult(a0, w, "closed_form", 1e-12 * a0)
    if x.size <= 2 or (profile is None and vertex_candidates(K) is None):
        raise BodyError(f"alpha unsupported for {type(K).__name__}")
    return _alpha_lp(K, x)


def _alpha_product(K, x):
    best, parts, at = None, [], 0
    for f in K.factors:
        k = dim(f)
        r = alpha(f, x[at:at + k])
        parts.append((r, at, k))
        if best is None or r.alpha > best[0].alpha:
            best = (r, at, k)
        at += k
    r, at, k = best
    wdir = np.zeros(x.size)
    wdir[at:at + k] = r.witness_dir
    rank = {"closed_form": 0, "lp": 1, "sampled": 2}
    meth = max((p[0].method for p in parts), key=lambda m: rank[m])
    return GaugeResult(r.alpha, wdir, meth, max(p[0].tol for p in parts))


def _alpha_lp(K, x):
    """alpha as the least lam with x in K^lam; the witness is the LP dual.

    The route of polytopal bodies without C rows (flat sets, dimensions above
    MAX_VERTEX_DIM); the closed forms are checked against it.

    The sum-form LP answers outside K.  When it stops at lam = 1 the point is
    in K (up to solver tolerance) and the erosion LP answers, if K has
    vertex access; it is infeasible only for points on the boundary within
    tolerance, where the sum-form value 1 stands.
    """
    res, y = _level_lp(K, x, 1.0, None)
    if not res.optimal:
        raise lp.NumericalError(f"sum-form LP ended with status {res.status.value}")
    if res.value <= 1.0 + lp.FEAS_TOL and vertex_candidates(K) is not None:
        inner, y_in = _level_lp(K, x, 0.0, 1.0)
        if inner.optimal:
            res, y = inner, y_in
    val = float(res.value)
    ny = float(np.linalg.norm(y))
    wdir = y / ny if ny > 0 else np.eye(x.size)[0]
    # the value is exact up to the solver's feasibility tolerance times the
    # problem scale; the witness is checked against it directly
    feas = lp.FEAS_TOL * max(1.0, float(np.max(np.abs(x)))) * (1.0 + float(np.abs(y).sum()))
    return GaugeResult(val, wdir, "lp", max(0.0, val - t_many(K, wdir[None, :], x)[0]) + feas)


def _alpha_sampled(K, x, n_dirs=2048, n_polish=16, seed=13):
    """Certified lower bound on alpha for support oracles, via direction search.

    Every reported value is t at an evaluated direction, so it never exceeds
    alpha; tol is the gain of the polish over the prepass, at least 1e-7.
    """
    C = [sphere_dirs(x.size, n_dirs, seed)]
    gap = x - K.center
    if np.linalg.norm(gap) > 1e-12:
        C.append((gap / np.linalg.norm(gap))[None, :])
    v, best, pre = _multistart_sphere(lambda D: t_many(K, D, x), np.vstack(C),
                                      sense="max", n_starts=n_polish)
    return GaugeResult(float(best), v, "sampled", max(1e-7, float(best - pre)))


# ---------------------------------------------------------------------------
# level sets


def level_set(K, lam) -> LevelSet:
    """Construct K^lam = {x : alpha(K, x) <= lam} explicitly.

    lam <= 1 erodes the tight facet system (the result may be empty or lower
    dimensional).  The erosion is empty exactly when lam < alpha_inf(K),
    which the body's cached symmetry LP decides; within EMPTY_BAND of
    alpha_inf, and for bodies whose symmetry LP fails, a Chebyshev LP of
    the eroded rows does.  lam > 1 builds the sum form from the k^2 pairs
    of K's k cached extreme points (``extreme``), the vertices of the sum
    being among them, with its extreme points and rows from one hull
    (``body._hull_body``).  It, and a product's, is built on first read.
    """
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError("level must be a finite nonnegative number")
    lam = float(lam)
    if isinstance(K, Ball):
        if lam == 0:
            return LevelSet(lam, VPolytope(K.center[None, :]), False, K)
        return LevelSet(lam, Ball(K.center, lam * K.radius), False, K)
    if isinstance(K, Product):
        parts = [level_set(f, lam) for f in K.factors]
        if any(p.empty for p in parts):
            return LevelSet(lam, None, True, K)
        return LevelSet(lam, None, False, K,
                        build=lambda: Product(tuple(p.body for p in parts)))
    if lam <= 1.0:
        profile = facet_profile(K)
        if profile is None:
            raise BodyError("erosion level set needs facet access")
        A, hp, hm = profile
        b = (1.0 + lam) / 2.0 * hp - (1.0 - lam) / 2.0 * hm
        body = HPolytope(A, b)
        sym = K.symmetry
        if sym is not None and abs(lam - sym[0]) > EMPTY_BAND:
            empty = lam < sym[0]
            return LevelSet(lam, None if empty else body, empty, K)
        try:
            _, r = body.chebyshev
        except lp.NumericalError:
            return LevelSet(lam, None, True, K)
        if r < -1e-12:
            return LevelSet(lam, None, True, K)
        return LevelSet(lam, body, False, K)
    V = K.extreme
    if V is None:
        raise BodyError("level set needs polytope or ball structure")

    def build():
        pairs = ((1.0 + lam) * V[:, None, :] - (lam - 1.0) * V[None, :, :]) / 2.0
        # distinct pairs, so the vertices come in extreme_points' order
        return _hull_body(np.unique(pairs.reshape(-1, V.shape[1]), axis=0))
    return LevelSet(lam, None, False, K, build=build)


# ---------------------------------------------------------------------------
# symmetry reports


def alpha_inf(K, seed=101) -> SymmetryReport:
    """Minimum of the gauge over x: the symmetry constant and critical set.

    One LP over the facet rows of ``halfspaces(K)``, which every polytope in
    dimension at most ``body.MAX_VERTEX_DIM`` has; its value and minimiser
    are cached on the body (``symmetry``), so a reused body solves it once.
    Products recurse onto their factors when no merged facet system exists.
    The critical set's dimension is estimated from the affine rank of LP
    optima under random objectives, one stacked LP per call; it is an
    estimate, not a certificate.
    """
    if isinstance(K, Ball):
        c = K.center.copy()
        return SymmetryReport(0.0, 1.0, c, VPolytope(c[None, :]), 0, 1.0)
    profile = facet_profile(K)
    if profile is None and isinstance(K, Product):
        return _alpha_inf_product(K, seed)
    if profile is None:
        raise BodyError("alpha_inf needs facet access (or a product of such bodies)")
    A, hp, hm = profile
    if K.symmetry is None:
        raise lp.NumericalError("symmetry LP ended without an optimum")
    s_star, x_star = K.symmetry
    if s_star >= 1.0 - 1e-12:
        raise lp.NumericalError("symmetry LP returned alpha_inf >= 1 for a full body")
    crit = LevelSet(s_star,
                    HPolytope(A, (1.0 + s_star) / 2.0 * hp - (1.0 - s_star) / 2.0 * hm),
                    False, K)
    dim_est = _critical_dim(A, hp, hm, hp + hm, s_star, seed, extra_point=x_star)
    klee = (1.0 + s_star) / (1.0 - s_star)
    return SymmetryReport(s_star, 1.0 - s_star, x_star, crit, dim_est, klee)


def _critical_dim(A, hp, hm, w, lam, seed, extra_point=None, rank_tol=1e-7):
    d = A.shape[1]
    # slack relative to each row's width: an absolute slack opens a sliver
    # longer than rank_tol on thin bodies and fakes a dimension
    b_face = hp - hm + w * (lam + 1e-9)
    # 2d + 1 seeded objectives over the face, stacked into one LP: one
    # block-diagonal copy of the face per objective
    obj = np.random.default_rng(seed).normal(size=(2 * d + 1, d))
    status, X = lp.solve_stacked(obj, A_ub=2.0 * A, b_ub=b_face)
    pts = [] if extra_point is None else [extra_point]
    if status is lp.LPStatus.OPTIMAL:
        pts.extend(X)
    if not pts:
        return 0
    P = np.array(pts)
    Q = P - P.mean(axis=0)
    s = np.linalg.svd(Q, compute_uv=False)
    return int(np.sum(s > rank_tol))


def _level_dim_estimate(f, lam, seed):
    if isinstance(f, Ball):
        return dim(f) if lam > 1e-12 else 0
    if isinstance(f, Product):
        return sum(_level_dim_estimate(g, lam, seed) for g in f.factors)
    prof = facet_profile(f)
    if prof is None:
        raise BodyError("dimension estimate needs facet access")
    A, hp, hm = prof
    return _critical_dim(A, hp, hm, hp + hm, lam, seed)


def _alpha_inf_product(K, seed):
    parts = [alpha_inf(f, seed) for f in K.factors]
    a = max(p.alpha_inf for p in parts)
    minimizer = np.concatenate([p.minimizer for p in parts])
    crit_parts = [level_set(f, a) for f in K.factors]
    crit = LevelSet(a, Product(tuple(p.body for p in crit_parts)), False, K)
    dim_est = sum(_level_dim_estimate(f, a, seed) for f in K.factors)
    if a >= 1.0 - 1e-12:
        raise lp.NumericalError("degenerate symmetry constant")
    return SymmetryReport(a, 1.0 - a, minimizer, crit, int(dim_est), (1.0 + a) / (1.0 - a))


# ---------------------------------------------------------------------------
# centroids


def centroid(K):
    """Center of mass, exact for planar polytopes, simplices, balls, boxes
    as interval products, and products of these.

    Read from ``extreme``: the polygon formula in the plane, elsewhere the
    mean of d + 1 extreme points (a simplex or an interval).
    """
    if isinstance(K, Ball):
        return K.center.copy()
    if isinstance(K, Product):
        return np.concatenate([centroid(f) for f in K.factors])
    d = dim(K)
    if d == 2:
        # K's cached extreme points run counterclockwise; a flat set has
        # them but no facet rows
        V = K.extreme
        if V is None or K.facet_rows is None:
            raise BodyError("centroid needs polygon access in the plane")
        return _polygon_centroid(V)
    V = K.extreme
    if V is not None and len(V) == d + 1:
        return V.mean(axis=0)
    raise BodyError("centroid supports planar bodies, simplices, balls, and products of these")


def _polygon_centroid(W):
    X, Y = W[:, 0], W[:, 1]
    Xn, Yn = np.roll(X, -1), np.roll(Y, -1)
    cross = X * Yn - Xn * Y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((X + Xn) * cross)) / (6.0 * area)
    cy = float(np.sum((Y + Yn) * cross)) / (6.0 * area)
    return np.array([cx, cy])
