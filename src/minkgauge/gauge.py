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
in lam (``body.copies_lp``), and the duals of its coupling rows give the
witness direction.

The symmetry constant alpha_inf(K) = min_x alpha(K, x) and its critical
set (Minkowski's measure of symmetry) are computed here and nowhere else:
the symmetry LP (``_symmetry_lp``), the critical-set LP (``_critical_dim``)
and the one recursion that builds every critical body (``_critical``).  The
body caches their results (``symmetry``, ``critical``) and takes these
builders from this module on first read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .body import (Ball, BodyError, HPolytope, Product, SupportOracle, VPolytope,
                   _hull_body, _readonly, _unique_rows, _unit, as_vector, copies_lp, dim,
                   lp_encoding, vertex_candidates)
from .geometry import _multistart_sphere, _support_pm, sphere_dirs

T_MEMBER_TOL = 1e-9
# within this distance of alpha_inf(K), a Chebyshev LP decides whether the
# erosion K^lam is empty; farther away lam < alpha_inf(K) does
EMPTY_BAND = 1e-7


@dataclass
class GaugeResult:
    """Gauge value with a certified witness: t(K, witness_dir, x) >= alpha - tol.

    For a sampled result (support oracles) tol is not an error bound: it is
    the gain of the local polish over the direction prepass, at least 1e-7,
    and alpha itself is t at an evaluated direction, a one-sided lower bound
    on the true gauge.
    """

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

    def contains(self, x):
        if self.empty:
            return False
        return _level_membership(self.source, as_vector(x, dim(self.source)), self.lam)


@dataclass
class SymmetryReport:
    alpha_inf: float
    measure: float
    minimizer: np.ndarray
    critical_body: object
    critical_dim_estimate: int   # exact; the name is the CLI's output key
    klee_lhs: float


def t_func(K, v, x) -> float:
    """The normalized linear functional whose sup over directions is alpha:
    the one-row case of ``t_many``."""
    return float(t_many(K, as_vector(v, dim(K))[None, :], x)[0])


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
    read-only, as a ``body.Profile``: it unpacks to the three arrays and
    keeps the widths hplus + hminus (``w``) and the membership relaxations
    max(|a_i|, 1) (``relax``), built on their first read, so a reused body's
    per-point queries rebuild neither.
    """
    return K.profile


def _t_values(profile, x):
    """t at x for every row of a ``Profile``, over its cached widths: the
    same bits as dividing by hplus + hminus on every call."""
    A, hp, hm = profile
    return (2.0 * (A @ x) - hp + hm) / profile.w


def _facet_max(profile, x):
    """The largest |t| over the profile's rows, with the signed unit row that
    attains it."""
    tv = _t_values(profile, x)
    i = int(np.abs(tv).argmax())
    t, row = tv[i], profile[0][i]
    if t < 0.0:
        row = -row
    elif t != t:                # NaN where A @ x overflows: a NaN witness
        row = row * t
    return float(abs(t)), _unit(row)


# ---------------------------------------------------------------------------
# the level bodies as linear programs in lam


def _level_lp(K, x, lo, hi):
    """Minimize lam in [lo, hi] subject to x in K^lam, as one LP (``copies_lp``).

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
        res, y = copies_lp(e, [(0.5, 0.5), (0.5, -0.5)],
                           np.hstack([np.zeros((x.size, 1)), e.P, -e.P]), x - e.q, (lo, hi))
    else:
        # the constraints of non-extreme candidates (most of a Minkowski
        # sum's) are implied by the extreme ones
        V = K.extreme
        if V is None:
            raise BodyError("level-set LP inside the body needs vertex access")
        res, y = copies_lp(e, [(0.5, 0.5)] * len(V),
                           np.hstack([((e.q - V) / 2.0).reshape(-1, 1),
                                      np.kron(np.eye(len(V)), e.P)]),
                           (x - (e.q + V) / 2.0).ravel(), (lo, hi))
    return res, None if y is None else y.reshape(-1, x.size).sum(axis=0)


def _level_membership(K, x, lam):
    """Exact membership x in K^lam for polytopal bodies and balls.

    alpha(K, x) <= lam + T_MEMBER_TOL, decided on K's rows for lam <= 1 and
    on C's rows above; bodies without those rows take the level-set LP.
    """
    if isinstance(K, Ball):
        return (float(np.linalg.norm(x - K.center))
                <= lam * K.radius + T_MEMBER_TOL * max(1.0, K.radius))
    if isinstance(K, Product):
        return all(_level_membership(f, x[sl], lam) for f, sl in K.blocks)
    if isinstance(K, SupportOracle):
        raise BodyError("level membership is not available for support oracles")
    if lam <= 1.0:
        profile = facet_profile(K)
        if profile is not None:
            return bool(_t_values(profile, x).max() <= lam + T_MEMBER_TOL)
    else:
        profile = K.symm_profile
        if profile is not None:
            return bool(np.abs(_t_values(profile, x)).max() <= lam + T_MEMBER_TOL)
    return _level_lp(K, x, lam + T_MEMBER_TOL, lam + T_MEMBER_TOL)[0].optimal


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
    parts = [(alpha(f, x[sl]), sl) for f, sl in K.blocks]
    # max keeps the first factor on ties
    r, sl = max(parts, key=lambda p: p[0].alpha)
    wdir = np.zeros(x.size)
    wdir[sl] = r.witness_dir
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
    alpha.  tol is the gain of the polish over the prepass, at least 1e-7:
    how far the polish moved the value, not a bound on its distance to alpha.
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

    lam <= 1 erodes the tight facet system (``_erosion``, which builds the
    critical body of ``alpha_inf`` too; the result may be empty or lower
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
        body = _erosion(profile, lam)
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
        # distinct pairs, so _hull gives the vertices in its fixed order
        return _hull_body(_unique_rows(pairs.reshape(-1, V.shape[1])))
    return LevelSet(lam, None, False, K, build=build)


# ---------------------------------------------------------------------------
# symmetry reports


def alpha_inf(K) -> SymmetryReport:
    """Minimum of the gauge over x: the symmetry constant and critical set.

    One LP over the facet rows of ``halfspaces(K)``, which every polytope in
    dimension at most ``body.MAX_VERTEX_DIM`` has (``_symmetry_lp``); its
    value and minimiser are cached on the body (``symmetry``).  Products
    recurse onto their factors when no merged facet system exists; a ball's
    critical set is its centre.  The critical set and its exact dimension,
    from one more LP (``_critical_dim``) centred at the minimiser, one per
    body with rows among the factors of such a product, are cached on the
    body too (``critical``), so a reused body solves no LP.  Each call
    returns a new report and level set around the shared, frozen critical
    body.
    """
    s, x = _symmetry(K)
    crit, k = K.critical
    return SymmetryReport(s, 1.0 - s, x, LevelSet(s, crit, False, K), k, (1.0 + s) / (1.0 - s))


def _erosion(profile, lam):
    """K^lam for lam <= 1 as an H-polytope on K's profile (A, hplus, hminus):
    each row moved inward by (1 - lam) w / 2, w = hplus + hminus its width."""
    A, hp, hm = profile
    return HPolytope(A, (1.0 + lam) / 2.0 * hp - (1.0 - lam) / 2.0 * hm)


def _symmetry_lp(K):
    """The symmetry LP of ``alpha_inf``, for the body's cached ``symmetry``:
    the least s with some x in the erosion {A x <= ((1 + s) hplus -
    (1 - s) hminus) / 2} of K's profile.  Returns (s, x), s clipped at 0
    where the LP value rounds below it, or None without a profile or an
    optimum."""
    profile = K.profile
    if profile is None:
        return None
    A, hp, hm = profile
    d = A.shape[1]
    M = np.hstack([2.0 * A, -(hp + hm)[:, None]])
    c = np.zeros(d + 1)
    c[-1] = 1.0
    res = lp.solve(c, A_ub=M, b_ub=hp - hm, sense="min")
    if not res.optimal:
        return None
    return max(0.0, float(res.value)), _readonly(res.x[:d])


def _symmetry(K):
    """(alpha_inf, minimiser) of K, with no critical-set LP: a ball's centre,
    the body's cached symmetry LP (``symmetry``) where it has rows, or for a
    product without merged rows the largest of its factors' values and their
    minimisers side by side."""
    if isinstance(K, Ball):
        return 0.0, K.center.copy()
    profile = K.profile
    if profile is None and isinstance(K, Product):
        parts = [_symmetry(f) for f in K.factors]
        return max(p[0] for p in parts), np.concatenate([p[1] for p in parts])
    if profile is None:
        raise BodyError("alpha_inf needs facet access (or a product of such bodies)")
    if K.symmetry is None:
        raise lp.NumericalError("symmetry LP ended without an optimum")
    s_star, x_star = K.symmetry
    if s_star >= 1.0 - 1e-12:
        raise lp.NumericalError("symmetry LP returned alpha_inf >= 1 for a full body")
    return s_star, x_star


def _critical(K, lam):
    """(K^lam, its exact dimension) for alpha_inf(K) <= lam < 1, in the order
    of ``_symmetry``: the body's ``critical`` at lam = alpha_inf(K), and each
    factor of a product at the product's value.  A ball answers in closed
    form (``level_set``).  A body with rows answers with their erosion,
    nonempty since it holds K's minimiser, so no LP decides that, and the
    dimension of ``_critical_dim`` centred at that minimiser.  A product
    without merged rows answers factor by factor."""
    if isinstance(K, Ball):
        return level_set(K, lam).body, (dim(K) if lam > 1e-12 else 0)
    profile = K.profile
    if profile is None:
        parts = [_critical(f, lam) for f in K.factors]
        return Product(tuple(p[0] for p in parts)), sum(p[1] for p in parts)
    return _erosion(profile, lam), _critical_dim(profile, lam, _symmetry(K)[1])


# the cap on the slack scale theta of the critical-set LP (``_critical_dim``)
THETA_MAX = 1e6


def _critical_dim(profile, lam, x0):
    """Dimension of the erosion {2 A x <= hp - hm + lam w} through its point x0.

    One LP finds the rows tight on the whole set (Freund, Roundy & Todd, MIT
    Sloan WP 1674-85, 1985): with x = x0 + u / theta and rows in widths, it
    maximises the sum of the slacks y over 0 <= y <= 1, 1 <= theta <= THETA_MAX.
    A row with y_i < 1/2 has slack below 1 / (2 THETA_MAX) widths on the
    whole set; the dimension is d minus the rank of those rows.
    """
    A, hp, hm = profile
    m, d = A.shape
    w = hp + hm
    # x0's slacks in widths, clipped so that rounding keeps the LP feasible
    s0 = np.maximum((hp - hm + lam * w - 2.0 * (A @ x0)) / w, 0.0)
    c = np.concatenate([np.zeros(d), np.ones(m), [0.0]])
    res = lp.solve(c, A_ub=np.hstack([2.0 * A / w[:, None], np.eye(m), -s0[:, None]]),
                   b_ub=np.zeros(m), bounds=[(None, None)] * d + [(0.0, 1.0)] * m
                   + [(1.0, THETA_MAX)], sense="max")
    if not res.optimal:
        raise lp.NumericalError(f"critical-set LP ended with status {res.status.value}")
    tight = A[res.x[d:d + m] < 0.5]
    return d - (int(np.linalg.matrix_rank(tight)) if tight.size else 0)


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
