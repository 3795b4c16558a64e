"""Chord and homothety ratios that reproduce the gauge.

The chord ratios (sigma, nu, omega, gamma_sq, mu) come straight from line
intersections and read neither the facet maximum nor the level-set LP of
the gauge module.  The test suite holds them against alpha through the
classical identities, so a bug in either side shows up as a broken
identity rather than two computations agreeing on the same mistake.

beta and rho are alpha in other coordinates, so neither checks it: at
points of K alpha = (1 - beta)/(1 + beta), beta the largest factor of the
reflected copy of K about x that stays in K; outside K
alpha = (1 + rho)/(1 - rho), rho the least factor at which a homothet of K
about x meets K.  Both read alpha's row maximum (on K's rows for beta, on
those of the central symmetrization C for rho) or, without rows, the
gauge's level-set LP (``gauge._level_lp``), under these maps.  The
independent checks of alpha are the chord ratios, ``brute_force_alpha``
and the tests' bisections.

Chord conventions: for a line through x meeting the body in a segment
[a, b], endpoints are named so that ||x - b|| <= ||x - a||.  Sampled
extrema over finite line families are one sided: a sampled infimum can
only overshoot the true value, a sampled supremum can only undershoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .body import (Ball, BodyError, Product, SupportOracle, as_vector, contains, dim,
                   halfspaces, hull_points)
from .gauge import _level_lp, _t_values, alpha, facet_profile, t_many
from .geometry import _line_sections, _support_pm, sphere_dirs
from .lp import LPStatus, NumericalError

# Which side of the true value a sampled extremum sits on: "upper" means
# the reported number is >= the true infimum, "lower" that it is <= the
# true supremum.
SAMPLING_SIDES = {"sigma": "upper", "nu": "lower", "omega": "lower",
                  "gamma_sq": "upper", "mu": "upper"}


@dataclass(frozen=True)
class Chord:
    """Segment K cap l with ||x - b|| <= ||x - a|| for the query point x."""

    a: np.ndarray
    b: np.ndarray
    line_dir: np.ndarray


def chord(K, x, v):
    """Intersect the line {x + t v} with K; None if empty or a point.

    The one-line case of the section routine behind every chord here:
    facet rows are clipped (a 1-d body's from its end points), a ball
    solves its quadratic, other polytopal bodies take one stacked LP.
    Endpoints follow the naming convention of Chord (ties keep the
    orientation along -v first).
    """
    d = dim(K)
    x = as_vector(x, d)
    v = as_vector(v, d)
    if not np.any(v):
        raise BodyError("chord direction must be nonzero")
    a, b = _chords(x, v[None, :], *_line_sections(K, x, v[None, :]))
    return Chord(a[0], b[0], v) if len(a) else None


def _chords(x, D, lo, hi):
    """Endpoints (a, b) of the chords through x along the rows of D, from
    the sections (lo, hi) of their lines, named as in Chord; lines that
    miss the body or touch it in a point are dropped."""
    keep = (hi - lo) * np.linalg.norm(D, axis=1) > 1e-9
    a = x + lo[keep, None] * D[keep]
    b = x + hi[keep, None] * D[keep]
    swap = (np.linalg.norm(a - x, axis=1) < np.linalg.norm(b - x, axis=1))[:, None]
    return np.where(swap, b, a), np.where(swap, a, b)


def beta(K, x):
    """Largest factor of the reflected copy -t(K - x) + x that stays in K.

    Exact one-pass formula on the facet rows where K has them; elsewhere on
    polytopal bodies the erosion form of the level-set LP, one LP on K's
    extreme points v_j: the least lam in [0, 1] with
    x - ((1 - lam)/2) v_j in ((1 + lam)/2) K, which is x - beta (v_j - x)
    in K at beta = (1 - lam)/(1 + lam).  For support oracles a sampled
    direction minimum (an upper bound of the true value).  Vanishes on the
    boundary, 1 at a symmetry center.
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Product):
        return min(beta(f, x[sl]) for f, sl in K.blocks)
    if isinstance(K, (Ball, SupportOracle)):
        if not contains(K, x, tol=1e-7):
            raise BodyError("beta is defined for x in K")
        if isinstance(K, SupportOracle):
            return _beta_sampled(K, x)
        delta = np.linalg.norm(x - K.center)
        return (K.radius - delta) / (K.radius + delta)
    prof = facet_profile(K)
    if prof is None:
        if K.extreme is None:
            raise BodyError("beta needs facet or vertex data")
        res, _ = _level_lp(K, x, 0.0, 1.0)
        if res.status is LPStatus.INFEASIBLE:
            raise BodyError("beta is defined for x in K")
        if not res.optimal:
            raise NumericalError(f"beta LP ended with status {res.status.value}")
        return (1.0 - res.value) / (1.0 + res.value)
    # membership on the tight rows, with the slack of contains(K, x, tol=1e-7)
    A, hp, hm = prof
    Ax = A @ x
    if not (Ax <= hp + 1e-7 * prof.relax).all():
        raise BodyError("beta is defined for x in K")
    return _beta_rows(Ax, hp, hm)


def _beta_rows(Ax, hp, hm):
    """min over the rows of (hplus - <a, x>)_+ / (<a, x> + hminus), capped at
    1, from the products Ax = A @ x."""
    num = hp - Ax
    den = Ax + hm
    # den > 0 for interior x; boundary rows force the minimum to 0 anyway
    ok = den > 1e-12
    if not ok.any():
        raise NumericalError("degenerate reflected-containment system")
    return min(float((np.maximum(num[ok], 0.0) / den[ok]).min()), 1.0)


def _beta_sampled(K, x, n_dirs=2048, seed=7):
    d = dim(K)
    dirs = sphere_dirs(d, n_dirs, seed)
    return _beta_rows(dirs @ x, *_support_pm(K, dirs))


def rho(K, x):
    """Sup of factors t for which x + t(K - x) misses K (exterior x).

    The homothet meets K exactly when (1 - t) x is in K + t(-K), whose facet
    normals for t > 0 are the rows a of the central symmetrization C, so
    rho = max(0, max (<a, x> - h(K, a)) / (<a, x> + h(K, -a))) over the rows
    with a positive denominator.  That is (s - 1)/(s + 1) for the largest
    row value s of ``gauge._t_values`` on C's cached rows (``symm_profile``),
    the value alpha reads there: no LP.  A ball has its closed form.  Other
    polytopal bodies take the sum form of the level-set LP, the least
    lam >= 1 with x in ((lam + 1)/2) K - ((lam - 1)/2) K, which is
    y = x + t (z - x) with y, z in K at t = (lam - 1)/(lam + 1); off the
    affine hull of a flat K it is infeasible and rho is 1.  A product that
    no LP encodes takes its factors' largest rho over the blocks of x
    outside them.
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Ball):
        if contains(K, x, tol=-1e-9):
            raise BodyError("rho is defined for x outside K")
        delta = np.linalg.norm(x - K.center)
        return (delta - K.radius) / (delta + K.radius)
    profile = K.symm_profile
    if profile is not None:
        s = float(_t_values(profile, x).max())
        t = max(0.0, (s - 1.0) / (s + 1.0))
    else:
        try:
            res, _ = _level_lp(K, x, 1.0, None)
        except BodyError:
            if not isinstance(K, Product):
                raise BodyError("rho needs a polytope-backed body") from None
            # the homothet meets K exactly where it meets every factor
            out = [rho(f, x[sl]) for f, sl in K.blocks if not contains(f, x[sl], tol=-1e-9)]
            if not out:
                raise BodyError("rho is defined for x outside K") from None
            return max(out)
        if res.status is LPStatus.INFEASIBLE:
            return 1.0
        if not res.optimal:
            raise NumericalError(f"rho LP ended with status {res.status.value}")
        t = (res.value - 1.0) / (res.value + 1.0)
    # t = 0 exactly when x is in K (on rows, up to rounding); the boundary
    # keeps its rho of 0
    if t <= 1e-9 and contains(K, x, tol=-1e-9):
        raise BodyError("rho is defined for x outside K")
    return t


@dataclass
class RatioReport:
    """Sampled chord-ratio extrema with their one-sidedness."""

    sigma: float | None
    nu: float | None
    omega: float | None
    gamma_sq: float | None
    mu: float | None
    point_in_body: bool
    n_chords: int
    sides: dict = field(default_factory=lambda: dict(SAMPLING_SIDES))


def ratio_functionals(K, x, n_lines=64, seed=0):
    """Extrema of the chord ratios over a finite line family through x.

    The family is every direction toward a vertex (``hull_points``), every
    facet normal, plus n_lines seeded random directions; lines missing the
    body are skipped.  Fields outside their domain (mu for interior points;
    nu, omega, gamma_sq for exterior ones) are None, as is everything when
    no admissible line is found.
    """
    if n_lines < 1:
        raise BodyError("n_lines must be >= 1")
    d = dim(K)
    x = as_vector(x, d)
    inside = contains(K, x)

    dirs = []
    gens = hull_points(K)
    if gens is not None:
        W = gens - x
        n = np.linalg.norm(W, axis=1)
        dirs.append(W[n > 1e-12] / n[n > 1e-12, None])
    hs = halfspaces(K)
    if hs is not None:
        dirs.append(hs[0] / np.linalg.norm(hs[0], axis=1, keepdims=True))
    dirs.append(sphere_dirs(d, n_lines, seed))
    D = np.vstack(dirs)

    a, b = _chords(x, D, *_line_sections(K, x, D))
    p = np.linalg.norm(a - x, axis=1)
    q = np.linalg.norm(b - x, axis=1)
    if len(a) == 0:
        return RatioReport(None, None, None, None, None, inside, 0)
    return RatioReport(
        sigma=float(np.min(q / p)),
        nu=float(np.max((p - q) / (p + q))) if inside else None,
        omega=float(np.max(p / (p + q))) if inside else None,
        gamma_sq=float(np.min(4.0 * p * q / (p + q) ** 2)) if inside else None,
        mu=None if inside else float(np.min((p + q) / np.linalg.norm(a - b, axis=1))),
        point_in_body=inside,
        n_chords=len(a),
    )


def minkowski_phi(K, x):
    """|1 - alpha| / (1 + alpha): the classical symmetry ratio at x."""
    a = alpha(K, x).alpha
    return abs(1.0 - a) / (1.0 + a)


def brute_force_alpha(K, x, n_dirs=1024, seed=0):
    """Plain max of t over sampled directions plus facet normals of +-K.

    A guaranteed lower bound on alpha; the anti-regression oracle for
    the closed-form and LP paths.
    """
    d = dim(K)
    x = as_vector(x, d)
    dirs = [sphere_dirs(d, n_dirs, seed)] if n_dirs > 0 else []
    hs = halfspaces(K)
    if hs is not None:
        dirs.extend([hs[0], -hs[0]])
    if not dirs:
        raise BodyError("no directions to sample")
    return float(np.max(t_many(K, np.vstack(dirs), x)))
