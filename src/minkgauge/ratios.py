"""Chord and homothety ratios that reproduce the gauge.

The chord ratios (sigma, nu, omega, gamma_sq, mu) come straight from line
intersections and read neither the facet maximum nor the level-set LP of
the gauge module.  The test suite holds them against alpha through the
classical identities, so a bug in either side shows up as a broken
identity rather than two computations agreeing on the same mistake.

beta and rho on rows are not independent of alpha.  beta is the largest
factor of the reflected copy of K about x that stays in K.  On K's rows
(``_beta_rows``) it is alpha's row maximum s mapped by s -> (1 - s)/(1 + s):
with p = h(K, a) - <a, x> and q = <a, x> + h(K, -a), a row's t is
(q - p)/(q + p) and its ratio p/q.  So inside a polytope with rows,
(1 - beta)/(1 + beta) = alpha holds by construction, and beta's LP
(``_beta_lp``) is the independent reference.  rho, the least factor at
which a homothet of K about x meets K, is on the cached rows of the
central symmetrization C the gauge's maximum s over those rows under
s -> (s - 1)/(s + 1).  Outside a polytope in dimension 3 or 4 that s is
alpha itself, so there (1 + rho)/(1 - rho) = alpha holds by construction;
only rho's LP (``_rho_lp``) and the tests' LP bisection check alpha
independently.

Chord conventions: for a line through x meeting the body in a segment
[a, b], endpoints are named so that ||x - b|| <= ||x - a||.  Sampled
extrema over finite line families are one sided: a sampled infimum can
only overshoot the true value, a sampled supremum can only undershoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .body import (Ball, BodyError, Product, SupportOracle, as_vector, contains,
                   copies_lp, dim, halfspaces, hull_points, lp_encoding, rows_contain)
from .gauge import _t_values, alpha, facet_profile, t_many
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

    Exact one-pass formula on the facet rows where K has them; one LP on
    its extreme points for the other polytopal bodies; for support oracles
    a sampled direction minimum (an upper bound of the true value).
    Vanishes on the boundary, 1 at a symmetry center.
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
        return _beta_lp(K, x)
    # membership on the tight rows, with the slack of contains(K, x, tol=1e-7)
    A, hp, _ = prof
    if not rows_contain(A, hp, x, tol=1e-7):
        raise BodyError("beta is defined for x in K")
    return _beta_rows(*prof, x)


def _beta_rows(A, hp, hm, x):
    num = hp - A @ x
    den = A @ x + hm
    # den > 0 for interior x; boundary rows force the minimum to 0 anyway
    ok = den > 1e-12
    if not np.any(ok):
        raise NumericalError("degenerate reflected-containment system")
    return min(float(np.min(np.maximum(num[ok], 0.0) / den[ok])), 1.0)


def _beta_sampled(K, x, n_dirs=2048, seed=7):
    d = dim(K)
    dirs = sphere_dirs(d, n_dirs, seed)
    return _beta_rows(dirs, *_support_pm(K, dirs), x)


def _beta_lp(K, x):
    """beta as one LP (``copies_lp``): the largest lam in [0, 1] with
    x - lam (u_j - x) in K for every extreme point u_j of K, one unscaled
    copy of K per u_j coupled by P w_j + q + lam (u_j - x) = x.  Infeasible
    exactly when x is not in K.
    """
    e, U = lp_encoding(K), K.extreme
    if e is None or U is None:
        raise BodyError("beta needs facet or vertex data")
    res, _ = copies_lp(e, [(0.0, 1.0)] * len(U),
                       np.hstack([(U - x).reshape(-1, 1), np.kron(np.eye(len(U)), e.P)]),
                       np.tile(x - e.q, len(U)), (0.0, 1.0), sense="max")
    if res.status is LPStatus.INFEASIBLE:
        raise BodyError("beta is defined for x in K")
    if not res.optimal:
        raise NumericalError(f"beta LP ended with status {res.status.value}")
    return float(res.value)


def rho(K, x):
    """Sup of factors t for which x + t(K - x) misses K (exterior x).

    The homothet meets K exactly when (1 - t) x is in K + t(-K), whose facet
    normals for t > 0 are the rows a of the central symmetrization C, so
    rho = max(0, max (<a, x> - h(K, a)) / (<a, x> + h(K, -a))) over the rows
    with a positive denominator.  That is (s - 1)/(s + 1) for the largest
    row value s of ``gauge._t_values`` on C's cached rows (``symm_profile``),
    the value alpha reads there: no LP, and no check of alpha.  A ball has
    its closed form; other polytope-backed bodies (flat ones, and above
    MAX_VERTEX_DIM those that are not products of lower polytopes) take one
    LP (``_rho_lp``).
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Ball):
        if contains(K, x, tol=-1e-9):
            raise BodyError("rho is defined for x outside K")
        delta = np.linalg.norm(x - K.center)
        return (delta - K.radius) / (delta + K.radius)
    profile = K.symm_profile
    if profile is None:
        t = _rho_lp(K, x)
    else:
        s = float(np.max(_t_values(profile, x)))
        t = max(0.0, (s - 1.0) / (s + 1.0))
    # t = 0 exactly when x is in K (on rows, up to rounding); the boundary
    # keeps its rho of 0
    if t <= 1e-9 and contains(K, x, tol=-1e-9):
        raise BodyError("rho is defined for x outside K")
    return t


def _rho_lp(K, x):
    """rho as one LP (``body.copies_lp``): the least t in [0, 1] at which the
    homothet meets K, i.e. some y in K equals x + t (z - x) with z in K.
    With w = t z, a perspective copy of K in which only the right-hand
    sides scale, the coupling P u - P w + t (x - q) = x - q is linear in
    (t, u, w).
    """
    e = lp_encoding(K)
    if e is None:
        raise BodyError("rho needs a polytope-backed body")
    res, _ = copies_lp(e, [(0.0, 1.0), (1.0, 0.0)], np.hstack([(x - e.q)[:, None], e.P, -e.P]),
                       x - e.q, (0.0, 1.0))
    if not res.optimal:
        raise NumericalError(f"rho LP ended with status {res.status.value}")
    return float(res.value)


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
