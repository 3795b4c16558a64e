"""Chord and homothety ratios that reproduce the gauge independently.

Every function here avoids the facet-maximum and level-set LP paths of
the gauge module on purpose: beta uses reflected-copy containment, rho
the least factor at which a homothet of K about x meets K (one LP), and
the chord ratios (sigma, nu, omega, gamma_sq, mu) come straight from line
intersections.  The test suite holds these against alpha through the
classical identities, so a bug in either side shows up as a broken
identity rather than two computations agreeing on the same mistake.

Chord conventions: for a line through x meeting the body in a segment
[a, b], endpoints are named so that ||x - b|| <= ||x - a||.  Sampled
extrema over finite line families are one sided: a sampled infimum can
only overshoot the true value, a sampled supremum can only undershoot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .body import (Ball, BodyError, Product, SupportOracle, as_vector,
                   contains, dim, extreme_points, halfspaces, lp_encoding,
                   vertex_candidates)
from .gauge import _scaled_copies, alpha, facet_profile, t_many
from .geometry import _support_pm, sphere_dirs
from .lp import LPStatus, NumericalError, solve, solve_stacked

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

    Halfspace representations are clipped row by row; other polytope
    variants are ray-shot with two LPs.  Endpoints follow the naming
    convention of Chord (ties keep the orientation along -v first).
    """
    d = dim(K)
    x = as_vector(x, d)
    v = as_vector(v, d)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise BodyError("chord direction must be nonzero")
    if isinstance(K, Ball):
        # |x + t v - c|^2 = r^2, standard quadratic
        u = x - K.center
        aa = nv * nv
        bb = 2.0 * float(u @ v)
        cc = float(u @ u) - K.radius ** 2
        disc = bb * bb - 4.0 * aa * cc
        if disc <= 0.0:
            return None
        root = np.sqrt(disc)
        lo, hi = (-bb - root) / (2 * aa), (-bb + root) / (2 * aa)
    elif isinstance(K, SupportOracle):
        raise BodyError("chord needs a polytope-backed body")
    else:
        interval = _clip_interval(K, x, v)
        if interval is None:
            return None
        lo, hi = interval
    if (hi - lo) * nv <= 1e-9:
        return None
    pa, pb = x + lo * v, x + hi * v
    if np.linalg.norm(pa - x) < np.linalg.norm(pb - x):
        pa, pb = pb, pa
    return Chord(pa, pb, v)


def _clip_interval(K, x, v):
    hs = halfspaces(K)
    if hs is None:
        return _lp_interval(K, x, v)
    A, b = hs
    den = A @ v
    num = b - A @ x
    scale = np.linalg.norm(A, axis=1) * np.linalg.norm(v)
    lo, hi = -np.inf, np.inf
    for de, nu, sc in zip(den, num, scale):
        if abs(de) <= 1e-12 * sc:
            if nu < 0.0:
                return None
            continue
        t = nu / de
        if de > 0.0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
    if not np.isfinite(lo) or not np.isfinite(hi) or lo > hi:
        return None
    return lo, hi


def _lp_interval(K, x, v):
    enc = lp_encoding(K)
    if enc is None:
        raise BodyError("chord needs a polytope-backed body")
    # variables (u, t) with P u + q = x + t v; t maximized and minimized in
    # one stacked LP
    Aub = np.hstack([enc.A_ub, np.zeros((enc.A_ub.shape[0], 1))])
    Aeq = np.vstack([np.hstack([enc.A_eq, np.zeros((enc.A_eq.shape[0], 1))]),
                     np.hstack([enc.P, -v[:, None]])])
    beq = np.concatenate([enc.b_eq, x - enc.q])
    C = np.zeros((2, enc.n + 1))
    C[:, -1] = (1.0, -1.0)
    status, X = solve_stacked(C, Aub, enc.b_ub, Aeq, beq, list(enc.bounds) + [(None, None)],
                              sense="max")
    if status is not LPStatus.OPTIMAL:
        return None
    return X[1, -1], X[0, -1]


def beta(K, x):
    """Largest factor of the reflected copy -t(K - x) + x that stays in K.

    Exact one-pass formula on the facet rows where K has them; one LP on
    its extreme points for the other polytopal bodies; for support oracles
    a sampled direction minimum (an upper bound of the true value).
    Vanishes on the boundary, 1 at a symmetry center.
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Product):
        off = 0
        vals = []
        for f in K.factors:
            df = dim(f)
            vals.append(beta(f, x[off:off + df]))
            off += df
        return min(vals)
    if not isinstance(K, (Ball, SupportOracle)):
        prof = facet_profile(K)
        if prof is None:
            return _beta_lp(K, x)
    if not contains(K, x, tol=1e-7):
        raise BodyError("beta is defined for x in K")
    if isinstance(K, Ball):
        delta = np.linalg.norm(x - K.center)
        return (K.radius - delta) / (K.radius + delta)
    if isinstance(K, SupportOracle):
        return _beta_sampled(K, x)
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
    """beta as one LP: the largest lam in [0, 1] with x - lam (u_j - x) in K
    for every extreme point u_j of K, one unscaled copy of K per u_j coupled
    by P w_j + q + lam (u_j - x) = x.  Infeasible exactly when x is not in K.
    """
    e, gens = lp_encoding(K), vertex_candidates(K)
    if e is None or gens is None:
        raise BodyError("beta needs facet or vertex data")
    U = extreme_points(gens)
    A_ub, b_ub, A_eq, b_eq, bounds = _scaled_copies(e, [(0.0, 1.0)] * len(U))
    C = np.hstack([(U - x).reshape(-1, 1), np.kron(np.eye(len(U)), e.P)])
    bounds[0] = (0.0, 1.0)
    c = np.zeros(C.shape[1])
    c[0] = 1.0
    res = solve(c, A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
                A_eq=np.vstack([A_eq, C]),
                b_eq=np.concatenate([b_eq, np.tile(x - e.q, len(U))]),
                bounds=bounds, sense="max")
    if res.status is LPStatus.INFEASIBLE:
        raise BodyError("beta is defined for x in K")
    if not res.optimal:
        raise NumericalError(f"beta LP ended with status {res.status.value}")
    return float(res.value)


def rho(K, x):
    """Sup of factors t for which x + t(K - x) misses K (exterior x).

    One LP: the least t in [0, 1] at which the homothet meets K, i.e. some
    y in K equals x + t (z - x) with z in K.  With w = t z, a perspective
    copy of K in which only the right-hand sides scale, the coupling
    P u - P w + t (x - q) = x - q is linear in (t, u, w).
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Ball):
        if contains(K, x, tol=-1e-9):
            raise BodyError("rho is defined for x outside K")
        delta = np.linalg.norm(x - K.center)
        return (delta - K.radius) / (delta + K.radius)
    e = lp_encoding(K)
    if e is None:
        raise BodyError("rho needs a polytope-backed body")
    A_ub, b_ub, A_eq, b_eq, bounds = _scaled_copies(e, [(0.0, 1.0), (1.0, 0.0)])
    C = np.hstack([(x - e.q)[:, None], e.P, -e.P])
    bounds[0] = (0.0, 1.0)
    c = np.zeros(C.shape[1])
    c[0] = 1.0
    res = solve(c, A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
                A_eq=np.vstack([A_eq, C]), b_eq=np.concatenate([b_eq, x - e.q]),
                bounds=bounds)
    if not res.optimal:
        raise NumericalError(f"rho LP ended with status {res.status.value}")
    t = float(res.value)
    # t = 0 exactly when x is in K; the boundary keeps its rho of 0
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

    The family is every direction toward a vertex, every facet normal,
    plus n_lines seeded random directions; lines missing the body are
    skipped.  Fields outside their domain (mu for interior points; nu,
    omega, gamma_sq for exterior ones) are None, as is everything when
    no admissible line is found.
    """
    if n_lines < 1:
        raise BodyError("n_lines must be >= 1")
    d = dim(K)
    x = as_vector(x, d)
    inside = contains(K, x)

    dirs = []
    gens = vertex_candidates(K)
    if gens is not None:
        for u in gens:
            w = u - x
            n = np.linalg.norm(w)
            if n > 1e-12:
                dirs.append(w / n)
    hs = halfspaces(K)
    if hs is not None:
        dirs.extend(r / np.linalg.norm(r) for r in hs[0])
    dirs.extend(sphere_dirs(d, n_lines, seed))

    sigma = gamma_sq = mu = np.inf
    nu = omega = -np.inf
    n_chords = 0
    for v in dirs:
        c = chord(K, x, v)
        if c is None:
            continue
        n_chords += 1
        p = float(np.linalg.norm(c.a - x))
        q = float(np.linalg.norm(c.b - x))
        length = float(np.linalg.norm(c.a - c.b))
        sigma = min(sigma, q / p)
        if inside:
            nu = max(nu, (p - q) / (p + q))
            omega = max(omega, p / (p + q))
            gamma_sq = min(gamma_sq, 4.0 * p * q / (p + q) ** 2)
        else:
            mu = min(mu, (p + q) / length)

    if n_chords == 0:
        return RatioReport(None, None, None, None, None, inside, 0)
    return RatioReport(
        sigma=float(sigma),
        nu=float(nu) if inside else None,
        omega=float(omega) if inside else None,
        gamma_sq=float(gamma_sq) if inside else None,
        mu=None if inside else float(mu),
        point_in_body=inside,
        n_chords=n_chords,
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
