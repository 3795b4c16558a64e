"""Chebyshev growth at exterior points, leading coefficients, gradient bounds.

The degree-n growth at x is T_n(alpha(K, x)) and the extremal polynomial is
T_n composed with the affine layer coordinate t(K, v*, .) of the witness
direction: |t| <= 1 on K keeps the sup norm at 1, while t(x) = alpha pushes
the value at x to the maximum.  The leading-coefficient growth in a fixed
direction v is 2^(2n-1) / tau(K, v)^n with tau the maximal chord, twice
where the ray {t v} leaves the central symmetrization C; where C has
facet rows, the row that stops the ray is the witness direction.

Every extremal polynomial here is such a ridge polynomial, y -> T_n(g . y + c0)
with (g, c0) the affine slab coordinate, held as one ``SlabPolynomial``: its
value and gradient T_n'(g . y + c0) g are closed forms at any degree, with
numpy's ``Chebyshev.basis(n)`` as the independent reference in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import BodyError, _keep, as_vector, dim, hull_points, inscribed_ball
from .gauge import alpha
from .geometry import _exit_row, _max_chord, _pow2_scaled, _support_pm, global_width

def cheb_T(n, x):
    """T_n(x) by the stable branch for the argument's region.

    Elementwise over an array argument, a float for a scalar one.  A degree
    past float range gives +-inf at |x| > 1 and raises at |x| <= 1
    (``_past_float_range``).
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    t = np.asarray(x, dtype=float)
    if n == 0:
        out = np.ones_like(t)
    elif _as_float(n) == np.inf:
        out = _past_float_range(n, t, 0)
    else:
        s = np.sqrt(np.maximum(t * t - 1.0, 0.0))
        with np.errstate(over="ignore"):
            out = np.where(np.abs(t) <= 1.0, np.cos(n * np.arccos(np.clip(t, -1.0, 1.0))),
                           0.5 * ((t + s) ** n + (t - s) ** n))
    return float(out) if out.ndim == 0 else out


def cheb_T_prime(n, x):
    """Derivative of T_n, stable in both regions; inf beyond float range,
    and for a degree past float range as ``cheb_T``."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    x = float(x)
    if n == 0:
        return 0.0
    if _as_float(n) == np.inf:
        return float(_past_float_range(n, np.asarray(x), 1))
    if abs(x) <= 1.0:
        th = np.arccos(x)
        sn = np.sin(th)
        if sn < 1e-8:
            return float(n * n * np.sign(x) ** (n + 1))
        return float(n * np.sin(n * th) / sn)
    s = np.sqrt(x * x - 1.0)
    with np.errstate(over="ignore"):
        return float(n * ((x + s) ** n - (x - s) ** n) / (2.0 * s))


def _past_float_range(n, t, k):
    """T_n (k = 0) or T_n' (k = 1) at t for an int degree n past float
    range: inf at t > 1, and (-1)^(n - k) inf at t < -1, the sign of the
    value there; NaN stays NaN.  Raises ValueError naming n where some
    |t| <= 1, since cos(n theta) there needs n mod 2 pi, which no float
    degree holds."""
    if np.any(np.abs(t) <= 1.0):
        raise ValueError(f"T_n and T_n' at |t| <= 1 are not computed for the degree "
                         f"n = {n}, past float range")
    low = -np.inf if (n - k) % 2 else np.inf
    return np.where(t > 1.0, np.inf, np.where(t < -1.0, low, np.nan))


def _layer_coordinate(K, v):
    """(g, c0) with t(K, v, y) = g . y + c0, from one batched support call
    on v and -v (the one-row case of ``geometry._support_pm``)."""
    v = as_vector(v, dim(K))
    hp, hm = (float(h[0]) for h in _support_pm(K, v[None, :]))
    w = hp + hm
    if w <= 0.0:
        raise BodyError("degenerate direction: zero width")
    return 2.0 * v / w, (hm - hp) / w


@dataclass(frozen=True, eq=False)
class SlabPolynomial:
    """y -> T_n(g . y + c0), T_n of an affine slab coordinate; g is a
    read-only copy, so a report's polynomial cannot be changed."""

    g: np.ndarray
    c0: float
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("degree must be >= 0")
        g = np.array(self.g, dtype=float)
        g.setflags(write=False)
        object.__setattr__(self, "g", g)

    def _t(self, y):
        return float(self.g @ as_vector(y, self.g.size)) + self.c0

    def __call__(self, y):
        return cheb_T(self.n, self._t(y))

    def grad(self, y):
        """The exact gradient T_n'(g . y + c0) g.  Where T_n' overflows to
        inf, a coordinate with g = 0 is 0, not inf * 0."""
        d = cheb_T_prime(self.n, self._t(y))
        if not math.isinf(d):
            return d * self.g
        out = np.zeros_like(self.g)
        live = self.g != 0.0
        out[live] = d * self.g[live]
        return out


def extremal_polynomial(K, v, n):
    """T_n(t(K, v, .)): sup norm 1 on K, where |t| <= 1; n = 1 is the layer
    coordinate t(K, v, .) itself."""
    return SlabPolynomial(*_layer_coordinate(K, v), n)


@dataclass
class ChebyshevReport:
    n: int
    alpha: float
    growth: float
    witness_dir: np.ndarray
    extremal_eval: SlabPolynomial
    sup_norm_check: float
    witness_tol: float


# the Dirichlet weights of _body_samples, one read-only (n, k) array per
# (k, n, seed), kept under sphere_dirs' caps (``body._keep``)
_WEIGHTS = {}


def _body_samples(K, n_samples, seed):
    """Points of K: its generators and n_samples seeded convex combinations
    of them, or, for a body without a finite point set, n_samples points of
    its certified inner ball.

    The combination weights depend only on (number of generators,
    n_samples, seed), not on K, so each such draw is made once per process
    and kept, read-only; a repeated request reads the same bits as a fresh
    draw.
    """
    gens = hull_points(K)
    if gens is not None:
        key = (len(gens), n_samples, seed)
        W = _WEIGHTS.get(key)
        if W is None:
            W = _keep(_WEIGHTS, key, np.random.default_rng(seed).dirichlet(
                np.full(len(gens), 0.6), size=n_samples))
        return np.vstack([gens, W @ gens])
    rng = np.random.default_rng(seed)
    # certified inner ball only: valid but conservative samples
    ball = inscribed_ball(K)
    if ball is None:
        raise BodyError("cannot sample the body")
    c, r = ball
    d = c.size
    U = rng.standard_normal((n_samples, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    radii = r * rng.uniform(size=(n_samples, 1)) ** (1.0 / d)
    return c + U * radii


def cheb_growth(K, x, n, n_samples=10000, seed=29):
    """Largest value at x over degree-n polynomials bounded by 1 on K.

    Returns the report with the witness ``SlabPolynomial`` and a sampled
    sup-norm sanity value over ``_body_samples``: K's generators and
    n_samples seeded convex combinations of them, or n_samples points of the
    inscribed ball of a body without generators, where n_samples must then
    be positive.  Interior and boundary points have growth 1.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    res = alpha(K, x)
    a = res.alpha
    v = res.witness_dir
    growth = cheb_T(n, a) if a > 1.0 else 1.0

    P = extremal_polynomial(K, v, n)
    samples = _body_samples(K, n_samples, seed)
    if not len(samples):
        raise ValueError("n_samples must be positive for a body sampled from its inscribed ball")
    sup_check = np.max(np.abs(cheb_T(n, samples @ P.g + P.c0)))
    tol = res.tol * abs(cheb_T_prime(n, max(a, 1.0))) + 1e-12
    return ChebyshevReport(n, a, growth, v, P, float(sup_check), tol)


def _as_float(n):
    """A degree as a float, inf past float range."""
    try:
        return float(n)
    except OverflowError:
        return np.inf


@dataclass
class LeadingGrowthReport:
    n: int
    value: float
    tau: float
    witness_dir: np.ndarray | None
    extremal_eval: SlabPolynomial | None


def leading_growth(K, v, n):
    """Largest leading coefficient in direction v: (4 / tau(K, v))^n / 2,
    inf past float range.

    Where the central symmetrization has facet rows, the witness direction
    v* (the facet normal of the central symmetrization at the maximal-chord
    midpoint, found with tau from the same symmetrization) is attached,
    together with the ``SlabPolynomial`` T_n(t(K, v*, .)) whose directional
    leading coefficient attains the value.  A body flat along v has tau = 0
    and value inf.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    v = as_vector(v, dim(K))
    if not np.any(v):
        raise BodyError("direction must be nonzero")
    tau = _max_chord(K, v)
    with np.errstate(over="ignore", divide="ignore"):
        value = 0.5 * (4.0 / np.float64(tau)) ** _as_float(n)
    # the row that stops the ray at v as the chord clip scales it
    hs = K.symm_rows
    wdir = None if hs is None else _exit_row(hs, _pow2_scaled(v)[0])
    P = None if wdir is None else extremal_polynomial(K, wdir, n)
    return LeadingGrowthReport(n, float(value), float(tau), wdir, P)


@dataclass
class BernsteinReport:
    theorem_bound: float
    conjecture_bound: float
    alpha: float
    width: float
    width_exact: bool


def bernstein_bound(K, x, n, norm_bound=1.0):
    """Gradient bounds at an interior point for degree-n polynomials.

    theorem_bound is the proved 2 n M / (w(K) sqrt(1 - alpha)); the
    conjectured sharper variant replaces 1 - alpha with 1 - alpha^2 and is
    reported for comparison, never asserted anywhere in this package.  Both
    are inf for a degree past float range; the bound M = norm_bound must be
    finite and positive.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if not (np.isfinite(norm_bound) and norm_bound > 0.0):
        raise ValueError("norm bound must be finite and positive")
    a = alpha(K, x).alpha
    if a >= 1.0:
        raise BodyError("bernstein bound needs an interior point (alpha < 1)")
    wres = global_width(K)
    base = 2.0 * _as_float(n) * norm_bound / wres.value
    return BernsteinReport(
        theorem_bound=float(base / np.sqrt(1.0 - a)),
        conjecture_bound=float(base / np.sqrt(1.0 - a * a)),
        alpha=float(a),
        width=float(wres.value),
        width_exact=bool(wres.exact),
    )
