"""Chebyshev growth at exterior points, leading coefficients, gradient bounds.

The degree-n growth at x is T_n(alpha(K, x)) and the extremal polynomial is
T_n composed with the affine layer coordinate t(K, v*, .) of the witness
direction: |t| <= 1 on K keeps the sup norm at 1, while t(x) = alpha pushes
the value at x to the maximum.  The leading-coefficient growth in a fixed
direction v is 2^(2n-1) / tau(K, v)^n with tau the maximal chord, twice
where the ray {t v} leaves the central symmetrization C; where C has
facet rows, the row that stops the ray is the witness direction.

Everything here works through a tiny explicit Polynomial type (a dict from
exponent multi-indices to coefficients) so gradients are exact and the
functional and expanded evaluations can be held against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .body import BodyError, _keep, as_vector, dim, hull_points, inscribed_ball
from .gauge import alpha
from .geometry import _max_chord, _support_pm, global_width

DEGREE_CAP = 64


def cheb_T(n, x):
    """T_n(x) by the stable branch for the argument's region.

    Elementwise over an array argument, a float for a scalar one.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    t = np.asarray(x, dtype=float)
    if n == 0:
        out = np.ones_like(t)
    else:
        s = np.sqrt(np.maximum(t * t - 1.0, 0.0))
        with np.errstate(over="ignore"):
            out = np.where(np.abs(t) <= 1.0, np.cos(n * np.arccos(np.clip(t, -1.0, 1.0))),
                           0.5 * ((t + s) ** n + (t - s) ** n))
    return float(out) if out.ndim == 0 else out


def cheb_T_prime(n, x):
    """Derivative of T_n, stable in both regions; inf beyond float range."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    x = float(x)
    if n == 0:
        return 0.0
    if abs(x) <= 1.0:
        th = np.arccos(x)
        sn = np.sin(th)
        if sn < 1e-8:
            return float(n * n * np.sign(x) ** (n + 1))
        return float(n * np.sin(n * th) / sn)
    s = np.sqrt(x * x - 1.0)
    with np.errstate(over="ignore"):
        return float(n * ((x + s) ** n - (x - s) ** n) / (2.0 * s))


@dataclass
class Polynomial:
    """Real polynomial on R^d as {exponent tuple: coefficient}."""

    coeffs: dict
    d: int

    @property
    def degree(self):
        return max((sum(k) for k, c in self.coeffs.items() if c != 0.0),
                   default=0)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial({(0,) * self.d: float(other)}, self.d)
        if self.d != other.d:
            raise BodyError("polynomial dimension mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return Polynomial(out, self.d)

    def __sub__(self, other):
        return self + (other * -1.0 if isinstance(other, Polynomial)
                       else -other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial({k: c * float(other)
                               for k, c in self.coeffs.items()}, self.d)
        if self.d != other.d:
            raise BodyError("polynomial dimension mismatch")
        if self.degree + other.degree > DEGREE_CAP:
            raise BodyError(f"expanded degree exceeds cap {DEGREE_CAP}")
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                out[k] = out.get(k, 0.0) + c1 * c2
        return Polynomial(out, self.d)

    __rmul__ = __mul__

    @staticmethod
    def affine(gradient, constant):
        g = np.asarray(gradient, dtype=float)
        d = g.size
        coeffs = {(0,) * d: float(constant)}
        for i, gi in enumerate(g):
            if gi != 0.0:
                k = tuple(1 if j == i else 0 for j in range(d))
                coeffs[k] = float(gi)
        return Polynomial(coeffs, d)


def poly_eval(p, x):
    x = as_vector(x, p.d)
    total = 0.0
    for k, c in p.coeffs.items():
        total += c * np.prod([xi ** ki for xi, ki in zip(x, k)])
    return float(total)


def poly_grad(p, x):
    x = as_vector(x, p.d)
    g = np.zeros(p.d)
    for k, c in p.coeffs.items():
        for i, ki in enumerate(k):
            if ki == 0:
                continue
            term = c * ki * x[i] ** (ki - 1)
            for j, kj in enumerate(k):
                if j != i:
                    term *= x[j] ** kj
            g[i] += term
    return g


def _layer_coordinate(K, v):
    """(g, c0) with t(K, v, y) = g . y + c0, from one batched support call
    on v and -v (the one-row case of ``geometry._support_pm``)."""
    v = as_vector(v, dim(K))
    hp, hm = (float(h[0]) for h in _support_pm(K, v[None, :]))
    w = hp + hm
    if w <= 0.0:
        raise BodyError("degenerate direction: zero width")
    return 2.0 * v / w, (hm - hp) / w


def _slab_evaluator(g, c0, n):
    """y -> T_n(g . y + c0): T_n of a slab coordinate built once."""
    d = g.size

    def evaluator(y):
        return cheb_T(n, float(g @ as_vector(y, d)) + c0)
    return evaluator


def t_polynomial(K, v):
    """The layer coordinate t(K, v, .) as a degree-1 Polynomial."""
    return Polynomial.affine(*_layer_coordinate(K, v))


def compose_cheb(n, p):
    """T_n(p) expanded by the three-term recurrence; degree-capped."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    one = Polynomial({(0,) * p.d: 1.0}, p.d)
    if n == 0:
        return one
    prev, cur = one, p
    for _ in range(n - 1):
        prev, cur = cur, 2.0 * p * cur - prev
    return cur


def extremal_polynomial(K, v, n):
    """T_n(t(K, v, .)) in expanded form: sup-norm 1 on K by construction."""
    return compose_cheb(n, t_polynomial(K, v))


@dataclass
class ChebyshevReport:
    n: int
    alpha: float
    growth: float
    witness_dir: np.ndarray
    extremal_eval: Callable
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

    Returns the report with the witness polynomial evaluator and a sampled
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

    g, c0 = _layer_coordinate(K, v)
    samples = _body_samples(K, n_samples, seed)
    if not len(samples):
        raise ValueError("n_samples must be positive for a body sampled from its inscribed ball")
    sup_check = np.max(np.abs(cheb_T(n, samples @ g + c0)))
    tol = res.tol * abs(cheb_T_prime(n, max(a, 1.0))) + 1e-12
    return ChebyshevReport(n, a, growth, v, _slab_evaluator(g, c0, n), float(sup_check), tol)


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
    extremal_eval: Callable | None


def leading_growth(K, v, n):
    """Largest leading coefficient in direction v: (4 / tau(K, v))^n / 2,
    inf past float range.

    Where the central symmetrization has facet rows, the witness direction
    v* (the facet normal of the central symmetrization at the maximal-chord
    midpoint, found with tau from the same symmetrization) is attached,
    together with the evaluator of T_n(t(K, v*, .)) whose directional
    leading coefficient attains the value.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    v = as_vector(v, dim(K))
    if not np.any(v):
        raise BodyError("direction must be nonzero")
    tau, wdir = _max_chord(K, v)
    with np.errstate(over="ignore"):
        value = 0.5 * np.float64(4.0 / float(tau)) ** _as_float(n)
    evaluator = None if wdir is None else _slab_evaluator(*_layer_coordinate(K, wdir), n)
    return LeadingGrowthReport(n, float(value), float(tau), wdir, evaluator)


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
