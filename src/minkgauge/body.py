"""Convex body representations and the operations that depend on them.

A body is one of the variants below.  Polytopes carry an exact vertex or
halfspace description; composite variants (sums and products) recurse.
Vertex bodies (V-polytopes and polytopal sums) up to MAX_VERTEX_DIM get
their facet rows and exact extreme points from one hull of their vertex
candidates (``_hull``, the one place that calls Qhull), H-polytopes their
vertices from one ``_hull`` of their polar points, so every polytope there
has both descriptions.  Every body is frozen and
keeps what depends only on it (``_Prepared``), built once on first use and
read-only: its extreme points, its facet rows and facet profile, its
central symmetrization C (``symm_body``, a product's from its factors')
with C's rows and their profile, the optimum of its symmetry LP and the
critical set of ``gauge.alpha_inf`` with its dimension (``gauge`` poses
both LPs of alpha_inf and builds these two values).  The
extreme points (``extreme``) are the one finite point set that stands for
a body wherever one is needed: the two end points of every
one-dimensional body, the cartesian product of the factors' for a
product.  The rows answer the gauge, the widths and the maximal chords of
polytopes in dimensions 1 to MAX_VERTEX_DIM (C's rows those of products
of them too), so a reused body builds no hull after its first query.
``SupportOracle`` wraps a black-box support function for bodies with no
finite description, and every routine that has to fall back to sampling
on such a body says so in its result.  The image of a body under
x -> s x + z (``homothety``) is again a body of its kind.  A product
answers factor by factor, each factor on its block of coordinates
(``Product.blocks``).  Every LP over copies of a body is posed here, on
its linear encoding (``lp_encoding``): ``copies_lp`` for the gauge's
level-set LP, ``section_lp`` for the chords of bodies without facet rows;
the gauge reads only an encoding's point map P u + q.

Conventions used throughout the package:

* directions are never normalized implicitly; all formulas are written to be
  scale-invariant in the direction argument,
* halfspace systems mean ``A x <= b`` row-wise,
* vertex arrays are ``(n, d)`` with one point per row and may contain
  redundant (non-extreme) points unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import lp


class BodyError(ValueError):
    """Invalid or degenerate body description."""


def as_vector(x, d=None):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise BodyError(f"expected a flat vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise BodyError("vector contains non-finite entries")
    if d is not None and v.size != d:
        raise BodyError(f"vector has dimension {v.size}, expected {d}")
    return v


# the seeded direction families kept by sphere_dirs, one per (d, seed): a
# family of more cells (n * d) than this is drawn fresh and not kept, and at
# most this many are kept, the oldest dropped first (8 MB in all); the
# Chebyshev sample weights of ``cheb`` are kept under the same caps
DIRS_MAX_CELLS = 32768
DIRS_MAX_FAMILIES = 32
_DIRS = {}


def _keep(store, key, A):
    """A, made read-only, and kept in store under key when it has at most
    DIRS_MAX_CELLS cells; a store above DIRS_MAX_FAMILIES entries drops its
    oldest.  Threads that miss at once each draw the same bits, and no step
    here raises when another thread has changed the store."""
    A.setflags(write=False)
    if A.size <= DIRS_MAX_CELLS:
        store.pop(key, None)
        store[key] = A
        if len(store) > DIRS_MAX_FAMILIES:
            store.pop(next(iter(store)), None)
    return A


def sphere_dirs(d, n, seed=0):
    """n pseudo-random unit directions; dirs(d, n, seed) is a prefix of dirs(d, 2n, seed).

    The result is read-only and shared.  Each (d, seed) family is drawn
    once per process and kept, the longest drawn so far, and a request
    returns its first n rows, the same bits as a fresh draw of n.
    """
    if n < 0:
        raise ValueError(f"direction count must be nonnegative, got {n}")
    U = _DIRS.get((d, seed))
    if U is None or len(U) < n:
        U = np.random.default_rng(seed).normal(size=(n, d))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        _keep(_DIRS, (d, seed), U)
    return U[:n]


class _Prepared:
    """Derived data cached on a body, which is immutable once built.

    Every value here depends only on the body.  Each is computed on first
    read and kept, and every array in it is read-only, so a reused body
    answers from the cache and a caller cannot corrupt it.  A computation
    that raises is not cached and raises again on the next read.

    ``halfspaces`` and ``gauge.facet_profile`` return ``facet_rows`` and
    ``profile``; ``geometry.central_symm`` returns ``symm_body`` (for a
    product, the product of its factors' ``symm_body``), whose rows the
    gauge outside K, ``ratios.rho``, level membership above 1, widths and
    maximal chords read (``symm_rows``, ``symm_profile``); ``alpha_inf``
    and the emptiness rule of ``gauge.level_set`` read ``symmetry``, and
    ``alpha_inf`` its critical set too (``critical``), so a reused body
    solves no LP for it.  Those two keep their cache here and take their
    builders from ``gauge`` on first read, the module of alpha_inf.
    Where a width has no exact route (support oracles, bodies with ball
    terms, and bodies above MAX_VERTEX_DIM but products of lower polytopes),
    ``global_width`` (and so ``bernstein_bound``) reads the direction sweep
    ``swept_width``, so a reused body runs it once.  Every reader of a finite
    point set for K reads ``extreme``: C of a body other than a product, the
    LPs, the level body above 1, ``centroid``, ``diameter`` and the planar
    routes; the far radius, chord directions and Chebyshev samples through
    ``hull_points``.  A vertex body gets its rows and extreme points from one
    ``_hull`` of its candidates (``_candidate_hull``), preset by
    ``_hull_body``.
    """

    @cached_property
    def extreme(self):
        """Extreme points as a read-only (k, d) array, or None (``_extreme``)."""
        return _extreme(self)

    @cached_property
    def facet_rows(self):
        """Read-only facet rows (A, b), or None; ``halfspaces`` returns them."""
        return _facet_rows(self)

    @cached_property
    def profile(self):
        """Read-only (A, hplus, hminus) of ``gauge.facet_profile``, or None."""
        return _facet_profile(self)

    @cached_property
    def symm_body(self):
        """The central symmetrization C = (K - K)/2 as a body (``_symm_body``)."""
        return _symm_body(self)

    @cached_property
    def symm_rows(self):
        """C's facet rows (A, b), those of ``symm_body``, or None."""
        return self.symm_body.facet_rows

    @cached_property
    def symm_profile(self):
        """(A, hplus, hminus) of ``facet_profile`` on the unit facet rows of
        the central symmetrization (``symm_rows``) in place of K's, or None."""
        rows = self.symm_rows
        return None if rows is None else _row_profile(self, rows[0])

    @cached_property
    def symmetry(self):
        """(alpha_inf, minimizer) from the symmetry LP on ``profile``, or None
        (``gauge._symmetry_lp``; gauge imports this module, so the import is
        on first read, as for ``swept_width``).

        None when K has no profile or the LP ends without an optimum.
        """
        from .gauge import _symmetry_lp
        return _symmetry_lp(self)

    @cached_property
    def critical(self):
        """(critical body, its exact dimension) of ``gauge.alpha_inf``: the
        level body K^s at s = alpha_inf(K) (``gauge._critical``)."""
        from .gauge import _critical, _symmetry
        return _critical(self, _symmetry(self)[0])

    @cached_property
    def swept_width(self):
        """(least width, read-only unit direction) from the direction sweep
        that ``geometry.global_width`` reads where it has no exact route
        (geometry imports this module, so the import is on first read)."""
        from .geometry import _width_sweep
        return _width_sweep(self)

    @cached_property
    def _candidate_hull(self):
        """(facet rows, read-only extreme points) of ``_hull`` of a vertex
        body's candidates, or None without candidates."""
        V = vertex_candidates(self)
        if V is None:
            return None
        rows, E = _hull(V)
        return rows, _readonly(E)


def _readonly(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


# Polytopes above this dimension keep the LP routes: the vertex count of an
# H-polytope grows like m^(d/2) in its number m of facets, and the facet
# count of a V-polytope like n^(d/2) in its number n of vertices
MAX_VERTEX_DIM = 4
VERTEX_TOL = 1e-9      # A v <= b slack of a prepared vertex, relative


@dataclass(frozen=True, eq=False)
class HPolytope(_Prepared):
    """Bounded intersection of halfspaces A x <= b.

    A and b are private read-only copies, so the cached derived values stay
    valid: the Chebyshev centre (one LP), the vertex array and those of
    ``_Prepared``.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        b = np.atleast_1d(np.array(self.b, dtype=float))
        if A.shape[0] != b.size:
            raise BodyError("A and b row counts differ")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @cached_property
    def chebyshev(self):
        """(centre, radius) of the largest inscribed ball, from one LP.

        Raises lp.NumericalError for empty or unbounded systems (not cached).
        """
        c, r = lp.chebyshev_center(self.A, self.b)
        c.setflags(write=False)
        return c, r

    @cached_property
    def vertices(self):
        """Extreme points as a read-only (n, d) array, or None.

        By polar duality about the Chebyshev centre c, they are c + n / beta
        over the facet rows n.p <= beta of ``_hull`` of p_i = a_i / (b_i - a_i.c).
        None when the system is empty, unbounded (a beta <= VERTEX_TOL max|p_i|)
        or flat (an inradius at most 1e-9 of the vertices' largest coordinate
        extent), when Qhull fails and above MAX_VERTEX_DIM: LP routes then.
        """
        return _halfspace_vertices(self)


def _halfspace_vertices(K):
    A, b = K.A, K.b
    d = A.shape[1]
    if d > MAX_VERTEX_DIM or not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        return None
    if d == 1:
        a = A[:, 0]
        up, down = a > 0, a < 0
        if not (up.any() and down.any()) or np.any(b[a == 0] < 0):
            return None
        lo, hi = np.max(b[down] / a[down]), np.min(b[up] / a[up])
        if not lo < hi:
            return None
        V = np.array([[lo], [hi]])
    else:
        try:
            c, r = K.chebyshev
        except (lp.NumericalError, ValueError):     # empty, unbounded, a zero row
            return None
        if not r > 0.0:
            return None
        # bounded iff every beta > 0; the floor on beta also keeps _hull's row
        # rounding from merging nearly parallel facets
        P = A / (b - A @ c)[:, None]
        rows = _hull(P)[0]
        if rows is None or np.any(rows[1] <= VERTEX_TOL * np.max(np.linalg.norm(P, axis=1))):
            return None
        n, beta = rows
        V = c + n / beta[:, None]
        # flat by validate's rule, which reads these extents as h(K, +-e_i)
        if not r > 1e-9 * np.max(np.ptp(V, axis=0)):
            return None
        V = V[np.argsort(np.arctan2(n[:, 1], n[:, 0]))] if d == 2 else np.unique(V, axis=0)
    slack = VERTEX_TOL * max(1.0, float(np.max(np.abs(V)))) * np.linalg.norm(A, axis=1)
    if np.any(A @ V.T > (b + slack)[:, None]):
        return None
    V.setflags(write=False)
    return V


@dataclass(frozen=True, eq=False)
class VPolytope(_Prepared):
    """Convex hull of finitely many points (redundant points allowed).

    The vertex array is a private read-only copy, like HPolytope's data.
    """

    vertices: np.ndarray

    def __post_init__(self):
        V = np.atleast_2d(np.array(self.vertices, dtype=float))
        V.setflags(write=False)
        object.__setattr__(self, "vertices", V)


@dataclass(frozen=True, eq=False)
class Ball(_Prepared):
    """Euclidean ball; the centre is a private read-only copy, so the critical
    ball that ``alpha_inf`` caches, which shares it, stays valid."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(as_vector(self.center).copy()))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True, eq=False)
class SupportOracle(_Prepared):
    """Black-box body given by its support function h(v) = max over K of <v, x>.

    ``center`` together with ``inner_radius <= outer_radius`` must satisfy
    B(center, inner) <= K <= B(center, outer); the sandwich is what keeps the
    sampling fallbacks honest.  The centre is a private read-only copy, as
    a ball's is, so the values cached from it stay valid.

    ``h_many`` is optional: the same function as ``h``, vectorised, mapping an
    (n, d) array of directions to the n support values of its rows.  Batched
    evaluation (``support_many``) calls it once per batch; without it,
    ``h`` is looped over the rows.
    """

    h: Callable[[np.ndarray], float]
    center: np.ndarray
    inner_radius: float
    outer_radius: float
    label: str = "oracle"
    h_many: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "center", _readonly(as_vector(self.center).copy()))


@dataclass(frozen=True, eq=False)
class Product(_Prepared):
    """Cartesian product; the ambient dimension is the sum of factor dimensions."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise BodyError("product needs at least one factor")

    @cached_property
    def blocks(self):
        """The (factor, coordinate slice) pairs, in order: every factor-wise
        answer reads its factor's block of a point or direction here."""
        stops = list(accumulate((dim(f) for f in self.factors), initial=0))
        return tuple(zip(self.factors, map(slice, stops, stops[1:])))


@dataclass(frozen=True, eq=False)
class Sum(_Prepared):
    """Minkowski sum of bodies of equal dimension."""

    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if len(self.terms) < 1:
            raise BodyError("sum needs at least one term")


Body = Union[HPolytope, VPolytope, Ball, SupportOracle, Product, Sum]


def homothety(K, s, z=None):
    """The image s K + z of K under x -> s x + z, as a body of K's kind.

    ``s`` is a nonzero scalar (s = -1 is the point reflection) and ``z`` an
    optional offset.  Polytopes and balls map their data; a support oracle
    gets h'(v) = h(s v) + <z, v>; a sum maps every term and moves the first
    by z; a product maps each factor with its own block of z.
    """
    s = float(s)
    if s == 0.0 or not np.isfinite(s):
        raise BodyError("homothety factor must be finite and nonzero")
    d = dim(K)
    z = np.zeros(d) if z is None else as_vector(z, d)
    if isinstance(K, VPolytope):
        return VPolytope(s * K.vertices + z)
    if isinstance(K, HPolytope):
        A = np.sign(s) * K.A
        return HPolytope(A, abs(s) * K.b + A @ z)
    if isinstance(K, Ball):
        return Ball(s * K.center + z, abs(s) * K.radius)
    if isinstance(K, SupportOracle):
        h, h_many = K.h, K.h_many
        return SupportOracle(lambda v: h(s * np.asarray(v, dtype=float)) + float(z @ v),
                             s * K.center + z, abs(s) * K.inner_radius,
                             abs(s) * K.outer_radius, label=f"homothety of {K.label}",
                             h_many=None if h_many is None
                             else (lambda D: h_many(s * D) + D @ z))
    if isinstance(K, Sum):
        return Sum(tuple(homothety(T, s, z if i == 0 else None)
                         for i, T in enumerate(K.terms)))
    if isinstance(K, Product):
        return Product(tuple(homothety(f, s, z[sl]) for f, sl in K.blocks))
    raise BodyError(f"not a body: {K!r}")


def dim(K) -> int:
    """Ambient dimension of a body."""
    if isinstance(K, HPolytope):
        return K.A.shape[1]
    if isinstance(K, VPolytope):
        return K.vertices.shape[1]
    if isinstance(K, (Ball, SupportOracle)):
        return K.center.size
    if isinstance(K, Product):
        return sum(dim(f) for f in K.factors)
    if isinstance(K, Sum):
        return dim(K.terms[0])
    raise BodyError(f"not a body: {K!r}")


def support(K, v) -> float:
    """Support value h(K, v) = max over x in K of <v, x>: the one-row case
    of ``support_many``."""
    return float(_support_rows(K, as_vector(v, dim(K))[None, :])[0])


def support_many(K, D) -> np.ndarray:
    """Support values h(K, v) for every row v of an (n, d) direction array.

    D is validated once; polytopes, balls and oracles with ``h_many`` are
    evaluated as one array operation, sums and products recurse once per
    batch.  H-polytopes without prepared vertices maximise every row over
    their system in one stacked LP (``lp.solve_stacked``).
    """
    D = np.asarray(D, dtype=float)
    d = dim(K)
    if D.ndim != 2 or D.shape[1] != d:
        raise BodyError(f"direction array has shape {D.shape}, expected (n, {d})")
    if not np.all(np.isfinite(D)):
        raise BodyError("direction array contains non-finite entries")
    return _support_rows(K, D)


def _support_rows(K, D):
    """``support_many`` on checked directions.  An H-polytope reads its
    prepared vertices, else maximises every row in one stacked LP; that LP
    is the one place an unbounded or empty system raises BodyError."""
    if isinstance(K, VPolytope):
        return (D @ K.vertices.T).max(axis=1)
    if isinstance(K, HPolytope):
        if K.vertices is not None:
            return (D @ K.vertices.T).max(axis=1)
        status, X = lp.solve_stacked(D, A_ub=K.A, b_ub=K.b, sense="max")
        if status is lp.LPStatus.UNBOUNDED:
            raise BodyError("halfspace system is unbounded")
        if status is lp.LPStatus.INFEASIBLE:
            raise BodyError("halfspace system is empty")
        if X is None:
            raise lp.NumericalError(f"support LP ended with status {status.value}")
        return np.sum(D * X, axis=1)
    if isinstance(K, Ball):
        return D @ K.center + K.radius * np.linalg.norm(D, axis=1)
    if isinstance(K, SupportOracle):
        if K.h_many is None:
            return np.array([float(K.h(v)) for v in D])
        out = np.asarray(K.h_many(D), dtype=float)
        if out.shape != (D.shape[0],):
            raise BodyError(f"oracle h_many returned shape {out.shape}, "
                            f"expected ({D.shape[0]},)")
        return out
    if isinstance(K, Sum):
        return sum(_support_rows(T, D) for T in K.terms)
    if isinstance(K, Product):
        return sum(_support_rows(f, D[:, sl]) for f, sl in K.blocks)
    raise BodyError(f"not a body: {K!r}")


# ---------------------------------------------------------------------------
# exact representation access


def _affine_rank(P, tol=1e-9):
    Q = P - P.mean(axis=0)
    if Q.shape[0] == 1:
        return 0
    s = np.linalg.svd(Q, compute_uv=False)
    # relative to the set's own spread, so a scaled body keeps its rank
    return int(np.sum(s > tol * s[0])) if s.size else 0


def _hull(V):
    """(facet rows, extreme points) of conv V: the package's one Qhull entry.

    The rows (A, b), read-only, have unit outward normals and tight b, one
    per facet; None for flat sets and above MAX_VERTEX_DIM.  The extreme
    points, a new array, are the end points in dimension one, sorted rows
    above it but counterclockwise in the plane, and every distinct point of
    a set Qhull calls flat.  From d = 5 on a hull vertex is dropped where
    another one is tight at every facet tight at it and at more: it then
    lies inside a face of dimension one or more, while the facets tight at
    a vertex meet in that vertex alone.
    """
    d = V.shape[1]
    if d == 1:
        E = np.unique(V[[np.argmin(V), np.argmax(V)]], axis=0)
        rows = np.array([[1.0], [-1.0]]), np.array([E[-1, 0], -E[0, 0]])
        return (_readonly(*rows) if len(E) == 2 else None), E
    try:
        H = ConvexHull(V)
    except QhullError:
        return None, np.unique(V, axis=0)
    E = V[H.vertices]
    if d > 2:
        E = np.unique(E, axis=0)
    # Qhull's rows n.x + c <= 0 have unit outward normals and pass through
    # their facet's vertices, so b = -c is tight; the triangulated output
    # repeats a facet once per simplex, and rounding merges the copies
    Eq = H.equations
    _, keep = np.unique(np.round(Eq, 10), axis=0, return_index=True)
    Eq = Eq[np.sort(keep)]
    A, b = Eq[:, :-1], -Eq[:, -1]
    if d >= 5:
        # scipy runs Qhull with Qx from d = 5, whose merged facets keep the
        # points inside them as vertices; C[p, q] counts the facets tight at both
        T = (np.abs(E @ A.T - b) <= VERTEX_TOL * max(1.0, float(np.max(np.abs(E))))).astype(float)
        C = T @ T.T
        n = np.diag(C)
        E = E[~np.any((C == n[:, None]) & (n[None, :] > n[:, None]), axis=1)]
    return (_readonly(A, b) if d <= MAX_VERTEX_DIM else None), E


def _hull_body(P):
    """conv P as the V-polytope of its extreme points, from one ``_hull``
    whose rows and extreme points it keeps (``_candidate_hull``)."""
    rows, E = _hull(P)
    K = VPolytope(E)
    K.__dict__["_candidate_hull"] = rows, K.vertices
    return K


def vertex_candidates(K):
    """A finite set of points whose convex hull is K, or None.

    The set may contain redundant points.  Exists for V-polytopes, for
    H-polytopes with prepared vertices (bounded and full-dimensional, in
    dimension at most MAX_VERTEX_DIM), and for sums and products built
    from them.  A polytope's own array is returned, read-only.
    """
    if isinstance(K, (VPolytope, HPolytope)):
        return K.vertices
    if isinstance(K, Sum):
        parts = [vertex_candidates(T) for T in K.terms]
        if any(p is None for p in parts):
            return None
        acc = parts[0]
        for p in parts[1:]:
            acc = (acc[:, None, :] + p[None, :, :]).reshape(-1, acc.shape[1])
        return acc
    if isinstance(K, Product):
        parts = [vertex_candidates(f) for f in K.factors]
        return None if any(p is None for p in parts) else _cartesian(parts)
    return None


def hull_points(K):
    """A point set whose hull is K, for readers that any such set serves:
    ``extreme`` up to MAX_VERTEX_DIM, the vertex candidates above it, where
    a fresh body's extreme points cost a hull growing like n^(d/2).  None
    without vertex access."""
    return K.extreme if dim(K) <= MAX_VERTEX_DIM else vertex_candidates(K)


def _cartesian(parts):
    """The rows (p_1, ..., p_k) over every choice of one row p_i from each
    part, the first part varying slowest."""
    acc = parts[0]
    for p in parts[1:]:
        acc = np.hstack([np.repeat(acc, len(p), axis=0), np.tile(p, (len(acc), 1))])
    return acc


def halfspaces(K):
    """Halfspace rows (A, b) of K, or None when unavailable.

    H-polytopes return their own read-only rows and products stack their
    factors' rows.  Vertex bodies (V-polytopes and sums of polytopes) take
    the facet rows (unit normals, tight b) of ``_hull`` of their vertex
    candidates up to MAX_VERTEX_DIM; a flat candidate set, and anything
    above, has None.  The rows are cached on the body (``facet_rows``).
    """
    return K.facet_rows


def _facet_rows(K):
    if isinstance(K, HPolytope):
        return K.A, K.b
    if isinstance(K, Product):
        parts = [f.facet_rows for f in K.factors]
        if any(p is None for p in parts):
            return None
        As, bs = zip(*parts)
        return _readonly(_block_diag(As), np.concatenate(bs))
    if not isinstance(K, (VPolytope, Sum)) or dim(K) > MAX_VERTEX_DIM:
        return None
    hull = K._candidate_hull
    return None if hull is None else hull[0]


def _extreme(K):
    """K's extreme points, the one finite point set that stands for K.

    Every one-dimensional body has its two end points [[lo], [hi]], from two
    support values.  Above that, an H-polytope has its prepared vertices, a
    V-polytope or polytopal sum the extreme points of its candidate hull
    (every distinct point of a flat set), and a product the cartesian
    product of its factors' extreme points, ext(K1 x K2) = ext K1 x ext K2,
    with no hull of its own: counterclockwise for two intervals, else in
    sorted distinct rows.  None for the rest.
    """
    if dim(K) == 1:
        return _readonly(np.array([[-support(K, -np.ones(1))], [support(K, np.ones(1))]]))
    if isinstance(K, HPolytope):
        return K.vertices
    if isinstance(K, (VPolytope, Sum)):
        hull = K._candidate_hull
        return None if hull is None else hull[1]
    if not isinstance(K, Product):
        return None
    parts = [f.extreme for f in K.factors]
    if any(p is None for p in parts):
        return None
    if len(parts) == 1:
        return parts[0]
    E = _cartesian(parts)
    if E.shape[1] == 2 and all(p[0, 0] < p[1, 0] for p in parts):
        E = E[[0, 2, 3, 1]]       # (lo, lo), (hi, lo), (hi, hi), (lo, hi)
    else:
        # a factor with lo == hi repeats rows; a planar product is then flat
        E = np.unique(E, axis=0)
    return _readonly(E)


def _row_profile(K, A):
    """(A, hplus, hminus): the support values of K in the rows of A and in
    their negations, from one batched evaluation."""
    H = _support_rows(K, np.vstack([A, -A]))
    return _readonly(A, H[:len(A)], H[len(A):])


def _facet_profile(K):
    if dim(K) == 1:
        (lo,), (hi,) = K.extreme
        return _readonly(np.array([[1.0], [-1.0]]), np.array([hi, -lo]), np.array([-lo, hi]))
    rows = K.facet_rows
    return None if rows is None else _row_profile(K, rows[0])


def _halved_differences(V):
    """The points (v - w) / 2 over all ordered pairs of rows of V."""
    return (V[:, None, :] - V[None, :, :]).reshape(-1, V.shape[1]) / 2.0


def _symm_body(K):
    """C = (K - K)/2 for ``symm_body``: origin-symmetric, h(C, u) = w(K, u)/2.

    A ball's C is the origin ball, in every dimension, with no rows.  A
    product's C is the product of its factors' cached C, since
    C(K1 x K2) = C(K1) x C(K2), so its rows stack theirs and it builds no
    hull of its own.  Up to MAX_VERTEX_DIM, another body with extreme
    points has the ``_hull_body`` of their k^2 halved differences, C's rows
    and points from one hull.  Above it, where that hull grows like
    n^(d/2), and without extreme points, C is the sum of the two halves.
    """
    if isinstance(K, Ball):
        return Ball(np.zeros(dim(K)), K.radius)
    if isinstance(K, Product):
        return Product(tuple(f.symm_body for f in K.factors))
    V = K.extreme if dim(K) <= MAX_VERTEX_DIM else None
    if V is None:
        return Sum((homothety(K, 0.5), homothety(K, -0.5)))
    return _hull_body(_halved_differences(V))


# ---------------------------------------------------------------------------
# LP encodings: linear systems whose solutions parametrize the body


@dataclass
class Encoding:
    """Auxiliary variables u with point = P u + q and linear constraints on u."""

    n: int
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    bounds: list
    P: np.ndarray
    q: np.ndarray


def _empty(n):
    return np.zeros((0, n)), np.zeros(0)


def _block_diag(mats):
    """The block-diagonal matrix of the 2-d arrays ``mats``, in order."""
    out = np.zeros((sum(M.shape[0] for M in mats), sum(M.shape[1] for M in mats)))
    r = c = 0
    for M in mats:
        out[r:r + M.shape[0], c:c + M.shape[1]] = M
        r, c = r + M.shape[0], c + M.shape[1]
    return out


def lp_encoding(K):
    """Encode membership of a point in K as a linear system, or None.

    Available for every variant built from polytope leaves; balls and
    support oracles are not linearly encodable.
    """
    d = dim(K)
    if isinstance(K, HPolytope):
        Aeq, beq = _empty(d)
        return Encoding(d, K.A.copy(), K.b.copy(), Aeq, beq,
                        [(None, None)] * d, np.eye(d), np.zeros(d))
    if isinstance(K, VPolytope):
        V = K.vertices
        n = V.shape[0]
        Aub, bub = _empty(n)
        return Encoding(n, Aub, bub, np.ones((1, n)), np.ones(1),
                        [(0, None)] * n, V.T.copy(), np.zeros(d))
    if isinstance(K, (Sum, Product)):
        encs = [lp_encoding(c) for c in (K.terms if isinstance(K, Sum) else K.factors)]
        if any(e is None for e in encs):
            return None
        if isinstance(K, Sum):
            P = np.hstack([e.P for e in encs])
            q = np.sum([e.q for e in encs], axis=0)
        else:
            P = _block_diag([e.P for e in encs])
            q = np.concatenate([e.q for e in encs])
        return Encoding(sum(e.n for e in encs), _block_diag([e.A_ub for e in encs]),
                        np.concatenate([e.b_ub for e in encs]),
                        _block_diag([e.A_eq for e in encs]),
                        np.concatenate([e.b_eq for e in encs]),
                        [b for e in encs for b in e.bounds], P, q)
    return None


def encoding_feasible(encs, couplings, rhs):
    """Feasibility of several encoded points under linear coupling constraints.

    ``couplings`` is a list with one coefficient matrix per encoding; the
    system imposed is  sum_i  C_i (P_i u_i + q_i) = rhs  on top of each
    encoding's own constraints.
    """
    n = sum(e.n for e in encs)
    Aub = np.zeros((sum(e.A_ub.shape[0] for e in encs), n))
    Aeq_rows = sum(e.A_eq.shape[0] for e in encs)
    d_out = rhs.size
    Aeq = np.zeros((Aeq_rows + d_out, n))
    bub = np.concatenate([e.b_ub for e in encs])
    beq = np.concatenate([e.b_eq for e in encs] + [rhs.astype(float).copy()])
    bounds = []
    r_ub = r_eq = at = 0
    for e, C in zip(encs, couplings):
        Aub[r_ub:r_ub + e.A_ub.shape[0], at:at + e.n] = e.A_ub
        Aeq[r_eq:r_eq + e.A_eq.shape[0], at:at + e.n] = e.A_eq
        Aeq[Aeq_rows:, at:at + e.n] = C @ e.P
        beq[Aeq_rows:] -= C @ e.q
        r_ub += e.A_ub.shape[0]
        r_eq += e.A_eq.shape[0]
        bounds.extend(e.bounds)
        at += e.n
    return lp.feasible(A_ub=Aub, b_ub=bub, A_eq=Aeq, b_eq=beq, bounds=bounds)


def copies_lp(e, coefs, C, rhs, bounds):
    """Minimise a scale s over k copies of the encoded body U, as one LP.

    The columns are [s, u_1, ..., u_k], with u_j in (a_j s + b_j) U for the
    j-th pair (a_j, b_j) of ``coefs``: the perspective form of the copy,
    in which only the right-hand sides scale, since the encoding's bounds
    are homogeneous (free or nonnegative).  The coupling rows C [s, u] = rhs
    follow the copies' own equality rows; ``bounds`` is the range of s.  Its
    one caller is ``gauge._level_lp``.  Returns the LP result and the duals
    of the coupling rows, None without an optimum.
    """
    a, b = np.array(coefs, dtype=float).T
    I = np.eye(a.size)
    c = np.zeros(C.shape[1])
    c[0] = 1.0
    copies_eq = np.hstack([-np.kron(a, e.b_eq)[:, None], np.kron(I, e.A_eq)])
    res = lp.solve(c, A_ub=np.hstack([-np.kron(a, e.b_ub)[:, None], np.kron(I, e.A_ub)]),
                   b_ub=np.kron(b, e.b_ub), A_eq=np.vstack([copies_eq, C]),
                   b_eq=np.concatenate([np.kron(b, e.b_eq), rhs]),
                   bounds=[bounds] + e.bounds * a.size)
    return res, (res.eq_duals[a.size * e.b_eq.size:] if res.optimal else None)


def section_lp(e, x, D):
    """Sections (lo, hi) of the encoded body by the lines {x + t v}, one per
    row v of D, NaN where a line misses it: one stacked LP per line over the
    columns (u, t) with P u + q = x + t v, for the largest and least t."""
    Aub = np.hstack([e.A_ub, np.zeros((e.A_ub.shape[0], 1))])
    Aeq = np.hstack([e.A_eq, np.zeros((e.A_eq.shape[0], 1))])
    beq = np.concatenate([e.b_eq, x - e.q])
    C = np.zeros((2, e.n + 1))
    C[:, -1] = (1.0, -1.0)
    lo, hi = np.full(len(D), np.nan), np.full(len(D), np.nan)
    for k, v in enumerate(D):
        Aeq_v = np.vstack([Aeq, np.hstack([e.P, -v[:, None]])])
        status, X = lp.solve_stacked(C, Aub, e.b_ub, Aeq_v, beq,
                                     list(e.bounds) + [(None, None)], sense="max")
        if status is lp.LPStatus.OPTIMAL:
            lo[k], hi[k] = X[1, -1], X[0, -1]
    return lo, hi


# ---------------------------------------------------------------------------
# membership, interior points, validation

MEMBERSHIP_TOL = 1e-9


def rows_contain(A, b, x, tol=MEMBERSHIP_TOL):
    """Membership of x in {y : A y <= b}, each row relaxed by tol max(|a_i|, 1)."""
    return bool(np.all(A @ x <= b + tol * np.maximum(np.linalg.norm(A, axis=1), 1.0)))


def contains(K, x, tol=MEMBERSHIP_TOL):
    """Membership test x in K, exact for polytopal variants.

    For SupportOracle bodies the test is a sampled separation check and can
    err near the boundary; see the module docstring.
    """
    x = as_vector(x, dim(K))
    if isinstance(K, Ball):
        return float(np.linalg.norm(x - K.center)) <= K.radius + tol
    if isinstance(K, Product):
        return all(contains(f, x[sl], tol) for f, sl in K.blocks)
    hs = halfspaces(K)
    if hs is not None:
        return rows_contain(*hs, x, tol)
    e = lp_encoding(K)
    if e is not None:
        return lp.feasible(A_ub=e.A_ub, b_ub=e.b_ub, A_eq=np.vstack([e.A_eq, e.P]),
                           b_eq=np.concatenate([e.b_eq, x - e.q]), bounds=e.bounds)
    if isinstance(K, SupportOracle):
        return _oracle_contains(K, x, tol)
    raise BodyError(f"membership unsupported for {type(K).__name__}")


def _oracle_contains(K, x, tol, n_dirs=512, seed=7):
    # the prefix of the sampled beta's family (ratios._beta_sampled)
    dirs = sphere_dirs(x.size, n_dirs, seed)
    gap = x - K.center
    if np.linalg.norm(gap) > 1e-12:
        dirs = np.vstack([dirs, gap / np.linalg.norm(gap)])
    return not np.any(dirs @ x > support_many(K, dirs) + tol)


def interior_point(K):
    """Some point of K, interior whenever K is full-dimensional."""
    if isinstance(K, (Ball, SupportOracle)):
        return K.center.copy()
    if isinstance(K, Product):
        return np.concatenate([interior_point(f) for f in K.factors])
    if isinstance(K, Sum):
        return np.sum([interior_point(T) for T in K.terms], axis=0)
    if isinstance(K, HPolytope):
        return K.chebyshev[0].copy()
    return np.unique(K.vertices, axis=0).mean(axis=0)


def inscribed_ball(K):
    """A certified pair (c, r) with B(c, r) inside K, or None.

    Not the largest such ball for composite bodies; any valid pair is enough
    for the bracketing arguments that consume it.
    """
    if isinstance(K, Ball):
        return K.center.copy(), K.radius
    if isinstance(K, SupportOracle):
        return K.center.copy(), K.inner_radius
    if isinstance(K, Product):
        parts = [inscribed_ball(f) for f in K.factors]
        if any(p is None for p in parts):
            return None
        c = np.concatenate([p[0] for p in parts])
        return c, min(p[1] for p in parts)
    if isinstance(K, Sum):
        parts = [inscribed_ball(T) for T in K.terms]
        if any(p is None for p in parts):
            return None
        return np.sum([p[0] for p in parts], axis=0), max(p[1] for p in parts)
    if isinstance(K, HPolytope):
        c, r = K.chebyshev
        return (c.copy(), r) if r > 0 else None
    hs = halfspaces(K)
    if hs is not None:
        c, r = lp.chebyshev_center(*hs)
        return (c, r) if r > 0 else None
    return None


def validate(K):
    """Check that K describes a bounded, full-dimensional convex body.

    Raises BodyError otherwise.  Flatness is judged relative to the body's
    own scale: an H-polytope's inradius against 1e-9 of its largest
    coordinate extent, a V-polytope's affine rank against 1e-9 of its
    largest singular value.  An H-polytope poses no LP here: its extents
    are h(K, +-e_i) from ``_support_rows``, which rejects unbounded and
    empty systems, and its inradius is the cached ``chebyshev``.
    Operations that tolerate lower-dimensional bodies (level sets may
    degenerate to a face) skip this check on their intermediate results.
    """
    d = dim(K)
    if d < 1:
        raise BodyError("dimension must be at least 1")
    if isinstance(K, HPolytope):
        if not (np.all(np.isfinite(K.A)) and np.all(np.isfinite(K.b))):
            raise BodyError("halfspace data contains non-finite entries")
        if np.any(np.linalg.norm(K.A, axis=1) == 0):
            raise BodyError("halfspace system has a zero row")
        h = _support_rows(K, np.vstack([np.eye(d), -np.eye(d)]))
        _, r = K.chebyshev
        if r <= 1e-9 * np.max(h[:d] + h[d:]):
            raise BodyError("halfspace system has empty interior")
        return
    if isinstance(K, VPolytope):
        V = K.vertices
        if not np.all(np.isfinite(V)):
            raise BodyError("vertex data contains non-finite entries")
        if _affine_rank(np.unique(V, axis=0)) < d:
            raise BodyError("vertex set is not full-dimensional")
        return
    if isinstance(K, Ball):
        if not (np.isfinite(K.radius) and K.radius > 0):
            raise BodyError("ball radius must be positive")
        return
    if isinstance(K, SupportOracle):
        if not (0 < K.inner_radius <= K.outer_radius and np.isfinite(K.outer_radius)):
            raise BodyError("oracle needs 0 < inner_radius <= outer_radius")
        _probe_oracle(K)
        return
    if isinstance(K, Product):
        for f in K.factors:
            validate(f)
        return
    if isinstance(K, Sum):
        dims = {dim(T) for T in K.terms}
        if len(dims) != 1:
            raise BodyError("sum terms must share a dimension")
        for T in K.terms:
            validate(T)
        return
    raise BodyError(f"not a body: {K!r}")


def _probe_oracle(K, n=16, seed=11):
    # spot-check sublinearity and the declared ball sandwich
    rng = np.random.default_rng(seed)
    d = K.center.size
    probes, values = [], []
    for _ in range(n):
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        hu, hv, huv = K.h(u), K.h(v), K.h(u + v)
        probes.append(u)
        values.append(hu)
        scale = max(1.0, abs(hu) + abs(hv))
        if huv > hu + hv + 1e-7 * scale:
            raise BodyError("oracle support function is not sublinear")
        if abs(K.h(2.0 * u) - 2.0 * hu) > 1e-7 * scale:
            raise BodyError("oracle support function is not positively homogeneous")
        nu = np.linalg.norm(u)
        centered = hu - K.center @ u
        if centered < K.inner_radius * nu - 1e-7 * scale:
            raise BodyError("oracle violates its declared inner ball")
        if centered > K.outer_radius * nu + 1e-7 * scale:
            raise BodyError("oracle violates its declared outer ball")
    if K.h_many is not None:
        many = np.asarray(K.h_many(np.array(probes)), dtype=float)
        values = np.array(values)
        if many.shape != values.shape or np.any(
                np.abs(many - values) > 1e-9 * np.maximum(1.0, np.abs(values))):
            raise BodyError("oracle h_many disagrees with h")
