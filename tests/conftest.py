"""Shared fixtures and hypothesis strategies for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from minkgauge import HPolytope, SupportOracle, VPolytope, body, lp
from minkgauge.body import Sum, vertex_candidates
from minkgauge.shapes import make_weighted_l2_ball, random_polygon

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

MAX_SEED = 2**31 - 1


@st.composite
def polygons(draw, n_min=3, n_max=10, radius=1.0):
    """Random convex polygon (hull of uniform points in a disc)."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    cx = draw(st.floats(min_value=-2.0, max_value=2.0))
    cy = draw(st.floats(min_value=-2.0, max_value=2.0))
    return random_polygon(n, seed, radius=radius, center=(cx, cy))


@st.composite
def polygon_pairs(draw):
    return draw(polygons()), draw(polygons())


@st.composite
def polygons_with_interior(draw):
    """(polygon, strictly interior point) via a convex combination of vertices."""
    K = draw(polygons())
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    rng = np.random.default_rng(seed)
    V = K.vertices
    w = rng.dirichlet(np.full(len(V), 0.8))
    c = V.mean(axis=0)
    # pull toward the vertex centroid so the point stays off the boundary
    x = 0.9 * (w @ V) + 0.1 * c
    return K, x


@st.composite
def polygons_with_exterior(draw):
    """(polygon, exterior point) at a positive support margin."""
    K = draw(polygons())
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    margin = draw(st.floats(min_value=0.05, max_value=20.0))
    rng = np.random.default_rng(seed)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    h = max(float(u @ v) for v in K.vertices)
    return K, (h + margin) * u


POLYTOPE_KINDS = ("vpolytope", "hpolytope", "sum")


def seeded_polytope(kind, d, rng):
    """A full-dimensional polytope in R^d of one of POLYTOPE_KINDS.

    V-polytopes hull d + 1 to 12 Gaussian points; H-polytopes cut a box with
    a few random rows; sums add two small V-polytopes.
    """
    c = rng.uniform(-2.0, 2.0, d)
    if kind == "vpolytope":
        return VPolytope(c + rng.normal(size=(int(rng.integers(d + 1, 13)), d)))
    if kind == "hpolytope":
        A = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(int(rng.integers(0, 5)), d))])
        return HPolytope(A, rng.uniform(0.5, 2.0, len(A)) + A @ c)
    return Sum((VPolytope(c + rng.normal(size=(int(rng.integers(d + 1, 7)), d))),
                VPolytope(0.5 * rng.normal(size=(int(rng.integers(d + 1, 7)), d)))))


@st.composite
def polytopes(draw, d_min=2, d_max=4):
    """V-polytopes, H-polytopes and sums of V-polytopes in d_min..d_max."""
    kind = draw(st.sampled_from(POLYTOPE_KINDS))
    d = draw(st.integers(min_value=d_min, max_value=d_max))
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    return seeded_polytope(kind, d, np.random.default_rng(seed))


@st.composite
def polytopes_with_interior(draw, d_min=2, d_max=4):
    """(polytope, strictly interior point), pulled toward the candidates' mean."""
    K = draw(polytopes(d_min, d_max))
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    V = vertex_candidates(K)
    w = np.random.default_rng(seed).dirichlet(np.full(len(V), 0.8))
    return K, 0.9 * (w @ V) + 0.1 * V.mean(axis=0)


@st.composite
def polytopes_with_exterior(draw, d_min=2, d_max=4):
    """(polytope, exterior point) past the support plane of a random direction
    u, by a margin relative to the candidates' mean m: <u, x - m> = (1 +
    margin) (h(K, u) - <u, m>)."""
    K = draw(polytopes(d_min, d_max))
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    margin = draw(st.floats(min_value=0.05, max_value=20.0))
    V = vertex_candidates(K)
    u = np.random.default_rng(seed).normal(size=V.shape[1])
    u /= np.linalg.norm(u)
    m = V.mean(axis=0)
    return K, m + (1.0 + margin) * (float(np.max(V @ u)) - float(u @ m)) * u


@st.composite
def unit_dirs(draw, d=2):
    seed = draw(st.integers(min_value=0, max_value=MAX_SEED))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def counted_oracle(d, mode="i"):
    """Weighted l2 ball whose scalar and vectorised h count their calls.

    Returns (oracle, counts) with counts = {"h": rows seen by the scalar h,
    "h_many": calls of the vectorised one}.
    """
    K = make_weighted_l2_ball(d, mode)
    counts = {"h": 0, "h_many": 0}

    def h(v):
        counts["h"] += 1
        return K.h(v)

    def h_many(D):
        counts["h_many"] += 1
        return K.h_many(D)
    return SupportOracle(h, K.center, K.inner_radius, K.outer_radius,
                         label=K.label, h_many=h_many), counts


@pytest.fixture
def lp_solves(monkeypatch):
    """List that grows by one entry per call into the LP solver, the entry
    being the call's number of LP columns."""
    calls = []
    solver = lp.linprog

    def counted(c, *args, **kwargs):
        calls.append(len(c))
        return solver(c, *args, **kwargs)
    monkeypatch.setattr(lp, "linprog", counted)
    return calls


@pytest.fixture
def norm_calls(monkeypatch):
    """List that grows by one entry per ``np.linalg.norm`` call anywhere,
    the entry being the shape of its argument."""
    calls = []
    norm = np.linalg.norm

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return norm(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


@pytest.fixture
def qhull_calls(monkeypatch):
    """List that grows by one entry per Qhull hull that ``minkgauge.body``
    builds (extreme points, facet rows, planar hulls, and the polar hull
    that prepares an H-polytope's vertices), the entry being the number of
    points."""
    calls = []
    hull = body.ConvexHull

    def counted(points, *args, **kwargs):
        calls.append(len(points))
        return hull(points, *args, **kwargs)
    monkeypatch.setattr(body, "ConvexHull", counted)
    return calls


@pytest.fixture
def paper_triangle():
    """The triangle conv{(10,10),(16,10),(10,16)} used by the regression tests."""
    return VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))


@pytest.fixture
def unit_square():
    return VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
