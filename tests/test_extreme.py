"""One vertex set per body: the cached ``extreme`` points.

Every reader that needs "the finite point set that stands for K" takes
``K.extreme``: one-dimensional bodies have their two end points, products the
cartesian product of their factors' extreme points with no hull of their own,
and the level body above 1 the vertex pairs of the extreme points only.
Readers that any generating set serves take the vertex candidates in their
place above MAX_VERTEX_DIM (``hull_points``), where the hull is costly.
"""

import itertools

import numpy as np
import pytest

from minkgauge import (Ball, HPolytope, SupportOracle, VPolytope, central_symm, centroid,
                       diameter, far_radius, hausdorff, level_set, make_box)
from minkgauge.body import (MAX_VERTEX_DIM, Product, Sum, _hull, hull_points,
                            vertex_candidates)
from minkgauge.cheb import _body_samples
from minkgauge.ratios import ratio_functionals


def _as_set(P):
    return sorted(map(tuple, np.asarray(P).tolist()))


# ---------------------------------------------------------------------------
# one-dimensional bodies: the two end points, for every kind


def _interval_bodies():
    """Every body kind as an interval, with its end points."""
    return {
        "vpolytope": (VPolytope([[-1.0], [0.5], [3.0]]), (-1.0, 3.0)),
        "hpolytope": (HPolytope([[1.0], [-1.0], [2.0]], [2.0, 1.0, 5.0]), (-1.0, 2.0)),
        "ball": (Ball([0.5], 1.5), (-1.0, 2.0)),
        "oracle": (SupportOracle(lambda v: max(-0.5 * v[0], 2.5 * v[0]), [1.0], 1.5, 1.5,
                                 label="segment"), (-0.5, 2.5)),
    }


@pytest.mark.parametrize("kind", ["vpolytope", "hpolytope", "ball", "oracle"])
def test_interval_extreme_is_its_two_end_points(kind):
    K, (lo, hi) = _interval_bodies()[kind]
    E = K.extreme
    assert E.tolist() == [[lo], [hi]]
    assert K.extreme is E
    with pytest.raises(ValueError):
        E[0, 0] = 0.0


# the answers of the point-set helpers the readers used before, per kind:
# diameter, far radius, the end points of C = (K - K)/2 (or its radius for a
# ball), centroid, and the end points of K^2 (or its radius for a ball)
INTERVAL_ANSWERS = {
    "vpolytope": (4.0, 3.0, [[-2.0], [2.0]], 1.0, [[-3.0], [5.0]]),
    "hpolytope": (3.0, 2.0, [[-1.5], [1.5]], 0.5, [[-2.5], [3.5]]),
    "ball": (3.0, 2.0, 1.5, 0.5, 3.0),
    "oracle": (3.0, 2.5, [[-1.5], [1.5]], 1.0, [[-2.0], [4.0]]),
}
INTERVAL_HAUSDORFF = {
    ("vpolytope", "hpolytope"): 1.0, ("vpolytope", "ball"): 1.0,
    ("vpolytope", "oracle"): 0.5, ("hpolytope", "ball"): 0.0,
    ("hpolytope", "oracle"): 0.5, ("ball", "oracle"): 0.5,
}


@pytest.mark.parametrize("kind", ["vpolytope", "hpolytope", "ball", "oracle"])
def test_interval_readers_keep_their_answers(kind):
    K, _ = _interval_bodies()[kind]
    diam, far, symm, mid, level = INTERVAL_ANSWERS[kind]
    assert diameter(K) == diam
    assert far_radius(K) == far
    C = central_symm(K)
    assert (C.radius if isinstance(C, Ball) else C.vertices.tolist()) == symm
    assert centroid(K).tolist() == [mid]
    L = level_set(K, 2.0).body
    assert (L.radius if isinstance(L, Ball) else L.vertices.tolist()) == level


def test_interval_hausdorff_keeps_its_answers():
    bodies = {k: b for k, (b, _) in _interval_bodies().items()}
    for (a, b), want in INTERVAL_HAUSDORFF.items():
        for K, M in ((bodies[a], bodies[b]), (bodies[b], bodies[a])):
            assert tuple(hausdorff(K, M)) == (want, True)
    for K in bodies.values():
        assert tuple(hausdorff(K, K)) == (0.0, True)


# ---------------------------------------------------------------------------
# products: the cartesian product of the factors' extreme points


def _polygon(rng, n):
    return VPolytope(rng.normal(size=(n, 2)))


def test_product_of_two_polygons_builds_only_the_planar_hulls(qhull_calls):
    rng = np.random.default_rng(8)
    K1, K2 = _polygon(rng, 9), _polygon(rng, 7)
    P = Product((K1, K2))
    E = P.extreme
    # one hull per factor, of its own candidates; none of the 63 points in R^4
    assert qhull_calls == [9, 7]
    assert len(E) == len(K1.extreme) * len(K2.extreme)
    assert np.array_equal(E, np.unique(E, axis=0))          # sorted rows above the plane
    assert _as_set(E) == _as_set(_hull(np.unique(vertex_candidates(P), axis=0))[1])


def test_product_of_eight_intervals_builds_no_hull(qhull_calls):
    rng = np.random.default_rng(9)
    lo = rng.uniform(-2.0, 0.0, 8)
    hi = lo + rng.uniform(0.5, 2.0, 8)
    P = Product(tuple(VPolytope([[b], [a]]) if i % 2 else make_box([a], [b])
                      for i, (a, b) in enumerate(zip(lo, hi))))
    E = P.extreme
    assert not qhull_calls and E.shape == (256, 8)
    assert _as_set(E) == _as_set(itertools.product(*zip(lo, hi)))
    assert _as_set(E) == _as_set(_hull(np.unique(vertex_candidates(P), axis=0))[1])


def test_planar_product_of_intervals_is_counterclockwise(qhull_calls):
    P = Product((VPolytope([[-1.0], [0.2], [2.0]]), make_box([-0.5], [3.0])))
    E = P.extreme
    assert not qhull_calls
    assert E.tolist() == [[-1.0, -0.5], [2.0, -0.5], [2.0, 3.0], [-1.0, 3.0]]
    R = np.roll(E, -1, axis=0) - E
    assert np.all(R[:, 0] * np.roll(R, -1, axis=0)[:, 1]
                  - R[:, 1] * np.roll(R, -1, axis=0)[:, 0] > 0.0)
    box = make_box([-1.0, -0.5], [2.0, 3.0])
    assert tuple(hausdorff(P, box)) == (0.0, True)
    assert tuple(hausdorff(box, P)) == (0.0, True)
    assert centroid(P).tolist() == [0.5, 1.25]


def test_product_with_a_point_factor_has_distinct_rows(qhull_calls):
    point = level_set(Ball([1.0], 1.5), 0.0).body          # the centre, one point
    seg = Product((VPolytope([[0.0], [1.0]]), VPolytope([[1.0]])))
    assert seg.extreme.tolist() == [[0.0, 1.0], [1.0, 1.0]]
    assert Product((point, VPolytope([[2.0]]))).extreme.tolist() == [[1.0, 2.0]]
    flat = Product((make_box([0.0], [1.0]), point, VPolytope([[0.0], [2.0]])))
    assert flat.extreme.tolist() == [[0.0, 1.0, 0.0], [0.0, 1.0, 2.0],
                                     [1.0, 1.0, 0.0], [1.0, 1.0, 2.0]]
    assert qhull_calls == []
    target = VPolytope([[0.0, 1.0], [1.0, 1.0]])
    assert tuple(hausdorff(seg, target)) == (0.0, True)
    assert tuple(hausdorff(target, seg)) == (0.0, True)


# ---------------------------------------------------------------------------
# readers that any generating set serves skip the hull above MAX_VERTEX_DIM


def test_generating_set_readers_build_no_hull_above_max_vertex_dim(qhull_calls):
    rng = np.random.default_rng(5)
    K = Sum((VPolytope(rng.normal(size=(8, MAX_VERTEX_DIM + 1))),
             VPolytope(rng.normal(size=(8, MAX_VERTEX_DIM + 1)))))
    V = vertex_candidates(K)
    assert hull_points(K) is not None and len(hull_points(K)) == len(V) == 64
    assert far_radius(K) == float(np.max(np.linalg.norm(V, axis=1)))
    assert np.array_equal(_body_samples(K, 10, 0)[:64], V)
    ratio_functionals(K, np.full(MAX_VERTEX_DIM + 1, 3.0), n_lines=8)
    assert qhull_calls == []
    # below it they read the cached extreme points
    P = _polygon(rng, 9)
    assert hull_points(P) is P.extreme


# ---------------------------------------------------------------------------
# the level body above 1 and the centroid read the extreme points


def _sum_12_12():
    rng = np.random.default_rng(3)
    return Sum((VPolytope(rng.normal(size=(12, 3))), VPolytope(0.6 * rng.normal(size=(12, 3)))))


def test_level_body_above_one_prunes_the_extreme_pairs(qhull_calls):
    S = _sum_12_12()
    V = vertex_candidates(S)
    k = len(S.extreme)
    assert len(V) == 144 and k <= 35
    pairs = (3.0 * V[:, None, :] - V[None, :, :]) / 2.0
    want = _hull(np.unique(pairs.reshape(-1, 3), axis=0))[1]
    qhull_calls.clear()
    B = level_set(S, 2.0).body
    # k^2 pair points of the extreme points, not the 20,736 of all candidates
    assert qhull_calls == [k * k]
    assert _as_set(B.vertices) == _as_set(want)


def test_centroid_of_a_simplex_with_a_redundant_point():
    T = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    K = VPolytope(np.vstack([T, T.mean(axis=0)]))
    assert np.allclose(centroid(K), T.mean(axis=0), rtol=0.0, atol=1e-15)
