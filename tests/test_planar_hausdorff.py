"""Planar Hausdorff distance from the bodies' cached extreme points.

``geometry.hausdorff`` answers planar pairs by one array route, the
set-distance definition.  These tests hold it against a scalar copy of the
routes it replaced (a hull of the vertex candidates per call, one
point-to-segment call per vertex and edge, one ``argmax`` per fan arc) and
against the support-difference formula over the merged edge-normal fan, in
its scalar form and in the array form (``_support_gap``) that the library
once ran beside it, and count the hulls and LPs of a repeated query.  The
difference-body and diameter routes that read the same cache are counted
here too.
"""

import numpy as np
import pytest

from minkgauge import (HPolytope, Product, SupportOracle, VPolytope, central_symm, diameter,
                       geometry, hausdorff, homothety, polygon_vertices)
from minkgauge.body import (BodyError, Sum, _halved_differences, _hull,
                            vertex_candidates)
from minkgauge.shapes import make_box, make_half_disc, make_regular_polygon, random_polygon


# ---------------------------------------------------------------------------
# scalar reference: the planar routes as they were before the array rewrite


def _ref_edge_system(P):
    edges = np.roll(P, -1, axis=0) - P
    A = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    return A, np.sum(A * P, axis=1)


def _ref_planar_shape(K):
    V = np.unique(vertex_candidates(K), axis=0)
    if V.shape[0] >= 3:
        rows, W = _hull(V)
        if rows is not None:
            return W
    if V.shape[0] > 2:
        t = V @ (V[-1] - V[0])
        V = V[[int(np.argmin(t)), int(np.argmax(t))]]
    return V


def _ref_point_to_segment(p, a, b):
    ab = b - a
    L2 = float(ab @ ab)
    if L2 == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / L2, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _ref_point_to_shape(p, W):
    n = W.shape[0]
    if n == 1:
        return float(np.linalg.norm(p - W[0]))
    if n == 2:
        return _ref_point_to_segment(p, W[0], W[1])
    A, b = _ref_edge_system(W)
    if np.all(A @ p <= b + 1e-12 * np.maximum(np.linalg.norm(A, axis=1), 1.0)):
        return 0.0
    return min(_ref_point_to_segment(p, W[i], W[(i + 1) % n]) for i in range(n))


def _ref_fan_angles(W):
    n = W.shape[0]
    if n == 1:
        return np.zeros(0)
    if n == 2:
        e = W[1] - W[0]
        a = np.arctan2(-e[0], e[1])
        return np.array([a, a + np.pi])
    A, _ = _ref_edge_system(W)
    return np.arctan2(A[:, 1], A[:, 0])


def _ref_hormander(WK, WM):
    angles = np.unique(np.mod(np.concatenate([_ref_fan_angles(WK), _ref_fan_angles(WM)]),
                              2.0 * np.pi))
    if angles.size == 0:
        angles = np.array([0.0])
    cands = list(angles)
    for k in range(angles.size):
        a0 = angles[k]
        a1 = angles[(k + 1) % angles.size] + (2.0 * np.pi if k + 1 == angles.size else 0.0)
        mid = 0.5 * (a0 + a1)
        u = np.array([np.cos(mid), np.sin(mid)])
        diff = WK[int(np.argmax(WK @ u))] - WM[int(np.argmax(WM @ u))]
        if np.linalg.norm(diff) > 0:
            phi = np.arctan2(diff[1], diff[0])
            for cand in (phi, phi + np.pi):
                c = np.mod(cand, 2.0 * np.pi)
                if a0 - 1e-12 <= c <= a1 + 1e-12 or a0 - 1e-12 <= c + 2.0 * np.pi <= a1 + 1e-12:
                    cands.append(c)
    best = 0.0
    for th in cands:
        u = np.array([np.cos(th), np.sin(th)])
        best = max(best, abs(float(np.max(WK @ u)) - float(np.max(WM @ u))))
    return best


def _normal_angles(W):
    """Angles of the outward edge normals of counterclockwise vertices W."""
    if len(W) < 2:
        return np.zeros(0)
    E = np.roll(W, -1, axis=0) - W
    return np.arctan2(-E[:, 0], E[:, 1])


def _support_gap(WK, WM):
    """sup over unit u of |h(K, u) - h(M, u)|, for vertex sets WK and WM.

    On each arc between consecutive angles of the merged edge-normal fan,
    the supports are attained at fixed vertices p and q, found at the arc's
    midpoint, so the difference is the sinusoid <p - q, u>.  Its extrema lie
    at the arc ends or at the angles of +-(p - q) inside the arc.
    """
    tau = 2.0 * np.pi
    a0 = np.unique(np.mod(np.concatenate([_normal_angles(WK), _normal_angles(WM)]), tau))
    if not a0.size:
        a0 = np.zeros(1)
    a1 = np.append(a0[1:], a0[0] + tau)
    mid = 0.5 * (a0 + a1)
    U = np.stack([np.cos(mid), np.sin(mid)], axis=1)
    diff = WK[np.argmax(U @ WK.T, axis=1)] - WM[np.argmax(U @ WM.T, axis=1)]
    phi = np.arctan2(diff[:, 1], diff[:, 0])
    c = np.mod(np.stack([phi, phi + np.pi], axis=1), tau)
    lo, hi = a0[:, None] - 1e-12, a1[:, None] + 1e-12
    keep = (((lo <= c) & (c <= hi)) | ((lo <= c + tau) & (c + tau <= hi))) \
        & np.any(diff != 0.0, axis=1)[:, None]
    th = np.concatenate([a0, c[keep]])
    H = np.stack([np.cos(th), np.sin(th)], axis=1) @ np.vstack([WK, WM]).T
    return float(np.max(np.abs(H[:, :len(WK)].max(axis=1) - H[:, len(WK):].max(axis=1))))


def reference(K, M):
    """(by definition, by support difference) from the scalar routes."""
    WK, WM = _ref_planar_shape(K), _ref_planar_shape(M)
    by_def = max(max(_ref_point_to_shape(p, WM) for p in WK),
                 max(_ref_point_to_shape(q, WK) for q in WM))
    return by_def, _ref_hormander(WK, WM)


# ---------------------------------------------------------------------------
# seeded pairs


def _hbox(lo, hi):
    d = len(lo)
    return HPolytope(np.vstack([np.eye(d), -np.eye(d)]), np.concatenate([hi, -np.asarray(lo)]))


def _hpolygon(seed):
    """An H-polytope from the edge rows of a random polygon."""
    W = _hull(np.unique(random_polygon(7, seed, radius=1.5, center=(0.3, -0.2)).vertices, axis=0))[1]
    A, b = _ref_edge_system(W)
    return HPolytope(A, b)


def _interval(a, b):
    return VPolytope(np.array([[a], [b]]))


def _pairs():
    rng = np.random.default_rng(2024)
    out = []
    for s in range(6):
        K = random_polygon(int(rng.integers(3, 12)), 100 + s, radius=1.5,
                           center=rng.uniform(-1, 1, 2))
        M = random_polygon(int(rng.integers(3, 12)), 200 + s, radius=1.0,
                           center=rng.uniform(-1, 1, 2))
        out.append((f"v-v-{s}", K, M))
        out.append((f"h-v-{s}", _hpolygon(300 + s), M))
        out.append((f"translate-{s}", K, homothety(K, 1.0, rng.normal(size=2))))
        out.append((f"nested-{s}", K, homothety(K, float(rng.uniform(1.2, 3.0)),
                                                 0.05 * rng.normal(size=2))))
    square = VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
    tri = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))
    out += [
        ("identical", tri, VPolytope(tri.vertices.copy())),
        ("same-body", tri, tri),
        ("hbox-vbox", _hbox([-1.0, -2.0], [3.0, 1.0]), make_box([-0.5, -1.0], [2.0, 2.5])),
        ("hbox-square", _hbox([-1.0, -1.0], [1.0, 1.0]), homothety(square, 1.5, [0.2, 0.1])),
        ("product-product", Product((_interval(0.0, 2.0), _interval(-1.0, 1.0))),
         Product((_interval(0.5, 3.0), _interval(-2.0, 0.5)))),
        ("product-polygon", Product((_interval(-1.0, 1.0), _interval(-1.0, 1.0))),
         random_polygon(9, 7, radius=1.3)),
        ("48-gon-triangle", make_regular_polygon(48, radius=2.0, center=(0.5, 0.0)),
         VPolytope(np.array([[0.0, 0.0], [1.5, 0.2], [0.3, 1.1]]))),
        ("half-disc-11-gon", make_half_disc(48), make_regular_polygon(11, phase=0.3)),
        ("sum-polygon", Sum((random_polygon(5, 3), random_polygon(6, 4, radius=0.5))),
         random_polygon(8, 5)),
        ("segment-polygon", VPolytope(np.array([[-1.0, -0.5], [0.0, 0.0], [2.0, 1.0]])),
         random_polygon(6, 9)),
        ("segment-segment", VPolytope(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])),
         VPolytope(np.array([[0.0, 1.0], [2.0, 0.0]]))),
        ("vertical-segment", VPolytope(np.array([[0.5, -1.0], [0.5, 2.0], [0.5, 0.3]])),
         square),
        ("point-polygon", VPolytope(np.array([[0.2, 0.7]])), square),
        ("point-point", VPolytope(np.array([[0.2, 0.7]])), VPolytope(np.array([[3.0, -1.0]]))),
        ("flat-product", Product((_interval(0.0, 2.0), _interval(1.0, 1.0))), square),
    ]
    return out


PAIRS = _pairs()


@pytest.mark.parametrize("name,K,M", PAIRS, ids=[p[0] for p in PAIRS])
def test_matches_the_scalar_reference(name, K, M):
    by_def, by_support = reference(K, M)
    scale = max(1.0, by_def)
    assert abs(by_def - by_support) <= 1e-9 * scale
    for A, B in ((K, M), (M, K)):
        res = hausdorff(A, B)
        assert res.exact
        assert abs(res.value - by_def) <= 1e-12 * scale, (res.value, by_def)
        WA, WB = geometry._planar_points(A), geometry._planar_points(B)
        gap = _support_gap(WA, WB)
        assert abs(gap - by_support) <= 1e-12 * scale
        assert abs(gap - res.value) <= 1e-9 * scale


def test_random_pairs_match_the_scalar_reference():
    rng = np.random.default_rng(77)
    for _ in range(100):
        P = rng.normal(size=(int(rng.integers(3, 16)), 2)) * rng.uniform(0.1, 3.0)
        Q = rng.normal(size=(int(rng.integers(3, 16)), 2)) * rng.uniform(0.1, 3.0) \
            + rng.normal(size=2)
        K, M = VPolytope(P), VPolytope(Q)
        by_def, _ = reference(K, M)
        assert abs(hausdorff(K, M).value - by_def) <= 1e-12 * max(1.0, by_def)


def test_known_values():
    square = VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
    segment = VPolytope(np.array([[-3.0, 0.0], [0.0, 0.0], [3.0, 0.0]]))
    # the square's corners are 1 from the segment, its ends 2 from the square
    assert hausdorff(square, segment).value == pytest.approx(2.0, abs=1e-12)
    assert hausdorff(segment, VPolytope(np.array([[0.0, 4.0]]))).value == \
        pytest.approx(5.0, abs=1e-12)


def test_second_call_builds_no_hull_and_solves_no_lp(qhull_calls, lp_solves):
    K = _hpolygon(11)
    M = random_polygon(9, 12)
    F = VPolytope(np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]]))
    first = hausdorff(K, M).value, hausdorff(M, F).value
    qhull_calls.clear()
    lp_solves.clear()
    assert (hausdorff(K, M).value, hausdorff(M, F).value) == first
    assert hausdorff(M, K).value == pytest.approx(first[0], abs=1e-12)
    assert not qhull_calls
    assert not lp_solves


def test_polygon_vertices_is_a_copy_of_the_cached_extreme_points(qhull_calls):
    K = random_polygon(9, 31)
    first = polygon_vertices(K)
    qhull_calls.clear()
    W = polygon_vertices(K)
    assert not qhull_calls
    assert np.array_equal(W, K.extreme) and np.array_equal(W, first)
    assert not np.shares_memory(W, K.extreme)
    W[0] = 99.0
    assert not np.array_equal(K.extreme, W)
    x, y = K.extreme[:, 0], K.extreme[:, 1]
    assert float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) > 0
    assert np.array_equal(polygon_vertices(_hbox([-1.0, -1.0], [2.0, 1.0])),
                          _hbox([-1.0, -1.0], [2.0, 1.0]).extreme)


def test_polygon_vertices_rejects_what_has_no_polygon():
    disc = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 1.0, 1.0)
    bad = [make_box([0.0] * 3, [1.0] * 3),
           disc,
           VPolytope(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])),
           VPolytope(np.array([[0.0, 0.0], [1.0, 1.0]])),
           VPolytope(np.array([[0.5, 0.5]]))]
    for K in bad:
        with pytest.raises(BodyError):
            polygon_vertices(K)


def test_oracle_pair_stays_sampled():
    disc = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 1.0, 1.0)
    res = hausdorff(disc, make_regular_polygon(6))
    # the hexagon inscribed in the unit circle is 1 - cos(pi/6) from it
    assert not res.exact
    assert 0.0 < res.value <= 1.0 - np.cos(np.pi / 6.0) + 1e-12


# ---------------------------------------------------------------------------
# the difference body and the diameter read the cached extreme points


def _sum_12_12():
    rng = np.random.default_rng(5)
    return Sum((VPolytope(rng.normal(size=(12, 3))), VPolytope(0.6 * rng.normal(size=(12, 3)))))


def test_central_symm_of_a_reused_sum_hulls_its_extreme_differences(qhull_calls):
    S = _sum_12_12()
    old = _hull(np.unique(_halved_differences(vertex_candidates(S)), axis=0))[1]
    # the hull takes the k^2 halved differences of the k extreme points,
    # where it took those of all n^2 candidate pairs; S keeps C, so a second
    # call builds none
    k, n = len(S.extreme), len(vertex_candidates(S))
    assert k < n
    for i in range(2):
        qhull_calls.clear()
        C = central_symm(S)
        assert qhull_calls == ([k * k] if i == 0 else [])
        got = C.vertices
        assert got.shape == old.shape
        assert np.allclose(got[np.lexsort(got.T)], old[np.lexsort(old.T)], rtol=0, atol=1e-12)


def test_diameter_of_a_reused_sum_builds_no_hull(qhull_calls):
    S = _sum_12_12()
    V = vertex_candidates(S)
    want = float(np.max(np.linalg.norm(V[:, None, :] - V[None, :, :], axis=2)))
    assert diameter(S) == pytest.approx(want, rel=1e-15)
    qhull_calls.clear()
    assert diameter(S) == pytest.approx(want, rel=1e-15)
    assert not qhull_calls
