"""Body representations: support functions, membership, transforms, encodings.

The support function is the single source of truth here; every body kind's
homothety is tested by comparing its support values against the hand-expanded
formula.
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from minkgauge import (Ball, BodyError, HPolytope, Product, Sum, SupportOracle,
                       VPolytope, alpha, beta, contains, dim, global_width, homothety,
                       inscribed_ball, interior_point, lp, make_box,
                       make_weighted_l2_ball, max_chord, parse_body, support,
                       support_many, vertex_candidates, width_dir)
from minkgauge.body import (Encoding, as_vector, encoding_feasible, halfspaces, lp_encoding,
                            validate)
from minkgauge.geometry import central_symm, sphere_dirs

from conftest import polygons, unit_dirs


SQ = VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
SQ_H = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                 np.ones(4))


def test_support_vpolytope_is_vertex_max():
    v = np.array([2.0, 1.0])
    assert support(SQ, v) == pytest.approx(3.0, abs=1e-12)


def test_support_hpolytope_matches_vertex_form():
    for u in sphere_dirs(2, 64, 1):
        npt.assert_allclose(support(SQ_H, u), support(SQ, u), atol=1e-9)


def test_support_ball():
    B = Ball(np.array([1.0, 2.0]), 3.0)
    v = np.array([3.0, 4.0])
    assert support(B, v) == pytest.approx(1 * 3 + 2 * 4 + 3 * 5, abs=1e-12)


@given(polygons(), unit_dirs(), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=60)
def test_support_positive_homogeneity(K, u, t):
    npt.assert_allclose(support(K, t * u), t * support(K, u), rtol=1e-11, atol=1e-11)


@given(polygons(), unit_dirs(), unit_dirs())
@settings(max_examples=60)
def test_support_sublinearity(K, u, v):
    assert support(K, u + v) <= support(K, u) + support(K, v) + 1e-10


def test_contains_vertices_and_centroid():
    for p in SQ.vertices:
        assert contains(SQ, p)
    assert contains(SQ, np.zeros(2))
    assert not contains(SQ, np.array([1.5, 0.0]))


def test_contains_tolerance_is_signed():
    edge = np.array([1.0, 0.0])
    assert contains(SQ_H, edge, tol=1e-9)
    assert not contains(SQ_H, edge, tol=-1e-6)


@given(polygons())
@settings(max_examples=40)
def test_interior_point_has_positive_margin(K):
    x = interior_point(K)
    for u in sphere_dirs(2, 32, 2):
        assert support(K, u) - float(u @ x) > 1e-9


# homothety: support identity and affine invariance of alpha


HOMOTHETY_KINDS = ("vpolytope", "hpolytope", "ball", "product", "sum", "oracle")


def _homothety_body(kind, d, rng):
    if kind == "vpolytope":
        return VPolytope(rng.normal(size=(d + 3, d)))
    if kind == "hpolytope":
        A = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(2, d))])
        return HPolytope(A, rng.uniform(0.5, 1.5, size=2 * d + 2))
    if kind == "ball":
        return Ball(rng.normal(size=d), rng.uniform(0.5, 2.0))
    if kind == "product":
        seg = VPolytope(np.sort(rng.normal(size=(2, 1)), axis=0))
        if d == 1:
            return Product((seg,))
        return Product((seg, make_box(-rng.uniform(0.5, 1.5, size=d - 1),
                                      rng.uniform(0.5, 1.5, size=d - 1))))
    if kind == "sum":
        return Sum((VPolytope(rng.normal(size=(d + 2, d))),
                    VPolytope(rng.normal(size=(d + 2, d)))))
    return make_weighted_l2_ball(d, "i")


@pytest.mark.parametrize("s", [-2.5, -1.0, 0.5, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", HOMOTHETY_KINDS)
def test_homothety_support(kind, d, s):
    rng = np.random.default_rng(100 * d + HOMOTHETY_KINDS.index(kind))
    K = _homothety_body(kind, d, rng)
    z = rng.normal(size=d)
    H = homothety(K, s, z)
    assert type(H) is type(K)
    validate(H)
    for u in sphere_dirs(d, 16, 3):
        npt.assert_allclose(support(H, u), support(K, s * u) + float(u @ z),
                            rtol=1e-9, atol=1e-9)
    if kind == "oracle":
        return
    c = interior_point(K)
    for x in (c + 0.1 * rng.normal(size=d), c + 3.0 * rng.normal(size=d)):
        r, rh = alpha(K, x), alpha(H, s * x + z)
        assert abs(rh.alpha - r.alpha) <= r.tol + rh.tol


def _scalar_oracle(K):
    """The same oracle without its vectorised support function."""
    return SupportOracle(K.h, K.center, K.inner_radius, K.outer_radius, label=K.label)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", HOMOTHETY_KINDS + ("oracle_scalar",))
def test_support_many_matches_rowwise_support(kind, d):
    rng = np.random.default_rng(10 * d + len(kind))
    K = _homothety_body(kind.removesuffix("_scalar"), d, rng)
    if kind == "oracle_scalar":
        K = _scalar_oracle(K)
    assert isinstance(K, SupportOracle) == kind.startswith("oracle")
    if kind.startswith("oracle"):
        assert (K.h_many is None) == (kind == "oracle_scalar")
    D = np.vstack([sphere_dirs(d, 24, 5), 3.0 * rng.normal(size=(8, d))])
    for body in (K, homothety(K, -1.5, rng.normal(size=d))):
        got = support_many(body, D)
        want = np.array([support(body, v) for v in D])
        assert got.shape == (len(D),)
        npt.assert_allclose(got, want, rtol=1e-12,
                            atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))
        # a scalar call is the one-row case of the batch, bit for bit
        assert [support(body, v) for v in D] == [support_many(body, v[None, :])[0] for v in D]


def test_support_many_rejects_bad_directions():
    for K in (SQ, SQ_H, make_weighted_l2_ball(2, "i")):
        with pytest.raises(BodyError):
            support_many(K, np.ones((3, 3)))
        with pytest.raises(BodyError):
            support_many(K, np.ones(2))
        with pytest.raises(BodyError):
            support_many(K, np.array([[1.0, 0.0], [np.nan, 1.0]]))


def test_validate_rejects_disagreeing_h_many():
    K = make_weighted_l2_ball(3, "i")
    bad = SupportOracle(K.h, K.center, K.inner_radius, K.outer_radius,
                        h_many=lambda D: 1.01 * K.h_many(D))
    with pytest.raises(BodyError):
        validate(bad)


def test_homothety_rejects_bad_maps():
    for s in (0.0, np.inf, np.nan):
        with pytest.raises(BodyError):
            homothety(SQ, s)
    with pytest.raises(BodyError):
        homothety(SQ, 1.0, np.zeros(3))


def test_sum_support_is_additive():
    B = Ball(np.zeros(2), 0.5)
    K = Sum((SQ, B))
    for u in sphere_dirs(2, 16, 6):
        npt.assert_allclose(support(K, u), support(SQ, u) + support(B, u), atol=1e-12)


def test_product_support_splits_blocks():
    I = VPolytope(np.array([[-1.0], [1.0]]))
    K = Product((SQ, I))
    u = np.array([1.0, 2.0, -3.0])
    npt.assert_allclose(support(K, u),
                        support(SQ, u[:2]) + support(I, u[2:]), atol=1e-12)


def test_simplify_collapses_wrappers():
    z = np.array([1.0, 0.0])
    K = homothety(homothety(SQ, 2.0), -1.0, z)
    assert isinstance(K, VPolytope)
    for u in sphere_dirs(2, 32, 7):
        npt.assert_allclose(support(K, u), 2.0 * support(SQ, -u) + float(u @ z),
                            atol=1e-10)
    B = parse_body({"kind": "sum", "terms": [
        {"kind": "ball", "center": [1, 0], "radius": 0.5},
        {"kind": "ball", "center": [0, 2], "radius": 1.5}]})
    assert isinstance(B, Ball)
    npt.assert_allclose(B.center, [1.0, 2.0], atol=0.0)
    assert B.radius == 2.0


def test_vertex_candidates_roundtrip():
    V = vertex_candidates(homothety(SQ, 2.0))
    assert V is not None
    assert np.max(np.abs(V)) == pytest.approx(2.0, abs=1e-12)
    corners = sorted(map(tuple, vertex_candidates(SQ_H)))
    npt.assert_allclose(corners, sorted(map(tuple, SQ.vertices)), atol=1e-12)


# prepared vertices of H-polytopes


def _lp_support(K, v):
    # the LP route that H-polytopes without prepared vertices keep
    return lp.solve(v, A_ub=K.A, b_ub=K.b, sense="max").value


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hbox_support_solves_no_lp_after_preparation(d, lp_solves):
    rng = np.random.default_rng(d)
    lo = rng.uniform(-2.0, 0.0, d)
    B = make_box(lo, lo + rng.uniform(0.5, 3.0, d))
    validate(B)
    assert B.vertices.shape == (2 ** d, d)
    D = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(64, d))])
    lp_solves.clear()
    one = np.array([support(B, v) for v in D])
    many = support_many(B, D)
    assert not lp_solves
    want = np.array([_lp_support(B, v) for v in D])
    npt.assert_allclose(one, want, rtol=1e-12, atol=1e-12)
    npt.assert_allclose(many, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hpolytope_vertices_match_the_lp_route(d):
    rng = np.random.default_rng(20 + d)
    for _ in range(5):
        K = _homothety_body("hpolytope", d, rng)
        V = K.vertices
        norms = np.linalg.norm(K.A, axis=1)
        assert np.all(K.A @ V.T <= (K.b + 1e-12 * norms)[:, None])
        for v in np.vstack([K.A, rng.normal(size=(16, d))]):
            npt.assert_allclose(support(K, v), _lp_support(K, v), rtol=1e-9, atol=1e-12)


def _brute_vertices(A, b):
    """Every feasible solution of d rows of A x = b: the vertices of the
    system, a degenerate vertex once per basis that reaches it."""
    d = A.shape[1]
    S = np.array(list(itertools.combinations(range(len(A)), d)))
    M, r = A[S], b[S]
    ok = np.abs(np.linalg.det(M)) > 1e-12 * np.prod(np.linalg.norm(M, axis=2), axis=1)
    X = np.linalg.solve(M[ok], r[ok][..., None])[..., 0]
    scale = max(1.0, float(np.max(np.abs(X))))
    return X[np.all(X @ A.T <= b + 1e-9 * scale * np.linalg.norm(A, axis=1), axis=1)]


def _assert_same_vertex_set(V, W):
    # each prepared vertex is distinct and is one of the brute-force points,
    # and every brute-force point is a prepared vertex, within 1e-9 relative
    tol = 1e-9 * max(1.0, float(np.max(np.abs(W))))
    gap = np.max(np.abs(V[:, None, :] - W[None, :, :]), axis=2)
    assert np.all(gap.min(axis=1) <= tol) and np.all(gap.min(axis=0) <= tol)
    own = np.max(np.abs(V[:, None, :] - V[None, :, :]), axis=2) + np.eye(len(V)) * 2 * tol
    assert np.all(own > tol)


def _seeded_systems():
    """Seeded Gaussian systems in d = 2..4 with repeated and redundant rows,
    the R^3 and R^4 cross-polytopes, whose vertices lie on 4 and 8 facets,
    and boxes scaled from 1e-8 to 1e9."""
    for d in (2, 3, 4):
        rng = np.random.default_rng(40 + d)
        for k in range(12):
            A = rng.normal(size=(int(rng.integers(3, 16)), d))
            b = rng.uniform(0.5, 2.0, len(A)) + A @ rng.uniform(-2.0, 2.0, d)
            if k % 2:
                A, b = np.vstack([A, A[:2], 2.0 * A[2:4]]), np.r_[b, b[:2], 2.0 * b[2:4] + 1.0]
            yield f"gauss{d}-{k}", A, b
        for e in range(-8, 10, 3):
            yield f"box{d}-1e{e}", np.vstack([np.eye(d), -np.eye(d)]), np.full(2 * d, 10.0 ** e)
    for d in (3, 4):
        S = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
        yield f"cross{d}", S, np.ones(len(S))


@pytest.mark.parametrize("name, A, b", list(_seeded_systems()), ids=lambda v: v if isinstance(v, str) else "")
def test_hpolytope_vertices_are_the_brute_force_vertices(name, A, b):
    K = HPolytope(A, b)
    try:
        validate(K)
    except BodyError as e:
        assert "unbounded" in str(e) and K.vertices is None
        return
    _assert_same_vertex_set(K.vertices, _brute_vertices(A, b))


def _unbounded_systems(n=3000, seed=7):
    """Systems in d = 2..4 with a recession direction u: every row has
    a.u <= 0, and the first one a.u = 0."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        d = 2 + k % 3
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        A = rng.normal(size=(int(rng.integers(d + 1, 13)), d))
        A -= np.maximum(A @ u, 0.0)[:, None] * u
        A[0] -= (A[0] @ u) * u
        yield A, rng.uniform(0.5, 2.0, len(A))


def test_unbounded_hpolytopes_get_no_vertices():
    # their vertices would lie 1e13 inradii or more from the centre, where
    # the polar hull's facets pass within VERTEX_TOL of the origin
    assert sum(HPolytope(A, b).vertices is not None for A, b in _unbounded_systems()) == 0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_long_boxes_keep_vertices_up_to_aspect_1e8(d):
    # [0, s] x [0, 1]^(d-1): 2^d vertices up to s = 1e8; from 1e10 on the
    # polar facet at the far end fails the VERTEX_TOL floor, and support and
    # alpha take the LP routes
    for s in (1.0, 1e4, 1e8):
        B = make_box(np.zeros(d), np.r_[s, np.ones(d - 1)])
        assert B.vertices.shape == (2 ** d, d)
    rng = np.random.default_rng(d)
    for s in (1e10, 1e12):
        B = make_box(np.zeros(d), np.r_[s, np.ones(d - 1)])
        assert B.vertices is None
        half = np.r_[s, np.ones(d - 1)] / 2.0
        D = rng.normal(size=(8, d))
        npt.assert_allclose(support_many(B, D), np.maximum(D, 0.0) @ (2.0 * half),
                            rtol=1e-9, atol=1e-9)
        for x in half + rng.uniform(-2.0, 2.0, size=(4, d)) * half:
            npt.assert_allclose(alpha(B, x).alpha, np.max(np.abs(x - half) / half), rtol=1e-7)


def test_hpolytope_without_vertices_keeps_lp_routes():
    unbounded = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]), np.ones(3))
    empty = HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    flat = HPolytope(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 0.0, 1.0, 0.0]))
    high = make_box(-np.ones(5), np.ones(5))
    for K in (unbounded, empty, flat, high):
        assert K.vertices is None
        assert vertex_candidates(K) is None
    with pytest.raises(BodyError, match="unbounded"):
        support(unbounded, np.array([0.0, 1.0]))
    with pytest.raises(BodyError, match="empty"):
        support(empty, np.ones(1))
    npt.assert_allclose(support(flat, np.ones(2)), 1.0, atol=1e-12)
    npt.assert_allclose(support_many(high, np.ones((2, 5))), [5.0, 5.0], atol=1e-12)


def test_hpolytope_without_vertices_supports_rows_in_one_lp(lp_solves):
    rng = np.random.default_rng(6)
    high = make_box(-np.ones(5), np.arange(1.0, 6.0))
    validate(high)
    D = rng.normal(size=(20, 5))
    lp_solves.clear()
    h = support_many(high, D)
    assert len(lp_solves) == 1
    npt.assert_allclose(h, [_lp_support(high, v) for v in D], rtol=1e-9, atol=1e-12)


def test_hpolytope_data_is_private_and_read_only():
    A = np.vstack([np.eye(2), -np.eye(2)])
    b = np.ones(4)
    K = HPolytope(A, b)
    A[0, 0], b[0] = 5.0, 9.0
    assert K.A[0, 0] == 1.0 and K.b[0] == 1.0
    for arr in (K.A, K.b, K.vertices, K.chebyshev[0]):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_vpolytope_data_is_private_and_read_only():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    K = VPolytope(V)
    V[1, 0] = 7.0
    assert K.vertices[1, 0] == 1.0
    assert vertex_candidates(K) is K.vertices
    with pytest.raises(ValueError):
        K.vertices[0, 0] = 5.0
    A, b = halfspaces(SQ_H)
    for arr in (A, b):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_validate_hpolytope_prepares_with_one_lp(lp_solves):
    B = make_box(-np.ones(3), np.array([1.0, 2.0, 3.0]))
    validate(B)
    # the Chebyshev centre behind the prepared vertices, whose support gives
    # validate its extents; shared from then on
    assert len(lp_solves) == 1
    lp_solves.clear()
    assert B.vertices.shape == (8, 3)
    c, r = inscribed_ball(B)
    npt.assert_allclose(interior_point(B), c)
    assert r == pytest.approx(1.0, abs=1e-9)
    assert not lp_solves


@pytest.mark.parametrize("d, counts", [(1, (1, 1, 1)), (2, (1, 1, 1)), (3, (1, 1, 1)),
                                      (4, (1, 1, 1)), (5, (3, 3, 5))])
def test_a_parsed_box_counts_the_lps_of_validation_and_one_query(d, counts, lp_solves):
    # up to d = 4 the Chebyshev LP behind the vertices is the only LP: validate
    # and the query read the vertices' support.  In d = 5 validate's extents
    # take the stacked support LP, then the Chebyshev LP, then the query's own
    spec = {"kind": "box", "low": [-1.0] * d, "high": list(np.arange(1.0, d + 1.0))}
    queries = (lambda K: support(K, np.ones(d)), lambda K: alpha(K, np.full(d, 0.3)),
               lambda K: alpha(K, np.full(d, 5.0)))
    got = []
    for query in queries:
        lp_solves.clear()
        query(parse_body(spec))
        got.append(len(lp_solves))
    assert tuple(got) == counts


def _validate_reference(A, b):
    """validate's H-polytope verdict from one LP per coordinate direction
    and one Chebyshev LP, posed here with ``lp.solve``: None or the message."""
    d = A.shape[1]
    res = [lp.solve(u, A_ub=A, b_ub=b, sense="max") for u in np.vstack([np.eye(d), -np.eye(d)])]
    if any(r.status is lp.LPStatus.INFEASIBLE for r in res):
        return "halfspace system is empty"
    if any(r.status is lp.LPStatus.UNBOUNDED for r in res):
        return "halfspace system is unbounded"
    h = np.array([r.value for r in res])
    cheb = lp.solve(np.r_[np.zeros(d), 1.0], A_ub=np.hstack([A, np.linalg.norm(A, axis=1)[:, None]]),
                    b_ub=b, bounds=[(None, None)] * d + [(0, None)], sense="max")
    if cheb.x[d] <= 1e-9 * np.max(h[:d] + h[d:]):
        return "halfspace system has empty interior"
    return None


def _verdict_systems(per_kind=6, seed=3):
    """Seeded H systems in d = 1..5: bounded (a box and random rows about
    an interior point), unbounded (random rows with a recession direction),
    empty (x_1 <= -1 and x_1 >= 1 added to a box), rotated slabs 1e-12 to
    1e-6 thick, and boxes scaled from 1e-12 to 1e12."""
    rng = np.random.default_rng(seed)
    for d in range(1, 6):
        E = np.vstack([np.eye(d), -np.eye(d)])
        for k in range(per_kind):
            c = rng.uniform(-3.0, 3.0, d)
            R = rng.normal(size=(int(rng.integers(0, 2 * d + 2)), d))
            A = np.vstack([E, R])
            yield f"bounded{d}-{k}", A, A @ c + rng.uniform(0.5, 2.0, len(A))
            u = rng.normal(size=d)
            A = rng.normal(size=(int(rng.integers(d + 1, 3 * d + 2)), d))
            A -= np.maximum(A @ u, 0.0)[:, None] * u / (u @ u)
            A = A[np.linalg.norm(A, axis=1) > 1e-6]
            yield f"unbounded{d}-{k}", A, A @ c + rng.uniform(0.5, 2.0, len(A))
            A = np.vstack([E, R, [np.eye(d)[0], -np.eye(d)[0]]])
            b = np.r_[A[:-2] @ c + rng.uniform(0.5, 2.0, len(A) - 2), -1.0, -1.0]
            yield f"empty{d}-{k}", A, b
            Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            half = np.r_[0.5 * 10.0 ** rng.choice([-12, -10, -7, -6]), rng.uniform(0.5, 3.0, d - 1)]
            yield f"slab{d}-{k}", E @ Q.T, np.r_[half, half] + E @ Q.T @ c
            s = 10.0 ** rng.choice([-12, -6, 0, 6, 12])
            lo = s * rng.uniform(-2.0, 0.0, d)
            hi = lo + s * rng.uniform(0.5, 3.0, d)
            yield f"box{d}-{k}", E, np.r_[hi, -lo]


@pytest.mark.parametrize("name, A, b", list(_verdict_systems()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_validate_judges_hpolytopes_as_the_coordinate_lps_do(name, A, b):
    want = _validate_reference(A, b)
    if want is None:
        validate(HPolytope(A, b))
        return
    with pytest.raises(BodyError) as err:
        validate(HPolytope(A, b))
    assert str(err.value) == want


def test_halfspaces_derived_for_planar_vpolytope():
    H = halfspaces(SQ)
    assert H is not None
    A, b = H
    x = np.array([0.3, -0.2])
    assert np.all(A @ x <= b + 1e-12)
    assert halfspaces(SQ_H) is not None
    # Qhull covers V-polytopes in any dimension; only true oracles lack rows
    tet = VPolytope(np.vstack([np.zeros(3), np.eye(3)]))
    assert halfspaces(tet) is not None
    oracle = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 1.0, 1.0)
    assert halfspaces(oracle) is None


# width and symmetrization identities


@given(polygons(), unit_dirs())
@settings(max_examples=40)
def test_width_equals_symmetrization_width(K, u):
    C = central_symm(K)
    wk = width_dir(K, u)
    npt.assert_allclose(wk, width_dir(C, u), atol=1e-9)
    npt.assert_allclose(wk, 2.0 * support(C, u), atol=1e-9)


@given(polygons())
@settings(max_examples=25)
def test_inscribed_ball_fits(K):
    c, r = inscribed_ball(K)
    assert r > 0
    for u in sphere_dirs(2, 64, 8):
        assert support(K, u) >= float(u @ c) + r - 1e-8


def test_inscribed_ball_of_a_product_and_of_a_sum_with_a_ball_term():
    # the 3-4-5 triangle has inradius 1 at (1, 1)
    tri = VPolytope(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    c, r = inscribed_ball(Product((tri, VPolytope(np.array([[-1.0], [3.0]])))))
    npt.assert_allclose(c, [1.0, 1.0, 1.0], atol=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)
    S = Sum((tri, Ball(np.array([0.5, -0.5]), 0.25)))
    c, r = inscribed_ball(S)
    npt.assert_allclose(c, [1.5, 0.5], atol=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)
    for u in sphere_dirs(2, 64, 8):
        assert support(S, u) >= float(u @ c) + r - 1e-9


def test_inscribed_ball_is_none_for_flat_bodies_and_flat_parts():
    tri = VPolytope(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    seg = VPolytope(np.array([[0.0, 0.0], [1.0, 1.0]]))
    for K in (seg, Product((tri, seg)), Sum((tri, seg))):
        assert inscribed_ball(K) is None


def test_support_oracle_centre_is_private_and_read_only():
    c = np.array([0.5, -0.25])
    K = SupportOracle(lambda v: float(np.linalg.norm(v) + v @ [0.5, -0.25]), c, 1.0, 1.0,
                      h_many=lambda D: np.linalg.norm(D, axis=1) + D @ [0.5, -0.25])
    assert K.center is not c and not K.center.flags.writeable
    w = global_width(K)
    c[:] = 9.0
    npt.assert_array_equal(K.center, [0.5, -0.25])
    again = global_width(K)
    assert again.value == w.value
    npt.assert_array_equal(again.direction, w.direction)
    with pytest.raises(ValueError):
        K.center[0] = 0.0


# a V-polytope encodes with no inequality rows, an H-polytope with no
# equality rows
TRI = VPolytope(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
BOX1 = HPolytope(np.array([[1.0], [-1.0]]), np.array([3.0, 1.0]))


def test_lp_encoding_of_a_product_is_block_diagonal():
    e = lp_encoding(Product((TRI, BOX1)))
    assert e.n == 4
    npt.assert_array_equal(e.A_ub, [[0, 0, 0, 1], [0, 0, 0, -1]])
    npt.assert_array_equal(e.b_ub, [3, 1])
    npt.assert_array_equal(e.A_eq, [[1, 1, 1, 0]])
    npt.assert_array_equal(e.b_eq, [1])
    assert e.bounds == [(0, None)] * 3 + [(None, None)]
    npt.assert_array_equal(e.P, [[0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    npt.assert_array_equal(e.q, np.zeros(3))


def test_lp_encoding_of_a_sum_stacks_the_point_maps():
    e = lp_encoding(Sum((TRI, SQ_H)))
    assert e.n == 5
    npt.assert_array_equal(e.A_ub, np.hstack([np.zeros((4, 3)), SQ_H.A]))
    npt.assert_array_equal(e.b_ub, SQ_H.b)
    npt.assert_array_equal(e.A_eq, [[1, 1, 1, 0, 0]])
    npt.assert_array_equal(e.b_eq, [1])
    assert e.bounds == [(0, None)] * 3 + [(None, None)] * 2
    npt.assert_array_equal(e.P, np.hstack([TRI.vertices.T, np.eye(2)]))
    npt.assert_array_equal(e.q, np.zeros(2))


def test_halfspaces_of_a_product_place_each_factor_in_its_block():
    A2 = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    A, b = halfspaces(Product((VPolytope(np.array([[-1.0], [2.0]])), HPolytope(A2, [1, 0, 0]))))
    npt.assert_array_equal(A, [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [0, -1, 0], [0, 0, -1]])
    npt.assert_array_equal(b, [2, 1, 1, 0, 0])


def test_nested_product_with_a_ball_answers_factor_by_factor():
    ball = Ball([0.5, -1.0], 0.75)
    inner = Product((TRI, ball))
    K = Product((inner, BOX1))
    assert dim(K) == 5
    assert K.blocks == ((inner, slice(0, 4)), (BOX1, slice(4, 5)))
    assert inner.blocks == ((TRI, slice(0, 2)), (ball, slice(2, 4)))
    leaves = ((TRI, slice(0, 2)), (ball, slice(2, 4)), (BOX1, slice(4, 5)))
    rng = np.random.default_rng(23)
    D = rng.normal(size=(7, 5))
    H = support_many(K, D)
    # the factors' sums in the product's order: (triangle + ball) + box
    parts = [support_many(f, D[:, sl]) for f, sl in leaves]
    npt.assert_array_equal(H, (parts[0] + parts[1]) + parts[2])
    z = rng.normal(size=5)
    img = support_many(homothety(K, -1.5, z), D)
    parts = [support_many(homothety(f, -1.5, z[sl]), D[:, sl]) for f, sl in leaves]
    npt.assert_array_equal(img, (parts[0] + parts[1]) + parts[2])
    for x in (np.array([0.5, 0.25, 0.6, -1.2, 0.0]), rng.normal(size=5),
              np.array([0.4, 0.2, 0.5, -1.0, 2.9])):
        assert contains(K, x) == all(contains(f, x[sl]) for f, sl in leaves)
        res = alpha(K, x)
        got = [alpha(f, x[sl]) for f, sl in leaves]
        i = int(np.argmax([g.alpha for g in got]))
        assert res.alpha == got[i].alpha
        want = np.zeros(5)
        want[leaves[i][1]] = got[i].witness_dir
        npt.assert_array_equal(res.witness_dir, want)
        if contains(K, x):
            assert beta(K, x) == min(beta(f, x[sl]) for f, sl in leaves)
    for v in (rng.normal(size=5), np.array([0.0, 0.0, 1.0, -2.0, 0.0])):
        assert max_chord(K, v) == min(max_chord(f, v[sl]) for f, sl in leaves if np.any(v[sl]))


def test_encoding_membership_matches_contains():
    enc = lp_encoding(SQ)
    assert isinstance(enc, Encoding)
    I = np.eye(2)
    assert encoding_feasible([enc], [I], np.array([0.3, -0.7]))
    assert not encoding_feasible([enc], [I], np.array([1.2, 0.0]))


def test_encoding_two_body_combination():
    # y in SQ, z in SQ with y + z = (2, 2) forces both at the corner
    enc = lp_encoding(SQ)
    I = np.eye(2)
    assert encoding_feasible([enc, enc], [I, I], np.array([2.0, 2.0]))
    assert not encoding_feasible([enc, enc], [I, I], np.array([2.0, 2.1]))


def test_validate_accepts_bodies():
    validate(SQ)
    validate(SQ_H)
    validate(Ball(np.zeros(3), 1.0))


def test_validate_rejects_unbounded():
    with pytest.raises(BodyError, match="halfspace system is unbounded"):
        validate(HPolytope(np.array([[1.0, 0.0]]), np.array([1.0])))
    # bounded in every coordinate but one, which the stacked LP must still catch
    with pytest.raises(BodyError, match="halfspace system is unbounded"):
        validate(HPolytope(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                     [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]), np.ones(5)))


def test_validate_rejects_empty():
    with pytest.raises(BodyError, match="halfspace system is empty"):
        validate(HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])))


@pytest.mark.parametrize("A, b, message", [
    ([[1.0, 0.0], [np.nan, 1.0], [-1.0, 0.0], [0.0, -1.0]], np.ones(4), "non-finite"),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, np.inf, 1.0, 1.0], "non-finite"),
    ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]], np.ones(5), "zero row"),
], ids=["nan_row", "inf_offset", "zero_row"])
def test_validate_rejects_bad_halfspace_rows(A, b, message):
    with pytest.raises(BodyError, match=message):
        validate(HPolytope(np.array(A), np.array(b)))


def test_validate_rejects_non_finite_vertices():
    with pytest.raises(BodyError, match="vertex data contains non-finite entries"):
        validate(VPolytope(np.array([[0.0, 0.0], [1.0, np.inf], [0.0, 1.0]])))


@pytest.mark.parametrize("h, inner, outer, message", [
    (lambda v: -float(np.linalg.norm(v)), 0.5, 2.0, "not sublinear"),
    (lambda v: float(np.linalg.norm(v)) + 1.0, 0.5, 2.0, "not positively homogeneous"),
    (lambda v: float(np.linalg.norm(v)), 2.0, 3.0, "inner ball"),
    (lambda v: float(np.linalg.norm(v)), 0.5, 0.8, "outer ball"),
], ids=["not_sublinear", "not_homogeneous", "inner_ball", "outer_ball"])
def test_validate_probes_an_oracle(h, inner, outer, message):
    # each h fails one probe of the unit ball's support function |v|
    with pytest.raises(BodyError, match=message):
        validate(SupportOracle(h, np.zeros(3), inner, outer))


def test_validate_rejects_flat_vpolytope():
    with pytest.raises(BodyError):
        validate(VPolytope(np.array([[0.0, 0.0], [1.0, 1.0]])))


def _scaled_polytopes(d, s):
    """(body, its vertices) for the box [-s, s]^d, the cross-polytope of
    radius s as halfspaces, and the simplex conv{0, s e_i} both ways."""
    E = np.eye(d)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    simplex = np.vstack([np.zeros(d), s * E])
    yield make_box(-s * np.ones(d), s * np.ones(d)), s * signs
    yield HPolytope(signs, np.full(len(signs), s)), s * np.vstack([E, -E])
    yield HPolytope(np.vstack([-E, np.ones((1, d))]), np.r_[np.zeros(d), s]), simplex
    yield VPolytope(simplex), simplex


@pytest.mark.parametrize("s", [1e-12, 1e-10, 1e-9, 1e-6, 1.0, 1e3, 1e6, 1e9])
def test_scaled_polytopes_validate_and_keep_their_vertices(s):
    # the inradius and rank floors are relative to the body's own scale
    for d in (2, 3, 4):
        for K, W in _scaled_polytopes(d, s):
            validate(K)
            V = K.vertices if isinstance(K, HPolytope) else K.extreme
            assert V is not None
            _assert_same_vertex_set(V / s, W / s)


def test_validate_rejects_flat_hpolytopes_at_every_scale():
    for s in (1e-12, 1.0, 1e9):
        for d in (1, 2, 3):
            # x_1 <= 0 and -x_1 <= 0, the other coordinates in [-s, s]
            b = np.full(2 * d, s)
            b[[0, d]] = 0.0
            K = HPolytope(np.vstack([np.eye(d), -np.eye(d)]), b)
            with pytest.raises(BodyError, match="empty interior"):
                validate(K)
            assert K.vertices is None
        skew = HPolytope(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]),
                         np.array([s, -s, s, s]))
        with pytest.raises(BodyError, match="empty interior"):
            validate(skew)
        assert skew.vertices is None
    # thinner than 1e-9 of its extent is flat, at scales whose thin side
    # the LP resolves (its feasibility tolerance is absolute)
    for s in (1.0, 1e9):
        sliver = make_box([0.0, 0.0], [s, 1e-10 * s])
        with pytest.raises(BodyError, match="empty interior"):
            validate(sliver)
        assert sliver.vertices is None


def test_far_redundant_row_keeps_the_vertices():
    # the flatness floor reads the body's extents, not its farthest row
    for M in (1e3, 1e10, 1e14):
        K = HPolytope(np.vstack([SQ_H.A, [[1.0, 1.0]]]), np.r_[SQ_H.b, M])
        validate(K)
        _assert_same_vertex_set(K.vertices, SQ.vertices)


def test_dim():
    assert dim(SQ) == 2
    assert dim(Product((SQ, Ball(np.zeros(3), 1.0)))) == 5


def test_as_vector_rejects_a_matrix_and_non_finite_entries():
    with pytest.raises(BodyError, match=r"expected a flat vector, got shape \(2, 2\)"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(BodyError, match="vector contains non-finite entries"):
        as_vector([1.0, np.inf])


def test_empty_product_and_sum_raise():
    with pytest.raises(BodyError, match="product needs at least one factor"):
        Product(())
    with pytest.raises(BodyError, match="sum needs at least one term"):
        Sum(())


@pytest.mark.parametrize("call", [dim, lambda K: homothety(K, 2.0),
                                  lambda K: support_many(K, np.ones((1, 2))), validate],
                         ids=["dim", "homothety", "support_many", "validate"])
def test_a_non_body_is_named(call):
    with pytest.raises(BodyError, match="not a body: "):
        call(object())


def test_oracle_h_many_of_the_wrong_shape_raises():
    o = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 1.0, 1.0,
                      h_many=lambda D: np.zeros(3))
    with pytest.raises(BodyError, match=r"oracle h_many returned shape \(3,\), expected \(2,\)"):
        support_many(o, np.ones((2, 2)))


def test_validate_rejects_mixed_sum_dimensions_and_an_empty_dimension():
    tri = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(BodyError, match="^sum terms must share a dimension$"):
        validate(Sum((tri, VPolytope(np.array([[0.0], [1.0]])))))
    with pytest.raises(BodyError, match="^dimension must be at least 1$"):
        validate(VPolytope(np.zeros((3, 0))))


def test_validate_rejects_a_zero_ball_and_crossed_oracle_radii():
    with pytest.raises(BodyError, match="ball radius must be positive"):
        validate(Ball(np.zeros(2), 0.0))
    o = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 2.0, 1.0)
    with pytest.raises(BodyError, match="oracle needs 0 < inner_radius <= outer_radius"):
        validate(o)
