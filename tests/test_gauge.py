"""The gauge alpha(K, x), its level sets, and the symmetry report."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from minkgauge import (Ball, BodyError, VPolytope, alpha, alpha_inf, beta,
                       brute_force_alpha, central_symm, centroid, contains,
                       global_width, hausdorff, homothety, level_set, lp,
                       make_box, make_simplex, make_sobczyk_prism,
                       make_weighted_l2_ball, max_chord, random_polygon, rho,
                       sphere_dirs, support, support_many, t_func, t_many, validate)
from minkgauge import body, gauge
from minkgauge.body import (Product, Sum, encoding_feasible, extreme_points, halfspaces,
                            interior_point, lp_encoding, vertex_candidates)
from minkgauge.gauge import _alpha_lp

from conftest import (counted_oracle, polygons, polygons_with_exterior, polygons_with_interior,
                      unit_dirs)


@given(polygons(), unit_dirs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60)
def test_t_antisymmetry(K, v, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=2)
    npt.assert_allclose(t_func(K, -v, x), -t_func(K, v, x), atol=1e-12)


@given(polygons(), unit_dirs(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60)
def test_t_never_exceeds_alpha(K, v, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=2)
    assert t_func(K, v, x) <= alpha(K, x).alpha + 1e-10


def test_alpha_triangle_critical_point(paper_triangle):
    res = alpha(paper_triangle, np.array([12.0, 12.0]))
    assert res.method == "closed_form"
    npt.assert_allclose(res.alpha, 1.0 / 3.0, atol=1e-12)


def test_alpha_square_center_and_vertex(unit_square):
    assert alpha(unit_square, np.zeros(2)).alpha == pytest.approx(0.0, abs=1e-12)
    assert alpha(unit_square, np.array([1.0, 1.0])).alpha == pytest.approx(1.0, abs=1e-12)
    assert alpha(unit_square, np.array([3.0, 0.0])).alpha == pytest.approx(3.0, abs=1e-12)


def test_alpha_ball_is_normalized_distance():
    B = Ball(np.array([1.0, -2.0]), 2.0)
    res = alpha(B, np.array([1.0, 1.0]))
    npt.assert_allclose(res.alpha, 1.5, atol=1e-12)
    npt.assert_allclose(res.witness_dir, [0.0, 1.0], atol=1e-12)


def test_alpha_witness_attains_the_value(paper_triangle):
    x = np.array([11.0, 10.5])
    res = alpha(paper_triangle, x)
    npt.assert_allclose(t_func(paper_triangle, res.witness_dir, x), res.alpha,
                        atol=res.tol + 1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_alpha_simplex_centroid(d):
    S = make_simplex(d)
    c = np.full(d, 1.0 / (d + 1))
    res = alpha(S, c)
    npt.assert_allclose(res.alpha, (d - 1.0) / (d + 1.0), atol=1e-10)


@given(polygons_with_interior(), polygons_with_interior())
@settings(max_examples=40)
def test_alpha_is_convex_along_segments(a, b):
    K, x = a
    _, y = b
    for t in (0.25, 0.5, 0.75):
        z = (1 - t) * x + t * y
        assert alpha(K, z).alpha <= (1 - t) * alpha(K, x).alpha + \
            t * alpha(K, y).alpha + 1e-9


@given(polygons_with_interior())
@settings(max_examples=40)
def test_alpha_at_most_one_inside(pair):
    K, x = pair
    assert alpha(K, x).alpha <= 1.0 + 1e-10
    assert contains(K, x)


@given(polygons_with_exterior())
@settings(max_examples=40)
def test_alpha_above_one_outside(pair):
    K, x = pair
    assert alpha(K, x).alpha > 1.0


@given(polygons_with_interior())
@settings(max_examples=25)
def test_bisection_agrees_with_closed_form_inside(pair):
    # the level-set LP against the facet closed form, both exact in the plane
    K, x = pair
    a = alpha(K, x)
    b = _alpha_lp(K, x)
    assert a.method == "closed_form"
    assert b.method == "lp"
    npt.assert_allclose(b.alpha, a.alpha, atol=max(b.tol, 1e-8))


@given(polygons_with_exterior())
@settings(max_examples=25)
def test_bisection_agrees_with_closed_form_outside(pair):
    K, x = pair
    a = alpha(K, x)
    b = _alpha_lp(K, x)
    npt.assert_allclose(b.alpha, a.alpha, atol=max(b.tol, 1e-8) * max(1.0, a.alpha))


def test_cube_exterior_alpha_is_closed_form(lp_solves, qhull_calls):
    C = make_box(-np.ones(3), np.ones(3))
    x = np.array([2.0, 0.5, 0.3])
    res = alpha(C, x)
    assert res.method == "closed_form"
    npt.assert_allclose(res.alpha, 2.0, rtol=1e-12)
    # the witness is the facet row e_1 of the difference body, attaining alpha
    npt.assert_allclose(res.witness_dir, [1.0, 0.0, 0.0], atol=1e-12)
    assert t_func(C, res.witness_dir, x) >= res.alpha - res.tol
    # at most the box's one-time vertex preparation (its Chebyshev centre)
    assert len(lp_solves) <= 1
    # the difference body's rows are kept: a second exterior point on the
    # same box solves no LP and builds no hull
    lp_solves.clear()
    qhull_calls.clear()
    res = alpha(C, np.array([-0.4, 3.0, 1.0]))
    assert res.method == "closed_form"
    npt.assert_allclose(res.alpha, 3.0, rtol=1e-12)
    assert not lp_solves and not qhull_calls


def test_box_exterior_alpha_in_r5_is_three_lps(lp_solves):
    # no prepared vertices above MAX_VERTEX_DIM: the facet profile's support
    # values, the level-set LP and the witness check are one LP each
    res = alpha(make_box(-np.ones(5), np.ones(5)), np.array([2.0, 0.5, 0.3, 0.0, -0.4]))
    assert res.method == "lp"
    npt.assert_allclose(res.alpha, 2.0, atol=1e-9)
    assert len(lp_solves) == 3


def test_cube_interior_alpha_solves_no_lp_after_preparation(lp_solves):
    C = make_box(-np.ones(3), np.ones(3))
    validate(C)
    lp_solves.clear()
    for x in ([0.2, -0.5, 0.1], [0.0, 0.0, 0.9], [-0.3, 0.3, 0.3]):
        res = alpha(C, np.array(x))
        assert res.method == "closed_form"
        npt.assert_allclose(res.alpha, np.max(np.abs(x)), atol=1e-12)
    assert not lp_solves


def test_hbox_level_set_above_one_is_a_vertex_body(lp_solves):
    L = level_set(make_box(-np.ones(3), np.ones(3)), 2.0)
    assert isinstance(L.body, VPolytope)
    D = sphere_dirs(3, 64, 5)
    lp_solves.clear()
    h = support_many(L.body, D)
    assert not lp_solves
    # the cube is origin-symmetric, so its level body at 2 is the cube doubled
    npt.assert_allclose(h, 2.0 * np.abs(D).sum(axis=1), rtol=1e-12)


def test_level_set_above_one_keeps_extreme_points():
    corners = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
    for K in (make_box(-np.ones(3), np.ones(3)), VPolytope(corners)):
        L = level_set(K, 2.0)
        # of the 64 vertex-pair points, the 8 corners of the doubled cube
        assert sorted(map(tuple, L.body.vertices)) == sorted(map(tuple, 2.0 * corners))


def test_level_set_above_one_builds_its_body_on_first_read(qhull_calls):
    rng = np.random.default_rng(4)
    K = VPolytope(rng.normal(size=(9, 3)))
    M = make_box(-np.ones(2), np.ones(2))
    points = [rng.normal(size=3) * s for s in (0.5, 2.0, 4.0)]
    want = [alpha(K, x).alpha <= 2.5 for x in points]
    E = K.extreme
    M.symm_rows                     # the square's hulls, read by the product's membership
    qhull_calls.clear()
    L = level_set(K, 2.5)
    assert [L.contains(x) for x in points] == want
    LP = level_set(Product((K, M)), 2.5)
    assert LP.contains(np.r_[points[0], 0.5, -0.5]) == want[0]
    assert qhull_calls == []
    # the first read hulls the k^2 pair points of K's k extreme points once;
    # later reads reuse it
    k2 = len(E) ** 2
    B = L.body
    assert qhull_calls == [k2] and L.body is B
    pairs = (3.5 * E[:, None, :] - 1.5 * E[None, :, :]) / 2.0
    npt.assert_array_equal(B.vertices, extreme_points(pairs.reshape(-1, 3)))
    qhull_calls.clear()
    assert isinstance(LP.body, Product) and LP.body is LP.body
    assert qhull_calls == [k2, 16]   # K's pairs again, then the square's
    assert [f.vertices.shape[0] for f in LP.body.factors] == [len(B.vertices), 4]


def test_alpha_inf_on_validated_box_is_two_lps(lp_solves):
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.5])
    B = make_box(lo, hi)
    validate(B)
    lp_solves.clear()
    rep = alpha_inf(B)
    # the symmetry LP and one stacked LP for the critical-set samples
    assert len(lp_solves) == 2
    assert rep.alpha_inf <= 1e-9
    npt.assert_allclose(rep.minimizer, (lo + hi) / 2.0, atol=1e-9)
    assert rep.critical_dim_estimate == 0


def _critical_dim_separately(A, hp, hm, w, lam, seed, extra_point, rank_tol=1e-7):
    # the critical-set samples as one LP per objective, the route the stacked
    # LP replaced
    d = A.shape[1]
    rng = np.random.default_rng(seed)
    pts = [extra_point]
    for _ in range(2 * d + 1):
        r = lp.solve(rng.normal(size=d), A_ub=2.0 * A, b_ub=hp - hm + w * (lam + 1e-9))
        if r.optimal:
            pts.append(r.x)
    P = np.array(pts)
    return int(np.sum(np.linalg.svd(P - P.mean(axis=0), compute_uv=False) > rank_tol))


@pytest.mark.parametrize("make", [make_sobczyk_prism, lambda: make_simplex(3),
                                  lambda: make_box(-np.ones(4), np.ones(4)),
                                  lambda: random_polygon(7, 3)])
def test_stacked_critical_dim_matches_separate_lps(make):
    K = make()
    rep = alpha_inf(K, seed=5)
    A, hp, hm = gauge.facet_profile(K)
    want = _critical_dim_separately(A, hp, hm, hp + hm, rep.alpha_inf, 5, rep.minimizer)
    assert rep.critical_dim_estimate == want


def _vertex_polytope_cases(d):
    rng = np.random.default_rng(d)
    for n in (d + 3, 12, 40):
        V = rng.normal(size=(n, d))
        inside = 0.8 * V.mean(axis=0) + 0.2 * rng.dirichlet(np.ones(n)) @ V
        yield VPolytope(V), inside
        yield VPolytope(V), 3.0 * rng.normal(size=d)


@pytest.mark.parametrize("d", [3, 4])
def test_vertex_polytope_alpha_lp_count(d, lp_solves):
    for K, x in _vertex_polytope_cases(d):
        inside = contains(K, x)
        lp_solves.clear()
        res = alpha(K, x)
        # the facet closed form, on K's Qhull rows inside K and on those of
        # the difference body outside, whose signed row is the witness
        assert res.method == "closed_form"
        assert not lp_solves
        A = (halfspaces(K) if inside else K.symm_rows)[0]
        assert np.max(np.abs(A @ res.witness_dir)) >= 1.0 - 1e-12
        assert t_func(K, res.witness_dir, x) >= res.alpha - 1e-12 * max(1.0, res.alpha)


@pytest.mark.parametrize("d, n", [(3, 12), (4, 30)])
def test_vertex_polytope_interior_alpha_is_one_hull(d, n, lp_solves, qhull_calls):
    rng = np.random.default_rng(d)
    V = rng.normal(size=(n, d))
    K = VPolytope(V)
    for i in range(3):
        x = 0.8 * V.mean(axis=0) + 0.2 * rng.dirichlet(np.ones(n)) @ V
        lp_solves.clear()
        qhull_calls.clear()
        res = alpha(K, x)
        assert res.method == "closed_form"
        assert not lp_solves
        # the first call builds K's one hull; later calls read its cached rows
        assert qhull_calls == ([n] if i == 0 else [])
        npt.assert_allclose(res.alpha, _alpha_lp(K, x).alpha, atol=1e-8)
        assert t_func(K, res.witness_dir, x) >= res.alpha - 1e-12


def test_sum_interior_alpha_erodes_extreme_points_only(monkeypatch, lp_solves):
    # the erosion LP behind the closed form, called directly
    rng = np.random.default_rng(0)
    K = Sum((VPolytope(rng.normal(size=(12, 3))), VPolytope(rng.normal(size=(12, 3)))))
    x = interior_point(K)
    n = lp_encoding(K).n

    def copies():
        return (lp_solves[-1] - 1) // n       # columns: lam, then n per copy
    pruned = _alpha_lp(K, x)
    extreme = len(ConvexHull(vertex_candidates(K)).vertices)
    assert pruned.alpha < 1.0
    assert copies() == extreme <= 35
    npt.assert_allclose(pruned.alpha, alpha(K, x).alpha, atol=1e-8)

    def no_hull(points):
        raise QhullError("pruning disabled")
    monkeypatch.setattr(body, "ConvexHull", no_hull)
    # K keeps its pruned extreme points, so a fresh copy of it goes unpruned
    full = _alpha_lp(Sum(K.terms), x)
    assert copies() == 144
    npt.assert_allclose(pruned.alpha, full.alpha, atol=1e-12)


@pytest.mark.parametrize("d", [3, 4])
def test_vertex_polytope_alpha_witness(d):
    for K, x in _vertex_polytope_cases(d):
        res = alpha(K, x)
        assert res.tol <= 1e-8 * max(1.0, res.alpha)
        assert t_func(K, res.witness_dir, x) >= res.alpha - res.tol
        if not contains(K, x):
            # independent value: rho's disjointness bisection
            r = rho(K, x)
            npt.assert_allclose(res.alpha, (1.0 + r) / (1.0 - r), rtol=1e-7)


def _weighted_alpha(mode, x):
    # alpha of the centred ellipsoid sum w_n x_n^2 <= 1 is its norm
    n = np.arange(1, x.size + 1)
    w = 1.0 + 1.0 / n if mode == "i" else 2.0 - 1.0 / n
    return float(np.sqrt(np.sum(w * x * x)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_sampled_alpha_is_one_sided(d):
    rng = np.random.default_rng(d)
    for mode in ("i", "ii"):
        K = make_weighted_l2_ball(d, mode)
        for level in (0.4, 1.0, 2.5):
            u = rng.normal(size=d)
            x = level * u / _weighted_alpha(mode, u)
            a = _weighted_alpha(mode, x)
            res = alpha(K, x)
            assert res.method == "sampled"
            assert 0.95 * a <= res.alpha <= a * (1.0 + 1e-9)
            assert t_func(K, res.witness_dir, x) >= res.alpha - res.tol


def test_sampled_routes_make_no_scalar_oracle_calls():
    K, counts = counted_oracle(4)
    x = np.array([0.3, -0.2, 0.1, 0.4])
    res = alpha(K, x)
    beta(K, x)
    brute_force_alpha(K, 2.0 * x)
    hausdorff(K, Ball(np.zeros(4), 0.8), n_dirs=256)
    assert counts["h"] == 0
    assert counts["h_many"] > 0
    npt.assert_allclose(res.alpha, _weighted_alpha("i", x), rtol=1e-9)


def test_t_many_matches_t_func(paper_triangle):
    D = np.vstack([sphere_dirs(2, 32, 4), 5.0 * sphere_dirs(2, 4, 5)])
    x = np.array([11.0, 13.0])
    npt.assert_allclose(t_many(paper_triangle, D, x),
                        [t_func(paper_triangle, v, x) for v in D], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        t_many(paper_triangle, np.vstack([D, np.zeros(2)]), x)


@given(polygons_with_interior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40)
def test_uniform_lipschitz_bound(pair, seed):
    K, x = pair
    rng = np.random.default_rng(seed)
    y = x + rng.normal(scale=0.5, size=2)
    w = global_width(K).value
    assert abs(alpha(K, x).alpha - alpha(K, y).alpha) <= \
        2.0 * np.linalg.norm(x - y) / w + 1e-8


@given(polygons_with_interior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40)
def test_chord_lipschitz_bound(pair, seed):
    K, x = pair
    rng = np.random.default_rng(seed)
    step = rng.normal(scale=0.5, size=2)
    if np.linalg.norm(step) < 1e-9:
        step = np.array([0.3, 0.1])
    y = x + step
    v = step / np.linalg.norm(step)
    assert abs(alpha(K, x).alpha - alpha(K, y).alpha) <= \
        2.0 * np.linalg.norm(x - y) / max_chord(K, v) + 1e-8


@given(polygons(), unit_dirs())
@settings(max_examples=25)
def test_linear_growth_limit(K, v):
    s = 1e6
    ratio = alpha(K, s * v).alpha * max_chord(K, v) / (2.0 * s)
    npt.assert_allclose(ratio, 1.0, rtol=1e-3)


# level sets


def test_level_set_at_one_is_the_body(paper_triangle):
    L = level_set(paper_triangle, 1.0)
    assert not L.empty
    for u in sphere_dirs(2, 128, 23):
        npt.assert_allclose(support(L.body, u), support(paper_triangle, u), atol=1e-9)


def test_level_set_empty_below_symmetry_constant(paper_triangle):
    assert level_set(paper_triangle, 0.2).empty
    assert not level_set(paper_triangle, 1.0 / 3.0).empty


def test_level_set_ball_closed_form():
    B = Ball(np.array([2.0, 0.0]), 1.5)
    L = level_set(B, 0.5)
    assert isinstance(L.body, Ball)
    npt.assert_allclose(L.body.radius, 0.75, atol=1e-12)
    npt.assert_allclose(L.body.center, [2.0, 0.0], atol=1e-12)


def test_level_set_dilation_is_minkowski_sum(paper_triangle):
    # K + (lam - 1) C for lam >= 1
    lam = 2.5
    L = level_set(paper_triangle, lam)
    C = central_symm(paper_triangle)
    M = Sum((paper_triangle, homothety(C, lam - 1.0)))
    for u in sphere_dirs(2, 256, 29):
        npt.assert_allclose(support(L.body, u), support(M, u), atol=1e-9)


@given(polygons(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25)
def test_level_sets_nest(K, seed):
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(0.4, 3.0, size=2))
    L1, L2 = level_set(K, lams[0]), level_set(K, lams[1])
    if L1.empty:
        return
    for u in sphere_dirs(2, 64, 31):
        assert support(L1.body, u) <= support(L2.body, u) + 1e-9


@given(polygons())
@settings(max_examples=20)
def test_level_set_composition(K):
    lam, mu = 1.5, 2.0
    inner = level_set(K, lam)
    L1 = level_set(inner.body, mu)
    L2 = level_set(K, lam * mu)
    for u in sphere_dirs(2, 64, 37):
        npt.assert_allclose(support(L1.body, u), support(L2.body, u), atol=1e-8)


@given(polygons(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30)
def test_level_set_membership_matches_alpha(K, seed):
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 2.5)
    L = level_set(K, lam)
    c = centroid(K)
    for _ in range(8):
        x = c + rng.normal(scale=1.2, size=2)
        a = alpha(K, x).alpha
        if abs(a - lam) < 1e-7:
            continue  # membership at the boundary is tolerance-dependent
        assert L.contains(x) == (a <= lam)


def test_hammer_body_identity(unit_square):
    # the rho-homothety family equals the level set at 2 rho - 1; it is an
    # intersection of homotheties for rho <= 1 and a union of them for rho >= 1
    K = VPolytope(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0], [2.5, 1.5]]))
    enc = lp_encoding(K)
    I = np.eye(2)
    rng = np.random.default_rng(7)
    for rho in (0.6, 1.0, 1.4):
        L = level_set(K, 2.0 * rho - 1.0)
        for _ in range(40):
            x = rng.uniform([-1.0, -1.0], [4.0, 3.0])
            if rho <= 1.0:
                # every homothety preimage is an affine image of K, so the
                # intersection over y in K reduces to the vertex list
                in_hammer = all(
                    contains(K, (x - (1.0 - rho) * u) / rho, tol=1e-9)
                    for u in K.vertices
                )
            else:
                # exists y, k in K with x = (1 - rho) y + rho k
                in_hammer = encoding_feasible([enc, enc],
                                              [(1.0 - rho) * I, rho * I], x)
            a = alpha(K, x).alpha
            if abs(a - (2.0 * rho - 1.0)) < 1e-6:
                continue
            assert in_hammer == L.contains(x)


# symmetry report


def test_alpha_inf_square(unit_square):
    rep = alpha_inf(unit_square)
    assert rep.alpha_inf <= 1e-9
    assert rep.measure == pytest.approx(1.0, abs=1e-9)
    npt.assert_allclose(rep.minimizer, [0.0, 0.0], atol=1e-7)
    assert rep.critical_dim_estimate == 0


def test_alpha_inf_triangle(paper_triangle):
    rep = alpha_inf(paper_triangle)
    npt.assert_allclose(rep.alpha_inf, 1.0 / 3.0, atol=1e-9)
    npt.assert_allclose(rep.minimizer, [12.0, 12.0], atol=1e-7)
    assert rep.critical_dim_estimate == 0
    assert rep.klee_lhs == pytest.approx(2.0, abs=1e-8)
    assert not rep.critical_body.empty
    assert rep.critical_body.lam == pytest.approx(rep.alpha_inf)


@given(polygons())
@example(VPolytope(np.array([[0.71323133, -0.62463754], [0.38920372, -0.51077244],
                             [0.53300466, -0.56456237]])))
@example(VPolytope(np.array([[0.33605391, -0.00582587], [-0.11217584, 0.76702521],
                             [0.15092365, 0.31036128]])))
@settings(max_examples=20)
def test_alpha_inf_planar_klee_codimension(K):
    rep = alpha_inf(K)
    # single-point critical set in the plane forces (1+a)/(1-a) <= 2
    assert rep.critical_dim_estimate == 0
    assert rep.klee_lhs <= 2.0 + 1e-6
    assert rep.alpha_inf <= 1.0 / 3.0 + 1e-8
    assert alpha(K, rep.minimizer).alpha <= rep.alpha_inf + 1e-8


@given(polygons())
@settings(max_examples=20)
def test_minimizer_not_worse_than_centroid(K):
    rep = alpha_inf(K)
    assert rep.alpha_inf <= alpha(K, centroid(K)).alpha + 1e-9


def test_alpha_inf_translation_invariant(paper_triangle):
    z = np.array([-7.0, 3.0])
    rep = alpha_inf(homothety(paper_triangle, 1.0, z))
    npt.assert_allclose(rep.alpha_inf, 1.0 / 3.0, atol=1e-9)
    npt.assert_allclose(rep.minimizer, np.array([12.0, 12.0]) + z, atol=1e-6)


def test_level_set_rejects_negative_lambda(paper_triangle):
    with pytest.raises(ValueError):
        level_set(paper_triangle, -0.5)


def test_alpha_rejects_dimension_mismatch(paper_triangle):
    with pytest.raises(BodyError):
        alpha(paper_triangle, np.array([1.0, 2.0, 3.0]))
