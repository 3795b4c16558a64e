"""The gauge alpha(K, x), its level sets, and the symmetry report."""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import ConvexHull, QhullError

from minkgauge import (Ball, BodyError, VPolytope, alpha, alpha_inf, beta,
                       brute_force_alpha, central_symm, centroid, contains, diameter,
                       dim, global_width, hausdorff, homothety, level_set, lp,
                       make_box, make_regular_polygon, make_simplex, make_sobczyk_prism,
                       make_weighted_l2_ball, max_chord, rho, sphere_dirs, support,
                       support_many, t_func, t_many, validate)
from minkgauge import body, gauge
from minkgauge.body import (Product, Sum, _hull, encoding_feasible, halfspaces,
                            interior_point, lp_encoding, vertex_candidates)
from minkgauge.gauge import _alpha_lp

from conftest import (counted_oracle, polygons, polygons_with_exterior, polygons_with_interior,
                      unit_dirs)
from test_ratios import _rho_bisect


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
    npt.assert_array_equal(B.vertices, _hull(np.unique(pairs.reshape(-1, 3), axis=0))[1])
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
    # the symmetry LP and the critical-set LP
    assert len(lp_solves) == 2
    assert rep.alpha_inf <= 1e-9
    npt.assert_allclose(rep.minimizer, (lo + hi) / 2.0, atol=1e-9)
    assert rep.critical_dim_estimate == 0
    # a reused body keeps its symmetry LP and its critical set
    lp_solves.clear()
    assert alpha_inf(B).critical_dim_estimate == 0
    assert len(lp_solves) == 0


def test_alpha_inf_of_a_product_with_a_ball_counts_its_lps(lp_solves):
    K = Product((make_box(-np.ones(3), np.ones(3)), Ball(np.zeros(1), 1.0),
                 make_sobczyk_prism()))
    lp_solves.clear()
    rep = alpha_inf(K)
    # the box: its symmetry LP (its vertices' Chebyshev ball is preset from
    # its bounds); the prism: its symmetry LP on its merged rows; the
    # dimension: one critical-set LP per factor with rows (box, prism),
    # centred at their cached minimisers.  The prism's critical body is the
    # erosion of its merged rows, so its own factors solve nothing; no
    # factor's critical-set LP at its own alpha_inf is solved, and no
    # Chebyshev LP tests an erosion that holds its factor's minimiser
    assert len(lp_solves) == 4
    npt.assert_allclose(rep.alpha_inf, 1.0 / 3.0, atol=1e-9)
    # the box and the ball are full at lam = 1/3, the prism a segment
    assert rep.critical_dim_estimate == 3 + 1 + 1
    # the prism's critical body is the erosion of its merged rows, as at top level
    prism = rep.critical_body.body.factors[2]
    top = alpha_inf(make_sobczyk_prism()).critical_body.body
    assert np.array_equal(prism.A, top.A) and np.array_equal(prism.b, top.b)
    lp_solves.clear()
    again = alpha_inf(K)
    assert again.alpha_inf == rep.alpha_inf and again.critical_dim_estimate == 5
    assert len(lp_solves) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_a_balls_critical_body_is_its_centre_alone_or_as_a_factor(d, lp_solves):
    # a ball answers before its rows, as in alpha_inf's minimiser: a 1-d
    # ball, which has rows, gets the closed form too
    B = Ball(np.arange(d) + 0.25, 2.0)
    lp_solves.clear()
    alone = alpha_inf(B)
    assert lp_solves == []
    nested = alpha_inf(Product((B, Ball(np.zeros(2), 1.0)))).critical_body.body.factors[0]
    for crit in (alone.critical_body.body, nested):
        assert isinstance(crit, VPolytope)
        npt.assert_array_equal(crit.vertices, B.center[None, :])
    assert alone.critical_dim_estimate == 0


def _snapshot(rep):
    L = rep.critical_body
    return (rep.alpha_inf, rep.measure, rep.minimizer.tobytes(), rep.critical_dim_estimate,
            rep.klee_lhs, L.lam, L.empty, L.body)


@pytest.mark.parametrize("make", [
    lambda: make_sobczyk_prism(),
    lambda: Ball(np.array([1.0, -2.0]), 0.5),
    lambda: Product((make_box(-np.ones(2), np.ones(2)), Ball(np.zeros(1), 1.0),
                     make_simplex(2))),
], ids=["prism", "ball", "product"])
def test_alpha_inf_cache_survives_a_caller_that_edits_its_report(make, lp_solves):
    K = make()
    want = _snapshot(alpha_inf(K))
    rep = alpha_inf(K)
    assert _snapshot(rep) == want
    # the minimiser is the body's read-only cached one or a fresh copy
    try:
        rep.minimizer[:] = 7.0
    except ValueError:
        assert not rep.minimizer.flags.writeable
    rep.alpha_inf, rep.critical_dim_estimate = 0.9, 99
    rep.critical_body.lam, rep.critical_body.empty = 2.0, True
    crit = rep.critical_body.body
    for part in (crit,) + getattr(crit, "factors", ()):
        for name in ("A", "b", "center", "vertices"):
            if name in vars(part):
                with pytest.raises(ValueError):
                    vars(part)[name][...] = 7.0
    lp_solves.clear()
    again = alpha_inf(K)
    assert lp_solves == []
    assert _snapshot(again) == want
    # a new report and level set around the shared, frozen critical body
    assert again is not rep and again.critical_body is not rep.critical_body
    assert again.critical_body.body is crit


def _gaussian_vpolytopes(d):
    # d + 2 to d + 13 Gaussian points; in R^3 and R^4 each has one
    # minimiser, d + 1 tight rows of rank d
    for s in range(40):
        yield VPolytope(np.random.default_rng([0, s]).normal(size=(d + 2 + s % 12, d)))


def _symmetric_vpolytopes(n=200, seed=1):
    # c + s H and c - s H for Gaussian H in d = 2..4: centred at c
    rng = np.random.default_rng(seed)
    for k in range(n):
        d = 2 + k % 3
        H = rng.normal(size=(int(rng.integers(d, 2 * d + 2)), d))
        c, s = rng.uniform(-10.0, 10.0, d), rng.uniform(0.1, 10.0)
        yield VPolytope(np.vstack([c + s * H, c - s * H]))


def _even_regular_polygons(n=300, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield make_regular_polygon(2 * int(rng.integers(2, 10)), rng.uniform(0.1, 10.0),
                                   rng.uniform(-10.0, 10.0, 2), rng.uniform(0.0, 2.0 * np.pi))


@pytest.mark.parametrize("bodies", [_symmetric_vpolytopes, _even_regular_polygons])
def test_symmetric_bodies_have_alpha_inf_zero_and_keep_their_minimiser(bodies):
    # the symmetry LP's value rounds either side of 0 on these bodies; alpha
    # is nonnegative, so the report is 0 or above and its critical body holds
    # the minimiser
    for K in bodies():
        rep = alpha_inf(K)
        assert 0.0 <= rep.alpha_inf <= 1e-9
        assert rep.critical_body.lam == rep.alpha_inf
        assert rep.critical_body.contains(rep.minimizer)


def _scaled_prisms(scales, base=make_sobczyk_prism):
    return [homothety(base(), sc) for sc in scales]


def test_alpha_inf_obeys_klee_inequality():
    # Klee, "The critical set of a convex body", Amer. J. Math. 75 (1953):
    # (1 + alpha_inf) / (1 - alpha_inf) + dim(critical set) <= d
    bodies = [K for d in (2, 3, 4) for K in _gaussian_vpolytopes(d)]
    bodies += _scaled_prisms([1e-4, 1.0, 1e2, 1e4])
    assert len(bodies) == 124
    for K in bodies:
        rep = alpha_inf(K)
        assert rep.klee_lhs + rep.critical_dim_estimate <= dim(K) + 1e-9, K


def _triangle_prism():
    return Product((make_simplex(2), make_box([-1.0], [1.0])))


@pytest.mark.parametrize("base", [make_sobczyk_prism, _triangle_prism])
def test_prism_critical_segment_at_every_scale(base):
    for K in _scaled_prisms([1e-4, 1e-2, 1.0, 1e2, 1e4], base):
        rep = alpha_inf(K)
        npt.assert_allclose(rep.alpha_inf, 1.0 / 3.0, atol=1e-9)
        assert rep.critical_dim_estimate == 1


def _critical_rank_reference(K, s_star, x_star):
    # the affine rank of LP optima over the critical face, opened by 1e-12
    # widths, with a cut-off of 1e-6 diameters
    A, hp, hm = gauge.facet_profile(K)
    b = hp - hm + (s_star + 1e-12) * (hp + hm)
    pts = [x_star]
    for c in np.random.default_rng(3).normal(size=(2 * A.shape[1] + 1, A.shape[1])):
        res = lp.solve(c, A_ub=2.0 * A, b_ub=b)
        assert res.optimal
        pts.append(res.x)
    P = np.array(pts)
    sv = np.linalg.svd(P - P.mean(axis=0), compute_uv=False)
    return int(np.sum(sv > 1e-6 * diameter(K)))


@pytest.mark.parametrize("d", [3, 4])
def test_critical_dim_matches_the_sampled_face_rank(d):
    for K in _gaussian_vpolytopes(d):
        rep = alpha_inf(K)
        assert rep.critical_dim_estimate == _critical_rank_reference(
            K, rep.alpha_inf, rep.minimizer), K


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
            # independent value: rho's bisection on disjoint copies (rho
            # itself reads alpha's C rows)
            r = _rho_bisect(K, x)
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


def test_level_set_contains_on_a_ball_agrees_with_alpha():
    B = Ball(np.array([2.0, 0.0]), 1.5)
    rng = np.random.default_rng(40)
    for lam in (0.0, 0.5, 2.0):
        L = level_set(B, lam)
        assert L.contains(B.center)
        for x in B.center + rng.normal(scale=2.0, size=(40, 2)):
            assert L.contains(x) == (alpha(B, x).alpha <= lam)


def test_level_lp_membership_agrees_with_alpha(lp_solves):
    # no facet rows of C in R^5: membership above lam = 1 is the level-set LP
    K = VPolytope(np.random.default_rng(5).normal(size=(12, 5)))
    assert K.symm_profile is None
    L = level_set(K, 2.0)
    rng = np.random.default_rng(40)
    inside = []
    for x in K.vertices.mean(axis=0) + rng.normal(size=(40, 5)):
        lp_solves.clear()
        inside.append(L.contains(x))
        assert len(lp_solves) == 1
        assert inside[-1] == (alpha(K, x).alpha <= 2.0)
    assert 0 < sum(inside) < len(inside)


def test_level_set_of_a_product_below_its_alpha_inf_is_empty(paper_triangle):
    K = Product((paper_triangle, VPolytope(np.array([[-1.0], [1.0]]))))
    L = level_set(K, 0.2)
    assert L.empty and L.body is None and not L.contains(np.array([12.0, 12.0, 0.0]))
    assert not level_set(K, 0.5).empty


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


CUBE_V = VPolytope(np.array(list(itertools.product((0.0, 1.0), repeat=3))))
SUM_WITH_BALL = Sum((make_simplex(2), Ball(np.zeros(2), 1.0)))
DISC = Ball(np.zeros(2), 1.0)
SEGMENT = VPolytope(np.array([[0.0, 0.0], [1.0, 1.0]]))


@pytest.mark.parametrize("call, message", [
    (lambda: alpha(SUM_WITH_BALL, np.zeros(2)), "alpha unsupported for Sum"),
    (lambda: alpha_inf(SUM_WITH_BALL), r"alpha_inf needs facet access \(or a product"),
    (lambda: contains(SUM_WITH_BALL, np.zeros(2)), "membership unsupported for Sum"),
    (lambda: beta(SUM_WITH_BALL, np.array([0.1, 0.1])), "beta needs facet or vertex data"),
    (lambda: level_set(make_weighted_l2_ball(3), 0.5), "erosion level set needs facet access"),
    (lambda: level_set(make_weighted_l2_ball(3), 2.0),
     "level set needs polytope or ball structure"),
    (lambda: centroid(CUBE_V), "centroid supports planar bodies, simplices, balls"),
    (lambda: centroid(SEGMENT), "^centroid needs polygon access in the plane$"),
    (lambda: beta(DISC, np.array([3.0, 0.0])), "^beta is defined for x in K$"),
    (lambda: rho(DISC, np.array([0.1, 0.0])), "^rho is defined for x outside K$"),
    (lambda: rho(SUM_WITH_BALL, np.array([9.0, 9.0])), "^rho needs a polytope-backed body$"),
], ids=["alpha-sum", "alpha_inf-sum", "contains-sum", "beta-sum", "level-0.5-oracle",
        "level-2-oracle", "centroid-3d-cube", "centroid-segment", "beta-outside-ball",
        "rho-inside-ball", "rho-sum"])
def test_unsupported_bodies_name_what_they_lack(call, message):
    with pytest.raises(BodyError, match=message):
        call()
