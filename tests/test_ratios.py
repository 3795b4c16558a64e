"""Chord-ratio functionals: independent routes that must reproduce alpha.

The chord ratios are computed from line sections, without the facet maximum
or the level-set LP that drive alpha, so their identity checks are genuine
cross-validations, not tautologies.  beta and rho are not: on rows they are
alpha's row maxima under the Moebius maps, and without rows the gauge's
level-set LP (``gauge._level_lp``) under the same maps.  Their references
here are two bisections that use neither: ``_beta_bisect``, on containment
of the reflected extreme points, and ``_rho_bisect``, on an LP
disjointness test of two copies.
Sampled quantities are one sided: inf-type ratios can only overshoot and
sup-type ratios can only undershoot their true values.
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from minkgauge import (Ball, BodyError, HPolytope, Product, SupportOracle, VPolytope,
                       alpha, beta, brute_force_alpha, chord, contains, dim, far_radius,
                       inscribed_ball, interior_point,
                       make_box, make_weighted_l2_ball, minkowski_phi, random_polygon,
                       ratio_functionals, rho,
                       support)
from minkgauge.body import Sum, encoding_feasible, halfspaces, lp_encoding, vertex_candidates
from minkgauge.geometry import sphere_dirs
from minkgauge.gauge import _level_lp
from minkgauge.ratios import SAMPLING_SIDES

from conftest import (POLYTOPE_KINDS, polygons_with_exterior, polygons_with_interior,
                      seeded_polytope)


SQ = VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
TRI = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))


def test_chord_square_axis():
    c = chord(SQ, np.zeros(2), np.array([1.0, 0.0]))
    assert c is not None
    ends = {tuple(np.round(c.a, 12)), tuple(np.round(c.b, 12))}
    assert ends == {(1.0, 0.0), (-1.0, 0.0)}


def test_chord_orders_near_endpoint_second():
    c = chord(SQ, np.array([0.5, 0.0]), np.array([1.0, 0.0]))
    # b is the near endpoint
    assert np.linalg.norm(np.asarray(c.b) - np.array([0.5, 0.0])) <= \
        np.linalg.norm(np.asarray(c.a) - np.array([0.5, 0.0]))


def test_chord_line_missing_the_body_is_none():
    assert chord(SQ, np.array([3.0, 0.0]), np.array([0.0, 1.0])) is None


def test_chord_ball_quadratic():
    B = Ball(np.zeros(2), 2.0)
    c = chord(B, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    ends = {tuple(np.round(c.a, 12)), tuple(np.round(c.b, 12))}
    assert ends == {(2.0, 0.0), (-2.0, 0.0)}


def test_chord_halfspace_and_vertex_routes_agree():
    # same square, two representations, two clipping code paths
    SQ_H = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                     np.ones(4))
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = rng.uniform(-0.9, 0.9, size=2)
        v = rng.normal(size=2)
        ch, cv = chord(SQ_H, x, v), chord(SQ, x, v)
        npt.assert_allclose(np.asarray(ch.a), np.asarray(cv.a), atol=1e-7)
        npt.assert_allclose(np.asarray(ch.b), np.asarray(cv.b), atol=1e-7)


def test_chord_lp_route_is_one_lp(lp_solves):
    # the cube by its vertices has Qhull facet rows in R^3 and clips them
    # like the H cube; in R^5 it has none, so both chord ends come from one
    # stacked LP
    rng = np.random.default_rng(4)
    for d, lps in ((3, 0), (5, 1)):
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=d)))
        V, H = VPolytope(corners), make_box(-np.ones(d), np.ones(d))
        for _ in range(10):
            x, v = rng.uniform(-0.9, 0.9, size=d), rng.normal(size=d)
            lp_solves.clear()
            cv = chord(V, x, v)
            assert len(lp_solves) == lps
            ch = chord(H, x, v)
            npt.assert_allclose(cv.a, ch.a, atol=1e-9)
            npt.assert_allclose(cv.b, ch.b, atol=1e-9)


def test_chord_rejects_plain_oracle():
    o = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 1.0, 1.0)
    with pytest.raises(BodyError):
        chord(o, np.zeros(2), np.array([1.0, 0.0]))


def test_one_dimensional_oracle_clips_chords_at_its_end_points():
    # an oracle has no rows or encoding, but a 1-d body's two support
    # values are its exact end points, and every chord ratio follows
    K = make_weighted_l2_ball(1)
    (lo,), (hi,) = K.extreme
    c = chord(K, np.array([0.2]), np.array([1.0]))
    npt.assert_allclose(sorted([c.a[0], c.b[0]]), [lo, hi], rtol=0, atol=1e-15)
    inside = ratio_functionals(K, np.array([0.2]))
    assert inside.point_in_body and inside.mu is None
    assert inside.nu == pytest.approx(alpha(K, np.array([0.2])).alpha, abs=1e-12)
    for x in (3.0, -5.0):
        outside = ratio_functionals(K, np.array([x]))
        assert not outside.point_in_body and outside.nu is None
        assert outside.mu == pytest.approx(alpha(K, np.array([x])).alpha, rel=1e-12)
        assert rho(K, np.array([x])) == pytest.approx(
            (outside.mu - 1.0) / (outside.mu + 1.0), rel=1e-12)


# beta


def test_beta_square_center_is_one():
    assert beta(SQ, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)


def test_beta_triangle_frozen_value():
    assert beta(TRI, np.array([12.0, 12.0])) == pytest.approx(0.5, abs=1e-12)


def test_beta_vanishes_on_the_boundary():
    assert beta(SQ, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_beta_ball_closed_form():
    B = Ball(np.zeros(2), 2.0)
    assert beta(B, np.array([1.0, 0.0])) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_beta_outside_raises():
    with pytest.raises(BodyError):
        beta(SQ, np.array([2.0, 0.0]))


@given(polygons_with_interior())
@settings(max_examples=50)
def test_beta_alpha_identity(pair):
    K, x = pair
    a = alpha(K, x).alpha
    b = beta(K, x)
    npt.assert_allclose(a, (1.0 - b) / (1.0 + b), atol=1e-8)


def _beta_bisect(K, x):
    # the bisection on s with one containment test per extreme point, an
    # independent cross-check of beta; no membership slack, so the bracket
    # converges to beta and not to the slack
    def fits(s):
        return all(contains(K, x - s * (u - x), tol=0.0) for u in K.extreme)

    lo, hi = 0.0, 1.0
    if fits(1.0):
        return 1.0
    for _ in range(60):
        if hi - lo <= 1e-10:
            break
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(polygons_with_interior())
@example((VPolytope(np.array([[-0.66161445, -0.44867061], [-0.36686684, 0.7156432],
                              [-0.39705902, 0.6156009]])),
          np.array([-0.45480039, 0.37309105])))
@settings(max_examples=20)
def test_beta_bisection_route_agrees(pair):
    K, x = pair
    exact = beta(K, x)
    approx = _beta_bisect(K, x)
    npt.assert_allclose(approx, exact, atol=1e-7)


def test_beta_without_facet_rows_is_one_lp(lp_solves):
    # a vertex body above MAX_VERTEX_DIM has no facet rows
    rng = np.random.default_rng(5)
    V = rng.normal(size=(12, 5))
    K = VPolytope(V)
    for _ in range(3):
        x = 0.8 * V.mean(axis=0) + 0.2 * rng.dirichlet(np.ones(12)) @ V
        a = alpha(K, x).alpha
        lp_solves.clear()
        b = beta(K, x)
        assert len(lp_solves) == 1
        npt.assert_allclose(b, (1.0 - a) / (1.0 + a), atol=1e-8)
    with pytest.raises(BodyError, match="defined for x in K"):
        beta(K, 10.0 * np.ones(5))


def test_facet_beta_is_one_hull(qhull_calls):
    # membership is read off the facet profile, whose rows are the one hull
    rng = np.random.default_rng(3)
    V = rng.normal(size=(12, 3))
    K = VPolytope(V)
    for i in range(3):
        x = 0.8 * V.mean(axis=0) + 0.2 * rng.dirichlet(np.ones(12)) @ V
        qhull_calls.clear()
        b = beta(K, x)
        # the first call builds the hull; later calls read the cached profile
        assert qhull_calls == ([12] if i == 0 else [])
        npt.assert_allclose(b, _beta_bisect(K, x), atol=1e-9)
    qhull_calls.clear()
    with pytest.raises(BodyError, match="defined for x in K"):
        beta(K, 10.0 * np.ones(3))
    assert qhull_calls == []
    qhull_calls.clear()
    with pytest.raises(BodyError, match="defined for x in K"):
        beta(VPolytope(V), 10.0 * np.ones(3))
    assert qhull_calls == [12]


def test_beta_sampled_route_is_upper():
    c, r = inscribed_ball(TRI)
    O = SupportOracle(lambda v: support(TRI, v), c, r, far_radius(TRI) + 1.0)
    exact = beta(TRI, np.array([12.0, 12.0]))
    sampled = beta(O, np.array([12.0, 12.0]))
    assert sampled >= exact - 1e-9
    assert sampled <= exact + 0.05  # 2048 directions resolve a triangle well


# rho


def test_rho_square_frozen_value():
    assert rho(SQ, np.array([3.0, 0.0])) == pytest.approx(0.5, abs=1e-6)


def test_rho_ball_closed_form():
    B = Ball(np.zeros(2), 1.0)
    assert rho(B, np.array([3.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_rho_inside_raises():
    with pytest.raises(BodyError):
        rho(SQ, np.zeros(2))


def _rho_bisect(K, x):
    # the bisection on t with an LP disjointness test that rho replaced,
    # kept as an independent cross-check
    enc, d = lp_encoding(K), dim(K)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if encoding_feasible([enc, enc], [np.eye(d), -mid * np.eye(d)], (1.0 - mid) * x):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _level_rho(K, x):
    # the sum form of the level-set LP under lam -> (lam - 1)/(lam + 1)
    lam = _level_lp(K, x, 1.0, None)[0].value
    return (lam - 1.0) / (lam + 1.0)


def _rho_bodies(d, rng):
    """V- and H-polytopes, a polytopal sum and products in dimension d, each
    with the rows of its central symmetrization."""
    lo = rng.uniform(-2.0, 0.0, d)
    if d == 1:
        yield VPolytope(rng.normal(size=(4, 1)))
        yield make_box(lo, lo + 1.5)
        yield Sum((VPolytope(rng.normal(size=(3, 1))), make_box(lo, lo + 0.5)))
        return
    A = np.vstack([np.eye(d), -np.eye(d), rng.normal(size=(3, d))])
    yield VPolytope(rng.normal(size=(d + 5, d)))
    yield HPolytope(A, np.concatenate([lo + 2.0, -lo, rng.uniform(1.0, 2.0, 3)]))
    yield Product((random_polygon(6, d), make_box(lo[2:] - 1.0, lo[2:] + 1.0))) if d > 2 \
        else Product((make_box(lo[:1], lo[:1] + 1.0), VPolytope(rng.normal(size=(2, 1)))))
    yield Sum((VPolytope(rng.normal(size=(d + 2, d))), VPolytope(rng.normal(size=(d + 1, d)))))
    yield Product((make_box(lo[:1], lo[:1] + 2.0), VPolytope(rng.normal(size=(d + 3, d - 1)))))


def _workload_rho_bodies():
    # the kinds of the benchmark's rho bodies: the H cube, an H box in R^4
    # and a 7-gon times an interval
    heptagon = VPolytope(np.array([[np.cos(a), np.sin(a)] for a in 2 * np.pi * np.arange(7) / 7]))
    return (make_box(-np.ones(3), np.ones(3)),
            make_box([-1.0, 0.0, -2.0, 0.5], [0.5, 1.0, 1.0, 2.0]),
            Product((heptagon, make_box([-0.5], [0.75]))))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rho_is_one_lp_and_matches_the_bisection(d, lp_solves):
    # every body here has C's rows, so once C is built rho solves no LP, and
    # its ratio on them matches the LP it replaced
    rng = np.random.default_rng(40 + d)
    bodies = list(_rho_bodies(d, rng)) + [K for K in _workload_rho_bodies() if dim(K) == d]
    n_checked = 0
    for K in bodies:
        assert K.symm_profile is not None
        c = interior_point(K)
        for _ in range(4):
            x = c + 4.0 * rng.normal(size=d)
            if contains(K, x):
                continue
            lp_solves.clear()
            r = rho(K, x)
            assert len(lp_solves) == 0
            npt.assert_allclose(r, _level_rho(K, x), rtol=1e-12)
            npt.assert_allclose(r, _rho_bisect(K, x), atol=1e-9)
            n_checked += 1
    assert n_checked >= 2 * len(bodies)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rho_on_c_rows_raises_inside_and_vanishes_on_the_boundary(d):
    rng = np.random.default_rng(80 + d)
    for K in _rho_bodies(d, rng):
        with pytest.raises(BodyError):
            rho(K, interior_point(K))
        # the LP returns 0 at a vertex; the rows' support values round, to 1e-16
        for v in K.extreme[:3]:
            assert abs(rho(K, v)) <= 1e-12


def test_rho_without_c_rows_is_one_lp(lp_solves):
    rng = np.random.default_rng(91)
    for K in (VPolytope(rng.normal(size=(9, 5))), make_box(-np.ones(5), 2.0 * np.ones(5))):
        assert K.symm_profile is None
        x = interior_point(K) + 10.0
        lp_solves.clear()
        r = rho(K, x)
        assert len(lp_solves) == 1
        npt.assert_allclose(r, _rho_bisect(K, x), atol=1e-9)


def _flat_polytope(d, rng):
    # a V-polytope of affine dimension k < d in R^d
    k = int(rng.integers(1, d))
    return VPolytope(rng.normal(size=(k + 3, k)) @ rng.normal(size=(k, d)) + rng.normal(size=d))


def test_beta_and_rho_on_a_flat_body_are_one_level_lp(lp_solves):
    # a flat vertex set has no rows of K or of C: beta and rho each read one
    # form of the level-set LP
    rng = np.random.default_rng(17)
    for d in (3, 3, 4, 4):
        K = _flat_polytope(d, rng)
        assert halfspaces(K) is None and K.symm_profile is None
        c = K.extreme.mean(axis=0)
        x_in = 0.7 * c + 0.3 * K.extreme[0]
        lp_solves.clear()
        b = beta(K, x_in)
        assert len(lp_solves) == 1
        npt.assert_allclose(b, _beta_bisect(K, x_in), atol=1e-9)
        # beyond a vertex on the ray from c, in the affine hull
        x_out = c + 3.0 * (K.extreme[0] - c)
        lp_solves.clear()
        r = rho(K, x_out)
        assert len(lp_solves) == 1
        npt.assert_allclose(r, _rho_bisect(K, x_out), atol=1e-9)


def test_rho_off_the_affine_hull_of_a_flat_body_is_one(lp_solves):
    # every level body of a flat K lies in its affine hull, so off it the
    # sum-form LP is infeasible and the homothet meets K only at t = 1
    rng = np.random.default_rng(23)
    for i in range(300):
        K = _flat_polytope(3 + i % 2, rng)
        x = K.extreme.mean(axis=0) + rng.normal(size=dim(K))
        lp_solves.clear()
        assert rho(K, x) == 1.0
        assert len(lp_solves) == 1


HEX = VPolytope(np.array([[np.cos(a), np.sin(a)] for a in np.pi * np.arange(6) / 3]))
# a ball factor leaves the product without an encoding and without rows of C
HEX_ROD = Product((HEX, Ball(np.zeros(1), 0.5)))


def test_rho_of_a_product_without_rows_is_its_largest_factor_rho():
    assert HEX_ROD.symm_profile is None
    for x in ([3.0, 0.0, 0.1], [0.1, 0.0, 1.5], [3.0, 0.0, 1.5], [1.0, 0.0, 0.1],
              [0.2, -4.0, -2.0]):
        x = np.array(x)
        a = alpha(HEX_ROD, x).alpha
        assert rho(HEX_ROD, x) == pytest.approx((a - 1.0) / (a + 1.0), abs=1e-12)
    with pytest.raises(BodyError, match="^rho is defined for x outside K$"):
        rho(HEX_ROD, np.array([0.1, 0.0, 0.1]))


def test_chords_of_a_product_without_rows_intersect_its_factors_sections():
    x, v = np.array([0.1, 0.0, 0.1]), np.array([1.0, 0.2, 0.3])
    c = chord(HEX_ROD, x, v)
    # the ends of a fine membership scan of the line, within one step
    t = np.linspace(-3.0, 3.0, 200_001)
    Y = x + t[:, None] * v
    A, b = halfspaces(HEX)
    held = t[np.all(Y[:, :2] @ A.T <= b, axis=1) & (np.abs(Y[:, 2]) <= 0.5)]
    ends = sorted((e - x) @ v / (v @ v) for e in (c.a, c.b))
    npt.assert_allclose(ends, [held[0], held[-1]], atol=t[1] - t[0])
    # a line that does not move the ball keeps the hexagon's chord where the
    # ball holds x's block, and misses the product where it does not
    flat = chord(HEX_ROD, x, np.array([1.0, 0.2, 0.0]))
    own = chord(HEX, x[:2], np.array([1.0, 0.2]))
    npt.assert_array_equal(flat.a, np.r_[own.a, 0.1])
    npt.assert_array_equal(flat.b, np.r_[own.b, 0.1])
    assert chord(HEX_ROD, np.array([0.1, 0.0, 0.9]), np.array([1.0, 0.2, 0.0])) is None
    rod = chord(HEX_ROD, x, np.array([0.0, 0.0, 1.0]))
    assert sorted([rod.a[2], rod.b[2]]) == [-0.5, 0.5]
    inside = ratio_functionals(HEX_ROD, x)
    assert inside.nu == pytest.approx(alpha(HEX_ROD, x).alpha, abs=1e-9)


@given(polygons_with_exterior())
@settings(max_examples=30)
def test_rho_alpha_identity(pair):
    K, x = pair
    a = alpha(K, x).alpha
    r = rho(K, x)
    npt.assert_allclose(a, (1.0 + r) / (1.0 - r), atol=1e-6 * max(1.0, a))


# aggregated ratio report


def test_ratio_report_triangle_interior_frozen():
    rep = ratio_functionals(TRI, np.array([12.0, 12.0]), n_lines=64, seed=0)
    assert rep.point_in_body
    assert rep.mu is None
    npt.assert_allclose(rep.sigma, 0.5, atol=1e-9)
    npt.assert_allclose(rep.nu, 1.0 / 3.0, atol=1e-9)
    npt.assert_allclose(rep.omega, 2.0 / 3.0, atol=1e-9)
    npt.assert_allclose(rep.gamma_sq, 8.0 / 9.0, atol=1e-9)


def test_ratio_report_square_exterior_frozen():
    rep = ratio_functionals(SQ, np.array([3.0, 0.0]), n_lines=64, seed=0)
    assert not rep.point_in_body
    assert rep.nu is None and rep.omega is None and rep.gamma_sq is None
    npt.assert_allclose(rep.sigma, 0.5, atol=1e-9)
    npt.assert_allclose(rep.mu, 3.0, atol=1e-9)


def test_ratio_report_sides_table():
    rep = ratio_functionals(SQ, np.zeros(2), n_lines=8, seed=1)
    assert rep.sides == SAMPLING_SIDES
    assert rep.n_chords > 0


def test_ratio_report_rejects_zero_lines():
    with pytest.raises(BodyError):
        ratio_functionals(SQ, np.zeros(2), n_lines=0)


@given(polygons_with_interior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30)
def test_interior_per_chord_identities(pair, seed):
    # nu = (1-sigma)/(1+sigma) and gamma^2 = 4 omega (1-omega) transfer from
    # single chords to the aggregated extremes because the maps are monotone
    K, x = pair
    rep = ratio_functionals(K, x, n_lines=32, seed=seed)
    npt.assert_allclose(rep.nu, (1.0 - rep.sigma) / (1.0 + rep.sigma), atol=1e-12)
    npt.assert_allclose(rep.gamma_sq, 4.0 * rep.omega * (1.0 - rep.omega), atol=1e-12)


@given(polygons_with_exterior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30)
def test_exterior_per_chord_identity(pair, seed):
    K, x = pair
    rep = ratio_functionals(K, x, n_lines=32, seed=seed)
    if rep.n_chords == 0:
        return
    npt.assert_allclose(rep.sigma, (rep.mu - 1.0) / (rep.mu + 1.0), atol=1e-12)


@given(polygons_with_interior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25)
def test_interior_sampling_sides(pair, seed):
    K, x = pair
    a = alpha(K, x).alpha
    rep = ratio_functionals(K, x, n_lines=48, seed=seed)
    true_sigma = (1.0 - a) / (1.0 + a)
    true_nu = a
    true_omega = (1.0 + a) / 2.0
    true_gamma_sq = 1.0 - a * a
    assert rep.sigma >= true_sigma - 1e-9
    assert rep.nu <= true_nu + 1e-9
    assert rep.omega <= true_omega + 1e-9
    assert rep.gamma_sq >= true_gamma_sq - 1e-9


@given(polygons_with_exterior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25)
def test_exterior_sampling_sides(pair, seed):
    K, x = pair
    a = alpha(K, x).alpha
    rep = ratio_functionals(K, x, n_lines=48, seed=seed)
    if rep.n_chords == 0:
        return
    # slack relative to alpha: far points reach alpha ~ 1e4, where an
    # absolute 1e-9 is below the float resolution of mu
    assert rep.sigma >= (a - 1.0) / (a + 1.0) - 1e-9
    assert rep.mu >= a - 1e-9 * max(1.0, a)


@given(polygons_with_interior(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25)
def test_more_lines_tighten_the_interior_report(pair, seed):
    K, x = pair
    small = ratio_functionals(K, x, n_lines=8, seed=seed)
    big = ratio_functionals(K, x, n_lines=64, seed=seed)
    assert big.sigma <= small.sigma + 1e-12
    assert big.nu >= small.nu - 1e-12


def _ratios_by_chord(K, x, n_lines, seed):
    # the per-line loop that ratio_functionals replaced: the same direction
    # family (toward every extreme point, along every facet normal, then the
    # seeded sweep), one public chord call per line; one row of ratios per chord
    dirs = []
    for u in K.extreme:
        if np.linalg.norm(u - x) > 1e-12:
            dirs.append((u - x) / np.linalg.norm(u - x))
    hs = halfspaces(K)
    if hs is not None:
        dirs.extend(r / np.linalg.norm(r) for r in hs[0])
    dirs.extend(sphere_dirs(dim(K), n_lines, seed))
    rows = []
    for v in dirs:
        c = chord(K, x, v)
        if c is not None:
            p, q = np.linalg.norm(c.a - x), np.linalg.norm(c.b - x)
            rows.append((q / p, (p - q) / (p + q), p / (p + q), 4.0 * p * q / (p + q) ** 2,
                         (p + q) / np.linalg.norm(c.a - c.b)))
    return np.array(rows)


def test_ratio_report_equals_the_per_chord_loop():
    rng = np.random.default_rng(14)
    bodies = [seeded_polytope(kind, d, rng)
              for d, kind in itertools.product((2, 3, 4), POLYTOPE_KINDS)]
    bodies.append(VPolytope(rng.normal(size=(8, 5))))    # no rows: one LP per line
    for K in bodies:
        V = vertex_candidates(K)
        c = V.mean(axis=0)
        # the centre, and a point beyond a vertex: the lines to the vertices cut K
        for x in (c, 3.0 * V[0] - 2.0 * c):
            rep = ratio_functionals(K, x, n_lines=16, seed=3)
            rows = _ratios_by_chord(K, x, 16, 3)
            assert rep.n_chords == len(rows) > 0
            got = [rep.sigma, rep.nu, rep.omega, rep.gamma_sq, rep.mu]
            want = [rows[:, 0].min(), rows[:, 1].max(), rows[:, 2].max(), rows[:, 3].min(),
                    rows[:, 4].min()]
            for i, (g, w) in enumerate(zip(got, want)):
                if rep.point_in_body == (i < 4):
                    npt.assert_allclose(g, w, rtol=1e-12, atol=1e-12)
                elif i:
                    assert g is None


def test_ratio_report_hull_count_is_independent_of_lines(qhull_calls):
    counts = []
    for n_lines in (16, 128):
        K = random_polygon(9, 4)
        for seed in (0, 1):
            qhull_calls.clear()
            ratio_functionals(K, np.zeros(2), n_lines=n_lines, seed=seed)
            counts.append(len(qhull_calls))
    # one hull gives the membership rule, the facet normals and the sections,
    # and a second report on the same body reads its cached rows
    assert counts == [1, 0, 1, 0]


# brute force cross-check


@given(polygons_with_interior())
@settings(max_examples=25)
def test_brute_force_matches_alpha_in_the_plane(pair):
    # facet normals are part of the brute-force direction set, so the planar
    # value is recovered exactly
    K, x = pair
    npt.assert_allclose(brute_force_alpha(K, x, n_dirs=64), alpha(K, x).alpha,
                        atol=1e-10)


def test_brute_force_on_h_box_solves_at_most_one_lp(lp_solves):
    box = make_box([-1.0, -1.0], [1.0, 1.0])
    got = brute_force_alpha(box, np.array([3.0, 0.0]), n_dirs=1024)
    # the box's one-time vertex preparation; every support value is a matrix max
    assert len(lp_solves) <= 1
    npt.assert_allclose(got, 3.0, atol=1e-12)


def test_brute_force_lower_bounds_alpha_elsewhere():
    tet = VPolytope(np.vstack([np.zeros(3), np.eye(3)]))
    x = np.array([1.0, 1.0, 1.0])
    assert brute_force_alpha(tet, x, n_dirs=512) <= alpha(tet, x).alpha + 1e-8


def test_minkowski_phi():
    assert minkowski_phi(SQ, np.zeros(2)) == pytest.approx(1.0, abs=1e-12)
    assert minkowski_phi(SQ, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)
    # phi treats the gauge symmetrically across the boundary
    assert minkowski_phi(SQ, np.array([3.0, 0.0])) == pytest.approx(0.5, abs=1e-12)


def test_brute_force_alpha_needs_a_direction():
    with pytest.raises(BodyError, match="no directions to sample"):
        brute_force_alpha(Ball(np.zeros(2), 1.0), np.array([2.0, 0.0]), n_dirs=0)
