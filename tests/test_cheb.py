"""Chebyshev machinery: stable evaluation, slab polynomials, growth bounds."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import Chebyshev

from minkgauge import (Ball, BodyError, SlabPolynomial, VPolytope, alpha, alpha_inf,
                       bernstein_bound, cheb_T, cheb_T_prime, cheb_growth,
                       dim, extremal_polynomial, leading_growth, make_box,
                       make_simplex, make_sobczyk_prism, max_chord, random_polygon,
                       t_func)
from minkgauge import body, cheb
from minkgauge.body import vertex_candidates
from minkgauge.cheb import _body_samples
from minkgauge.shapes import make_regular_polygon, make_weighted_l2_ball

from conftest import polygons_with_interior, unit_dirs


SQ = VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
INTERVAL = VPolytope(np.array([[-1.0], [1.0]]))


def test_cheb_T_low_degrees():
    for x in np.linspace(-2.0, 2.0, 41):
        npt.assert_allclose(cheb_T(0, x), 1.0, atol=1e-15)
        npt.assert_allclose(cheb_T(1, x), x, atol=1e-15)
        npt.assert_allclose(cheb_T(2, x), 2 * x * x - 1, rtol=1e-13, atol=1e-13)
        npt.assert_allclose(cheb_T(3, x), 4 * x**3 - 3 * x, rtol=1e-12, atol=1e-12)


def test_cheb_T_cosine_identity():
    for th in np.linspace(0.0, np.pi, 25):
        npt.assert_allclose(cheb_T(7, np.cos(th)), np.cos(7 * th), atol=1e-12)


def test_cheb_T_frozen_value():
    assert cheb_T(2, 2.0) == 7.0


def test_cheb_T_branch_continuity():
    # the inside/outside formulas must agree across |x| = 1
    for n in (3, 8, 15):
        for s in (1.0, -1.0):
            lo = cheb_T(n, s * (1.0 - 1e-13))
            hi = cheb_T(n, s * (1.0 + 1e-13))
            npt.assert_allclose(lo, hi, atol=1e-10)


def cheb_T_product(n, x):
    """Product form 2^(n-1) prod (x - cos((2j-1) pi / 2n)), the reference for
    the branch formulas; its error grows with n."""
    if n == 0:
        return 1.0
    j = np.arange(1, n + 1)
    roots = np.cos((2 * j - 1) * np.pi / (2 * n))
    return float(2.0 ** (n - 1) * np.prod(float(x) - roots))


@given(st.integers(min_value=1, max_value=30),
       st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=80)
def test_cheb_T_matches_product_form(n, x):
    a, b = cheb_T(n, x), cheb_T_product(n, x)
    npt.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


@given(st.integers(min_value=2, max_value=20),
       st.floats(min_value=-2.5, max_value=2.5))
@settings(max_examples=60)
def test_cheb_T_three_term_recurrence(n, x):
    lhs = cheb_T(n, x)
    rhs = 2 * x * cheb_T(n - 1, x) - cheb_T(n - 2, x)
    npt.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_cheb_T_bounded_inside():
    for n in (1, 4, 9):
        xs = np.linspace(-1.0, 1.0, 201)
        vals = np.array([cheb_T(n, x) for x in xs])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


@given(st.integers(min_value=1, max_value=12),
       st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=60)
def test_cheb_T_prime_matches_difference_quotient(n, x):
    h = 1e-6
    num = (cheb_T(n, x + h) - cheb_T(n, x - h)) / (2 * h)
    der = cheb_T_prime(n, x)
    npt.assert_allclose(der, num, rtol=1e-5, atol=1e-5)


def test_cheb_T_prime_endpoint():
    for n in (1, 2, 5, 8):
        npt.assert_allclose(cheb_T_prime(n, 1.0), n * n, rtol=1e-12)
        npt.assert_allclose(cheb_T_prime(n, -1.0), (-1.0) ** (n + 1) * n * n,
                            rtol=1e-12)


# slab polynomials


def test_polynomial_affine_and_eval():
    p = SlabPolynomial(np.array([2.0, -1.0]), 0.5, 1)
    assert p.n == 1
    assert p(np.array([1.0, 1.0])) == pytest.approx(1.5)
    npt.assert_array_equal(p.grad(np.zeros(2)), [2.0, -1.0])
    # the report's polynomial cannot be changed, and a point is validated
    with pytest.raises(ValueError):
        p.g[0] = 1.0
    with pytest.raises(AttributeError):
        p.n = 2
    with pytest.raises(BodyError, match="non-finite"):
        p(np.array([np.nan, 0.0]))
    with pytest.raises(BodyError, match="dimension"):
        p(np.zeros(3))
    with pytest.raises(ValueError, match="degree"):
        SlabPolynomial(np.ones(2), 0.0, -1)


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40)
def test_poly_grad_matches_numeric(n, seed):
    rng = np.random.default_rng(seed)
    p = SlabPolynomial(0.5 * rng.normal(size=2), 0.5 * rng.normal(), n)
    x = rng.normal(size=2)
    g = p.grad(x)
    h = 1e-5
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        num = (p(x + e) - p(x - e)) / (2 * h)
        npt.assert_allclose(g[k], num, rtol=1e-5, atol=1e-5)


def test_t_polynomial_matches_t_func():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=2)
        p = extremal_polynomial(SQ, v, 1)
        y = rng.normal(scale=2.0, size=2)
        npt.assert_allclose(p(y), t_func(SQ, v, y), atol=1e-12)


def test_slab_polynomial_is_cheb_T_of_its_coordinate():
    g = np.array([0.5, 0.0])
    for n in (0, 1, 2, 3, 5):
        q = SlabPolynomial(g, 0.25, n)
        ref = Chebyshev.basis(n)
        for y in np.linspace(-2, 2, 9):
            x = np.array([y, 0.0])
            npt.assert_allclose(q(x), ref(0.5 * y + 0.25), rtol=1e-11, atol=1e-11)


def test_extremal_polynomial_is_bounded_at_high_degree():
    # a monomial expansion of T_16 of this coordinate reaches 1.1e5 on these points
    T = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))
    Y = np.random.default_rng(1).dirichlet(np.ones(3), size=200) @ T.extreme
    for n in (16, 20, 30, 40, 200):
        P = extremal_polynomial(T, np.array([1.0, 0.3]), n)
        ref = Chebyshev.basis(n)
        vals = np.array([P(y) for y in Y])
        grads = np.array([P.grad(y) for y in Y])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-9
        t = Y @ P.g + P.c0
        npt.assert_allclose(vals, ref(t), rtol=1e-9, atol=1e-9)
        dref = ref.deriv()(t)[:, None] * P.g
        npt.assert_allclose(grads, dref, rtol=1e-9, atol=1e-9 * np.max(np.abs(dref)))


def test_extremal_polynomial_interval():
    P = extremal_polynomial(INTERVAL, np.array([1.0]), 3)
    assert isinstance(P, SlabPolynomial)
    npt.assert_allclose(P(np.array([2.0])), cheb_T(3, 2.0), rtol=1e-12)
    xs = np.linspace(-1.0, 1.0, 101)
    sup = max(abs(P(np.array([x]))) for x in xs)
    assert sup <= 1.0 + 1e-10


# growth reports


def test_cheb_growth_frozen_interval_value():
    rep = cheb_growth(INTERVAL, np.array([2.0]), 2)
    assert rep.growth == 7.0
    assert isinstance(rep.extremal_eval, SlabPolynomial)
    assert rep.sup_norm_check <= 1.0 + 1e-9
    npt.assert_allclose(rep.extremal_eval(np.array([2.0])), 7.0,
                        atol=rep.witness_tol)


def test_cheb_growth_is_one_inside():
    rep = cheb_growth(SQ, np.zeros(2), 5)
    assert rep.growth == 1.0


def test_cheb_growth_monotone_in_degree():
    x = np.array([2.5, 0.3])
    vals = [cheb_growth(SQ, x, n).growth for n in (1, 2, 3, 4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@given(polygons_with_interior(), st.integers(min_value=1, max_value=6))
@settings(max_examples=15)
def test_cheb_growth_extremal_is_admissible(pair, n):
    K, _ = pair
    rng = np.random.default_rng(5)
    x = rng.normal(scale=4.0, size=2)
    rep = cheb_growth(K, x, n, n_samples=2000, seed=3)
    assert rep.sup_norm_check <= 1.0 + 1e-9
    npt.assert_allclose(rep.extremal_eval(x), rep.growth,
                        atol=rep.witness_tol + 1e-9 * max(1.0, rep.growth))


def test_sup_norm_check_equals_the_scalar_loop():
    bodies = [random_polygon(n, seed) for n, seed in ((5, 0), (8, 1), (12, 2))]
    bodies.append(make_box([-1.0, -2.0, -1.0], [1.0, 2.0, 3.0]))
    for K in bodies:
        x = 3.0 * np.ones(dim(K))
        for n in range(1, 9):
            rep = cheb_growth(K, x, n, n_samples=300, seed=4)
            loop = max(abs(rep.extremal_eval(y)) for y in _body_samples(K, 300, 4))
            npt.assert_allclose(rep.sup_norm_check, loop, rtol=1e-12, atol=1e-12)


@pytest.fixture
def empty_weights(monkeypatch):
    """The store of Chebyshev sample weights, emptied for one test and
    restored after."""
    store = {}
    monkeypatch.setattr(cheb, "_WEIGHTS", store)
    return store


def _fresh_samples(gens, n, seed):
    W = np.random.default_rng(seed).dirichlet(np.full(len(gens), 0.6), size=n)
    return np.vstack([gens, W @ gens])


def test_stored_weights_are_read_only_and_match_fresh_draws(empty_weights):
    K = make_regular_polygon(8)
    x = np.array([4.0, -3.0])
    first = cheb_growth(K, x, 5, n_samples=1000, seed=2)
    W = empty_weights[(8, 1000, 2)]
    assert not W.flags.writeable
    with pytest.raises(ValueError):
        W[0, 0] = 1.0
    again = cheb_growth(K, x, 5, n_samples=1000, seed=2)
    assert again.sup_norm_check == first.sup_norm_check
    assert list(empty_weights) == [(8, 1000, 2)]
    assert np.array_equal(_body_samples(K, 1000, 2), _fresh_samples(K.extreme, 1000, 2))
    # another body with as many generators reads the same weights
    M = make_regular_polygon(8, 2.0, (1.0, -1.0))
    assert np.array_equal(_body_samples(M, 1000, 2), _fresh_samples(M.extreme, 1000, 2))
    assert len(empty_weights) == 1


def test_weights_store_keeps_its_budgets(empty_weights):
    K = make_regular_polygon(8)
    n = body.DIRS_MAX_CELLS // 8
    assert np.array_equal(_body_samples(K, n + 1, 0), _fresh_samples(K.extreme, n + 1, 0))
    assert empty_weights == {}
    _body_samples(K, n, 0)
    assert list(empty_weights) == [(8, n, 0)]
    for seed in range(1, body.DIRS_MAX_FAMILIES + 9):
        _body_samples(K, 16, seed)
        assert len(empty_weights) <= body.DIRS_MAX_FAMILIES
    # the oldest draws were dropped first
    assert list(empty_weights) == [(8, 16, s) for s in range(9, body.DIRS_MAX_FAMILIES + 9)]


def test_zero_samples_name_the_count():
    # a body without generators is sampled from its inscribed ball alone, so
    # zero samples leave no point to check; a polytope keeps its vertices
    for K in (Ball(np.zeros(2), 1.0), make_weighted_l2_ball(3, "i")):
        with pytest.raises(ValueError, match="n_samples"):
            cheb_growth(K, np.full(dim(K), 2.0), 3, n_samples=0)
    rep = cheb_growth(SQ, np.array([2.0, 0.0]), 3, n_samples=0)
    assert rep.sup_norm_check == 1.0


def test_cheb_growth_lp_count_is_independent_of_samples(lp_solves):
    x = np.array([2.5, 0.3])
    counts = []
    for n_samples in (10, 1000):
        # a fresh box each time, so both counts include its one-time preparation
        box = make_box([-1.0, -1.0], [1.0, 1.0])
        lp_solves.clear()
        rep = cheb_growth(box, x, 3, n_samples=n_samples)
        counts.append(len(lp_solves))
        assert rep.sup_norm_check <= 1.0 + 1e-9
        npt.assert_allclose(rep.extremal_eval(x), rep.growth, rtol=1e-9)
    assert counts[0] == counts[1]


def test_leading_growth_evaluator_solves_no_lps(lp_solves):
    box = make_box([-1.0, -2.0], [1.0, 2.0])
    rep = leading_growth(box, np.array([1.0, 0.5]), 3)
    lp_solves.clear()
    vals = [rep.extremal_eval(y) for y in np.random.default_rng(2).uniform(-1, 1, (50, 2))]
    assert not lp_solves
    assert max(abs(v) for v in vals) <= 1.0 + 1e-9


def test_leading_growth_clips_rows_without_lp(lp_solves):
    T = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))
    box = make_box([-1.0, -2.0], [1.0, 2.0])
    vertex_candidates(box)               # the box prepares its vertices once
    lp_solves.clear()
    for K in (T, box):
        assert leading_growth(K, np.array([1.0, 0.5]), 3).witness_dir is not None
    assert not lp_solves


def test_leading_growth_interval_exact():
    for n in (1, 5, 20):
        rep = leading_growth(INTERVAL, np.array([1.0]), n)
        assert rep.value == 2.0 ** (n - 1)
        assert rep.tau == 2.0


def test_leading_growth_triangle_frozen():
    T = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))
    rep = leading_growth(T, np.array([1.0, 0.0]), 2)
    npt.assert_allclose(rep.value, 2.0 ** 3 / 36.0, rtol=1e-12)
    npt.assert_allclose(rep.tau, 6.0, atol=1e-9)


@given(polygons_with_interior(), unit_dirs(), st.integers(min_value=1, max_value=6))
@settings(max_examples=25)
def test_leading_growth_witness_attains_value(pair, v, n):
    # directional leading coefficient of T_n(t(K, v*, .)) along v:
    # 2^(n-1) (grad t . v)^n must equal the reported growth value
    K, _ = pair
    rep = leading_growth(K, v, n)
    assert rep.witness_dir is not None
    P = rep.extremal_eval
    assert isinstance(P, SlabPolynomial) and P.n == n
    lead = 2.0 ** (n - 1) * float(P.g @ v) ** n  # P.g is the gradient of t
    npt.assert_allclose(lead, rep.value, rtol=1e-6)


def test_values_past_float_range_are_inf():
    # one overflow convention: T_n, T_n', the growth, the leading
    # coefficient and the Bernstein bounds all give inf, none raises
    assert cheb_T(700, 3.0) == np.inf
    assert cheb_T_prime(700, 3.0) == np.inf
    assert cheb_growth(SQ, np.array([3.0, 0.0]), 700, n_samples=16).growth == np.inf
    assert leading_growth(SQ, np.array([1.0, 0.0]), 600).value == 2.0 ** 599
    for n in (2000, 10**400):
        assert leading_growth(SQ, np.array([1.0, 0.0]), n).value == np.inf
    rep = bernstein_bound(SQ, np.zeros(2), 10**400)
    assert rep.theorem_bound == rep.conjecture_bound == np.inf
    assert rep.width == 2.0


def test_leading_growth_rejects_zero_direction():
    with pytest.raises(BodyError):
        leading_growth(SQ, np.zeros(2), 2)


def test_flat_critical_bodies_have_zero_chord_and_infinite_growth():
    # the prism's critical body is a segment along x3, the triangle's a point
    for K, v in ((make_sobczyk_prism(), (1.0, 0.0, 0.0)), (make_simplex(2), (1.0, 0.0))):
        C = alpha_inf(K).critical_body.body
        tau = max_chord(C, v)
        assert tau == 0.0 and np.copysign(1.0, tau) == 1.0
        rep = leading_growth(C, v, 3)
        assert rep.value == np.inf and rep.tau == 0.0
        assert rep.witness_dir is None and rep.extremal_eval is None


def test_degree_checks_raise():
    for f in (cheb_T, cheb_T_prime):
        with pytest.raises(ValueError, match="degree must be >= 0"):
            f(-1, 0.5)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        cheb_growth(SQ, np.array([2.0, 0.0]), 0)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        leading_growth(SQ, np.array([1.0, 0.0]), 0)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        bernstein_bound(SQ, np.zeros(2), 0)


# derivative bounds


def test_bernstein_square_center_frozen():
    rep = bernstein_bound(SQ, np.zeros(2), 1)
    assert rep.theorem_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.conjecture_bound == pytest.approx(1.0, abs=1e-12)
    assert rep.width_exact


def test_bernstein_simplex_frozen():
    S = make_simplex(2)
    c = np.full(2, 1.0 / 3.0)
    rep = bernstein_bound(S, c, 3)
    # alpha = 1/3, w = sqrt(2)/2... the values pin the formula shape
    a = alpha(S, c).alpha
    w = rep.width
    expect = 2.0 * 3 / (w * np.sqrt(1.0 - a))
    npt.assert_allclose(rep.theorem_bound, expect, rtol=1e-12)
    assert rep.conjecture_bound <= rep.theorem_bound


def test_bernstein_scales_with_norm_bound():
    a = bernstein_bound(SQ, np.zeros(2), 2, norm_bound=1.0)
    b = bernstein_bound(SQ, np.zeros(2), 2, norm_bound=3.0)
    npt.assert_allclose(b.theorem_bound, 3.0 * a.theorem_bound, rtol=1e-12)


@pytest.mark.parametrize("norm_bound", [0.0, -1.0, np.nan, np.inf])
def test_bernstein_rejects_a_bound_that_is_not_finite_and_positive(norm_bound):
    with pytest.raises(ValueError, match="norm bound must be finite and positive"):
        bernstein_bound(SQ, np.zeros(2), 2, norm_bound=norm_bound)


def test_bernstein_rejects_boundary_point():
    with pytest.raises(BodyError):
        bernstein_bound(SQ, np.array([1.0, 1.0]), 2)


@given(polygons_with_interior(), st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_bernstein_bound_holds_for_certified_family(pair, n):
    # |grad T_n(t(K,v,.))| at x is |T_n'(t)| * |grad t|; the sup norm of the
    # composite on K is 1, so the theorem bound must dominate
    K, x = pair
    rng = np.random.default_rng(n)
    rep = bernstein_bound(K, x, n)
    for _ in range(10):
        v = rng.normal(size=2)
        g = np.linalg.norm(extremal_polynomial(K, v, n).grad(x))
        assert g <= rep.theorem_bound + 1e-6 * max(1.0, rep.theorem_bound)


def test_bernstein_ball_center():
    B = Ball(np.zeros(2), 1.0)
    rep = bernstein_bound(B, np.zeros(2), 4)
    npt.assert_allclose(rep.theorem_bound, 4.0, rtol=1e-12)


def test_extremal_polynomial_rejects_a_zero_width_direction():
    segment = VPolytope(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(BodyError, match="^degenerate direction: zero width$"):
        extremal_polynomial(segment, np.array([1.0, -1.0]), 3)
