"""Width, chords, symmetrization, Hausdorff distance.

The frozen values come from the triangle conv{(10,10),(16,10),(10,16)}:
global width 3*sqrt(2), diameter 6*sqrt(2), farthest point norm sqrt(356),
symmetrization a hexagon with vertices (+-3,0),(0,+-3),(3,-3),(-3,3).
"""

import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize
from scipy.spatial import ConvexHull

from minkgauge import (Ball, BodyError, HPolytope, Product, SupportOracle, VPolytope,
                       central_symm, chord,
                       chord_witness_dir, diameter, dim, far_radius,
                       global_width, hausdorff, homothety, inscribed_ball,
                       max_chord, polygon_vertices, sphere_dirs, support,
                       width_dir)
from minkgauge import alpha, bernstein_bound, beta, body, brute_force_alpha, gauge, geometry, lp
from minkgauge.body import lp_encoding, vertex_candidates
from minkgauge.cheb import leading_growth
from minkgauge.shapes import make_regular_polygon, make_weighted_l2_ball

from conftest import (MAX_SEED, POLYTOPE_KINDS, counted_oracle, polygon_pairs, polygons,
                      polytopes, seeded_polytope, unit_dirs)


HEX_VERTICES = {(3.0, 0.0), (0.0, 3.0), (-3.0, 0.0), (0.0, -3.0), (3.0, -3.0), (-3.0, 3.0)}


def test_triangle_width(paper_triangle):
    w = global_width(paper_triangle)
    assert w.exact
    npt.assert_allclose(w.value, 3.0 * np.sqrt(2.0), atol=1e-9)


def test_triangle_diameter_and_far_radius(paper_triangle):
    npt.assert_allclose(diameter(paper_triangle), 6.0 * np.sqrt(2.0), atol=1e-9)
    npt.assert_allclose(far_radius(paper_triangle), np.sqrt(356.0), atol=1e-9)


def test_triangle_symmetrization_is_the_hexagon(paper_triangle):
    C = central_symm(paper_triangle)
    V = {(round(float(a), 9), round(float(b), 9)) for a, b in C.vertices}
    assert V == HEX_VERTICES


def test_width_dir_is_support_sum(unit_square):
    v = np.array([1.0, 1.0])
    npt.assert_allclose(width_dir(unit_square, v),
                        support(unit_square, v) + support(unit_square, -v),
                        atol=1e-12)


def test_max_chord_square_diagonal(unit_square):
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    npt.assert_allclose(max_chord(unit_square, u), 2.0 * np.sqrt(2.0), atol=1e-9)
    npt.assert_allclose(max_chord(unit_square, np.array([1.0, 0.0])), 2.0, atol=1e-9)


def test_max_chord_interval_closed_form():
    I = VPolytope(np.array([[-1.0], [3.0]]))
    npt.assert_allclose(max_chord(I, np.array([1.0])), 4.0, atol=1e-12)
    npt.assert_allclose(max_chord(I, np.array([-2.0])), 2.0, atol=1e-12)


def test_max_chord_ball():
    B = Ball(np.array([1.0, 1.0]), 2.5)
    npt.assert_allclose(max_chord(B, np.array([0.0, 1.0])), 5.0, atol=1e-12)


@given(polygons(), unit_dirs())
@settings(max_examples=50)
def test_chord_width_diameter_sandwich(K, u):
    # w(K) <= w(K,u), tau(K,u) <= d(K)
    w = global_width(K).value
    d = diameter(K)
    t = max_chord(K, u)
    assert w - 1e-9 <= t <= d + 1e-9
    assert w - 1e-9 <= width_dir(K, u) <= d + 1e-9


@given(polygons())
@settings(max_examples=30)
def test_width_is_twice_symmetrization_inradius(K):
    r = inscribed_ball(central_symm(K))[1]
    npt.assert_allclose(global_width(K).value, 2.0 * r, atol=1e-9)


@given(st.one_of(polygons(), polytopes(3, 4)), st.integers(min_value=0, max_value=MAX_SEED))
@settings(max_examples=40)
def test_chord_witness_pairs_width_with_chord(K, seed):
    # the witness normal v* turns tau(K,u) into the attained width w(K,v*)
    u = np.random.default_rng(seed).normal(size=dim(K))
    u /= np.linalg.norm(u)
    vstar = chord_witness_dir(K, u)
    assert vstar is not None
    npt.assert_allclose(np.linalg.norm(vstar), 1.0, atol=1e-12)
    tau = max_chord(K, u)
    npt.assert_allclose(width_dir(K, vstar), tau * float(vstar @ u),
                        atol=1e-6 * max(1.0, tau))


def test_chord_witness_needs_facet_rows():
    # the symmetrization of the cube in R^5 and of a ball have no facet rows
    cube = VPolytope(np.array(list(itertools.product([-1.0, 1.0], repeat=5))))
    assert chord_witness_dir(cube, np.arange(1.0, 6.0)) is None
    assert chord_witness_dir(Ball(np.ones(3), 2.0), np.array([1.0, 0.0, 0.0])) is None


def _two_copy_chord_lp(K, v):
    # the LP that max_chord solved before the clip of the symmetrization's
    # rows, kept as an independent reference: variables (u1, u2, t) with
    # P u2 + q = P u1 + q + t v, t maximized
    e = lp_encoding(K)
    n, d = 2 * e.n + 1, v.size
    m_eq, m_ub = e.A_eq.shape[0], e.A_ub.shape[0]
    A_eq = np.zeros((2 * m_eq + d, n))
    A_eq[:m_eq, :e.n] = e.A_eq
    A_eq[m_eq:2 * m_eq, e.n:2 * e.n] = e.A_eq
    A_eq[2 * m_eq:, :e.n] = e.P
    A_eq[2 * m_eq:, e.n:2 * e.n] = -e.P
    A_eq[2 * m_eq:, -1] = v
    A_ub = np.zeros((2 * m_ub, n))
    A_ub[:m_ub, :e.n] = e.A_ub
    A_ub[m_ub:, e.n:2 * e.n] = e.A_ub
    c = np.zeros(n)
    c[-1] = 1.0
    res = lp.solve(c, A_ub=A_ub if A_ub.size else None,
                   b_ub=np.concatenate([e.b_ub, e.b_ub]) if A_ub.size else None,
                   A_eq=A_eq, b_eq=np.concatenate([e.b_eq, e.b_eq, np.zeros(d)]),
                   bounds=e.bounds + e.bounds + [(0, None)], sense="max")
    assert res.optimal
    return res.value


def _seeded_chord_bodies(rng):
    for d in (1, 2, 3, 4, 5):
        for kind in POLYTOPE_KINDS:
            yield seeded_polytope(kind, d, rng)
    for d1, d2 in ((1, 1), (2, 1), (2, 2), (3, 2)):
        yield Product((seeded_polytope("vpolytope", d1, rng),
                       seeded_polytope("hpolytope", d2, rng)))


def test_max_chord_matches_the_two_copy_lp():
    rng = np.random.default_rng(12)
    for K in _seeded_chord_bodies(rng):
        for v in rng.normal(size=(3, dim(K))):
            npt.assert_allclose(max_chord(K, v), _two_copy_chord_lp(K, v), rtol=1e-9)


def test_max_chord_clips_rows_without_lp(lp_solves):
    rng = np.random.default_rng(13)
    for d, kind in itertools.product((1, 2, 3, 4), POLYTOPE_KINDS):
        K = seeded_polytope(kind, d, rng)
        vertex_candidates(K)             # an H-polytope prepares its vertices once
        lp_solves.clear()
        max_chord(K, rng.normal(size=d))
        assert not lp_solves
    # no facet rows in R^5: one stacked LP on the symmetrization
    cube = VPolytope(np.array(list(itertools.product([-1.0, 1.0], repeat=5))))
    lp_solves.clear()
    npt.assert_allclose(max_chord(cube, np.array([1.0, 0.0, 0.0, 0.0, 0.0])), 2.0, rtol=1e-9)
    assert len(lp_solves) == 1


@given(polygons(), unit_dirs())
@settings(max_examples=50)
def test_sampled_chords_never_beat_the_width(K, u):
    assert max_chord(K, u) >= global_width(K).value - 1e-9


def test_hausdorff_identical_bodies(paper_triangle):
    res = hausdorff(paper_triangle, paper_triangle)
    assert res.exact
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_hausdorff_translation_distance(unit_square):
    z = np.array([3.0, 4.0])
    res = hausdorff(unit_square, homothety(unit_square, 1.0, z))
    assert res.exact
    npt.assert_allclose(res.value, 5.0, atol=1e-9)


def test_hausdorff_balls_closed_form():
    res = hausdorff(Ball(np.zeros(2), 1.0), Ball(np.array([2.0, 0.0]), 3.0))
    assert res.exact
    npt.assert_allclose(res.value, 4.0, atol=1e-12)


def test_hausdorff_nested_squares(unit_square):
    res = hausdorff(unit_square, homothety(unit_square, 2.0))
    assert res.exact
    npt.assert_allclose(res.value, np.sqrt(2.0), atol=1e-9)


@given(polygon_pairs())
@settings(max_examples=30)
def test_hausdorff_symmetry(pair):
    K, M = pair
    a = hausdorff(K, M)
    b = hausdorff(M, K)
    assert a.exact and b.exact
    npt.assert_allclose(a.value, b.value, atol=1e-9)


@given(polygon_pairs())
@settings(max_examples=20)
def test_hausdorff_sampled_is_monotone_lower_bound(pair):
    K, M = pair
    exact = hausdorff(K, M).value

    def wrap(P):
        c, r = inscribed_ball(P)
        return SupportOracle(lambda v, _P=P: support(_P, v), c, r, far_radius(P) + 1.0)

    KO, MO = wrap(K), wrap(M)
    prev = -np.inf
    for n in (64, 128, 256, 512):
        res = hausdorff(KO, MO, n_dirs=n, seed=5)
        assert not res.exact
        assert res.value <= exact + 1e-9
        assert res.value >= prev - 1e-12  # nested direction family
        prev = res.value


def test_oracle_sweeps_are_batched_and_tight():
    # semi-axes of sum w_n x_n^2 <= 1 with w = (2, 3/2, 4/3): 1/sqrt(w)
    K, counts = counted_oracle(3)
    axes = 1.0 / np.sqrt([2.0, 1.5, 4.0 / 3.0])
    v = np.array([1.0, 1.0, 0.0])
    tau = 2.0 / np.sqrt(2.0 * 1.0 + 1.5 * 1.0)   # v / tau is on the boundary
    npt.assert_allclose(max_chord(K, v), tau, rtol=1e-6)
    npt.assert_allclose(global_width(K).value, 2.0 * axes.min(), rtol=1e-6)
    npt.assert_allclose(diameter(K), 2.0 * axes.max(), rtol=1e-6)
    npt.assert_allclose(far_radius(K), axes.max(), rtol=1e-6)
    assert counts["h"] == 0


def test_multistart_polish_is_one_call_per_step(monkeypatch):
    # the prepass is one batched call; every iteration of the descent is one
    # more, on the live starts and their d forward-difference neighbours
    K, counts = counted_oracle(5)
    rows = []
    search = geometry._multistart_sphere

    def recorded(f, C, *args, **kwargs):
        def counted(U):
            rows.append(len(U))
            return f(U)
        return search(counted, C, *args, **kwargs)
    monkeypatch.setattr(geometry, "_multistart_sphere", recorded)
    far_radius(K)
    iterations = rows[1:]
    assert rows[0] == len(geometry._sphere_starts(5, 4))
    assert iterations[0] == 32 * 6
    assert 1 < len(iterations) <= geometry.SWEEP_MAX_ITER
    assert all(n % 6 == 0 and n <= 32 * 6 for n in iterations)
    assert counts["h_many"] == 1 + len(iterations)
    assert counts["h"] == 0


def test_oracle_width_sweep_runs_once_per_body():
    # the width sweep depends on the body alone, so a reused oracle answers
    # its width from the cache with no h_many call
    K, counts = counted_oracle(3)
    x = np.array([0.1, -0.2, 0.05])
    first = [global_width(K), bernstein_bound(K, x, 4)]
    swept = counts["h_many"]
    assert swept > 0 and counts["h"] == 0
    again = global_width(K)
    assert counts["h_many"] == swept
    assert again.value == first[0].value and not again.exact
    npt.assert_array_equal(again.direction, first[0].direction)
    # a second Bernstein bound pays only for its sampled alpha, which
    # depends on x; its width is the cached one
    alpha(K, x)
    per_alpha = counts["h_many"] - swept
    rep = bernstein_bound(K, x, 4)
    assert counts["h_many"] == swept + 2 * per_alpha
    assert rep == first[1] and rep.width == first[0].value


def test_swept_width_direction_is_read_only():
    # the body's cached direction cannot be written; global_width hands out
    # a copy, as the exact route hands out a fresh array
    K, _ = counted_oracle(2)
    w = global_width(K)
    cached = K.swept_width[1]
    assert not cached.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        cached[0] = 1.0
    w.direction[0] = 1.0
    npt.assert_array_equal(global_width(K).direction, cached)


def test_homothety_image_runs_its_own_sweep():
    K, counts = counted_oracle(3)
    w = global_width(K).value
    swept = counts["h_many"]
    S = homothety(K, 2.0, np.ones(3))
    npt.assert_allclose(global_width(S).value, 2.0 * w, rtol=1e-6)
    assert counts["h_many"] > swept
    assert global_width(K).value == w


def _lbfgsb_sphere(f, C, sense="min", n_starts=64):
    """The per-start scipy L-BFGS-B search the batched descent replaced."""
    sign = 1.0 if sense == "min" else -1.0

    def g(V):
        nv = np.linalg.norm(V, axis=1)
        out = np.full(len(V), np.inf)
        ok = nv >= 1e-12
        if np.any(ok):
            out[ok] = sign * np.asarray(f(V[ok] / nv[ok, None]), dtype=float)
        return out

    def value_and_grad(v):
        steps = v + geometry.FD_STEP * np.eye(v.size)
        vals = g(np.vstack([v, steps]))
        with np.errstate(invalid="ignore"):
            return vals[0], (vals[1:] - vals[0]) / (np.diag(steps) - v)

    vals = g(C)
    order = np.argsort(vals)
    best_v, best = C[order[0]], vals[order[0]]
    pre = best
    for idx in order[:n_starts]:
        res = optimize.minimize(value_and_grad, C[idx], method="L-BFGS-B", jac=True)
        if res.fun < best:
            best, best_v = res.fun, np.asarray(res.x, dtype=float)
    return best_v / np.linalg.norm(best_v), sign * best, sign * pre


def _oracle_sweeps(K, x, v):
    """Sampled alpha inside and outside, tau, width, diameter and far radius,
    each with the sign that makes a larger value a tighter bound."""
    return np.array([alpha(K, x).alpha, alpha(K, 3.0 * x).alpha, -max_chord(K, v),
                     -global_width(K).value, diameter(K), far_radius(K)])


@pytest.mark.parametrize("mode", ["i", "ii"])
def test_batched_search_is_as_tight_as_lbfgsb(monkeypatch, mode):
    rng = np.random.default_rng(21)
    for d in range(2, 9):
        K = make_weighted_l2_ball(d, mode)
        x, v = 0.5 * rng.normal(size=d), rng.normal(size=d)
        got = _oracle_sweeps(K, x, v)
        with monkeypatch.context() as m:
            m.setattr(geometry, "_multistart_sphere", _lbfgsb_sphere)
            m.setattr(gauge, "_multistart_sphere", _lbfgsb_sphere)
            # a fresh body: K keeps the width sweep it has run
            ref = _oracle_sweeps(make_weighted_l2_ball(d, mode), x, v)
        assert np.all(got >= ref - 1e-9 * np.abs(ref)), (d, got - ref)


@pytest.mark.parametrize("d", [3, 4])
def test_difference_body_rows_are_one_hull(d, qhull_calls):
    rng = np.random.default_rng(d)
    for _ in range(3):
        K = seeded_polytope("vpolytope", d, rng)
        V = rng.normal(size=(2, d))
        n = len(K.vertices)
        k = len(ConvexHull(K.vertices).vertices)
        qhull_calls.clear()
        # one hull prunes K to its k extreme points and one hull of their
        # halved differences gives C's rows, for all three queries together
        for v in V:
            max_chord(K, v)
            global_width(K)
            leading_growth(K, v, 3)
        assert qhull_calls == [n, k * k]


def test_product_rows_are_its_factors_rows(qhull_calls):
    # C(K1 x K2) = C(K1) x C(K2): each 40-gon hulls its 40 vertices and its
    # 1,600 halved differences in the plane, and the product hulls none of
    # the 1,600^2 differences of its 1,600 extreme points in R^4
    P = make_regular_polygon(40)
    Q = make_regular_polygon(40, radius=0.7, phase=0.1)
    K = Product((P, Q))
    v = np.array([1.0, 0.3, 0.2, -1.0])
    w, tau = global_width(K), max_chord(K, v)
    assert qhull_calls == [40, 1600, 40, 1600]
    qhull_calls.clear()
    assert global_width(K).value == w.value and max_chord(K, v) == tau
    assert not qhull_calls
    assert w.exact
    assert w.value == pytest.approx(min(global_width(P).value, global_width(Q).value),
                                    rel=1e-15)
    assert tau == pytest.approx(min(max_chord(P, v[:2]), max_chord(Q, v[2:])), rel=1e-15)
    assert not qhull_calls


def test_product_above_max_vertex_dim_has_an_exact_width():
    # two polytopes in R^3 make a product in R^6, whose C rows stack theirs
    rng = np.random.default_rng(3)
    P, Q = VPolytope(rng.normal(size=(8, 3))), VPolytope(rng.normal(size=(9, 3)))
    K = Product((P, Q))
    w = global_width(K)
    assert w.exact
    assert w.value == pytest.approx(min(global_width(P).value, global_width(Q).value),
                                    abs=1e-12)
    assert width_dir(K, w.direction) == pytest.approx(w.value, abs=1e-12)


def test_central_symm_of_a_product_is_the_product_of_its_factors_c():
    factors = (make_regular_polygon(5), VPolytope(np.array([[0.0], [2.0]])))
    K = Product(factors)
    C = central_symm(K)
    assert isinstance(C, Product) and central_symm(K) is C
    assert all(c is central_symm(f) for c, f in zip(C.factors, factors))
    assert K.symm_rows is C.facet_rows
    # a ball factor's C has no rows, so neither has the product's
    assert Product((Ball(np.zeros(2), 1.0), factors[0])).symm_rows is None


def test_interval_hausdorff():
    A = VPolytope(np.array([[0.0], [2.0]]))
    B = VPolytope(np.array([[1.0], [5.0]]))
    res = hausdorff(A, B)
    assert res.exact
    npt.assert_allclose(res.value, 3.0, atol=1e-12)


def test_hpolytope_vertices_recover_square():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    V = HPolytope(A, np.ones(4)).vertices
    got = {(round(float(a), 9), round(float(b), 9)) for a, b in V}
    want = {(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)}
    assert got == want


def test_polygon_vertices_ccw(unit_square):
    V = polygon_vertices(unit_square)
    x, y = V[:, 0], V[:, 1]
    area2 = float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert area2 > 0


def test_sphere_dirs_unit_and_nested():
    U = sphere_dirs(4, 32, 3)
    npt.assert_allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-12)
    npt.assert_allclose(sphere_dirs(4, 64, 3)[:32], U, atol=0.0)


def test_sphere_dirs_rejects_negative_counts():
    # a stored family must not answer a negative count with a slice of itself
    assert sphere_dirs(2, 8, 0).shape == (8, 2)
    assert sphere_dirs(2, 0, 0).shape == (0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        sphere_dirs(2, -1, 0)
    K, B = make_weighted_l2_ball(3, "ii"), Ball(np.zeros(3), 1.0)
    hausdorff(K, B, n_dirs=64)
    with pytest.raises(ValueError, match="nonnegative"):
        hausdorff(K, B, n_dirs=-3)


def _fresh_dirs(d, n, seed):
    U = np.random.default_rng(seed).normal(size=(n, d))
    return U / np.linalg.norm(U, axis=1, keepdims=True)


@pytest.fixture
def empty_store(monkeypatch):
    """sphere_dirs' family store, emptied for one test and restored after."""
    store = {}
    monkeypatch.setattr(body, "_DIRS", store)
    return store


@pytest.mark.parametrize("order", [(512, 2048, 512), (2048, 512)])
def test_sphere_dirs_store_is_read_only_and_matches_fresh_draws(empty_store, order):
    for d in (1, 3, 8):
        for n in order:
            U = sphere_dirs(d, n, 7)
            assert not U.flags.writeable
            with pytest.raises(ValueError):
                U[0, 0] = 1.0
            assert U.shape == (n, d)
            assert np.array_equal(U, _fresh_dirs(d, n, 7))
        assert len(empty_store[(d, 7)]) == max(order)


def test_sphere_dirs_store_keeps_its_budgets(empty_store):
    d = 8
    n = body.DIRS_MAX_CELLS // d
    assert sphere_dirs(d, n, 0).shape == (n, d)
    assert (d, 0) in empty_store
    big = sphere_dirs(d, n + 1, 0)
    assert not big.flags.writeable
    assert np.array_equal(big, _fresh_dirs(d, n + 1, 0))
    assert len(empty_store[(d, 0)]) == n
    for seed in range(1, body.DIRS_MAX_FAMILIES + 9):
        sphere_dirs(2, 16, seed)
        assert len(empty_store) <= body.DIRS_MAX_FAMILIES
    # the oldest families were dropped first
    assert list(empty_store) == [(2, s) for s in range(9, body.DIRS_MAX_FAMILIES + 9)]


def test_sphere_dirs_is_the_one_draw_of_a_reused_oracle(empty_store, monkeypatch):
    K = make_weighted_l2_ball(5, "ii")
    x = np.full(5, 0.1)
    B = Ball(np.zeros(5), 1.0)
    first = (beta(K, x), hausdorff(K, B).value)
    made = []
    rng = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return rng(*args, **kwargs)
    monkeypatch.setattr(body.np.random, "default_rng", counting)
    # the membership check of beta reads the prefix of beta's own family
    assert (beta(K, x), hausdorff(K, B).value) == first
    assert made == []


# (d, mode): beta and brute_force_alpha at 0.5 u, hausdorff against the unit
# ball, alpha at 1.5 u with its tol and witness . (1, ..., d), max_chord in
# direction u and global_width, for u the unit (1, -2, 3, ...)
SAMPLED_ANSWERS = [
    (2, 'i', (0.22514975441564541, 0.6324443868079243, 0.2928932162368576, 1.897366596101028, 1.3617484846628614e-05, -1.1094004204053602, 1.5811388300841895, 1.414213562373095)),
    (2, 'ii', (0.25659128818745014, 0.5916076609717119, 0.18350341278926485, 1.7748239349298855, 3.4036139651139052e-06, -1.5811388353235267, 1.690308509457033, 1.632993161855452)),
    (3, 'i', (0.2523545063863082, 0.5942689649389824, 0.2927366300794694, 1.7928429140015907, 0.001137057315214296, 1.4855627392909412, 1.6733200530681511, 1.4142135623730951)),
    (3, 'ii', (0.22972774195775783, 0.626743668168743, 0.22536457472559412, 1.8803495115840263, 0.0050667948345857194, 1.690308482398422, 1.5954480704349312, 1.5491933384829668)),
    (4, 'i', (0.2730656215038179, 0.5737145093507453, 0.2921875875711848, 1.732050807568877, 0.006480079847658304, -1.6329931021214272, 1.7320508075688774, 1.4142135623730951)),
    (4, 'ii', (0.22116295390395665, 0.6432154829907615, 0.2437249987905703, 1.9364916731037036, 0.01117313726732272, -1.9639609609697872, 1.5491933384829675, 1.5118578920369088)),
    (5, 'i', (0.29412850115384537, 0.546560393949863, 0.2850143374082158, 1.6922282244532925, 0.0065350662388516945, 1.8973663403927266, 1.7728105208584475, 1.4142135623730951)),
    (5, 'ii', (0.21727869835315156, 0.6089911732833332, 0.25420134587789966, 1.9713862220174592, 0.007886584174025657, 2.101952784569497, 1.521771820506862, 1.4907119849998598)),
    (6, 'i', (0.3058205177322028, 0.511908767146468, 0.28339184524717065, 1.6641005886756528, 0.005260046628951187, -2.0356529863740986, 1.8027756377345592, 1.4142135623730951)),
    (6, 'ii', (0.22762317081458003, 0.621663964356256, 0.2595999372096647, 1.9951865152834896, 0.005793140472114766, -2.3061176519505406, 1.5036188231178267, 1.4770978917519928)),
    (7, 'i', (0.315558150194798, 0.5113267803403527, 0.2764753616582458, 1.6431676725152062, 0.004317199827344798, 2.2459563053156377, 1.825741858366773, 1.4142135623730951)),
    (7, 'ii', (0.25409827897788967, 0.6026204355496441, 0.26368915884676936, 2.012461179749593, 0.0044050396234784905, 2.437799609985589, 1.490711985011006, 1.4675987714106855)),
    (8, 'i', (0.32903607334545076, 0.5065252216937239, 0.2633209840226074, 1.6269784336396809, 0.0036052017774728107, -2.3735658187611444, 1.8439088914759043, 1.4142135623730951)),
    (8, 'ii', (0.2477922949466356, 0.5978250366963335, 0.26710871455576135, 2.025571814689348, 0.0034472901329034578, -2.6076740840455495, 1.4810632623645517, 1.4605934866804429)),
]


@pytest.mark.parametrize("d,mode,want", SAMPLED_ANSWERS,
                         ids=[f"{d}{mode}" for d, mode, _ in SAMPLED_ANSWERS])
def test_sampled_answers_are_bit_exact(d, mode, want):
    K = make_weighted_l2_ball(d, mode)
    u = np.arange(1.0, d + 1) * (-1.0) ** np.arange(d)
    u /= np.linalg.norm(u)
    r = alpha(K, 1.5 * u)
    got = (beta(K, 0.5 * u), brute_force_alpha(K, 0.5 * u),
           hausdorff(K, Ball(np.zeros(d), 1.0)).value, r.alpha, r.tol,
           float(np.arange(1, d + 1) @ r.witness_dir), max_chord(K, u),
           global_width(K).value)
    assert tuple(float(v) for v in got) == want


def _hex(values):
    return [float(v).hex() for v in values]


def test_oracle_diameter_and_far_radius_are_bit_exact():
    got = []
    for d, mode in ((3, "i"), (5, "ii")):
        K = make_weighted_l2_ball(d, mode)
        got += [diameter(K), far_radius(K)]
    assert _hex(got) == ["0x1.bb67ae8584caap+0", "0x1.bb67ae8584caap-1",
                         "0x1.0000000000000p+1", "0x1.0000000000000p+0"]


# the swept widths of Gaussian V-polytopes above MAX_VERTEX_DIM, nonsmooth
# objectives: (d, value, direction)
SWEPT_POLYTOPE_WIDTHS = [
    (5, "0x1.739f611fae894p+0", ["-0x1.c56d0f89a9e33p-3", "0x1.db6abf7e2750ap-3",
                                 "-0x1.f56ce6ca00aa2p-2", "-0x1.f3afae8305391p-2",
                                 "0x1.4b7ef2a8de47ep-1"]),
    (6, "0x1.4869821585ebdp+0", ["0x1.7725d10ecab8fp-2", "-0x1.8addcde0a5ebep-2",
                                 "-0x1.42efa5c446029p-1", "0x1.1426d41cdfd6ap-2",
                                 "-0x1.f542f9a8c7859p-3", "-0x1.ba5f9448a3c6dp-2"]),
]


@pytest.mark.parametrize("d,value,direction", SWEPT_POLYTOPE_WIDTHS,
                         ids=[str(d) for d, _, _ in SWEPT_POLYTOPE_WIDTHS])
def test_swept_polytope_width_is_bit_exact(d, value, direction):
    w = global_width(VPolytope(np.random.default_rng(d).normal(size=(12, d))))
    assert not w.exact
    assert _hex([w.value]) == [value] and _hex(w.direction) == direction


def test_oracle_chord_along_a_long_v_is_bit_exact():
    got = [max_chord(make_weighted_l2_ball(d, mode), 3.0 * np.arange(1.0, d + 1))
           for d, mode in ((2, "ii"), (4, "i"))]
    assert _hex(got) == ["0x1.02061446ffa99p-2", "0x1.afc19d860616ap-4"]


@pytest.mark.parametrize("d,mode", [(2, "ii"), (3, "i"), (5, "ii")])
def test_oracle_chord_scales_with_v(d, mode):
    # tau(K, s v) = tau(K, v) / s: the floor on <u, v> scales with v, so a
    # short v keeps every direction that a unit v keeps
    K = make_weighted_l2_ball(d, mode)
    u = np.arange(1.0, d + 1) * (-1.0) ** np.arange(d)
    u /= np.linalg.norm(u)
    tau = max_chord(K, u)
    for s in (1e-100, 1e-12, 1e-9):
        npt.assert_allclose(max_chord(K, s * u) * s, tau, rtol=1e-13)
    assert np.isfinite(max_chord(K, 1e-160 * u))


CHORD_BODIES = {
    "ball": (Ball(np.array([0.3, -0.2, 0.1]), 1.3), np.array([1.0, -2.0, 3.0])),
    "box": (HPolytope(np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)),
            np.array([1.0, -2.0, 3.0])),
    "vpolytope_r5": (VPolytope(np.random.default_rng(5).normal(size=(12, 5))),
                     np.array([1.0, -2.0, 3.0, 0.5, -1.0])),
}


@pytest.mark.parametrize("name", list(CHORD_BODIES))
def test_chord_at_every_length_of_v(name):
    # the clip, the ball quadratic and the section LP see v scaled by a
    # power of two, so no length of v underflows, overflows or meets the
    # LP's absolute tolerances
    K, u = CHORD_BODIES[name]
    u = u / np.linalg.norm(u)
    tau = max_chord(K, u)
    for s in (1e-300, 1e-160, 1e-9, 1e-6, 1e6, 1e160):
        npt.assert_allclose(max_chord(K, s * u) * s, tau, rtol=1e-13)


def test_global_width_of_one_dimensional_bodies():
    for K in (VPolytope(np.array([[-1.0], [2.5]])),
              HPolytope(np.array([[1.0], [-1.0]]), np.array([2.0, 0.5])),
              Ball(np.array([4.0]), 0.75)):
        w = global_width(K)
        assert w.exact and w.direction.tolist() == [1.0]
        assert w.value == support(K, np.ones(1)) + support(K, -np.ones(1))


def test_diameter_and_far_radius_of_a_product_with_a_ball_factor():
    tri = VPolytope(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
    B = Ball(np.array([1.0, 2.0]), 0.5)
    K = Product((tri, B))
    npt.assert_allclose(diameter(K), np.hypot(5.0, 1.0), rtol=1e-15)
    npt.assert_allclose(far_radius(K), np.hypot(4.0, np.sqrt(5.0) + 0.5), rtol=1e-15)


def test_sampled_hausdorff_names_a_zero_direction_count():
    K, B = make_weighted_l2_ball(3, "i"), Ball(np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="n_dirs"):
        hausdorff(K, B, n_dirs=0)
    # exact routes sample nothing and take any count
    sq = VPolytope(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]))
    assert hausdorff(sq, sq, n_dirs=0) == (0.0, True)


def test_search_skips_zero_and_nan_starts_bit_exactly():
    # a zero row and a NaN row among the starts take the objective's guarded
    # path: both read inf, and neither becomes the answer
    C = np.vstack([geometry._sphere_starts(3, 2), np.zeros(3), np.full(3, np.nan)])
    with np.errstate(invalid="ignore"):
        v, val, pre = geometry._multistart_sphere(lambda U: U @ np.array([1.0, 2.0, -0.5]),
                                                  C, sense="min", n_starts=len(C))
    assert _hex(v) == ["-0x1.bee905f5c5479p-2", "-0x1.bee905443cf71p-1", "0x1.bee9060f587b0p-3"]
    assert _hex([val, pre]) == ["-0x1.2548eb9151e86p+1", "-0x1.1f8c21c10d217p+1"]


def test_search_against_an_infinite_wall_is_bit_exact():
    # f is inf on the cap u_1 > 0.55, which the descent runs into: trial
    # points there fail the Armijo test, and the best value is a finite one
    a = np.array([0.6, -0.3, 0.74])
    rows = []

    def f(U):
        rows.append(len(U))
        return np.where(U[:, 0] > 0.55, np.inf, np.sum((U - a) ** 2, axis=1))
    v, val, pre = geometry._multistart_sphere(f, geometry._sphere_starts(3, 6), n_starts=16)
    assert _hex(v) == ["0x1.1999993940108p-1", "-0x1.4376bbd3d3601p-2", "0x1.8bd6b1a14fc42p-1"]
    assert _hex([val, pre]) == ["0x1.f88abbe8f8a78p-9", "0x1.91a2865189da4p-6"]
    assert (len(rows), sum(rows)) == (1 + geometry.SWEEP_MAX_ITER, 10214)


def test_oracle_sweeps_evaluate_a_fixed_number_of_rows(monkeypatch):
    # (objective calls, rows evaluated) of each sweep of a sampled alpha, an
    # oracle chord and an oracle width: leaner bookkeeping in the search may
    # not buy its time with more evaluations
    sweeps = []
    search = geometry._multistart_sphere

    def recorded(f, C, *args, **kwargs):
        rows = []
        sweeps.append(rows)

        def counted(U):
            rows.append(len(U))
            return f(U)
        return search(counted, C, *args, **kwargs)
    monkeypatch.setattr(geometry, "_multistart_sphere", recorded)
    monkeypatch.setattr(gauge, "_multistart_sphere", recorded)
    K = make_weighted_l2_ball(3, "i")
    u = np.array([1.0, -2.0, 3.0]) / np.sqrt(14.0)
    alpha(K, 1.5 * u)
    max_chord(K, u)
    global_width(K)
    assert [(len(s), sum(s)) for s in sweeps] == [(10, 2577), (10, 1259), (10, 2138)]


@given(polygons(), st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=30)
def test_geometry_scales(K, t):
    S = homothety(K, t)
    npt.assert_allclose(global_width(S).value, t * global_width(K).value, atol=1e-8)
    npt.assert_allclose(diameter(S), t * diameter(K), rtol=1e-9, atol=1e-9)


def test_dim_passthrough(paper_triangle):
    assert dim(central_symm(paper_triangle)) == 2


@pytest.mark.parametrize("call, error, message", [
    (width_dir, ValueError, "direction must be nonzero"),
    (max_chord, ValueError, "direction must be nonzero"),
    (lambda K, v: chord(K, np.zeros(2), v), BodyError, "chord direction must be nonzero"),
    (chord_witness_dir, ValueError, "direction must be nonzero"),
], ids=["width_dir", "max_chord", "chord", "chord_witness_dir"])
def test_a_zero_direction_raises(call, error, message):
    K = VPolytope(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    with pytest.raises(error, match=message):
        call(K, np.zeros(2))


def test_hausdorff_needs_one_dimension():
    K = VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(BodyError, match="bodies must share a dimension"):
        hausdorff(K, VPolytope(np.eye(3)))
