"""Cross-route checks for polytopes in d = 2..4.

Every V-polytope, H-polytope and polytopal sum there has facet rows (Qhull
for vertex bodies), so the closed forms on those rows can be held against
the LP routes on the vertex data and against sampled one-sided bounds.
"""

import itertools
import json

import numpy as np
import numpy.testing as npt
from hypothesis import HealthCheck, given, settings, strategies as st

from minkgauge import (HPolytope, Product, VPolytope, alpha, alpha_inf, bernstein_bound,
                       beta, brute_force_alpha, dim, global_width, level_set, lp, make_box,
                       max_chord, rho, t_func)
from minkgauge.body import (_hull, halfspaces, interior_point, lp_encoding,
                            vertex_candidates)
from minkgauge.cli import run
from minkgauge.gauge import _alpha_lp, _level_lp, _level_membership
from minkgauge.geometry import _multistart_sphere, _sphere_starts, _widths

from conftest import (MAX_SEED, POLYTOPE_KINDS, polytopes, polytopes_with_exterior,
                      polytopes_with_interior, seeded_polytope)
from test_geometry import _two_copy_chord_lp
from test_ratios import _rho_bisect


@given(polytopes_with_interior())
@settings(max_examples=40)
def test_closed_form_alpha_matches_the_lp_inside(pair):
    K, x = pair
    res = alpha(K, x)
    assert res.method == "closed_form"
    ref = _alpha_lp(K, x)
    assert abs(res.alpha - ref.alpha) <= ref.tol


@given(polytopes_with_exterior())
@settings(max_examples=40)
def test_exterior_closed_form_matches_the_lp_and_rho(pair):
    K, x = pair
    res = alpha(K, x)
    assert res.method == "closed_form"
    scale = max(1.0, res.alpha)
    ref = _alpha_lp(K, x)
    assert abs(res.alpha - ref.alpha) <= ref.tol * scale
    assert t_func(K, res.witness_dir, x) >= res.alpha - 1e-12 * scale
    # rho, the homothety ratio on C's rows, and its bisection on disjoint
    # copies each give alpha through (1 + rho) / (1 - rho)
    r = rho(K, x)
    npt.assert_allclose((1.0 + r) / (1.0 - r), res.alpha, rtol=1e-7)
    r_ref = _rho_bisect(K, x)
    npt.assert_allclose((1.0 + r_ref) / (1.0 - r_ref), res.alpha, rtol=1e-7)


@given(polytopes_with_exterior(), st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=40)
def test_level_membership_above_one_matches_the_lp(pair, s):
    # levels on both sides of alpha > 1, as near to it as the 1e-7 band
    K, x = pair
    a = _alpha_lp(K, x).alpha
    lam = 1.0 + (a - 1.0) * (1.0 + s)
    if abs(a - lam) <= 1e-7 * a:
        return
    want = _level_lp(K, x, lam, lam)[0].optimal
    assert level_set(K, lam).contains(x) == want == (a <= lam)


@given(K=polytopes(), seed=st.integers(min_value=0, max_value=MAX_SEED))
@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow,
                                                  HealthCheck.function_scoped_fixture])
def test_difference_rows_serve_repeated_queries_without_lp(lp_solves, qhull_calls, K, seed):
    # the counters are cleared per example, after the body's preparation
    V = vertex_candidates(K)         # prepares an H-polytope's vertices
    n, d = V.shape
    k = len(_hull(np.unique(V, axis=0))[1])
    rng = np.random.default_rng(seed)
    lp_solves.clear()
    qhull_calls.clear()
    for _ in range(3):
        x = V.mean(axis=0) + 4.0 * rng.normal(size=d)
        v = rng.normal(size=d)
        res = alpha(K, x)
        assert res.method == "closed_form"
        _level_membership(K, x, 1.0 + rng.uniform(0.1, 4.0))
        global_width(K)
        max_chord(K, v)
    assert not lp_solves
    # besides K's own hulls (n points), one hull of C's k^2 candidates in all
    others = [c for c in qhull_calls if c != n]
    assert others == [k * k] or (not others and k * k == n)


@given(polytopes_with_interior())
@settings(max_examples=30)
def test_brute_force_lower_bounds_alpha(pair):
    K, x = pair
    # the interior point, and the point three times as far out on the ray
    # to it from the centre c of the vertex candidates: y - c = 3 (x - c)
    for y in (x, 3.0 * x - 2.0 * vertex_candidates(K).mean(axis=0)):
        res = alpha(K, y)
        assert brute_force_alpha(K, y, n_dirs=256) <= res.alpha + res.tol


@given(polytopes_with_interior())
@settings(max_examples=30)
def test_facet_beta_matches_the_lp(pair):
    # the erosion form of the level-set LP under lam -> (1 - lam)/(1 + lam)
    K, x = pair
    lam = _level_lp(K, x, 0.0, 1.0)[0].value
    npt.assert_allclose(beta(K, x), (1.0 - lam) / (1.0 + lam), atol=1e-9)


@given(polytopes(), st.integers(min_value=0, max_value=MAX_SEED))
@settings(max_examples=30)
def test_max_chord_matches_the_two_copy_lp(K, seed):
    v = np.random.default_rng(seed).normal(size=dim(K))
    npt.assert_allclose(max_chord(K, v), _two_copy_chord_lp(K, v), rtol=1e-9)


def _sampled_width(K):
    # the multi-start sweep the exact width replaced in d >= 3
    starts = _sphere_starts(dim(K), 0, halfspaces(K)[0])
    return _multistart_sphere(lambda U: _widths(K, U), starts, sense="min")[1]


def test_exact_width_is_below_the_sampled_sweep():
    rng = np.random.default_rng(8)
    for d, kind in itertools.product((3, 4), POLYTOPE_KINDS):
        K = seeded_polytope(kind, d, rng)
        w = global_width(K)
        assert w.exact
        # attained in the returned direction, and never above the sweep,
        # which stops up to 3.3e-7 short of the minimum on the thin
        # six-vertex body in R^4
        npt.assert_allclose(_widths(K, w.direction[None, :])[0], w.value, rtol=1e-12)
        sampled = _sampled_width(K)
        assert w.value <= sampled + 1e-12
        npt.assert_allclose(w.value, sampled, rtol=1e-5)
        assert bernstein_bound(K, interior_point(K), 3).width_exact


def test_sampled_sweep_is_tight_on_polytopes():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for d, kind in itertools.product((3, 4), POLYTOPE_KINDS):
            K = seeded_polytope(kind, d, rng)
            w = global_width(K).value
            sampled = _sampled_width(K)
            assert w - 1e-12 <= sampled <= w * (1.0 + 1e-6)


def _cube(d):
    return np.array(list(itertools.product([-1.0, 1.0], repeat=d)))


def test_alpha_inf_of_vertex_and_halfspace_forms_agree():
    for d in (3, 4):
        cross = np.vstack([np.eye(d), -np.eye(d)])
        pairs = ((VPolytope(_cube(d)), make_box(-np.ones(d), np.ones(d))),
                 (VPolytope(cross), HPolytope(_cube(d), np.ones(2 ** d))))
        for V, H in pairs:
            rv, rh = alpha_inf(V), alpha_inf(H)
            npt.assert_allclose(rv.alpha_inf, rh.alpha_inf, atol=1e-9)
            npt.assert_allclose(rv.minimizer, rh.minimizer, atol=1e-9)
            assert rv.critical_dim_estimate == rh.critical_dim_estimate


def test_cli_symmetry_answers_for_a_vertex_cube(capsys):
    body = json.dumps({"kind": "vpolytope", "vertices": _cube(3).tolist()})
    assert run(["symmetry", "--body", body]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert abs(rec["alpha_inf"]) <= 1e-9


def test_each_copies_lp_is_one_lp_over_the_scale_and_the_copies(monkeypatch):
    # both forms of the level-set LP each solve one LP: the scale in column
    # 0, the objective's only entry, minimised, then n columns per copy of K
    # for its encoding's n variables; beta and rho without rows are that LP
    objectives = []
    solver = lp.linprog

    def counted(c, *args, **kwargs):
        objectives.append(np.asarray(c))
        return solver(c, *args, **kwargs)
    monkeypatch.setattr(lp, "linprog", counted)
    rng = np.random.default_rng(51)
    bodies = (VPolytope(rng.normal(size=(9, 5))), make_box(-np.ones(5), 2.0 * np.ones(5)),
              Product((VPolytope(rng.normal(size=(6, 3))), make_box(-np.ones(2), np.ones(2)))))
    for K in bodies:
        n = lp_encoding(K).n
        x_in = interior_point(K)
        x_out = x_in + 10.0
        cases = [(lambda: _level_lp(K, x_out, 1.0, None), 2)]
        if K.symm_profile is None:
            cases.append((lambda: rho(K, x_out), 2))
        if K.extreme is not None:
            k = len(K.extreme)
            cases.append((lambda: _level_lp(K, x_in, 0.0, 1.0), k))
            if halfspaces(K) is None:
                cases.append((lambda: beta(K, x_in), k))
        for run_lp, copies in cases:
            objectives.clear()
            run_lp()
            assert len(objectives) == 1
            c = objectives[0]
            assert c.size == 1 + copies * n
            assert c[0] == 1.0 and not np.any(c[1:])
    # the H-box in R^5 has no vertices, so only the sum form and rho ran
    assert bodies[1].extreme is None
    # the product has the rows of its factors, so beta and rho solve no LP
    assert bodies[2].symm_profile is not None and halfspaces(bodies[2]) is not None
