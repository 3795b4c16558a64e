"""Per-body caching: a reused body answers from what it built on first use.

Every value that depends only on the body (extreme points, facet rows,
facet profile, difference-body rows and profile, the symmetry LP's optimum)
is cached on it, read-only.  These tests hold a reused body against fresh
copies of it bit for bit, check that the cache cannot be written, count the
hulls and LPs a reused body still builds, and hold the erosion emptiness
rule lam < alpha_inf(K) against the Chebyshev-LP decision it replaced.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minkgauge import (HPolytope, Product, Sum, VPolytope, alpha, alpha_inf, beta, cli,
                       contains, global_width, level_set, lp)
from minkgauge.body import MAX_VERTEX_DIM, vertex_candidates
from minkgauge.gauge import EMPTY_BAND, facet_profile
from minkgauge.shapes import (make_half_disc, make_regular_polygon, parse_body,
                              random_polygon)

from conftest import MAX_SEED, polygons, polytopes, seeded_polytope

LAMS = (0.3, 0.7, 1.0, 1.5, 3.0)


def fresh(K):
    """A new body equal to K, with none of K's cached values."""
    if isinstance(K, Sum):
        return Sum(tuple(fresh(T) for T in K.terms))
    if isinstance(K, Product):
        return Product(tuple(fresh(f) for f in K.factors))
    return dataclasses.replace(K)


def _points(K, seed):
    """Two interior points and two exterior ones, from K's vertex candidates."""
    V = vertex_candidates(K)
    rng = np.random.default_rng(seed)
    m = V.mean(axis=0)
    inside = [0.9 * (rng.dirichlet(np.full(len(V), 0.8)) @ V) + 0.1 * m for _ in range(2)]
    outside = [m + 4.0 * rng.normal(size=V.shape[1]) for _ in range(2)]
    return inside, inside + outside


def _answers(make, inside, points):
    """Every cached-route answer for the body that ``make`` returns."""
    out = []
    for x in points:
        r = alpha(make(), x)
        out += [r.alpha, r.witness_dir, r.method, r.tol, contains(make(), x)]
        for lam in LAMS:
            L = level_set(make(), lam)
            out += [L.empty, L.contains(x)]
    out += [beta(make(), x) for x in inside]
    rep = alpha_inf(make())
    out += [rep.alpha_inf, rep.minimizer, rep.critical_dim_estimate, rep.klee_lhs]
    w = global_width(make())
    out += [w.value, w.direction, w.exact]
    return out


def _cached_arrays(K):
    values = [K.extreme, K.facet_rows, K.profile, K.symm_rows, K.symm_profile,
              K.symmetry]
    if isinstance(K, HPolytope):
        values += [K.vertices, K.chebyshev]
    flat = []
    for v in values:
        flat.extend(v if isinstance(v, tuple) else [v])
    return [a for a in flat if isinstance(a, np.ndarray)]


def _assert_reuse_is_bit_identical(K, seed):
    inside, points = _points(K, seed)
    want = _answers(lambda: fresh(K), inside, points)
    # twice on the reused body: the first pass builds the cache, the second
    # reads it
    for _ in range(2):
        got = _answers(lambda: K, inside, points)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (g, w)
    arrays = _cached_arrays(K)
    assert arrays
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


@given(K=polytopes(), seed=st.integers(min_value=0, max_value=MAX_SEED))
@settings(max_examples=25)
def test_reused_polytope_answers_bit_identically(K, seed):
    _assert_reuse_is_bit_identical(K, seed)


@given(K=polygons(), seed=st.integers(min_value=0, max_value=MAX_SEED))
@settings(max_examples=25)
def test_reused_polygon_answers_bit_identically(K, seed):
    _assert_reuse_is_bit_identical(K, seed)


def test_reused_sum_exterior_alpha_builds_nothing(lp_solves, qhull_calls):
    # a 12 + 12 sum in R^4: its rows, extreme points and difference-body rows
    # are built by the first exterior query and read by every later one
    rng = np.random.default_rng(12)
    K = Sum((VPolytope(rng.normal(size=(12, 4))), VPolytope(rng.normal(size=(12, 4)))))
    X = [5.0 * rng.normal(size=4) for _ in range(3)]
    first = [alpha(K, x) for x in X]
    assert all(r.method == "closed_form" and r.alpha > 1.0 for r in first)
    assert len(qhull_calls) == 2 and not lp_solves
    for _ in range(3):
        lp_solves.clear()
        qhull_calls.clear()
        for x, want in zip(X, first):
            res = alpha(K, x)
            assert res.alpha == want.alpha and res.tol == want.tol
            assert np.array_equal(res.witness_dir, want.witness_dir)
        assert not lp_solves and not qhull_calls


def test_rows_above_max_vertex_dim_build_no_hull(qhull_calls):
    # above MAX_VERTEX_DIM there are no rows, and asking for them must not
    # prune the candidates with a high-dimensional hull
    rng = np.random.default_rng(5)
    K = Sum((VPolytope(rng.normal(size=(8, MAX_VERTEX_DIM + 1))),
             VPolytope(rng.normal(size=(8, MAX_VERTEX_DIM + 1)))))
    assert K.facet_rows is None and K.profile is None
    assert K.symm_rows is None and K.symm_profile is None and K.symmetry is None
    assert not qhull_calls


def _chebyshev_empty(K, lam):
    # the Chebyshev-LP decision, which level_set keeps only within EMPTY_BAND
    # of alpha_inf: the eroded rows have no Chebyshev centre
    A, hp, hm = facet_profile(K)
    try:
        _, r = lp.chebyshev_center(A, (1.0 + lam) / 2.0 * hp - (1.0 - lam) / 2.0 * hm)
    except lp.NumericalError:
        return True
    return r < -1e-12


def _emptiness_bodies():
    for s in range(12):
        yield random_polygon(int(3 + s % 8), s + 700, radius=0.5 + 0.1 * s,
                             center=(s % 3 - 1.0, 0.5 * (s % 2)))
    yield make_regular_polygon(5, 1.5, center=(0.3, -0.2))
    yield make_half_disc(24)
    rng = np.random.default_rng(31)
    for d in (3, 4):
        for kind in ("vpolytope", "hpolytope", "sum"):
            for _ in range(2):
                yield seeded_polytope(kind, d, rng)


OFFSETS = (-0.3, -0.05, -1e-3, -1e-5, -1e-6, -3e-7, 3e-7, 1e-6, 1e-5, 1e-3, 0.05, 0.3)


def test_erosion_emptiness_matches_the_chebyshev_lp():
    checked = 0
    for K in _emptiness_bodies():
        s = alpha_inf(K).alpha_inf
        for off in OFFSETS:
            lam = s + off
            if not 0.0 <= lam <= 1.0:
                continue
            assert abs(off) > EMPTY_BAND
            L = level_set(K, lam)
            assert L.empty == _chebyshev_empty(K, lam) == (off < 0), (K, s, off)
            assert (L.body is None) == L.empty
            checked += 1
    assert checked >= 200


def test_erosion_emptiness_costs_one_lp_per_body(lp_solves):
    rng = np.random.default_rng(8)
    for K in (random_polygon(9, 8), seeded_polytope("vpolytope", 3, rng),
              seeded_polytope("sum", 4, rng)):
        s = alpha_inf(fresh(K)).alpha_inf
        lams = [lam for lam in np.linspace(0.0, 1.0, 22) if abs(lam - s) > EMPTY_BAND][:20]
        lp_solves.clear()
        sets = [level_set(K, lam) for lam in lams]
        # the symmetry LP, once for the body
        assert len(lams) == 20 and len(lp_solves) <= 1
        assert [L.empty for L in sets] == [lam < s for lam in lams]
        # alpha_inf reads the same optimum and adds only its critical-set LP
        lp_solves.clear()
        assert alpha_inf(K).alpha_inf == s
        assert len(lp_solves) == 1


def _grid(K_spec, low, high, capsys):
    code = cli.run(["grid", "--body", K_spec, "--low", low, "--high", high, "--steps", "4"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


@pytest.mark.parametrize("vertices", [
    np.random.default_rng(5).normal(size=(9, 2)),
    np.random.default_rng(6).normal(size=(12, 3)),
])
def test_cli_grid_builds_the_body_hull_once(vertices, capsys, qhull_calls):
    n, d = vertices.shape
    spec = json.dumps({"kind": "vpolytope", "vertices": vertices.tolist()})
    low, high = ",".join(["-2.5"] * d), ",".join(["2.5"] * d)
    qhull_calls.clear()
    out = _grid(spec, low, high, capsys)
    # K's hull once for all 4^d rows; in R^3 the exterior rows add the one
    # hull of the difference body
    assert qhull_calls.count(n) == 1
    assert len(qhull_calls) == (1 if d == 2 else 2)
    # the same bytes as alpha on a fresh body per row
    axis = np.linspace(-2.5, 2.5, 4)
    want = [",".join(f"x{i + 1}" for i in range(d)) + ",alpha"]
    for idx in np.ndindex(*(4,) * d):
        pt = axis[list(idx)]
        a = alpha(parse_body(json.loads(spec)), pt).alpha
        want.append(",".join(f"{v:.12g}" for v in pt) + f",{a:.12g}")
    assert out.splitlines() == want
