"""End-to-end acceptance checks, one per headline capability.

Each test prints a single summary line with the computed values so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as a results table.  The
tolerances are part of the package contract and are asserted literally.

One check is expected to fail by construction and is marked strict-xfail:
the half-disc minimizer really does differ from the centroid, but the gap
is about 0.0102, so a separation threshold of 0.05 cannot be met even
though the geometric statement it guards is true (and is asserted with the
correct smaller threshold in the companion test).
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

from minkgauge import (Ball, Product, Sum, VPolytope, alpha, alpha_inf,
                       beta, bernstein_bound, centroid, central_symm, cheb_T,
                       cheb_T_prime, cheb_growth, compose_cheb, contains,
                       diameter, extremal_polynomial, far_radius, global_width,
                       hausdorff, homothety, leading_growth, level_set, make_half_disc,
                       make_regular_polygon, make_simplex, make_sobczyk_prism,
                       make_weighted_l2_ball, max_chord, poly_eval, poly_grad,
                       ratio_functionals, rho, sphere_dirs, support,
                       t_polynomial)
from minkgauge import lp
from minkgauge.body import encoding_feasible, lp_encoding
from minkgauge.geometry import _planar_points, _support_gap, _vertex_distances
from minkgauge.shapes import random_polygon

TRIANGLE = VPolytope(np.array([[10.0, 10.0], [16.0, 10.0], [10.0, 16.0]]))
HEX_VERTICES = {(3.0, 0.0), (0.0, 3.0), (-3.0, 0.0),
                (0.0, -3.0), (3.0, -3.0), (-3.0, 3.0)}


def seeded_polygon(seed, n_min=3, n_max=10, spread=2.0):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_min, n_max + 1))
    c = rng.uniform(-spread, spread, size=2)
    return random_polygon(n, seed + 1000, radius=float(rng.uniform(0.5, 2.0)),
                          center=c)


def interior_point(K, seed):
    rng = np.random.default_rng(seed)
    V = K.vertices
    w = rng.dirichlet(np.full(len(V), 0.8))
    return 0.9 * (w @ V) + 0.1 * V.mean(axis=0)


def exterior_point(K, seed, margin_hi=2.0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    h = max(float(u @ v) for v in K.vertices)
    return (h + rng.uniform(0.1, margin_hi)) * u


def test_triangle_width_diameter_symmetrization_and_level_point():
    w = global_width(TRIANGLE)
    assert w.exact
    npt.assert_allclose(w.value, 3.0 * np.sqrt(2.0), atol=1e-9)
    D = far_radius(TRIANGLE)
    npt.assert_allclose(D, np.sqrt(356.0), atol=1e-9)

    C = central_symm(TRIANGLE)
    got = {(float(a), float(b)) for a, b in C.vertices}
    assert got == HEX_VERTICES

    L = level_set(TRIANGLE, 1.0 / 3.0)
    assert not L.empty
    c, r = lp.chebyshev_center(L.body.A, L.body.b)
    npt.assert_allclose(c, [12.0, 12.0], atol=1e-8)
    assert r <= 1e-8

    # the distance from the scaled symmetrization's vertex (0,-1) to the
    # one-point level set beats D - w/2, so no matching bound can hold
    # for shrinking level sets
    gap = float(np.linalg.norm(np.array([0.0, -1.0]) - c))
    npt.assert_allclose(gap, np.sqrt(313.0), atol=1e-9)
    bound = D - w.value / 2.0
    assert gap > bound
    print(f"PASS triangle regression: w={w.value:.12f} D={D:.12f} "
          f"level point={c.round(9).tolist()} gap={gap:.6f} > {bound:.6f}")


def test_simplex_symmetry_constant_and_centroid_minimum():
    for d in range(1, 5):
        S = make_simplex(d)
        rep = alpha_inf(S)
        npt.assert_allclose(rep.alpha_inf, (d - 1.0) / (d + 1.0), atol=1e-8)
        assert rep.critical_dim_estimate == 0
        npt.assert_allclose(rep.minimizer, np.full(d, 1.0 / (d + 1.0)), atol=1e-6)
    worst = 0.0
    for seed in range(200):
        K = seeded_polygon(seed)
        val = alpha(K, centroid(K)).alpha
        worst = max(worst, val)
        assert val <= 1.0 / 3.0 + 1e-8
    print(f"PASS simplex constants (d-1)/(d+1) for d=1..4; "
          f"200 polygon centroids alpha <= 1/3 (max {worst:.9f})")


def test_prism_critical_segment_and_codimension_equality():
    P = make_sobczyk_prism()
    rep = alpha_inf(P)
    npt.assert_allclose(rep.alpha_inf, 1.0 / 3.0, atol=1e-8)
    assert rep.critical_dim_estimate == 1

    body = rep.critical_body.body
    seg = VPolytope(np.array([[2 / 3, 2 / 3, -1 / 3], [2 / 3, 2 / 3, 1 / 3]]))
    for sgn in (1.0, -1.0):
        res = lp.solve(np.array([0.0, 0.0, sgn]), A_ub=body.A, b_ub=body.b, sense="max")
        npt.assert_allclose(res.x, [2 / 3, 2 / 3, sgn / 3.0], atol=1e-6)
    for u in sphere_dirs(3, 200, 7):
        assert abs(support(body, u) - support(seg, u)) <= 1e-6

    codim = 3 - rep.critical_dim_estimate
    npt.assert_allclose(rep.klee_lhs, 2.0, atol=1e-8)
    assert codim == 2
    print(f"PASS prism: alpha={rep.alpha_inf:.9f} critical segment "
          f"(2/3,2/3,+-1/3) codim {codim} = klee lhs {rep.klee_lhs:.6f}")


def test_half_disc_minimizer_differs_from_centroid():
    K = make_half_disc(256)
    rep = alpha_inf(K)
    target = 3.0 - 2.0 * np.sqrt(2.0)
    npt.assert_allclose(rep.alpha_inf, target, atol=1e-2)
    npt.assert_allclose(rep.minimizer, [0.0, np.sqrt(2.0) - 1.0], atol=1e-2)

    c = centroid(K)
    npt.assert_allclose(c, [0.0, 4.0 / (3.0 * np.pi)], atol=1e-3)

    gap = float(np.linalg.norm(rep.minimizer - c))
    assert gap > 0.005  # the true separation is about 0.0102
    print(f"PASS half disc: alpha={rep.alpha_inf:.9f} (target {target:.9f}) "
          f"minimizer={np.round(rep.minimizer, 6).tolist()} "
          f"centroid={np.round(c, 6).tolist()} gap={gap:.6f}")


@pytest.mark.xfail(strict=True,
                   reason="the true minimizer-centroid distance is ~0.0102; "
                          "a 0.05 separation threshold overstates it")
def test_half_disc_separation_exceeds_five_hundredths():
    K = make_half_disc(256)
    rep = alpha_inf(K)
    gap = float(np.linalg.norm(rep.minimizer - centroid(K)))
    assert gap > 0.05


def test_identity_suite_interior_and_exterior():
    worst_in = worst_out = 0.0
    for seed in range(100):
        K = seeded_polygon(seed + 300)
        x = interior_point(K, seed)
        a = alpha(K, x).alpha
        b = beta(K, x)
        res = abs(a - (1.0 - b) / (1.0 + b))
        worst_in = max(worst_in, res)
        assert res <= 1e-8
    for seed in range(100):
        K = seeded_polygon(seed + 700)
        x = exterior_point(K, seed)
        a = alpha(K, x).alpha
        r = rho(K, x)
        res = abs(a - (1.0 + r) / (1.0 - r))
        worst_out = max(worst_out, res)
        assert res <= 1e-6
    print(f"PASS identities: max |alpha-(1-beta)/(1+beta)| = {worst_in:.2e}, "
          f"max |alpha-(1+rho)/(1-rho)| = {worst_out:.2e}")


def test_chord_functionals_one_sided_with_exact_pairings():
    n_in = n_out = 0
    for seed in range(100):
        K = seeded_polygon(seed + 1100)
        inside = seed % 2 == 0
        x = interior_point(K, seed) if inside else exterior_point(K, seed)
        a = alpha(K, x).alpha
        rep = ratio_functionals(K, x, n_lines=48, seed=seed)
        if rep.n_chords == 0:
            continue
        if inside:
            n_in += 1
            assert rep.sigma >= (1.0 - a) / (1.0 + a) - 1e-9
            assert rep.nu <= a + 1e-9
            assert rep.omega <= (1.0 + a) / 2.0 + 1e-9
            assert rep.gamma_sq >= 1.0 - a * a - 1e-9
            # chordwise pairings survive the aggregation exactly
            npt.assert_allclose(rep.nu, (1.0 - rep.sigma) / (1.0 + rep.sigma),
                                atol=1e-12)
            npt.assert_allclose(rep.gamma_sq, 4.0 * rep.omega * (1.0 - rep.omega),
                                atol=1e-12)
        else:
            n_out += 1
            assert rep.sigma >= (a - 1.0) / (a + 1.0) - 1e-9
            assert rep.mu >= a - 1e-9
            npt.assert_allclose(rep.sigma, (rep.mu - 1.0) / (rep.mu + 1.0),
                                atol=1e-12)
    assert n_in >= 45 and n_out >= 45
    print(f"PASS chord functionals: one-sided on {n_in} interior / {n_out} "
          f"exterior instances, pairings exact to 1e-12")


def test_level_set_constructions_match_membership():
    rng = np.random.default_rng(17)
    checked = 0
    polys = [seeded_polygon(s + 1500) for s in range(20)]
    while checked < 10_000:
        K = polys[int(rng.integers(len(polys)))]
        lam = float(rng.uniform(0.2, 2.5))
        L = level_set(K, lam)
        c = centroid(K)
        x = c + rng.normal(scale=1.5, size=2)
        a = alpha(K, x).alpha
        if abs(a - lam) <= 1e-8:
            continue
        by_alpha = a <= lam
        by_body = (not L.empty) and contains(L.body, x, tol=1e-9)
        assert by_body == by_alpha, (K.vertices, x, lam, a)
        checked += 1
    print(f"PASS level-set membership: {checked} (point, lambda) pairs agree")


def test_level_set_composition_and_hammer_family():
    for seed in (23, 57):
        K = seeded_polygon(seed + 2000)
        U = sphere_dirs(2, 1000, 3)
        for lam in (1.2, 2.0, 3.0):
            inner = level_set(K, lam).body
            for mu in (1.2, 2.0, 3.0):
                L1 = level_set(inner, mu).body
                L2 = level_set(K, lam * mu).body
                for u in U:
                    assert abs(support(L1, u) - support(L2, u)) <= 1e-8

    K = seeded_polygon(2100)
    enc = lp_encoding(K)
    I = np.eye(2)
    rng = np.random.default_rng(29)
    c = centroid(K)
    for rho_h in (0.6, 1.0, 1.4):
        lam = 2.0 * rho_h - 1.0
        L = level_set(K, lam)
        for _ in range(120):
            x = c + rng.normal(scale=1.2, size=2)
            a = alpha(K, x).alpha
            if abs(a - lam) <= 1e-6:
                continue
            if rho_h <= 1.0:
                member = all(contains(K, (x - (1.0 - rho_h) * u) / rho_h, tol=1e-9)
                             for u in K.vertices)
            else:
                member = encoding_feasible([enc, enc],
                                           [(1.0 - rho_h) * I, rho_h * I], x)
            assert member == L.contains(x)
    print("PASS level-set algebra: composition over {1.2,2,3}^2 and the "
          "homothety family at rho in {0.6,1,1.4}")


def test_bounds_suite():
    rng = np.random.default_rng(41)
    for seed in range(40):
        K = seeded_polygon(seed + 2500)
        w = global_width(K)
        assert w.exact
        x = interior_point(K, seed) + rng.normal(scale=0.8, size=2)
        y = x + rng.normal(scale=0.8, size=2)
        ax, ay = alpha(K, x).alpha, alpha(K, y).alpha
        assert abs(ax - ay) <= 2.0 * np.linalg.norm(x - y) / w.value + 1e-8
        step = y - x
        if np.linalg.norm(step) > 1e-12:
            v = step / np.linalg.norm(step)
            assert abs(ax - ay) <= 2.0 * np.linalg.norm(step) / max_chord(K, v) + 1e-8

    for seed in range(25):
        K = seeded_polygon(seed + 2600)
        D = far_radius(K)
        w = global_width(K).value
        u = sphere_dirs(2, 1, seed + 5)[0]
        s = float(10 ** np.random.default_rng(seed).uniform(0.5, 3.0)) * D
        lhs = abs(alpha(K, s * u).alpha - 2.0 * s / max_chord(K, u))
        assert lhs <= 2.0 * D / w - 1.0 + 1e-6
        ratio = alpha(K, 1e6 * u).alpha * max_chord(K, u) / (2.0 * 1e6)
        assert abs(ratio - 1.0) <= 1e-3

    for seed in range(12):
        K = seeded_polygon(seed + 2700)
        C = central_symm(K)
        bound = far_radius(K) - global_width(K).value / 2.0
        for lam in (1.0, 1.5, 3.0):
            res = hausdorff(level_set(K, lam).body, homothety(C, lam))
            assert res.exact
            assert res.value <= bound + 1e-9

    a_off = 1.75
    B = Ball(np.array([a_off, 0.0]), 0.6)
    CB = Ball(np.zeros(2), 0.6)
    for lam in (0.5, 1.0, 2.0):
        res = hausdorff(level_set(B, lam).body, homothety(CB, lam))
        assert res.exact
        npt.assert_allclose(res.value, a_off, atol=1e-9)
    print("PASS bounds: Lipschitz, chordwise Lipschitz, growth, linear limit, "
          "symmetrization distance (ball case exact)")


def test_structure_product_sum_and_symmetry_characterization():
    rng = np.random.default_rng(53)
    for seed in range(100):
        M = seeded_polygon(seed + 3000)
        if seed % 3 == 0:
            N = Ball(rng.normal(size=2), float(rng.uniform(0.5, 2.0)))
        else:
            N = seeded_polygon(seed + 3100)
        y = interior_point(M, seed) if seed % 2 else exterior_point(M, seed)
        z = N.center + 0.3 * N.radius if isinstance(N, Ball) else interior_point(N, seed)
        z = np.asarray(z, dtype=float)
        both = alpha(Product((M, N)), np.concatenate([y, z])).alpha
        assert both == max(alpha(M, y).alpha, alpha(N, z).alpha)

    worst = 0.0
    for seed in range(100):
        K = seeded_polygon(seed + 3200)
        M = seeded_polygon(seed + 3300)
        lhs = alpha_inf(Sum((K, M))).alpha_inf
        rhs = max(alpha_inf(K).alpha_inf, alpha_inf(M).alpha_inf)
        worst = max(worst, lhs - rhs)
        assert lhs <= rhs + 1e-8

    for K in (make_regular_polygon(6), make_regular_polygon(8, radius=2.0),
              Ball(np.array([3.0, -1.0]), 1.5),
              VPolytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]))):
        assert alpha_inf(K).alpha_inf <= 1e-9

    sims = [alpha_inf(make_simplex(d)).alpha_inf for d in (2, 3, 4)]
    tris = [alpha_inf(VPolytope(np.random.default_rng(s).normal(size=(3, 2)) * 2.0)).alpha_inf
            for s in range(20)]
    assert all(v >= 0.3 for v in sims)
    assert all(v >= 1.0 / 3.0 - 1e-8 for v in tris)
    print(f"PASS structure: product rule exact x100, superminimality "
          f"(max excess {worst:.2e}), symmetric bodies at 0, simplices >= 0.3")


def test_polynomial_growth_suite():
    interval = VPolytope(np.array([[-1.0], [1.0]]))
    assert cheb_growth(interval, np.array([2.0]), 2).growth == 7.0

    rng = np.random.default_rng(61)
    for trial in range(10):
        K = seeded_polygon(trial + 3500)
        x = exterior_point(K, trial, margin_hi=4.0)
        res = alpha(K, x)
        n = int(rng.integers(1, 9))
        P = extremal_polynomial(K, res.witness_dir, n)
        val = poly_eval(P, x)
        target = cheb_T(n, res.alpha)
        tol = abs(cheb_T_prime(n, res.alpha)) * res.tol + 1e-9 * max(1.0, abs(target))
        npt.assert_allclose(val, target, atol=tol)
        samples = [interior_point(K, 100 * trial + j) for j in range(400)]
        sup = max(abs(poly_eval(P, s)) for s in samples)
        assert sup <= 1.0 + 1e-6

    for n in range(1, 21):
        assert leading_growth(interval, np.array([1.0]), n).value == 2.0 ** (n - 1)

    worst = 0.0
    for seed in range(100):
        K = seeded_polygon(seed + 3600)
        x = interior_point(K, seed)
        a = alpha(K, x).alpha
        if a >= 1.0 - 1e-9:
            continue
        for j in range(10):
            n = 1 + (seed + j) % 6
            rep = bernstein_bound(K, x, n)
            v = np.random.default_rng(1000 * seed + j).normal(size=2)
            p = compose_cheb(n, t_polynomial(K, v))
            g = float(np.linalg.norm(poly_grad(p, x)))
            worst = max(worst, g / rep.theorem_bound)
            assert g <= rep.theorem_bound + 1e-6 * max(1.0, rep.theorem_bound)
    print(f"PASS polynomial growth: T_2(2)=7, witness values match to "
          f"propagated tol, leading growth exact to n=20, derivative bound "
          f"holds on 1000 certified instances (max ratio {worst:.4f})")


def test_conjectured_sharper_bound_is_reported_not_asserted():
    from minkgauge.cli import run
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["experiment-conjecture", "--body",
                    json.dumps({"kind": "vpolytope",
                                "vertices": [[10, 10], [16, 10], [10, 16]]}),
                    "--n-queries", "20", "--max-degree", "4"])
    assert code == 0
    rec = json.loads(buf.getvalue())
    assert "nothing is asserted" in rec["note"]
    assert np.isfinite(rec["max_ratio"])
    print(f"PASS conjecture search: reported max ratio {rec['max_ratio']:.6f} "
          f"on {rec['n_checked']} instances, no assertion made")


def test_hausdorff_dual_routes_and_sampled_monotonicity():
    worst = 0.0
    for seed in range(100):
        K = seeded_polygon(seed + 4000)
        M = seeded_polygon(seed + 4100)
        WK, WM = _planar_points(K), _planar_points(M)
        by_def = max(_vertex_distances(WK, WM).max(), _vertex_distances(WM, WK).max())
        by_support = _support_gap(WK, WM)
        gap = abs(by_def - by_support)
        worst = max(worst, gap)
        assert gap <= 1e-9 * max(1.0, by_def)
        res = hausdorff(K, M)
        assert res.exact

    from minkgauge import SupportOracle, inscribed_ball
    K = seeded_polygon(4300)
    M = seeded_polygon(4400)

    def wrap(P):
        c, r = inscribed_ball(P)
        return SupportOracle(lambda v, _P=P: support(_P, v), c, r,
                             far_radius(P) + 1.0)

    exact = hausdorff(K, M).value
    prev = -np.inf
    for n in (128, 256, 512, 1024):
        res = hausdorff(wrap(K), wrap(M), n_dirs=n, seed=9)
        assert not res.exact
        assert res.value <= exact + 1e-9
        assert res.value >= prev - 1e-12
        prev = res.value
    print(f"PASS dual Hausdorff: 100 polygon pairs agree (max gap {worst:.2e}); "
          f"sampled route is a monotone lower bound")


def test_weighted_ball_truncation_trends():
    # the sequence spaces behind these bodies have non-attained extrema;
    # finite truncations can only show the trend toward the limits
    dims = (4, 16, 64)
    diams = [diameter(make_weighted_l2_ball(d, "i")) for d in dims]
    widths = [global_width(make_weighted_l2_ball(d, "ii")).value for d in dims]
    assert diams[0] < diams[1] < diams[2] < 2.0 + 1e-9
    assert diams[2] > 1.95
    assert widths[0] > widths[1] > widths[2] >= np.sqrt(2.0) - 1e-9
    assert widths[2] < 1.45
    print(f"PASS truncation trends: diameters {np.round(diams, 5).tolist()} "
          f"rising toward 2; widths {np.round(widths, 5).tolist()} falling "
          f"toward sqrt(2) = {np.sqrt(2):.5f}")
