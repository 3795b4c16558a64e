"""The benchmark's four workloads.

A workload turns the seed into body descriptions (schema dicts, parsed and
validated during set-up) and returns ``passes(k)``, the query list of pass
k: each query is one call into the public minkgauge API plus a check.  The
runner repeats whole passes, so every run sees the same query mix.  Checks
compare against ``refs`` (no minkgauge code) or against a different
minkgauge route; a reference that needs minkgauge is computed once per query
and cached, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

from refs import (BallRef, Box, Ellipsoid, Polygon, Product, Simplex, VSet,
                  cheb_T, close, planar_hausdorff_bracket)

EXACT = 1e-9       # closed-form routes, relative
LP_TOL = 1e-7      # LP-backed routes against closed forms, relative
IDENTITY = 1e-6    # two bisection routes held against each other, relative


@dataclass
class Query:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def once(fn):
    """Cache a reference computed on first use."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]
    return get


def expect(ok, msg):
    return None if ok else msg


def convex_polygon(rng, n):
    """n points in convex position, counterclockwise: a jittered ellipse."""
    th = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.35, 0.35, n)) / n + rng.uniform(0, 2 * np.pi)
    P = np.stack([np.cos(th), np.sin(th)], axis=1)
    phi = rng.uniform(0, np.pi)
    R = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    A = R @ np.diag(rng.uniform(0.6, 1.6, 2))
    return P @ A.T + rng.uniform(-1.0, 1.0, 2)


def disc_polygon(rng, n, m):
    """Hull of n uniform points in a disc, counterclockwise, scaled and moved at
    random: the shape random_polygon draws, redrawn until the hull has exactly
    m vertices, so that every seed gives bodies of the same cost."""
    while True:
        r, th = np.sqrt(rng.uniform(size=n)), rng.uniform(0.0, 2.0 * np.pi, n)
        P = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        W = P[ConvexHull(P).vertices]      # Qhull orders 2-d hulls counterclockwise
        if len(W) == m:
            return W * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0, 2)


def regular_polygon(n, radius, center, phase):
    ang = 2.0 * np.pi * np.arange(n) / n + phase
    return np.stack([np.cos(ang), np.sin(ang)], axis=1) * radius + center


def half_disc(n):
    ang = np.pi * np.arange(n + 1) / n
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def random_simplex(rng, d):
    while True:
        V = rng.normal(size=(d + 1, d))
        if abs(np.linalg.det(V[1:] - V[0])) > 0.3:
            return V


def vspec(V):
    return {"kind": "vpolytope", "vertices": np.asarray(V).tolist()}


def hspec(A, b):
    return {"kind": "hpolytope", "A": np.asarray(A).tolist(), "b": np.asarray(b).tolist()}


def boxspec(lo, hi):
    return {"kind": "box", "low": list(map(float, lo)), "high": list(map(float, hi))}


def random_box(rng, d):
    lo = rng.uniform(-2.0, 0.0, d)
    return lo, lo + rng.uniform(0.5, 3.0, d)


def outside_points(rng, V, k, lo=1.5, hi=3.0):
    c = V.mean(axis=0)
    R = float(np.max(np.linalg.norm(V - c, axis=1)))
    U = rng.normal(size=(k, V.shape[1]))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return c + U * (R * rng.uniform(lo, hi, size=(k, 1)))


def inside_points(rng, V, k):
    return rng.dirichlet(np.full(len(V), 0.8), size=k) @ V


# ---------------------------------------------------------------------------
# shared checks


def check_alpha(ref_alpha, ref, x, rel=EXACT):
    """Value against a reference, plus the witness certificate
    t(K, witness_dir, x) >= alpha - tol evaluated by the reference body."""
    def check(res):
        a = ref_alpha()
        if not close(res.alpha, a, rel):
            return f"alpha {res.alpha!r} != reference {a!r}"
        t = ref.t(res.witness_dir, x)
        return expect(t >= res.alpha - res.tol - rel * max(1.0, a),
                      f"witness gives t={t!r} < alpha {res.alpha!r} - tol {res.tol!r}")
    return check


def check_cheb(ref_alpha, n):
    def check(rep):
        a = ref_alpha()
        growth = cheb_T(n, a) if a > 1.0 else 1.0
        if not close(rep.alpha, a, EXACT):
            return f"cheb alpha {rep.alpha!r} != {a!r}"
        if not close(rep.growth, growth, 1e-8):
            return f"growth {rep.growth!r} != T_{n}({a!r}) = {growth!r}"
        return expect(rep.sup_norm_check <= 1.0 + 1e-9,
                      f"extremal polynomial exceeds 1 on K: {rep.sup_norm_check!r}")
    return check


# ---------------------------------------------------------------------------
# planar_reuse: many closed-form queries per planar body

# (points drawn, hull vertices): the hull size is the median one for that many points
PLANAR_HULLS = ((4, 4), (5, 4), (6, 5), (7, 5), (8, 6), (9, 6), (10, 6), (12, 7),
                (14, 7), (16, 8), (20, 8), (24, 9), (28, 9), (32, 10), (36, 10), (40, 11))


def planar_reuse(mg, seed):
    rng = np.random.default_rng([seed, 1])
    entries = []
    for i, (n, m) in enumerate(PLANAR_HULLS):
        P = Polygon(disc_polygon(rng, n, m))
        entries.append((hspec(*P.halfspaces()) if i % 2 else vspec(P.V), P))
    for n in (5, 6, 7, 8):
        r, c, ph = rng.uniform(0.5, 2.0), rng.uniform(-1, 1, 2), rng.uniform(0, 2 * np.pi)
        entries.append(({"kind": "regular_polygon", "n": n, "radius": r,
                         "center": c.tolist(), "phase": ph},
                        Polygon(regular_polygon(n, r, c, ph))))
    for n in (16, 24, 32, 48):
        entries.append(({"kind": "half_disc_approx", "n": n}, Polygon(half_disc(n))))
    bodies = [mg.parse_body(spec) for spec, _ in entries]

    queries = []
    for i, (K, (_, P)) in enumerate(zip(bodies, entries)):
        M, Q = bodies[(i + 1) % len(bodies)], entries[(i + 1) % len(entries)][1]
        queries += _planar_block(mg, rng, K, P, M, Q)
    return lambda k: queries


def _planar_block(mg, rng, K, P, M, Q):
    state = {}

    def level(lam):
        def run():
            state[lam] = mg.level_set(K, lam)
            return state[lam]
        return run

    probes = np.vstack([inside_points(rng, P.V, 48), outside_points(rng, P.V, 16, 1.0, 1.5)])
    dirs = rng.normal(size=(16, 2))

    def check_erosion(ls):
        if ls.empty or not isinstance(ls.body, mg.HPolytope):
            return f"level set at 0.5 is empty={ls.empty} body={type(ls.body).__name__}"
        A, b = ls.body.A, ls.body.b
        for p in probes:
            a = P.alpha(p)
            inside = bool(np.all(A @ p <= b + 1e-9 * np.linalg.norm(A, axis=1)))
            if abs(a - 0.5) > 1e-7 and inside != (a <= 0.5):
                return f"erosion body disagrees with alpha={a!r} at {p.tolist()}"
        return None

    def check_sum_form(ls):
        V = getattr(ls.body, "vertices", None)
        if ls.empty or V is None:
            return "level set at 2 has no vertex description"
        for u in dirs:
            want = 1.5 * P.h(u) + 0.5 * P.h(-u)
            if not close(float(np.max(V @ u)), want, EXACT):
                return f"level body support {np.max(V @ u)!r} != {want!r}"
        return None

    block = []
    for x in inside_points(rng, P.V, 25):
        block.append(Query("alpha_in", lambda x=x: mg.alpha(K, x),
                           check_alpha(lambda x=x: P.alpha(x), P, x)))
    for x in outside_points(rng, P.V, 25):
        block.append(Query("alpha_out", lambda x=x: mg.alpha(K, x),
                           check_alpha(lambda x=x: P.alpha(x), P, x)))
    for x in inside_points(rng, P.V, 12):
        def beta_check(b, x=x):
            a = P.alpha(x)
            return expect(close(b, (1.0 - a) / (1.0 + a), EXACT),
                          f"beta {b!r} breaks alpha = (1-beta)/(1+beta), alpha={a!r}")
        block.append(Query("beta", lambda x=x: mg.beta(K, x), beta_check))
    for x in np.vstack([inside_points(rng, P.V, 20), outside_points(rng, P.V, 4, 1.0, 1.3)]):
        def member_check(got, x=x):
            a = P.alpha(x)
            return expect(abs(a - 0.5) <= 1e-7 or got == (a <= 0.5),
                          f"contains={got} but alpha={a!r} at lam=0.5")
        block.append(Query("levelset_contains", lambda x=x: state[0.5].contains(x),
                           member_check))
    for _ in range(4):
        block.append(Query("global_width", lambda: mg.global_width(K),
                           lambda r: expect(r.exact and close(r.value, P.width(), EXACT),
                                            f"width {r.value!r} != {P.width()!r}")))
    bracket = once(lambda: planar_hausdorff_bracket(P, Q))
    for _ in range(2):
        block.append(Query("hausdorff", lambda: mg.hausdorff(K, M),
                           lambda r: expect(r.exact and bracket()[0] - EXACT <= r.value
                                            <= bracket()[1] + EXACT,
                                            f"hausdorff {r.value!r} outside {bracket()}")))
    # t_func on an H-polytope costs two LPs per sample, so only vertex bodies
    for x, n in zip(outside_points(rng, P.V, 2 if isinstance(K, mg.VPolytope) else 0), (3, 5)):
        block.append(Query("cheb_growth", lambda x=x, n=n: mg.cheb_growth(K, x, n, n_samples=50),
                           check_cheb(lambda x=x: P.alpha(x), n)))

    def inf_check(rep):
        want = P.alpha_inf()
        if not close(rep.alpha_inf, want, 1e-8):
            return f"alpha_inf {rep.alpha_inf!r} != {want!r}"
        return expect(P.alpha(rep.minimizer) <= rep.alpha_inf + 1e-8,
                      "alpha at the reported minimizer exceeds alpha_inf")
    block.append(Query("alpha_inf", lambda: mg.alpha_inf(K), inf_check))

    order = rng.permutation(len(block))
    # the contains queries read the level sets, so those lead the block
    return ([Query("level_set", level(0.5), check_erosion),
             Query("level_set", level(2.0), check_sum_form)]
            + [block[j] for j in order])


# ---------------------------------------------------------------------------
# polytope_lp: LP-backed routes in dimensions 3 and 4

CUBE_POINT = np.array([2.0, 0.5, 0.3])


def polytope_lp(mg, seed):
    rng = np.random.default_rng([seed, 2])
    tri = Polygon(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    ent = {
        "S3a": (None, Simplex(random_simplex(rng, 3))),
        "S3b": (None, Simplex(random_simplex(rng, 3))),
        "S4": (None, Simplex(random_simplex(rng, 4))),
        "HS3": ("h", Simplex(random_simplex(rng, 3))),
        "B3": ("box", Box(*random_box(rng, 3))),
        "B4": ("box", Box(*random_box(rng, 4))),
        "cube": ("box", Box(-np.ones(3), np.ones(3))),
        "V6": (None, VSet(rng.normal(size=(6, 3)))),
        "V9": (None, VSet(rng.normal(size=(9, 3)))),
        "V12": (None, VSet(rng.normal(size=(12, 3)))),
        "V8d4": (None, VSet(rng.normal(size=(8, 4)))),
        "prism": ({"kind": "sobczyk_prism"}, Product([tri, Box([-1.0], [1.0])])),
        "box2": ("box", Box(*random_box(rng, 2))),
    }
    W = convex_polygon(rng, 7)
    lo, hi = random_box(rng, 1)
    ent["PxI"] = ({"kind": "product", "factors": [vspec(W), boxspec(lo, hi)]},
                  Product([Polygon(W), Box(lo, hi)]))
    T1, T2 = (convex_polygon(rng, 3) for _ in range(2))
    ent["TxT"] = ({"kind": "product", "factors": [vspec(T1), vspec(T2)]},
                  Product([Polygon(T1), Polygon(T2)]))

    def spec(how, ref):
        if isinstance(how, dict):
            return how
        if how == "h":
            return hspec(*ref.halfspaces())
        if how == "box":
            return boxspec(ref.lo, ref.hi)
        return vspec(ref.V)
    K = {name: mg.parse_body(spec(how, ref)) for name, (how, ref) in ent.items()}
    R = {name: ref for name, (_, ref) in ent.items()}

    qs = []

    def alpha_q(kind, name, x, ref_alpha, rel):
        qs.append(Query(kind, lambda: mg.alpha(K[name], x),
                        check_alpha(ref_alpha, R[name], x, rel)))

    alpha_q("alpha_out_cube", "cube", CUBE_POINT, lambda: 2.0, LP_TOL)
    # exterior points of vertex bodies: reference from the rho identity
    # alpha = (1 + rho) / (1 - rho), rho being an independent LP bisection
    ext = {}
    for name, k in (("S3a", 2), ("S3b", 2), ("S4", 2), ("V6", 1), ("V9", 1),
                    ("V12", 1), ("V8d4", 1)):
        for x in outside_points(rng, R[name].V, k):
            def via_rho(name=name, x=x):
                r = mg.rho(K[name], x)
                return (1.0 + r) / (1.0 - r)
            ref_alpha = once(via_rho)
            ext.setdefault(name, []).append((x, ref_alpha))
            alpha_q("alpha_out_lp", name, x, ref_alpha, IDENTITY)
            lower = once(lambda name=name, x=x: R[name].sampled_alpha(x))
            qs[-1].check = _also(qs[-1].check, lambda res, lower=lower: expect(
                lower() <= res.alpha + IDENTITY * res.alpha,
                f"sampled lower bound {lower()!r} exceeds alpha {res.alpha!r}"))
    for name, k in (("S3a", 5), ("S3b", 5), ("S4", 5), ("HS3", 3)):
        for x in inside_points(rng, R[name].V, k):
            alpha_q("alpha_in_simplex", name, x,
                    lambda name=name, x=x: R[name].alpha_inside(x), LP_TOL)
    for name in ("B3", "B4"):
        for x in rng.uniform(R[name].lo, R[name].hi, size=(2, len(R[name].lo))):
            alpha_q("alpha_in_box", name, x, lambda name=name, x=x: R[name].alpha(x), LP_TOL)
    for name in ("prism", "PxI", "TxT"):
        c = R[name].center()
        for x in (c + rng.uniform(-0.2, 0.2, R[name].d), c + 4.0 * rng.normal(size=R[name].d)):
            alpha_q("alpha_product", name, x, lambda name=name, x=x: R[name].alpha(x), EXACT)

    for name in ("S3a", "S4", "HS3", "B3", "prism", "PxI", "TxT"):
        def inf_check(rep, name=name):
            want = R[name].alpha_inf()
            if not close(rep.alpha_inf, want, LP_TOL):
                return f"alpha_inf {rep.alpha_inf!r} != {want!r}"
            at = (R[name].alpha_inside(rep.minimizer) if isinstance(R[name], Simplex)
                  else R[name].alpha(rep.minimizer))
            return expect(at <= rep.alpha_inf + LP_TOL,
                          f"alpha at the minimizer {at!r} exceeds alpha_inf")
        qs.append(Query("alpha_inf", lambda name=name: mg.alpha_inf(K[name]), inf_check))

    # one-LP queries (chords, H support) are the middle of the latency
    # distribution, so the median falls inside a block of similar cost
    for name in ("S3a", "S4", "V6", "V9", "V8d4", "B3", "B4", "PxI"):
        for v in rng.normal(size=(2, R[name].d)):
            tau = once(lambda name=name, v=v: R[name].tau(v))
            qs.append(Query("max_chord", lambda name=name, v=v: mg.max_chord(K[name], v),
                            lambda got, tau=tau: expect(close(got, tau(), LP_TOL),
                                                        f"tau {got!r} != {tau()!r}")))

    # lam > 1 membership: the sum-form LP
    for name in ("S3a", "S3b", "S4", "V6", "V9"):
        x, ref_alpha = ext[name][0]
        lam = float(rng.uniform(1.5, 6.0))

        def member_check(got, ref_alpha=ref_alpha, lam=lam):
            a = ref_alpha()
            return expect(abs(a - lam) <= IDENTITY * a or got == (a <= lam),
                          f"contains={got} at lam={lam!r} but alpha={a!r}")
        qs.append(Query("levelset_gt1", lambda name=name, x=x, lam=lam:
                        mg.level_set(K[name], lam).contains(x), member_check))
    for x in outside_points(rng, np.vstack([R["B3"].lo, R["B3"].hi]), 3, 0.8, 2.0):
        lam = float(rng.uniform(1.2, 3.0))
        qs.append(Query("levelset_gt1", lambda x=x, lam=lam:
                        mg.level_set(K["B3"], lam).contains(x),
                        lambda got, x=x, lam=lam: expect(
                            abs(R["B3"].alpha(x) - lam) <= 1e-7
                            or got == (R["B3"].alpha(x) <= lam),
                            f"contains={got} at lam={lam!r}, alpha={R['B3'].alpha(x)!r}")))

    for name in ("cube", "B4", "PxI"):
        x = R[name].center()
        while R[name].alpha(x) < 1.2:      # rho needs an exterior point
            x = R[name].center() + 3.0 * rng.normal(size=R[name].d)
        a = R[name].alpha(x)
        qs.append(Query("rho", lambda name=name, x=x: mg.rho(K[name], x),
                        lambda got, a=a: expect(close(got, (a - 1.0) / (a + 1.0), LP_TOL),
                                                f"rho {got!r} breaks alpha = (1+rho)/(1-rho), "
                                                f"alpha={a!r}")))

    for name in ("B3", "B4", "cube", "HS3"):
        for v in rng.normal(size=(4, R[name].d)):
            qs.append(Query("support_h", lambda name=name, v=v: mg.support(K[name], v),
                            lambda got, name=name, v=v: expect(
                                close(got, R[name].h(v), LP_TOL),
                                f"support {got!r} != {R[name].h(v)!r}")))

    box2 = R["box2"]
    x = box2.center() + 2.0 * (box2.hi - box2.lo) * np.array([1.0, 0.3])
    qs.append(Query("cheb_growth_box2", lambda: mg.cheb_growth(K["box2"], x, 4, n_samples=20),
                    check_cheb(lambda: R["box2"].alpha(x), 4)))

    qs = [qs[j] for j in rng.permutation(len(qs))]
    return lambda k: qs


def _also(first, second):
    def check(res):
        return first(res) or second(res)
    return check


# ---------------------------------------------------------------------------
# oracle_sampled: support oracles, no LPs; sampled routes are one-sided

ORACLE_BODIES = ((2, "i"), (3, "ii"), (4, "i"), (5, "ii"), (6, "i"), (7, "ii"), (8, "i"))


def oracle_sampled(mg, seed):
    rng = np.random.default_rng([seed, 3])
    specs = [{"kind": "weighted_l2_ball", "dim": d, "mode": m} for d, m in ORACLE_BODIES]
    polys = [Polygon(convex_polygon(rng, n)) for n in (8, 12)]
    bodies = [mg.parse_body(s) for s in specs + [vspec(P.V) for P in polys]]
    # the bodies stay; every pass draws fresh points and directions, so p90
    # is a quantile over many draws rather than the sixth-slowest of 55 queries
    return lambda k: _oracle_pass(mg, np.random.default_rng([seed, 3, k]), bodies, polys)


def _oracle_pass(mg, rng, bodies, polys):
    def at_level(E, d, a):
        # a point with alpha = a along a random direction
        u = rng.normal(size=d)
        return a * u / E.alpha(u)

    qs = []
    for (d, mode), K in zip(ORACLE_BODIES, bodies):
        E = Ellipsoid(d, mode)
        if d <= 4:
            x = at_level(E, d, rng.uniform(0.3, 2.5))

            def alpha_check(res, E=E, x=x):
                a = E.alpha(x)
                if res.method != "sampled" or res.alpha > a + EXACT * a:
                    return f"sampled alpha {res.alpha!r} ({res.method}) above exact {a!r}"
                if res.alpha < 0.95 * a:
                    return f"sampled alpha {res.alpha!r} far below exact {a!r}"
                t = E.t(res.witness_dir, x)
                return expect(t >= res.alpha - res.tol - EXACT,
                              f"witness gives t={t!r} < alpha {res.alpha!r}")
            qs.append(Query("alpha_sampled", lambda K=K, x=x: mg.alpha(K, x), alpha_check))
        # two each of the ~50-110 ms queries: the few sampled alphas stay
        # under a tenth of the pass, so p90 falls inside the hausdorff block
        for _ in range(2):
            x = at_level(E, d, rng.uniform(0.05, 0.8))
            exact = (1.0 - E.alpha(x)) / (1.0 + E.alpha(x))
            qs.append(Query("beta_sampled", lambda K=K, x=x: mg.beta(K, x),
                            lambda b, exact=exact: expect(
                                exact - EXACT <= b <= 1.0,
                                f"sampled beta {b!r} below exact {exact!r}")))
            x = at_level(E, d, rng.uniform(0.3, 2.5))
            qs.append(Query("brute_force_alpha", lambda K=K, x=x: mg.brute_force_alpha(K, x),
                            lambda b, a=E.alpha(x): expect(
                                0.0 < b <= a + EXACT * a,
                                f"brute-force alpha {b!r} not a lower bound of {a!r}")))
            r = float(rng.uniform(0.5, 1.2))
            qs.append(Query("hausdorff_ball", lambda K=K, d=d, r=r:
                            mg.hausdorff(K, mg.Ball(np.zeros(d), r)),
                            lambda res, want=E.hausdorff_centered_ball(r): expect(
                                not res.exact and 0.0 < res.value <= want + EXACT,
                                f"sampled hausdorff {res.value!r} not a lower bound of "
                                f"{want!r}")))
        if d <= 5:
            v = rng.normal(size=d)
            qs.append(Query("max_chord_oracle", lambda K=K, v=v: mg.max_chord(K, v),
                            lambda tau, want=E.tau(v): expect(
                                want - EXACT <= tau <= 1.05 * want,
                                f"sampled tau {tau!r} not an upper bound near {want!r}")))
        if d in (2, 3):
            qs.append(Query("global_width_oracle", lambda K=K: mg.global_width(K),
                            lambda r, want=E.width(): expect(
                                not r.exact and want - EXACT <= r.value <= 1.05 * want,
                                f"sampled width {r.value!r} not an upper bound near {want!r}")))
    for P, K in zip(polys, bodies[len(ORACLE_BODIES):]):
        for x, n in zip(outside_points(rng, P.V, 2), (3, 6)):
            qs.append(Query("cheb_growth_polygon",
                            lambda K=K, x=x, n=n: mg.cheb_growth(K, x, n, n_samples=1000),
                            check_cheb(lambda P=P, x=x: P.alpha(x), n)))
    return [qs[j] for j in rng.permutation(len(qs))]


# ---------------------------------------------------------------------------
# cli_oneshot: every body parsed, validated and queried exactly once


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _csv(x):
    return ",".join(repr(float(v)) for v in x)


def cli_query(mg, kind, argv, check):
    """A CLI invocation that must exit 0 and whose JSON stdout passes check."""
    def checked(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        if kind == "grid":
            return check(out)
        return check(json.loads(out))
    return Query(f"cli_{kind}", lambda: run_cli(mg.cli, argv), checked)


def cli_bad(mg, kind, argv):
    """Malformed input: must exit 2 with an input error on stderr, nothing on stdout."""
    def checked(result):
        code, out, err = result
        if code != 2 or out:
            return f"malformed input exited {code} with stdout {out[:80]!r}"
        return expect(json.loads(err).get("error") == "input", f"stderr {err[:120]!r}")
    return Query(f"cli_bad_{kind}", lambda: run_cli(mg.cli, argv), checked)


def _num_close(rel):
    def cmp(got, want, what):
        return expect(close(got, want, rel), f"{what} {got!r} != {want!r}")
    return cmp


def cli_pass(mg, seed, k):
    rng = np.random.default_rng([seed, 4, k])
    ex, lp = _num_close(1e-9), _num_close(LP_TOL)
    qs = []

    def add(kind, body, args, check):
        qs.append(cli_query(mg, kind, [kind.split(":")[0], "--body", json.dumps(body)] + args,
                            check))

    def poly(n=None):
        return Polygon(convex_polygon(rng, n or int(rng.integers(4, 13))))

    # alpha through every wrapping kind; affine images keep alpha
    P = poly()
    x = inside_points(rng, P.V, 1)[0]
    add("alpha", vspec(P.V), ["--point", _csv(x)],
        lambda r, a=P.alpha(x): ex(r["alpha"], a, "alpha"))
    P = poly()
    x, b = outside_points(rng, P.V, 1)[0], rng.normal(size=2)
    add("alpha", {"kind": "translated", "offset": b.tolist(), "body": vspec(P.V)},
        ["--point", _csv(x + b)], lambda r, a=P.alpha(x): ex(r["alpha"], a, "alpha"))
    P = poly()
    x, s = outside_points(rng, P.V, 1)[0], float(rng.uniform(0.5, 3.0))
    add("alpha", {"kind": "scaled", "factor": s, "body": vspec(P.V)},
        ["--point", _csv(s * x)], lambda r, a=P.alpha(x): ex(r["alpha"], a, "alpha"))
    P = poly()
    x = inside_points(rng, P.V, 1)[0]
    add("alpha", {"kind": "reflected", "body": hspec(*P.halfspaces())},
        ["--point", _csv(-x)], lambda r, a=P.alpha(x): ex(r["alpha"], a, "alpha"))
    P, Q = poly(), poly()
    sums = (P.V[:, None, :] + Q.V[None, :, :]).reshape(-1, 2)
    S = Polygon(sums[ConvexHull(sums).vertices])      # Qhull orders 2-d hulls CCW
    x = outside_points(rng, S.V, 1)[0]
    add("alpha", {"kind": "sum", "terms": [vspec(P.V), vspec(Q.V)]}, ["--point", _csv(x)],
        lambda r, a=S.alpha(x): ex(r["alpha"], a, "alpha"))
    lo, hi = random_box(rng, 2)
    B = Box(lo, hi)
    x = B.center() + rng.normal(size=2)
    add("alpha", {"kind": "product", "factors": [boxspec(lo[:1], hi[:1]),
                                                 vspec([[lo[1]], [hi[1]]])]},
        ["--point", _csv(x)], lambda r, a=B.alpha(x): ex(r["alpha"], a, "alpha"))
    c, rad = rng.normal(size=3), float(rng.uniform(0.5, 2.0))
    x = c + rng.normal(size=3)
    add("alpha", {"kind": "ball", "center": c.tolist(), "radius": rad}, ["--point", _csv(x)],
        lambda r, a=BallRef(c, rad).alpha(x): ex(r["alpha"], a, "alpha"))
    n, ph = int(rng.integers(3, 9)), float(rng.uniform(0, 6.28))
    R = Polygon(regular_polygon(n, 1.0, np.zeros(2), ph))
    x = outside_points(rng, R.V, 1)[0]
    add("alpha", {"kind": "regular_polygon", "n": n, "phase": ph}, ["--point", _csv(x)],
        lambda r, a=R.alpha(x): ex(r["alpha"], a, "alpha"))
    d = int(rng.integers(2, 4))
    Sx = Simplex(np.vstack([np.zeros(d), np.eye(d)]))
    x = inside_points(rng, Sx.V, 1)[0]
    add("alpha", {"kind": "simplex", "dim": d}, ["--point", _csv(x)],
        lambda r, a=Sx.alpha_inside(x): ex(r["alpha"], a, "alpha"))

    # level sets
    P = poly()
    dirs = rng.normal(size=(8, 2))
    add("levelset", vspec(P.V), ["--lambda", "2.0"], lambda r, P=P, dirs=dirs: next(
        (f"level body support off at {u.tolist()}" for u in dirs
         if not close(max(np.array(r["body"]["vertices"]) @ u),
                      1.5 * P.h(u) + 0.5 * P.h(-u), 1e-9)), None))
    P = poly()
    probes = inside_points(rng, P.V, 16)

    def erosion(r, P=P, probes=probes):
        A, b = np.array(r["body"]["A"]), np.array(r["body"]["b"])
        for p in probes:
            a = P.alpha(p)
            inside = bool(np.all(A @ p <= b + 1e-9 * np.linalg.norm(A, axis=1)))
            if abs(a - 0.5) > 1e-6 and inside != (a <= 0.5):
                return f"erosion body disagrees with alpha={a!r}"
        return None
    add("levelset", hspec(*P.halfspaces()), ["--lambda", "0.5"], erosion)

    # symmetry constants
    d = int(rng.integers(2, 4))
    add("symmetry", {"kind": "simplex", "dim": d}, [],
        lambda r, d=d: lp(r["alpha_inf"], (d - 1) / (d + 1), "alpha_inf"))
    lo, hi = random_box(rng, 2)
    add("symmetry", boxspec(lo, hi), [], lambda r: lp(r["measure"], 1.0, "measure"))
    add("symmetry", {"kind": "sobczyk_prism"}, [],
        lambda r: lp(r["alpha_inf"], 1.0 / 3.0, "alpha_inf"))

    # chords, widths, supports
    lo, hi = random_box(rng, 3)
    v = rng.normal(size=3)
    add("tau", boxspec(lo, hi), ["--dir", _csv(v)],
        lambda r, t=Box(lo, hi).tau(v): lp(r["tau"], t, "tau"))
    c, rad, v = rng.normal(size=2), float(rng.uniform(0.5, 2.0)), rng.normal(size=2)
    add("tau", {"kind": "ball", "center": c.tolist(), "radius": rad}, ["--dir", _csv(v)],
        lambda r, t=2 * rad / np.linalg.norm(v): ex(r["tau"], t, "tau"))
    n, rad = int(rng.integers(3, 10)), float(rng.uniform(0.5, 2.0))
    add("width", {"kind": "regular_polygon", "n": n, "radius": rad}, [],
        lambda r, w=Polygon(regular_polygon(n, rad, np.zeros(2), 0.0)).width():
        ex(r["width"], w, "width"))
    n = int(rng.integers(8, 33))
    add("width", {"kind": "half_disc_approx", "n": n}, [],
        lambda r, w=Polygon(half_disc(n)).width(): ex(r["width"], w, "width"))
    lo, hi = random_box(rng, 3)
    v = rng.normal(size=3)
    add("support", boxspec(lo, hi), ["--dir", _csv(v)],
        lambda r, B=Box(lo, hi), v=v: lp(r["support"], B.h(v), "support")
        or lp(r["width_dir"], B.h(v) + B.h(-v), "width_dir"))
    P, v = poly(), rng.normal(size=2)
    add("support", hspec(*P.halfspaces()), ["--dir", _csv(v)],
        lambda r, want=P.h(v): lp(r["support"], want, "support"))
    d, mode = int(rng.integers(2, 9)), str(rng.choice(["i", "ii"]))
    v = rng.normal(size=d)
    add("support", {"kind": "weighted_l2_ball", "dim": d, "mode": mode}, ["--dir", _csv(v)],
        lambda r, want=Ellipsoid(d, mode).h(v): ex(r["support"], want, "support"))
    P, c, rad, v = poly(), rng.normal(size=2), float(rng.uniform(0.2, 1.0)), rng.normal(size=2)
    add("support", {"kind": "sum", "terms": [vspec(P.V), {"kind": "ball", "center": c.tolist(),
                                                          "radius": rad}]}, ["--dir", _csv(v)],
        lambda r, want=P.h(v) + BallRef(c, rad).h(v): ex(r["support"], want, "support"))

    # distances
    c1, c2 = rng.normal(size=3), rng.normal(size=3)
    r1, r2 = rng.uniform(0.5, 2.0, 2)
    add("hausdorff", {"kind": "ball", "center": c1.tolist(), "radius": r1},
        ["--body2", json.dumps({"kind": "ball", "center": c2.tolist(), "radius": r2})],
        lambda r, want=float(np.linalg.norm(c1 - c2) + abs(r1 - r2)):
        ex(r["hausdorff"], want, "hausdorff"))
    P, Q = poly(), poly()
    lo_b, hi_b = planar_hausdorff_bracket(P, Q)
    add("hausdorff", vspec(P.V), ["--body2", json.dumps(vspec(Q.V))],
        lambda r: expect(r["exact"] and lo_b - 1e-9 <= r["hausdorff"] <= hi_b + 1e-9,
                         f"hausdorff {r['hausdorff']!r} outside [{lo_b}, {hi_b}]"))

    # cross-checks and chord ratios
    P = poly()
    x = inside_points(rng, P.V, 1)[0]

    def oracle_in(r, a=P.alpha(x)):
        return (ex(r["alpha"], a, "alpha")
                or expect(r["alpha_brute_force"] <= a + 1e-9, "brute force above alpha")
                or expect(r["identity_residuals"]["alpha_vs_beta"] <= 1e-9,
                          "beta identity residual"))
    add("oracle-check", vspec(P.V), ["--point", _csv(x), "--n-dirs", "256", "--n-lines", "16"],
        oracle_in)
    P = poly()
    x = outside_points(rng, P.V, 1)[0]
    add("oracle-check", vspec(P.V), ["--point", _csv(x), "--n-dirs", "256", "--n-lines", "16"],
        lambda r, a=P.alpha(x): ex(r["alpha"], a, "alpha")
        or _num_close(IDENTITY)((1 + r["rho"]) / (1 - r["rho"]), a, "(1+rho)/(1-rho)"))
    P = poly()
    x = inside_points(rng, P.V, 1)[0]
    add("ratios", vspec(P.V), ["--point", _csv(x), "--n-lines", "16"],
        lambda r, a=P.alpha(x): expect(
            r["point_in_body"] and (1 - r["sigma"]) / (1 + r["sigma"]) <= a + 1e-9,
            f"sampled sigma {r['sigma']!r} on the wrong side of alpha {a!r}"))

    # polynomial growth
    P = poly()
    x = outside_points(rng, P.V, 1)[0]
    add("cheb-growth", vspec(P.V), ["--point", _csv(x), "--degree", "3", "--n-samples", "50"],
        lambda r, g=cheb_T(3, P.alpha(x)): _num_close(1e-8)(r["growth"], g, "growth")
        or expect(r["sup_norm_check"] <= 1 + 1e-9, "sup norm above 1"))
    lo, hi = random_box(rng, 2)
    v = rng.normal(size=2)
    add("cheb-leading", boxspec(lo, hi), ["--dir", _csv(v), "--degree", "3"],
        lambda r, t=Box(lo, hi).tau(v): lp(r["value"], 2.0 ** 5 / t ** 3, "leading"))
    P = poly()
    x = inside_points(rng, P.V, 1)[0]
    add("bernstein", vspec(P.V), ["--point", _csv(x), "--degree", "4"],
        lambda r, a=P.alpha(x), w=P.width(): ex(r["theorem_bound"], 8.0 / (w * np.sqrt(1 - a)),
                                                 "theorem_bound"))

    # whole-command workloads with small sizes
    P = poly()
    lo, hi = P.V.min(axis=0) - 0.5, P.V.max(axis=0) + 0.5

    def grid(out, P=P, lo=lo, hi=hi):
        rows = out.strip().splitlines()[1:]
        if len(rows) != 16:
            return f"grid has {len(rows)} rows"
        for row in rows:
            x1, x2, a = map(float, row.split(","))
            if not close(a, P.alpha(np.array([x1, x2])), 1e-9):
                return f"grid alpha {a!r} at ({x1}, {x2})"
        return None
    add("grid", vspec(P.V), ["--low", _csv(lo), "--high", _csv(hi), "--steps", "4"], grid)
    P = poly()
    add("experiment-deltabound", vspec(P.V), ["--lambdas", "0.5"],
        lambda r, want=P.far_radius() - 0.5 * P.width(): ex(r["bound_D_minus_half_w"], want,
                                                            "bound")
        or expect(len(r["rows"]) == 1 and r["rows"][0]["delta"] >= 0, "deltabound rows"))
    P = poly()
    add("experiment-conjecture", vspec(P.V), ["--n-queries", "4", "--max-degree", "2"],
        lambda r: expect(r["width_exact"] and 0 <= r["n_checked"] <= 8, "conjecture record"))

    # malformed input, a fixed share of every pass
    P = poly()
    bad = [
        ("radius", ["alpha", "--body", json.dumps({"kind": "ball", "center": [0, 0],
                                                   "radius": -1.0}), "--point", "0,0"]),
        ("kind", ["width", "--body", json.dumps({"kind": "dodecahedron"})]),
        ("flat", ["width", "--body", json.dumps(vspec([[0, 0], [1, 1], [2, 2]]))]),
        ("json", ["symmetry", "--body", "{not json"]),
        ("point", ["alpha", "--body", json.dumps(vspec(P.V)), "--point", "0,0,0"]),
        ("box", ["tau", "--body", json.dumps(boxspec([1.0, 0.0], [0.0, 1.0])), "--dir", "1,0"]),
        ("unbounded", ["support", "--body", json.dumps(hspec([[1, 0], [0, 1]], [1, 1])),
                       "--dir", "1,0"]),
        ("field", ["width", "--body", json.dumps({"kind": "sum", "bodies": [vspec(P.V)]})]),
    ]
    for j in rng.choice(len(bad), size=5, replace=False):
        qs.append(cli_bad(mg, *bad[j]))
    return [qs[j] for j in rng.permutation(len(qs))]


def cli_oneshot(mg, seed):
    # fresh bodies in every pass
    return lambda k: cli_pass(mg, seed, k)


WORKLOADS = {
    "planar_reuse": planar_reuse,
    "polytope_lp": polytope_lp,
    "oracle_sampled": oracle_sampled,
    "cli_oneshot": cli_oneshot,
}


def warm_up(mg):
    """One query on a body outside every workload: loads argparse, json and
    HiGHS, whose first solve costs more than later ones."""
    code, _, err = run_cli(mg.cli, ["support", "--body", json.dumps(
        boxspec([-1.0, -2.0], [3.0, 1.0])), "--dir", "1,0.5"])
    if code != 0:
        raise RuntimeError(f"warm-up query failed: {err}")
