"""Operation counts for the rows of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Run from the root of a source checkout.  Each row runs once untimed by the
tracer (for its wall time) and once under the tracer (for its counts).
Counts are the same on any machine; times are this machine's.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import minkgauge as mg  # noqa: E402
import minkgauge.cli  # noqa: E402,F401
from tracer import Tracer  # noqa: E402
from workloads import CUBE_POINT, warm_up  # noqa: E402


def rows():
    box2 = mg.make_box([-1.0, -1.0], [1.0, 1.0])
    poly = mg.random_polygon(20, 1)
    vbox = mg.VPolytope(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    v3 = mg.VPolytope(np.random.default_rng(0).normal(size=(12, 3)))
    return [
        ("support, VPolytope 2-d box", lambda: mg.support(vbox, [1.0, 0.3])),
        ("support, HPolytope 2-d box", lambda: mg.support(box2, [1.0, 0.3])),
        ("support, Ball 2-d", lambda: mg.support(mg.Ball([0.0, 0.0], 1.0), [1.0, 0.3])),
        ("support, oracle weighted l2 d=2",
         lambda: mg.support(mg.make_weighted_l2_ball(2), [1.0, 0.3])),
        ("support, Sum of V box and ball",
         lambda: mg.support(mg.Sum((vbox, mg.Ball([0.0, 0.0], 1.0))), [1.0, 0.3])),
        ("alpha, planar closed form", lambda: mg.alpha(poly, [0.1, 0.1])),
        ("alpha, cube [-1,1]^3 exterior", lambda: mg.alpha(mg.make_box(-np.ones(3), np.ones(3)),
                                                           CUBE_POINT)),
        ("alpha, 3-simplex exterior", lambda: mg.alpha(mg.make_simplex(3), [1.0, 1.0, 1.0])),
        ("alpha, sampled, weighted l2 ball d=16",
         lambda: mg.alpha(mg.make_weighted_l2_ball(16), np.full(16, 0.3))),
        ("cheb_growth, 2-d box, 1,000 samples",
         lambda: mg.cheb_growth(box2, [2.0, 0.5], 3, n_samples=1000)),
        ("alpha_inf, 12-vertex V-polytope in R^3", lambda: mg.alpha_inf(v3)),
    ]


def main():
    warm_up(mg)
    tracer = Tracer(mg)
    print(f"{'operation':42s} {'ms':>9s} {'LPs':>6s} {'support':>8s} {'oracle h':>9s}  note")
    for label, fn in rows():
        note = ""
        t0 = time.perf_counter()
        try:
            fn()
        except mg.BodyError as exc:
            note = f"raises BodyError: {exc}"
        ms = 1e3 * (time.perf_counter() - t0)
        before = (tracer.calls["lp.solve"], tracer.calls["body.support"],
                  tracer.counts["body.oracle_h_calls"])
        tracer.install()
        try:
            fn()
        except mg.BodyError:
            pass
        finally:
            tracer.remove()
        lps, sup, h = (a - b for a, b in zip(
            (tracer.calls["lp.solve"], tracer.calls["body.support"],
             tracer.counts["body.oracle_h_calls"]), before))
        print(f"{label:42s} {ms:9.2f} {lps:6d} {sup:8d} {h:9d}  {note}")
    errors = tracer.self_test("")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
