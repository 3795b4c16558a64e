"""Span tracing of minkgauge from outside the package.

``Tracer.install`` wraps every public function (and public method of a
public class) defined in the layer modules, plus ``scipy.optimize.minimize``
and the ``linprog`` binding inside ``minkgauge.lp``.  Modules bind names at
import (``from .body import support`` in gauge, ratios, geometry and cheb;
``support_fn`` in cli), so every binding of a wrapped function in every
loaded ``minkgauge`` module is replaced, not only the defining module's.

A span's self time is its duration minus the durations of its child spans;
the process is single threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("lp", "body", "geometry", "gauge", "ratios", "cheb", "shapes", "cli")


class Tracer:
    def __init__(self, mg):
        self.mg = mg
        self.calls = Counter()            # "layer.function" -> calls
        self.counts = Counter()           # derived counters (routes, kinds, ...)
        self.busy = defaultdict(float)    # "layer" and "layer.function" -> self time
        self.active = False
        self._stack = []
        self._patches = []
        self._kinds = [(getattr(mg, cls), name) for cls, name in
                       (("VPolytope", "vpolytope"), ("HPolytope", "hpolytope"),
                        ("Ball", "ball"), ("SupportOracle", "oracle"))]

    # -- spans ----------------------------------------------------------------

    def _wrap(self, layer, name, fn, on_call=None, on_return=None):
        full = f"{layer}.{name}"
        stack, busy, calls, clock = self._stack, self.busy, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                busy[layer] += own
                busy[full] += own
                calls[full] += 1
            if on_return is not None:
                on_return(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self, full):
        """Per-function counters recorded next to the span."""
        counts = self.counts
        if full == "lp.solve":
            sig = inspect.signature(self.mg.lp.solve)

            def on_call(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                counts["lp.cols_total"] += int(np.size(a["c"]))
                counts["lp.rows_total"] += sum(len(a[k]) for k in ("A_ub", "A_eq")
                                               if a.get(k) is not None)

            def on_return(res):
                if res.status is self.mg.LPStatus.INFEASIBLE:
                    counts["lp.infeasible"] += 1
            return on_call, on_return
        if full == "body.support":
            def on_call(args, kwargs):
                K = args[0] if args else kwargs["K"]
                for cls, kind in self._kinds:
                    if isinstance(K, cls):
                        counts[f"body.support_calls.{kind}"] += 1
                        return
                counts["body.support_calls.composite"] += 1
            return on_call, None
        if full == "gauge.alpha":
            def on_return(res):
                counts[f"gauge.route.{res.method}"] += 1
            return None, on_return
        if full == "cli.run":
            def on_return(code):
                counts[f"cli.exit.{code}"] += 1
            return None, on_return
        return None, None

    # -- install / remove --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy.optimize
        mg = self.mg
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"minkgauge.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    hooks = self._hooks(f"{layer}.{name}")
                    replaced[id(obj)] = self._wrap(layer, name, obj, *hooks)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, mname,
                                        self._wrap(layer, f"{name}.{mname}", meth))
        for mod in [m for n, m in sys.modules.items()
                    if n == "minkgauge" or n.startswith("minkgauge.")]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)].__wrapped__ is obj:
                    self._patch(mod, name, replaced[id(obj)])

        counts = self.counts

        def on_minimize(res):
            counts["optimize.nfev"] += int(getattr(res, "nfev", 0))
        self._patch(scipy.optimize, "minimize",
                    self._wrap("optimize", "minimize", scipy.optimize.minimize,
                               None, on_minimize))

        linprog = mg.lp.linprog

        def counted_linprog(*args, **kwargs):
            counts["scipy.linprog_calls"] += 1
            return linprog(*args, **kwargs)
        self._patch(mg.lp, "linprog", counted_linprog)

        # oracle h is a per-instance callable, so count it on each new oracle
        oracle = mg.SupportOracle
        post_init = oracle.__post_init__
        tracer = self

        def counted_post_init(inst):
            post_init(inst)
            h = inst.h

            def counted_h(v):
                if tracer.active:
                    counts["body.oracle_h_calls"] += 1
                return h(v)
            object.__setattr__(inst, "h", counted_h)
        self._patch(oracle, "__post_init__", counted_post_init)
        self.active = True

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- report -------------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values keyed by their benchmark names."""
        c, k, b = self.calls, self.counts, self.busy
        solves = c["lp.solve"]
        m = {
            "lp.solves": solves,
            "lp.busy_s": b["lp"],
            "lp.ms_per_solve": 1e3 * b["lp"] / solves if solves else 0.0,
            "lp.infeasible_frac": k["lp.infeasible"] / solves if solves else 0.0,
            "lp.rows_mean": k["lp.rows_total"] / solves if solves else 0.0,
            "lp.cols_mean": k["lp.cols_total"] / solves if solves else 0.0,
        }
        for kind in ("vpolytope", "hpolytope", "ball", "oracle", "composite"):
            m[f"body.support_calls.{kind}"] = k[f"body.support_calls.{kind}"]
        m.update({
            "body.support_busy_s": b["body.support"],
            "body.oracle_h_calls": k["body.oracle_h_calls"],
            "body.hull2d_calls": c["body.hull2d"],
            "body.hull2d_busy_s": b["body.hull2d"],
            "body.halfspaces_calls": c["body.halfspaces"],
            "body.vertex_candidates_calls": c["body.vertex_candidates"],
            "body.lp_encoding_calls": c["body.lp_encoding"],
            "body.contains_calls": c["body.contains"],
            "body.validate_busy_s": b["body.validate"],
            "geometry.busy_s": b["geometry"],
            "geometry.vertices2d_calls": c["geometry.vertices2d"],
            "optimize.minimize_calls": c["optimize.minimize"],
            "optimize.nfev": k["optimize.nfev"],
            "gauge.busy_s": b["gauge"],
            "gauge.facet_profile_calls": c["gauge.facet_profile"],
            "gauge.facet_profile_busy_s": b["gauge.facet_profile"],
            "gauge.t_func_calls": c["gauge.t_func"],
            "gauge.route.closed_form": k["gauge.route.closed_form"],
            "gauge.route.lp_bisection": k["gauge.route.lp_bisection"],
            "gauge.route.sampled": k["gauge.route.sampled"],
            "ratios.busy_s": b["ratios"],
            "ratios.chord_calls": c["ratios.chord"],
            "cheb.busy_s": b["cheb"],
            "shapes.parse_busy_s": b["shapes"],
            "cli.busy_s": b["cli"],
            "cli.exit.0": k["cli.exit.0"],
            "cli.exit.2": k["cli.exit.2"],
            "cli.exit.3": k["cli.exit.3"],
        })
        return m

    def self_test(self, workload):
        """Binding-completeness checks; returns a list of failure messages."""
        errors = []
        if self.calls["lp.solve"] != self.counts["scipy.linprog_calls"]:
            errors.append(f"lp.solves={self.calls['lp.solve']} but minkgauge.lp.linprog "
                          f"saw {self.counts['scipy.linprog_calls']} calls")
        support_total = sum(self.counts[f"body.support_calls.{kind}"] for kind in
                            ("vpolytope", "hpolytope", "ball", "oracle", "composite"))
        if support_total != self.calls["body.support"]:
            errors.append("support calls by kind do not add up to body.support calls")
        if workload == "oracle_sampled" and 2 * self.calls["gauge.t_func"] > support_total:
            errors.append(f"gauge.t_func_calls x 2 = {2 * self.calls['gauge.t_func']} "
                          f"exceeds body.support calls {support_total}")
        return errors
