"""One workload process of the benchmark; started by run.py, never directly.

Modes:
  setup    import minkgauge, build and validate the workload, warm up, exit
  measure  set up, then run whole passes until --seconds have elapsed
  trace    set up under the tracer, then one untraced and one traced pass

The last stdout line is a JSON record for run.py.  Set-up time is measured
from --t0, the parent's monotonic clock reading just before it started this
interpreter, so it includes interpreter start and every import; it is scaled
phase by phase for the host's speed (speed.SetupClock).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from speed import SetupClock, SpeedTrack


def run_pass(queries, speed, tracer=None):
    """Time each query alone (closed loop) and check its answer untimed.
    Between queries, ``speed`` probes the host when a probe is due.

    Returns (latencies, failure messages, per-kind LP/support counts).
    """
    lat, failures = [], []
    per_kind = defaultdict(Counter)
    clock = time.perf_counter
    for q in queries:
        speed.before_query()
        if tracer is not None:
            lp0, sup0 = tracer.calls["lp.solve"], tracer.calls["body.support"]
        t0 = clock()
        try:
            result, err = q.run(), None
        except Exception as exc:  # a raised query is a failed query
            result, err = None, f"raised {type(exc).__name__}: {exc}"
        lat.append(clock() - t0)
        if tracer is not None:
            tracer.active = False
            per_kind[q.kind]["queries"] += 1
            per_kind[q.kind]["lp_solves"] += tracer.calls["lp.solve"] - lp0
            per_kind[q.kind]["support_calls"] += tracer.calls["body.support"] - sup0
        if err is None:
            try:
                err = q.check(result)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = True
        if err:
            failures.append(f"{q.kind}: {err}")
    return lat, failures, per_kind


def nearest_rank(sorted_values, q):
    """The q-quantile as a measured sample (nearest-rank definition)."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()
    setup_clock = SetupClock(args.t0)
    setup_clock.mark()

    sys.path.insert(0, str(Path.cwd() / "src"))
    import minkgauge as mg
    import minkgauge.cli  # noqa: F401  (binds mg.cli)
    from workloads import WORKLOADS, warm_up
    setup_clock.mark()

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer(mg)
        tracer.install()
    passes = WORKLOADS[args.workload](mg, args.seed)
    setup_clock.mark()
    warm_up(mg)
    setup_clock.mark()
    out = {"setup_s": setup_clock.scaled_s, "raw_setup_s": setup_clock.raw_s}

    if args.mode == "measure":
        lat, failures, n_passes = [], [], 0
        speed = SpeedTrack()
        deadline = time.monotonic() + args.seconds
        while n_passes == 0 or time.monotonic() < deadline:
            pl, pf, _ = run_pass(passes(n_passes), speed)
            lat += pl
            failures += pf
            n_passes += 1
        norm = sorted(t * f for t, f in zip(lat, speed.scales()))
        raw = sorted(lat)
        probes = sorted(speed.times)
        out.update(queries=len(lat), passes=n_passes, probes=len(probes),
                   probe_ms_p10_p50_p90=[1e3 * nearest_rank(probes, q) for q in (0.1, 0.5, 0.9)],
                   busy_s=sum(norm), p50_ms=1e3 * nearest_rank(norm, 0.5),
                   p90_ms=1e3 * nearest_rank(norm, 0.9),
                   beyond_p90=len(norm) - math.ceil(0.9 * len(norm)),
                   raw_busy_s=sum(raw), raw_p50_ms=1e3 * nearest_rank(raw, 0.5),
                   raw_p90_ms=1e3 * nearest_rank(raw, 0.9))
    elif args.mode == "trace":
        tracer.remove()
        setup_counts = {"lp_solves": tracer.calls["lp.solve"],
                        "support_calls": tracer.calls["body.support"]}
        plain_speed, traced_speed = SpeedTrack(), SpeedTrack()
        plain, failures, _ = run_pass(passes(0), plain_speed)
        tracer.install()
        traced, tf, per_kind = run_pass(passes(0), traced_speed, tracer)
        tracer.remove()
        failures += tf + tracer.self_test(args.workload)
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (
            sum(t * f for t, f in zip(traced, traced_speed.scales()))
            / sum(t * f for t, f in zip(plain, plain_speed.scales())) - 1.0)
        out.update(queries=len(plain) + len(traced), metrics=metrics,
                   setup_counts=setup_counts, per_kind=per_kind)
    else:
        failures = []

    out.update(failed=len(failures), failures=failures[:20],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
