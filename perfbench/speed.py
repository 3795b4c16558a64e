"""Host speed probes, for timings that do not drift with the shared host.

On a shared host the speed of one core drifts by up to 2x, in stretches of
a few seconds: the same pass of queries takes 1.0x to 1.5x as long from one
pass to the next, and a fixed pure-Python loop 1x to 2x as long.  So the
benchmark times a fixed probe kernel that does not touch minkgauge, and
scales each timing by (the probe's time on the reference host) / (its time
around that timing).  That gives the timing on a host where the probe takes
its reference time: a slower program still reads slower, a slower host does
not.  Probes run between queries or between set-up phases, never inside one,
with the cyclic garbage collector off, so the program's heap does not change
their time.

- Queries: ``SpeedTrack`` runs the full kernel (a pure-Python loop, small
  numpy operations and a small Qhull call, the three kinds of work the
  workloads do) every PROBE_EVERY_S seconds, and scales each latency by the
  median of the WINDOW probes on each side of it.
- Set-up: ``SetupClock`` runs the pure-Python part only (numpy is not loaded
  yet when set-up starts) at each phase boundary, and scales each phase by
  the mean of the probes at its two ends.
"""

from __future__ import annotations

import bisect
import gc
import math
import time

REF_PROBE_S = 4.5e-4     # reference times: about the fast state of a shared 2-core
REF_PY_PROBE_S = 1.1e-4  # Intel Xeon host; fixed constants of the benchmark
PROBE_EVERY_S = 0.04
WINDOW = 5               # probes on each side of a query whose median scales it
SETUP_PROBES = 15        # python probes per set-up phase boundary


def _py_kernel():
    s = 0.0
    for i in range(1200):
        s += math.sqrt(i + 1.0) * 0.5
    return s


def _median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def _timed(kernel):
    """Seconds one run of kernel takes now, with the cyclic GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Probes taken between the queries of a run, by query index."""

    def __init__(self):
        import numpy as np
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(12345)
        M, v, P = rng.standard_normal((6, 6)), rng.standard_normal(6), rng.standard_normal((12, 2))

        def kernel():
            s = _py_kernel()
            for _ in range(40):
                w = M @ v
                s += float(np.max(w)) + float(np.linalg.norm(w))
            for _ in range(2):
                s += float(ConvexHull(P).volume)
            return s

        self._kernel = kernel
        self.queries = 0    # queries started so far
        self.at = []        # index of the query that follows each probe
        self.times = []     # probe durations, seconds
        self._last = -math.inf

    def before_query(self):
        """Probe if one is due, then count the query about to start."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self._kernel()      # untimed: warms the caches the last query left cold
            self.at.append(self.queries)
            self.times.append(_timed(self._kernel))
            self._last = time.perf_counter()
        self.queries += 1

    def scales(self):
        """REF_PROBE_S / the median of the probes around it, for each query."""
        out = []
        for i in range(self.queries):
            j = bisect.bisect_right(self.at, i)
            out.append(REF_PROBE_S / _median(self.times[max(0, j - WINDOW): j + WINDOW]))
        return out


class SetupClock:
    """Set-up time of a fresh interpreter, scaled phase by phase.

    t0 is a time.monotonic() reading taken before the interpreter started.
    Call mark() at the end of each phase; the first phase ends at the first
    mark and is scaled by that mark's probes alone.  Probe time is left out.
    """

    def __init__(self, t0):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._t = t0
        self._probe = None

    def mark(self):
        seg = time.monotonic() - self._t
        p = _median([_timed(_py_kernel) for _ in range(SETUP_PROBES)])
        ref = p if self._probe is None else 0.5 * (p + self._probe)
        self.raw_s += seg
        self.scaled_s += seg * REF_PY_PROBE_S / ref
        self._probe = p
        self._t = time.monotonic()
