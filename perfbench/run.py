"""Run one workload of the minkgauge benchmark and print its metrics.

    python3 perfbench/run.py --workload planar_reuse --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout (the directory holding src/minkgauge).
With --trace 0 it starts SETUPS fresh single-threaded interpreters one after
another; the last one also measures.  With --trace 1 it starts one traced
interpreter and reports per-layer metrics.  The last stdout line is the JSON
result; the lines before it are a header and one line per metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("planar_reuse", "polytope_lp", "oracle_sampled", "cli_oneshot")
SETUPS = 5           # setup_s is the median over this many fresh interpreters
RUN_LIMIT_S = 170.0  # every child process must end within this


def child(args, mode, deadline):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--t0", repr(t0)]
    # subprocess.run kills and reaps the child on timeout
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def header(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu": platform.processor() or platform.machine(),
            "nproc": os.cpu_count(), "blas_threads": 1}


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (Path.cwd() / "src" / "minkgauge" / "__init__.py").is_file():
        print("run.py: no src/minkgauge here; run from the root of a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        units = declared_units(args.trace)
        if args.trace:
            res = child(args, "trace", deadline)
            values = res["metrics"]
        else:
            runs = [child(args, "setup", deadline) for _ in range(SETUPS - 1)]
            res = child(args, "measure", deadline)
            runs.append(res)
            setups = [r["setup_s"] for r in runs]
            values = {
                "queries_per_s": res["queries"] / res["busy_s"],
                "query_ms_p50": res["p50_ms"],
                "query_ms_p90": res["p90_ms"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": res["peak_rss_mb"],
                "ok_frac": (res["queries"] - res["failed"]) / res["queries"],
            }
        if set(values) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    except (OSError, RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for msg in res["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("# " + json.dumps(header(args)))
    if args.trace:
        print(f"# setup (traced): {json.dumps(res['setup_counts'])}")
        for kind, c in sorted(res["per_kind"].items()):
            print(f"# per query  {kind:24s} n={c['queries']:4d}  "
                  f"lp_solves={c['lp_solves'] / c['queries']:9.2f}  "
                  f"support_calls={c['support_calls'] / c['queries']:9.2f}")
    else:
        print(f"# queries={res['queries']} passes={res['passes']} "
              f"beyond_p90={res['beyond_p90']} failed={res['failed']} "
              f"failed_frac={res['failed'] / res['queries']:.6g} "
              f"setups_s={[round(s, 4) for s in setups]}")
        print(f"# unscaled: queries_per_s={res['queries'] / res['raw_busy_s']:.6g} "
              f"query_ms_p50={res['raw_p50_ms']:.6g} query_ms_p90={res['raw_p90_ms']:.6g} "
              f"setups_s={[round(r['raw_setup_s'], 4) for r in runs]} probes={res['probes']} "
              f"probe_ms_p10_p50_p90={[round(t, 4) for t in res['probe_ms_p10_p50_p90']]}")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["queries"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
