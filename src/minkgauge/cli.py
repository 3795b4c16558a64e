"""Command line front end.

Bodies come in as JSON (a file path or an inline document starting with
"{"), queries go out as strict JSON on stdout with 12 significant digits,
grids as CSV.  Exit codes: 0 success, 2 bad input, 3 numerical failure,
a result beyond float range included.  Every
sampled computation takes a seed and defaults are fixed, so identical
invocations produce identical bytes.  Counts that size the work (directions,
lines, samples, queries, degrees, grid rows) are capped by the MAX_*
constants below; a negative or larger request exits 2 before any work starts.
The parser turns every vector flag into finite numbers; ``run`` reads the
body once, and writes stdout only after the handler returns its record.
Stderr holds nothing but the one error record of a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from .body import BodyError, dim, homothety, support as support_fn
from .cheb import (_body_samples, _layer_coordinate, bernstein_bound, cheb_growth,
                   cheb_T_prime, leading_growth)
from .gauge import alpha, alpha_inf, level_set
from .geometry import (central_symm, far_radius, global_width, hausdorff,
                       max_chord, sphere_dirs, width_dir)
from .lp import NumericalError
from .ratios import beta, brute_force_alpha, ratio_functionals, rho
from .shapes import SchemaError, parse_body, serialize_body


# Caps on the work one invocation may ask for.  Sampled routes allocate
# (n, d) direction arrays in one go; grid evaluates alpha steps^d times.
MAX_N_DIRS = 65536
MAX_N_LINES = 4096
MAX_N_SAMPLES = 100000
MAX_N_QUERIES = 10000
MAX_SWEEP_DEGREE = 64
MAX_GRID_ROWS = 100000


class _UsageError(ValueError):
    pass


def _capped_int(name, cap):
    """argparse type: a nonnegative integer no larger than the named cap."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{value} is negative")
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} exceeds the limit {name} = {cap}")
        return value
    return parse


def _numbers(text):
    """argparse type: comma-separated finite numbers, as an array."""
    try:
        x = np.array([float(p) for p in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(x)):
        raise argparse.ArgumentTypeError(f"non-finite entry in {text!r}")
    return x


def _factors(text):
    """argparse type: comma-separated numbers in (0, 1)."""
    x = _numbers(text)
    if not np.all((x > 0.0) & (x < 1.0)):
        raise argparse.ArgumentTypeError(f"entries must lie in (0, 1), got {text!r}")
    return x


# the vector flags whose length must be the body's dimension
_POINT_FLAGS = ("point", "dir", "low", "high")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # vector values like "-3,-3" must parse as option arguments, not flags
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise _UsageError(message)


def _load_body(text, path="body"):
    """The body of a --body style flag; schema errors name ``path``."""
    if text.lstrip().startswith("{"):
        doc = text
    else:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                doc = fh.read()
        except OSError as exc:
            raise _UsageError(f"cannot read body file {text!r}: {exc}") from exc
    try:
        spec = json.loads(doc)
    except json.JSONDecodeError as exc:
        raise SchemaError(path, f"not valid JSON: {exc}") from exc
    return parse_body(spec, path)


def _clean(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        # + 0.0 turns a negative zero into 0.0
        return float(f"{float(obj):.12g}") + 0.0
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    return obj


def _fail(kind, message, code):
    print(json.dumps({"error": kind, "message": message}, sort_keys=True), file=sys.stderr)
    return code


def _serialize_or_describe(body):
    if body is None:
        return None
    try:
        return serialize_body(body)
    except BodyError:
        return {"kind": "unserializable", "description": type(body).__name__}


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed body and the namespace, whose
# vectors already match the body's dimension, and returns the record to
# print (grid returns its CSV text)


def _cmd_alpha(K, ns):
    res = alpha(K, ns.point)
    return {"alpha": res.alpha, "method": res.method, "tol": res.tol,
            "witness_dir": res.witness_dir}


def _cmd_levelset(K, ns):
    ls = level_set(K, ns.lam)
    return {"lambda": ls.lam, "empty": ls.empty,
            "body": _serialize_or_describe(ls.body)}


def _cmd_symmetry(K, ns):
    rep = alpha_inf(K)
    return {
        "alpha_inf": rep.alpha_inf,
        "measure": rep.measure,
        "minimizer": rep.minimizer,
        "critical_dim_estimate": rep.critical_dim_estimate,
        "klee_lhs": rep.klee_lhs,
        "critical_body": {
            "lambda": rep.critical_body.lam,
            "empty": rep.critical_body.empty,
            "body": _serialize_or_describe(rep.critical_body.body),
        },
    }


def _cmd_tau(K, ns):
    return {"tau": max_chord(K, ns.dir), "dir": ns.dir}


def _cmd_width(K, ns):
    res = global_width(K)
    return {"width": res.value, "direction": res.direction, "exact": res.exact}


def _cmd_support(K, ns):
    v = ns.dir
    return {"support": support_fn(K, v), "width_dir": width_dir(K, v), "dir": v}


def _cmd_hausdorff(K, ns):
    res = hausdorff(K, _load_body(ns.body2, "body2"), n_dirs=ns.n_dirs, seed=ns.seed)
    return {"hausdorff": res.value, "exact": res.exact}


def _cmd_oracle_check(K, ns):
    x = ns.point
    res = alpha(K, x)
    brute = brute_force_alpha(K, x, n_dirs=ns.n_dirs, seed=ns.seed)
    ratios = ratio_functionals(K, x, n_lines=ns.n_lines, seed=ns.seed)
    record = {
        "alpha": res.alpha,
        "method": res.method,
        "alpha_brute_force": brute,
        "brute_force_gap": res.alpha - brute,
        "ratios": dataclasses.asdict(ratios),
    }
    if ratios.point_in_body:
        b = beta(K, x)
        record["beta"] = b
        record["identity_residuals"] = {
            "alpha_vs_beta": abs(res.alpha - (1.0 - b) / (1.0 + b)),
        }
        if ratios.sigma is not None:
            record["identity_residuals"]["alpha_vs_sigma_sampled"] = (
                res.alpha - (1.0 - ratios.sigma) / (1.0 + ratios.sigma))
    else:
        r = rho(K, x)
        record["rho"] = r
        # rho = (alpha - 1)/(alpha + 1) is well conditioned; its inverse
        # (1 + rho)/(1 - rho) cancels as rho -> 1, far from K
        record["identity_residuals"] = {
            "alpha_vs_rho": abs(r - (res.alpha - 1.0) / (res.alpha + 1.0)),
        }
        if ratios.mu is not None:
            record["identity_residuals"]["alpha_vs_mu_sampled"] = (
                ratios.mu - res.alpha)
    return record


def _cmd_ratios(K, ns):
    return dataclasses.asdict(ratio_functionals(K, ns.point, n_lines=ns.n_lines,
                                                seed=ns.seed))


def _cmd_cheb_growth(K, ns):
    rep = cheb_growth(K, ns.point, ns.degree, n_samples=ns.n_samples, seed=ns.seed)
    return {"degree": rep.n, "alpha": rep.alpha, "growth": rep.growth,
            "witness_dir": rep.witness_dir,
            "value_at_point": rep.extremal_eval(ns.point),
            "sup_norm_check": rep.sup_norm_check,
            "witness_tol": rep.witness_tol}


def _cmd_cheb_leading(K, ns):
    rep = leading_growth(K, ns.dir, ns.degree)
    return {"degree": rep.n, "value": rep.value, "tau": rep.tau,
            "witness_dir": rep.witness_dir}


def _cmd_bernstein(K, ns):
    rep = bernstein_bound(K, ns.point, ns.degree, ns.norm_bound)
    return {"theorem_bound": rep.theorem_bound,
            "conjecture_bound": rep.conjecture_bound,
            "conjecture_note": "reported for comparison only, not asserted",
            "alpha": rep.alpha, "width": rep.width,
            "width_exact": rep.width_exact, "degree": ns.degree,
            "norm_bound": ns.norm_bound}


def _cmd_grid(K, ns):
    d = dim(K)
    if ns.steps < 2:
        raise _UsageError("--steps must be >= 2")
    if ns.steps ** d > MAX_GRID_ROWS:
        raise _UsageError(f"--steps {ns.steps} in dimension {d} gives {ns.steps}^{d} rows, "
                          f"above the limit MAX_GRID_ROWS = {MAX_GRID_ROWS}")
    axes = [np.linspace(ns.low[i], ns.high[i], ns.steps) for i in range(d)]
    for i, ax in enumerate(axes):
        # high - low can overflow for finite ends, and linspace then gives NaN
        if not np.all(np.isfinite(ax)):
            raise _UsageError(f"--low/--high: the grid steps on axis {i + 1} "
                              f"are beyond float range")
    lines = [",".join([f"x{i + 1}" for i in range(d)] + ["alpha"])]
    for idx in np.ndindex(*(ns.steps,) * d):
        pt = np.array([axes[i][idx[i]] for i in range(d)])
        a = alpha(K, pt).alpha
        if not np.isfinite(a):
            raise NumericalError(f"alpha at {pt.tolist()} is beyond float range")
        lines.append(",".join(f"{v:.12g}" for v in pt) + f",{a:.12g}")
    return "\n".join(lines)


def _cmd_experiment_deltabound(K, ns):
    lams = np.arange(0.1, 1.0, 0.1) if ns.lambdas is None else ns.lambdas
    C = central_symm(K)
    bound = far_radius(K) - 0.5 * global_width(K).value
    rows = []
    for lam in map(float, lams):
        ls = level_set(K, lam)
        if ls.empty:
            rows.append({"lambda": lam, "empty": True})
            continue
        delta = hausdorff(ls.body, homothety(C, lam))
        # D - w/2 is 0 on an origin-centred interval [-r, r]: no ratio there
        rows.append({"lambda": lam, "empty": False, "delta": delta.value, "exact": delta.exact,
                     "ratio_to_bound": delta.value / bound if bound > 0.0 else None})
    filled = [r["ratio_to_bound"] for r in rows if r.get("ratio_to_bound") is not None]
    return {"bound_D_minus_half_w": bound, "rows": rows,
            "max_ratio": max(filled) if filled else None,
            "note": "no sharp bound is asserted below lambda = 1; "
                    "observational output only"}


def _cmd_experiment_conjecture(K, ns):
    d = dim(K)
    rng = np.random.default_rng(ns.seed)
    w_res = global_width(K)
    pts = _body_samples(K, ns.n_queries, ns.seed + 1)
    dirs = sphere_dirs(d, max(8, ns.n_queries // 4), ns.seed + 2)
    worst = {"ratio": -np.inf}
    n_checked = 0
    for n in range(1, ns.max_degree + 1):
        for _ in range(ns.n_queries):
            x = pts[rng.integers(0, len(pts))]
            v = dirs[rng.integers(0, len(dirs))]
            a = alpha(K, x).alpha
            if a >= 1.0 - 1e-9:
                continue
            # the layer coordinate t = g . x + c0, with gradient g
            g, c0 = _layer_coordinate(K, v)
            t_val = float(g @ x) + c0
            grad_norm = abs(cheb_T_prime(n, min(max(t_val, -1.0), 1.0))) * \
                float(np.linalg.norm(g))
            ratio = grad_norm * w_res.value * np.sqrt(1.0 - a * a) / (2.0 * n)
            n_checked += 1
            if ratio > worst["ratio"]:
                worst = {"ratio": ratio, "degree": n, "point": x.tolist(),
                         "dir": v.tolist(), "alpha": a}
    return {"max_ratio": worst["ratio"] if n_checked else None,
            "worst_case": worst if n_checked else None,
            "n_checked": n_checked,
            "width_exact": w_res.exact,
            "note": "ratios <= 1 are consistent with the conjectured "
                    "sharper bound; nothing is asserted either way"}


@functools.cache
def _build_parser():
    """The argument parser, built once per process: building it costs far
    more than parsing one command line, and parsing leaves it unchanged."""
    p = _Parser(prog="minkgauge", description=__doc__)
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    def cmd(name, handler, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=handler)
        sp.add_argument("--body", required=True,
                        help="body JSON: file path or inline document")
        return sp

    sp = cmd("alpha", _cmd_alpha, help="generalized gauge at a point")
    sp.add_argument("--point", type=_numbers, required=True)

    sp = cmd("levelset", _cmd_levelset, help="level body at a factor")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)

    cmd("symmetry", _cmd_symmetry, help="symmetry report (infimum gauge)")

    sp = cmd("tau", _cmd_tau, help="maximal chord in a direction")
    sp.add_argument("--dir", type=_numbers, required=True)

    cmd("width", _cmd_width, help="global width")

    sp = cmd("support", _cmd_support, help="support value in a direction")
    sp.add_argument("--dir", type=_numbers, required=True)

    sp = cmd("hausdorff", _cmd_hausdorff, help="distance between two bodies")
    sp.add_argument("--body2", required=True)
    sp.add_argument("--n-dirs", type=_capped_int("MAX_N_DIRS", MAX_N_DIRS), default=4096)
    sp.add_argument("--seed", type=int, default=0)

    sp = cmd("oracle-check", _cmd_oracle_check,
             help="cross-validate the gauge on one instance")
    sp.add_argument("--point", type=_numbers, required=True)
    sp.add_argument("--n-dirs", type=_capped_int("MAX_N_DIRS", MAX_N_DIRS), default=4096)
    sp.add_argument("--n-lines", type=_capped_int("MAX_N_LINES", MAX_N_LINES), default=128)
    sp.add_argument("--seed", type=int, default=0)

    sp = cmd("ratios", _cmd_ratios, help="chord ratio functionals")
    sp.add_argument("--point", type=_numbers, required=True)
    sp.add_argument("--n-lines", type=_capped_int("MAX_N_LINES", MAX_N_LINES), default=64)
    sp.add_argument("--seed", type=int, default=0)

    sp = cmd("cheb-growth", _cmd_cheb_growth,
             help="pointwise polynomial growth at an exterior point")
    sp.add_argument("--point", type=_numbers, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--n-samples", type=_capped_int("MAX_N_SAMPLES", MAX_N_SAMPLES),
                    default=10000)
    sp.add_argument("--seed", type=int, default=29)

    sp = cmd("cheb-leading", _cmd_cheb_leading,
             help="leading coefficient growth in a direction")
    sp.add_argument("--dir", type=_numbers, required=True)
    sp.add_argument("--degree", type=int, required=True)

    sp = cmd("bernstein", _cmd_bernstein, help="gradient bounds at a point")
    sp.add_argument("--point", type=_numbers, required=True)
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--norm-bound", type=float, default=1.0)

    sp = cmd("grid", _cmd_grid, help="CSV of alpha over a lattice")
    sp.add_argument("--low", type=_numbers, required=True)
    sp.add_argument("--high", type=_numbers, required=True)
    sp.add_argument("--steps", type=int, required=True)

    sp = cmd("experiment-deltabound", _cmd_experiment_deltabound,
             help="distance of level bodies to scaled symmetrization, "
                  "factors below 1")
    sp.add_argument("--lambdas", type=_factors, default=None)

    sp = cmd("experiment-conjecture", _cmd_experiment_conjecture,
             help="search for violations of the conjectured gradient bound")
    sp.add_argument("--n-queries", type=_capped_int("MAX_N_QUERIES", MAX_N_QUERIES),
                    default=100)
    sp.add_argument("--max-degree", type=_capped_int("MAX_SWEEP_DEGREE", MAX_SWEEP_DEGREE),
                    default=6)
    sp.add_argument("--seed", type=int, default=11)

    return p


def run(argv):
    """Execute one invocation; returns the process exit code.

    The body is read once, here, and every vector flag checked against its
    dimension before the handler runs; stdout is written only after the
    handler has returned."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except _UsageError as exc:
        return _fail("input", str(exc), 2)
    if getattr(ns, "handler", None) is None:
        return _fail("input", "no subcommand given", 2)
    try:
        # numpy's floating-point warnings would go to stderr ahead of the
        # error record; a value beyond float range is reported below instead
        with np.errstate(all="ignore"):
            K = _load_body(ns.body)
            d = dim(K)
            for name in _POINT_FLAGS:
                x = getattr(ns, name, None)
                if x is not None and x.size != d:
                    raise _UsageError(f"argument --{name}: has length {x.size}, "
                                      f"the body has dimension {d}")
            out = ns.handler(K, ns)
    except (_UsageError, SchemaError, BodyError, ValueError) as exc:
        return _fail("input", str(exc), 2)
    except (NumericalError, OverflowError) as exc:
        return _fail("numerical", str(exc), 3)
    except Exception as exc:  # pragma: no cover - safety net
        return _fail("internal", f"{type(exc).__name__}: {exc}", 3)
    if not isinstance(out, str):
        try:
            out = json.dumps(_clean(out), sort_keys=True, allow_nan=False)
        except ValueError:
            return _fail("numerical", "result beyond float range", 3)
    print(out)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
