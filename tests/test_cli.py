"""Command line interface: exit codes, JSON output discipline, determinism.

Every success path prints exactly one JSON object (or CSV for grid) to
stdout; every failure prints a machine readable error record to stderr and
exits 2 for input problems, 3 for numerical ones.
"""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from minkgauge import cli
from minkgauge.cli import run

SQUARE = json.dumps({"kind": "box", "low": [-1, -1], "high": [1, 1]})
TRIANGLE = json.dumps({"kind": "vpolytope",
                       "vertices": [[10, 10], [16, 10], [10, 16]]})


def run_json(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    return json.loads(out)


def run_err(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, json.loads(err) if err.strip().startswith("{") else err


def test_alpha_basic(capsys):
    rec = run_json(capsys, ["alpha", "--body", SQUARE, "--point", "0.5,0"])
    assert rec["alpha"] == 0.5
    assert rec["method"] == "closed_form"
    assert "witness_dir" in rec and "tol" in rec


def test_alpha_reads_body_from_file(tmp_path, capsys):
    p = tmp_path / "sq.json"
    p.write_text(SQUARE)
    rec = run_json(capsys, ["alpha", "--body", str(p), "--point", "0,0"])
    assert rec["alpha"] == 0.0


def test_alpha_twelve_significant_digits(capsys):
    code = run(["alpha", "--body", TRIANGLE, "--point", "12,12"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert '"alpha": 0.333333333333' in out


def test_output_keys_sorted(capsys):
    code = run(["alpha", "--body", SQUARE, "--point", "0.5,0"])
    out, _ = capsys.readouterr()
    rec = json.loads(out)
    assert list(rec) == sorted(rec)
    assert code == 0


def test_symmetry_report(capsys):
    rec = run_json(capsys, ["symmetry", "--body", TRIANGLE])
    assert rec["alpha_inf"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rec["measure"] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert rec["minimizer"] == pytest.approx([12.0, 12.0], abs=1e-6)
    assert rec["critical_dim_estimate"] == 0
    assert rec["klee_lhs"] == pytest.approx(2.0, abs=1e-7)
    assert rec["critical_body"]["lambda"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rec["critical_body"]["empty"] is False


def test_symmetry_report_of_a_ball(capsys):
    # a ball's critical set is its centre, reported as a level set like
    # every other body's
    ball = json.dumps({"kind": "ball", "center": [1, -2], "radius": 3})
    rec = run_json(capsys, ["symmetry", "--body", ball])
    assert rec["alpha_inf"] == 0.0 and rec["critical_dim_estimate"] == 0
    assert rec["minimizer"] == [1.0, -2.0]
    assert rec["critical_body"]["lambda"] == 0.0
    assert rec["critical_body"]["empty"] is False


def test_symmetry_report_of_an_even_polygon_is_zero_not_below(capsys):
    # its symmetry LP value rounds to -2.7e-16; alpha_inf >= 0 by definition
    body = json.dumps({"kind": "regular_polygon", "n": 10, "radius": 5.176311360294573,
                       "center": [6.941719367070082, -7.583697508984092],
                       "phase": 5.0479036776743})
    rec = run_json(capsys, ["symmetry", "--body", body])
    assert rec["alpha_inf"] == 0.0 and rec["critical_body"]["lambda"] == 0.0
    assert rec["measure"] == 1.0 and rec["critical_dim_estimate"] == 0
    assert rec["minimizer"] == pytest.approx([6.941719367070082, -7.583697508984092],
                                             abs=1e-9)


def test_symmetry_deterministic(capsys):
    run(["symmetry", "--body", TRIANGLE])
    first = capsys.readouterr().out
    run(["symmetry", "--body", TRIANGLE])
    second = capsys.readouterr().out
    assert first == second


def test_levelset_identity_roundtrip(capsys):
    from minkgauge import parse_body, sphere_dirs, support
    rec = run_json(capsys, ["levelset", "--body", TRIANGLE, "--lambda", "1"])
    assert rec["empty"] is False
    assert rec["lambda"] == 1.0
    K = parse_body(json.loads(TRIANGLE))
    L = parse_body(rec["body"], check=False)
    for u in sphere_dirs(2, 64, 13):
        assert support(L, u) == pytest.approx(support(K, u), abs=1e-8)


def test_levelset_empty(capsys):
    rec = run_json(capsys, ["levelset", "--body", TRIANGLE, "--lambda", "0.1"])
    assert rec["empty"] is True


def test_levelset_dilation_of_symmetric_box(capsys):
    rec = run_json(capsys, ["levelset", "--body", SQUARE, "--lambda", "2"])
    got = {tuple(v) for v in rec["body"]["vertices"]}
    assert got == {(2.0, 2.0), (2.0, -2.0), (-2.0, -2.0), (-2.0, 2.0)}


def test_levelset_prints_extreme_points_only(capsys):
    cube = json.dumps({"kind": "box", "low": [-1, -1, -1], "high": [1, 1, 1]})
    rec = run_json(capsys, ["levelset", "--body", cube, "--lambda", "2"])
    V = rec["body"]["vertices"]
    assert len(V) == 8
    assert {tuple(v) for v in V} == {(a, b, c) for a in (-2.0, 2.0) for b in (-2.0, 2.0)
                                     for c in (-2.0, 2.0)}


def test_tau_and_width(capsys):
    rec = run_json(capsys, ["tau", "--body", SQUARE, "--dir", "1,0"])
    assert rec["tau"] == 2.0
    rec = run_json(capsys, ["width", "--body", TRIANGLE])
    assert rec["width"] == pytest.approx(3.0 * np.sqrt(2.0), abs=1e-9)
    assert rec["exact"] is True


def test_support_record(capsys):
    rec = run_json(capsys, ["support", "--body", SQUARE, "--dir", "1,1"])
    assert rec["support"] == 2.0
    assert rec["width_dir"] == 4.0


def test_hausdorff_between_bodies(capsys):
    other = json.dumps({"kind": "box", "low": [0, -1], "high": [2, 1]})
    rec = run_json(capsys, ["hausdorff", "--body", SQUARE, "--body2", other])
    assert rec["hausdorff"] == 1.0
    assert rec["exact"] is True


def test_ratios_interior(capsys):
    rec = run_json(capsys, ["ratios", "--body", TRIANGLE, "--point", "12,12"])
    assert rec["point_in_body"] is True
    assert rec["sigma"] == 0.5
    assert rec["mu"] is None


def test_oracle_check_interior(capsys):
    rec = run_json(capsys, ["oracle-check", "--body", TRIANGLE, "--point", "12,12"])
    assert rec["alpha"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert rec["beta"] == pytest.approx(0.5, abs=1e-9)
    for v in rec["identity_residuals"].values():
        assert abs(v) <= 1e-8


def test_oracle_check_exterior(capsys):
    rec = run_json(capsys, ["oracle-check", "--body", SQUARE, "--point", "3,0"])
    assert rec["alpha"] == 3.0
    assert rec["rho"] == pytest.approx(0.5, abs=1e-6)
    for v in rec["identity_residuals"].values():
        assert abs(v) <= 1e-5


def test_chord_subcommands_on_a_one_dimensional_oracle(capsys):
    oracle = json.dumps({"kind": "weighted_l2_ball", "dim": 1})
    rec = run_json(capsys, ["ratios", "--body", oracle, "--point", "0.2"])
    assert rec["point_in_body"] is True and rec["mu"] is None
    inside = run_json(capsys, ["oracle-check", "--body", oracle, "--point", "0.2"])
    assert inside["ratios"] == {**rec, "n_chords": inside["ratios"]["n_chords"]}
    assert inside["ratios"]["nu"] == inside["alpha"] == 0.282842712475
    outside = run_json(capsys, ["oracle-check", "--body", oracle, "--point", "3"])
    assert outside["ratios"]["point_in_body"] is False
    assert outside["ratios"]["mu"] == outside["alpha"]
    for rec in (inside, outside):
        for v in rec["identity_residuals"].values():
            assert abs(v) <= 1e-12


def test_chord_subcommands_on_a_product_with_a_ball_factor(capsys):
    # no LP encodes the product, so its chords and rho go factor by factor
    body = json.dumps({"kind": "product", "factors": [
        {"kind": "regular_polygon", "n": 6}, {"kind": "ball", "center": [0], "radius": 0.5}]})
    rec = run_json(capsys, ["ratios", "--body", body, "--point", "0.1,0,0.1"])
    assert rec["point_in_body"] is True and rec["n_chords"] > 0
    inside = run_json(capsys, ["oracle-check", "--body", body, "--point", "0.1,0,0.1"])
    outside = run_json(capsys, ["oracle-check", "--body", body, "--point", "3,0,0.1"])
    assert outside["alpha"] == 3.0 and outside["rho"] == 0.5
    for rec in (inside, outside):
        for v in rec["identity_residuals"].values():
            assert abs(v) <= 1e-12


def test_oracle_check_exterior_of_a_vertex_polygon_solves_no_lp(capsys, lp_solves):
    # rho answers from the rows of C, alpha from K's rows in the plane
    rec = run_json(capsys, ["oracle-check", "--body", TRIANGLE, "--point", "20,5"])
    assert lp_solves == []
    assert rec["rho"] > 0.0
    assert rec["identity_residuals"]["alpha_vs_rho"] <= 1e-12


@pytest.mark.parametrize("point", ["1e12,0", "1e17,0"])
def test_oracle_check_far_from_the_body_keeps_the_rho_identity(point, capsys):
    # rho = (alpha - 1)/(alpha + 1) stays well conditioned where rho rounds to 1
    rec = run_json(capsys, ["oracle-check", "--body", SQUARE, "--point", point])
    assert rec["alpha"] == float(point.split(",")[0])
    assert rec["identity_residuals"]["alpha_vs_rho"] <= 1e-12


def test_cheb_growth_command(capsys):
    rec = run_json(capsys, ["cheb-growth", "--body", SQUARE, "--point", "3,0",
                            "--degree", "1"])
    assert rec["growth"] == 3.0
    assert rec["sup_norm_check"] <= 1.0 + 1e-9


def test_cheb_leading_command(capsys):
    rec = run_json(capsys, ["cheb-leading", "--body", SQUARE, "--dir", "1,0",
                            "--degree", "3"])
    assert rec["value"] == 4.0  # 2^5 / 2^3
    assert rec["tau"] == 2.0


def test_cheb_leading_prints_no_negative_zero(capsys):
    box = json.dumps({"kind": "box", "low": [-1, -1, -1], "high": [1, 2, 3]})
    argv = ["cheb-leading", "--body", box, "--dir", "1,1,0", "--degree", "2"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["witness_dir"] == [1.0, 0.0, 0.0]
    assert "-0.0" not in out


def test_bernstein_command_reports_but_never_asserts_conjecture(capsys):
    rec = run_json(capsys, ["bernstein", "--body", SQUARE, "--point", "0,0",
                            "--degree", "2"])
    assert rec["theorem_bound"] == 2.0
    assert "not asserted" in rec["conjecture_note"]


def test_cheb_leading_within_float_range_is_exact(capsys):
    # 2^(2n-1) / 2^n = 2^599 for the chord 2 of the square; 2^1199 would
    # overflow on the way
    rec = run_json(capsys, ["cheb-leading", "--body", SQUARE, "--dir", "1,0",
                            "--degree", "600"])
    assert rec["value"] == float(f"{2.0 ** 599:.12g}")


@pytest.mark.parametrize("argv", [
    ["cheb-leading", "--dir", "1,0", "--degree", "2000"],
    ["cheb-growth", "--point", "3,0", "--degree", "700"],
    ["bernstein", "--point", "0.1,0.1", "--degree", str(10 ** 400)],
], ids=["cheb-leading", "cheb-growth", "bernstein"])
def test_result_beyond_float_range_is_numerical_error(argv, capsys):
    code, out, err = run_err(capsys, argv[:1] + ["--body", SQUARE] + argv[1:])
    assert code == 3 and out == ""
    assert err["error"] == "numerical"


def _run_quiet(capsys, argv):
    """run_err, asserting that no warning was raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = run_err(capsys, argv)
    assert [str(w.message) for w in caught] == []
    return res


def test_levelset_beyond_float_range_writes_one_error_record(capsys):
    code, out, err = _run_quiet(capsys, ["levelset", "--body", SQUARE, "--lambda", "1e308"])
    assert code == 3 and out == ""
    assert err["error"] == "numerical"


def test_grid_steps_beyond_float_range_name_the_bounds(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("grid started evaluating")
    monkeypatch.setattr(cli, "alpha", no_work)
    code, out, err = _run_quiet(capsys, ["grid", "--body", SQUARE, "--low", "1e308,0",
                                         "--high", "-1e308,1", "--steps", "2"])
    assert code == 2 and out == ""
    assert err["error"] == "input" and "--low/--high" in err["message"]


def test_grid_alpha_beyond_float_range_is_numerical_error(capsys):
    code, out, err = _run_quiet(capsys, ["grid", "--body", SQUARE, "--low", "0,0",
                                         "--high", "1e308,1", "--steps", "2"])
    assert code == 3 and out == ""
    assert err["error"] == "numerical"


def test_grid_csv(capsys):
    code = run(["grid", "--body", SQUARE, "--low", "-1,-1", "--high", "1,1",
                "--steps", "3"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,alpha"
    assert len(lines) == 1 + 9
    row = dict(zip(lines[0].split(","), lines[5].split(",")))
    assert float(row["alpha"]) == pytest.approx(0.0, abs=1e-12)


def test_grid_61_step_lattice(capsys):
    code = run(["grid", "--body", SQUARE, "--low", "-3,-3", "--high", "3,3",
                "--steps", "61"])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 3721
    center = [ln for ln in lines[1:] if ln.startswith("0,0,")]
    assert center == ["0,0,0"]


def test_grid_respects_lipschitz(capsys):
    run(["grid", "--body", TRIANGLE, "--low", "10,10", "--high", "13,13",
         "--steps", "7"])
    out, _ = capsys.readouterr()
    rows = [tuple(map(float, ln.split(","))) for ln in out.strip().splitlines()[1:]]
    vals = {(r[0], r[1]): r[2] for r in rows}
    h = 0.5
    w = 3.0 * np.sqrt(2.0)
    for (x, y), a in vals.items():
        for nb in ((x + h, y), (x, y + h)):
            if nb in vals:
                assert abs(vals[nb] - a) <= 2.0 * h / w + 1e-9


def test_grid_rejects_single_step(capsys):
    code, _, err = run_err(capsys, ["grid", "--body", SQUARE, "--low", "-1,-1",
                                    "--high", "1,1", "--steps", "1"])
    assert code == 2
    assert err["error"] == "input"


CUBE = json.dumps({"kind": "box", "low": [-1, -1, -1], "high": [1, 1, 1]})


COUNT_FLAGS = [
    (["hausdorff", "--body", SQUARE, "--body2", SQUARE, "--n-dirs"], "MAX_N_DIRS"),
    (["oracle-check", "--body", SQUARE, "--point", "0,0", "--n-dirs"], "MAX_N_DIRS"),
    (["oracle-check", "--body", SQUARE, "--point", "0,0", "--n-lines"], "MAX_N_LINES"),
    (["ratios", "--body", SQUARE, "--point", "0,0", "--n-lines"], "MAX_N_LINES"),
    (["cheb-growth", "--body", SQUARE, "--point", "2,0", "--degree", "2", "--n-samples"],
     "MAX_N_SAMPLES"),
    (["experiment-conjecture", "--body", SQUARE, "--n-queries"], "MAX_N_QUERIES"),
    (["experiment-conjecture", "--body", SQUARE, "--max-degree"], "MAX_SWEEP_DEGREE"),
]


def _no_work(monkeypatch):
    def no_work(ns):
        raise AssertionError("capped work started")
    monkeypatch.setattr(cli, "_load_body", no_work)


@pytest.mark.parametrize("argv, cap", COUNT_FLAGS)
def test_count_caps_reject_one_over(argv, cap, capsys, monkeypatch):
    _no_work(monkeypatch)
    limit = getattr(cli, cap)
    code, out, err = run_err(capsys, argv + [str(limit + 1)])
    assert code == 2 and out == ""
    assert err["error"] == "input"
    assert f"{cap} = {limit}" in err["message"]


@pytest.mark.parametrize("argv, cap", COUNT_FLAGS)
def test_count_flags_reject_negatives(argv, cap, capsys, monkeypatch):
    _no_work(monkeypatch)
    code, out, err = run_err(capsys, argv + ["-3"])
    assert code == 2 and out == ""
    assert err["error"] == "input"
    assert err["message"] == f"argument {argv[-1]}: -3 is negative"


def test_oracle_check_takes_zero_directions(capsys):
    # no sampled directions: the brute-force gauge reads the facet normals
    rec = run_json(capsys, ["oracle-check", "--body", SQUARE, "--point", "0.3,0.2",
                            "--n-dirs", "0", "--n-lines", "16"])
    assert rec["alpha"] == rec["alpha_brute_force"] == pytest.approx(0.3, abs=1e-12)


BALL = json.dumps({"kind": "ball", "center": [0, 0], "radius": 1})
ORACLE = json.dumps({"kind": "weighted_l2_ball", "dim": 3, "mode": "i"})


@pytest.mark.parametrize("argv, flag", [
    (["cheb-growth", "--body", BALL, "--point", "2,0", "--degree", "2", "--n-samples", "0"],
     "n_samples"),
    (["hausdorff", "--body", ORACLE, "--body2", ORACLE, "--n-dirs", "0"], "n_dirs"),
])
def test_zero_sampled_count_names_the_count(argv, flag, capsys):
    code, out, err = run_err(capsys, argv)
    assert code == 2 and out == ""
    assert err["error"] == "input" and flag in err["message"]


def test_cheb_growth_takes_zero_samples_on_a_polytope(capsys):
    rec = run_json(capsys, ["cheb-growth", "--body", SQUARE, "--point", "2,0",
                            "--degree", "2", "--n-samples", "0"])
    assert rec["growth"] == 7.0 and rec["sup_norm_check"] == 1.0


@pytest.mark.parametrize("argv", [
    ["cheb-growth", "--body", TRIANGLE, "--point", "20,9", "--degree", "3"],
    ["cheb-growth", "--body", TRIANGLE, "--point", "20,9", "--degree", "3",
     "--n-samples", "1000"],
    ["oracle-check", "--body", TRIANGLE, "--point", "12,11"],
    ["experiment-conjecture", "--body", TRIANGLE, "--n-queries", "6", "--max-degree", "2"],
])
def test_stored_samples_print_what_a_fresh_draw_prints(argv, capsys, monkeypatch):
    outs = []
    for _ in range(2):
        assert run(argv) == 0
        outs.append(capsys.readouterr().out)
    monkeypatch.setattr("minkgauge.cheb._WEIGHTS", {})
    monkeypatch.setattr("minkgauge.body._DIRS", {})
    assert run(argv) == 0
    assert capsys.readouterr().out == outs[0] == outs[1]


@pytest.mark.parametrize("body, d", [(SQUARE, 2), (CUBE, 3)])
def test_grid_rows_cap_rejects_one_over(body, d, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("grid started evaluating")
    monkeypatch.setattr(cli, "alpha", no_work)
    steps = 2
    while (steps + 1) ** d <= cli.MAX_GRID_ROWS:
        steps += 1
    assert steps ** d <= cli.MAX_GRID_ROWS < (steps + 1) ** d
    low, high = ",".join(["-1"] * d), ",".join(["1"] * d)
    code, out, err = run_err(capsys, ["grid", "--body", body, "--low", low, "--high", high,
                                      "--steps", str(steps + 1)])
    assert code == 2 and out == ""
    assert f"MAX_GRID_ROWS = {cli.MAX_GRID_ROWS}" in err["message"]


VECTOR_FLAGS = [
    (["alpha", "--body", SQUARE, "--point"], "--point"),
    (["tau", "--body", SQUARE, "--dir"], "--dir"),
    (["support", "--body", SQUARE, "--dir"], "--dir"),
    (["oracle-check", "--body", SQUARE, "--point"], "--point"),
    (["ratios", "--body", SQUARE, "--point"], "--point"),
    (["cheb-growth", "--body", SQUARE, "--degree", "2", "--point"], "--point"),
    (["cheb-leading", "--body", SQUARE, "--degree", "2", "--dir"], "--dir"),
    (["bernstein", "--body", SQUARE, "--degree", "2", "--point"], "--point"),
    (["grid", "--body", SQUARE, "--high", "1,1", "--steps", "3", "--low"], "--low"),
    (["grid", "--body", SQUARE, "--low", "-1,-1", "--steps", "3", "--high"], "--high"),
]


@pytest.mark.parametrize("bad", ["1,x", "0.5,", "nan,0", "0,-inf", "1e400,0"])
@pytest.mark.parametrize("argv, flag", VECTOR_FLAGS + [
    (["experiment-deltabound", "--body", TRIANGLE, "--lambdas"], "--lambdas")])
def test_malformed_vector_flag_exits_2_naming_it_before_the_body_is_read(
        argv, flag, bad, capsys, monkeypatch):
    _no_work(monkeypatch)
    code, out, err = run_err(capsys, argv + [bad])
    assert code == 2 and out == ""
    assert err["error"] == "input" and err["message"].startswith(f"argument {flag}: ")


@pytest.mark.parametrize("argv, flag", VECTOR_FLAGS)
def test_wrong_length_vector_flag_exits_2_naming_it(argv, flag, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a handler ran")
    for name in ("alpha", "max_chord", "support_fn", "cheb_growth", "leading_growth",
                 "bernstein_bound", "ratio_functionals"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run_err(capsys, argv + ["1,2,3"])
    assert code == 2 and out == ""
    assert err["message"] == f"argument {flag}: has length 3, the body has dimension 2"


@pytest.mark.parametrize("argv, reads", [
    (["alpha", "--body", SQUARE, "--point", "0.5,0"], 1),
    (["grid", "--body", SQUARE, "--low", "-1,-1", "--high", "1,1", "--steps", "2"], 1),
    (["experiment-conjecture", "--body", TRIANGLE, "--n-queries", "2", "--max-degree", "1"],
     1),
    (["hausdorff", "--body", SQUARE, "--body2", TRIANGLE], 2),
])
def test_each_body_is_read_once(argv, reads, capsys, monkeypatch):
    texts = []
    load = cli._load_body
    monkeypatch.setattr(cli, "_load_body",
                        lambda text, *path: texts.append(text) or load(text, *path))
    assert run(argv) == 0
    assert len(texts) == reads
    assert capsys.readouterr().out


@pytest.mark.parametrize("body2, message", [
    ("{not json", "body2: not valid JSON"),
    (json.dumps({"kind": "ball", "center": [0, 0], "radius": -1}), "body2.radius: "),
    (json.dumps({"kind": "product", "factors": [{"kind": "blob"}]}),
     "body2.factors[0].kind: unknown kind"),
])
def test_second_body_errors_name_body2(body2, message, capsys):
    code, out, err = run_err(capsys, ["hausdorff", "--body", SQUARE, "--body2", body2])
    assert code == 2 and out == ""
    assert err["message"].startswith(message)


def test_grid_that_fails_midway_prints_nothing(capsys, monkeypatch):
    from minkgauge.lp import NumericalError
    calls = []
    real = cli.alpha

    def alpha(K, x):
        calls.append(x)
        if len(calls) == 3:
            raise NumericalError("no answer at the third point")
        return real(K, x)
    monkeypatch.setattr(cli, "alpha", alpha)
    code, out, err = run_err(capsys, ["grid", "--body", SQUARE, "--low", "-1,-1",
                                      "--high", "1,1", "--steps", "3"])
    assert code == 3 and out == ""
    assert err["error"] == "numerical" and len(calls) == 3


@pytest.mark.parametrize("bound", ["nan", "inf", "0", "-1"])
def test_bernstein_norm_bound_must_be_finite_and_positive(bound, capsys):
    code, out, err = run_err(capsys, ["bernstein", "--body", SQUARE, "--point", "0,0",
                                      "--degree", "2", "--norm-bound", bound])
    assert code == 2 and out == ""
    assert err["message"] == "norm bound must be finite and positive"


def test_experiment_deltabound(capsys):
    rec = run_json(capsys, ["experiment-deltabound", "--body", TRIANGLE,
                            "--lambdas", "0.5,0.8"])
    assert "note" in rec
    lams = [row["lambda"] for row in rec["rows"]]
    assert lams == [0.5, 0.8]
    assert rec["bound_D_minus_half_w"] == pytest.approx(
        np.sqrt(356.0) - 1.5 * np.sqrt(2.0), abs=1e-6)


def test_experiment_deltabound_is_sub_unit_sweep(capsys):
    code, _, err = run_err(capsys, ["experiment-deltabound", "--body", TRIANGLE,
                                    "--lambdas", "0.5,1.5"])
    assert code == 2
    assert err["error"] == "input"


def test_experiment_deltabound_checks_lambdas_before_any_geometry(capsys, qhull_calls,
                                                                  lp_solves):
    code, out, err = run_err(capsys, ["experiment-deltabound", "--body", TRIANGLE,
                                      "--lambdas", "0.5,2"])
    assert code == 2 and out == "" and err["error"] == "input"
    assert not qhull_calls and not lp_solves


def test_experiment_deltabound_reports_levels_below_alpha_inf_as_empty(capsys):
    # alpha_inf of a triangle is 1/3: the level 0.2 is empty and has no ratio
    rec = run_json(capsys, ["experiment-deltabound", "--body", TRIANGLE,
                            "--lambdas", "0.2,0.5"])
    assert rec["rows"][0] == {"lambda": 0.2, "empty": True}
    assert rec["rows"][1]["empty"] is False
    assert rec["max_ratio"] == rec["rows"][1]["ratio_to_bound"]


def test_experiment_conjecture_never_asserts(capsys):
    rec = run_json(capsys, ["experiment-conjecture", "--body", TRIANGLE,
                            "--n-queries", "5", "--max-degree", "2"])
    assert "nothing is asserted" in rec["note"]
    # queries that land inside the body carry no growth instance
    assert 5 <= rec["n_checked"] <= 10


# failure modes


def test_bad_json_is_input_error(capsys):
    code, _, err = run_err(capsys, ["alpha", "--body", "{not json", "--point", "0,0"])
    assert code == 2
    assert err["error"] == "input"


def test_unknown_kind_is_input_error(capsys):
    code, _, err = run_err(capsys, ["alpha", "--body", '{"kind": "blob"}',
                                    "--point", "0,0"])
    assert code == 2
    assert err["error"] == "input"
    assert "blob" in err["message"]


@pytest.mark.parametrize("body, path", [
    ('{"kind": [1]}', "body.kind"),
    ('{"kind": {"a": 1}}', "body.kind"),
    ('{"kind": "product", "factors": [{"kind": "box", "low": [0], "high": [1]}, '
     '{"kind": [1]}]}', "body.factors[1].kind"),
], ids=["list", "object", "product_factor"])
def test_a_kind_that_is_not_a_string_is_input_error_naming_its_path(body, path, capsys):
    code, out, err = run_err(capsys, ["width", "--body", body])
    assert code == 2 and out == "" and err["error"] == "input"
    assert err["message"].startswith(f"{path}: unknown kind")


def test_unreadable_body_file_is_input_error(tmp_path, capsys):
    code, out, err = run_err(capsys, ["width", "--body", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and err["error"] == "input"
    assert "cannot read body file" in err["message"]


def test_non_integer_count_is_input_error(capsys):
    code, out, err = run_err(capsys, ["hausdorff", "--body", SQUARE, "--body2", SQUARE,
                                      "--n-dirs", "abc"])
    assert code == 2 and out == "" and err["error"] == "input"
    assert "--n-dirs" in err["message"]


def test_no_subcommand_is_input_error(capsys):
    code, out, err = run_err(capsys, [])
    assert code == 2 and out == ""
    assert err == {"error": "input", "message": "no subcommand given"}


def test_dimension_mismatch_is_input_error(capsys):
    code, _, err = run_err(capsys, ["alpha", "--body", SQUARE, "--point", "1,2,3"])
    assert code == 2
    assert err["error"] == "input"


def test_missing_argument_is_input_error(capsys):
    code, _, err = run_err(capsys, ["alpha", "--body", SQUARE])
    assert code == 2


def test_unknown_subcommand_is_input_error(capsys):
    code, _, _ = run_err(capsys, ["frobnicate"])
    assert code == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out, _ = capsys.readouterr()
    assert "alpha" in out


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    # a usage error, a good call, --help and another subcommand, back to back
    calls = [["alpha", "--body", SQUARE],
             ["alpha", "--body", SQUARE, "--point", "0.5,0"],
             ["--help"],
             ["tau", "--body", TRIANGLE, "--dir", "1,0"],
             ["alpha", "--body", TRIANGLE, "--point", "12,12"]]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        code = run(argv)
        fresh.append((code, *capsys.readouterr()))
    cli._build_parser.cache_clear()
    reused = []
    for argv in calls:
        code = run(argv)
        reused.append((code, *capsys.readouterr()))
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [r[0] for r in reused] == [2, 0, 0, 0, 0]


def test_module_entry_point():
    # the child imports the package this test imported, also when pytest
    # found it through its own pythonpath setting rather than PYTHONPATH
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "minkgauge.cli", "alpha",
                           "--body", SQUARE, "--point", "0.5,0"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["alpha"] == 0.5


def test_console_script_installed():
    proc = subprocess.run(["minkgauge", "width", "--body", SQUARE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["width"] == 2.0


@pytest.mark.parametrize("spec", [
    {"kind": "box", "low": [-1], "high": [1]},
    {"kind": "hpolytope", "A": [[2], [-3]], "b": [2, 3]},
    {"kind": "weighted_l2_ball", "dim": 1},
], ids=["box", "hpolytope", "weighted_l2_ball"])
def test_experiment_deltabound_on_an_origin_centred_interval_has_no_ratio(spec, capsys):
    # D - w/2 is 0 for [-1, 1], so there is no ratio to the bound, only deltas
    rec = run_json(capsys, ["experiment-deltabound", "--body", json.dumps(spec),
                            "--lambdas", "0.3,0.6"])
    assert rec["bound_D_minus_half_w"] == 0.0 and rec["max_ratio"] is None
    assert [r["lambda"] for r in rec["rows"]] == [0.3, 0.6]
    for row in rec["rows"]:
        assert row["empty"] is False and row["ratio_to_bound"] is None
        assert 0.0 <= row["delta"] <= 1e-12
