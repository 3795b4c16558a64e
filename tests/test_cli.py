"""Command line interface: exit codes, JSON output discipline, determinism.

Every success path prints exactly one JSON object (or CSV for grid) to
stdout; every failure prints a machine readable error record to stderr and
exits 2 for input problems, 3 for numerical ones.
"""

import json
import os
import subprocess
import sys

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


@pytest.mark.parametrize("argv, cap", [
    (["hausdorff", "--body", SQUARE, "--body2", SQUARE, "--n-dirs"], "MAX_N_DIRS"),
    (["oracle-check", "--body", SQUARE, "--point", "0,0", "--n-dirs"], "MAX_N_DIRS"),
    (["oracle-check", "--body", SQUARE, "--point", "0,0", "--n-lines"], "MAX_N_LINES"),
    (["ratios", "--body", SQUARE, "--point", "0,0", "--n-lines"], "MAX_N_LINES"),
    (["cheb-growth", "--body", SQUARE, "--point", "2,0", "--degree", "2", "--n-samples"],
     "MAX_N_SAMPLES"),
    (["experiment-conjecture", "--body", SQUARE, "--n-queries"], "MAX_N_QUERIES"),
    (["experiment-conjecture", "--body", SQUARE, "--max-degree"], "MAX_SWEEP_DEGREE"),
])
def test_count_caps_reject_one_over(argv, cap, capsys, monkeypatch):
    def no_work(ns):
        raise AssertionError("capped work started")
    monkeypatch.setattr(cli, "_load_body", no_work)
    limit = getattr(cli, cap)
    code, out, err = run_err(capsys, argv + [str(limit + 1)])
    assert code == 2 and out == ""
    assert err["error"] == "input"
    assert f"{cap} = {limit}" in err["message"]


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
