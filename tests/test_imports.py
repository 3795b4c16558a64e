"""No program file imports a name it never uses, and other structure gates.

No linter ships with the test dependencies, so this is a plain ``ast`` scan:
every name an import statement binds must appear as a name somewhere else in
the same file.  Package ``__init__`` modules re-export on purpose and are
skipped.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from minkgauge import alpha_inf
from minkgauge.body import Encoding, copies_lp

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    [p for p in (ROOT / "src" / "minkgauge").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + list((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    src = "import os\nfrom numpy import array, zeros as z\nprint(array)\n"
    assert unused_imports(src) == [(1, "os"), (2, "z")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scipy_optimize_only_gives_linprog_to_lp():
    # the direction searches are the package's own; only the LP layer uses
    # scipy.optimize, and only for the HiGHS core that its linprog runs on
    found = []
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                found += [(path.name, f"{node.module}.{a.name}") for a in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "optimize":
                found.append((path.name, "scipy.optimize"))
    assert [f for f in found if f[1].startswith("scipy.optimize")] == [
        ("lp.py", "scipy.optimize._highspy._core")]


def test_only_body_imports_scipy_spatial():
    # Qhull stays in one module: every other module takes a body's point set
    # from its cached ``extreme`` and its rows from ``halfspaces``
    found = set()
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            found |= {path.name for n in names if n.startswith("scipy.spatial")}
    assert found == {"body.py"}


def test_one_qhull_entry_and_one_reader_of_the_vertex_gate():
    # ``body._hull`` is the one place that builds a convex hull, and the
    # dimension gate of the facet rows is read in ``body`` only; docstrings
    # may name it
    tree = ast.parse((ROOT / "src" / "minkgauge" / "body.py").read_text())

    def calls(node, name):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == name]
    hull_fn = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_hull"]
    assert len(hull_fn) == 1
    assert len(calls(tree, "ConvexHull")) == len(calls(hull_fn[0], "ConvexHull")) == 1
    # H-polytope vertices come from the same entry, as the polar hull
    assert not calls(tree, "HalfspaceIntersection")
    spatial = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and n.module == "scipy.spatial"]
    assert sorted(a.name for n in spatial for a in n.names) == ["ConvexHull", "QhullError"]
    readers = set()
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "MAX_VERTEX_DIM"
                    or isinstance(node, ast.Attribute) and node.attr == "MAX_VERTEX_DIM"
                    or isinstance(node, ast.alias) and node.name == "MAX_VERTEX_DIM"):
                readers.add(path.name)
    assert readers == {"body.py"}


def test_one_row_dedupe():
    # ``body._unique_rows`` is the one dedupe of rows: no ``unique`` call in
    # the package names an axis, the structured-dtype sort of np.unique
    found = []
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "unique" and (len(node.args) >= 5
                                     or any(k.arg == "axis" for k in node.keywords)):
                found.append((path.name, node.lineno))
    assert found == []


def test_only_body_reads_an_encodings_rows():
    # every LP over copies of K (``copies_lp``) and every chord LP
    # (``section_lp``) is posed in ``body``; the gauge couples copies
    # through the point map P u + q alone, and ratios reads the gauge's
    # level-set LP, no encoding
    fields = {f.name for f in dataclasses.fields(Encoding)}
    read = {}
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        read[path.name] = {n.attr for n in ast.walk(ast.parse(path.read_text()))
                           if isinstance(n, ast.Attribute) and n.attr in fields}
    rows = {"A_ub", "b_ub", "A_eq", "b_eq", "bounds"}
    assert {name for name, attrs in read.items() if attrs & rows} == {"body.py"}
    assert read["gauge.py"] == {"P", "q"}
    assert read["ratios.py"] == set()


def test_one_lp_over_copies_of_k():
    # the level-set LP is the one LP over copies of K: beta and rho without
    # rows read it through the Moebius maps, and it always minimises
    assert _callers("copies_lp") == {("gauge.py", "_level_lp")}
    assert "sense" not in inspect.signature(copies_lp).parameters
    ratios = (ROOT / "src" / "minkgauge" / "ratios.py").read_text()
    assert "copies_lp" not in ratios and "lp_encoding" not in ratios


def test_lp_solve_callers_are_pinned():
    # every LP formulation of the package; a new one must be added here
    assert _callers("solve") == {
        ("body.py", "copies_lp"), ("gauge.py", "_symmetry_lp"), ("gauge.py", "_critical_dim"),
        ("lp.py", "solve_stacked"), ("lp.py", "feasible"), ("lp.py", "chebyshev_center")}


def test_one_seeded_direction_family():
    # ``body.sphere_dirs`` is the one function that draws a seeded family of
    # unit rows, so every sampled route shares its stored families.
    # ``cheb._body_samples`` scales its unit rows by radii drawn from the same
    # generator: a point sample of the inner ball, not a direction family
    def row_norm(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "norm"
                and any(k.arg == "axis" and getattr(k.value, "value", None) == 1
                        for k in node.keywords))

    found = set()
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            nodes = list(ast.walk(fn))
            draws = any(isinstance(n, ast.Attribute) and n.attr == "default_rng" for n in nodes)
            scales = any(isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)
                         and row_norm(n.right if isinstance(n, ast.BinOp) else n.value)
                         for n in nodes)
            if draws and scales:
                found.add((path.name, fn.name))
    assert found == {("body.py", "sphere_dirs"), ("cheb.py", "_body_samples")}


def _where(match):
    # (file, innermost enclosing function) of every node in src/ that matches
    found = set()

    def visit(node, path, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if match(child):
                found.add((path.name, fn))
            visit(child, path, fn)

    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return found


def _callers(name):
    # (file, innermost enclosing function) of every call of ``name`` in src/
    return _where(lambda n: isinstance(n, ast.Call) and name in (
        getattr(n.func, "attr", None), getattr(n.func, "id", None)))


def test_exact_routes_draw_no_random_numbers():
    # the seeded direction families, the oracle probe, the Chebyshev point
    # sample, the test polygons and the conjecture search are the only
    # random draws; no route of gauge, geometry, ratios or lp draws its own
    assert _callers("default_rng") == {
        ("body.py", "sphere_dirs"), ("body.py", "_probe_oracle"),
        ("cheb.py", "_body_samples"), ("shapes.py", "random_polygon"),
        ("cli.py", "_cmd_experiment_conjecture")}


def test_width_sweep_runs_behind_the_body_cache():
    # the width sweep runs in ``_width_sweep``, which only the body's cached
    # ``swept_width`` calls, so no caller can sweep a reused body's width
    # twice; the chord and sampled-alpha sweeps depend on v or x, and the
    # diameter and far-radius sweeps of an oracle run inline
    assert _callers("_multistart_sphere") == {
        ("geometry.py", "_width_sweep"), ("geometry.py", "_swept_chord"),
        ("geometry.py", "diameter"), ("geometry.py", "far_radius"),
        ("gauge.py", "_alpha_sampled")}
    assert _callers("_width_sweep") == {("body.py", "swept_width")}


def test_alpha_inf_takes_only_the_body():
    assert list(inspect.signature(alpha_inf).parameters) == ["K"]


def test_only_cli_run_writes_stdout():
    # every print in src/ names its file, except the one in ``cli.run``, and
    # nothing else reaches for sys.stdout: a failing handler prints nothing
    def writes_stdout(n):
        return (isinstance(n, ast.Call) and getattr(n.func, "id", None) == "print"
                and not any(k.arg == "file" for k in n.keywords)
                or isinstance(n, ast.Attribute) and n.attr == "stdout")
    assert _where(writes_stdout) == {("cli.py", "run")}


def test_cli_reads_the_body_in_run_and_the_second_body_for_hausdorff():
    assert _callers("_load_body") == {("cli.py", "run"), ("cli.py", "_cmd_hausdorff")}
    tree = ast.parse((ROOT / "src" / "minkgauge" / "cli.py").read_text())
    reads = [ast.unparse(n.args[0]) for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "id", None) == "_load_body"]
    assert sorted(reads) == ["ns.body", "ns.body2"]


def test_alpha_inf_lives_in_gauge():
    # the symmetry and critical-set LPs are posed in ``gauge``; the body only
    # caches their results, and its one LP is the one over copies of K
    body = ROOT / "src" / "minkgauge" / "body.py"
    solves = set()

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "solve"):
                solves.add(fn)
            visit(child, fn)
    visit(ast.parse(body.read_text()), None)
    assert solves == {"copies_lp"}
    assert _callers("_symmetry_lp") == {("body.py", "symmetry")}
    for name in ("_critical_dim", "THETA_MAX"):
        assert {p.name for p in (ROOT / "src" / "minkgauge").glob("*.py")
                if name in p.read_text()} == {"gauge.py"}
    # one dispatcher for support values: the scalar call is its one-row case
    support = [n for n in ast.parse(body.read_text()).body
               if isinstance(n, ast.FunctionDef) and n.name == "support"]
    assert len(support) == 1
    assert not [n for n in ast.walk(support[0]) if isinstance(n, ast.Name)
                and n.id == "isinstance"]


def test_validate_poses_no_lp_of_its_own():
    # an H-polytope's extents are the support every query reads, and its
    # inradius the cached Chebyshev centre; the stacked LP is posed for
    # support rows and chords only
    tree = ast.parse((ROOT / "src" / "minkgauge" / "body.py").read_text())
    validate = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "validate"]
    assert len(validate) == 1
    assert not [n for n in ast.walk(validate[0]) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id == "lp"]
    assert _callers("solve_stacked") == {("body.py", "_support_rows"), ("body.py", "section_lp")}
