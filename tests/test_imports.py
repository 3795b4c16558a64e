"""No program file imports a name it never uses.

No linter ships with the test dependencies, so this is a plain ``ast`` scan:
every name an import statement binds must appear as a name somewhere else in
the same file.  Package ``__init__`` modules re-export on purpose and are
skipped.
"""

import ast
from pathlib import Path

import pytest

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
    assert len(calls(tree, "HalfspaceIntersection")) == 1
    readers = set()
    for path in sorted((ROOT / "src" / "minkgauge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "MAX_VERTEX_DIM"
                    or isinstance(node, ast.Attribute) and node.attr == "MAX_VERTEX_DIM"
                    or isinstance(node, ast.alias) and node.name == "MAX_VERTEX_DIM"):
                readers.add(path.name)
    assert readers == {"body.py"}
