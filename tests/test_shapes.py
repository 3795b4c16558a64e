"""Shape constructors and the JSON body schema."""

import json
import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from minkgauge import (Ball, BodyError, HPolytope, Product, SchemaError,
                       SupportOracle, VPolytope, contains, dim, homothety,
                       make_ball, make_box, make_half_disc,
                       make_regular_polygon, make_simplex, make_sobczyk_prism,
                       make_weighted_l2_ball, parse_body, random_polygon,
                       serialize_body, sphere_dirs, support, validate)
from minkgauge.cli import run


def test_simplex_vertices():
    S = make_simplex(3)
    V = {tuple(v) for v in S.vertices}
    assert V == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_simplex_rejects_dim_zero():
    with pytest.raises(BodyError):
        make_simplex(0)


def test_box_is_halfspace_form():
    B = make_box([-1.0, 0.0], [2.0, 3.0])
    assert isinstance(B, HPolytope)
    assert support(B, np.array([1.0, 0.0])) == pytest.approx(2.0, abs=1e-12)
    assert support(B, np.array([0.0, -1.0])) == pytest.approx(0.0, abs=1e-12)


def test_box_rejects_inverted_bounds():
    with pytest.raises(BodyError):
        make_box([1.0], [0.0])


def test_ball_constructor():
    B = make_ball([1.0, 2.0], 0.5)
    assert isinstance(B, Ball)
    assert B.radius == 0.5


def test_regular_polygon_square():
    # phase pi/4 turns the 4-gon into the axis-aligned square of circumradius sqrt(2)
    P = make_regular_polygon(4, radius=np.sqrt(2.0), phase=np.pi / 4.0)
    got = {(round(float(a), 9), round(float(b), 9)) for a, b in P.vertices}
    assert got == {(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)}


def test_regular_polygon_needs_three_vertices():
    with pytest.raises(BodyError):
        make_regular_polygon(2)


def test_half_disc_vertices_on_arc():
    H = make_half_disc(16)
    assert H.vertices.shape == (17, 2)
    npt.assert_allclose(np.linalg.norm(H.vertices, axis=1), 1.0, atol=1e-12)
    assert (1.0, 0.0) in {tuple(v) for v in H.vertices}


def test_half_disc_refinement_nests():
    # vertices at level n are a subset of level 2n, so supports are monotone
    H1, H2 = make_half_disc(16), make_half_disc(32)
    for u in sphere_dirs(2, 128, 11):
        h1, h2 = support(H1, u), support(H2, u)
        assert h1 <= h2 + 1e-12
        assert h2 <= 1.0 + 1e-12  # inscribed in the unit half disc


def test_half_disc_minimum_resolution():
    with pytest.raises(BodyError):
        make_half_disc(4)


def test_sobczyk_prism_shape():
    P = make_sobczyk_prism()
    assert isinstance(P, Product)
    assert dim(P) == 3
    assert contains(P, np.array([1.0, 1.0, 1.0]))
    assert contains(P, np.array([2 / 3, 2 / 3, -1 / 3]))
    assert not contains(P, np.array([0.0, 0.0, 0.0]))


def test_weighted_ball_modes():
    Bi = make_weighted_l2_ball(4, "i")
    Bii = make_weighted_l2_ball(4, "ii")
    assert isinstance(Bi, SupportOracle)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    # h(e_n) = 1/sqrt(w_n); w_1 is 2 in mode "i" and 1 in mode "ii"
    npt.assert_allclose(support(Bi, e1), 1.0 / np.sqrt(2.0), atol=1e-12)
    npt.assert_allclose(support(Bii, e1), 1.0, atol=1e-12)
    assert Bi.inner_radius == pytest.approx(1.0 / np.sqrt(2.0))
    assert Bi.outer_radius == pytest.approx(1.0)


def test_weighted_ball_rejects_unknown_mode():
    with pytest.raises(BodyError):
        make_weighted_l2_ball(4, "iii")


def test_random_polygon_deterministic():
    A = random_polygon(8, 42)
    B = random_polygon(8, 42)
    npt.assert_allclose(A.vertices, B.vertices, atol=0.0)
    assert len(A.vertices) >= 3
    assert random_polygon(8, 43).vertices.shape != A.vertices.shape or \
        not np.allclose(random_polygon(8, 43).vertices, A.vertices)


def test_random_polygon_needs_three_vertices():
    with pytest.raises(BodyError, match="^random polygon needs n >= 3$"):
        random_polygon(2, 0)


def test_random_polygon_center_offset():
    A = random_polygon(6, 1)
    B = random_polygon(6, 1, center=(5.0, -2.0))
    npt.assert_allclose(B.vertices - A.vertices, np.tile([5.0, -2.0], (len(A.vertices), 1)),
                        atol=1e-12)


# schema parsing


def test_parse_vpolytope():
    K = parse_body({"kind": "vpolytope", "vertices": [[0, 0], [1, 0], [0, 1]]})
    assert isinstance(K, VPolytope)


def test_parse_requires_mapping():
    with pytest.raises(SchemaError):
        parse_body([1, 2, 3])


def test_parse_missing_kind_names_the_path():
    with pytest.raises(SchemaError) as exc:
        parse_body({"vertices": [[0, 0]]})
    assert "body.kind" in str(exc.value)


def test_parse_unknown_kind():
    with pytest.raises(SchemaError) as exc:
        parse_body({"kind": "mystery"})
    assert "mystery" in str(exc.value)


def test_parse_bad_matrix_named_field():
    with pytest.raises(SchemaError) as exc:
        parse_body({"kind": "hpolytope", "A": [[1, 0], [0]], "b": [1, 1]})
    assert "A" in str(exc.value)


def test_parse_nested_error_path():
    spec = {"kind": "product", "factors": [{"kind": "ball", "center": [0], "radius": -1}]}
    with pytest.raises(SchemaError) as exc:
        parse_body(spec)
    assert "factors" in str(exc.value)


def test_parse_rejects_invalid_geometry():
    # well-formed JSON but an empty body: validation must catch it
    with pytest.raises((SchemaError, BodyError)):
        parse_body({"kind": "hpolytope", "A": [[1.0], [-1.0]], "b": [-1.0, -1.0]})


def test_parse_check_false_skips_validation():
    K = parse_body({"kind": "vpolytope", "vertices": [[0.0, 0.0], [1.0, 1.0]]},
                   check=False)
    assert isinstance(K, VPolytope)


def test_serialize_rejects_plain_oracle():
    o = SupportOracle(lambda v: float(np.linalg.norm(v)), np.zeros(2), 1.0, 1.0)
    with pytest.raises(BodyError):
        serialize_body(o)
    with pytest.raises(BodyError):
        serialize_body(homothety(make_weighted_l2_ball(4), 2.0))


@pytest.mark.parametrize("spec", [
    {"kind": "simplex", "dim": 2},
    {"kind": "box", "low": [0, 0], "high": [2, 1]},
    {"kind": "regular_polygon", "n": 5, "radius": 1.5, "center": [1, 0], "phase": 0.2},
    {"kind": "sobczyk_prism"},
    {"kind": "weighted_l2_ball", "dim": 6, "mode": "ii"},
    {"kind": "sum", "terms": [{"kind": "ball", "center": [0, 0], "radius": 1},
                              {"kind": "simplex", "dim": 2}]},
    {"kind": "scaled", "body": {"kind": "simplex", "dim": 2}, "factor": 0.5},
    {"kind": "translated", "body": {"kind": "box", "low": [0], "high": [2]}, "offset": [1]},
    {"kind": "reflected", "body": {"kind": "simplex", "dim": 3}},
])
def test_roundtrip_support_agreement(spec):
    K = parse_body(spec)
    flat = serialize_body(K)
    assert "body" not in flat
    K2 = parse_body(flat)
    for u in sphere_dirs(dim(K), 100, 17):
        npt.assert_allclose(support(K2, u), support(K, u), atol=1e-9)


TRIANGLE_SPEC = {"kind": "vpolytope", "vertices": [[0, 0], [1, 0], [0, 1]]}
README_SPECS = {
    "vpolytope": TRIANGLE_SPEC,
    "hpolytope": {"kind": "hpolytope", "A": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                  "b": [1, 1, 1, 1]},
    "ball": {"kind": "ball", "center": [0, 0], "radius": 1},
    "box": {"kind": "box", "low": [0, 0], "high": [1, 2]},
    "simplex": {"kind": "simplex", "dim": 3},
    "regular_polygon": {"kind": "regular_polygon", "n": 5, "radius": 2,
                        "center": [1, 0], "phase": 0.1},
    "half_disc_approx": {"kind": "half_disc_approx", "n": 16},
    "sobczyk_prism": {"kind": "sobczyk_prism"},
    "weighted_l2_ball": {"kind": "weighted_l2_ball", "dim": 8, "mode": "ii"},
    "scaled": {"kind": "scaled", "factor": 2, "body": TRIANGLE_SPEC},
    "translated": {"kind": "translated", "offset": [1, 1], "body": TRIANGLE_SPEC},
    "reflected": {"kind": "reflected", "body": TRIANGLE_SPEC},
    "sum": {"kind": "sum", "terms": [TRIANGLE_SPEC, TRIANGLE_SPEC]},
    "product": {"kind": "product",
                "factors": [TRIANGLE_SPEC, {"kind": "box", "low": [0], "high": [1]}]},
}


@pytest.mark.parametrize("spec, path", [
    ({"kind": "translated", "offset": [1, 2, 3], "body": TRIANGLE_SPEC}, "body.offset"),
    ({"kind": "scaled", "factor": -1, "body": TRIANGLE_SPEC}, "body.factor"),
    ({"kind": "product", "factors": [
        {"kind": "scaled", "factor": float("inf"), "body": TRIANGLE_SPEC}]},
     "body.factors[0].factor"),
])
def test_parse_affine_kind_names_the_field(spec, path, capsys):
    with pytest.raises(SchemaError) as exc:
        parse_body(spec)
    assert exc.value.path == path
    assert run(["width", "--body", json.dumps(spec)]) == 2
    assert json.loads(capsys.readouterr().err)["message"].startswith(f"{path}: ")


@pytest.mark.parametrize("spec, path", [
    ({"kind": "ball", "center": [float("nan"), 0], "radius": 1}, "body.center[0]"),
    ({"kind": "translated", "offset": [0, float("inf")], "body": TRIANGLE_SPEC},
     "body.offset[1]"),
    ({"kind": "ball", "center": [0, 0], "radius": float("-inf")}, "body.radius"),
    ({"kind": "hpolytope", "A": [[1, 0], [-1, 0], [0, 10 ** 400]], "b": [1, 1, 1]},
     "body.A[2][1]"),
])
def test_parse_non_finite_number_names_the_field(spec, path, capsys):
    with pytest.raises(SchemaError) as exc:
        parse_body(spec)
    assert exc.value.path == path
    assert run(["width", "--body", json.dumps(spec)]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message == f"{path}: expected a finite number"


FLAT_SPEC = {"kind": "vpolytope", "vertices": [[0, 0], [1, 1], [2, 2]]}


@pytest.mark.parametrize("spec, path", [
    ({"kind": "product", "factors": [TRIANGLE_SPEC, FLAT_SPEC]}, "body.factors[1]"),
    ({"kind": "sum", "terms": [TRIANGLE_SPEC, {"kind": "hpolytope", "A": [[1, 0], [0, 1]],
                                               "b": [1, 1]}]}, "body.terms[1]"),
    ({"kind": "product", "factors": [
        TRIANGLE_SPEC, {"kind": "translated", "offset": [1, 1], "body": FLAT_SPEC}]},
     "body.factors[1]"),
    ({"kind": "product", "factors": [TRIANGLE_SPEC, {"kind": "box", "low": [1], "high": [0]}]},
     "body.factors[1]"),
    ({"kind": "sum", "terms": [TRIANGLE_SPEC, {"kind": "simplex", "dim": 0}]}, "body.terms[1]"),
    ({"kind": "product", "factors": [{"kind": "regular_polygon", "n": 2}]}, "body.factors[0]"),
    ({"kind": "box", "low": [0, 1], "high": [1, 1]}, "body"),
    ({"kind": "sum", "terms": [TRIANGLE_SPEC, {"kind": "simplex", "dim": 3}]}, "body"),
    ({"kind": "product", "factors": [{"kind": "sum", "terms": [
        {"kind": "ball", "center": [0], "radius": 1},
        {"kind": "ball", "center": [0, 0], "radius": 1}]}]}, "body.factors[0]"),
], ids=["flat-factor", "unbounded-term", "flat-under-translated", "box-low-high",
        "simplex-dim", "polygon-n", "box-at-root", "sum-dimensions", "ball-sum-dimensions"])
def test_schema_errors_name_the_node(spec, path, capsys):
    with pytest.raises(SchemaError) as exc:
        parse_body(spec)
    assert exc.value.path == path
    assert run(["width", "--body", json.dumps(spec)]) == 2
    assert json.loads(capsys.readouterr().err)["message"].startswith(f"{path}: ")


@pytest.mark.parametrize("spec", [
    README_SPECS["product"],
    {"kind": "sum", "terms": [TRIANGLE_SPEC, README_SPECS["hpolytope"]]},
    {"kind": "translated", "offset": [1, 0, 2], "body": {"kind": "product", "factors": [
        README_SPECS["hpolytope"], {"kind": "box", "low": [0], "high": [1]}]}},
    {"kind": "product", "factors": [{"kind": "scaled", "factor": 2, "body": README_SPECS["box"]},
                                    {"kind": "sum", "terms": [README_SPECS["hpolytope"],
                                                              README_SPECS["ball"]]}]},
])
def test_nested_validation_solves_what_one_whole_body_check_solves(spec, lp_solves,
                                                                   qhull_calls):
    # every node is validated once: as many LPs and hulls as parsing without
    # checks and validating the finished body
    validate(parse_body(spec, check=False))
    whole = (len(lp_solves), len(qhull_calls))
    lp_solves.clear()
    qhull_calls.clear()
    parse_body(spec)
    assert (len(lp_solves), len(qhull_calls)) == whole


def _readme_schema_fields():
    """kind -> field names, read from the README's body schema table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Body JSON schema", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` *\|(.*)\|$", section, flags=re.MULTILINE)
    return {kind: set(re.findall(r"`(\w+)`", fields)) for kind, fields in rows}


def test_readme_schema_rows_parse():
    fields = _readme_schema_fields()
    assert set(fields) == set(README_SPECS)
    for kind, spec in README_SPECS.items():
        assert set(spec) - {"kind"} == fields[kind], kind
        parse_body(spec)


@pytest.mark.parametrize("spec, path, message", [
    ({"kind": "ball", "center": [0], "radius": "1"}, "body.radius",
     "expected a number, got str"),
    ({"kind": "simplex", "dim": 2.5}, "body.dim", "expected an integer, got float"),
    ({"kind": "ball", "center": [], "radius": 1}, "body.center",
     "expected a nonempty array of numbers"),
    ({"kind": "vpolytope", "vertices": []}, "body.vertices", "expected a nonempty array of rows"),
    ({"kind": "product", "factors": []}, "body.factors", "expected a nonempty array"),
    ({"kind": "sum", "terms": []}, "body.terms", "expected a nonempty array"),
    ({"kind": "box", "low": [0, 0], "high": [1]}, "body", "box bounds must have equal length"),
    ({"kind": "hpolytope", "A": [[1], [-1]], "b": [1]}, "body", "A and b row counts differ"),
    ({"kind": "weighted_l2_ball", "dim": 0}, "body", "dimension must be >= 1"),
], ids=["radius-string", "dim-float", "empty-center", "empty-vertices", "empty-factors",
        "empty-terms", "box-lengths", "hpolytope-rows", "weighted-dim-0"])
def test_malformed_fields_exit_2_with_their_path(spec, path, message, capsys):
    with pytest.raises(SchemaError) as exc:
        parse_body(spec)
    assert exc.value.path == path and str(exc.value) == f"{path}: {message}"
    assert run(["width", "--body", json.dumps(spec)]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == f"{path}: {message}"


def test_serialize_rejects_a_non_body():
    with pytest.raises(BodyError, match="cannot serialize object"):
        serialize_body(object())
