"""Named constructors and a JSON-dict schema for bodies.

The schema is what the command line accepts: a tagged union on "kind" with
nested bodies for the composite kinds.  ``parse_body`` validates eagerly and
raises SchemaError with a field path; the affine kinds (scaled, translated,
reflected) parse to bodies of their inner kind, and a sum of balls to one
ball.  ``serialize_body`` inverts it up to semantic equality (two
descriptions of the same point set).
"""

from __future__ import annotations

import numpy as np

from .body import (Ball, BodyError, HPolytope, Product, Sum, SupportOracle,
                   VPolytope, _hull, dim, homothety, validate)


class SchemaError(BodyError):
    """Malformed body description; ``path`` names the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def make_simplex(d):
    """Unit simplex conv{0, e_1, ..., e_d}."""
    if d < 1:
        raise BodyError("simplex dimension must be >= 1")
    return VPolytope(np.vstack([np.zeros(d), np.eye(d)]))


def make_box(low, high):
    """Axis-aligned box [low_1, high_1] x ... as a halfspace system."""
    low = np.atleast_1d(np.asarray(low, dtype=float))
    high = np.atleast_1d(np.asarray(high, dtype=float))
    if low.shape != high.shape:
        raise BodyError("box bounds must have equal length")
    if np.any(high <= low):
        raise BodyError("box needs low < high in every coordinate")
    d = low.size
    A = np.vstack([np.eye(d), -np.eye(d)])
    return HPolytope(A, np.concatenate([high, -low]))


def make_ball(center, radius):
    return Ball(np.asarray(center, dtype=float), float(radius))


def make_regular_polygon(n, radius=1.0, center=(0.0, 0.0), phase=0.0):
    if n < 3:
        raise BodyError("regular polygon needs n >= 3")
    k = np.arange(n)
    ang = 2.0 * np.pi * k / n + phase
    V = np.stack([np.cos(ang), np.sin(ang)], axis=1) * float(radius)
    return VPolytope(V + np.asarray(center, dtype=float))


def make_sobczyk_prism():
    """Triangular prism with a segment of most-symmetric points.

    The base is the triangle conv{(1,0), (0,1), (1,1)} (that is the triangle
    whose symmetry center sits at (2/3, 2/3)); the axis factor is [-1, 1].
    """
    tri = VPolytope(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    seg = VPolytope(np.array([[-1.0], [1.0]]))
    return Product((tri, seg))


def make_half_disc(n=64):
    """Inscribed polygon of the upper half disc with n arc segments.

    Vertices are (cos(k pi / n), sin(k pi / n)) for k = 0..n, so the corner
    points (1, 0) and (-1, 0) are always included.
    """
    if n < 8:
        raise BodyError("half-disc approximation needs n >= 8")
    k = np.arange(n + 1)
    ang = np.pi * k / n
    return VPolytope(np.stack([np.cos(ang), np.sin(ang)], axis=1))


WEIGHT_MODES = ("i", "ii")


def make_weighted_l2_ball(d=64, mode="i"):
    """Ellipsoid sum w_n x_n^2 <= 1, mode "i": w_n = 1 + 1/n, "ii": 2 - 1/n.

    Returned as a SupportOracle with h(v) = sqrt(sum v_n^2 / w_n), and the
    same formula row-wise as ``h_many``.  Family
    "i" has diameter 2 / sqrt(1 + 1/d) increasing toward 2; family "ii" has
    minimal width 2 / sqrt(2 - 1/d) decreasing toward sqrt(2).  Neither
    limit is attained at any finite truncation, which is what these bodies
    exist to exhibit.
    """
    if d < 1:
        raise BodyError("dimension must be >= 1")
    if mode not in WEIGHT_MODES:
        raise BodyError(f"mode must be one of {WEIGHT_MODES}")
    n = np.arange(1, d + 1, dtype=float)
    w = 1.0 + 1.0 / n if mode == "i" else 2.0 - 1.0 / n

    inv = 1.0 / w

    def h(v):
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(np.sum(v * v * inv)))

    def h_many(D):
        return np.sqrt((D * D) @ inv)

    return SupportOracle(h, np.zeros(d), 1.0 / np.sqrt(2.0), 1.0,
                         label=f"weighted_l2_ball:dim={d}:mode={mode}", h_many=h_many)


def random_polygon(n, seed, radius=1.0, center=(0.0, 0.0)):
    """Test utility: hull of n uniform points in a disc (at least a triangle)."""
    if n < 3:
        raise BodyError("random polygon needs n >= 3")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        r = radius * np.sqrt(rng.uniform(size=n))
        th = rng.uniform(0.0, 2.0 * np.pi, size=n)
        P = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        rows, W = _hull(np.unique(P, axis=0))
        if rows is not None:
            return VPolytope(W + np.asarray(center, dtype=float))
    raise BodyError("failed to draw a nondegenerate polygon")


# ---------------------------------------------------------------------------
# schema


def _need(obj, key, path):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    return obj[key]


def _num(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:          # integers beyond the float range
        out = np.inf
    if not np.isfinite(out):
        raise SchemaError(path, "expected a finite number")
    return out


def _intval(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _vec(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(path, "expected a nonempty array of numbers")
    return np.array([_num(v, f"{path}[{i}]") for i, v in enumerate(value)])


def _mat(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        raise SchemaError(path, "expected a nonempty array of rows")
    rows = [_vec(r, f"{path}[{i}]") for i, r in enumerate(value)]
    if len({r.size for r in rows}) != 1:
        raise SchemaError(path, "rows have inconsistent lengths")
    return np.array(rows)


def parse_body(spec, path="body", check=True):
    """Build a Body from its schema dict; validates unless check=False.

    Every node is validated once, at its own path: a product's factors and
    a sum's terms at theirs (a sum checks that its terms share a dimension),
    an affine image at its own node, every other kind where it stands.  A
    constructor's error is reported at its node's path too.
    """
    if not isinstance(spec, dict):
        raise SchemaError(path, "expected an object")
    kind = _need(spec, "kind", path)
    try:
        K = _parse_kind(kind, spec, path, check)
    except SchemaError:
        raise
    except (BodyError, TypeError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc
    if check and kind not in ("product", "sum"):
        try:
            validate(K)
        except BodyError as exc:
            raise SchemaError(path, f"invalid body: {exc}") from exc
    return K


def _parse_kind(kind, spec, path, check):
    if kind == "hpolytope":
        return HPolytope(_mat(_need(spec, "A", path), f"{path}.A"),
                         _vec(_need(spec, "b", path), f"{path}.b"))
    if kind == "vpolytope":
        return VPolytope(_mat(_need(spec, "vertices", path), f"{path}.vertices"))
    if kind == "ball":
        r = _num(_need(spec, "radius", path), f"{path}.radius")
        if r <= 0:
            raise SchemaError(f"{path}.radius", "must be positive")
        return make_ball(_vec(_need(spec, "center", path), f"{path}.center"), r)
    if kind == "box":
        return make_box(_vec(_need(spec, "low", path), f"{path}.low"),
                        _vec(_need(spec, "high", path), f"{path}.high"))
    if kind == "simplex":
        return make_simplex(_intval(_need(spec, "dim", path), f"{path}.dim"))
    if kind == "product":
        factors = _need(spec, "factors", path)
        if not isinstance(factors, list) or not factors:
            raise SchemaError(f"{path}.factors", "expected a nonempty array")
        return Product(tuple(parse_body(f, f"{path}.factors[{i}]", check)
                             for i, f in enumerate(factors)))
    if kind == "sum":
        terms = _need(spec, "terms", path)
        if not isinstance(terms, list) or not terms:
            raise SchemaError(f"{path}.terms", "expected a nonempty array")
        terms = tuple(parse_body(t, f"{path}.terms[{i}]", check)
                      for i, t in enumerate(terms))
        if len({dim(T) for T in terms}) != 1:
            raise SchemaError(path, "sum terms must share a dimension")
        if all(isinstance(T, Ball) for T in terms):
            return Ball(np.sum([T.center for T in terms], axis=0),
                        sum(T.radius for T in terms))
        return Sum(terms)
    if kind in ("scaled", "translated", "reflected"):
        # the image is validated at this node, so its body is not validated alone
        K = parse_body(_need(spec, "body", path), f"{path}.body", check=False)
        if kind == "reflected":
            return homothety(K, -1.0)
        if kind == "scaled":
            s = _num(_need(spec, "factor", path), f"{path}.factor")
            if not (np.isfinite(s) and s > 0):
                raise SchemaError(f"{path}.factor", "must be finite and positive")
            return homothety(K, s)
        z = _vec(_need(spec, "offset", path), f"{path}.offset")
        if z.size != dim(K):
            raise SchemaError(f"{path}.offset",
                              f"has dimension {z.size}, the body has {dim(K)}")
        return homothety(K, 1.0, z)
    if kind == "regular_polygon":
        n = _intval(_need(spec, "n", path), f"{path}.n")
        radius = _num(spec.get("radius", 1.0), f"{path}.radius")
        center = (_vec(spec["center"], f"{path}.center") if "center" in spec
                  else np.zeros(2))
        phase = _num(spec.get("phase", 0.0), f"{path}.phase")
        return make_regular_polygon(n, radius, center, phase)
    if kind == "half_disc_approx":
        return make_half_disc(_intval(spec.get("n", 64), f"{path}.n"))
    if kind == "sobczyk_prism":
        return make_sobczyk_prism()
    if kind == "weighted_l2_ball":
        return make_weighted_l2_ball(_intval(spec.get("dim", 64), f"{path}.dim"),
                                     spec.get("mode", "i"))
    raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}")


def serialize_body(K):
    """Schema dict for a body; inverse of parse_body up to semantic equality."""
    if isinstance(K, HPolytope):
        return {"kind": "hpolytope", "A": K.A.tolist(), "b": K.b.tolist()}
    if isinstance(K, VPolytope):
        return {"kind": "vpolytope", "vertices": K.vertices.tolist()}
    if isinstance(K, Ball):
        return {"kind": "ball", "center": K.center.tolist(), "radius": K.radius}
    if isinstance(K, Product):
        return {"kind": "product", "factors": [serialize_body(f) for f in K.factors]}
    if isinstance(K, Sum):
        return {"kind": "sum", "terms": [serialize_body(t) for t in K.terms]}
    if isinstance(K, SupportOracle):
        if K.label.startswith("weighted_l2_ball:"):
            parts = dict(p.split("=", 1) for p in K.label.split(":")[1:])
            return {"kind": "weighted_l2_ball", "dim": int(parts["dim"]),
                    "mode": parts["mode"]}
        raise BodyError("support oracles have no serialized form")
    raise BodyError(f"cannot serialize {type(K).__name__}")
