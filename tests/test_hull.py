"""One Qhull entry: ``body._hull`` gives a point set's facet rows and its
exact extreme points together.

These tests hold ``_hull`` against independent checks (one LP per returned
point, the rows against every input point) and, up to MAX_VERTEX_DIM, bit
for bit against a copy of the routines it replaced.  They check that the
extreme points are exact where Qhull's merged facets keep points that are
not (from d = 5 on), and count the hulls of the bodies built from a
``_hull`` result: the level body above 1 and the central symmetrization.
"""

import itertools

import numpy as np
import pytest
from scipy.spatial import ConvexHull, QhullError

from minkgauge import VPolytope, central_symm, level_set, lp
from minkgauge.body import MAX_VERTEX_DIM, MEMBERSHIP_TOL, _hull, extreme_points, rows_contain

# the 128 corners of {-1, 0, 1}^3 x {-1, 1}^4 and of {-1, 0, 1} x {-1, 1}^6 in
# R^7, where Qhull's merged facets kept 197 and 140 points
GRIDS_R7 = {"3x3x3x2^4": [[-1.0, 0.0, 1.0]] * 3 + [[-1.0, 1.0]] * 4,
            "3x2^6": [[-1.0, 0.0, 1.0]] + [[-1.0, 1.0]] * 6}


def _grid(axes):
    return np.array(list(itertools.product(*axes)))


def _corners(axes):
    return _as_set(itertools.product(*[(a[0], a[-1]) for a in axes]))


def _as_set(P):
    return sorted(map(tuple, np.asarray(P).tolist()))


# ---------------------------------------------------------------------------
# reference: the routines ``_hull`` replaced, for d from 2 to MAX_VERTEX_DIM


def _ref_candidate_hull(V):
    """(rows, extreme points) of one Qhull hull of the raw set V."""
    try:
        H = ConvexHull(V)
    except QhullError:
        return None, np.unique(V, axis=0)
    E = V[H.vertices]
    if V.shape[1] > 2:
        E = np.unique(E, axis=0)
    Eq = H.equations
    _, keep = np.unique(np.round(Eq, 10), axis=0, return_index=True)
    Eq = Eq[np.sort(keep)]
    return (Eq[:, :-1], -Eq[:, -1]), E


def _ref_extreme_points(V):
    V = np.unique(V, axis=0)
    try:
        return V[ConvexHull(V).vertices]
    except QhullError:
        return V


def _point_sets():
    """Seeded Gaussian sets in d = 2..6 and the 3^d grids in d = 2..4."""
    for d in range(2, 7):
        for seed in range(3):
            yield f"gauss{d}-{seed}", np.random.default_rng(100 * d + seed).normal(size=(6 * d, d))
    for d in range(2, MAX_VERTEX_DIM + 1):
        yield f"grid{d}", _grid([[-1.0, 0.0, 1.0]] * d)


SETS = dict(_point_sets())


def _in_hull(p, E):
    """Whether p is a convex combination of the rows of E (one LP)."""
    return lp.feasible(A_eq=np.vstack([E.T, np.ones(len(E))]), b_eq=np.r_[p, 1.0],
                       bounds=(0, None))


def _assert_no_redundant_point(E):
    for i in range(len(E)):
        assert not _in_hull(E[i], np.delete(E, i, axis=0))


@pytest.mark.parametrize("name", sorted(SETS))
def test_hull_gives_exact_extreme_points(name):
    V = SETS[name]
    d = V.shape[1]
    rows, E = _hull(V)
    _assert_no_redundant_point(E)
    if d > MAX_VERTEX_DIM:
        # no rows there; every input point is still a convex combination of E
        kept = set(map(tuple, E.tolist()))
        assert all(_in_hull(p, E) for p in V if tuple(p.tolist()) not in kept)
        assert rows is None
        return
    A, b = rows
    assert all(rows_contain(A, b, p) for p in V)
    # every row is a facet: tight at d or more of the extreme points
    assert np.all(np.sum(np.abs(E @ A.T - b) <= MEMBERSHIP_TOL, axis=0) >= d)
    # and both are bit for bit those of the routines _hull replaced
    want_rows, want_E = _ref_candidate_hull(V)
    assert np.array_equal(A, want_rows[0]) and np.array_equal(b, want_rows[1])
    assert np.array_equal(E, want_E)
    assert np.array_equal(extreme_points(V), _ref_extreme_points(V))


def test_hull_of_a_flat_set_is_its_distinct_points():
    V = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    rows, E = _hull(V)
    assert rows is None and np.array_equal(E, _ref_candidate_hull(V)[1])


@pytest.mark.parametrize("name", sorted(GRIDS_R7))
def test_extreme_points_of_the_r7_grids_are_their_corners(name):
    V = _grid(GRIDS_R7[name])
    E = extreme_points(V)
    assert len(E) == 128 and _as_set(E) == _corners(GRIDS_R7[name])
    assert _as_set(VPolytope(V).extreme) == _as_set(E)
    _assert_no_redundant_point(E)


@pytest.mark.parametrize("scale", [1e-2, 1e-6])
def test_hull_keeps_every_vertex_of_a_squashed_set(scale):
    # being a vertex survives affine maps: squashing one axis keeps them all
    V = np.random.default_rng(0).normal(size=(40, 5)) * [1.0, 1.0, 1.0, 1.0, scale]
    kept = set(map(tuple, _hull(V)[1].tolist()))
    for i, p in enumerate(V):
        assert (tuple(p.tolist()) in kept) == (not _in_hull(p, np.delete(V, i, axis=0)))


# ---------------------------------------------------------------------------
# a body built from a _hull result keeps its rows and extreme points


def _reused_vpolytope():
    K = VPolytope(np.random.default_rng(0).normal(size=(12, 3)))
    K.extreme
    return K


def test_level_body_above_one_is_one_hull(qhull_calls):
    K = _reused_vpolytope()
    qhull_calls.clear()
    B = level_set(K, 2.0).body
    assert B.facet_rows is not None and B.extreme is B.vertices
    assert len(qhull_calls) == 1


def test_central_symm_is_the_hull_behind_symm_rows(qhull_calls):
    K = _reused_vpolytope()
    k = len(K.extreme)
    qhull_calls.clear()
    rows = K.symm_rows
    C = central_symm(K)
    assert C.facet_rows is rows and C.extreme is C.vertices
    # one hull of the k^2 halved differences gives C's rows and its points
    assert qhull_calls == [k * k]
    qhull_calls.clear()
    assert central_symm(K) is C and central_symm(K).facet_rows is K.symm_rows
    assert not qhull_calls
