"""Linear programming wrapper: statuses, senses, Chebyshev centers."""

import numpy as np
import numpy.testing as npt
import pytest

from minkgauge import lp


def test_solve_known_optimum():
    # min x + y  s.t.  x >= 1, y >= 2
    res = lp.solve([1.0, 1.0], A_ub=[[-1.0, 0.0], [0.0, -1.0]], b_ub=[-1.0, -2.0])
    assert res.status is lp.LPStatus.OPTIMAL
    npt.assert_allclose(res.value, 3.0, atol=1e-9)
    npt.assert_allclose(res.x, [1.0, 2.0], atol=1e-8)


def test_solve_max_sense():
    res = lp.solve([1.0], A_ub=[[1.0]], b_ub=[5.0], sense="max")
    assert res.status is lp.LPStatus.OPTIMAL
    npt.assert_allclose(res.value, 5.0, atol=1e-9)


def test_solve_free_variables_by_default():
    # scipy's own default clamps x >= 0; the wrapper must not
    res = lp.solve([1.0], A_ub=[[-1.0]], b_ub=[3.0])
    npt.assert_allclose(res.value, -3.0, atol=1e-9)


def test_solve_equality_constraint():
    res = lp.solve([0.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[2.0],
                   A_ub=[[0.0, -1.0]], b_ub=[0.0])
    assert res.status is lp.LPStatus.OPTIMAL
    npt.assert_allclose(res.value, 0.0, atol=1e-9)


def test_solve_infeasible():
    res = lp.solve([1.0], A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    assert res.status is lp.LPStatus.INFEASIBLE
    assert res.x is None and res.value is None


def test_solve_unbounded():
    res = lp.solve([1.0], A_ub=[[1.0]], b_ub=[0.0])
    assert res.status is lp.LPStatus.UNBOUNDED


def test_solve_rejects_bad_sense():
    with pytest.raises(ValueError):
        lp.solve([1.0], sense="upward")


def test_solve_rejects_nonfinite_objective():
    with pytest.raises(ValueError):
        lp.solve([np.inf])


def test_solve_stacked_matches_one_lp_per_objective(monkeypatch, lp_solves):
    rng = np.random.default_rng(0)
    A = np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(4, 3))])
    b = np.concatenate([np.ones(6), rng.uniform(1.0, 2.0, 4)])
    C = rng.normal(size=(7, 3))
    want = np.array([lp.solve(c, A_ub=A, b_ub=b).x for c in C])
    lp_solves.clear()
    status, X = lp.solve_stacked(C, A_ub=A, b_ub=b)
    assert status is lp.LPStatus.OPTIMAL
    assert len(lp_solves) == 1
    npt.assert_allclose(X, want, atol=1e-9)
    # a budget of two copies per LP splits the seven objectives over four LPs
    monkeypatch.setattr(lp, "STACK_ENTRIES", 4 * A.size)
    lp_solves.clear()
    status, X = lp.solve_stacked(C, A_ub=A, b_ub=b)
    assert len(lp_solves) == 4
    npt.assert_allclose(X, want, atol=1e-9)


def test_solve_stacked_reports_the_first_failing_status():
    # x <= 1 bounds the first objective only; the second is unbounded
    status, X = lp.solve_stacked(np.eye(2), A_ub=[[1.0, 0.0]], b_ub=[1.0], sense="max")
    assert status is lp.LPStatus.UNBOUNDED and X is None
    status, X = lp.solve_stacked(np.eye(1), A_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
    assert status is lp.LPStatus.INFEASIBLE and X is None


def test_feasible():
    assert lp.feasible([[1.0]], [1.0])
    assert not lp.feasible([[1.0], [-1.0]], [-1.0, -1.0])


def test_chebyshev_center_square():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    c, r = lp.chebyshev_center(A, np.ones(4))
    npt.assert_allclose(c, [0.0, 0.0], atol=1e-9)
    npt.assert_allclose(r, 1.0, atol=1e-9)


def test_chebyshev_center_triangle():
    # x >= 0, y >= 0, x + y <= 2: inradius 2 / (2 + sqrt(2))
    A = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([0.0, 0.0, 2.0])
    c, r = lp.chebyshev_center(A, b)
    npt.assert_allclose(r, 2.0 / (2.0 + np.sqrt(2.0)), atol=1e-9)
    npt.assert_allclose(c, [r, r], atol=1e-8)


def test_chebyshev_center_infeasible_raises():
    with pytest.raises(lp.NumericalError):
        lp.chebyshev_center(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))


def test_chebyshev_center_unbounded_raises():
    with pytest.raises(lp.NumericalError):
        lp.chebyshev_center(np.array([[1.0, 0.0]]), np.array([1.0]))


def test_chebyshev_center_zero_row_rejected():
    with pytest.raises(ValueError):
        lp.chebyshev_center(np.array([[0.0, 0.0]]), np.array([1.0]))


def test_lp_solve_over_halfspaces():
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    res = lp.solve(np.array([1.0, 2.0]), A_ub=A, b_ub=np.ones(4), sense="max")
    assert res.status is lp.LPStatus.OPTIMAL
    npt.assert_allclose(res.value, 3.0, atol=1e-9)
