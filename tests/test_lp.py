"""Linear programming wrapper: statuses, senses, Chebyshev centers, and the
direct HiGHS path checked against scipy.optimize.linprog."""

import sys
import threading
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import linprog as scipy_linprog

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


def test_lp_solves_counts_every_solve_with_its_columns(monkeypatch, lp_solves):
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    lp.solve([1.0, 2.0], A_ub=A, b_ub=np.ones(4))
    assert lp_solves == [2]
    lp.feasible(A, np.ones(4))
    assert lp_solves == [2, 2]
    lp.chebyshev_center(A, np.ones(4))
    assert lp_solves == [2, 2, 3]
    # two copies per LP: five objectives go into blocks of 2, 2 and 1
    monkeypatch.setattr(lp, "STACK_ENTRIES", 4 * A.size)
    lp_solves.clear()
    status, X = lp.solve_stacked(np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]]),
                                 A_ub=A, b_ub=np.ones(4), sense="max")
    assert status is lp.LPStatus.OPTIMAL and X.shape == (5, 2)
    assert lp_solves == [4, 4, 2]


# --- the direct HiGHS path against scipy.optimize.linprog ---------------------

SCIPY_STATUS = {lp.LPStatus.OPTIMAL: 0, lp.LPStatus.INFEASIBLE: 2, lp.LPStatus.UNBOUNDED: 3}


def _random_bounds(rng, n):
    """Free, nonnegative, or per column free / half-open / closed bounds."""
    kind = rng.integers(4)
    if kind == 0:
        return (None, None)
    if kind == 1:
        return (0, None)
    pairs = []
    for lo, hi in np.sort(2.0 * rng.normal(size=(n, 2)), axis=1):
        pairs.append([(None, None), (lo, None), (None, hi), (lo, hi)][rng.integers(4)])
    return pairs


def _sparse_normal(rng, shape):
    return np.where(rng.random(shape) < 0.3, 0.0, rng.normal(size=shape))


def _random_lp(rng, shape):
    """(c, A_ub, b_ub, A_eq, b_eq, bounds) of one of four shapes: the
    Chebyshev-centre LP, block-diagonal copies as solve_stacked builds them,
    a general system, and a general system inside a box around the origin."""
    if shape == "chebyshev":
        d, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        A = rng.normal(size=(m, d))
        if rng.random() < 0.5:
            A = np.vstack([A, np.eye(d), -np.eye(d)])
        Aug = np.hstack([A, np.linalg.norm(A, axis=1)[:, None]])
        return (np.r_[np.zeros(d), -1.0], Aug, rng.normal(size=len(A)) + 0.5, None, None,
                [(None, None)] * d + [(0, None)])
    if shape == "stacked":
        n, m, j = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(2, 4))
        A, b = _sparse_normal(rng, (m, n)), rng.normal(size=m) + 1.0
        A_eq = b_eq = None
        if rng.random() < 0.4:
            A_eq = np.kron(np.eye(j), rng.normal(size=(1, n)))
            b_eq = np.tile(rng.normal(size=1), j)
        return (rng.normal(size=j * n), np.kron(np.eye(j), A), np.tile(b, j), A_eq, b_eq,
                (None, None))
    n, m_ub, m_eq = int(rng.integers(1, 7)), int(rng.integers(0, 9)), int(rng.integers(0, 4))
    A_ub = _sparse_normal(rng, (m_ub, n)) if m_ub else None
    b_ub = rng.normal(size=m_ub) + 1.0 if m_ub else None
    A_eq = _sparse_normal(rng, (m_eq, n)) if m_eq else None
    b_eq = rng.normal(size=m_eq) if m_eq else None
    if shape == "boxed":
        A_ub = np.vstack([np.eye(n), -np.eye(n)] + ([] if A_ub is None else [A_ub]))
        b_ub = np.concatenate([rng.uniform(1.0, 3.0, 2 * n)] + ([] if b_ub is None else [b_ub]))
        if m_eq:
            b_eq = A_eq @ rng.uniform(-0.5, 0.5, n)
    return rng.normal(size=n), A_ub, b_ub, A_eq, b_eq, _random_bounds(rng, n)


def test_direct_highs_matches_scipy_linprog_bit_for_bit():
    rng = np.random.default_rng(20)
    seen = Counter()
    for i in range(400):
        args = _random_lp(rng, ("chebyshev", "stacked", "general", "boxed")[i % 4])
        ref = scipy_linprog(*args, method="highs",
                            options={"primal_feasibility_tolerance": lp.FEAS_TOL,
                                     "dual_feasibility_tolerance": lp.FEAS_TOL})
        if ref.status not in (0, 2, 3):
            with pytest.raises(lp.NumericalError):
                lp.linprog(*args)
            continue
        res = lp.linprog(*args)
        assert SCIPY_STATUS[res.status] == ref.status, i
        seen[res.status] += 1
        if res.optimal:
            assert np.array_equal(res.x, ref.x), i
            assert res.value == ref.fun, i
            assert np.array_equal(res.eq_duals, ref.eqlin.marginals), i
    # the battery reaches every status the wrapper maps
    assert min(seen[s] for s in SCIPY_STATUS) >= 50, seen


class _UnboundedOrInfeasible(lp.highs._Highs):
    def getModelStatus(self):
        return lp.highs.HighsModelStatus.kUnboundedOrInfeasible


class _ShiftedColumns(lp.highs._Highs):
    def getSolution(self):
        sol = super().getSolution()
        sol.col_value = [v - 1e-3 for v in sol.col_value]
        return sol


class _ShiftedRows(lp.highs._Highs):
    def getSolution(self):
        sol = super().getSolution()
        sol.row_value = [v + 1e-3 for v in sol.row_value]
        return sol


def _fresh_solver(cls=lp.highs._Highs):
    """A new HiGHS object with the package's options, as ``lp._solver`` builds."""
    solver = cls()
    solver.passOptions(lp._OPTIONS)
    return solver


def test_unmapped_highs_status_raises(monkeypatch):
    monkeypatch.setattr(lp, "_solver", lambda: _fresh_solver(_UnboundedOrInfeasible))
    with pytest.raises(lp.NumericalError, match="infeasible or unbounded"):
        lp.solve([1.0], A_ub=[[-1.0]], b_ub=[0.0])


@pytest.mark.parametrize("fake, system", [
    # x >= 1 as a bound; the reported x falls 1e-3 below it
    (_ShiftedColumns, dict(bounds=[(1.0, None)])),
    # x >= 1 as a row of A_ub; the reported row value breaks b_ub
    (_ShiftedRows, dict(A_ub=[[-1.0]], b_ub=[-1.0])),
    # x = 1 as an equality; the reported row value breaks b_eq
    (_ShiftedRows, dict(A_eq=[[1.0]], b_eq=[1.0])),
])
def test_optimum_that_breaks_its_constraints_raises(monkeypatch, fake, system):
    assert lp.solve([1.0], **system).optimal
    monkeypatch.setattr(lp, "_solver", lambda: _fresh_solver(fake))
    with pytest.raises(lp.NumericalError, match="breaks its constraints"):
        lp.solve([1.0], **system)


# --- the per-thread solver against a fresh HiGHS object per solve -------------

def _outcome(args):
    """linprog's result on args as comparable bytes, or the NumericalError text."""
    try:
        res = lp.linprog(*args)
    except lp.NumericalError as err:
        return str(err)
    return (res.status, res.value, *(None if a is None else a.tobytes()
                                     for a in (res.x, res.eq_duals)))


def _corpus(seed, n):
    rng = np.random.default_rng(seed)
    return [_random_lp(rng, ("chebyshev", "stacked", "general", "boxed")[i % 4])
            for i in range(n)]


def test_reused_solver_matches_a_fresh_one_bit_for_bit(monkeypatch):
    corpus = _corpus(21, 400)
    reused = [_outcome(args) for args in corpus]
    monkeypatch.setattr(lp, "_solver", _fresh_solver)
    assert [_outcome(args) for args in corpus] == reused
    assert min(Counter(o[0] for o in reused if not isinstance(o, str)).values()) >= 50


class _Faulty:
    """This thread's solver, with a fault after the model is solved."""

    def __init__(self, solver):
        self._solver = solver

    def __getattr__(self, name):
        return getattr(self._solver, name)

    def getSolution(self):
        raise RuntimeError("injected fault")


def test_a_raised_solve_leaves_the_solver_clean(monkeypatch):
    corpus = _corpus(22, 40)
    solver = lp._solver()
    with monkeypatch.context() as m:
        m.setattr(lp, "_solver", lambda: _Faulty(solver))
        with pytest.raises(RuntimeError, match="injected fault"):
            lp.solve([1.0], A_ub=[[-1.0]], b_ub=[-1.0])
    assert lp._solver() is solver and solver.getNumRow() == 0
    after = [_outcome(args) for args in corpus]
    monkeypatch.setattr(lp, "_solver", _fresh_solver)
    assert after == [_outcome(args) for args in corpus]


def test_two_threads_solve_as_a_serial_run_does():
    corpus = _corpus(23, 120)
    want = [_outcome(args) for args in corpus]
    got = [None] * len(corpus)
    solvers = [None, None]
    start = threading.Barrier(2)

    def work(t):
        solvers[t] = lp._solver()
        start.wait(timeout=30)
        for i in range(t, len(corpus), 2):
            got[i] = _outcome(corpus[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert solvers[0] is not solvers[1] and lp._solver() not in solvers
    assert got == want


@pytest.mark.parametrize("kwargs, message", [
    (dict(bounds=[(0, 1)] * 3), r"bounds must be one pair or 2 pairs, got shape \(3, 2\)"),
    (dict(A_ub=[1.0, 1.0], b_ub=[1.0]), r"constraint matrix must be 2-d, got shape \(2,\)"),
    (dict(A_ub=[[1.0, np.nan]], b_ub=[1.0]), "constraint matrix contains non-finite entries"),
    (dict(A_eq=[[1.0, 1.0, 1.0]], b_eq=[1.0]), "constraint matrix has 3 columns, expected 2"),
    (dict(A_ub=[[1.0, 1.0]], b_ub=[1.0, 2.0]), "b_ub length does not match A_ub rows"),
    (dict(A_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0]), "b_eq length does not match A_eq rows"),
], ids=["bounds-shape", "1-d-A", "non-finite-A", "columns", "b_ub-length", "b_eq-length"])
def test_solve_rejects_malformed_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        lp.solve(np.ones(2), **kwargs)
