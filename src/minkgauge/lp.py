"""Thin linear-programming layer used by the geometric routines.

Every LP goes to HiGHS (Huangfu & Hall, *Math. Prog. Comp.* 10, 2018)
through ``linprog``, the one function here that calls the solver.  It feeds
the HiGHS core that scipy bundles (``scipy.optimize._highspy._core``)
directly, with what ``scipy.optimize.linprog(method="highs")`` would pass:
the same options, the stacked ``[A_ub; A_eq]`` as column-wise nonzeros, the
same status map and the same post-solve residual check.  It returns the same
statuses, x, objective and equality duals, bit for bit.  On the small LPs of
this package scipy's per-call wrapper (an options manager built per option,
input cleaning, sparse conversion, result assembly) cost several times the
solve itself.  Each thread keeps one HiGHS object (``_solver``), given its
options once; a solve passes its model and clears it again, so no model
stays resident and none carries over to the next solve.  Building a fresh
object per solve cost about as much as HiGHS's own run: on a shared 2-core
x86_64 host a 10-row Chebyshev LP took 0.52-0.82 ms through ``linprog``
that way, and 0.29-0.60 ms on the reused object.
The name ``linprog`` and its leading ``c`` argument stay, so that counters
can wrap ``minkgauge.lp.linprog`` and see every solve.

The wrapper exists so that callers get a uniform result object with an
explicit status enum (optimal / infeasible / unbounded) instead of integer
codes, and so that genuine solver breakdowns surface as ``NumericalError``
rather than a silently wrong answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize._highspy import _core as highs

FEAS_TOL = 1e-10   # HiGHS primal and dual feasibility tolerance
# largest block-diagonal constraint matrix solve_stacked builds, in entries;
# its size grows with the square of the number of stacked copies
STACK_ENTRIES = 1 << 18
# an "optimal" x may break bounds and constraints by this much (scipy's
# check: ten times the square root of its default tol 1e-9)
RESIDUAL_TOL = 10.0 * np.sqrt(1e-9)


class NumericalError(RuntimeError):
    """Raised when an iterative routine fails to converge or conditioning breaks down."""


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: LPStatus
    value: float | None
    x: np.ndarray | None
    eq_duals: np.ndarray | None = None   # d value / d b_eq at an optimum

    @property
    def optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


def _highs_options():
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.primal_feasibility_tolerance = FEAS_TOL
    opts.dual_feasibility_tolerance = FEAS_TOL
    opts.output_flag = False
    opts.log_to_console = False
    return opts


_OPTIONS = _highs_options()
_LOCAL = threading.local()


def _solver():
    """This thread's HiGHS object, built with ``_OPTIONS`` on first use.

    ``linprog`` clears its model after every solve, raised or not, so the
    object holds no model between solves.  Tests replace this function to
    inject a faulty solver.
    """
    solver = getattr(_LOCAL, "solver", None)
    if solver is None:
        solver = _LOCAL.solver = highs._Highs()
        solver.passOptions(_OPTIONS)
    return solver


def _bounds(bounds, n):
    """Per-column (lower, upper) arrays; None means unbounded, and one
    (lower, upper) pair applies to every column."""
    B = np.atleast_2d(np.array(bounds, dtype=float))
    if B.size == 2:
        B = np.broadcast_to(B.reshape(1, 2), (n, 2))
    elif B.shape != (n, 2):
        raise ValueError(f"bounds must be one pair or {n} pairs, got shape {B.shape}")
    return (np.where(np.isnan(B[:, 0]), -highs.kHighsInf, B[:, 0]),
            np.where(np.isnan(B[:, 1]), highs.kHighsInf, B[:, 1]))


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(None, None)):
    """min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, bounds, by HiGHS.

    Returns the LPResult of the minimisation.  Raises NumericalError for any
    other solver status (unbounded-or-infeasible included) and for an
    "optimal" x that breaks a bound or constraint by more than RESIDUAL_TOL.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.empty((0, n)) if A_ub is None else np.asarray(A_ub, dtype=float)
    A_eq = np.empty((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_ub = np.empty(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    b_eq = np.empty(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lb, ub = _bounds(bounds, n)
    m_ub = b_ub.size
    rhs = np.concatenate([b_ub, b_eq])
    # column-wise nonzeros of [A_ub; A_eq], rows ascending within a column
    At = np.vstack([A_ub, A_eq]).T
    nz = At != 0
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(nz.sum(axis=1), out=start[1:])

    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = rhs.size
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = np.concatenate([np.full(m_ub, -highs.kHighsInf), b_eq])
    model.row_upper_ = rhs
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = np.nonzero(nz)[1].astype(np.int32)
    model.a_matrix_.value_ = At[nz]

    solver = _solver()   # this thread's, cleared after every solve
    try:
        if solver.passModel(model) == highs.HighsStatus.kError:
            return LPResult(LPStatus.INFEASIBLE, None, None)
        ran = solver.run()
        status = solver.getModelStatus()
        if status == highs.HighsModelStatus.kOptimal and ran != highs.HighsStatus.kError:
            sol = solver.getSolution()
            x = np.array(sol.col_value)
            fun = solver.getInfo().objective_function_value
            slack = rhs - np.array(sol.row_value)
            # every comparison with a NaN is False, so NaNs fail the check too
            if not (fun == fun and np.all(x >= lb - RESIDUAL_TOL)
                    and np.all(x <= ub + RESIDUAL_TOL)
                    and np.all(slack[:m_ub] >= -RESIDUAL_TOL)
                    and np.all(np.abs(slack[m_ub:]) <= RESIDUAL_TOL)):
                raise NumericalError("LP solver returned an optimum that breaks its "
                                     f"constraints by more than {RESIDUAL_TOL:.2e}")
            return LPResult(LPStatus.OPTIMAL, fun, x, np.array(sol.row_dual)[m_ub:])
        if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kModelError):
            return LPResult(LPStatus.INFEASIBLE, None, None)
        if status == highs.HighsModelStatus.kUnbounded:
            return LPResult(LPStatus.UNBOUNDED, None, None)
        raise NumericalError(f"LP solver failed: {solver.modelStatusToString(status)}")
    finally:
        solver.clearModel()


def _as_2d(A, n_cols=None):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"constraint matrix must be 2-d, got shape {A.shape}")
    if n_cols is not None and A.shape[1] != n_cols:
        raise ValueError(f"constraint matrix has {A.shape[1]} columns, expected {n_cols}")
    if not np.all(np.isfinite(A)):
        raise ValueError("constraint matrix contains non-finite entries")
    return A


def solve(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(None, None), sense="min"):
    """Solve min/max c.x subject to A_ub x <= b_ub, A_eq x = b_eq.

    Variables are free by default (scipy.optimize.linprog's default is
    x >= 0, which is never what the geometry wants unless asked for
    explicitly).
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    if not np.all(np.isfinite(c)):
        raise ValueError("objective contains non-finite entries")
    n = c.size
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    sign = 1.0 if sense == "min" else -1.0

    if A_ub is not None:
        A_ub = _as_2d(A_ub, n)
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        if b_ub.size != A_ub.shape[0]:
            raise ValueError("b_ub length does not match A_ub rows")
    if A_eq is not None:
        A_eq = _as_2d(A_eq, n)
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        if b_eq.size != A_eq.shape[0]:
            raise ValueError("b_eq length does not match A_eq rows")

    res = linprog(sign * c, A_ub, b_ub, A_eq, b_eq, bounds)
    if res.optimal:
        res.value, res.eq_duals = sign * res.value, sign * res.eq_duals
    return res


def solve_stacked(C, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(None, None),
                  sense="min"):
    """Optimize each objective row of C over the same system.

    The copies go into block-diagonal LPs, as many per LP as keep the stacked
    matrix under STACK_ENTRIES (all of them for small systems).  The blocks
    are separable, so each returns its own optimum.  Returns (status, X):
    X holds one optimal point per row of C, or is None and status is the
    first non-optimal one.
    """
    C = np.atleast_2d(np.asarray(C, dtype=float))
    k, n = C.shape
    rows = sum(0 if A is None else np.shape(A)[0] for A in (A_ub, A_eq))
    per = max(1, int(np.sqrt(STACK_ENTRIES / max(1, rows * n))))
    X = []
    for at in range(0, k, per):
        j = min(per, k - at)
        I = np.eye(j)
        res = solve(C[at:at + j].ravel(),
                    A_ub=None if A_ub is None else np.kron(I, A_ub),
                    b_ub=None if A_ub is None else np.tile(b_ub, j),
                    A_eq=None if A_eq is None else np.kron(I, A_eq),
                    b_eq=None if A_eq is None else np.tile(b_eq, j),
                    bounds=bounds * j if isinstance(bounds, list) else bounds,
                    sense=sense)
        if not res.optimal:
            return res.status, None
        X.append(res.x.reshape(j, n))
    return LPStatus.OPTIMAL, np.vstack(X)


def feasible(A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(None, None)):
    """True if the system has a solution, False if provably infeasible."""
    if A_ub is not None:
        A_ub = _as_2d(A_ub)
    if A_eq is not None:
        A_eq = _as_2d(A_eq)
    n = A_ub.shape[1] if A_ub is not None else A_eq.shape[1]
    res = solve(np.zeros(n), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds)
    return res.optimal


def chebyshev_center(A, b):
    """Largest inscribed ball of {x : A x <= b}: returns (center, radius).

    radius < 0 never occurs; radius == 0 up to solver tolerance flags an
    empty interior, and infeasible/unbounded systems raise NumericalError
    with a descriptive message (an unbounded system has no largest ball).
    """
    A = _as_2d(A)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    m, d = A.shape
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0):
        raise ValueError("halfspace system has a zero row")
    Aug = np.hstack([A, norms[:, None]])
    res = solve(np.r_[np.zeros(d), -1.0], A_ub=Aug, b_ub=b,
                bounds=[(None, None)] * d + [(0, None)])
    if res.status is LPStatus.INFEASIBLE:
        raise NumericalError("halfspace system is infeasible")
    if res.status is LPStatus.UNBOUNDED:
        raise NumericalError("halfspace system is unbounded")
    return res.x[:d], res.x[d]
