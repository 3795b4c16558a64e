"""Thin linear-programming layer used by the geometric routines.

Everything here funnels into scipy's HiGHS backend.  The wrapper exists so
that callers get a uniform result object with an explicit status enum
(optimal / infeasible / unbounded) instead of scipy's integer codes, and so
that genuine solver breakdowns surface as ``NumericalError`` rather than a
silently wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog

FEAS_TOL = 1e-10   # HiGHS primal and dual feasibility tolerance
# largest block-diagonal constraint matrix solve_stacked builds, in entries;
# its size grows with the square of the number of stacked copies
STACK_ENTRIES = 1 << 18


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

    Variables are free by default (scipy's own default is x >= 0, which is
    never what the geometry wants unless asked for explicitly).
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

    res = linprog(sign * c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs",
                  options={"primal_feasibility_tolerance": FEAS_TOL,
                           "dual_feasibility_tolerance": FEAS_TOL})
    if res.status == 0:
        return LPResult(LPStatus.OPTIMAL, sign * res.fun, np.asarray(res.x, dtype=float),
                        sign * np.asarray(res.eqlin.marginals, dtype=float))
    if res.status == 2:
        return LPResult(LPStatus.INFEASIBLE, None, None)
    if res.status == 3:
        return LPResult(LPStatus.UNBOUNDED, None, None)
    raise NumericalError(f"LP solver failed: {res.message}")


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
