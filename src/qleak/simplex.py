"""Dense primal simplex for small standard-form programs.

Solves min c'x subject to A x = b, x >= 0, starting from a primal-feasible
basis the caller supplies (there is no phase 1).  Every pivot follows
Bland's rule (Math. Oper. Res. 2, 103, 1977): the lowest-index improving
column enters and, among minimum-ratio ties, the row whose basic variable
has the lowest index leaves, so no basis repeats and the walk terminates on
degenerate vertices too.  The tableau is periodically rebuilt from the
original data so roundoff cannot accumulate, and a final residual check
refuses to report a corrupted vertex as optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A reduced cost must clear this to be considered an improving column.
ENTERING_TOL = 1e-11
# Column entries at or below this are treated as nonpositive by the ratio
# test; dividing by anything smaller amplifies tableau noise past repair.
_RATIO_TOL = 1e-9
_REFACTOR_EVERY = 64

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None
    objective: float
    multipliers: np.ndarray | None
    iterations: int
    # Final basis (column indices), so callers can warm-start a related solve.
    basis: list[int] | None = None


def _refactor(tab, basis, ext, rhs) -> bool:
    """Rebuild the tableau as B^-1 [ext | rhs] from the original data."""
    bmat = ext[:, basis]
    try:
        fresh = np.linalg.solve(bmat, np.hstack([ext, rhs[:, None]]))
    except np.linalg.LinAlgError:
        return False
    tab[:, :] = fresh
    last = tab[:, -1]
    last[(last < 0.0) & (last > -1e-7)] = 0.0
    return True


def _pivot_loop(tab, basis, cost, ext, rhs):
    """Run primal simplex pivots in place; tab is [A | b] in basis form."""
    m, ncols = tab.shape
    n = ncols - 1
    max_iterations = 200 * (m + n + 10)
    iters = 0
    since_refactor = 0
    while True:
        if since_refactor >= _REFACTOR_EVERY:
            if _refactor(tab, basis, ext, rhs):
                since_refactor = 0
        cb = cost[basis]
        # reduced costs: c_j - cb . tab[:, j]
        reduced = cost - cb @ tab[:, :n]
        candidates = np.flatnonzero(reduced < -ENTERING_TOL)
        if candidates.size == 0 and since_refactor > 0:
            # Optimality may be an artifact of drift; recheck when fresh.
            if _refactor(tab, basis, ext, rhs):
                since_refactor = 0
                reduced = cost - cost[basis] @ tab[:, :n]
                candidates = np.flatnonzero(reduced < -ENTERING_TOL)
        if candidates.size == 0:
            return STATUS_OPTIMAL, iters
        j = int(candidates[0])  # Bland: lowest eligible index enters
        col = tab[:, j]
        rows = np.flatnonzero(col > _RATIO_TOL)
        if rows.size == 0:
            if since_refactor > 0 and _refactor(tab, basis, ext, rhs):
                since_refactor = 0
                continue
            return STATUS_UNBOUNDED, iters
        ratios = tab[rows, n] / col[rows]
        best = float(np.min(ratios))
        ties = rows[ratios <= best + 1e-9 * max(1.0, abs(best))]
        # Bland: the tied row with the lowest basic variable index leaves
        leave = int(ties[np.argmin(np.asarray(basis)[ties])])
        piv = tab[leave, j]
        tab[leave, :] /= piv
        other = np.arange(m) != leave
        tab[other, :] -= np.outer(tab[other, j], tab[leave, :])
        basis[leave] = j
        last = tab[:, n]
        last[(last < 0.0) & (last > -1e-7)] = 0.0
        iters += 1
        since_refactor += 1
        if iters >= max_iterations:
            return STATUS_ITERATION_LIMIT, iters


def resume_phase2(cost, a_eq, b_eq, basis) -> SimplexResult:
    """Minimise cost'x over A x = b, x >= 0 from a primal-feasible basis.

    The basis lists m column indices, for example the slack columns of a
    fresh LP or the basis of an earlier solve before columns were appended.
    A basis that is out of range, singular or gives a negative right-hand
    side is reported as infeasible without pivoting, so the caller can
    retry from another one.  An optimum carries the equality-constraint
    shadow prices and its final basis.
    """
    c = np.asarray(cost, dtype=np.float64).reshape(-1)
    a = np.asarray(a_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64).reshape(-1)
    m, n = a.shape
    if len(basis) != m or any(j >= n for j in basis):
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, 0)
    tab = np.empty((m, n + 1))
    basis = list(basis)
    if not _refactor(tab, basis, a, b):
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, 0)
    if float(np.min(tab[:, -1], initial=0.0)) < -1e-9:
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, 0)
    status, iters = _pivot_loop(tab, basis, c, a, b)
    if status != STATUS_OPTIMAL:
        return SimplexResult(status, None, np.nan, None, iters)
    x = np.zeros(n)
    for row, var in enumerate(basis):
        x[var] = max(0.0, float(tab[row, -1]))
    residual = float(np.max(np.abs(a @ x - b), initial=0.0))
    if residual > 1e-6 * max(1.0, float(np.max(np.abs(b), initial=0.0))):
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, iters)
    objective = float(c @ x)
    try:
        pi = np.linalg.solve(a[:, basis].T, c[np.asarray(basis)])
    except np.linalg.LinAlgError:
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, iters)
    return SimplexResult(STATUS_OPTIMAL, x, objective, pi, iters, list(basis))
