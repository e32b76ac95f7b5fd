"""Dense primal simplex for small standard-form programs.

Solves min c'x subject to A x = b, x >= 0, starting from a primal-feasible
basis the caller supplies (there is no phase 1).  Entering columns follow
Bland's rule (lowest eligible index); the leaving row takes the largest
pivot element among minimum-ratio ties, which keeps divisions away from
noise-scale entries on degenerate vertices.  The tableau is periodically
rebuilt from the original data so roundoff cannot accumulate, and a final
residual check refuses to report a corrupted vertex as optimal.
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
# Consecutive non-improving pivots tolerated before the degenerate-face
# escape kicks in (coarse optimality check, then Bland tie-breaking).
_STALL_LIMIT = 256
# Near-duplicate columns can leave noise-level reduced costs on a huge
# optimal face; once the walk stalls, accepting this looser certificate
# ends it while moving the objective by far less than any caller cares.
_COARSE_TOL = 1e-9

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
    stall = 0
    stalled_mode = False
    prev_obj = np.inf
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
            return "optimal", iters
        if stall >= _STALL_LIMIT:
            if _refactor(tab, basis, ext, rhs):
                since_refactor = 0
                reduced = cost - cost[basis] @ tab[:, :n]
                candidates = np.flatnonzero(reduced < -ENTERING_TOL)
                if candidates.size == 0:
                    return "optimal", iters
            if float(np.min(reduced)) >= -_COARSE_TOL:
                return "optimal", iters
            stall = 0
            stalled_mode = True
        j = int(candidates[0])  # Bland: lowest eligible index
        col = tab[:, j]
        rows = np.flatnonzero(col > _RATIO_TOL)
        if rows.size == 0:
            if since_refactor > 0 and _refactor(tab, basis, ext, rhs):
                since_refactor = 0
                continue
            return "unbounded", iters
        ratios = tab[rows, n] / col[rows]
        best = float(np.min(ratios))
        ties = rows[ratios <= best + 1e-9 * max(1.0, abs(best))]
        if stalled_mode:
            # Bland: leave on the smallest basic variable index
            leave = int(ties[np.argmin(np.asarray(basis)[ties])])
        else:
            leave = int(ties[np.argmax(col[ties])])
        piv = tab[leave, j]
        tab[leave, :] /= piv
        other = np.arange(m) != leave
        tab[other, :] -= np.outer(tab[other, j], tab[leave, :])
        basis[leave] = j
        last = tab[:, n]
        last[(last < 0.0) & (last > -1e-7)] = 0.0
        obj = float(cost[basis] @ last)
        if obj < prev_obj - 1e-10 * max(1.0, abs(prev_obj)):
            stall = 0
        else:
            stall += 1
        prev_obj = obj
        iters += 1
        since_refactor += 1
        if iters >= max_iterations:
            return "iteration_limit", iters


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
    if status != "optimal":
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
