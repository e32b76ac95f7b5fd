"""Dense revised primal simplex for small standard-form programs.

Solves min c'x subject to A x = b, x >= 0, starting from a primal-feasible
basis the caller supplies (there is no phase 1).  Every pivot follows
Bland's rule (Math. Oper. Res. 2, 103, 1977): the lowest-index improving
column enters and, among minimum-ratio ties, the row whose basic variable
has the lowest index leaves, so no basis repeats and the walk terminates on
degenerate vertices too.  Each pivot solves afresh with the basis columns
of the original A (the revised method of Dantzig and Orchard-Hays, Math.
Tables Aids Comput. 8, 64, 1954), so no roundoff is carried from pivot to
pivot and nothing needs rebuilding; a final residual check refuses to
report a corrupted vertex as optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A reduced cost must clear this to be considered an improving column.
ENTERING_TOL = 1e-11
# Column entries at or below this are treated as nonpositive by the ratio
# test; dividing by anything smaller amplifies the column's roundoff.
_RATIO_TOL = 1e-9

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


def resume_phase2(cost, a_eq, b_eq, basis) -> SimplexResult:
    """Minimise cost'x over A x = b, x >= 0 from a primal-feasible basis.

    The basis lists m column indices, for example the slack columns of a
    fresh LP or the basis of an earlier solve before columns were appended.
    A basis that is out of range, singular or gives a negative right-hand
    side is reported as infeasible without pivoting, so the caller can
    retry from another one; so is a basis that turns singular on the walk.
    An optimum carries the equality-constraint shadow prices and its final
    basis.
    """
    c = np.asarray(cost, dtype=np.float64).reshape(-1)
    a = np.asarray(a_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64).reshape(-1)
    m, n = a.shape
    basis = list(basis)
    if len(basis) != m or any(not 0 <= j < n for j in basis):
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, 0)
    max_iterations = 200 * (m + n + 10)
    iters = 0
    while True:
        bmat = a[:, basis]
        try:
            xb = np.linalg.solve(bmat, b)
            if iters == 0 and float(np.min(xb, initial=0.0)) < -1e-9:
                return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, 0)
            xb = np.maximum(xb, 0.0)
            pi = np.linalg.solve(bmat.T, c[basis])
            candidates = np.flatnonzero(c - a.T @ pi < -ENTERING_TOL)
            if candidates.size == 0:
                break
            j = int(candidates[0])  # Bland: lowest eligible index enters
            col = np.linalg.solve(bmat, a[:, j])
        except np.linalg.LinAlgError:
            return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, iters)
        rows = np.flatnonzero(col > _RATIO_TOL)
        if rows.size == 0:
            return SimplexResult(STATUS_UNBOUNDED, None, np.nan, None, iters)
        ratios = xb[rows] / col[rows]
        best = float(np.min(ratios))
        ties = rows[ratios <= best + 1e-9 * max(1.0, abs(best))]
        # Bland: the tied row with the lowest basic variable index leaves
        basis[int(ties[np.argmin(np.asarray(basis)[ties])])] = j
        iters += 1
        if iters >= max_iterations:
            return SimplexResult(STATUS_ITERATION_LIMIT, None, np.nan, None, iters)
    x = np.zeros(n)
    x[basis] = xb
    residual = float(np.max(np.abs(a @ x - b), initial=0.0))
    if residual > 1e-6 * max(1.0, float(np.max(np.abs(b), initial=0.0))):
        return SimplexResult(STATUS_INFEASIBLE, None, np.nan, None, iters)
    return SimplexResult(STATUS_OPTIMAL, x, float(c @ x), pi, iters, basis)
