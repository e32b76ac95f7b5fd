"""Certified cutting-plane solver for two families of operator programs.

Both programs minimise a linear objective subject to linear matrix
inequalities built from a list of constraint states:

* weights form:      min sum(c)  s.t.  sum_x c_x rho_x >= rho_x'  for all x'
* dominating form:   min tr(Y)   s.t.  Y >= rho_x'               for all x'

The matrix inequalities are relaxed to linear cuts v' (.) v >= v' rho_x' v.
Cuts enter the pool one eigenbasis at a time: a single batched product gives
the quadratic forms v' rho_x v of every column against every state, which
are the weights-form rows and the right-hand sides.  The pool is seeded with
the eigenbases of every state and of every pairwise difference.  Each outer
iteration solves the cut relaxation exactly (through its LP dual, which
keeps the tableau short), eigendecomposes every inequality at the
relaxation point, and cuts along each violated eigenspace.  The relaxation
value is a certified lower bound; inflating the relaxation point until it
is feasible gives a certified upper bound, and the solver stops when the
relative gap between the two closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LpSolverError, ValidationError
from .linalg import DensityOperator, HermitianOperator, Spectrum, eig_hermitian
from .simplex import STATUS_OPTIMAL, resume_phase2, solve_standard_form

FORM_WEIGHTS = "weights"
FORM_DOMINATING = "dominating"

STATUS_SOLVED = "optimal"
STATUS_ITERATION_CAP = "iteration_cap"
STATUS_INFEASIBLE = "infeasible"

DEFAULT_GAP_TOL = 1e-6
DEFAULT_MAX_CUTS = 2000
FEAS_TOL = 1e-9
_BISECT_STEPS = 40


@dataclass(frozen=True)
class LmiProgram:
    """Constraint states plus the objective form."""

    states: tuple[DensityOperator, ...]
    form: str

    def __post_init__(self) -> None:
        if self.form not in (FORM_WEIGHTS, FORM_DOMINATING):
            raise ValidationError(f"unknown program form {self.form!r}")
        if not self.states:
            raise ValidationError("a program needs at least one constraint state")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValidationError(f"constraint states mix dimensions {sorted(dims)}")
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def count(self) -> int:
        return len(self.states)


def weights_program(states) -> LmiProgram:
    return LmiProgram(states=tuple(states), form=FORM_WEIGHTS)


def dominating_program(states) -> LmiProgram:
    return LmiProgram(states=tuple(states), form=FORM_DOMINATING)


@dataclass
class SdpSolution:
    """Certified solve result; value equals the feasible upper bound."""

    value: float
    primal: object
    lower_bound: float
    upper_bound: float
    status: str
    cut_count: int
    iterations: int
    lower_bound_trace: tuple[float, ...]

    @property
    def relative_gap(self) -> float:
        return (self.upper_bound - self.lower_bound) / max(1.0, self.upper_bound)


def _coord_count(d: int) -> int:
    return d * d


def _cut_row_dominating(v: np.ndarray, d: int) -> np.ndarray:
    """Coordinates of the quadratic form v' Y v over the real Y parameters.

    Layout: d diagonal entries, then (re, im) pairs for each i < j.
    """
    row = np.empty(_coord_count(d))
    row[:d] = np.abs(v) ** 2
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            z = np.conj(v[i]) * v[j]
            row[k] = 2.0 * z.real
            row[k + 1] = -2.0 * z.imag
            k += 2
    return row


def matrix_from_coords(y: np.ndarray, d: int) -> HermitianOperator:
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[np.diag_indices(d)] = y[:d]
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            mat[i, j] = y[k] + 1j * y[k + 1]
            mat[j, i] = y[k] - 1j * y[k + 1]
            k += 2
    return HermitianOperator(mat)


def _point_matrix(program: LmiProgram, point) -> np.ndarray:
    """The operator side of every LMI at the given primal point."""
    if program.form == FORM_WEIGHTS:
        c = np.asarray(point, dtype=np.float64).reshape(-1)
        if c.size != program.count:
            raise ValidationError(f"expected {program.count} weights, got {c.size}")
        mats = np.stack([s.mat for s in program.states])
        return np.einsum("x,xij->ij", c, mats)
    if isinstance(point, HermitianOperator):
        return point.mat
    if isinstance(point, DensityOperator):
        return point.mat
    return HermitianOperator(np.asarray(point, dtype=np.complex128)).mat


def _lmi_spectra(program: LmiProgram, a: np.ndarray) -> list[Spectrum]:
    """Spectrum of a - rho_x for every constraint state, in state order."""
    return [eig_hermitian(HermitianOperator(a - s.mat)) for s in program.states]


def _worst_eigenvalue(spectra: list[Spectrum]) -> float:
    """Most negative LMI eigenvalue, or 0 when every LMI holds."""
    return min(0.0, *(spec.min for spec in spectra))


def violation_certificate(program: LmiProgram, point):
    """Worst LMI at a primal point: (state index, min eigenvalue, eigenvector).

    A min eigenvalue at or above -FEAS_TOL certifies feasibility.
    """
    spectra = _lmi_spectra(program, _point_matrix(program, point))
    idx = min(range(len(spectra)), key=lambda i: spectra[i].min)
    return idx, spectra[idx].min, spectra[idx].eigenvectors[:, 0].copy()


def _is_feasible_shift(a: np.ndarray, states, scale: float) -> bool:
    """True if scale * a dominates every state within FEAS_TOL."""
    d = a.shape[0]
    shift = FEAS_TOL * np.eye(d)
    for state in states:
        m = scale * a - state.mat + shift
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            return False
    return True


class _CutPool:
    """Accumulated cuts with cached LP data for one program."""

    def __init__(self, program: LmiProgram):
        self.program = program
        self.stack = np.stack([s.mat for s in program.states])
        d = program.dim
        if program.form == FORM_WEIGHTS:
            self.nvars = program.count
            self.objective = np.ones(self.nvars)
        else:
            self.nvars = _coord_count(d)
            self.objective = np.concatenate([np.ones(d), np.zeros(self.nvars - d)])
        self.rows: list[np.ndarray] = []
        self.rhs: list[float] = []
        self._seen: set[tuple[int, bytes]] = set()
        self._warm: list[int] | None = None

    def add(self, basis: np.ndarray, owners: tuple[int, ...]) -> int:
        """Cut v'(.)v >= v' rho_x v for every column v and every listed x.

        Columns go in order, each cut for the listed states in turn;
        duplicates are skipped.  Returns the number of cuts added.
        """
        # forms[k, x] = v_k' rho_x v_k for every column and every state,
        # shaped as row-vector products so that each form rounds exactly
        # like np.conj(v) @ rho @ v and the LP sees the same cuts.
        left = basis.conj().T[:, None, None, :] @ self.stack
        forms = (left @ basis.T[:, None, :, None])[:, :, 0, 0].real
        added = 0
        for k in range(basis.shape[1]):
            if self.program.form == FORM_WEIGHTS:
                row = forms[k]
            else:
                row = _cut_row_dominating(basis[:, k], self.program.dim)
            rounded = np.round(row, 9).tobytes()
            for idx in owners:
                key = (idx, rounded)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self.rows.append(row)
                self.rhs.append(float(forms[k, idx]))
                added += 1
        return added

    def __len__(self) -> int:
        return len(self.rows)

    def solve_relaxation(self) -> tuple[float, np.ndarray]:
        """Exact optimum of the current cut relaxation via the LP dual."""
        g = np.stack(self.rows)
        h = np.asarray(self.rhs)
        if self.program.form == FORM_WEIGHTS:
            # dual: max h.lam s.t. G'.lam <= 1, lam >= 0.  Slack columns
            # come first so their indices survive cut growth.
            m = self.nvars
            a_eq = np.hstack([np.eye(m), g.T])
            cost = np.concatenate([np.zeros(m), -h])
            b_eq = np.ones(m)
        else:
            # dual: max h.lam s.t. G'.lam = objective, lam >= 0
            a_eq = g.T
            cost = -h
            b_eq = self.objective
        res = None
        if self._warm is not None:
            res = resume_phase2(cost, a_eq, b_eq, self._warm)
        if res is None or res.status != STATUS_OPTIMAL:
            res = solve_standard_form(cost, a_eq, b_eq)
            if res.status != STATUS_OPTIMAL:
                raise LpSolverError(f"cut relaxation LP returned {res.status}")
        self._warm = res.basis
        point = -res.multipliers
        if self.program.form == FORM_WEIGHTS:
            return -res.objective, np.clip(point, 0.0, None)
        return -res.objective, matrix_from_coords(point, self.program.dim)


def _seeded_pool(program: LmiProgram) -> _CutPool:
    """A pool holding the eigenbasis cuts of every state and every difference."""
    pool = _CutPool(program)
    for idx, state in enumerate(program.states):
        pool.add(eig_hermitian(state).eigenvectors, (idx,))
    # Eigenbases of pairwise differences carry the directions where one
    # state dominates another; on two-state programs they make the first
    # relaxation exact, and they sharply cut the iteration count otherwise.
    for i in range(program.count):
        for j in range(i + 1, program.count):
            delta = program.states[i].mat - program.states[j].mat
            pool.add(eig_hermitian(HermitianOperator(delta)).eigenvectors, (i, j))
    return pool


def _initial_feasible(program: LmiProgram) -> tuple[float, object]:
    """A cheap feasible point: sums of states always dominate each state."""
    if program.form == FORM_WEIGHTS:
        c = np.ones(program.count)
        return float(program.count), c
    total = HermitianOperator(sum(s.mat for s in program.states))
    candidates = [(total.trace(), total)]
    top = max(eig_hermitian(s).max for s in program.states)
    scaled = HermitianOperator(top * np.eye(program.dim))
    candidates.append((scaled.trace(), scaled))
    return min(candidates, key=lambda t: t[0])


def _scale_point(program: LmiProgram, point, factor: float):
    if program.form == FORM_WEIGHTS:
        return np.asarray(point) * factor
    return HermitianOperator(_point_matrix(program, point) * factor)


# Safety pad applied when lifting a point onto the cone, covering
# eigensolver roundoff so the lifted point is feasible outright.
_LIFT_PAD = 1e-12


def _certify_point(program: LmiProgram, point, obj: float):
    """Lift a near-feasible point onto the cone so obj upper-bounds the optimum.

    Relaxation points can violate the LMIs by up to FEAS_TOL, which would
    let the reported value undercut the true optimum; the lift closes that
    hole at a cost of at most count * (FEAS_TOL + pad) / mu in objective.
    """
    a = _point_matrix(program, point)
    worst = _worst_eigenvalue(_lmi_spectra(program, a))
    if worst >= 0.0:
        return obj, point
    lift = -worst + _LIFT_PAD
    if program.form == FORM_DOMINATING:
        lifted = HermitianOperator(a + lift * np.eye(program.dim))
        return obj + program.dim * lift, lifted
    # Adding eps to every weight adds eps * (sum of states), whose smallest
    # support eigenvalue mu bounds the repair rate; kernel directions are
    # annihilated by every state, so no violation can live there.
    total = eig_hermitian(HermitianOperator(sum(s.mat for s in program.states)))
    ev = total.eigenvalues
    support = ev > 1e-9 * max(float(ev[-1]), 0.0)
    mu = float(ev[support][0]) if bool(np.any(support)) else 1.0
    c = np.asarray(point, dtype=np.float64) + lift / mu
    return float(np.sum(c)), c


def solve(
    program: LmiProgram,
    gap_tol: float = DEFAULT_GAP_TOL,
    max_cuts: int = DEFAULT_MAX_CUTS,
) -> SdpSolution:
    """Run the cutting-plane loop until the relative gap closes.

    The returned value is the certified upper bound; lower_bound is the last
    relaxation optimum, so lower_bound <= optimum <= value always holds.
    Candidate points are lifted onto the feasible cone before acceptance,
    so the upper bound never undercuts the optimum by relaxation slack.
    """
    if not (0.0 < gap_tol <= 1e-2):
        raise ValidationError(f"gap_tol {gap_tol!r} outside (0, 1e-2]")
    pool = _seeded_pool(program)
    best_obj, best_point = _initial_feasible(program)
    lower = -math.inf
    trace: list[float] = []
    status = STATUS_ITERATION_CAP
    iterations = 0
    while True:
        iterations += 1
        lower, z = pool.solve_relaxation()
        trace.append(lower)
        a = _point_matrix(program, z)
        if program.form == FORM_WEIGHTS:
            obj = float(np.sum(np.asarray(z)))
        else:
            obj = float(np.trace(a).real)

        spectra = _lmi_spectra(program, a)
        worst = _worst_eigenvalue(spectra)
        # Cut along the whole violated eigenspace, not just the most
        # negative direction; single cuts crawl on rank-deficient states.
        violated = [
            (idx, spec.eigenvectors[:, spec.eigenvalues < -FEAS_TOL])
            for idx, spec in enumerate(spectra)
            if spec.min < -FEAS_TOL
        ]

        if not violated:
            if obj < best_obj:
                cand_obj, cand_point = _certify_point(
                    program, _scale_point(program, z, 1.0), obj
                )
                if cand_obj < best_obj:
                    best_obj, best_point = cand_obj, cand_point
        elif program.form == FORM_DOMINATING:
            # a + delta I dominates every state outright; cheaper and often
            # tighter than scaling the whole point.
            delta = -worst
            candidate = obj + program.dim * delta
            if candidate < best_obj:
                cand_obj, cand_point = _certify_point(
                    program,
                    HermitianOperator(a + delta * np.eye(program.dim)),
                    candidate,
                )
                if cand_obj < best_obj:
                    best_obj, best_point = cand_obj, cand_point
        if violated and obj > 0.0 and _is_feasible_shift(a, program.states, 2.0):
            # Smallest inflation (1 + s), s <= 1, restoring feasibility.
            lo, hi = 0.0, 1.0
            for _ in range(_BISECT_STEPS):
                if hi - lo <= 1e-14:
                    break
                mid = 0.5 * (lo + hi)
                if _is_feasible_shift(a, program.states, 1.0 + mid):
                    hi = mid
                else:
                    lo = mid
            candidate = (1.0 + hi) * obj
            if candidate < best_obj:
                cand_obj, cand_point = _certify_point(
                    program, _scale_point(program, z, 1.0 + hi), candidate
                )
                if cand_obj < best_obj:
                    best_obj, best_point = cand_obj, cand_point

        gap = (best_obj - lower) / max(1.0, best_obj)
        if gap <= gap_tol:
            status = STATUS_SOLVED
            break
        if not violated or len(pool) + sum(v.shape[1] for _, v in violated) > max_cuts:
            status = STATUS_ITERATION_CAP
            break
        added = sum(pool.add(vecs, (idx,)) for idx, vecs in violated)
        if added == 0:
            # Every violated direction is already cut; the relaxation
            # cannot move, so further iterations change nothing.
            status = STATUS_ITERATION_CAP
            break

    return SdpSolution(
        value=best_obj,
        primal=best_point,
        lower_bound=lower,
        upper_bound=best_obj,
        status=status,
        cut_count=len(pool),
        iterations=iterations,
        lower_bound_trace=tuple(trace),
    )
