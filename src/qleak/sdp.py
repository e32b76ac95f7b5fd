"""Certified solvers for two families of operator programs.

Both programs minimise a linear objective subject to linear matrix
inequalities built from a list of constraint states:

* weights form:      min sum(c)  s.t.  sum_x c_x rho_x >= rho_x'  for all x'
* dominating form:   min tr(Y)   s.t.  Y >= rho_x'               for all x'

The weights form runs cutting planes: its inequalities are relaxed to cuts
v' (.) v >= v' rho_x' v, entered one eigenbasis at a time from one batched
product of quadratic forms, and seeded with the eigenbases of every state
and every pairwise difference.  Each iteration solves the cut relaxation
exactly through its LP dual (a certified lower bound), scales the
relaxation point by 2^D_max, the closed-form least factor that makes it
dominate every state (a certified upper bound), and cuts along every
violated eigenspace.  The dominating form is the dual of the
optimal guessing game and needs no LP: a measurement from the minimum-error
fixed point gives the lower bound, and an operator built from it gives the
upper bound.  Both stop when the relative gap between the bounds closes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergences import max_relative_entropies
from .errors import LpSolverError, ValidationError
from .linalg import (
    DensityOperator,
    HermitianOperator,
    Spectrum,
    _spectrum_power,
    eig_hermitian,
)
from .simplex import STATUS_OPTIMAL, resume_phase2

FORM_WEIGHTS = "weights"
FORM_DOMINATING = "dominating"

STATUS_SOLVED = "optimal"
STATUS_ITERATION_CAP = "iteration_cap"

DEFAULT_GAP_TOL = 1e-6
FEAS_TOL = 1e-9
# Pool size past which the weights form stops as iteration_cap.
_MAX_CUTS = 2000


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


def _point_matrix(program: LmiProgram, point) -> np.ndarray:
    """The operator side of every LMI at the given primal point."""
    if program.form == FORM_WEIGHTS:
        c = np.asarray(point, dtype=np.float64).reshape(-1)
        if c.size != program.count:
            raise ValidationError(f"expected {program.count} weights, got {c.size}")
        mats = np.stack([s.mat for s in program.states])
        return np.einsum("x,xij->ij", c, mats)
    return HermitianOperator(getattr(point, "mat", point)).mat


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


class _CutPool:
    """Accumulated cuts with cached LP data for one weights program."""

    def __init__(self, program: LmiProgram):
        self.stack = np.stack([s.mat for s in program.states])
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
            row = forms[k]
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
        # dual: max h.lam s.t. G'.lam <= 1, lam >= 0.  Slack columns come
        # first so their indices survive cut growth, and with b = 1 they
        # are a feasible basis: a cold solve starts there, and so does the
        # one retry of a warm start that fails.
        m = len(self.stack)
        a_eq = np.hstack([np.eye(m), g.T])
        cost = np.concatenate([np.zeros(m), -h])
        b_eq = np.ones(m)
        slack = list(range(m))
        res = resume_phase2(cost, a_eq, b_eq, self._warm or slack)
        if res.status != STATUS_OPTIMAL and self._warm is not None:
            res = resume_phase2(cost, a_eq, b_eq, slack)
        if res.status != STATUS_OPTIMAL:
            raise LpSolverError(f"cut relaxation LP returned {res.status}")
        self._warm = res.basis
        return -res.objective, np.clip(-res.multipliers, 0.0, None)


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


# Safety pad applied when lifting a point onto the cone, covering
# eigensolver roundoff so the lifted point is feasible outright.
_LIFT_PAD = 1e-12


def _certify_point(program: LmiProgram, point, obj: float):
    """Lift near-feasible weights onto the cone so obj upper-bounds the optimum.

    Relaxation points can violate the LMIs by up to FEAS_TOL, which would
    let the reported value undercut the true optimum; the lift closes that
    hole at a cost of at most count * (FEAS_TOL + pad) / mu in objective.
    """
    worst = _worst_eigenvalue(_lmi_spectra(program, _point_matrix(program, point)))
    if worst >= 0.0:
        return obj, point
    lift = -worst + _LIFT_PAD
    # Adding eps to every weight adds eps * (sum of states), whose smallest
    # support eigenvalue mu bounds the repair rate; kernel directions are
    # annihilated by every state, so no violation can live there.
    total = eig_hermitian(HermitianOperator(sum(s.mat for s in program.states)))
    ev = total.eigenvalues
    support = ev > 1e-9 * max(float(ev[-1]), 0.0)
    mu = float(ev[support][0]) if bool(np.any(support)) else 1.0
    c = np.asarray(point, dtype=np.float64) + lift / mu
    return float(np.sum(c)), c


# Fixed-point steps after which the dominating form stops as iteration_cap.
_FIXED_POINT_CAP = 20_000


def _solve_dominating(program: LmiProgram, gap_tol: float) -> SdpSolution:
    """Bracket min tr(Y) over Y >= rho_x between a measurement and an operator.

    The minimum-error fixed point (Jezek, Rehacek, Fiurasek, PRA 65, 060301,
    2002) moves M_x <- G^-1/2 rho_x M_x rho_x G^-1/2, G = sum_x rho_x M_x rho_x,
    from M_x = I/n.  Its payoff sum_x tr(rho_x M_x) over max(1, lambda_max of
    sum_x M_x) is the payoff of a sub-measurement, hence a lower bound.  The
    upper bound follows the Yuen-Kennedy-Lax conditions (IEEE TIT 21, 125,
    1975): Y starts at the Hermitian part of sum_x rho_x M_x, takes in each
    state's excess (rho_x - Y)+ in turn, which is exact at once on commuting
    states, and a last shift by the worst LMI eigenvalue plus a pad makes it
    feasible outright.  Each pass is one iteration of the returned solution.
    """
    n, d = program.count, program.dim
    rhos = np.stack([s.mat for s in program.states])
    povm = np.stack([np.eye(d, dtype=np.complex128) / n] * n)
    lower, upper, primal = -math.inf, math.inf, None
    trace: list[float] = []
    status = STATUS_ITERATION_CAP
    for iterations in range(1, _FIXED_POINT_CAP + 1):
        size = max(1.0, eig_hermitian(povm.sum(axis=0)).max)
        lower = max(lower, float(np.einsum("xij,xji->", rhos, povm).real) / size)
        trace.append(lower)

        y = (rhos @ povm).sum(axis=0)
        y = (y + y.conj().T) / 2.0
        for rho in rhos:
            spec = eig_hermitian(y - rho)
            v = spec.eigenvectors
            y = y + (v * np.clip(-spec.eigenvalues, 0.0, None)) @ v.conj().T
        y = HermitianOperator(y).mat
        worst = _worst_eigenvalue(_lmi_spectra(program, y))
        if worst < 0.0:
            y = y + (-worst + _LIFT_PAD) * np.eye(d)
        if np.trace(y).real < upper:
            upper, primal = float(np.trace(y).real), HermitianOperator(y)

        if (upper - lower) / max(1.0, upper) <= gap_tol:
            status = STATUS_SOLVED
            break
        root = _spectrum_power(eig_hermitian((rhos @ povm @ rhos).sum(axis=0)), -0.5).mat
        povm = root @ rhos @ povm @ rhos @ root
        povm = (povm + povm.conj().transpose(0, 2, 1)) / 2.0

    return SdpSolution(
        value=upper,
        primal=primal,
        lower_bound=lower,
        upper_bound=upper,
        status=status,
        cut_count=0,
        iterations=iterations,
        lower_bound_trace=tuple(trace),
    )


def solve(program: LmiProgram, gap_tol: float = DEFAULT_GAP_TOL) -> SdpSolution:
    """Bracket the optimum until the relative gap closes.

    The returned value is the certified upper bound and lower_bound a
    certified lower bound, so lower_bound <= optimum <= value always holds.
    In the weights form lower_bound is the last relaxation optimum.  A
    relaxation point z with A = sum_x z_x rho_x that violates an LMI is
    scaled by 2^max_x D_max(rho_x || A), the least t with t A >= rho_x for
    every x; the candidate is then lifted onto the feasible cone before
    acceptance, so the upper bound never undercuts the optimum by
    eigensolver roundoff.  A point whose A misses a state's support has an
    infinite D_max and yields no candidate.
    """
    if not (0.0 < gap_tol <= 1e-2):
        raise ValidationError(f"gap_tol {gap_tol!r} outside (0, 1e-2]")
    if program.form == FORM_DOMINATING:
        return _solve_dominating(program, gap_tol)
    pool = _seeded_pool(program)
    # Unit weights are feasible: the sum of the states dominates each one.
    best_obj, best_point = float(program.count), np.ones(program.count)
    lower = -math.inf
    trace: list[float] = []
    status = STATUS_ITERATION_CAP
    iterations = 0
    while True:
        iterations += 1
        lower, z = pool.solve_relaxation()
        trace.append(lower)
        a = _point_matrix(program, z)
        obj = float(np.sum(z))

        spectra = _lmi_spectra(program, a)
        # Cut along the whole violated eigenspace, not just the most
        # negative direction; single cuts crawl on rank-deficient states.
        violated = [
            (idx, spec.eigenvectors[:, spec.eigenvalues < -FEAS_TOL])
            for idx, spec in enumerate(spectra)
            if spec.min < -FEAS_TOL
        ]

        if 0.0 < obj < best_obj:
            # A point within FEAS_TOL of feasible keeps scale 1: the lift in
            # _certify_point repairs it more cheaply than a rounded 2^D_max.
            scale = 2.0 ** max(max_relative_entropies(program.states, a)) if violated else 1.0
            if scale * obj < best_obj:
                cand_obj, cand_point = _certify_point(program, z * scale, scale * obj)
                if cand_obj < best_obj:
                    best_obj, best_point = cand_obj, cand_point

        gap = (best_obj - lower) / max(1.0, best_obj)
        if gap <= gap_tol:
            status = STATUS_SOLVED
            break
        if not violated or len(pool) + sum(v.shape[1] for _, v in violated) > _MAX_CUTS:
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
