"""Certified solvers for two families of operator programs.

Both programs minimise a linear objective subject to linear matrix
inequalities built from a list of constraint states:

* weights form:      min sum(c)  s.t.  sum_x c_x rho_x >= rho_x'  for all x'
* dominating form:   min tr(Y)   s.t.  Y >= rho_x'               for all x'

The weights form runs cutting planes: its inequalities are relaxed to cuts
v' (.) v >= v' rho_x' v, entered one eigenbasis at a time from one batched
product of quadratic forms, and seeded with the eigenbasis of every state,
whose distinct eigenvectors have their forms taken once; of the cuts
sharing a form row, only the one with the largest right-hand side is kept,
since it implies the others.  Each iteration solves the cut relaxation
through its LP dual, the first from a crash basis of each state's own
largest cut and the rest from the last basis; the multipliers, rescaled to
exact dual feasibility, give a certified lower bound.  It then scans every
LMI at the relaxation point once, lifts the point onto the feasible cone by
the worst eigenvalue of that scan (a certified upper bound), and cuts along
every eigenvector whose LMI eigenvalue lies below -1e-12, the lift's pad,
since the lift pays for any violation past it, however small.  The
dominating form is the dual of the optimal guessing game and needs no LP:
a measurement from the minimum-error fixed point, sped up by an
extrapolation step that is kept only when it pays more than the plain step,
gives one lower bound; a dominating operator built from it gives the upper
bound, and that operator rounded to a measurement gives another lower
bound.
Both stop once the relative gap between the bounds is at most GAP_TOL, and
both scan their LMIs through one certified stacked eigendecomposition,
`_lmi_spectra`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LpSolverError, ValidationError
from .linalg import (
    DensityOperator,
    HermitianOperator,
    _power_stack,
    _spectrum_power,
    eig_hermitian,
    eigh_stack,
)
from .simplex import STATUS_OPTIMAL, resume_phase2

FORM_WEIGHTS = "weights"
FORM_DOMINATING = "dominating"

STATUS_SOLVED = "optimal"
STATUS_ITERATION_CAP = "iteration_cap"

# Every solve stops once (value - lower_bound) / max(1, value) <= GAP_TOL.
GAP_TOL = 1e-6
# Roundoff allowed when checking a returned witness against its LMIs.
FEAS_TOL = 1e-9
# Cuts beyond the seeded eigenbasis pool past which the weights form stops
# as iteration_cap.
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

    @cached_property
    def mats(self) -> np.ndarray:
        """The constraint states as one (n, d, d) stack."""
        return np.stack([s.mat for s in self.states])

    @cached_property
    def _repair_rate(self) -> float:
        """mu, the least eigenvalue of the sum of the states above roundoff (1.0 if none).

        Adding eps to every weight adds eps * (sum of states), so mu bounds
        the rate at which that repairs an LMI; kernel directions are
        annihilated by every state, so no violation can live there.  Only
        eigenvalues at most 64 eps times the largest count as kernel: a
        small but real one, even below the support rule's SUPPORT_RTOL,
        carries violations that the lift must repair.
        """
        w = eig_hermitian(HermitianOperator(sum(s.mat for s in self.states))).eigenvalues
        on = w[w > 64.0 * np.finfo(np.float64).eps * w[-1]]
        return float(on[0]) if on.size else 1.0


def weights_program(states) -> LmiProgram:
    return LmiProgram(states=tuple(states), form=FORM_WEIGHTS)


def dominating_program(states) -> LmiProgram:
    return LmiProgram(states=tuple(states), form=FORM_DOMINATING)


@dataclass
class SdpSolution:
    """Certified solve result; value is the feasible upper bound."""

    value: float
    primal: object
    lower_bound: float
    status: str
    cut_count: int
    iterations: int
    lower_bound_trace: tuple[float, ...]

    @property
    def relative_gap(self) -> float:
        return (self.value - self.lower_bound) / max(1.0, self.value)


def _lmi_spectra(program: LmiProgram, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (n, d) and eigenvectors (n, d, d) of a - rho_x, in state order.

    One certified stacked decomposition scans every LMI at once.
    """
    return eigh_stack(a - program.mats)


class _CutPool:
    """Accumulated cuts with cached LP data for one weights program.

    A whole eigenbasis is cut at once: one batched product gives every
    column's quadratic forms against the states stack, and one rounding
    gives the bytes that key every column's cut.  The pool keeps one cut per
    distinct row, so states sharing an eigenbasis seed d cuts, not n d, and
    records each kept cut's owner, the state whose right-hand side it
    carries.
    """

    def __init__(self, program: LmiProgram):
        self.stack = program.mats
        self.rows: list[np.ndarray] = []
        self.rhs: list[float] = []
        self.owners: list[int] = []
        self._seen: dict[bytes, tuple[int, float]] = {}  # key -> (position, rounded rhs)
        self._warm: list[int] | None = None

    def forms(self, basis: np.ndarray) -> np.ndarray:
        """forms[k, x] = v_k' rho_x v_k for every column v_k of basis and every state."""
        return np.einsum("xkj,jk->kx", basis.conj().T @ self.stack, basis).real

    def add(self, basis: np.ndarray, idx: int) -> int:
        """Cut v'(.)v >= v' rho_idx v for every column v of the basis (see `keep`)."""
        return self.keep(self.forms(basis), idx)

    def keep(self, forms: np.ndarray, idx: int) -> int:
        """Enter the cuts of state idx whose rows are the rows of forms.

        Rows go in order.  A new row is appended; a known row is replaced
        in place, row, right-hand side and owner, by a cut whose rounded
        right-hand side is larger, and skipped otherwise.  Returns the cuts
        added or replaced.
        """
        # Row k of the rounded forms keys its cut; -0.0 and 0.0 stay distinct.
        rounded = np.round(forms, 9)
        keys = rounded.tobytes()
        width = forms.shape[1] * forms.itemsize
        added = 0
        for k, new in enumerate(rounded[:, idx].tolist()):
            key = keys[k * width : (k + 1) * width]
            at, top = self._seen.get(key, (len(self.rows), -math.inf))
            if new <= top:
                continue
            self._seen[key] = (at, new)
            row = forms[k]
            if at == len(self.rows):
                self.rows.append(row)
                self.rhs.append(float(row[idx]))
                self.owners.append(idx)
            else:
                self.rows[at], self.rhs[at], self.owners[at] = row, float(row[idx]), idx
            added += 1
        return added

    def __len__(self) -> int:
        return len(self.rows)

    def _crash(self) -> list[int]:
        """A starting basis that names a vertex: each state's kept cut with the largest rhs.

        A state that owns no cut keeps its slack column.  On the noisy basis
        states of the default tradeoff model this is the optimal vertex, so
        the LP makes no pivot.
        """
        m = len(self.stack)
        basis, top = list(range(m)), [-math.inf] * m
        for k, (x, r) in enumerate(zip(self.owners, self.rhs)):
            if r > top[x]:
                basis[x], top[x] = m + k, r
        return basis

    def solve_relaxation(self) -> tuple[float, np.ndarray]:
        """A certified lower bound from the LP dual, and the relaxation point.

        The LP solution lam gives PSD Z_x = sum of lam_k v_k v_k' over the cuts
        of state x, each kept cut belonging to the state whose right-hand side
        it carries, so h_k and row k of G come from one v_k.  Its value is h.lam
        and tr(rho_x sum_x' Z_x') = (G'lam)_x; over max_x (G'lam)_x it is dual
        feasible whatever the simplex roundoff.
        """
        g = np.stack(self.rows)
        h = np.asarray(self.rhs)
        # dual: max h.lam s.t. G'.lam <= 1, lam >= 0.  Slack columns come
        # first so their indices survive cut growth, and with b = 1 they
        # are a feasible basis.  A warm solve starts at the last basis and a
        # cold one at the crash basis (Bixby, ORSA J. Comput. 4, 267, 1992),
        # see `_crash`; a start that is refused or fails is retried once
        # from the slacks.
        m = len(self.stack)
        a_eq = np.hstack([np.eye(m), g.T])
        cost = np.concatenate([np.zeros(m), -h])
        b_eq = np.ones(m)
        slack = list(range(m))
        start = self._warm or self._crash()
        res = resume_phase2(cost, a_eq, b_eq, start)
        if res.status != STATUS_OPTIMAL and start != slack:
            res = resume_phase2(cost, a_eq, b_eq, slack)
        if res.status != STATUS_OPTIMAL:
            raise LpSolverError(f"cut relaxation LP returned {res.status}")
        self._warm = res.basis
        lam = res.x[m:]
        top = float(np.max(g.T @ lam))
        lower = float(h @ lam) / top if top > 0.0 else 0.0
        return lower, np.clip(-res.multipliers, 0.0, None)


def _seeded_pool(program: LmiProgram) -> _CutPool:
    """A pool holding the eigenbasis cuts of every state.

    Each distinct eigenvector column (equal bytes) has its forms taken once,
    in blocks of at most d columns, so no product outgrows the one that a
    single basis makes; every state's columns then go through
    `_CutPool.keep` in order, as `_CutPool.add` would enter them.
    """
    pool = _CutPool(program)
    d = program.dim
    bases = [eig_hermitian(s).eigenvectors for s in program.states]
    width = d * bases[0].itemsize
    # Entry x d + k of which is the distinct position of column k of state x.
    first: dict[bytes, int] = {}
    which = np.array([
        first.setdefault(raw[k * width : (k + 1) * width], len(first))
        for raw in (b.T.tobytes() for b in bases)
        for k in range(d)
    ])
    del first  # its keys go before the products, so the peak stays one basis product
    flat = np.unique(which, return_index=True)[1]  # each distinct column's first entry
    forms = np.concatenate([
        pool.forms(np.stack([bases[i // d][:, i % d] for i in flat[at : at + d]], axis=1))
        for at in range(0, len(flat), d)
    ])
    for idx, rows in enumerate(which.reshape(-1, d)):
        pool.keep(forms[rows], idx)
    return pool


# Safety pad applied when lifting a point onto the cone, covering
# eigensolver roundoff so the lifted point is feasible outright; it is
# also the cut threshold (see `solve`).
_LIFT_PAD = 1e-12


def _certify_point(program: LmiProgram, point, obj: float, worst: float):
    """Lift weights onto the cone so their total upper-bounds the optimum.

    `worst` is the least LMI eigenvalue at the point.  Adding
    (-worst + pad) / mu to every weight raises every LMI by at least
    -worst + pad on the support of the sum of the states, outside which
    every LMI vanishes, at a cost of count * (-worst + pad) / mu in objective.
    """
    if worst >= 0.0:
        return obj, point
    c = point + (-worst + _LIFT_PAD) / program._repair_rate
    return float(np.sum(c)), c


# Fixed-point steps after which the dominating form stops as iteration_cap.
_FIXED_POINT_CAP = 20_000


def _payoffs(rhos: np.ndarray, families: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guessing payoff of each PSD family (c, n, d, d), and the size it is divided by.

    A family M over its size max(1, lambda_max of sum_x M_x) is a
    sub-measurement, so sum_x tr(rho_x M_x) / size is a lower bound.
    """
    sizes = np.maximum(1.0, eigh_stack(families.sum(axis=1))[0][:, -1])
    return np.einsum("xij,cxji->c", rhos, families).real / sizes, sizes


def _solve_dominating(program: LmiProgram) -> SdpSolution:
    """Bracket min tr(Y) over Y >= rho_x between a measurement and an operator.

    The minimum-error fixed point (Jezek, Rehacek, Fiurasek, PRA 65, 060301,
    2002) maps M_x to T(M)_x = G^-1/2 rho_x M_x rho_x G^-1/2, G = sum_x rho_x
    M_x rho_x, from M_x = I/n.  Its tail is sublinear, so each pass also
    extrapolates E = T(M) + beta_k (T(M) - T(M_prev)), beta_k = (k-1)/(k+2),
    projects E onto the PSD cone, and continues from whichever of T(M) and
    PSD(E) pays more; k restarts at 1 when T(M) pays more or the payoff
    drops (adaptive restart, O'Donoghue and Candes, Found. Comput. Math. 15,
    715, 2015), and at k = 1 the step is T(M) itself.  The payoff of every
    iterate over its size (see `_payoffs`) is a lower bound.  The upper bound
    follows the Yuen-Kennedy-Lax conditions (IEEE TIT 21, 125, 1975): Y
    starts at the Hermitian part of sum_x rho_x M_x over the same size,
    takes in each state's excess (rho_x - Y)+ in turn, which is exact at
    once on commuting states, and a last shift by the worst LMI eigenvalue
    plus a pad makes it feasible outright.  By complementary slackness Y
    also rounds to a measurement: P_x projects onto the eigenvectors of
    Y - rho_x with eigenvalue at most 1e-6 tr Y, and M_x = G^-1/2 P_x G^-1/2
    with G = sum_x P_x on G's support; its payoff is a second lower bound.
    Each pass is one iteration of the returned solution.
    """
    n, d = program.count, program.dim
    rhos = program.mats
    povm = np.stack([np.eye(d, dtype=np.complex128) / n] * n)
    (payoff,), (size,) = _payoffs(rhos, povm[None])
    lower, upper, primal = payoff, math.inf, None
    prev, k = povm, 1
    trace: list[float] = []
    status = STATUS_ITERATION_CAP
    for iterations in range(1, _FIXED_POINT_CAP + 1):
        trace.append(lower)

        y = (rhos @ povm).sum(axis=0) / size
        y = (y + y.conj().T) / 2.0
        for rho in rhos:
            spec = eig_hermitian(y - rho)
            v = spec.eigenvectors
            y = y + (v * np.clip(-spec.eigenvalues, 0.0, None)) @ v.conj().T
        y = HermitianOperator(y).mat
        w, v = _lmi_spectra(program, y)
        worst = float(w[:, 0].min())
        if worst < 0.0:
            shift = -worst + _LIFT_PAD
            y, w = y + shift * np.eye(d), w + shift
        tr_y = float(np.trace(y).real)
        if tr_y < upper:
            upper, primal = tr_y, HermitianOperator(y)
        # Complementary slackness: M_x lives where Y - rho_x vanishes.
        proj = (v * (w <= 1e-6 * tr_y)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        root = _power_stack(*eigh_stack(proj.sum(axis=0)), -0.5)
        (rounded,), _ = _payoffs(rhos, (root @ proj @ root)[None])
        lower = max(lower, float(rounded))

        if (upper - lower) / max(1.0, upper) <= GAP_TOL:
            status = STATUS_SOLVED
            break
        root = _spectrum_power(eig_hermitian((rhos @ povm @ rhos).sum(axis=0)), -0.5).mat
        plain = root @ rhos @ povm @ rhos @ root
        plain = (plain + plain.conj().transpose(0, 2, 1)) / 2.0
        # E with its negative eigenvalues removed; beta_1 = 0 makes it T(M).
        e = plain + (k - 1) / (k + 2) * (plain - prev)
        w, v = eigh_stack(e)
        e = e - (v * np.minimum(w, 0.0)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        pays, sizes = _payoffs(rhos, np.stack([plain, e]))
        best = int(pays[1] >= pays[0])
        restart = (best == 0 and k > 1) or pays[best] < payoff
        k = 1 if restart else k + 1
        povm, payoff, size, prev = (plain, e)[best], float(pays[best]), float(sizes[best]), plain
        lower = max(lower, payoff)

    return SdpSolution(
        value=upper,
        primal=primal,
        lower_bound=lower,
        status=status,
        cut_count=0,
        iterations=iterations,
        lower_bound_trace=tuple(trace),
    )


def solve(program: LmiProgram) -> SdpSolution:
    """Bracket the optimum until the relative gap falls to GAP_TOL.

    The returned value is the certified upper bound and lower_bound a
    certified lower bound, so lower_bound <= optimum <= value always holds.
    In the weights form lower_bound is the last relaxation's dual object,
    rescaled to exact feasibility (see `_CutPool.solve_relaxation`).  Every
    relaxation point z whose total improves on the best is lifted onto the
    feasible cone by the least eigenvalue of the LMI scan that also yields
    its cuts (see `_certify_point`), so the upper bound never undercuts the
    optimum by a violated LMI or by eigensolver roundoff.  Every eigenvector
    of that scan with eigenvalue below -_LIFT_PAD becomes a cut, since the
    lift pays count * |w| / mu for it and mu is small on near-duplicate
    states; a coarser threshold would leave such violations uncut and the
    gap open.  A lower bound above the value by more than 1e-12 relative
    shows that one of the two is not certified, and raises LpSolverError.
    """
    if program.form == FORM_DOMINATING:
        return _solve_dominating(program)
    pool = _seeded_pool(program)
    seeded = len(pool)
    # Unit weights are feasible: the sum of the states dominates each one.
    best_obj, best_point = float(program.count), np.ones(program.count)
    lower = -math.inf
    trace: list[float] = []
    status = STATUS_ITERATION_CAP
    iterations = 0
    while True:
        iterations += 1
        try:
            lower, z = pool.solve_relaxation()
        except LpSolverError as ex:
            raise LpSolverError(
                f"{ex} at iteration {iterations} with {len(pool)} cuts; "
                f"last bracket [{lower:.9g}, {best_obj:.9g}]"
            ) from ex
        trace.append(lower)
        obj = float(np.sum(z))

        w, v = _lmi_spectra(program, np.einsum("x,xij->ij", z, program.mats))
        # Cut along the whole violated eigenspace, not just the most
        # negative direction; single cuts crawl on rank-deficient states.
        violated = [
            (idx, v[idx][:, w[idx] < -_LIFT_PAD])
            for idx in np.flatnonzero(w[:, 0] < -_LIFT_PAD).tolist()
        ]

        if 0.0 < obj < best_obj:
            cand_obj, cand_point = _certify_point(program, z, obj, float(w[:, 0].min()))
            if cand_obj < best_obj:
                best_obj, best_point = cand_obj, cand_point

        gap = (best_obj - lower) / max(1.0, best_obj)
        if gap <= GAP_TOL:
            status = STATUS_SOLVED
            break
        grown = len(pool) - seeded + sum(v.shape[1] for _, v in violated)
        if not violated or grown > _MAX_CUTS:
            status = STATUS_ITERATION_CAP
            break
        added = sum(pool.add(vecs, idx) for idx, vecs in violated)
        if added == 0:
            # Every violated direction is already cut; the relaxation
            # cannot move, so further iterations change nothing.
            status = STATUS_ITERATION_CAP
            break

    if (lower - best_obj) / max(1.0, best_obj) > 1e-12:
        raise LpSolverError(
            f"bracket crossed: lower bound {lower:.9g} above value {best_obj:.9g} "
            f"at iteration {iterations} with {len(pool)} cuts"
        )
    return SdpSolution(
        value=best_obj,
        primal=best_point,
        lower_bound=lower,
        status=status,
        cut_count=len(pool),
        iterations=iterations,
        lower_bound_trace=tuple(trace),
    )
