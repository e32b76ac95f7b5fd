"""Information-leakage measures for ensembles of quantum states.

An ensemble pairs a strictly positive prior over a classical alphabet with
one density operator per symbol.  Three leakage measures are computed:

* maximal leakage Q: log2 of the optimal guessing-game payoff over all
  measurements, evaluated through the dominating-operator program; the
  same program gives the order-infinity sandwiched mutual information, so
  that quantity is Q itself;
* barycentric leakage B: log2 of the smallest total weight of a state
  mixture that dominates every ensemble member (the weights program);
* pairwise leakage R: the largest order-infinity sandwiched divergence
  between any two ensemble members, possibly infinite.

Q <= B <= R holds up to solver gaps, and the chain report checks it
together with the accessible-information and Holevo inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .divergences import ProbVector, max_relative_entropy_pairs
from .errors import ChainViolationError, DimensionMismatch, ValidationError
from .linalg import (
    DensityOperator,
    HermitianOperator,
    _checked_stack,
    operator_power,
    random_unitary,
    von_neumann_entropy,
)
from .sdp import SdpSolution, dominating_program, solve, weights_program

KIND_MAXIMAL = "maximal"
KIND_BARYCENTRIC = "barycentric"
KIND_PAIRWISE = "pairwise"

POVM_COMPLETENESS_ATOL = 1e-9
_CHAIN_SLACK = 1e-6


@dataclass(frozen=True)
class Ensemble:
    """A prior over symbols together with one quantum state per symbol."""

    prior: ProbVector
    states: tuple[DensityOperator, ...]

    def __post_init__(self):
        states = tuple(self.states)
        object.__setattr__(self, "states", states)
        if len(states) == 0:
            raise ValidationError("ensemble needs at least one state")
        if len(states) != len(self.prior):
            raise ValidationError(
                f"prior has {len(self.prior)} entries for {len(states)} states"
            )
        dim = states[0].dim
        for s in states[1:]:
            if s.dim != dim:
                raise DimensionMismatch(
                    f"states of dimension {dim} and {s.dim} in one ensemble"
                )
        if float(np.min(self.prior.probs)) <= 0.0:
            raise ValidationError("ensemble prior must be strictly positive")

    @property
    def dim(self) -> int:
        return self.states[0].dim

    @property
    def count(self) -> int:
        return len(self.states)

    @classmethod
    def uniform(cls, states) -> "Ensemble":
        states = tuple(states)
        prior = ProbVector(np.full(len(states), 1.0 / len(states)))
        return cls(prior, states)

    def average(self) -> DensityOperator:
        """The prior-weighted barycenter sum_x p(x) rho_x."""
        mat = sum(p * s.mat for p, s in zip(self.prior.probs, self.states))
        return DensityOperator.from_matrix(mat)


def _check_resolves_identity(mats: np.ndarray) -> None:
    """Raise unless the stack (count, d, d) sums to the identity within POVM_COMPLETENESS_ATOL."""
    if float(np.max(np.abs(mats.sum(axis=0) - np.eye(mats.shape[-1])))) > POVM_COMPLETENESS_ATOL:
        raise ValidationError("POVM elements do not resolve the identity")


@dataclass(frozen=True)
class Povm:
    """A measurement: positive elements summing to the identity.

    The elements are checked PSD as one stack, and each keeps its slice of
    the one certified decomposition unless it already holds a spectrum.
    """

    elements: tuple[HermitianOperator, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        if len(elements) == 0:
            raise ValidationError("POVM needs at least one element")
        dim = elements[0].dim
        if any(f.dim != dim for f in elements):
            raise DimensionMismatch("POVM elements of mixed dimension")
        _, w, v = _checked_stack(self.mats, "POVM element", False)
        for f, wi, vi in zip(elements, w, v):
            f._keep(wi, vi)
        _check_resolves_identity(self.mats)

    @staticmethod
    def stack(mats) -> "Povm":
        """A POVM on the matrices of a stack (count, d, d), validated and decomposed together.

        The stack passes the checks of `Povm(...)` in one `_checked_stack`
        call, and each element keeps its slice of the certified
        decomposition; a failure raises what `Povm(...)` raises on the same
        matrices.
        """
        a = np.asarray(mats, dtype=np.complex128)
        if not len(a):
            raise ValidationError("POVM needs at least one element")
        sym, w, v = _checked_stack(a, "POVM element", False)
        _check_resolves_identity(sym)
        povm = object.__new__(Povm)
        object.__setattr__(povm, "elements", tuple(map(HermitianOperator._kept, sym, w, v)))
        povm.__dict__["mats"] = sym
        return povm

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def count(self) -> int:
        return len(self.elements)

    @cached_property
    def mats(self) -> np.ndarray:
        """The elements as one (count, d, d) stack."""
        return np.stack([f.mat for f in self.elements])


@dataclass(frozen=True)
class LeakageCertificate:
    """A leakage value in bits with its witness and certification gap.

    The witness depends on the kind: barycenter weights for the weights
    program, a dominating operator for the guessing-game value, and the
    arg-max pair of symbols for the pairwise measure.  `iterations` and
    `cut_count` are the solver's counts; the pairwise measure runs no
    solver and reports 0 for both.
    """

    value: float
    kind: str
    witness: object
    gap: float
    status: str
    iterations: int = 0
    cut_count: int = 0

    def __post_init__(self):
        if not self.value >= -1e-9:
            raise ValidationError(f"leakage certificate value {self.value} < 0")
        if not self.gap >= 0.0:
            raise ValidationError(f"certificate gap {self.gap} is negative")


def _ordered_pairs(n: int) -> list[tuple[int, int]]:
    """Every ordered pair (i, j) of distinct indices below n, in row-major order."""
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def pairwise_leakage(e: Ensemble) -> LeakageCertificate:
    """Largest order-infinity sandwiched divergence over ordered pairs.

    Infinite exactly when some state's support escapes another's; the
    witness names the first offending pair in (i, j) order, or else the
    first maximising one.  The prior plays no role.
    """
    pairs = _ordered_pairs(e.count)
    best = 0.0
    witness = pairs[0] if pairs else (0, 0)
    for pair, div in zip(pairs, max_relative_entropy_pairs(e.states, pairs)):
        if div > best:
            best, witness = div, pair
        if math.isinf(best):
            break
    return LeakageCertificate(max(best, 0.0), KIND_PAIRWISE, witness, 0.0, "optimal")


def _solver_certificate(sol: SdpSolution, kind: str, witness) -> LeakageCertificate:
    """log2 of a solve's value, with its bracket as a gap in bits and its counts."""
    lower = max(float(sol.lower_bound), 1e-300)
    gap = max(0.0, math.log2(float(sol.value)) - math.log2(lower))
    value = max(math.log2(max(float(sol.value), 1e-300)), 0.0)
    return LeakageCertificate(value, kind, witness, gap, sol.status, sol.iterations, sol.cut_count)


def barycentric_leakage(e: Ensemble) -> LeakageCertificate:
    """log2 of the least total weight of a mixture dominating every state.

    The witness is the optimal barycenter prior.  On an iteration cap the
    partial bracket is reported through the gap instead of raising.
    """
    sol = solve(weights_program(list(e.states)))
    weights = np.clip(np.asarray(sol.primal, dtype=np.float64), 0.0, None)
    total = float(np.sum(weights))
    witness = weights / total if total > 0.0 else weights
    return _solver_certificate(sol, KIND_BARYCENTRIC, witness)


def max_leakage(e: Ensemble) -> LeakageCertificate:
    """Maximal leakage: log2 of the optimal guessing-game payoff.

    The supremum over measurements of the guessing payoff equals the
    minimal trace of an operator dominating every state (the programs
    are dual with a strictly feasible interior); the dominating program
    brackets it between a measurement's payoff and the trace of a
    dominating operator, which is the witness.  The order-infinity
    sandwiched mutual information of the CQ state is the same program's
    value, so this certificate is that quantity too.
    """
    sol = solve(dominating_program(list(e.states)))
    return _solver_certificate(sol, KIND_MAXIMAL, sol.primal)


def povm_leakage(e: Ensemble, m: Povm) -> float:
    """log2 sum_y max_x tr(rho_x F_y): the leakage of one fixed measurement."""
    if m.dim != e.dim:
        raise DimensionMismatch(
            f"POVM dimension {m.dim} does not match ensemble dimension {e.dim}"
        )
    total = 0.0
    for f in m.elements:
        total += max(float(np.einsum("ij,ji->", s.mat, f.mat).real) for s in e.states)
    return math.log2(max(total, 1e-300))


def square_root_measurement(e: Ensemble) -> Povm:
    """The square-root measurement S^-1/2 rho_x S^-1/2 with S = sum rho_x.

    When S is singular the elements only resolve the identity on its
    support; the remainder becomes an explicit null outcome.
    """
    s = HermitianOperator(sum(st.mat for st in e.states))
    root = operator_power(s, -0.5)
    # A near-singular S inflates each product's roundoff past the Hermitian
    # input check, so the products are symmetrised, not checked.
    products = [root.mat @ st.mat @ root.mat for st in e.states]
    elements = [HermitianOperator((m + m.conj().T) / 2.0) for m in products]
    resolved = sum(el.mat for el in elements)
    leftover = np.eye(e.dim) - resolved
    if float(np.max(np.abs(leftover))) > POVM_COMPLETENESS_ATOL:
        elements.append(HermitianOperator(leftover))
    return Povm(tuple(elements))


def holevo_information(e: Ensemble) -> float:
    """Holevo information: H(average) - sum_x p(x) H(rho_x), in bits."""
    chi = von_neumann_entropy(e.average())
    for p, s in zip(e.prior.probs, e.states):
        chi -= float(p) * von_neumann_entropy(s)
    return max(chi, 0.0)


def _measurement_kernel(rhos: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Outcome distribution rows P(y|x) = u_y' rho_x u_y for frame columns."""
    return np.clip(np.einsum("iy,xij,jy->xy", np.conj(frame), rhos, frame).real, 0.0, None)


def _mutual_information_bits(prior: np.ndarray, kernel: np.ndarray) -> float:
    joint = prior[:, None] * kernel
    py = np.sum(joint, axis=0)
    mask = joint > 1e-18
    denom = (prior[:, None] * py[None, :])[mask]
    return float(np.sum(joint[mask] * np.log2(joint[mask] / denom)))


def _pair_scorer(e: Ensemble, rhos: np.ndarray, frame: np.ndarray, k: int, l: int):
    """The frame's score, and its scores with columns k, l rotated by each (theta, phi)."""
    prior, kernel = e.prior.probs, _measurement_kernel(rhos, frame)
    # With a = [u_k u_l]' rho_x [u_k u_l], column k becomes c^2 a_kk + s^2 a_ll
    # + 2cs Re(e^{i phi} a_kl) and column l s^2 a_kk + c^2 a_ll - 2cs Re(...).
    a = np.conj(frame[:, [k, l]].T) @ rhos @ frame[:, [k, l]]
    kk, ll, z = a[:, 0, 0].real, a[:, 1, 1].real, a[:, 0, 1]
    rows = prior * np.array(((kk, ll, z.real, -z.imag), (ll, kk, -z.real, z.imag)))
    rest = _mutual_information_bits(prior, np.delete(kernel, (k, l), axis=1))

    def scores(angles: np.ndarray) -> np.ndarray:
        c, s, p = np.cos(angles[:, 0]), np.sin(angles[:, 0]), angles[:, 1]
        cs = 2.0 * c * s
        coef = np.array((c * c, s * s, cs * np.cos(p), cs * np.sin(p))).T
        joint = np.maximum(coef @ rows, 0.0)  # the one-frame score's clip and 1e-18 mask
        py = prior * joint.sum(axis=2, keepdims=True)
        ratio = np.divide(joint, py, out=np.ones_like(joint), where=joint > 1e-18)
        return rest + (joint * np.log2(ratio)).sum(axis=(0, 2))

    return _mutual_information_bits(prior, kernel), scores


def accessible_information_lower(
    e: Ensemble, restarts: int = 32, seed: int = 0
) -> tuple[float, Povm]:
    """Best mutual information found over rank-1 measurements.

    Frames start from the computational basis and `restarts` random
    unitaries (0 keeps the computational basis only), then climb by
    rotating column pairs through a coarse angle grid with local
    refinement, batch-scored from the states' 2x2 blocks on each pair.
    The value is the returned POVM's own score, so it is always a valid
    lower bound; optimality is never claimed.
    """
    if restarts < 0:
        raise ValidationError(f"restarts must be >= 0, got {restarts}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    prior = e.prior.probs
    d = e.dim
    rhos = np.array([s.mat for s in e.states])

    def score(frame: np.ndarray) -> float:
        return _mutual_information_bits(prior, _measurement_kernel(rhos, frame))

    def rotate(frame: np.ndarray, k: int, l: int, theta: float, phi: float) -> np.ndarray:
        out = frame.copy()
        ck, cl = frame[:, k], frame[:, l]
        c, s = math.cos(theta), math.sin(theta)
        ph = complex(math.cos(phi), math.sin(phi))
        out[:, k] = c * ck + s * ph * cl
        out[:, l] = -s * np.conj(ph) * ck + c * cl
        return out

    thetas = np.linspace(0.0, math.pi / 2.0, 9)
    phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    grid = np.array([(th, ph) for th in thetas for ph in phis])
    # Refinement: 3x3 stencils for 20 halvings of the grid step, less the centre (scores top).
    stencil = np.array([(a * thetas[1] * 0.5**h, b * phis[1] * 0.5**h) for h in range(1, 21)
                        for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b])

    def ascend(frame: np.ndarray) -> tuple[float, np.ndarray]:
        def beats(v: float, top: float, tol: float, point, ref) -> bool:
            # Batched scores may differ from score() in the last bits, so near
            # ties are settled by score(): the accept order is the exact one.
            if abs(v - top - tol) > band:
                return v > top + tol
            base = best if ref is None else score(rotate(frame, k, l, *ref))
            return score(rotate(frame, k, l, *point)) > base + tol

        for _ in range(60):
            improved = False
            for k in range(d):
                for l in range(k + 1, d):
                    best, batch = _pair_scorer(e, rhos, frame, k, l)
                    band = 1e-14 * (1.0 + best)  # ~10x the largest batch rounding seen
                    top, arg, vals = best, None, batch(grid)
                    for i in np.flatnonzero(vals >= best + 1e-12 - band):
                        if beats(float(vals[i]), top, 1e-12, grid[i], arg):
                            top, arg = float(vals[i]), grid[i]
                    if arg is None:
                        continue
                    pos = 0
                    while pos < len(stencil):
                        # Offsets after an acceptance move with the centre: 24 at a time.
                        points = arg + stencil[pos : pos + 24]
                        vals = batch(points)
                        pos += len(points)
                        for j in np.flatnonzero(vals >= top + 1e-14 - band):
                            if beats(float(vals[j]), top, 1e-14, points[j], arg):
                                top, arg = float(vals[j]), points[j]
                                pos += j + 1 - len(points)
                                break
                    frame = rotate(frame, k, l, *arg)
                    improved = True
            if not improved:
                break
        return score(frame), frame

    rng = np.random.default_rng(seed)
    starts = [np.eye(d, dtype=np.complex128)]
    for _ in range(int(restarts)):
        starts.append(random_unitary(d, seed=int(rng.integers(0, 2**63 - 1))))
    best_val, best_frame = -1.0, starts[0]
    for u in starts:
        val, frame = ascend(u)
        if val > best_val + 1e-12:
            best_val, best_frame = val, frame
    elements = tuple(
        HermitianOperator(np.outer(best_frame[:, y], np.conj(best_frame[:, y])))
        for y in range(d)
    )
    return max(best_val, 0.0), Povm(elements)


@dataclass(frozen=True)
class ChainReport:
    """All leakage quantities of one ensemble plus the verified ordering.

    checks maps each inequality label to its slack (right side minus left
    side plus allowed tolerance); every slack is nonnegative, otherwise
    the report constructor refused to produce it.  The order-infinity
    sandwiched mutual information is Q, so `sandwiched_inf` is `maximal`
    and its check repeats `maximal<=barycentric`.
    """

    accessible_lower: float
    holevo: float
    srm_povm_leakage: float
    sandwiched_inf: LeakageCertificate
    maximal: LeakageCertificate
    barycentric: LeakageCertificate
    pairwise: LeakageCertificate
    checks: dict


def inequality_chain_report(e: Ensemble, restarts: int = 32, seed: int = 0) -> ChainReport:
    """Compute every measure and enforce the leakage ordering.

    Verifies accessible <= Holevo <= B <= R and measurement <= Q <= B,
    each padded by the operands' certified gaps plus a fixed slack; a
    violation is a solver bug, reported as ChainViolationError.
    """
    acc, _ = accessible_information_lower(e, restarts=restarts, seed=seed)
    chi = holevo_information(e)
    srm = povm_leakage(e, square_root_measurement(e))
    q = max_leakage(e)
    b = barycentric_leakage(e)
    r = pairwise_leakage(e)

    checks = {
        "accessible<=holevo": chi - acc + _CHAIN_SLACK,
        "holevo<=barycentric": b.value + b.gap - chi + _CHAIN_SLACK,
        "barycentric<=pairwise": r.value - b.value + b.gap + _CHAIN_SLACK,
        "srm<=maximal": q.value + q.gap - srm + _CHAIN_SLACK,
        "maximal<=barycentric": b.value + b.gap - q.value + q.gap + _CHAIN_SLACK,
    }
    checks["sandwiched<=barycentric"] = checks["maximal<=barycentric"]
    for label, slack in checks.items():
        if math.isnan(slack) or slack < 0.0:
            raise ChainViolationError(
                f"leakage ordering {label} violated by {-slack:.3e} bits"
            )
    return ChainReport(
        accessible_lower=acc,
        holevo=chi,
        srm_povm_leakage=srm,
        sandwiched_inf=q,
        maximal=q,
        barycentric=b,
        pairwise=r,
        checks=checks,
    )
