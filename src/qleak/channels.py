"""Quantum channels, depolarizing noise, and differential-privacy checks.

A channel's general form is a Kraus set.  The depolarizing factories apply
the affine map (1-p) rho + p tr(rho) I/d directly, globally on one
d-dimensional system or with d = 2 on every qubit of a register; their d^2
Weyl-twirl Kraus operators are built only when something reads `kraus`.
A channel does not remember which factory made it: `depolarized_leakage`
is the one place that ties global noise of strength p to its leakage cap
log2(1 + 2(1-p)d/p), and to R's closed form on pure states.  The
differential-privacy helpers evaluate the max-divergence consequence of
(epsilon, 0)-DP between neighbouring ensemble members: a necessary
condition, never a certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import max_relative_entropy_pairs
from .errors import (
    ChainViolationError,
    DimensionMismatch,
    UnsupportedModeError,
    ValidationError,
)
from .leakage import (
    KIND_PAIRWISE,
    Ensemble,
    LeakageCertificate,
    _ordered_pairs,
    barycentric_leakage,
    pairwise_leakage,
)
from .linalg import (
    SUPPORT_RTOL, DensityOperator, HermitianOperator, operator_power, trace_distance
)

_TP_ATOL = 1e-9
LOCAL_DIM_CAP = 64


def _checked_kraus(kraus) -> tuple[np.ndarray, ...]:
    """Read-only complex Kraus matrices of one shape that sum to the identity."""
    ops = tuple(np.asarray(k, dtype=np.complex128) for k in kraus)
    if len(ops) == 0:
        raise ValidationError("channel needs at least one Kraus operator")
    shape = ops[0].shape
    if len(shape) != 2:
        raise DimensionMismatch("Kraus operators must be matrices")
    for k in ops:
        if k.shape != shape:
            raise DimensionMismatch("Kraus operators of mixed shape")
        k.setflags(write=False)
    stacked = np.concatenate([k for k in ops], axis=0)
    total = stacked.conj().T @ stacked
    if float(np.max(np.abs(total - np.eye(shape[1])))) > _TP_ATOL:
        raise ValidationError("Kraus operators are not trace preserving")
    return ops


class QuantumChannel:
    """A completely positive trace-preserving map; Kraus operators are its general form.

    A channel made from Kraus operators validates them at once.  The
    depolarizing factories make channels that carry their action on a
    matrix instead: `apply` runs that action, and the Kraus set is built,
    validated and cached on the first read of `kraus` (by `compose`,
    `tensor` or any other caller).  A channel is only its action: it does
    not record the factory or noise strength that made it.
    """

    __slots__ = ("_kraus", "_build", "_action", "_shape")

    def __init__(self, kraus):
        self._kraus = _checked_kraus(kraus)
        self._build = self._action = None
        self._shape = self._kraus[0].shape

    @classmethod
    def _from_action(cls, dim: int, action, build) -> "QuantumChannel":
        """A dim-to-dim channel that applies action(mat) and builds its Kraus set from build()."""
        ch = cls.__new__(cls)
        ch._kraus = None
        ch._build, ch._action, ch._shape = build, action, (dim, dim)
        return ch

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        if self._kraus is None:
            self._kraus = _checked_kraus(self._build())
        return self._kraus

    @property
    def in_dim(self) -> int:
        return self._shape[1]

    @property
    def out_dim(self) -> int:
        return self._shape[0]


def _apply_matrix(ch: QuantumChannel, mat: np.ndarray) -> np.ndarray:
    """The channel applied to a matrix, or to each matrix of a stack (..., d, d)."""
    if ch._action is not None:
        return ch._action(mat)
    out = np.zeros(mat.shape[:-2] + (ch.out_dim, ch.out_dim), dtype=np.complex128)
    for k in ch.kraus:
        out += k @ mat @ k.conj().T
    return out


def apply(ch: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Channel action: the factory's map, or sum_i K_i rho K_i'."""
    return apply_states(ch, (rho,))[0]


def apply_states(ch: QuantumChannel, states) -> tuple[DensityOperator, ...]:
    """`apply` on every state, as one stack: one channel application and one validation."""
    dims = {s.dim for s in states}
    if dims - {ch.in_dim}:
        raise DimensionMismatch(
            f"state dimension {min(dims - {ch.in_dim})} does not fit channel input {ch.in_dim}"
        )
    return DensityOperator.stack(_apply_matrix(ch, np.stack([s.mat for s in states])))


def apply_ensemble(ch: QuantumChannel, e: Ensemble) -> Ensemble:
    """Push every ensemble state through the channel as one stack; prior unchanged."""
    return Ensemble(e.prior, apply_states(ch, e.states))


def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel((np.eye(dim, dtype=np.complex128),))


def _weyl_operators(d: int) -> list[np.ndarray]:
    """The d^2 discrete Weyl (shift/phase) unitaries."""
    omega = np.exp(2j * math.pi / d)
    shift = np.roll(np.eye(d, dtype=np.complex128), 1, axis=0)
    phase = np.diag(omega ** np.arange(d))
    ops = []
    xa = np.eye(d, dtype=np.complex128)
    for _ in range(d):
        zb = np.eye(d, dtype=np.complex128)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ phase
        xa = xa @ shift
    return ops


def _depolarizing_kraus(p: float, d: int) -> list[np.ndarray]:
    """Weyl twirl: the identity weighted 1-p+p/d^2, every other Weyl unitary p/d^2."""
    keep = 1.0 - p + p / (d * d)
    mix = p / (d * d)
    return [math.sqrt(keep if idx == 0 else mix) * w for idx, w in enumerate(_weyl_operators(d))]


def _kron_kraus(a, b) -> list[np.ndarray]:
    return [np.kron(ka, kb) for ka in a for kb in b]


def _qubitwise_kraus(p: float, k: int) -> list[np.ndarray]:
    return functools.reduce(_kron_kraus, [_depolarizing_kraus(p, 2)] * k)


def _depolarize(mat: np.ndarray, p: float) -> np.ndarray:
    """(1-p) rho + p tr(rho) I/d, for each matrix of a stack (..., d, d)."""
    d = mat.shape[-1]
    out = (1.0 - p) * mat
    diag = np.arange(d)
    out[..., diag, diag] += (p * np.trace(mat, axis1=-2, axis2=-1) / d)[..., None]
    return out


def _depolarize_qubits(mat: np.ndarray, p: float, k: int) -> np.ndarray:
    """rho -> (1-p) rho + p tr_q(rho) (x) I/2 for each qubit q and each matrix of a stack.

    The k maps commute.
    """
    t = mat.reshape(mat.shape[:-2] + (2,) * (2 * k))
    for q in range(k):
        row, col = q - 2 * k, q - k  # qubit q's row and column axes, from the end
        half = (0.5 * p) * np.trace(t, axis1=row, axis2=col)
        t = (1.0 - p) * t
        for b in (0, 1):
            at = [slice(None)] * (2 * k)
            at[q] = at[k + q] = b
            t[(..., *at)] += half
    return t.reshape(mat.shape)


def _check_strength(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength {p} outside [0, 1]")


def depolarizing_global(p: float, d: int) -> QuantumChannel:
    """The map rho -> (1-p) rho + p tr(rho) I/d, applied in O(d^2).

    Its Kraus set, the d^2 Weyl unitaries of the twirl, is built on first
    read of `kraus`.
    """
    _check_strength(p)
    if d < 2:
        raise ValidationError(f"depolarizing dimension {d} < 2")
    return QuantumChannel._from_action(
        d,
        functools.partial(_depolarize, p=p),
        functools.partial(_depolarizing_kraus, p, d),
    )


def depolarizing_local(p: float, k: int) -> QuantumChannel:
    """rho -> (1-p) rho + p tr_q(rho) (x) I/2 on each qubit q of k, in O(k 4^k).

    Its Kraus set, the 4^k products of single-qubit Weyl twirls, is built
    on first read of `kraus`.
    """
    _check_strength(p)
    if k < 1:
        raise ValidationError(f"qubit count {k} < 1")
    if 2**k > LOCAL_DIM_CAP:
        raise ValidationError(f"register dimension 2^{k} exceeds {LOCAL_DIM_CAP}")
    return QuantumChannel._from_action(
        2**k,
        functools.partial(_depolarize_qubits, p=p, k=k),
        functools.partial(_qubitwise_kraus, p, k),
    )


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """The channel rho -> outer(inner(rho))."""
    if inner.out_dim != outer.in_dim:
        raise DimensionMismatch(
            f"cannot feed {inner.out_dim}-dim output into {outer.in_dim}-dim input"
        )
    kraus = tuple(a @ b for a in outer.kraus for b in inner.kraus)
    return QuantumChannel(kraus)


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """The product channel acting independently on two subsystems."""
    return QuantumChannel(_kron_kraus(a.kraus, b.kraus))


def random_channel(dim: int, seed: int = 0) -> QuantumChannel:
    """A Haar-flavoured random channel on dimension dim: dim Gaussian Kraus, normalized."""
    rng = np.random.default_rng(seed)
    raw = [rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in range(dim)]
    s = sum(g.conj().T @ g for g in raw)
    root = operator_power(HermitianOperator(s), -0.5).mat
    return QuantumChannel(tuple(g @ root for g in raw))


def dp_epsilon_bound_depolarizing(p: float, d: int) -> float:
    """ln(1 + 2(1-p)d/p): the pure-DP epsilon of depolarizing noise, in nats."""
    _check_strength(p)
    if d < 2:
        raise ValidationError(f"dimension {d} < 2")
    if p == 0.0:
        return math.inf
    return math.log1p(2.0 * (1.0 - p) * d / p)


@dataclass(frozen=True)
class AllPairs:
    """Every two distinct ensemble members are neighbours."""

    def select(self, e: Ensemble) -> list[tuple[int, int]]:
        return _ordered_pairs(e.count)


@dataclass(frozen=True)
class TraceDistanceNeighbours:
    """Members within trace distance kappa are neighbours (kappa = 2 never excludes)."""

    kappa: float

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValidationError(f"kappa must be positive, got {self.kappa}")

    def select(self, e: Ensemble) -> list[tuple[int, int]]:
        return [(i, j) for i, j in _ordered_pairs(e.count)
                if trace_distance(e.states[i], e.states[j]) <= self.kappa + 1e-12]


@dataclass(frozen=True)
class ExplicitPairs:
    """Neighbour relation given outright as ordered index pairs, at least one.

    A repeated pair counts once; the pairs keep their first-occurrence order.
    """

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValidationError("explicit neighbouring needs at least one pair")
        unique = dict.fromkeys((int(a), int(b)) for a, b in self.pairs)
        object.__setattr__(self, "pairs", tuple(unique))

    def select(self, e: Ensemble) -> list[tuple[int, int]]:
        for a, b in self.pairs:
            if not (0 <= a < e.count and 0 <= b < e.count):
                raise ValidationError(f"pair ({a}, {b}) outside ensemble of {e.count}")
        return list(self.pairs)


@dataclass(frozen=True)
class DpParams:
    """An (epsilon, delta) target plus the neighbouring relationship."""

    epsilon_nats: float
    delta: float = 0.0
    neighbouring: object = field(default_factory=AllPairs)

    def __post_init__(self):
        if not self.epsilon_nats >= 0.0:
            raise ValidationError(f"epsilon must be nonnegative, got {self.epsilon_nats}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValidationError(f"delta {self.delta} outside [0, 1]")


@dataclass(frozen=True)
class DpPairResult:
    x: int
    x_prime: int
    divergence_bits: float
    passed: bool


@dataclass(frozen=True)
class DpCheckReport:
    """Outcome of the max-divergence consequence check for (epsilon, 0)-DP."""

    epsilon_nats: float
    epsilon_bits: float
    delta: float
    pairs: tuple[DpPairResult, ...]
    max_divergence_bits: float
    passed: bool
    note: str


def verify_dp_on_ensemble(ch: QuantumChannel, e: Ensemble, params: DpParams) -> DpCheckReport:
    """Check the divergence consequence of pure DP on every neighbour pair.

    Epsilon-DP with delta = 0 forces the order-infinity sandwiched
    divergence between channel outputs of neighbours to stay below
    epsilon/ln 2 bits.  Only that consequence is evaluated here; passing
    is necessary for DP but does not certify it.  A relationship that
    selects no pair of distinct states leaves nothing to check and is
    refused.
    """
    if params.delta != 0.0:
        raise UnsupportedModeError(
            "delta > 0 has no max-divergence criterion; only (epsilon, 0) is checkable"
        )
    threshold = params.epsilon_nats / math.log(2.0)
    outputs = apply_states(ch, e.states)
    relation = params.neighbouring
    if not isinstance(relation, (AllPairs, TraceDistanceNeighbours, ExplicitPairs)):
        raise UnsupportedModeError(f"unknown neighbouring relationship {relation!r}")
    pairs = relation.select(e)
    if all(i == j for i, j in pairs):
        raise ValidationError(f"neighbouring {relation!r} selects no pair of distinct states")
    results = []
    worst = 0.0
    for (i, j), div in zip(pairs, max_relative_entropy_pairs(outputs, pairs)):
        worst = max(worst, div)
        results.append(DpPairResult(i, j, div, div <= threshold + 1e-9))
    return DpCheckReport(
        epsilon_nats=params.epsilon_nats,
        epsilon_bits=threshold,
        delta=params.delta,
        pairs=tuple(results),
        max_divergence_bits=worst,
        passed=all(r.passed for r in results),
        note=(
            "max-divergence consequence of (epsilon, 0)-DP; "
            "a pass is necessary for DP but does not certify it"
        ),
    )


def leakage_after_channel(
    ch: QuantumChannel, e: Ensemble
) -> tuple[LeakageCertificate, LeakageCertificate]:
    """Barycentric and pairwise leakage of the channel-output ensemble."""
    noisy = apply_ensemble(ch, e)
    return barycentric_leakage(noisy), pairwise_leakage(noisy)


def _depolarized_pure_pairwise(e: Ensemble, p: float) -> LeakageCertificate:
    """R of the pure states of e after global depolarizing noise, 0 < p < 1.

    Off the span of psi_i and psi_j both noisy states are b I, so D_max of
    the pair is a 2 x 2 problem: with a = 1-p, b = p/d, kappa = b(a+b)/a^2
    and overlap g = |<psi_i|psi_j>|^2 it is log2 mu, where
    mu = (s + sqrt(s^2 - 4 kappa^2)) / (2 kappa) and s = 2 kappa + 1 - g.
    mu falls as g rises, so R is read at the least overlap of the Gram
    matrix of the states' top eigenvectors (a phase drops out of g), and
    the first pair in row-major order with it is the witness; a lone state
    is paired with itself.  That pair's 1 - g is half the squared Frobenius
    distance of the two states, which keeps its relative accuracy as g
    nears 1 and is exactly 0 for equal states, and s^2 - 4 kappa^2 is
    formed as (1-g)(1-g + 4 kappa).
    """
    n, d = e.count, e.dim
    tops = np.array([s.spectrum.eigenvectors[:, -1] for s in e.states])
    overlap = np.abs(tops.conj() @ tops.T) ** 2
    np.fill_diagonal(overlap, np.inf)
    i, j = divmod(int(np.argmin(overlap)), n)
    diff = e.states[i].mat - e.states[j].mat
    apart = 0.5 * float(np.vdot(diff, diff).real)
    a, b = 1.0 - p, p / d
    kappa = b * (a + b) / (a * a)
    mu = 1.0 + (apart + math.sqrt(apart * (apart + 4.0 * kappa))) / (2.0 * kappa)
    return LeakageCertificate(math.log2(mu), KIND_PAIRWISE, (i, j), 0.0, "optimal")


def depolarized_leakage(
    e: Ensemble, p: float, noisy: Ensemble | None = None
) -> tuple[LeakageCertificate, LeakageCertificate, float]:
    """B and R after global depolarizing noise of strength p, and its DP epsilon in nats.

    Both must respect the cap epsilon / ln 2 = log2(1 + 2(1-p)d/p) bits
    (inf at p = 0); breaching it beyond B's certified gap means a solver
    defect, reported as ChainViolationError.  An infinite R at p > 0 is a
    resolution limit, reported as ValidationError.  Local noise has no such
    check here: the global cap does not hold for it.  A caller that already
    holds e through `depolarizing_global(p, e.dim)` passes it as `noisy`.

    At p = 1 every noisy state is I/d, so R is exactly 0.0 with the witness
    `pairwise_leakage` names when every divergence is 0.  Below that, R is
    the closed form of `_depolarized_pure_pairwise` when every state of e
    is pure (one eigenvalue in its kept spectrum's support), p > 0 and no
    noisy state has a kernel.  Otherwise (a mixed state, or a floor p/d
    under the support threshold) R is `pairwise_leakage`, the eigen route,
    which decomposes every pair's sandwich and reports that floor as
    infinite.
    """
    if noisy is None:
        noisy = apply_ensemble(depolarizing_global(p, e.dim), e)
    b = barycentric_leakage(noisy)
    if p == 1.0:
        witness = (0, 1) if e.count > 1 else (0, 0)
        r = LeakageCertificate(0.0, KIND_PAIRWISE, witness, 0.0, "optimal")
    elif (
        p > 0.0
        and all(np.count_nonzero(s.spectrum.support) == 1 for s in e.states)
        and all(s.spectrum.support.all() for s in noisy.states)
    ):
        r = _depolarized_pure_pairwise(e, p)
    else:
        r = pairwise_leakage(noisy)
    if p > 0.0 and math.isinf(r.value):
        # The noisy states have full rank, so R is finite; inf means the floor
        # p/d fell under the support threshold.
        raise ValidationError(
            f"depolarizing strength p = {p} is too small to resolve at d = {e.dim}: the noise "
            f"floor p/d falls under SUPPORT_RTOL = {SUPPORT_RTOL} of the top eigenvalue"
        )
    eps = dp_epsilon_bound_depolarizing(p, e.dim)
    bound = eps / math.log(2.0)
    if b.value > bound + b.gap + 1e-6:
        raise ChainViolationError(
            f"barycentric leakage {b.value:.9f} exceeds depolarizing bound {bound:.9f}"
        )
    if r.value > bound + 1e-6:
        raise ChainViolationError(
            f"pairwise leakage {r.value:.9f} exceeds depolarizing bound {bound:.9f}"
        )
    return b, r, eps
