"""Classical and quantum Renyi divergences in bits.

Finite orders, the order-1 limit, and the order-infinity limit are all
first-class: functions take a RenyiOrder (or a plain float coerced to one)
and return an extended real, with math.inf signalling a support violation.
Singular second arguments follow the pseudo-power convention: powers act on
the support and the kernel stays put.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ValidationError
from .linalg import (
    HermitianOperator,
    _as_matrix,
    _hermitian_stack,
    _power_stack,
    _psd_spectrum,
    _spectrum_contains,
    _spectrum_power,
    eigh_stack,
    support_contained,
)

# Orders this close to 1 are evaluated through the order-1 limit formula,
# which is where the finite-order expression loses precision.
ORDER_ONE_WINDOW = 1e-6

# Eigenvector overlaps below this are treated as exact orthogonality when
# forming eigenvalue ratios at order infinity.
OVERLAP_TOL = 1e-12

_PROB_ATOL = 1e-10

# Stacks larger than this were slower per matrix than one call each at d = 64.
_DMAX_STACK = 16


@dataclass(frozen=True)
class RenyiOrder:
    """Order parameter alpha > 0; may be math.inf."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (v > 0.0):
            raise ValidationError(f"Renyi order must be positive, got {v!r}")
        object.__setattr__(self, "value", v)

    @property
    def is_one(self) -> bool:
        return abs(self.value - 1.0) < ORDER_ONE_WINDOW

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


ORDER_ONE = RenyiOrder(1.0)
ORDER_INF = RenyiOrder(math.inf)


def _coerce_order(order) -> RenyiOrder:
    if isinstance(order, RenyiOrder):
        return order
    return RenyiOrder(float(order))


def _prob_rows(rows) -> np.ndarray:
    """rows (m, k) clipped at 0, once each row is a probability vector.

    A failure raises the first bad row's error: its first non-finite entry,
    negative entry beyond _PROB_ATOL or sum off 1 by more than _PROB_ATOL.
    """
    p = np.asarray(rows, dtype=np.float64)
    if p.shape[-1] == 0:
        raise ValidationError("empty probability vector")
    total = p.sum(axis=-1)
    # Sums within _PROB_ATOL of 1 are finite, so with no entry below
    # -_PROB_ATOL every row passes at once.
    if not (np.abs(total - 1.0).max() <= _PROB_ATOL and p.min() >= -_PROB_ATOL):
        for row in p:
            if not np.all(np.isfinite(row)):
                raise ValidationError("probability vector has a non-finite entry")
            if float(np.min(row)) < -_PROB_ATOL:
                raise ValidationError(f"negative probability {float(np.min(row)):.3e}")
            total = float(np.sum(row))
            if abs(total - 1.0) > _PROB_ATOL:
                raise ValidationError(f"probabilities sum to {total!r}, not 1")
    p = np.clip(p, 0.0, None)
    p.setflags(write=False)
    return p


@dataclass(frozen=True)
class ProbVector:
    """A probability vector: nonnegative entries summing to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=np.float64).reshape(1, -1)
        object.__setattr__(self, "probs", _prob_rows(p)[0])

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class ConditionalKernel:
    """Row-stochastic matrix: row x holds the distribution of Y given X = x."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.rows, dtype=np.float64)
        if k.ndim != 2 or k.size == 0:
            raise ValidationError("kernel must be a nonempty 2-d array")
        object.__setattr__(self, "rows", _prob_rows(k))

    @property
    def inputs(self) -> int:
        return self.rows.shape[0]

    @property
    def outputs(self) -> int:
        return self.rows.shape[1]


def _logsumexp(terms: np.ndarray) -> float:
    if terms.size == 0:
        return -math.inf
    m = float(np.max(terms))
    if math.isinf(m):
        return m
    return m + math.log(float(np.sum(np.exp(terms - m))))


def _as_prob(p) -> np.ndarray:
    if isinstance(p, ProbVector):
        return p.probs
    return ProbVector(np.asarray(p, dtype=np.float64)).probs


def renyi_classical(p, q, order) -> float:
    """Classical Renyi divergence d_alpha(p || q) in bits.

    q may be any nonnegative vector (it is not renormalised); sums run over
    the support of q, and orders >= 1 return math.inf when supp(p) is not
    contained in supp(q).
    """
    alpha = _coerce_order(order)
    pv = _as_prob(p)
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.size != pv.size:
        raise DimensionMismatch(f"lengths {pv.size} and {qv.size} differ")
    if not np.all(np.isfinite(qv)):
        raise ValidationError("reference vector has a non-finite entry")
    if float(np.min(qv)) < -_PROB_ATOL:
        raise ValidationError("reference vector has a negative entry")
    qv = np.clip(qv, 0.0, None)
    psup = pv > 0.0
    qsup = qv > 0.0
    if (alpha.value >= 1.0 or alpha.is_one) and bool(np.any(psup & ~qsup)):
        return math.inf
    if alpha.is_one:
        on = psup & qsup
        return float(np.sum(pv[on] * np.log2(pv[on] / qv[on])))
    if alpha.is_infinite:
        on = psup & qsup
        if not np.any(on):
            return -math.inf if not np.any(psup) else math.inf
        return float(np.log2(np.max(pv[on] / qv[on])))
    a = alpha.value
    on = psup & qsup
    if not np.any(on):
        return math.inf
    terms = a * np.log(pv[on]) + (1.0 - a) * np.log(qv[on])
    return _logsumexp(terms) / ((a - 1.0) * math.log(2.0))


def sibson_information(prior, kernel: ConditionalKernel, order) -> float:
    """Sibson information I_alpha(X; Y) of a joint source in bits.

    Evaluated in closed form: for finite alpha != 1 this is
    (alpha/(alpha-1)) log2 sum_y ( sum_x p(x) P(y|x)^alpha )^(1/alpha),
    the value of the reference-distribution infimum.
    """
    alpha = _coerce_order(order)
    pv = _as_prob(prior)
    if not isinstance(kernel, ConditionalKernel):
        kernel = ConditionalKernel(np.asarray(kernel, dtype=np.float64))
    if kernel.inputs != pv.size:
        raise DimensionMismatch(
            f"prior length {pv.size} does not match kernel inputs {kernel.inputs}"
        )
    sup = pv > 0.0
    if not np.any(sup):
        raise ValidationError("prior has empty support")
    rows = kernel.rows[sup]
    weights = pv[sup]
    if alpha.is_infinite:
        return float(np.log2(np.sum(np.max(rows, axis=0))))
    if alpha.is_one:
        marg = weights @ rows
        on = rows > 0.0
        ratios = np.zeros_like(rows)
        ratios[on] = rows[on] / np.broadcast_to(marg, rows.shape)[on]
        terms = np.zeros_like(rows)
        terms[on] = rows[on] * np.log2(ratios[on])
        return float(np.sum(weights[:, None] * terms))
    a = alpha.value
    inner = np.sum(weights[:, None] * np.power(rows, a), axis=0)
    total = float(np.sum(np.power(inner, 1.0 / a)))
    return (a / (a - 1.0)) * math.log2(total)


def _supports(rho, sigma):
    """Eigendata plus support masks for the (rho, sigma) pair."""
    rmat = _as_matrix(rho)
    smat = _as_matrix(sigma)
    if rmat.shape != smat.shape:
        raise DimensionMismatch(f"shapes {rmat.shape} and {smat.shape} differ")
    rspec = _psd_spectrum("first argument", rho)
    sspec = _psd_spectrum("second argument", sigma)
    rw = np.clip(rspec.eigenvalues, 0.0, None)
    sw = np.clip(sspec.eigenvalues, 0.0, None)
    overlap = np.abs(rspec.eigenvectors.conj().T @ sspec.eigenvectors) ** 2
    return rw, sw, rspec.support, sspec.support, overlap


def relative_entropy(rho, sigma) -> float:
    """Umegaki relative entropy D(rho || sigma) in bits; inf off support."""
    if not support_contained(rho, sigma):
        return math.inf
    rw, sw, ron, son, overlap = _supports(rho, sigma)
    ent = float(np.sum(rw[ron] * np.log2(rw[ron])))
    cross_w = overlap[np.ix_(ron, son)]
    cross = float(np.sum(rw[ron][:, None] * cross_w * np.log2(sw[son])[None, :]))
    return ent - cross


def petz_renyi(rho, sigma, order) -> float:
    """Petz Renyi divergence D_alpha(rho || sigma) in bits."""
    alpha = _coerce_order(order)
    if alpha.is_one:
        return relative_entropy(rho, sigma)
    if alpha.value > 1.0 and not support_contained(rho, sigma):
        return math.inf
    rw, sw, ron, son, overlap = _supports(rho, sigma)
    if alpha.is_infinite:
        pairs = overlap[np.ix_(ron, son)] > OVERLAP_TOL
        if not np.any(pairs):
            return math.inf
        ratios = rw[ron][:, None] / sw[son][None, :]
        return float(np.log2(np.max(np.where(pairs, ratios, 0.0))))
    a = alpha.value
    block = overlap[np.ix_(ron, son)]
    keep = block > 0.0
    if not np.any(keep):
        return math.inf
    logs = (
        a * np.log(rw[ron])[:, None]
        + (1.0 - a) * np.log(sw[son])[None, :]
        + np.log(np.where(keep, block, 1.0))
    )
    return _logsumexp(logs[keep]) / ((a - 1.0) * math.log(2.0))


def _operator(h):
    """h itself when it is an operator, else h made into a HermitianOperator."""
    return h if isinstance(h, HermitianOperator) else HermitianOperator(h)


def max_relative_entropies(rhos, sigma) -> list[float]:
    """D_max(rho || sigma) in bits for each rho, decomposing sigma at most once.

    D_max is the order-infinity sandwiched divergence, log2 of the least mu
    with rho <= mu sigma: the log2 of the top eigenvalue of
    sigma^-1/2 rho sigma^-1/2, and math.inf when supp(rho) escapes
    supp(sigma).  Evaluated as the pairs (rho, sigma) of
    `max_relative_entropy_pairs`.
    """
    rhos = list(rhos)
    return max_relative_entropy_pairs([*rhos, sigma], [(i, len(rhos)) for i in range(len(rhos))])


def max_relative_entropy_pairs(states, pairs) -> list[float]:
    """D_max(states[i] || states[j]) in bits for each pair (i, j), in pair order.

    Each reference j is decomposed at most once (an operator's kept
    spectrum is reused) and the roots sigma_j^-1/2 of all references are
    formed as one stack.  A pair whose two matrices are equal gets exactly
    0.0, which the eigenvalue route would miss by rounding, and one whose
    rho escapes a rank-deficient sigma gets math.inf; a full-rank sigma
    contains every support.  Each reference is compared with every state
    as one stack, and the remaining sandwiches are formed, checked and
    decomposed as stacks of at most _DMAX_STACK pairs.
    """
    mats = [_as_matrix(s) for s in states]
    by_ref: dict[int, list[int]] = {}
    for k, (i, j) in enumerate(pairs):
        if mats[i].shape != mats[j].shape:
            raise DimensionMismatch(f"shapes {mats[i].shape} and {mats[j].shape} differ")
        by_ref.setdefault(j, []).append(k)
    if not pairs:
        return []
    specs = [_psd_spectrum("second argument", _operator(states[j])) for j in by_ref]
    w = np.array([sp.eigenvalues for sp in specs])
    roots = _hermitian_stack(_power_stack(w, np.array([sp.eigenvectors for sp in specs]), -0.5))
    stack = np.array(mats)
    out = [0.0] * len(pairs)  # a pair of equal matrices keeps its 0.0
    todo = []  # (position in out, rho, root slot) for each pair that needs its top eigenvalue
    for slot, (j, ks) in enumerate(by_ref.items()):
        full_rank = not specs[slot].kernel.shape[1]
        equal = (stack == stack[j]).all(axis=(1, 2)).tolist()
        for k in ks:
            i = pairs[k][0]
            if equal[i]:
                continue
            if not full_rank and not _spectrum_contains(specs[slot], mats[i]):
                out[k] = math.inf
            else:
                todo.append((k, i, slot))
    for start in range(0, len(todo), _DMAX_STACK):
        chunk = todo[start : start + _DMAX_STACK]
        # One reference's root broadcasts; several are gathered pair by pair.
        root = roots[[slot for _, _, slot in chunk]] if len(roots) > 1 else roots[0]
        sandwiched = _hermitian_stack(root @ stack[[i for _, i, _ in chunk]] @ root)
        for (k, _, _), top in zip(chunk, eigh_stack(sandwiched)[0][:, -1].tolist()):
            out[k] = math.log2(top) if top > 0.0 else -math.inf
    return out


def sandwiched_renyi(rho, sigma, order) -> float:
    """Sandwiched Renyi divergence in bits.

    Finite orders evaluate (1/(alpha-1)) log2 tr (sigma^b rho sigma^b)^alpha
    with b = (1-alpha)/(2 alpha); order infinity is the max-relative
    entropy log2 of the least mu with rho <= mu sigma.
    """
    alpha = _coerce_order(order)
    if alpha.is_one:
        return relative_entropy(rho, sigma)
    if alpha.is_infinite:
        return max_relative_entropies([rho], sigma)[0]
    rmat = _as_matrix(rho)
    smat = _as_matrix(sigma)
    if rmat.shape != smat.shape:
        raise DimensionMismatch(f"shapes {rmat.shape} and {smat.shape} differ")
    spec = _psd_spectrum("second argument", _operator(sigma))
    a = alpha.value
    if a > 1.0 and not _spectrum_contains(spec, rmat):
        return math.inf
    b = (1.0 - a) / (2.0 * a)
    conj = _spectrum_power(spec, b).mat
    inner = _psd_spectrum("sandwiched inner term", HermitianOperator(conj @ rmat @ conj))
    w = inner.eigenvalues[inner.support]
    if not w.size:
        # Disjoint supports at alpha < 1: the trace vanishes.
        return math.inf
    top = float(w[-1])
    log_tr = a * math.log(top) + math.log(float(np.sum(np.power(w / top, a))))
    return log_tr / ((a - 1.0) * math.log(2.0))
