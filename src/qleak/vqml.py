"""A toy variational quantum classifier and its privacy-utility trade-off.

The model is deliberately small: an encoding unitary per input, a layered
variational circuit (per-qubit Y and Z rotations plus a CNOT ring), and a
POVM classifier read out by the Born rule.  Training is out of scope; the
interest is in how global depolarizing noise degrades the classifier
(never by more than 2p in total variation) while capping every leakage
measure of the states an adversary could intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, apply_states, depolarized_leakage, depolarizing_global
from .divergences import ProbVector, _prob_rows
from .errors import ChainViolationError, DimensionMismatch, ValidationError
from .leakage import Ensemble, LeakageCertificate, Povm
from .linalg import DensityOperator

MAX_QUBITS = 6
_UNITARY_ATOL = 1e-9


def _qubit_dim(qubits: int) -> int:
    """2**qubits, once the qubit count is within 1..MAX_QUBITS."""
    if not 1 <= qubits <= MAX_QUBITS:
        raise ValidationError(f"qubit count {qubits} outside 1..{MAX_QUBITS}")
    return 2**qubits


@dataclass(frozen=True)
class BasisEncoding:
    """Inputs are computational-basis labels x; V_x maps |0...0> to |x>."""


@dataclass(frozen=True)
class AngleEncoding:
    """Inputs are per-qubit Y-rotation angles, taken modulo 2*pi."""


@dataclass(frozen=True)
class VariationalModel:
    """Encoder + layered circuit + POVM classifier on `qubits` qubits.

    Each layer carries 2*qubits angles: Y-rotation angles for every qubit
    followed by Z-rotation angles for every qubit.  Qubit 0 is the most
    significant tensor factor.
    """

    qubits: int
    encoder: BasisEncoding | AngleEncoding
    layers: tuple[np.ndarray, ...]
    classifier: Povm

    def __post_init__(self):
        d = _qubit_dim(self.qubits)
        if not isinstance(self.encoder, (BasisEncoding, AngleEncoding)):
            raise ValidationError(f"unknown encoder {self.encoder!r}")
        fixed = []
        for layer in self.layers:
            arr = np.asarray(layer, dtype=np.float64).reshape(-1)
            if arr.size != 2 * self.qubits:
                raise ValidationError(
                    f"layer has {arr.size} angles, expected {2 * self.qubits}"
                )
            arr.setflags(write=False)
            fixed.append(arr)
        object.__setattr__(self, "layers", tuple(fixed))
        if self.classifier.dim != d:
            raise DimensionMismatch(
                f"classifier acts on dimension {self.classifier.dim}, circuit on {d}"
            )

    @property
    def dim(self) -> int:
        return 2**self.qubits


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _one_qubit(gate: np.ndarray, qubit: int, k: int) -> np.ndarray:
    left = np.eye(2**qubit, dtype=np.complex128)
    right = np.eye(2 ** (k - 1 - qubit), dtype=np.complex128)
    return np.kron(np.kron(left, gate), right)


def _cnot(control: int, target: int, k: int) -> np.ndarray:
    d = 2**k
    mat = np.zeros((d, d), dtype=np.complex128)
    cbit = 1 << (k - 1 - control)
    tbit = 1 << (k - 1 - target)
    for x in range(d):
        y = x ^ tbit if x & cbit else x
        mat[y, x] = 1.0
    return mat


def _entangling_ring(k: int) -> np.ndarray:
    u = np.eye(2**k, dtype=np.complex128)
    if k == 1:
        return u
    for q in range(k):
        u = _cnot(q, (q + 1) % k, k) @ u
    return u


def circuit_unitary(model: VariationalModel) -> np.ndarray:
    """U_theta: layers applied in order, later layers acting after earlier."""
    k = model.qubits
    u = np.eye(model.dim, dtype=np.complex128)
    if not model.layers:
        return u
    ring = _entangling_ring(k)
    for layer in model.layers:
        block = np.eye(model.dim, dtype=np.complex128)
        for q in range(k):
            block = _one_qubit(_ry(layer[q]) @ _rz(layer[k + q]), q, k) @ block
        u = ring @ block @ u
    if float(np.max(np.abs(u.conj().T @ u - np.eye(model.dim)))) > _UNITARY_ATOL:
        raise ValidationError("circuit unitary drifted from unitarity")
    return u


def _encode_state(model: VariationalModel, x) -> np.ndarray:
    if isinstance(model.encoder, BasisEncoding):
        idx = int(x)
        if not 0 <= idx < model.dim:
            raise ValidationError(f"basis label {idx} outside 0..{model.dim - 1}")
        vec = np.zeros(model.dim, dtype=np.complex128)
        vec[idx] = 1.0
        return vec
    angles = np.mod(np.asarray(x, dtype=np.float64).reshape(-1), 2.0 * math.pi)
    if angles.size != model.qubits:
        raise ValidationError(
            f"angle input has {angles.size} entries, expected {model.qubits}"
        )
    vec = np.array([1.0 + 0.0j])
    for theta in angles:
        vec = np.kron(vec, _ry(theta) @ np.array([1.0, 0.0], dtype=np.complex128))
    return vec


def _encoded(model: VariationalModel, inputs) -> np.ndarray:
    """The encoded vectors V_x|0...0> as rows (n, d)."""
    vecs = [_encode_state(model, x) for x in inputs]
    return np.array(vecs, dtype=np.complex128).reshape(len(vecs), model.dim)


def _prior(prior, inputs) -> ProbVector:
    """The prior as a ProbVector, once it holds one weight per input."""
    if not isinstance(prior, ProbVector):
        prior = ProbVector(np.asarray(prior, dtype=np.float64))
    if len(prior) != len(inputs):
        raise ValidationError(f"{len(inputs)} inputs with {len(prior)} prior weights")
    return prior


def encode_ensemble(model: VariationalModel, inputs, prior) -> Ensemble:
    """The pure-state ensemble {V_x|0...0>} with the given prior."""
    prior = _prior(prior, inputs)
    return Ensemble(prior, DensityOperator.pure_stack(_encoded(model, inputs)))


def _circuit_outputs(model: VariationalModel, inputs) -> tuple[DensityOperator, ...]:
    """The circuit outputs U V_x|0...0>, built and validated as one stack."""
    u = circuit_unitary(model)
    return DensityOperator.pure_stack((u @ _encoded(model, inputs)[:, :, None])[:, :, 0])


def _noised(model: VariationalModel, channel: QuantumChannel, outputs):
    """The channel applied to circuit outputs as one stack; it must map d to d."""
    if (channel.in_dim, channel.out_dim) != (model.dim, model.dim):
        raise DimensionMismatch(
            f"channel maps dimension {channel.in_dim} to {channel.out_dim}, "
            f"circuit acts on {model.dim}"
        )
    return apply_states(channel, outputs)


def _born_rows(model: VariationalModel, states) -> np.ndarray:
    """Born-rule class distributions, one row per state, checked as one stack.

    Each row is its own einsum, clipped at 0; a stacked einsum would change
    their last bits.
    """
    mats = model.classifier.mats
    born = [np.einsum("kij,ji->k", mats, rho.mat).real for rho in states]
    return _prob_rows(np.clip(born, 0.0, None))


def classify_probabilities(
    model: VariationalModel, x, channel: QuantumChannel | None = None
) -> ProbVector:
    """Born-rule class probabilities, optionally after a noise channel."""
    (rho,) = _circuit_outputs(model, [x])
    if channel is not None:
        (rho,) = _noised(model, channel, (rho,))
    return ProbVector(_born_rows(model, (rho,))[0])


def _worst_shift(model: VariationalModel, clean, noisy) -> float:
    """Worst total-variation shift of the class distribution between paired states."""
    probs = _born_rows(model, (*clean, *noisy))
    shifts = np.abs(probs[: len(clean)] - probs[len(clean) :]).sum(axis=1)
    return float(np.max(shifts, initial=0.0))


def performance_degradation(model: VariationalModel, inputs, channel: QuantumChannel) -> float:
    """Worst total-variation shift of the class distribution over the inputs."""
    if not len(inputs):
        return 0.0
    clean = _circuit_outputs(model, inputs)
    return _worst_shift(model, clean, _noised(model, channel, clean))


@dataclass(frozen=True)
class TradeoffRow:
    """One depolarizing strength: degradation against certified leakage."""

    p: float
    gamma_actual: float
    gamma_bound: float
    leakage_B: float
    leakage_R: float
    leakage_bound: float
    barycentric: LeakageCertificate  # B's gap, status and solver counts


def tradeoff_curve(model: VariationalModel, inputs, prior, p_grid) -> list[TradeoffRow]:
    """Privacy-utility rows for global depolarizing noise on the model.

    Every row certifies the intercepted-state leakage (barycentric and
    pairwise) of the noisy circuit outputs and evaluates the degradation
    exactly.  The leakage bound log2(1 + 2(1-p)d/p) must dominate both
    leakage columns and 2p must dominate the degradation; violations are
    raised, not returned.  The intercepted ensemble is the circuit outputs
    U V_x|0...0> under the prior, built and validated once as one stack;
    at each p their noisy states are one more stack, which the degradation
    and B read.  The outputs are pure, so R is the closed form of
    `depolarized_leakage` for 0 < p < 1, and the eigen route on the noisy
    stack at p = 1 or when the floor p/d falls under the support threshold.
    """
    grid = [float(p) for p in p_grid]
    for p in grid:
        if not 0.0 < p <= 1.0:
            raise ValidationError(f"depolarizing grid point {p} outside (0, 1]")
    prior = _prior(prior, inputs)
    clean = _circuit_outputs(model, inputs)
    intercepted = Ensemble(prior, clean)
    rows = []
    for p in grid:
        noisy = _noised(model, depolarizing_global(p, model.dim), clean)
        gamma = _worst_shift(model, clean, noisy)
        gamma_bound = 2.0 * p
        if gamma > gamma_bound + 1e-9:
            raise ChainViolationError(
                f"degradation {gamma:.9f} exceeds 2p = {gamma_bound:.9f} at p = {p}"
            )
        b_cert, r_cert, eps = depolarized_leakage(intercepted, p, Ensemble(prior, noisy))
        rows.append(
            TradeoffRow(
                p=p,
                gamma_actual=gamma,
                gamma_bound=gamma_bound,
                leakage_B=b_cert.value,
                leakage_R=r_cert.value,
                leakage_bound=eps / math.log(2.0),
                barycentric=b_cert,
            )
        )
    return rows


def basis_classifier(qubits: int, classes: int | None = None) -> Povm:
    """Basis projectors grouped round-robin into `classes` outcomes, validated as one stack."""
    d = _qubit_dim(qubits)
    classes = d if classes is None else int(classes)
    if not 1 <= classes <= d:
        raise ValidationError(f"class count {classes} outside 1..{d}")
    mats = np.zeros((classes, d, d), dtype=np.complex128)
    x = np.arange(d)
    mats[x % classes, x, x] = 1.0
    return Povm.stack(mats)


def random_model(
    qubits: int,
    layers: int = 2,
    classes: int | None = None,
    encoder: BasisEncoding | AngleEncoding | None = None,
    seed: int = 0,
) -> VariationalModel:
    """A model with uniform-random angles and a grouped basis classifier."""
    rng = np.random.default_rng(seed)
    layer_angles = tuple(
        rng.uniform(0.0, 2.0 * math.pi, size=2 * qubits) for _ in range(layers)
    )
    return VariationalModel(
        qubits=qubits,
        encoder=BasisEncoding() if encoder is None else encoder,
        layers=layer_angles,
        classifier=basis_classifier(qubits, classes),
    )
