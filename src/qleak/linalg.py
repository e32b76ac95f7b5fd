"""Hermitian operator types and dense linear algebra for small dimensions.

All callers in this package work with operators of dimension at most 64.
Eigendecompositions come from LAPACK's Hermitian solver through
`numpy.linalg.eigh`.  `eigh_stack` decomposes a whole stack in one call and
checks each matrix by reconstructing it before returning; `eig_hermitian`
goes through it for a single operator.  An operator is decomposed at most
once: `HermitianOperator.spectrum` keeps its certified spectrum, read-only,
on the frozen object, so every later reader of that operator's eigenbasis
reuses it.  Raw arrays are decomposed afresh on every call.  A
`DensityOperator` is a `HermitianOperator` whose construction validates it
(finite, Hermitian, unit trace, PSD) and keeps the spectrum that check
computed.  One support rule, `Spectrum.support` (eigenvalues above
SUPPORT_RTOL times the largest), decides every kernel, pseudo-power and
support check.  States are validated as stacks:
`DensityOperator.stack` checks a whole (n, d, d) stack with one
Hermiticity check, one trace reduction and one `eigh_stack` call, and gives
each state its slice of the certified spectrum; a single state is a stack
of one.  Results are reproducible on one machine
and numpy build, but may differ in the last bits across LAPACK builds, and
eigenvectors inside a degenerate eigenspace are whatever basis LAPACK picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EigenSolverError, ValidationError

# Shared numerical policy.
HERMITICITY_ATOL = 1e-12
PSD_TOL = 1e-10
TRACE_ATOL = 1e-10
SUPPORT_RTOL = 1e-9
ENTROPY_FLOOR = 1e-14
UNITARITY_ATOL = 1e-10


def _as_matrix(value) -> np.ndarray:
    if isinstance(value, HermitianOperator):
        return value.mat
    return np.asarray(value, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A complex Hermitian matrix, symmetrised and frozen on construction."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.mat, dtype=np.complex128)
        _check_square(a)
        a = _hermitian_stack(a)
        a.setflags(write=False)
        object.__setattr__(self, "mat", a)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def spectrum(self) -> "Spectrum":
        """The certified eigendecomposition, computed on first read and kept."""
        w, v = eigh_stack(self.mat)
        return Spectrum(eigenvalues=w, eigenvectors=v)

    def _keep(self, w: np.ndarray, v: np.ndarray) -> None:
        """Keep (w, v), certified by `eigh_stack`, as the spectrum unless one is kept already."""
        if "spectrum" not in self.__dict__:
            self.__dict__["spectrum"] = Spectrum(eigenvalues=w, eigenvectors=v)

    @classmethod
    def _kept(cls, mat: np.ndarray, w: np.ndarray, v: np.ndarray) -> "HermitianOperator":
        """An operator on a symmetrised read-only matrix, keeping its certified spectrum."""
        h = object.__new__(cls)
        h.__dict__["mat"] = mat
        h._keep(w, v)
        return h


@dataclass(frozen=True, eq=False)
class DensityOperator(HermitianOperator):
    """A positive semidefinite Hermitian operator with unit trace.

    Constructing one validates it as a stack of one, through the routine
    that `DensityOperator.stack` uses, and keeps its certified spectrum.
    """

    def __post_init__(self) -> None:
        a = _as_matrix(self.mat)
        _check_square(a)
        sym, w, v = _checked_stack(a[None], "matrix", True)
        object.__setattr__(self, "mat", sym[0])
        self._keep(w[0], v[0])

    @staticmethod
    def from_matrix(mat) -> "DensityOperator":
        return DensityOperator(mat)

    @staticmethod
    def stack(mats, label: str | None = None) -> tuple["DensityOperator", ...]:
        """One state per matrix of a stack (n, d, d), validated and decomposed together.

        Every matrix is symmetrised and checked to be finite and Hermitian,
        of trace 1 within TRACE_ATOL and PSD within PSD_TOL, and each state
        keeps its slice of the one certified decomposition.  A failure
        raises the first bad matrix's error, prefixed `label[i]: ` when a
        label is given.
        """
        a = np.asarray(mats, dtype=np.complex128)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
        sym, w, v = _checked_stack(a, "matrix", True, label)
        return tuple(DensityOperator._kept(m, wi, vi) for m, wi, vi in zip(sym, w, v))

    @staticmethod
    def pure(vec) -> "DensityOperator":
        return DensityOperator.pure_stack(np.reshape(vec, (1, -1)))[0]

    @staticmethod
    def pure_stack(vecs) -> tuple["DensityOperator", ...]:
        """The pure states |v><v| / <v|v> of the rows of vecs (n, d), validated as one stack."""
        v = np.asarray(vecs, dtype=np.complex128)
        re, im = v.real, v.imag
        # Row by row the same sum as numpy.linalg.norm of each vector.
        nrm = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0])
        if not np.all(nrm):
            raise ValidationError("cannot build a state from the zero vector")
        v = v / nrm
        return DensityOperator.stack(v[:, :, None] * v.conj()[:, None, :])

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityOperator":
        return DensityOperator.from_matrix(np.eye(dim, dtype=np.complex128) / dim)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order with a matching unitary eigenbasis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @cached_property
    def support(self) -> np.ndarray:
        """Read-only mask of the eigenvalues in the support (`_support_mask`)."""
        on = _support_mask(self.eigenvalues)
        on.setflags(write=False)
        return on

    @cached_property
    def kernel(self) -> np.ndarray:
        """Eigenvectors, as columns, outside the support."""
        return self.eigenvectors[:, ~self.support]


def _support_mask(w: np.ndarray) -> np.ndarray:
    """The support rule: eigenvalues above SUPPORT_RTOL times their matrix's largest.

    w is (..., d), ascending or not; a matrix with no positive eigenvalue has
    an empty support.  Every support, kernel and pseudo-power decides here.
    """
    return w > SUPPORT_RTOL * w.max(axis=-1, keepdims=True, initial=0.0)


def _hermitian_stack(a: np.ndarray) -> np.ndarray:
    """Symmetrised copy of a complex stack (..., d, d) of Hermitian matrices.

    Each matrix must be finite and Hermitian to HERMITICITY_ATOL times
    max(1, its largest entry); otherwise ValidationError.
    """
    ah = a.conj().swapaxes(-1, -2)
    if a.size:
        # A gap within HERMITICITY_ATOL everywhere clears the stack; a NaN or inf entry cannot.
        with np.errstate(invalid="ignore"):
            gap = np.abs(a - ah)
        if not np.max(gap) <= HERMITICITY_ATOL:
            if not np.isfinite(np.max(np.abs(a))):
                raise ValidationError("matrix has a non-finite entry")
            gap = np.max(gap, axis=(-2, -1))
            bad = gap > HERMITICITY_ATOL * np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
            if np.any(bad):
                worst = float(np.max(gap, where=bad, initial=0.0))
                raise ValidationError(f"matrix is not Hermitian (asymmetry {worst:.3e})")
    sym = a + ah
    sym /= 2.0
    return sym


def eig_hermitian(h) -> Spectrum:
    """Full eigendecomposition of a Hermitian operator, certified as in `eigh_stack`.

    An operator's kept spectrum is returned as it is; a raw array is decomposed.
    """
    if isinstance(h, HermitianOperator):
        return h.spectrum
    w, v = eigh_stack(_as_matrix(h))
    return Spectrum(eigenvalues=w, eigenvectors=v)


def eigh_stack(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of a stack of Hermitian matrices of shape (..., d, d).

    Returns ascending eigenvalues (..., d) and eigenvectors (..., d, d).  Each
    reconstruction V diag(w) V' is verified against its input before the
    stack is returned, so a successful call certifies its own output.
    """
    a = np.asarray(a, dtype=np.complex128)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as ex:
        raise EigenSolverError(f"LAPACK eigensolver failed: {ex}") from ex
    resid = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - a
    # Each matrix may miss by SUPPORT_RTOL * max(1, its Frobenius norm); a
    # whole-stack residual within SUPPORT_RTOL clears them all at once.
    # Written so that a NaN residual fails too.
    if not float(np.linalg.norm(resid)) <= SUPPORT_RTOL:
        err = np.linalg.norm(resid, axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
        if not np.all(err <= SUPPORT_RTOL * scale):
            worst = float(np.max(err))
            raise EigenSolverError(f"eigendecomposition residual {worst:.3e} exceeds tolerance")
    return w, v


def _check_psd_spectrum(w: np.ndarray, what: str) -> None:
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and w[0] < -PSD_TOL * max(scale, 1.0):
        raise ValidationError(f"{what} is not PSD (min eigenvalue {w[0]:.3e})")


def _psd_spectrum(what: str, h) -> Spectrum:
    """`eig_hermitian(h)`, checked PSD within PSD_TOL; an error names h as `what`."""
    spec = eig_hermitian(h)
    _check_psd_spectrum(spec.eigenvalues, what)
    return spec


def _check_square(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def _checked_stack(
    a: np.ndarray, what: str, unit_trace: bool, label: str | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symmetrised stack (n, d, d) and its certified spectra, read-only.

    Every matrix must be finite and Hermitian (`_hermitian_stack`), of trace
    1 within TRACE_ATOL when unit_trace, and PSD within PSD_TOL; one
    `eigh_stack` call decomposes the stack.  On a failure the matrices are
    checked one at a time, so the error raised is the first bad matrix's,
    worded as for that matrix alone and prefixed `label[i]: ` when a label
    is given.
    """
    try:
        sym = _hermitian_stack(a)
        if unit_trace and len(a):
            tr = sym.trace(axis1=1, axis2=2).real
            off = np.abs(tr - 1.0)
            if off.max() > TRACE_ATOL:
                bad = float(tr[off.argmax()])
                raise ValidationError(f"trace {bad!r} is not 1 within {TRACE_ATOL}")
        w, v = eigh_stack(sym)
        # A least eigenvalue of at least -PSD_TOL clears every matrix at once.
        if w.size and not w[:, 0].min() >= -PSD_TOL:
            for wi in w:
                _check_psd_spectrum(wi, what)
    except ValidationError:
        if len(a) == 1 and label is None:
            raise
        for i in range(len(a)):
            try:
                _checked_stack(a[i : i + 1], what, unit_trace)
            except ValidationError as one:
                raise (ValidationError(f"{label}[{i}]: {one}") if label else one) from None
        raise
    for arr in (sym, w, v):
        arr.setflags(write=False)
    return sym, w, v


def operator_power(h, t: float) -> HermitianOperator:
    """Pseudo-power H^t of a PSD operator.

    Eigenvalues outside the support (`Spectrum.support`) are treated as an
    exact kernel: they map to zero for every exponent, so negative powers act
    as powers of the pseudo-inverse on the support.
    """
    return _spectrum_power(_psd_spectrum("operator_power argument", h), t)


def _spectrum_power(spec: Spectrum, t: float) -> HermitianOperator:
    """`operator_power` on an already decomposed, PSD-checked operator."""
    return HermitianOperator(_power_stack(spec.eigenvalues, spec.eigenvectors, t))


def _power_stack(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Unsymmetrised pseudo-powers V diag(w^t) V' of PSD-checked spectra w, v.

    w is (..., d) and v (..., d, d).  Eigenvalues outside the support
    (`_support_mask`) map to zero.
    """
    on = _support_mask(w)
    powered = np.zeros_like(w)
    powered[on] = 1.0 if t == 0.0 else np.power(w[on], t)
    return (v * powered[..., None, :]) @ v.conj().swapaxes(-1, -2)


def support_contained(rho, sigma) -> bool:
    """True iff supp(rho) lies inside supp(sigma) at threshold SUPPORT_RTOL.

    Every eigenvector of sigma with eigenvalue at most SUPPORT_RTOL times
    sigma's largest eigenvalue must carry at most SUPPORT_RTOL weight under rho.
    """
    r = _as_matrix(rho)
    s = _as_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"shapes {r.shape} and {s.shape} differ")
    return _spectrum_contains(eig_hermitian(sigma), r)


def _spectrum_contains(spec: Spectrum, r: np.ndarray) -> bool:
    """`support_contained` against an already decomposed sigma."""
    vk = spec.kernel
    if not vk.shape[1]:
        return True
    weights = np.real(np.einsum("ik,ij,jk->k", vk.conj(), r, vk))
    return bool(np.all(weights <= SUPPORT_RTOL))


def kron(a, b) -> HermitianOperator:
    return HermitianOperator(np.kron(_as_matrix(a), _as_matrix(b)))


def partial_trace(h, dims: tuple[int, ...], which: int) -> HermitianOperator:
    """Trace out subsystem `which` from an operator on a tensor product.

    `dims` lists every factor dimension in order; their product must match
    the operator dimension.
    """
    a = _as_matrix(h)
    n = len(dims)
    if which < 0 or which >= n:
        raise DimensionMismatch(f"subsystem {which} outside 0..{n - 1}")
    total = int(np.prod(dims))
    if a.shape[0] != total:
        raise DimensionMismatch(f"dims {dims} do not factor dimension {a.shape[0]}")
    tensor = a.reshape(*dims, *dims)
    reduced = np.trace(tensor, axis1=which, axis2=n + which)
    keep = int(total // dims[which])
    return HermitianOperator(reduced.reshape(keep, keep))


def trace_distance(rho, sigma) -> float:
    """Trace norm of the difference, sum of absolute eigenvalues of rho - sigma."""
    a = _as_matrix(rho)
    b = _as_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    w = eig_hermitian(HermitianOperator(a - b)).eigenvalues
    return float(np.sum(np.abs(w)))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy in bits; eigenvalues at or below the floor contribute zero."""
    w = eig_hermitian(rho).eigenvalues
    on = w > ENTROPY_FLOOR
    h = -float(np.sum(w[on] * np.log2(w[on])))
    return max(h, 0.0)


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in the seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph = ph / np.abs(ph)
    u = q * ph
    if float(np.max(np.abs(u.conj().T @ u - np.eye(dim)))) > UNITARITY_ATOL:
        raise ValidationError("generated matrix failed the unitarity check")
    return u


def random_density(dim: int, rank: int, seed: int) -> DensityOperator:
    """Random density operator of the requested rank, deterministic in the seed."""
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank {rank} outside 1..{dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return DensityOperator.from_matrix(rho)
