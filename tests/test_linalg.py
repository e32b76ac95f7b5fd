"""Dense Hermitian primitives: eigensolver, operator powers, traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qleak.linalg as linalg_module
from qleak.divergences import ProbVector
from qleak.errors import DimensionMismatch, EigenSolverError, ValidationError
from qleak.linalg import (
    DensityOperator,
    HermitianOperator,
    _hermitian_stack,
    eig_hermitian,
    eigh_stack,
    kron,
    operator_power,
    partial_trace,
    random_density,
    random_unitary,
    support_contained,
    trace_distance,
    von_neumann_entropy,
)


def _random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _assert_certified_spectrum(h):
    spec = eig_hermitian(HermitianOperator(h))
    w, v = spec.eigenvalues, spec.eigenvectors
    assert np.allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-9)
    assert np.allclose(v.conj().T @ v, np.eye(h.shape[0]), atol=1e-10)
    assert np.all(np.diff(w) >= -1e-12)
    return w


@settings(deadline=None, max_examples=60)
@given(dim=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_eigendecomposition_reconstructs(dim, seed):
    _assert_certified_spectrum(_random_hermitian(dim, seed))


@pytest.mark.parametrize("dim", [32, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigendecomposition_reconstructs_at_large_dimension(dim, seed):
    _assert_certified_spectrum(_random_hermitian(dim, seed))


def test_eigendecomposition_of_degenerate_spectra():
    w = _assert_certified_spectrum(DensityOperator.maximally_mixed(16).mat)
    assert np.allclose(w, 1.0 / 16, atol=1e-14)
    rng = np.random.default_rng(5)
    vec = rng.normal(size=32) + 1j * rng.normal(size=32)
    w = _assert_certified_spectrum(DensityOperator.pure(vec).mat)
    assert np.allclose(w, np.r_[np.zeros(31), 1.0], atol=1e-12)


def test_eigensolver_output_failing_reconstruction_is_rejected(monkeypatch):
    h = HermitianOperator(_random_hermitian(4, 3))
    eigh = np.linalg.eigh

    def perturbed(a):
        w, v = eigh(a)
        return w, v + 1e-6

    monkeypatch.setattr("qleak.linalg.np.linalg.eigh", perturbed)
    with pytest.raises(EigenSolverError, match="residual"):
        eig_hermitian(h)
    monkeypatch.setattr(
        "qleak.linalg.np.linalg.eigh", lambda a: (np.full(len(a), np.nan), eigh(a)[1])
    )
    with pytest.raises(EigenSolverError, match="residual"):
        eig_hermitian(h)


def test_stacked_eigendecomposition_matches_single_calls():
    stack = np.stack([_random_hermitian(5, seed) for seed in range(4)])
    w, v = eigh_stack(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for a, wi, vi in zip(stack, w, v):
        spec = eig_hermitian(a)
        np.testing.assert_array_equal(spec.eigenvalues, wi)
        np.testing.assert_array_equal(spec.eigenvectors, vi)


def test_large_norm_stack_is_held_to_the_relative_residual():
    # The absolute residual of a norm-1e8 matrix is far above SUPPORT_RTOL,
    # so only the per-matrix relative check can accept it.
    stack = np.stack([_random_hermitian(6, 1) * 1e8, _random_hermitian(6, 2)])
    w, v = eigh_stack(stack)
    recon = (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)
    assert np.linalg.norm(recon[0] - stack[0]) > 1e-9
    np.testing.assert_allclose(recon, stack, rtol=0.0, atol=1e-6)


def test_lapack_failure_is_an_eigensolver_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("qleak.linalg.np.linalg.eigh", fail)
    with pytest.raises(EigenSolverError, match="did not converge"):
        eig_hermitian(np.eye(2))


def test_eigendecomposition_of_diagonal_is_sorted_diagonal():
    spec = eig_hermitian(HermitianOperator(np.diag([3.0, -1.0, 2.0])))
    assert np.allclose(spec.eigenvalues, [-1.0, 2.0, 3.0])
    assert spec.min == -1.0 and spec.max == 3.0


def test_hermitian_operator_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        HermitianOperator(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_stack_holds_each_matrix_to_its_own_scale():
    big = _random_hermitian(3, 1) * 1e8
    big[0, 1] += 1e-6  # within HERMITICITY_ATOL times its scale
    small = _random_hermitian(3, 2)
    small[0, 1] += 1e-10  # beyond HERMITICITY_ATOL at scale 1
    out = _hermitian_stack(np.stack([big, _random_hermitian(3, 3)]))
    np.testing.assert_array_equal(out[0], HermitianOperator(big).mat)
    with pytest.raises(ValidationError, match="not Hermitian"):
        HermitianOperator(small)
    with pytest.raises(ValidationError, match="not Hermitian"):
        _hermitian_stack(np.stack([big, small]))
    with pytest.raises(ValidationError, match="non-finite"):
        _hermitian_stack(np.stack([big, np.full((3, 3), math.nan)]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_rejected(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        HermitianOperator(np.array([[0.5, bad], [bad, 0.5]]))
    with pytest.raises(ValidationError, match="non-finite"):
        DensityOperator.from_matrix(np.diag([bad, 0.5]))
    with pytest.raises(ValidationError, match="non-finite"):
        ProbVector(np.array([0.5, bad]))


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator.from_matrix(np.diag([0.5, 0.4]))
    with pytest.raises(ValidationError):
        DensityOperator.from_matrix(np.diag([1.5, -0.5]))
    rho = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
    assert rho.dim == 2


def test_pure_state_normalises_and_rejects_zero():
    rho = DensityOperator.pure([2.0, 0.0])
    assert np.allclose(rho.mat, np.diag([1.0, 0.0]))
    with pytest.raises(ValidationError):
        DensityOperator.pure([0.0, 0.0])


def test_operator_power_square_root_and_inverse():
    h = HermitianOperator(np.diag([4.0, 9.0]))
    assert np.allclose(operator_power(h, 0.5).mat, np.diag([2.0, 3.0]))
    assert np.allclose(operator_power(h, -1.0).mat, np.diag([0.25, 1.0 / 9.0]))


def test_operator_power_uses_support_for_negative_exponents():
    h = HermitianOperator(np.diag([2.0, 0.0]))
    inv = operator_power(h, -1.0).mat
    assert np.allclose(inv, np.diag([0.5, 0.0]))
    root = operator_power(h, -0.5).mat
    assert np.allclose(root @ root, np.diag([0.5, 0.0]))


@settings(deadline=None, max_examples=30)
@given(dim=st.integers(2, 5), seed=st.integers(0, 10**6))
def test_operator_power_matches_spectral_definition(dim, seed):
    rho = random_density(dim, dim, seed)
    half = operator_power(HermitianOperator(rho.mat), 0.5).mat
    assert np.allclose(half @ half, rho.mat, atol=1e-10)


def test_support_containment():
    ket0 = DensityOperator.pure([1.0, 0.0])
    assert support_contained(ket0, DensityOperator.from_matrix(np.diag([0.7, 0.3])))
    assert not support_contained(
        DensityOperator.from_matrix(np.diag([0.7, 0.3])), ket0
    )
    assert support_contained(ket0, ket0)


def test_partial_trace_of_product_factors():
    a = _random_hermitian(2, 1)
    b = _random_hermitian(3, 2)
    prod = kron(HermitianOperator(a), HermitianOperator(b))
    left = partial_trace(prod, (2, 3), 1)
    right = partial_trace(prod, (2, 3), 0)
    assert np.allclose(left.mat, a * np.trace(b).real, atol=1e-12)
    assert np.allclose(right.mat, b * np.trace(a).real, atol=1e-12)


def test_trace_distance_extremes():
    ket0 = DensityOperator.pure([1.0, 0.0])
    ket1 = DensityOperator.pure([0.0, 1.0])
    assert trace_distance(ket0, ket1) == pytest.approx(2.0, abs=1e-12)
    assert trace_distance(ket0, ket0) == pytest.approx(0.0, abs=1e-12)


def test_von_neumann_entropy_known_values():
    assert von_neumann_entropy(DensityOperator.maximally_mixed(4)) == pytest.approx(2.0)
    assert von_neumann_entropy(DensityOperator.pure([1.0, 0.0])) == pytest.approx(
        0.0, abs=1e-12
    )
    rho = DensityOperator.from_matrix(np.diag([0.75, 0.25]))
    expect = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert von_neumann_entropy(rho) == pytest.approx(expect, abs=1e-12)


def test_random_density_rank_and_determinism():
    rho = random_density(4, 2, seed=7)
    w = eig_hermitian(rho).eigenvalues
    assert np.sum(w > 1e-9) == 2
    assert abs(float(np.sum(w)) - 1.0) < 1e-9
    again = random_density(4, 2, seed=7)
    assert np.array_equal(rho.mat, again.mat)
    other = random_density(4, 2, seed=8)
    assert not np.allclose(rho.mat, other.mat)


def test_random_unitary_is_unitary_and_seeded():
    u = random_unitary(5, seed=3)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-10)
    assert np.array_equal(u, random_unitary(5, seed=3))


def test_unitary_conjugation_preserves_spectrum():
    h = _random_hermitian(4, 11)
    u = random_unitary(4, seed=4)
    before = eig_hermitian(HermitianOperator(h)).eigenvalues
    after = eig_hermitian(HermitianOperator(u @ h @ u.conj().T)).eigenvalues
    assert np.allclose(before, after, atol=1e-9)


def test_an_operator_keeps_its_read_only_spectrum():
    h = HermitianOperator(_random_hermitian(4, seed=3))
    spec = eig_hermitian(h)
    assert eig_hermitian(h) is spec and h.spectrum is spec
    for arr in (spec.eigenvalues, spec.eigenvectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # A raw array has nowhere to keep its spectrum.
    assert eig_hermitian(h.mat) is not eig_hermitian(h.mat)


def test_a_validated_state_is_never_decomposed_again(monkeypatch):
    rho = random_density(4, 2, seed=5)
    sigma = random_density(4, 4, seed=6)
    calls = []
    real = linalg_module.eigh_stack

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg_module, "eigh_stack", counted)
    assert eig_hermitian(rho) is rho.spectrum
    von_neumann_entropy(rho)
    operator_power(rho, 0.5)
    assert support_contained(rho, sigma) and not support_contained(sigma, rho)
    assert calls == []


def _state_mats(dim, count, seed):
    """count density matrices of mixed rank, drawn as random_density draws them."""
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(count):
        rank = int(rng.integers(1, dim + 1))
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        mats.append(rho / np.trace(rho).real)
    return np.stack(mats)


def _assert_same_state(a, b):
    assert a.mat.tobytes() == b.mat.tobytes()
    sa, sb = eig_hermitian(a), eig_hermitian(b)
    assert sa.eigenvalues.tobytes() == sb.eigenvalues.tobytes()
    assert sa.eigenvectors.tobytes() == sb.eigenvectors.tobytes()


@pytest.mark.parametrize("dim", range(2, 9))
def test_a_stack_of_states_equals_the_states_built_one_by_one(dim):
    for count in (1, 2, 5, 16):
        mats = _state_mats(dim, count, seed=100 * dim + count)
        stacked = DensityOperator.stack(mats)
        assert len(stacked) == count
        for mat, state in zip(mats, stacked):
            _assert_same_state(state, DensityOperator.from_matrix(mat))
            # The kept spectrum is the one a fresh decomposition of the matrix gives.
            w, v = np.linalg.eigh(state.mat)
            assert eig_hermitian(state).eigenvalues.tobytes() == w.tobytes()
            assert eig_hermitian(state).eigenvectors.tobytes() == v.tobytes()
        vecs = mats[:, :, 0] * (1.0 + 0.5j)
        for vec, state in zip(vecs, DensityOperator.pure_stack(vecs)):
            _assert_same_state(state, DensityOperator.pure(vec))


def test_a_stack_validates_with_one_eigensolver_call(monkeypatch):
    calls = []
    real = linalg_module.eigh_stack

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg_module, "eigh_stack", counted)
    states = DensityOperator.stack(_state_mats(4, 9, seed=3))
    for s in states:
        von_neumann_entropy(s)
        operator_power(s, 0.5)
    assert calls == [(9, 4, 4)]
    DensityOperator.from_matrix(states[0].mat)  # a single state is a stack of one
    assert calls[1:] == [(1, 4, 4)]


def _bad_member(kind, dim):
    rho = np.eye(dim, dtype=np.complex128) / dim
    if kind == "non-finite":
        rho[0, 1] = rho[1, 0] = math.nan
    elif kind == "non-Hermitian":
        rho[0, 1] = 0.25
    elif kind == "trace":
        rho = rho * 1.5
    else:
        rho = np.diag([1.2, -0.2] + [0.0] * (dim - 2)).astype(np.complex128)
    return rho


@pytest.mark.parametrize("kind", ["non-finite", "non-Hermitian", "trace", "PSD"])
def test_a_bad_stack_member_raises_its_own_message(kind):
    good = _state_mats(3, 4, seed=8)
    bad = _bad_member(kind, 3)
    with pytest.raises(ValidationError) as alone:
        DensityOperator.from_matrix(bad)
    wording = {
        "non-finite": "matrix has a non-finite entry",
        "non-Hermitian": "matrix is not Hermitian (asymmetry 2.500e-01)",
        "trace": "trace 1.5 is not 1 within 1e-10",
        "PSD": "matrix is not PSD (min eigenvalue -2.000e-01)",
    }[kind]
    assert str(alone.value) == wording
    # A later member of another bad kind does not hide the first bad one.
    later = _bad_member("PSD" if kind != "PSD" else "trace", 3)
    with pytest.raises(ValidationError) as stacked:
        DensityOperator.stack(np.stack([good[0], good[1], bad, good[2], later]))
    assert str(stacked.value) == wording
    with pytest.raises(ValidationError) as labelled:
        DensityOperator.stack(np.stack([good[0], bad, later]), label="states")
    assert str(labelled.value) == f"states[1]: {wording}"


def test_povm_elements_keep_the_spectra_they_get_alone():
    from qleak.leakage import Povm

    for dim in range(2, 9):
        frame = random_unitary(dim, seed=dim)
        mats = [np.outer(frame[:, y], frame[:, y].conj()) for y in range(dim)]
        povm = Povm(tuple(HermitianOperator(m) for m in mats))
        for f, m in zip(povm.elements, mats):
            alone = HermitianOperator(m).spectrum  # decomposed on its own
            assert f.spectrum.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert f.spectrum.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
    with pytest.raises(ValidationError, match="^POVM element is not PSD"):
        Povm((HermitianOperator(np.diag([1.2, 1.0])), HermitianOperator(np.diag([-0.2, 0.0]))))


def test_operators_compare_and_hash_by_identity():
    # Comparing the arrays inside the dataclass tuple raised ValueError, and
    # the generated __eq__ left the operators unhashable.
    rho, sigma = DensityOperator.pure([1, 0]), DensityOperator.pure([0, 1])
    assert rho == rho and rho != sigma and rho != DensityOperator.pure([1, 0])
    assert rho not in [sigma] and rho in [sigma, rho]
    assert len({rho, sigma, rho}) == 2
    h = HermitianOperator(np.eye(2))
    assert h != HermitianOperator(np.eye(2)) and {h: 1}[h] == 1


def test_a_state_is_a_hermitian_operator_and_may_be_a_povm_element():
    from qleak.leakage import Povm

    states = DensityOperator.pure_stack(np.eye(3))
    kept = [rho.spectrum for rho in states]
    rho = states[0]
    assert isinstance(rho, HermitianOperator) and not hasattr(rho, "op")
    assert eig_hermitian(rho) is rho.spectrum
    povm = Povm(states)
    assert all(f.spectrum is spec for f, spec in zip(povm.elements, kept))


def test_every_consumer_reads_one_support_rule():
    from qleak.sdp import weights_program

    # The threshold 1e-9 * top falls between the middle eigenvalue and the last.
    rho = DensityOperator.from_matrix(np.diag([1.0 - 2.5e-9, 2e-9, 5e-10]))
    spec = rho.spectrum
    assert spec.eigenvalues[:2] == pytest.approx([5e-10, 2e-9], rel=1e-9)
    last, middle = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
    assert spec.support.tolist() == [False, True, True]
    assert spec.kernel.shape == (3, 1)
    assert abs(spec.kernel[:, 0] @ last.conj()) == pytest.approx(1.0)
    inverse = operator_power(rho, -1).mat
    assert (middle.conj() @ inverse @ middle).real == pytest.approx(1 / 2e-9, rel=1e-9)
    assert abs(last.conj() @ inverse @ last) <= 1e-6
    assert support_contained(DensityOperator.pure(middle), rho)
    assert not support_contained(DensityOperator.pure(last), rho)
    # B's repair rate alone looks past the rule: 5e-10 is a real eigenvalue
    # whose direction an LMI violation can still occupy.
    assert weights_program([rho])._repair_rate == pytest.approx(5e-10, rel=1e-9)
