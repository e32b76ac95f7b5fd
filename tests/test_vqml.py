"""Variational classifier: encoders, degradation, privacy-utility rows."""

import math

import numpy as np
import pytest

import qleak.divergences as divergences_module
import qleak.leakage as leakage_module
import qleak.linalg as linalg_module
import qleak.sdp as sdp_module
import qleak.vqml as vqml_module
from qleak.channels import (
    QuantumChannel,
    apply,
    apply_ensemble,
    depolarized_leakage,
    depolarizing_global,
    identity_channel,
)
from qleak.errors import DimensionMismatch, ValidationError
from qleak.leakage import Ensemble, Povm, pairwise_leakage
from qleak.linalg import DensityOperator, HermitianOperator
from qleak.vqml import (
    AngleEncoding,
    BasisEncoding,
    VariationalModel,
    basis_classifier,
    circuit_unitary,
    classify_probabilities,
    encode_ensemble,
    performance_degradation,
    random_model,
    tradeoff_curve,
)

_P_GRID = [0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


def _angle_model(layers=()):
    return VariationalModel(1, AngleEncoding(), layers, basis_classifier(1))


def test_model_validation():
    with pytest.raises(ValidationError):
        VariationalModel(7, BasisEncoding(), (), basis_classifier(1))
    with pytest.raises(ValidationError):
        VariationalModel(1, BasisEncoding(), (np.zeros(3),), basis_classifier(1))
    with pytest.raises(DimensionMismatch):
        VariationalModel(2, BasisEncoding(), (), basis_classifier(1))
    with pytest.raises(ValidationError):
        VariationalModel(1, "basis", (), basis_classifier(1))


def test_basis_encoding_produces_basis_states():
    model = VariationalModel(2, BasisEncoding(), (), basis_classifier(2))
    e = encode_ensemble(model, [0, 1, 2, 3], [0.25] * 4)
    for x, state in enumerate(e.states):
        expect = np.zeros((4, 4))
        expect[x, x] = 1.0
        assert np.allclose(state.mat, expect, atol=1e-12)
    with pytest.raises(ValidationError):
        encode_ensemble(model, [4], [1.0])


def test_angle_encoding_worked_points():
    model = _angle_model()
    e = encode_ensemble(model, [[0.0], [math.pi]], [0.5, 0.5])
    assert np.allclose(e.states[0].mat, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(e.states[1].mat, np.diag([0.0, 1.0]), atol=1e-12)
    same = encode_ensemble(model, [[0.7], [0.7], [0.7]], [1 / 3] * 3)
    assert np.allclose(same.states[0].mat, same.states[2].mat, atol=1e-15)
    with pytest.raises(ValidationError):
        encode_ensemble(model, [[0.1, 0.2]], [1.0])


def test_encoded_states_are_pure():
    model = random_model(2, layers=1, encoder=AngleEncoding(), seed=3)
    e = encode_ensemble(model, [[0.3, 1.2], [2.0, 0.1]], [0.5, 0.5])
    for s in e.states:
        assert float(np.trace(s.mat @ s.mat).real) == pytest.approx(1.0, abs=1e-10)


def test_classify_probabilities_worked_points():
    model = _angle_model()
    assert np.allclose(classify_probabilities(model, [0.0]).probs, [1.0, 0.0], atol=1e-12)
    uniform = classify_probabilities(model, [0.0], depolarizing_global(1.0, 2))
    assert np.allclose(uniform.probs, [0.5, 0.5], atol=1e-12)
    noisy = classify_probabilities(model, [math.pi / 3], depolarizing_global(0.5, 2))
    assert np.allclose(noisy.probs, [0.625, 0.375], atol=1e-12)


def test_classify_checks_channel_dimension():
    model = _angle_model()
    with pytest.raises(DimensionMismatch):
        classify_probabilities(model, [0.0], depolarizing_global(0.5, 3))


def test_channel_that_changes_dimension_is_a_dimension_mismatch():
    # A 2 -> 4 isometry fits the circuit's input but not its classifier.
    model = random_model(1)
    widen = QuantumChannel((np.eye(4, 2, dtype=np.complex128),))
    with pytest.raises(DimensionMismatch, match="dimension 2 to 4, circuit acts on 2"):
        performance_degradation(model, [0, 1], widen)
    with pytest.raises(DimensionMismatch, match="dimension 2 to 4, circuit acts on 2"):
        classify_probabilities(model, 0, widen)


def test_circuit_unitary_is_unitary_for_random_models():
    for seed in range(20):
        k = 1 + seed % 3
        model = random_model(k, layers=1 + seed % 3, seed=seed)
        u = circuit_unitary(model)
        assert np.allclose(u.conj().T @ u, np.eye(2**k), atol=1e-9)


def test_layerless_circuit_is_identity(monkeypatch):
    model = VariationalModel(2, BasisEncoding(), (), basis_classifier(2))

    def refuse(k):
        raise AssertionError("a circuit with no layers built its CNOT ring")

    monkeypatch.setattr(vqml_module, "_entangling_ring", refuse)
    assert np.array_equal(circuit_unitary(model), np.eye(4, dtype=np.complex128))


def test_degradation_examples():
    model = _angle_model()
    assert performance_degradation(model, [[1.0]], identity_channel(2)) == 0.0
    assert performance_degradation(model, [], depolarizing_global(0.5, 2)) == 0.0
    inputs = [[math.pi / 3], [2 * math.pi / 3]]
    gamma = performance_degradation(model, inputs, depolarizing_global(0.5, 2))
    assert gamma == pytest.approx(0.25, abs=1e-12)


def test_degradation_capped_by_twice_noise_strength():
    rng = np.random.default_rng(5)
    for trial in range(20):
        k = 1 + trial % 3
        encoder = AngleEncoding() if trial % 2 else BasisEncoding()
        model = random_model(
            k,
            layers=1 + trial % 2,
            classes=2 if trial % 3 else None,
            encoder=encoder,
            seed=trial,
        )
        if isinstance(encoder, AngleEncoding):
            inputs = [rng.uniform(0, 2 * math.pi, size=k) for _ in range(3)]
        else:
            inputs = list(rng.integers(0, 2**k, size=3))
        for p in _P_GRID:
            gamma = performance_degradation(model, inputs, depolarizing_global(p, 2**k))
            assert gamma <= 2.0 * p + 1e-9
            assert gamma <= 2.0 + 1e-12


@pytest.mark.parametrize("encoder", [BasisEncoding(), AngleEncoding()])
def test_degradation_builds_the_circuit_once(monkeypatch, encoder):
    rng = np.random.default_rng(3)
    for k in (1, 2, 3):
        model = random_model(k, classes=2, encoder=encoder, seed=k)
        if isinstance(encoder, AngleEncoding):
            inputs = [rng.uniform(0, 2 * math.pi, size=k) for _ in range(3)]
        else:
            inputs = [0, 2**k - 1, 1]
        ch = depolarizing_global(0.3, 2**k)
        want = max(
            float(np.sum(np.abs(classify_probabilities(model, x).probs
                                - classify_probabilities(model, x, ch).probs)))
            for x in inputs
        )
        built = []
        real = vqml_module.circuit_unitary

        def counted(m):
            built.append(m)
            return real(m)

        with monkeypatch.context() as mp:
            mp.setattr(vqml_module, "circuit_unitary", counted)
            assert performance_degradation(model, inputs, ch) == want
        assert len(built) == 1


def test_tradeoff_rows_worked_values():
    model = _angle_model(layers=(np.array([0.4, 0.9]),))
    inputs = [[math.pi / 3], [2 * math.pi / 3]]
    rows = tradeoff_curve(model, inputs, [0.5, 0.5], [0.5, 1.0])
    half, full = rows
    assert half.leakage_bound == pytest.approx(math.log2(5.0), abs=1e-12)
    assert half.gamma_bound == 1.0
    assert full.gamma_bound == 2.0
    assert full.leakage_B <= 1e-8 and full.leakage_R <= 1e-8
    assert full.leakage_bound == 0.0


def test_tradeoff_rows_satisfy_bound_invariants():
    model = random_model(2, layers=2, classes=2, seed=9)
    rows = tradeoff_curve(model, [0, 1, 3], [0.4, 0.3, 0.3], _P_GRID)
    bounds = [r.leakage_bound for r in rows]
    gammas = [r.gamma_bound for r in rows]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))  # cap decreasing in p
    assert all(a < b for a, b in zip(gammas, gammas[1:]))  # 2p increasing in p
    for r in rows:
        assert r.gamma_actual <= r.gamma_bound + 1e-9
        assert r.leakage_B <= r.leakage_R + 1e-9
        assert r.leakage_B <= r.leakage_bound + 1e-6
        assert r.leakage_R <= r.leakage_bound + 1e-6


def test_bound_identity_under_degradation_rewrite():
    for d in (2, 4, 8):
        for p in [0.1, 0.25, 0.5, 0.75, 0.9]:
            direct = math.log2(1.0 + 2.0 * (1.0 - p) * d / p)
            via_gamma = math.log2((1.0 - 2.0 * d) + 4.0 * d / (2.0 * p))
            assert abs(direct - via_gamma) <= 1e-12


def test_tradeoff_rejects_bad_grid(monkeypatch):
    model = _angle_model()
    solved = []
    real = vqml_module.depolarized_leakage

    def counted(e, p, *noisy):
        solved.append(p)
        return real(e, p, *noisy)

    monkeypatch.setattr(vqml_module, "depolarized_leakage", counted)
    with pytest.raises(ValidationError):
        tradeoff_curve(model, [[0.0]], [1.0], [0.0, 0.5])
    with pytest.raises(ValidationError):
        tradeoff_curve(model, [[0.0]], [1.0], [1.5])
    with pytest.raises(ValidationError):
        tradeoff_curve(model, [[0.0]], [1.0], [0.3, 0.0])
    assert solved == []  # the whole grid is checked before the first solve


def _unshared_row(model, inputs, prior, p):
    """Degradation, B and R with every state built, noised and decomposed on its own.

    Each intercepted state is its own pure circuit output U V_x|0...0>, and
    R is the eigen route's `pairwise_leakage` of their noisy states.
    """
    e = encode_ensemble(model, inputs, prior)
    u = circuit_unitary(model)
    outputs = tuple(DensityOperator.pure(u @ vqml_module._encode_state(model, x)) for x in inputs)
    intercepted = Ensemble(e.prior, outputs)
    b, _, _ = depolarized_leakage(intercepted, p)
    r = pairwise_leakage(apply_ensemble(depolarizing_global(p, model.dim), intercepted))
    return performance_degradation(model, inputs, depolarizing_global(p, model.dim)), b, r


def _assert_row_equals(row, model, inputs, prior):
    gamma, b, r = _unshared_row(model, inputs, prior, row.p)
    assert row.gamma_actual == gamma
    assert (row.leakage_B, row.barycentric.gap) == (b.value, b.gap)
    assert np.array_equal(row.barycentric.witness, b.witness)
    # The row's R is the closed form on the pure outputs for 0 < p < 1; r
    # comes from the eigen route, so the two agree to roundoff, not bitwise.
    assert abs(row.leakage_R - r.value) <= 1e-12


def _refuse_sandwiches(*args):
    raise AssertionError("max_relative_entropy_pairs called")


def _assert_tradeoff_decompositions(monkeypatch, qubits, want):
    model = VariationalModel(qubits, BasisEncoding(), (), basis_classifier(qubits))
    d = model.dim
    inputs, prior = list(range(d)), [1 / d] * d
    calls = []
    real = linalg_module.eigh_stack

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    for module in (linalg_module, divergences_module, sdp_module):
        monkeypatch.setattr(module, "eigh_stack", counted)
    for module in (divergences_module, leakage_module):
        monkeypatch.setattr(module, "max_relative_entropy_pairs", _refuse_sandwiches)
    (row,) = tradeoff_curve(model, inputs, prior, [0.3])
    # The circuit outputs and the noisy states are each one stack, and B scans
    # its LMIs once; at d = 16 B also lifts its point once.  R is the closed
    # form on the Gram matrix and decomposes nothing; its d(d-1) sandwiches
    # took 4 calls at d = 8 and 15 at d = 16.
    assert len(calls) == want
    assert calls[:2] == [(d, d, d)] * 2
    monkeypatch.undo()
    _assert_row_equals(row, model, inputs, prior)


def test_tradeoff_decomposes_each_shared_state_once(monkeypatch):
    _assert_tradeoff_decompositions(monkeypatch, 3, 3)


def test_tradeoff_decomposes_each_shared_state_once_at_d16(monkeypatch):
    _assert_tradeoff_decompositions(monkeypatch, 4, 4)


_LAYERED = pytest.mark.parametrize(
    "model, inputs, prior",
    [
        (random_model(2, layers=2, classes=2, seed=9), [0, 1, 3], [0.4, 0.3, 0.3]),
        (_angle_model(layers=(np.array([0.4, 0.9]),)), [[math.pi / 3], [2 * math.pi / 3]],
         [0.5, 0.5]),
        (random_model(3, layers=2, seed=4), list(range(8)), [1 / 8] * 8),
    ],
)


@_LAYERED
def test_tradeoff_rows_on_layered_models_equal_unshared_states(model, inputs, prior):
    for row in tradeoff_curve(model, inputs, prior, [0.1, 0.5, 0.9]):
        _assert_row_equals(row, model, inputs, prior)


@_LAYERED
def test_tradeoff_rows_agree_with_rotated_encoded_states(model, inputs, prior):
    # U rho_x U' is the circuit output U V_x|0> up to the last bits, so B may
    # move only within the two certified gaps and R by roundoff.
    e = encode_ensemble(model, inputs, prior)
    u = circuit_unitary(model)
    rotated = Ensemble(e.prior, tuple(
        DensityOperator.from_matrix(u @ s.mat @ u.conj().T) for s in e.states))
    for row in tradeoff_curve(model, inputs, prior, [0.1, 0.5, 0.9]):
        b, r, _ = depolarized_leakage(rotated, row.p)
        gamma = performance_degradation(model, inputs, depolarizing_global(row.p, model.dim))
        assert row.gamma_actual == gamma
        assert abs(row.leakage_B - b.value) <= row.barycentric.gap + b.gap
        assert abs(row.leakage_R - r.value) <= 1e-10


@_LAYERED
def test_tradeoff_r_never_decomposes_a_sandwich_below_p_one(monkeypatch, model, inputs, prior):
    # pairwise_leakage reaches D_max through leakage's binding.  B may still
    # scale an infeasible point by 2^D_max through divergences' own binding
    # (it does on the one-qubit model), so that one stays.  At p = 1 every
    # noisy state is I/d and R is 0.0 with no decomposition either.
    monkeypatch.setattr(leakage_module, "max_relative_entropy_pairs", _refuse_sandwiches)
    rows = tradeoff_curve(model, inputs, prior, [0.05, 0.3, 0.95, 1.0])
    monkeypatch.undo()
    assert rows[-1].leakage_R == 0.0
    for row in rows:
        _assert_row_equals(row, model, inputs, prior)


def test_tradeoff_r_of_repeated_inputs_is_exactly_zero():
    model = random_model(3, layers=2, encoder=AngleEncoding(), seed=2)
    x = [0.3, 1.7, 4.1]
    rows = tradeoff_curve(model, [x, x, x], [0.2, 0.3, 0.5], [0.05, 0.3, 0.95, 1.0])
    assert [row.leakage_R for row in rows] == [0.0] * 4
    basis = random_model(2, layers=0)
    assert tradeoff_curve(basis, [0, 1, 2, 3], [0.25] * 4, [1.0])[0].leakage_R == 0.0


def test_born_probabilities_equal_one_trace_per_element():
    for seed in range(6):
        model = random_model(1 + seed % 3, layers=1, classes=2 if seed % 2 else None, seed=seed)
        rho = DensityOperator.pure(circuit_unitary(model)[:, seed % model.dim])
        noisy = apply(depolarizing_global(0.3, model.dim), rho)
        want = [[float(np.einsum("ij,ji->", f.mat, state.mat).real)
                 for f in model.classifier.elements] for state in (rho, noisy)]
        got = vqml_module._born_rows(model, (rho, noisy))
        assert got.tolist() == np.clip(want, 0.0, None).tolist()
        alone = vqml_module._born_rows(model, (noisy,))
        assert alone.tolist() == got[1:].tolist()
        assert classify_probabilities(model, 0).probs.tolist() == vqml_module._born_rows(
            model, vqml_module._circuit_outputs(model, [0]))[0].tolist()


def test_basis_classifier_partitions_identity():
    povm = basis_classifier(2, classes=3)
    assert povm.count == 3
    total = sum(f.mat for f in povm.elements)
    assert np.allclose(total, np.eye(4), atol=1e-12)
    with pytest.raises(ValidationError):
        basis_classifier(1, classes=3)


def _per_element_classifier(qubits, classes):
    """The basis classifier built one element at a time, then checked as a POVM."""
    d = 2**qubits
    mats = [np.zeros((d, d), dtype=np.complex128) for _ in range(classes)]
    for x in range(d):
        mats[x % classes][x, x] = 1.0
    return Povm(tuple(HermitianOperator(m) for m in mats))


@pytest.mark.parametrize("qubits", range(1, 7))
def test_basis_classifier_equals_the_per_element_build(qubits):
    d = 2**qubits
    for classes in sorted({1, 2, min(3, d), d}):
        got, want = basis_classifier(qubits, classes), _per_element_classifier(qubits, classes)
        assert got.mats.tobytes() == want.mats.tobytes()
        assert len(got.elements) == len(want.elements) == classes
        for f, g in zip(got.elements, want.elements):
            assert f.mat.tobytes() == g.mat.tobytes()
            assert f.spectrum.eigenvalues.tobytes() == g.spectrum.eigenvalues.tobytes()
            assert f.spectrum.eigenvectors.tobytes() == g.spectrum.eigenvectors.tobytes()


def test_basis_classifier_validates_its_elements_as_one_stack(monkeypatch):
    calls = []
    for name in ("_hermitian_stack", "eigh_stack"):
        real = getattr(linalg_module, name)

        def counted(a, name=name, real=real):
            calls.append((name, np.shape(a)))
            return real(a)

        monkeypatch.setattr(linalg_module, name, counted)
    basis_classifier(3, classes=3)
    # Element by element, each matrix was symmetrised once more on its own.
    assert calls == [("_hermitian_stack", (3, 8, 8)), ("eigh_stack", (3, 8, 8))]


def test_povm_stack_raises_what_povm_raises():
    skew = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(np.complex128)
    skew[1, 0, 1] = 0.1
    short = np.stack([np.eye(2) * 0.5, np.eye(2) * 0.4]).astype(np.complex128)
    negative = np.stack([np.diag([1.2, 1.0]), np.diag([-0.2, 0.0])]).astype(np.complex128)
    for mats in (skew, short, negative):
        with pytest.raises(ValidationError) as by_element:
            Povm(tuple(HermitianOperator(m) for m in mats))
        with pytest.raises(ValidationError) as by_stack:
            Povm.stack(mats)
        assert str(by_stack.value) == str(by_element.value)


@pytest.mark.parametrize("qubits", range(1, 7))
def test_basis_model_tradeoff_makes_no_simplex_pivot(monkeypatch, qubits):
    # Every noisy output is diagonal in the computational basis, and each
    # owns the cut of its own basis vector, so B's first LP starts at its
    # optimal vertex and closes there.
    model = VariationalModel(qubits, BasisEncoding(), (), basis_classifier(qubits))
    d = model.dim
    pivots = []
    real = sdp_module.resume_phase2

    def counted(*args):
        res = real(*args)
        pivots.append(res.iterations)
        return res

    monkeypatch.setattr(sdp_module, "resume_phase2", counted)
    rows = tradeoff_curve(model, list(range(d)), [1 / d] * d, [0.05, 0.37, 1.0])
    assert pivots == [0, 0, 0]
    assert [row.barycentric.iterations for row in rows] == [1, 1, 1]


def test_custom_povm_classifier_roundtrips():
    half = HermitianOperator(np.eye(2) * 0.5)
    model = VariationalModel(1, BasisEncoding(), (), Povm((half, half)))
    probs = classify_probabilities(model, 0).probs
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)
