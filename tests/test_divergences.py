"""Classical and quantum Renyi divergences against closed-form values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qleak.divergences as divergences_module
import qleak.linalg as linalg_module
from qleak.channels import apply, depolarizing_global
from qleak.divergences import (
    ORDER_INF,
    ORDER_ONE,
    ConditionalKernel,
    ProbVector,
    max_relative_entropies,
    max_relative_entropy_pairs,
    petz_renyi,
    relative_entropy,
    renyi_classical,
    sandwiched_renyi,
    sibson_information,
)
from qleak.errors import DimensionMismatch, ValidationError
from qleak.linalg import (
    DensityOperator,
    HermitianOperator,
    _spectrum_power,
    eig_hermitian,
    random_density,
    random_unitary,
)


def _dist(rng, n):
    raw = rng.uniform(0.05, 1.0, size=n)
    return raw / raw.sum()


def test_prob_vector_validation():
    with pytest.raises(ValidationError):
        ProbVector(np.array([0.5, 0.6]))
    with pytest.raises(ValidationError):
        ProbVector(np.array([1.2, -0.2]))
    with pytest.raises(ValidationError):
        ProbVector(np.array([]))
    assert len(ProbVector(np.array([0.25, 0.75]))) == 2


def test_conditional_kernel_requires_row_stochastic():
    with pytest.raises(ValidationError):
        ConditionalKernel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    k = ConditionalKernel(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert k.inputs == 2 and k.outputs == 2


def test_classical_renyi_known_values():
    p = [1.0, 0.0]
    q = [0.5, 0.5]
    assert renyi_classical(p, q, ORDER_INF) == pytest.approx(1.0)
    assert renyi_classical(p, q, 2.0) == pytest.approx(1.0)
    assert renyi_classical(p, q, ORDER_ONE) == pytest.approx(1.0)
    assert renyi_classical([0.75, 0.25], [0.5, 0.5], ORDER_INF) == pytest.approx(
        math.log2(1.5)
    )
    assert renyi_classical(q, p, 2.0) == math.inf


def test_classical_renyi_support_and_identity():
    assert renyi_classical([0.5, 0.5], [0.5, 0.5], 3.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        renyi_classical([1.0], [0.5, 0.5], 2.0)
    for entry in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="^reference vector has a non-finite entry$"):
            renyi_classical([0.5, 0.5], [entry, 0.5], 2.0)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10**6),
    n=st.integers(2, 6),
    a1=st.floats(0.2, 50.0),
    a2=st.floats(0.2, 50.0),
)
def test_classical_renyi_monotone_in_order(seed, n, a1, a2):
    rng = np.random.default_rng(seed)
    p, q = _dist(rng, n), _dist(rng, n)
    lo, hi = min(a1, a2), max(a1, a2)
    assert renyi_classical(p, q, lo) <= renyi_classical(p, q, hi) + 1e-9
    assert renyi_classical(p, q, hi) <= renyi_classical(p, q, ORDER_INF) + 1e-9
    assert renyi_classical(p, q, lo) >= -1e-12


def test_sibson_information_closed_forms():
    prior = [0.5, 0.5]
    kernel = ConditionalKernel(np.array([[0.75, 0.25], [0.25, 0.75]]))
    assert sibson_information(prior, kernel, ORDER_INF) == pytest.approx(
        math.log2(1.5)
    )
    # order one reduces to mutual information
    mi = 1.0 - (-(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25)))
    assert sibson_information(prior, kernel, ORDER_ONE) == pytest.approx(mi, abs=1e-12)
    ident = ConditionalKernel(np.eye(3))
    assert sibson_information([1 / 3] * 3, ident, ORDER_INF) == pytest.approx(
        math.log2(3)
    )


def test_sibson_information_ignores_prior_at_infinite_order_on_support():
    kernel = ConditionalKernel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    a = sibson_information([0.5, 0.5], kernel, ORDER_INF)
    b = sibson_information([0.9, 0.1], kernel, ORDER_INF)
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
def test_sibson_information_at_finite_orders(alpha):
    # I_alpha(X; X) is the Renyi entropy H_{1/alpha}(X); identical rows leak nothing.
    prior = np.array([0.5, 0.3, 0.2])
    beta = 1.0 / alpha
    renyi_entropy = math.log2(np.sum(prior**beta)) / (1.0 - beta)
    got = sibson_information(prior, ConditionalKernel(np.eye(3)), alpha)
    assert got == pytest.approx(renyi_entropy, abs=1e-12)
    same = ConditionalKernel(np.tile([0.6, 0.3, 0.1], (3, 1)))
    assert sibson_information(prior, same, alpha) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_diagonal_matches_classical():
    rho = DensityOperator.from_matrix(np.diag([0.75, 0.25]))
    sigma = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
    expect = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)
    assert relative_entropy(rho, sigma) == pytest.approx(expect, abs=1e-12)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_off_support_is_infinite():
    rho = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
    sigma = DensityOperator.pure([1.0, 0.0])
    assert relative_entropy(rho, sigma) == math.inf


def test_renyi_divergences_off_support_and_at_order_one():
    zero, one = DensityOperator.pure([1.0, 0.0]), DensityOperator.pure([0.0, 1.0])
    mixed = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
    # mixed escapes the support of zero; zero and one have disjoint supports.
    assert sandwiched_renyi(mixed, zero, 2.0) == math.inf
    assert sandwiched_renyi(zero, one, 0.5) == math.inf
    assert petz_renyi(zero, one, ORDER_INF) == math.inf
    assert petz_renyi(zero, one, 0.5) == math.inf
    assert petz_renyi(mixed, zero, 2.0) == math.inf
    rho = DensityOperator.from_matrix(np.diag([0.75, 0.25]))
    want = relative_entropy(rho, mixed)
    assert sandwiched_renyi(rho, mixed, ORDER_ONE) == want
    assert petz_renyi(rho, mixed, ORDER_ONE) == want


def test_sandwiched_infinite_order_is_max_relative_entropy():
    rho = DensityOperator.from_matrix(np.diag([0.75, 0.25]))
    sigma = DensityOperator.from_matrix(np.diag([0.5, 0.5]))
    assert sandwiched_renyi(rho, sigma, ORDER_INF) == pytest.approx(math.log2(1.5))
    assert sandwiched_renyi(sigma, rho, ORDER_INF) == pytest.approx(math.log2(2.0))
    ket = DensityOperator.pure([1.0, 0.0])
    assert sandwiched_renyi(ket, sigma, ORDER_INF) == pytest.approx(1.0)
    assert sandwiched_renyi(sigma, ket, ORDER_INF) == math.inf


def test_sandwiched_renyi_reduces_to_classical_on_diagonals():
    p = [0.6, 0.3, 0.1]
    q = [0.2, 0.5, 0.3]
    rho = DensityOperator.from_matrix(np.diag(p))
    sigma = DensityOperator.from_matrix(np.diag(q))
    for order in (0.5, 2.0, 7.0, ORDER_INF):
        assert sandwiched_renyi(rho, sigma, order) == pytest.approx(
            renyi_classical(p, q, order), abs=1e-9
        )
        assert petz_renyi(rho, sigma, order) == pytest.approx(
            renyi_classical(p, q, order), abs=1e-9
        )


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 4))
def test_sandwiched_at_most_petz(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, dim, int(rng.integers(0, 2**31)))
    sigma = random_density(dim, dim, int(rng.integers(0, 2**31)))
    for order in (0.6, 2.0, 5.0):
        assert sandwiched_renyi(rho, sigma, order) <= petz_renyi(rho, sigma, order) + 1e-9


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 4))
def test_sandwiched_monotone_in_order_and_unitary_invariant(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(dim, dim, int(rng.integers(0, 2**31)))
    sigma = random_density(dim, dim, int(rng.integers(0, 2**31)))
    values = [sandwiched_renyi(rho, sigma, a) for a in (0.7, 1.5, 4.0, 30.0)]
    values.append(sandwiched_renyi(rho, sigma, ORDER_INF))
    for lo, hi in zip(values, values[1:]):
        assert lo <= hi + 1e-8
    u = random_unitary(dim, seed=int(rng.integers(0, 2**31)))
    rot = sandwiched_renyi(
        DensityOperator.from_matrix(u @ rho.mat @ u.conj().T),
        DensityOperator.from_matrix(u @ sigma.mat @ u.conj().T),
        2.0,
    )
    assert rot == pytest.approx(sandwiched_renyi(rho, sigma, 2.0), abs=1e-8)


def test_large_order_approaches_infinite_order():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rho = random_density(3, int(rng.integers(1, 4)), int(rng.integers(0, 2**31)))
        sigma = random_density(3, 3, int(rng.integers(0, 2**31)))
        far = sandwiched_renyi(rho, sigma, 1000.0)
        lim = sandwiched_renyi(rho, sigma, ORDER_INF)
        assert abs(far - lim) <= 1e-2


def test_order_validation():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValidationError):
        sandwiched_renyi(rho, rho, 0.0)
    with pytest.raises(ValidationError):
        sandwiched_renyi(rho, rho, -2.0)


def _dmax_oracle(rho, sigma):
    """log2 lambda_max(sigma^-1/2 rho sigma^-1/2) with the inverse on supp(sigma)."""
    w, v = np.linalg.eigh(sigma.mat)
    on = w > 1e-9 * w[-1]
    root = (v[:, on] / np.sqrt(w[on])) @ v[:, on].conj().T
    return math.log2(np.linalg.eigvalsh(root @ rho.mat @ root)[-1])


def test_max_relative_entropy_of_a_state_against_itself_is_exactly_zero():
    a = random_density(4, 4, seed=3)
    assert max_relative_entropies([a], a) == [0.0]
    assert max_relative_entropies([DensityOperator.from_matrix(a.mat.copy())], a) == [0.0]
    half = apply(depolarizing_global(0.5, 2), DensityOperator.maximally_mixed(2))
    assert max_relative_entropies([half], half) == [0.0]


def test_max_relative_entropies_match_eigh_oracle():
    u = random_unitary(4, seed=5)
    full = random_density(4, 4, seed=6)
    # Rank 3, with a rho inside its support and one leaking out of it.
    sigma = DensityOperator.from_matrix(u @ np.diag([0.5, 0.3, 0.2, 0.0]) @ u.conj().T)
    block = np.zeros((4, 4), dtype=np.complex128)
    block[:3, :3] = random_density(3, 3, seed=7).mat
    inside = DensityOperator.from_matrix(u @ block @ u.conj().T)
    escaping = random_density(4, 2, seed=8)

    (on_full,) = max_relative_entropies([escaping], full)
    assert on_full == pytest.approx(_dmax_oracle(escaping, full), abs=1e-9)
    finite, leaking = max_relative_entropies([inside, escaping], sigma)
    assert finite == pytest.approx(_dmax_oracle(inside, sigma), abs=1e-9)
    assert leaking == math.inf
    assert sandwiched_renyi(inside, sigma, ORDER_INF) == finite
    assert sandwiched_renyi(escaping, sigma, ORDER_INF) == math.inf


def test_max_relative_entropies_decompose_in_slices_of_sixteen(monkeypatch):
    u = random_unitary(3, seed=11)
    sigma = DensityOperator.from_matrix(u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T)
    block = np.zeros((3, 3), dtype=np.complex128)
    inside = []
    for s in range(18):
        block[:2, :2] = random_density(2, 1 + s % 2, seed=20 + s).mat
        inside.append(DensityOperator.from_matrix(u @ block @ u.conj().T))
    escaping = random_density(3, 3, seed=40)
    rhos = inside[:9] + [sigma, escaping] + inside[9:]  # m = 18 left to decompose
    root = _spectrum_power(eig_hermitian(sigma), -0.5).mat
    want = [math.log2(eig_hermitian(HermitianOperator(root @ r.mat @ root)).max) for r in inside]
    want = want[:9] + [0.0, math.inf] + want[9:]
    calls = []
    real = linalg_module.eigh_stack

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg_module, "eigh_stack", counted)
    monkeypatch.setattr(divergences_module, "eigh_stack", counted)
    assert max_relative_entropies(rhos, sigma) == want
    # sigma's spectrum was kept at its validation: ceil(18 / 16) slices only.
    assert calls == [(16, 3, 3), (2, 3, 3)]
    calls.clear()
    # A raw-array sigma is decomposed once, before the slices.
    assert max_relative_entropies(rhos, sigma.mat.copy()) == want
    assert calls == [(3, 3), (16, 3, 3), (2, 3, 3)]


def test_a_full_rank_reference_skips_the_support_check(monkeypatch):
    states = [random_density(3, 3, seed=s) for s in range(4)]
    want = max_relative_entropies(states, states[0])

    def refuse(spec, r):
        raise AssertionError("full-rank sigma contains every support")

    monkeypatch.setattr(divergences_module, "_spectrum_contains", refuse)
    assert max_relative_entropies(states, states[0]) == want
    assert want[0] == 0.0 and all(math.isfinite(v) for v in want)


def test_max_relative_entropies_reject_a_non_hermitian_raw_array():
    sigma = random_density(2, 2, seed=1)
    with pytest.raises(ValidationError, match="not Hermitian"):
        max_relative_entropies([np.array([[0.5, 0.1], [0.0, 0.5]])], sigma)
    with pytest.raises(ValidationError, match="non-finite"):
        max_relative_entropies([sigma, np.array([[0.5, math.nan], [math.nan, 0.5]])], sigma)


def test_max_relative_entropy_pairs_decompose_each_reference_once(monkeypatch):
    states = [random_density(3, 3, seed=s) for s in range(3)] + [random_density(3, 1, seed=9)]
    pairs = [(1, 0), (3, 2), (0, 1), (2, 0), (2, 2), (0, 3)]
    want = [sandwiched_renyi(states[i], states[j], ORDER_INF) for i, j in pairs]
    references, calls = [], []
    real_spectrum, real_eigh = divergences_module._psd_spectrum, linalg_module.eigh_stack

    def read(name, h):
        references.append(h)
        return real_spectrum(name, h)

    def counted(a):
        calls.append(np.shape(a))
        return real_eigh(a)

    monkeypatch.setattr(divergences_module, "_psd_spectrum", read)
    monkeypatch.setattr(linalg_module, "eigh_stack", counted)
    monkeypatch.setattr(divergences_module, "eigh_stack", counted)
    assert max_relative_entropy_pairs(states, pairs) == want
    assert want[4] == 0.0 and want[5] == math.inf
    # References 0, 2, 1, 3 in order of first use, each read once from its kept
    # spectrum; the four sandwiches left after the 0 and inf pairs share one call.
    assert len(references) == 4
    assert all(r is states[j] for r, j in zip(references, (0, 2, 1, 3)))
    assert calls == [(4, 3, 3)]
    assert max_relative_entropy_pairs(states, []) == []
    # 30 ordered pairs of full-rank states: one call per 16 sandwiches.
    full = [random_density(3, 3, seed=20 + s) for s in range(6)]
    every = [(i, j) for i in range(6) for j in range(6) if i != j]
    want = [sandwiched_renyi(full[i], full[j], ORDER_INF) for i, j in every]
    references.clear()
    calls.clear()
    assert max_relative_entropy_pairs(full, every) == want
    assert len(references) == 6
    assert all(r is full[j] for r, j in zip(references, (1, 2, 3, 4, 5, 0)))
    assert calls == [(16, 3, 3), (14, 3, 3)]
