"""Kraus channels, depolarizing factories, and the DP consequence check."""

import math
from dataclasses import replace

import numpy as np
import pytest

import qleak.channels as channels_module
from helpers import random_ensemble
from qleak.channels import (
    AllPairs,
    DpParams,
    ExplicitPairs,
    QuantumChannel,
    TraceDistanceNeighbours,
    apply,
    apply_ensemble,
    compose,
    depolarized_leakage,
    depolarizing_global,
    depolarizing_local,
    dp_epsilon_bound_depolarizing,
    identity_channel,
    leakage_after_channel,
    random_channel,
    tensor,
    verify_dp_on_ensemble,
)
from qleak.errors import (
    ChainViolationError,
    DimensionMismatch,
    UnsupportedModeError,
    ValidationError,
)
from qleak.leakage import Ensemble, pairwise_leakage
from qleak.linalg import DensityOperator, random_density


def _diag_pair():
    return Ensemble.uniform(
        (
            DensityOperator.from_matrix(np.diag([0.75, 0.25])),
            DensityOperator.from_matrix(np.diag([0.25, 0.75])),
        )
    )


def test_channel_requires_trace_preserving_kraus():
    with pytest.raises(ValidationError):
        QuantumChannel((np.eye(2) * 0.5,))
    with pytest.raises(ValidationError):
        QuantumChannel(())
    ch = identity_channel(3)
    assert ch.in_dim == ch.out_dim == 3


def test_apply_checks_dimensions_and_preserves_unitals():
    ch = depolarizing_global(0.3, 2)
    with pytest.raises(DimensionMismatch):
        apply(ch, DensityOperator.maximally_mixed(3))
    mixed = DensityOperator.maximally_mixed(2)
    assert np.allclose(apply(ch, mixed).mat, mixed.mat, atol=1e-12)


def test_depolarizing_action_matches_affine_formula():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        for p in (0.0, 0.4, 1.0):
            ch = depolarizing_global(p, d)
            rho = random_density(d, d, int(rng.integers(2**31)))
            out = apply(ch, rho).mat
            want = (1.0 - p) * rho.mat + (p / d) * np.eye(d)
            assert np.allclose(out, want, atol=1e-10)
    with pytest.raises(ValidationError):
        depolarizing_global(1.2, 2)
    with pytest.raises(ValidationError):
        depolarizing_global(-0.1, 2)


def test_depolarizing_worked_example():
    out = apply(depolarizing_global(0.5, 2), DensityOperator.from_matrix(np.diag([0.75, 0.25])))
    assert np.allclose(out.mat, np.diag([0.625, 0.375]), atol=1e-12)


def test_local_depolarizing_equals_tensor_of_single_qubit_maps():
    loc = depolarizing_local(0.3, 2)
    assert loc.in_dim == 4 and len(loc.kraus) == 16
    single = depolarizing_global(0.3, 2)
    both = tensor(single, single)
    rho = random_density(4, 3, seed=5)
    assert np.allclose(apply(loc, rho).mat, apply(both, rho).mat, atol=1e-12)
    with pytest.raises(ValidationError):
        depolarizing_local(0.3, 7)
    with pytest.raises(ValidationError):
        depolarizing_local(0.3, 0)
    with pytest.raises(ValidationError):
        depolarizing_local(1.2, 2)
    with pytest.raises(ValidationError):
        depolarizing_local(-0.1, 2)


def _kraus_sum(ch, mat):
    return sum(k @ mat @ k.conj().T for k in ch.kraus)


def test_depolarizing_apply_equals_its_kraus_sum():
    rng = np.random.default_rng(11)
    channels = [(d, depolarizing_global, d) for d in (2, 3, 5, 8)]
    channels += [(2**k, depolarizing_local, k) for k in (1, 2, 3)]
    for dim, factory, size in channels:
        for p in (0.0, 0.4, 1.0):
            ch = factory(p, size)
            rho = random_density(dim, int(rng.integers(2, dim + 1)), int(rng.integers(2**31)))
            assert np.max(np.abs(apply(ch, rho).mat - _kraus_sum(ch, rho.mat))) <= 1e-12


def _pauli_twirl_each_qubit(mat, p, k):
    """Reference for depolarizing_local: (1-p) rho + (p/4) sum_P P_q rho P_q, qubit by qubit."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    for q in range(k):
        lifted = [np.kron(np.kron(np.eye(2**q), s), np.eye(2 ** (k - q - 1))) for s in paulis]
        mat = (1.0 - p) * mat + (p / 4.0) * sum(u @ mat @ u.conj().T for u in lifted)
    return mat


def test_large_depolarizing_apply_builds_no_kraus(monkeypatch):
    def refuse(d):
        raise AssertionError(f"built the {d * d} Weyl Kraus operators")

    monkeypatch.setattr(channels_module, "_weyl_operators", refuse)
    rho = random_density(64, 5, seed=12)
    out = apply(depolarizing_global(0.3, 64), rho).mat
    assert np.allclose(out, 0.7 * rho.mat + (0.3 / 64) * np.eye(64), atol=1e-12)
    out = apply(depolarizing_local(0.3, 6), rho).mat
    assert np.allclose(out, _pauli_twirl_each_qubit(rho.mat, 0.3, 6), atol=1e-12)


def test_compose_and_tensor_stay_trace_preserving():
    a = random_channel(3, seed=1)
    b = random_channel(3, seed=2)
    c = compose(a, b)  # constructor revalidates the Kraus sum
    rho = random_density(3, 3, seed=3)
    assert np.allclose(apply(c, rho).mat, apply(a, apply(b, rho)).mat, atol=1e-10)
    t = tensor(a, depolarizing_global(0.5, 2))
    assert t.in_dim == 6
    sigma, tau = random_density(3, 3, seed=5), random_density(2, 2, seed=9)
    out = apply(t, DensityOperator.from_matrix(np.kron(sigma.mat, tau.mat))).mat
    want = np.kron(apply(a, sigma).mat, 0.5 * tau.mat + 0.25 * np.eye(2))
    assert np.allclose(out, want, atol=1e-10)
    inner = random_channel(2, seed=6)
    noisy = compose(depolarizing_local(0.4, 1), inner)
    want = apply(depolarizing_local(0.4, 1), apply(inner, tau)).mat
    assert np.allclose(apply(noisy, tau).mat, want, atol=1e-10)
    with pytest.raises(DimensionMismatch):
        compose(a, random_channel(2, seed=4))


def test_dp_epsilon_bound_values_and_monotonicity():
    assert dp_epsilon_bound_depolarizing(0.5, 2) == pytest.approx(math.log(5.0))
    assert dp_epsilon_bound_depolarizing(0.0, 2) == math.inf
    assert dp_epsilon_bound_depolarizing(1.0, 4) == 0.0
    for d in (2, 4, 8):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        vals = [dp_epsilon_bound_depolarizing(p, d) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    # heavy noise pushes the bound below 0.2 bits
    assert dp_epsilon_bound_depolarizing(0.99, 2) / math.log(2.0) < 0.2
    with pytest.raises(ValidationError):
        dp_epsilon_bound_depolarizing(0.5, 1)


def test_verify_dp_reports_pairs_and_verdicts():
    ch = depolarizing_global(0.5, 2)
    e = _diag_pair()
    report = verify_dp_on_ensemble(ch, e, DpParams(epsilon_nats=math.log(5.0)))
    assert report.passed
    assert report.max_divergence_bits == pytest.approx(math.log2(5.0 / 3.0), abs=1e-9)
    assert report.epsilon_bits == pytest.approx(math.log2(5.0))
    assert len(report.pairs) == 2
    assert "necessary" in report.note
    tight = verify_dp_on_ensemble(ch, e, DpParams(epsilon_nats=0.4))
    assert not tight.passed
    assert any(not r.passed for r in tight.pairs)


def test_verify_dp_rejects_positive_delta():
    with pytest.raises(UnsupportedModeError):
        verify_dp_on_ensemble(
            depolarizing_global(0.5, 2), _diag_pair(), DpParams(epsilon_nats=1.0, delta=0.1)
        )


def test_verify_dp_refuses_a_lone_state():
    lone = Ensemble.uniform((DensityOperator.maximally_mixed(2),))
    for relation in (AllPairs(), TraceDistanceNeighbours(kappa=2.0), ExplicitPairs(((0, 0),))):
        with pytest.raises(ValidationError, match="selects no pair of distinct states"):
            verify_dp_on_ensemble(
                depolarizing_global(0.5, 2), lone,
                DpParams(epsilon_nats=0.0, neighbouring=relation),
            )


def test_verify_dp_refuses_a_relation_that_selects_no_pair():
    # The diagonal pair lies 0.5 apart in trace distance.
    ch, e = depolarizing_global(0.5, 2), _diag_pair()
    for relation in (TraceDistanceNeighbours(kappa=0.1), ExplicitPairs(((1, 1), (0, 0)))):
        with pytest.raises(ValidationError) as err:
            verify_dp_on_ensemble(ch, e, DpParams(epsilon_nats=5.0, neighbouring=relation))
        assert str(err.value) == (
            f"neighbouring {relation!r} selects no pair of distinct states"
        )
    # A reflexive pair beside a distinct one is checked as listed.
    report = verify_dp_on_ensemble(
        ch, e, DpParams(epsilon_nats=5.0, neighbouring=ExplicitPairs(((0, 0), (0, 1))))
    )
    assert [(r.x, r.x_prime) for r in report.pairs] == [(0, 0), (0, 1)]
    assert report.pairs[0].divergence_bits == 0.0


@pytest.mark.parametrize("relation", [object(), "all_pairs", None])
def test_verify_dp_rejects_an_object_that_is_not_a_relation(relation):
    with pytest.raises(UnsupportedModeError, match="unknown neighbouring relationship"):
        verify_dp_on_ensemble(
            depolarizing_global(0.5, 2), _diag_pair(),
            DpParams(epsilon_nats=1.0, neighbouring=relation),
        )


def test_neighbouring_relations_select_pairs():
    states = (
        DensityOperator.pure([1.0, 0.0]),
        DensityOperator.pure([0.0, 1.0]),
        DensityOperator.from_matrix(np.diag([0.6, 0.4])),
    )
    e = Ensemble.uniform(states)
    ch = depolarizing_global(0.5, 2)
    near = verify_dp_on_ensemble(
        ch, e, DpParams(epsilon_nats=5.0, neighbouring=TraceDistanceNeighbours(kappa=1.0))
    )
    assert {(r.x, r.x_prime) for r in near.pairs} == {(0, 2), (2, 0)}
    everyone = verify_dp_on_ensemble(
        ch, e, DpParams(epsilon_nats=5.0, neighbouring=AllPairs())
    )
    assert len(everyone.pairs) == 6
    chosen = verify_dp_on_ensemble(
        ch, e, DpParams(epsilon_nats=5.0, neighbouring=ExplicitPairs(pairs=((0, 1),)))
    )
    assert [(r.x, r.x_prime) for r in chosen.pairs] == [(0, 1)]
    assert ExplicitPairs(((1, 0), (0, 1), (1, 0), (0, 1))).pairs == ((1, 0), (0, 1))
    repeated = verify_dp_on_ensemble(
        ch, e, DpParams(epsilon_nats=5.0, neighbouring=ExplicitPairs(pairs=((0, 1), (0, 1))))
    )
    assert repeated == chosen
    with pytest.raises(ValidationError):
        verify_dp_on_ensemble(
            ch, e, DpParams(epsilon_nats=5.0, neighbouring=ExplicitPairs(pairs=((0, 9),)))
        )
    with pytest.raises(ValidationError):
        TraceDistanceNeighbours(kappa=0.0)
    with pytest.raises(ValidationError, match="at least one pair"):
        ExplicitPairs(())


def test_dp_params_validation():
    with pytest.raises(ValidationError):
        DpParams(epsilon_nats=-1.0)
    with pytest.raises(ValidationError):
        DpParams(epsilon_nats=1.0, delta=1.5)


def test_leakage_after_channel_respects_depolarizing_cap():
    e = _diag_pair()
    b, r = leakage_after_channel(depolarizing_global(0.5, 2), e)
    assert r.value == pytest.approx(math.log2(5.0 / 3.0), abs=1e-9)
    assert b.value == pytest.approx(math.log2(1.25), abs=1e-7)
    bound = math.log2(5.0)
    assert b.value <= bound and r.value <= bound
    b1, r1 = leakage_after_channel(depolarizing_global(1.0, 2), e)
    assert b1.value <= 1e-8 and r1.value <= 1e-8
    b2, r2, eps = depolarized_leakage(e, 0.5)
    assert (b2.value, r2.value, eps) == (b.value, r.value, dp_epsilon_bound_depolarizing(0.5, 2))
    b0, r0, eps0 = depolarized_leakage(e, 0.0)  # no noise: no cap to check
    assert eps0 == math.inf and r0.value == pytest.approx(math.log2(3.0), abs=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_local_noise_on_opposite_basis_states_matches_closed_forms(k, p):
    # Each qubit of |0...0> and |1...1> becomes diag(1 - p/2, p/2) or its
    # reverse; the global d = 2^k cap is below this R for k >= 2 at small p.
    d = 2**k
    ends = []
    for x in (0, d - 1):
        vec = np.zeros(d, dtype=np.complex128)
        vec[x] = 1.0
        ends.append(DensityOperator.pure(vec))
    b, r = leakage_after_channel(depolarizing_local(p, k), Ensemble.uniform(tuple(ends)))
    assert r.value == pytest.approx(k * math.log2((2.0 - p) / p), abs=1e-9)
    assert abs(b.value - (1.0 - math.log2(1.0 + (p / (2.0 - p)) ** k))) <= b.gap + 1e-9


@pytest.mark.parametrize("kind", ["pairwise", "barycentric"])
def test_depolarized_leakage_enforces_the_cap(monkeypatch, kind):
    bound = math.log2(5.0)  # p = 0.5, d = 2
    real = getattr(channels_module, f"{kind}_leakage")
    shifted = {}

    def above_cap(noisy, **kwargs):
        return replace(real(noisy, **kwargs), **shifted)

    monkeypatch.setattr(channels_module, f"{kind}_leakage", above_cap)
    shifted.update(value=bound + 1e-3)
    with pytest.raises(ChainViolationError, match=f"{kind} leakage"):
        depolarized_leakage(_diag_pair(), 0.5)
    if kind == "barycentric":
        # B may pass the cap by its certified gap, and no further.
        shifted.update(value=bound + 0.5, gap=0.5)
        depolarized_leakage(_diag_pair(), 0.5)
        shifted.update(value=bound + 0.5 + 1e-3)
        with pytest.raises(ChainViolationError, match="barycentric leakage"):
            depolarized_leakage(_diag_pair(), 0.5)


def _pure_ensemble(rng, n, d):
    """n seeded complex Gaussian pure states (no two orthogonal) under the uniform prior."""
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return Ensemble.uniform(DensityOperator.pure_stack(rows))


@pytest.mark.parametrize("d", [2, 4, 8, 16, 32, 64])
def test_depolarized_pure_pairwise_matches_the_eigen_route(d):
    # pairwise_leakage, which decomposes every pair's sandwich, is the oracle.
    rng = np.random.default_rng(d)
    for n in range(1, 9):
        e = _pure_ensemble(rng, n, d)
        if n >= 3:  # one state close to another: an overlap near 1
            rows = [s.spectrum.eigenvectors[:, -1] for s in e.states]
            rows[-1] = rows[0] + 1e-3 * rows[1]
            e = Ensemble.uniform(DensityOperator.pure_stack(rows))
        for p in (0.05, 0.3, 0.95):
            want = pairwise_leakage(apply_ensemble(depolarizing_global(p, d), e))
            got = channels_module._depolarized_pure_pairwise(e, p)
            assert abs(got.value - want.value) <= 1e-12
            assert (got.kind, got.gap, got.status) == (want.kind, want.gap, want.status)
            if n == 1:
                assert (got.value, got.witness) == (0.0, (0, 0))


def test_depolarized_pure_pairwise_witness_is_the_first_least_overlap():
    d, p = 4, 0.3
    e0, e1 = np.eye(d)[:2]
    e = Ensemble.uniform(DensityOperator.pure_stack([e0, e0 + e1, e1, e1]))
    r = channels_module._depolarized_pure_pairwise(e, p)
    assert r.witness == (0, 2)  # (0, 2) and (0, 3) are orthogonal; (0, 2) comes first
    assert r.value == pytest.approx(math.log2(1.0 + (1.0 - p) * d / p), abs=1e-12)


def test_depolarized_pure_pairwise_of_duplicates_is_exactly_zero():
    rng = np.random.default_rng(11)
    for d in (2, 8, 64):
        for n in (2, 3, 5):
            row = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            e = Ensemble.uniform(DensityOperator.pure_stack([row] * n))
            for p in (0.05, 0.3, 0.95):
                assert channels_module._depolarized_pure_pairwise(e, p).value == 0.0
                assert depolarized_leakage(e, p)[1].value == 0.0


def test_depolarized_leakage_takes_the_closed_form_only_where_it_holds(monkeypatch):
    e = _pure_ensemble(np.random.default_rng(4), 4, 8)
    routes = []
    real = channels_module.pairwise_leakage

    def eigen_route(noisy):
        routes.append(noisy)
        return real(noisy)

    monkeypatch.setattr(channels_module, "pairwise_leakage", eigen_route)
    for p in (0.05, 0.5, 0.95):
        _, r, _ = depolarized_leakage(e, p)
        assert r == channels_module._depolarized_pure_pairwise(e, p)
    assert routes == []
    # p = 1 maps every state to I/d, so R is exactly 0 on any ensemble, with
    # pairwise_leakage's witness for all-zero divergences and no route taken.
    # The eigen route on the noisy states reads roundoff there.
    mixed = Ensemble.uniform((*e.states[:3], DensityOperator.maximally_mixed(8)))
    for ensemble in (e, mixed, random_ensemble(8, 4, seed=5)):
        _, r, _ = depolarized_leakage(ensemble, 1.0)
        assert (r.value, r.witness, r.gap, r.status) == (0.0, (0, 1), 0.0, "optimal")
    lone = Ensemble.uniform(e.states[:1])
    assert depolarized_leakage(lone, 1.0)[1].witness == (0, 0)
    assert routes == []
    # The floor p/d under the support threshold: the noisy states have a
    # kernel, and the eigen route refuses p.
    with pytest.raises(ValidationError) as err:
        depolarized_leakage(e, 1e-12)
    assert str(err.value) == (
        "depolarizing strength p = 1e-12 is too small to resolve at d = 8: the noise "
        "floor p/d falls under SUPPORT_RTOL = 1e-09 of the top eigenvalue"
    )
    assert len(routes) == 1
    # One mixed state sends R to the eigen route.
    depolarized_leakage(mixed, 0.5)
    assert len(routes) == 2


def test_full_depolarizing_washes_out_dp_distinctions():
    report = verify_dp_on_ensemble(
        depolarizing_global(1.0, 2), _diag_pair(), DpParams(epsilon_nats=0.0)
    )
    assert report.passed and report.max_divergence_bits <= 1e-9


def test_channel_composition_only_reduces_leakage():
    e = random_ensemble(2, 3, seed=8)
    first = random_channel(2, seed=11)
    second = random_channel(2, seed=12)
    once = apply_ensemble(first, e)
    twice = apply_ensemble(second, once)
    from qleak.leakage import pairwise_leakage

    assert pairwise_leakage(twice).value <= pairwise_leakage(once).value + 1e-7
    assert pairwise_leakage(once).value <= pairwise_leakage(e).value + 1e-7


@pytest.mark.parametrize(
    "channel",
    [random_channel(4, seed=2), depolarizing_global(0.3, 4), depolarizing_local(0.45, 2)],
    ids=["kraus", "global", "local"],
)
def test_apply_ensemble_equals_apply_state_by_state(channel):
    for count in (1, 3, 7):
        e = random_ensemble(4, count, seed=30 + count)
        out = apply_ensemble(channel, e)
        for rho, sigma in zip(e.states, out.states):
            alone = apply(channel, rho)
            assert sigma.mat.tobytes() == alone.mat.tobytes()
            a, b = sigma.spectrum, alone.spectrum
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


def test_dp_check_decomposes_outputs_and_sandwiches_as_stacks(monkeypatch):
    import qleak.divergences as divergences_module
    import qleak.linalg as linalg_module

    e = random_ensemble(8, 4, seed=12)
    ch = depolarizing_global(0.4, 8)
    params = DpParams(epsilon_nats=dp_epsilon_bound_depolarizing(0.4, 8))
    want = verify_dp_on_ensemble(ch, e, params)
    calls = []
    real = linalg_module.eigh_stack

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg_module, "eigh_stack", counted)
    monkeypatch.setattr(divergences_module, "eigh_stack", counted)
    assert verify_dp_on_ensemble(ch, e, params) == want
    # One validation of the four outputs, then the twelve sandwiches in one call;
    # each output's kept spectrum serves as its reference.
    assert calls == [(4, 8, 8), (12, 8, 8)]
