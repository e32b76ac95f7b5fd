"""Leakage measures: worked values, ordering, axioms, measurement oracles."""

import math

import numpy as np
import pytest

from helpers import fixed_point_payoff, povm_mutual_information, povm_payoff, random_ensemble
from qleak.channels import apply_ensemble, random_channel
from qleak.divergences import ProbVector
from qleak.errors import DimensionMismatch, ValidationError
from qleak.leakage import (
    Ensemble,
    Povm,
    accessible_information_lower,
    barycentric_leakage,
    holevo_information,
    inequality_chain_report,
    max_leakage,
    pairwise_leakage,
    povm_leakage,
    square_root_measurement,
    _measurement_kernel,
    _mutual_information_bits,
    _pair_scorer,
)
from qleak.linalg import DensityOperator, HermitianOperator, random_unitary


def _diag_pair():
    return Ensemble.uniform(
        (
            DensityOperator.from_matrix(np.diag([0.75, 0.25])),
            DensityOperator.from_matrix(np.diag([0.25, 0.75])),
        )
    )


def _basis_ensemble(dim):
    return Ensemble.uniform(
        tuple(DensityOperator.pure(np.eye(dim)[:, k]) for k in range(dim))
    )


def test_ensemble_validation():
    rho = DensityOperator.maximally_mixed(2)
    with pytest.raises(ValidationError):
        Ensemble(ProbVector(np.array([0.5, 0.5])), (rho,))
    with pytest.raises(ValidationError):
        Ensemble(ProbVector(np.array([1.0, 0.0])), (rho, rho))
    with pytest.raises(ValidationError):
        Ensemble(ProbVector(np.array([1.0])), ())
    with pytest.raises(DimensionMismatch):
        Ensemble.uniform((rho, DensityOperator.maximally_mixed(3)))


def test_povm_validation():
    eye = HermitianOperator(np.eye(2))
    with pytest.raises(ValidationError):
        Povm((eye, eye))  # sums to 2I
    with pytest.raises(ValidationError):
        Povm((HermitianOperator(np.diag([1.5, 1.0])), HermitianOperator(np.diag([-0.5, 0.0]))))
    povm = Povm((HermitianOperator(np.diag([1.0, 0.0])), HermitianOperator(np.diag([0.0, 1.0]))))
    assert povm.count == 2 and povm.dim == 2


def test_pairwise_leakage_worked_example():
    cert = pairwise_leakage(_diag_pair())
    assert cert.value == pytest.approx(math.log2(3.0), abs=1e-12)
    assert cert.witness in ((0, 1), (1, 0))
    assert cert.gap == 0.0


def test_barycentric_leakage_worked_example():
    cert = barycentric_leakage(_diag_pair())
    assert cert.value == pytest.approx(math.log2(1.5), abs=1e-7)
    assert cert.gap <= 1e-6
    assert np.allclose(np.asarray(cert.witness), [0.5, 0.5], atol=1e-6)


def test_max_leakage_worked_example():
    cert = max_leakage(_diag_pair())
    assert cert.value == pytest.approx(math.log2(1.5), abs=1e-7)
    assert cert.gap <= 1e-6


def test_square_root_measurement_of_commuting_pair_is_the_states():
    e = _diag_pair()
    srm = square_root_measurement(e)
    assert srm.count == 2
    # S = I so the measurement operators coincide with the states
    for f, s in zip(srm.elements, e.states):
        assert np.allclose(f.mat, s.mat, atol=1e-12)
    assert povm_leakage(e, srm) == pytest.approx(math.log2(1.25), abs=1e-12)


def test_square_root_measurement_pads_singular_average():
    lone = Ensemble.uniform((DensityOperator.pure([1.0, 0.0]),))
    srm = square_root_measurement(lone)
    total = sum(f.mat for f in srm.elements)
    assert np.allclose(total, np.eye(2), atol=1e-9)
    assert srm.count == 2  # null outcome added for the unsupported subspace


def test_holevo_information_of_diag_pair():
    ent = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert holevo_information(_diag_pair()) == pytest.approx(1.0 - ent, abs=1e-12)


def test_accessible_information_meets_holevo_for_commuting_states():
    e = _diag_pair()
    value, povm = accessible_information_lower(e, restarts=4, seed=0)
    assert value == pytest.approx(holevo_information(e), abs=1e-9)
    assert povm.dim == 2
    again, _ = accessible_information_lower(e, restarts=4, seed=0)
    assert again == value


def test_accessible_value_is_attained_by_its_povm():
    sizes = [(d, n) for d in (2, 3, 4) for n in (2, 3, 5)]
    cases = [random_ensemble(d, n, seed=300 + 10 * d + n) for d, n in sizes]
    for i, e in enumerate(cases):
        value, povm = accessible_information_lower(e, restarts=2, seed=i)
        assert abs(value - povm_mutual_information(e, povm)) <= 1e-12
    for e in (random_ensemble(1, 3, seed=7), random_ensemble(3, 1, seed=8)):
        value, povm = accessible_information_lower(e, restarts=2, seed=1)
        assert value == 0.0
        assert abs(povm_mutual_information(e, povm)) <= 1e-12


def test_pair_scorer_matches_the_one_frame_score():
    rng = np.random.default_rng(11)
    for d, n in ((2, 2), (3, 4), (4, 3), (5, 2)):
        e = random_ensemble(d, n, seed=int(rng.integers(1 << 30)))
        rhos = np.array([s.mat for s in e.states])
        prior = e.prior.probs
        frame = random_unitary(d, seed=int(rng.integers(1 << 30)))
        for k in range(d):
            for l in range(k + 1, d):
                angles = rng.uniform([0.0, 0.0], [math.pi / 2, 2 * math.pi], size=(16, 2))
                angles[:4] = [(0.0, 0.0), (math.pi / 2, 0.0), (0.3, 1e-7), (1e-9, 4.0)]
                own, batch = _pair_scorer(e, rhos, frame, k, l)
                assert own == _mutual_information_bits(prior, _measurement_kernel(rhos, frame))
                got = batch(angles)
                for (th, ph), v in zip(angles, got):
                    c, s, z = math.cos(th), math.sin(th), complex(math.cos(ph), math.sin(ph))
                    turned = frame.copy()
                    turned[:, k] = c * frame[:, k] + s * z * frame[:, l]
                    turned[:, l] = -s * np.conj(z) * frame[:, k] + c * frame[:, l]
                    want = _mutual_information_bits(prior, _measurement_kernel(rhos, turned))
                    assert abs(v - want) <= 1e-13


# accessible_information_lower(random_ensemble(2 + i % 3, 2 + i % 4, seed=1000 + i),
# restarts=2, seed=i), as the one-frame-at-a-time search found them.  At i = 94 a
# stencil point gains just over the 1e-14 threshold in batched scoring but not in
# the one-frame score; accepting it ends 3.3e-9 bits lower.
_PINNED_ACCESSIBLE = {
    0: 0.048419624560616256,
    1: 0.2942594232902075,
    2: 0.45402908354287896,
    3: 0.2528077950217563,
    4: 0.5988901218792496,
    5: 0.5609145794600816,
    6: 0.3337792963147821,
    7: 0.6118365117019386,
    8: 0.2174506890015613,
    9: 0.2944215021454124,
    10: 0.4068059803787613,
    11: 0.5254180861125733,
    94: 0.4284258297872958,
}


def test_accessible_search_finds_at_least_the_pinned_values():
    for i, pinned in _PINNED_ACCESSIBLE.items():
        e = random_ensemble(2 + i % 3, 2 + i % 4, seed=1000 + i)
        value, _ = accessible_information_lower(e, restarts=2, seed=i)
        assert value >= pinned - 1e-12


def test_basis_ensemble_chain_values():
    e = _basis_ensemble(4)
    report = inequality_chain_report(e, restarts=4)
    assert report.accessible_lower == pytest.approx(2.0, abs=1e-9)
    assert report.holevo == pytest.approx(2.0, abs=1e-12)
    assert report.srm_povm_leakage == pytest.approx(2.0, abs=1e-9)
    assert report.maximal.value == pytest.approx(2.0, abs=1e-7)
    assert report.barycentric.value == pytest.approx(2.0, abs=1e-7)
    assert report.pairwise.value == math.inf
    assert all(s >= 0.0 for s in report.checks.values())


def test_identical_states_leak_nothing():
    rho = DensityOperator.from_matrix(np.diag([0.6, 0.4]))
    e = Ensemble.uniform((rho, rho, rho))
    assert pairwise_leakage(e).value <= 1e-8
    assert barycentric_leakage(e).value <= 1e-8
    assert max_leakage(e).value <= 1e-8
    assert holevo_information(e) <= 1e-10


def test_leakage_values_are_nonnegative():
    for seed in range(5):
        e = random_ensemble(3, 3, seed=seed)
        assert pairwise_leakage(e).value >= 0.0
        assert barycentric_leakage(e).value >= 0.0
        assert max_leakage(e).value >= 0.0


def test_prior_independence_of_certified_measures():
    base = random_ensemble(3, 3, seed=11)
    skewed = Ensemble(ProbVector(np.array([0.7, 0.2, 0.1])), base.states)
    assert barycentric_leakage(skewed).value == pytest.approx(
        barycentric_leakage(base).value, abs=1e-9
    )
    assert pairwise_leakage(skewed).value == pytest.approx(
        pairwise_leakage(base).value, abs=1e-9
    )
    assert max_leakage(skewed).value == pytest.approx(
        max_leakage(base).value, abs=1e-9
    )


def test_unitary_invariance_of_certified_measures():
    e = random_ensemble(3, 4, seed=23)
    u = random_unitary(3, seed=9)
    spun = Ensemble(
        e.prior,
        tuple(DensityOperator.from_matrix(u @ s.mat @ u.conj().T) for s in e.states),
    )
    assert barycentric_leakage(spun).value == pytest.approx(
        barycentric_leakage(e).value, abs=1e-7
    )
    assert max_leakage(spun).value == pytest.approx(max_leakage(e).value, abs=1e-7)
    assert pairwise_leakage(spun).value == pytest.approx(
        pairwise_leakage(e).value, abs=1e-7
    )


def test_data_processing_cannot_increase_leakage():
    for seed in range(6):
        e = random_ensemble(3, 3, seed=40 + seed)
        noisy = apply_ensemble(random_channel(3, seed=seed), e)
        b0, b1 = barycentric_leakage(e), barycentric_leakage(noisy)
        assert b1.value <= b0.value + b0.gap + b1.gap + 1e-7
        r0, r1 = pairwise_leakage(e), pairwise_leakage(noisy)
        assert r1.value <= r0.value + 1e-7


def test_povm_leakage_never_beats_the_certified_maximum():
    for seed in range(5):
        e = random_ensemble(2, 3, seed=60 + seed)
        q = max_leakage(e)
        srm = square_root_measurement(e)
        assert povm_leakage(e, srm) <= q.value + 1e-9
        payoff_bits = math.log2(fixed_point_payoff(e, iters=150))
        assert payoff_bits <= q.value + 1e-9


def test_povm_leakage_dimension_check():
    e = _diag_pair()
    wrong = Povm((HermitianOperator(np.eye(3)),))
    with pytest.raises(DimensionMismatch):
        povm_leakage(e, wrong)


def test_chain_report_orders_every_measure():
    for seed in (3, 14):
        e = random_ensemble(3, 4, seed=seed)
        report = inequality_chain_report(e, restarts=4, seed=seed)
        assert report.accessible_lower <= report.holevo + 1e-6
        assert report.holevo <= report.barycentric.value + report.barycentric.gap + 1e-6
        assert report.barycentric.value <= report.pairwise.value + report.barycentric.gap + 1e-6
        assert report.srm_povm_leakage <= report.maximal.value + report.maximal.gap + 1e-6
        assert all(s >= 0.0 for s in report.checks.values())


def test_sandwiched_mutual_information_equals_max_leakage_value():
    # One dominating program gives Q and the order-infinity sandwiched mutual
    # information, so the report holds one certificate for both.
    e = random_ensemble(2, 3, seed=91)
    report = inequality_chain_report(e, restarts=2)
    assert report.sandwiched_inf is report.maximal
    q = max_leakage(e)
    assert (report.maximal.value, report.maximal.gap, report.maximal.kind) == (
        q.value, q.gap, q.kind)
    assert report.checks["sandwiched<=barycentric"] == report.checks["maximal<=barycentric"]


def test_measurement_kernel_equals_one_einsum_per_state():
    rng = np.random.default_rng(23)
    for d, n in ((2, 1), (2, 3), (3, 4), (4, 2), (6, 5)):
        e = random_ensemble(d, n, seed=int(rng.integers(1 << 30)))
        rhos = np.array([s.mat for s in e.states])
        frame = random_unitary(d, seed=int(rng.integers(1 << 30)))
        want = [np.einsum("iy,ij,jy->y", np.conj(frame), s.mat, frame).real for s in e.states]
        assert _measurement_kernel(rhos, frame).tobytes() == np.clip(want, 0.0, None).tobytes()


def test_certificates_carry_their_solver_counts():
    from qleak.sdp import dominating_program, solve, weights_program

    e = random_ensemble(3, 4, seed=12)
    q, b, r = max_leakage(e), barycentric_leakage(e), pairwise_leakage(e)
    q_sol = solve(dominating_program(e.states))
    b_sol = solve(weights_program(e.states))
    assert (q.iterations, q.cut_count) == (q_sol.iterations, 0)
    assert (b.iterations, b.cut_count) == (b_sol.iterations, b_sol.cut_count)
    assert b.iterations >= 1 and b.cut_count >= e.count
    assert (r.iterations, r.cut_count) == (0, 0)


def test_grid_payoff_oracle_respects_certified_value():
    from helpers import bloch_grid_payoff

    for seed in range(5):
        e = random_ensemble(2, 2, seed=130 + seed)
        q = max_leakage(e)
        grid_bits = math.log2(bloch_grid_payoff(e, directions=4000))
        assert grid_bits <= q.value + 1e-9
        # two states: an optimal two-outcome projective measurement exists,
        # so the grid only loses discretisation resolution
        assert grid_bits >= q.value - 5e-3


def test_pairwise_leakage_witness_is_first_infinite_pair():
    # States 0 and 1 are full rank, state 2 is not: (0, 2) and (1, 2) are
    # infinite, and the finite (0, 1) comes before both.
    e = Ensemble.uniform(
        [
            DensityOperator.from_matrix(np.diag([0.7, 0.2, 0.1])),
            DensityOperator.from_matrix(np.diag([0.2, 0.3, 0.5])),
            DensityOperator.from_matrix(np.diag([0.5, 0.5, 0.0])),
        ]
    )
    cert = pairwise_leakage(e)
    assert cert.value == math.inf
    assert cert.witness == (0, 2)


def test_pairwise_leakage_witness_is_first_maximising_pair():
    # Both ordered pairs reach log2(3); the witness is the first of them.
    cert = pairwise_leakage(_diag_pair())
    assert cert.value == math.log2(3.0)
    assert cert.witness == (0, 1)
    # Identical states: every divergence is 0, and the first pair still maximises.
    same = _diag_pair().states[0]
    cert = pairwise_leakage(Ensemble.uniform((same, same, same)))
    assert cert.value == 0.0
    assert cert.witness == (0, 1)
