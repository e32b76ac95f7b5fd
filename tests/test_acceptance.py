"""End-to-end acceptance gate: one test per release criterion, in order.

Each test prints a single `criterion N: PASS (...)` line on success; a
failing criterion shows up as that test's pytest failure.  Tolerances are
stated inline and are the release thresholds, not development slack.
"""

import math
import time

import numpy as np

from helpers import (
    bloch_grid_payoff,
    diagonal_weights_value,
    fixed_point_payoff,
    random_ensemble,
    worst_lmi_eigenvalue,
)
from qleak.channels import (
    apply_ensemble,
    depolarizing_global,
    depolarizing_local,
    dp_epsilon_bound_depolarizing,
    leakage_after_channel,
    random_channel,
)
from qleak.cli import TRADEOFF_HEADER, main
from qleak.divergences import ORDER_INF, sandwiched_renyi
from qleak.leakage import (
    Ensemble,
    barycentric_leakage,
    inequality_chain_report,
    max_leakage,
    pairwise_leakage,
)
from qleak.linalg import DensityOperator, random_density, random_unitary
from qleak.sdp import STATUS_SOLVED, dominating_program, solve, weights_program
from qleak.vqml import performance_degradation, random_model

_P_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def _announce(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def _basis_ensemble(dim):
    return Ensemble.uniform(
        tuple(DensityOperator.pure(np.eye(dim)[:, k]) for k in range(dim))
    )


def test_criterion_1_basis_encoding_reaches_n_bits():
    start = time.monotonic()
    for n in (1, 2, 3):
        e = _basis_ensemble(2**n)
        b = barycentric_leakage(e)
        q = max_leakage(e)
        r = pairwise_leakage(e)
        assert abs(b.value - n) <= 1e-6
        assert abs(q.value - n) <= 1e-6
        assert r.value == math.inf
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _announce(1, f"B = Q = n and R = inf for n = 1, 2, 3 in {elapsed:.1f}s")


def test_criterion_2_inequality_chain_on_200_seeded_ensembles():
    start = time.monotonic()
    slack = 1e-5
    for i in range(200):
        e = random_ensemble(2 + i % 3, 2 + i % 4, seed=1000 + i)
        rep = inequality_chain_report(e, restarts=2, seed=i)
        b, q = rep.barycentric, rep.maximal
        assert rep.accessible_lower <= rep.holevo + slack
        assert rep.holevo <= b.value + slack
        assert b.value <= rep.pairwise.value + b.gap + slack
        assert rep.srm_povm_leakage <= q.value + slack
        assert q.value <= b.value + q.gap + slack
        # Each witness dominates every state, checked by numpy.linalg.eigvalsh.
        assert worst_lmi_eigenvalue(e.states, q.witness) >= -1e-12
        assert abs(math.log2(np.trace(q.witness.mat).real) - q.value) <= 1e-12
        assert worst_lmi_eigenvalue(e.states, b.witness * 2.0**b.value) >= -1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _announce(2, f"200 ensembles, d in 2..4, chain slack 1e-5, witnesses checked, {elapsed:.0f}s")


def test_criterion_3_leakage_axioms():
    # positivity
    for seed in range(4):
        e = random_ensemble(3, 3, seed=2000 + seed)
        assert barycentric_leakage(e).value >= 0.0
        assert pairwise_leakage(e).value >= 0.0
    # independence: identical states carry nothing
    rho = random_density(3, 2, seed=2100)
    twins = Ensemble.uniform((rho, rho, rho))
    assert barycentric_leakage(twins).value <= 1e-8
    assert pairwise_leakage(twins).value <= 1e-8
    # unitary invariance
    for seed in range(6):
        e = random_ensemble(2 + seed % 3, 3, seed=2200 + seed)
        u = random_unitary(e.dim, seed=seed)
        spun = Ensemble(
            e.prior,
            tuple(DensityOperator.from_matrix(u @ s.mat @ u.conj().T) for s in e.states),
        )
        assert abs(barycentric_leakage(spun).value - barycentric_leakage(e).value) <= 1e-7
        rv, sv = pairwise_leakage(e).value, pairwise_leakage(spun).value
        if math.isinf(rv) or math.isinf(sv):
            assert rv == sv  # rotation cannot change which supports coincide
        else:
            assert abs(rv - sv) <= 1e-7
    # data processing under 50 random Kraus channels
    for i in range(50):
        e = random_ensemble(3, 3, seed=2300 + i)
        noisy = apply_ensemble(random_channel(3, seed=i), e)
        b0, b1 = barycentric_leakage(e), barycentric_leakage(noisy)
        assert b1.value <= b0.value + b0.gap + b1.gap + 1e-7
        r0, r1 = pairwise_leakage(e), pairwise_leakage(noisy)
        assert r1.value <= r0.value + 1e-7
    _announce(3, "positivity, independence, unitary invariance, 50-channel DPI")


def test_criterion_4_sdp_gap_certificates_and_diagonal_oracles():
    # certified relative gap on every optimal solve
    for i in range(12):
        e = random_ensemble(2 + i % 3, 2 + i % 3, seed=4000 + i)
        for make in (weights_program, dominating_program):
            sol = solve(make(e.states))
            assert sol.status == STATUS_SOLVED
            assert sol.relative_gap <= 1e-6 + 1e-12
    # commuting instances against classical closed forms
    rng = np.random.default_rng(4100)
    for dim, count in ((2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (4, 5)):
        rows = []
        for _ in range(count):
            raw = rng.uniform(0.05, 1.0, size=dim)
            rows.append(raw / raw.sum())
        states = tuple(DensityOperator.from_matrix(np.diag(r)) for r in rows)
        p2 = solve(dominating_program(states)).value
        assert abs(p2 - float(np.sum(np.max(np.array(rows), axis=0)))) <= 1e-8
        p1 = solve(weights_program(states)).value
        assert abs(p1 - diagonal_weights_value(rows)) <= 1e-8
    # symmetric pair where the per-entry maximum is also the weights optimum
    pair = (
        DensityOperator.from_matrix(np.diag([0.75, 0.25])),
        DensityOperator.from_matrix(np.diag([0.25, 0.75])),
    )
    assert abs(solve(weights_program(pair)).value - 1.5) <= 1e-8
    _announce(4, "relative gap <= 1e-6; diagonal P1/P2 match classical oracles to 1e-8")


def test_criterion_5_depolarizing_channels_cap_leakage():
    start = time.monotonic()

    def check(channel, e, p, d):
        b, r = leakage_after_channel(channel, e)
        if p == 1.0:
            assert b.value <= 1e-8 and r.value <= 1e-8
            return
        bound = dp_epsilon_bound_depolarizing(p, d) / math.log(2.0)
        assert b.value <= bound + 1e-6
        assert r.value <= bound + 1e-6

    for d, count in ((2, 3), (4, 3), (8, 2)):
        e = random_ensemble(d, count, seed=5000 + d)
        for p in _P_GRID:
            check(depolarizing_global(p, d), e, p, d)
    for k in (1, 2, 3):
        d = 2**k
        e = random_ensemble(d, 2, seed=5100 + k)
        for p in _P_GRID:
            check(depolarizing_local(p, k), e, p, d)
    elapsed = time.monotonic() - start
    _announce(5, f"global d in (2,4,8) and local k in (1,2,3) capped, {elapsed:.0f}s")


def test_criterion_6_degradation_bounded_by_twice_noise():
    rng = np.random.default_rng(6000)
    for trial in range(20):
        k = 1 + trial % 3
        model = random_model(
            k, layers=1 + trial % 3, classes=2 if trial % 2 else None, seed=trial
        )
        inputs = list(rng.integers(0, 2**k, size=4))
        for p in _P_GRID:
            gamma = performance_degradation(model, inputs, depolarizing_global(p, 2**k))
            assert gamma <= 2.0 * p + 1e-9
    _announce(6, "20 random models, k <= 3, Gamma <= 2p + 1e-9 on the full grid")


def test_criterion_7_tradeoff_curve_values_reproduced(tmp_path):
    out = tmp_path / "curve.csv"
    grid = ",".join(str(p) for p in _P_GRID)
    assert main(["tradeoff", "--p-grid", grid, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRADEOFF_HEADER
    rows = [line.split(",") for line in lines[1:]]
    by_p = {row[0]: row for row in rows}
    assert by_p["0.500000"][5] == "2.321928"
    bounds, gammas = [], []
    for row in rows:
        p = float(row[0])
        bounds.append(float(row[5]))
        gammas.append(float(row[2]))
        if p < 1.0:
            direct = math.log2(1.0 + 2.0 * (1.0 - p) * 2 / p)
            via_gamma = math.log2((1.0 - 2.0 * 2) + 4.0 * 2 / (2.0 * p))
            assert abs(direct - via_gamma) <= 1e-12
            assert abs(float(row[5]) - direct) <= 5e-7  # 6-decimal rounding
    assert all(a >= b - 1e-12 for a, b in zip(bounds, bounds[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(gammas, gammas[1:]))
    for d in (4, 8):
        for p in _P_GRID[:-1]:
            direct = math.log2(1.0 + 2.0 * (1.0 - p) * d / p)
            via_gamma = math.log2((1.0 - 2.0 * d) + 4.0 * d / (2.0 * p))
            assert abs(direct - via_gamma) <= 1e-12
    _announce(7, "curve point 2.321928 at p = 0.5, bound identity <= 1e-12")


def test_criterion_8_measured_definition_attains_certified_maximum():
    start = time.monotonic()
    worst_shortfall = 0.0
    worst_excess = -math.inf
    for i in range(100):
        e = random_ensemble(2, 2 + i % 3, seed=8000 + i)
        q = max_leakage(e)
        payoff = max(
            bloch_grid_payoff(e, directions=10_000),
            fixed_point_payoff(e, iters=200),
        )
        bits = math.log2(payoff)
        worst_shortfall = max(worst_shortfall, q.value - bits)
        worst_excess = max(worst_excess, bits - q.value)
    assert worst_shortfall <= 1e-3
    assert worst_excess <= 1e-9
    elapsed = time.monotonic() - start
    _announce(
        8,
        f"measured value within {worst_shortfall:.1e} below certificate, "
        f"excess {worst_excess:.1e}, {elapsed:.0f}s",
    )


def test_criterion_9_large_order_divergence_converges():
    rng = np.random.default_rng(9000)
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density(dim, int(rng.integers(1, dim + 1)), int(rng.integers(2**31)))
        sigma = random_density(dim, dim, int(rng.integers(2**31)))
        far = sandwiched_renyi(rho, sigma, 1000.0)
        lim = sandwiched_renyi(rho, sigma, ORDER_INF)
        worst = max(worst, abs(far - lim))
    assert worst <= 1e-2
    _announce(9, f"alpha = 1000 within {worst:.1e} bits of the limit on 50 pairs")
