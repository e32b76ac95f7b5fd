"""LMI solvers against closed forms and classical oracles."""

import numpy as np
import pytest

from helpers import diagonal_weights_value, random_ensemble
from qleak import sdp
from qleak.linalg import (
    DensityOperator,
    HermitianOperator,
    eig_hermitian,
    random_density,
    random_unitary,
    trace_distance,
)
from qleak.sdp import (
    FEAS_TOL,
    STATUS_ITERATION_CAP,
    STATUS_SOLVED,
    _seeded_pool,
    dominating_program,
    solve,
    violation_certificate,
    weights_program,
)


def _diag_states(*rows):
    return tuple(DensityOperator.from_matrix(np.diag(r)) for r in rows)


def test_dominating_two_states_matches_norm_formula():
    # min tr Y over Y >= rho_1, Y >= rho_2 equals 1 + ||rho_1 - rho_2||_1 / 2
    rng = np.random.default_rng(0)
    for dim in (2, 3, 4):
        for _ in range(4):
            a = random_density(dim, int(rng.integers(1, dim + 1)), int(rng.integers(2**31)))
            b = random_density(dim, int(rng.integers(1, dim + 1)), int(rng.integers(2**31)))
            sol = solve(dominating_program((a, b)))
            expect = 1.0 + trace_distance(a, b) / 2.0
            assert sol.status == STATUS_SOLVED
            assert sol.value == pytest.approx(expect, rel=2e-6)


def test_dominating_diagonal_matches_per_entry_maximum():
    rng = np.random.default_rng(1)
    for dim, count in ((2, 2), (3, 3), (4, 5)):
        rows = []
        for _ in range(count):
            raw = rng.uniform(0.05, 1.0, size=dim)
            rows.append(raw / raw.sum())
        sol = solve(dominating_program(_diag_states(*rows)))
        expect = float(np.sum(np.max(np.array(rows), axis=0)))
        assert sol.status == STATUS_SOLVED
        assert sol.value == pytest.approx(expect, abs=1e-8)


def test_weights_diagonal_matches_classical_lp_oracle():
    rng = np.random.default_rng(2)
    for dim, count in ((2, 2), (3, 3), (4, 4), (3, 5)):
        rows = []
        for _ in range(count):
            raw = rng.uniform(0.05, 1.0, size=dim)
            rows.append(raw / raw.sum())
        sol = solve(weights_program(_diag_states(*rows)))
        expect = diagonal_weights_value(rows)
        assert sol.status == STATUS_SOLVED
        assert sol.value == pytest.approx(expect, abs=1e-8)


def test_weights_exceeds_dominating_on_disjoint_supports():
    # supports {1,2} and {2,3}: the weights program cannot reuse mass across
    # states, so its value 2.0 strictly exceeds the per-entry-max value 1.8
    states = _diag_states([0.8, 0.2, 0.0], [0.0, 0.2, 0.8])
    p1 = solve(weights_program(states))
    p2 = solve(dominating_program(states))
    assert p1.value == pytest.approx(2.0, abs=1e-8)
    assert p2.value == pytest.approx(1.8, abs=1e-8)


def test_symmetric_diagonal_pair_worked_example():
    states = _diag_states([0.75, 0.25], [0.25, 0.75])
    assert solve(weights_program(states)).value == pytest.approx(1.5, abs=1e-9)
    assert solve(dominating_program(states)).value == pytest.approx(1.5, abs=1e-9)


def test_orthonormal_basis_states_converge_immediately():
    states = tuple(
        DensityOperator.pure(np.eye(4)[:, k]) for k in range(4)
    )
    for program in (weights_program(states), dominating_program(states)):
        sol = solve(program)
        assert sol.status == STATUS_SOLVED
        assert sol.value == pytest.approx(4.0, abs=1e-9)
        assert sol.iterations <= 2


def test_single_state_programs_are_unit_valued():
    rho = random_density(3, 2, seed=5)
    assert solve(weights_program((rho,))).value == pytest.approx(1.0, abs=1e-8)
    assert solve(dominating_program((rho,))).value == pytest.approx(1.0, abs=1e-8)


def test_certified_gap_and_feasible_point_on_random_instances():
    for i in range(10):
        e = random_ensemble(2 + i % 3, 2 + i % 4, seed=100 + i)
        for make in (weights_program, dominating_program):
            program = make(e.states)
            sol = solve(program)
            assert sol.status == STATUS_SOLVED
            assert sol.relative_gap <= 1e-6 + 1e-12
            assert sol.lower_bound <= sol.value + 1e-12
            _, worst, _ = violation_certificate(program, sol.primal)
            assert worst >= -5.0 * FEAS_TOL
            trace = np.array(sol.lower_bound_trace)
            if trace.size > 1:
                assert float(np.min(np.diff(trace))) >= -1e-7


def test_values_are_unitarily_invariant():
    e = random_ensemble(3, 3, seed=42)
    u = random_unitary(3, seed=7)
    rotated = tuple(
        DensityOperator.from_matrix(u @ s.mat @ u.conj().T) for s in e.states
    )
    for make in (weights_program, dominating_program):
        plain = solve(make(e.states)).value
        spun = solve(make(rotated)).value
        assert spun == pytest.approx(plain, abs=1e-6)


def test_dominating_value_dominates_every_state_trace():
    e = random_ensemble(4, 4, seed=77)
    sol = solve(dominating_program(e.states))
    assert sol.value >= 1.0 - 1e-9
    y = sol.primal.mat
    for s in e.states:
        # certified point really dominates: min eig of Y - rho above -tol
        w = np.linalg.eigvalsh(y - s.mat)
        assert float(w[0]) >= -5.0 * FEAS_TOL


@pytest.mark.parametrize("make_program", [weights_program])
def test_seeded_cut_pool_matches_per_vector_quadratic_forms(make_program):
    states = tuple(random_density(4, 4, seed) for seed in (21, 22, 23))
    program = make_program(states)
    pool = _seeded_pool(program)
    # Same bases and order as the seeding: each state's eigenbasis, then
    # each difference eigenbasis cut for state i before state j.
    bases = [(eig_hermitian(s).eigenvectors, (x,)) for x, s in enumerate(states)]
    bases += [
        (eig_hermitian(HermitianOperator(states[i].mat - states[j].mat)).eigenvectors, (i, j))
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    rows, rhs, keys = [], [], set()
    for basis, owners in bases:
        for k in range(4):
            v = basis[:, k]
            forms = [float(np.real(np.conj(v) @ s.mat @ v)) for s in states]
            row = np.array(forms)
            for x in owners:
                key = (x, np.round(row, 9).tobytes())
                if key not in keys:
                    keys.add(key)
                    rows.append(row)
                    rhs.append(forms[x])
    assert len(pool) == len(keys)
    np.testing.assert_allclose(np.stack(pool.rows), np.stack(rows), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(pool.rhs, rhs, rtol=0.0, atol=1e-12)
    # Cutting along a basis a second time adds nothing.
    assert pool.add(bases[-1][0], bases[-1][1]) == 0
    assert len(pool) == len(keys)


# Ensembles on which the earlier cutting-plane form of Q failed or crawled:
# (7, 2, 1) cycled in the simplex, (8, 2, 3) ran for about 19 minutes, and
# (5, 2, 1) and (7, 3, 2) took about 18 s each.
@pytest.mark.parametrize("dim, count, seed", [(5, 2, 1), (7, 2, 1), (8, 2, 3), (7, 3, 2)])
def test_dominating_form_certifies_past_dimension_four(dim, count, seed):
    e = random_ensemble(dim, count, seed=seed)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_SOLVED
    assert sol.relative_gap <= 1e-6 + 1e-12
    assert sol.cut_count == 0
    if count == 2:
        exact = 1.0 + trace_distance(*e.states) / 2.0
        assert sol.lower_bound <= exact <= sol.value


def test_dominating_form_certifies_at_dimension_sixty_four():
    e = random_ensemble(64, 4, seed=0)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_SOLVED
    assert sol.lower_bound <= sol.value
    _, worst, _ = violation_certificate(dominating_program(e.states), sol.primal)
    assert worst >= 0.0


def test_dominating_iteration_cap_keeps_an_honest_bracket(monkeypatch):
    monkeypatch.setattr(sdp, "_FIXED_POINT_CAP", 1)
    e = random_ensemble(7, 3, seed=2)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_ITERATION_CAP
    assert sol.iterations == 1
    assert sol.lower_bound <= sol.value
    _, worst, _ = violation_certificate(dominating_program(e.states), sol.primal)
    assert worst >= 0.0


def test_weights_cut_cap_keeps_an_honest_bracket(monkeypatch):
    # criterion-2 ensemble i = 1 needs cuts past its seeded pool
    program = weights_program(random_ensemble(3, 3, seed=1001).states)
    seeded = len(_seeded_pool(program))
    monkeypatch.setattr(sdp, "_MAX_CUTS", seeded)
    sol = solve(program)
    assert sol.status == STATUS_ITERATION_CAP
    assert sol.iterations == 1 and sol.cut_count == seeded
    assert sol.lower_bound <= sol.value
    _, worst, _ = violation_certificate(program, sol.primal)
    assert worst >= -5 * FEAS_TOL
