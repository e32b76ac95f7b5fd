"""Primal simplex from a given feasible basis against a vertex-enumeration oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_lp
from qleak.simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    resume_phase2,
)


def _cut_lp(g, h):
    """The cut pool's LP: min -h.lam over [I | G'] (s, lam) = 1, s, lam >= 0."""
    m = g.shape[1]
    return np.concatenate([np.zeros(m), -h]), np.hstack([np.eye(m), g.T]), np.ones(m)


def _check_against_oracle(cost, a, b, basis, atol=1e-7):
    res = resume_phase2(cost, a, b, basis)
    status, value = brute_force_lp(cost, a, b)
    assert res.status == status
    if status == STATUS_OPTIMAL:
        assert res.objective == pytest.approx(value, abs=atol)
        assert float(np.min(res.x)) >= -1e-9
        assert float(np.max(np.abs(a @ res.x - b))) <= 1e-6 * max(
            1.0, float(np.max(np.abs(b)))
        )
        # weak duality through the returned multipliers
        assert float(b @ res.multipliers) <= res.objective + 1e-6
    return res


def test_one_dimensional_box():
    res = _check_against_oracle(
        np.array([-1.0, 0.0]), np.array([[1.0, 1.0]]), np.array([1.0]), [1]
    )
    assert res.objective == pytest.approx(-1.0)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-9)


def test_assignment_style_lp():
    # min x00 + 2 x01 + 3 x10 + x11 over doubly stochastic-ish rows
    a = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
        ]
    )
    b = np.array([1.0, 1.0, 1.0])
    cost = np.array([1.0, 2.0, 3.0, 1.0])
    # x00 = x11 = 1 with x01 basic at zero: a degenerate feasible start
    _check_against_oracle(cost, a, b, [0, 3, 1])


def test_unbounded_detection():
    # min -x1 with x1 - x2 = 0 lets both grow without bound
    a = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    res = resume_phase2(np.array([-1.0, 0.0]), a, b, [0])
    assert res.status == STATUS_UNBOUNDED
    # a cut that weighs no state lets its multiplier grow without bound
    cost, a, b = _cut_lp(np.array([[0.5, 0.25], [0.0, 0.0]]), np.array([1.0, 0.5]))
    assert resume_phase2(cost, a, b, [0, 1]).status == STATUS_UNBOUNDED


def test_duplicate_columns_and_degenerate_rhs():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 4))
    a = np.hstack([base, base[:, :2]])  # duplicated columns
    x0 = np.zeros(6)
    x0[[0, 1]] = [1.0, 0.0]  # degenerate: basic variable at zero
    b = a @ x0
    cost = np.abs(rng.normal(size=6))
    # columns 1 and 2 enter the start basis at level zero
    _check_against_oracle(cost, a, b, [0, 1, 2])


@settings(deadline=None, max_examples=80)
@given(
    m=st.integers(1, 4),
    cuts=st.integers(1, 6),
    seed=st.integers(0, 10**6),
    sparse=st.booleans(),
)
def test_matches_brute_force_on_feasible_instances(m, cuts, seed, sparse):
    rng = np.random.default_rng(seed)
    # quarter-integer cut rows provoke ties and degenerate vertices
    g = rng.integers(0, 9, size=(cuts, m)) / 4.0
    if sparse:
        g[rng.random(size=g.shape) < 0.5] = 0.0
    g[:, rng.integers(0, m)] += 0.25  # every cut weighs some state: bounded
    h = rng.integers(0, 9, size=cuts) / 4.0
    cost, a, b = _cut_lp(g, h)
    _check_against_oracle(cost, a, b, list(range(m)))


def test_multipliers_certify_optimality():
    rng = np.random.default_rng(9)
    g = rng.uniform(0.05, 1.0, size=(6, 3))
    cost, a, b = _cut_lp(g, rng.uniform(0.1, 1.0, size=6))
    res = resume_phase2(cost, a, b, [0, 1, 2])
    assert res.status == STATUS_OPTIMAL
    reduced = cost - a.T @ res.multipliers
    assert float(np.min(reduced)) >= -1e-7
    assert float(b @ res.multipliers) == pytest.approx(res.objective, abs=1e-7)


def test_warm_start_matches_cold_solve_after_column_append():
    rng = np.random.default_rng(21)
    g = rng.uniform(0.05, 1.0, size=(5, 3))
    h = rng.uniform(0.1, 1.0, size=5)
    first = resume_phase2(*_cut_lp(g, h), [0, 1, 2])
    assert first.status == STATUS_OPTIMAL and first.basis is not None
    # append cuts; the old basis stays primal feasible
    g2 = np.vstack([g, rng.uniform(0.05, 1.0, size=(2, 3))])
    h2 = np.concatenate([h, rng.uniform(0.1, 1.0, size=2)])
    warm = resume_phase2(*_cut_lp(g2, h2), first.basis)
    cold = resume_phase2(*_cut_lp(g2, h2), [0, 1, 2])
    assert warm.status == cold.status == STATUS_OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def test_warm_start_with_stale_basis_reports_infeasible_for_fallback():
    a = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    res = resume_phase2(np.ones(2), a, b, [5])
    assert res.status == STATUS_INFEASIBLE


def test_negative_basis_index_is_out_of_range():
    # Index -2 would reach column 0 by wraparound.
    res = resume_phase2([1.0, 2.0], [[1.0, 1.0]], [1.0], [-2])
    assert res.status == STATUS_INFEASIBLE and res.iterations == 0


def test_a_refused_start_costs_one_basis_solve(monkeypatch):
    # The slack basis puts -1 on x0, so the start is refused after solving
    # for x_B alone: no multipliers, no column and no other right-hand side.
    shapes = []
    real = np.linalg.solve

    def recorded(mat, rhs):
        shapes.append((np.shape(mat), np.shape(rhs)))
        return real(mat, rhs)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    res = resume_phase2(np.ones(3), a, np.array([-1.0, 2.0]), [0, 1])
    assert res.status == STATUS_INFEASIBLE
    assert shapes == [((2, 2), (2,))]


def test_long_walk_from_the_slack_basis_ends_certified():
    # 233 pivots, past any short-walk test, on a 16-state cut LP.
    rng = np.random.default_rng(0)
    g = rng.uniform(0.0, 1.0, size=(400, 16))
    cost, a, b = _cut_lp(g, rng.uniform(0.0, 1.0, size=400))
    res = resume_phase2(cost, a, b, list(range(16)))
    assert res.status == STATUS_OPTIMAL and res.iterations > 64
    assert float(np.min(cost - a.T @ res.multipliers)) >= -1e-9
    assert abs(float(b @ res.multipliers) - res.objective) <= 1e-9
    assert float(np.max(np.abs(a @ res.x - b))) <= 1e-9


def test_beale_cycling_lp_ends_optimal():
    # Beale (Naval Res. Logist. Q. 2, 269, 1955): the most negative reduced
    # cost entering, ties leaving from the top row, cycles from the slack
    # basis through six degenerate bases.
    cost = np.array([0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
    a = np.array(
        [
            [1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
            [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        ]
    )
    res = _check_against_oracle(cost, a, np.array([0.0, 0.0, 1.0]), [0, 1, 2])
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-1.25)


def test_kuhn_cycling_lp_ends_optimal():
    # Kuhn's example, in Bazaraa, Jarvis and Sherali, Linear Programming and
    # Network Flows: the same rule cycles through six bases here too.
    cost = np.array([0.0, 0.0, 0.0, -2.0, -3.0, 1.0, 12.0])
    a = np.array(
        [
            [1.0, 0.0, 0.0, -2.0, -9.0, 1.0, 9.0],
            [0.0, 1.0, 0.0, 1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0],
            [0.0, 0.0, 1.0, 2.0, 3.0, -1.0, -12.0],
        ]
    )
    res = _check_against_oracle(cost, a, np.array([0.0, 0.0, 2.0]), [0, 1, 2])
    assert res.status == STATUS_OPTIMAL
    assert res.objective == pytest.approx(-2.0)


def test_lowest_basic_index_leaves_a_ratio_tie():
    # Column 2 enters and both rows tie at ratio 1.  Bland's rule sends out
    # x0, the lower basic index, which sits in row 1; the larger pivot
    # element, 2, is in row 0.
    a = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
    res = resume_phase2(np.array([0.0, 0.0, -1.0]), a, np.array([2.0, 1.0]), [1, 0])
    assert res.status == STATUS_OPTIMAL and res.iterations == 1
    assert res.basis == [1, 2]
