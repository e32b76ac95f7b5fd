"""LMI solvers against closed forms and classical oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from helpers import (
    NEAR_DUPLICATE_FAMILY,
    diagonal_weights_value,
    fixed_point_payoff,
    near_duplicate_ensemble,
    nearly_parallel_triple,
    random_ensemble,
    worst_lmi_eigenvalue,
)
from qleak import linalg, sdp
from qleak.channels import apply_states, depolarizing_global
from qleak.errors import EigenSolverError, LpSolverError
from qleak.leakage import Ensemble, barycentric_leakage
from qleak.linalg import (
    DensityOperator,
    eig_hermitian,
    eigh_stack,
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
            assert worst_lmi_eigenvalue(e.states, sol.primal) >= -5.0 * FEAS_TOL
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
    pool = _seeded_pool(make_program(states))
    # Same bases and order as the seeding: each state's own eigenbasis.
    bases = [eig_hermitian(s).eigenvectors for s in states]
    # One cut per rounded row, carrying the largest rounded right-hand side.
    rows, rhs, keys = [], [], {}
    for x, basis in enumerate(bases):
        for k in range(4):
            v = basis[:, k]
            row = np.array([float(np.real(np.conj(v) @ s.mat @ v)) for s in states])
            key = np.round(row, 9).tobytes()
            if key not in keys:
                keys[key] = len(rows)
                rows.append(row)
                rhs.append(row[x])
            elif np.round(row[x], 9) > np.round(rhs[keys[key]], 9):
                rows[keys[key]], rhs[keys[key]] = row, row[x]
    assert len(pool) == len(keys) == 12
    np.testing.assert_allclose(np.stack(pool.rows), np.stack(rows), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(pool.rhs, rhs, rtol=0.0, atol=1e-12)
    # Cutting along a basis a second time adds nothing.
    assert pool.add(bases[-1], 2) == 0
    assert len(pool) == len(keys)


def test_seeded_pool_decomposes_each_state_once(monkeypatch):
    calls = []

    def counting(op):
        calls.append(op)
        return eig_hermitian(op)

    monkeypatch.setattr(sdp, "eig_hermitian", counting)
    states = random_ensemble(3, 5, seed=4).states
    _seeded_pool(weights_program(states))
    assert len(calls) == len(states)
    assert all(op is state for op, state in zip(calls, states))


def test_seeded_pool_reuses_the_validation_spectra(monkeypatch):
    states = random_ensemble(3, 5, seed=4).states
    calls = []
    real = linalg.eigh_stack

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg, "eigh_stack", counted)
    monkeypatch.setattr(sdp, "eigh_stack", counted)
    _seeded_pool(weights_program(states))
    assert calls == []  # every state was decomposed when it was validated


# When pairwise-difference eigenbases were seeded too, the pool held about
# n^2 d cuts, past the cut cap, so these stopped as iteration_cap after one
# LP with gaps of 0.64-0.89 bits; (32, 8, 7000) reported log2 n = 3 bits
# against its optimum 2.505306.
@pytest.mark.parametrize("dim, count, seed", [(32, 8, 7000), (64, 6, 1), (16, 12, 2), (8, 16, 3)])
def test_weights_form_certifies_past_the_seeding_cap(dim, count, seed):
    program = weights_program(random_ensemble(dim, count, seed=seed).states)
    sol = solve(program)
    assert sol.status == STATUS_SOLVED
    assert sol.relative_gap <= 1e-6 + 1e-12
    assert sol.lower_bound <= sol.value
    assert worst_lmi_eigenvalue(program.states, sol.primal) >= -5 * FEAS_TOL


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


# Two-state ensembles on which the fixed point alone ran all 20,000 passes
# (18-49 s) and stopped as iteration_cap with an exact upper value and a
# lagging lower bound; the measurement rounded from Y closes them at once.
@pytest.mark.parametrize("dim, seed", [(16, 7020), (16, 7012), (32, 7012)])
def test_dominating_form_closes_from_its_rounded_operator(dim, seed):
    e = random_ensemble(dim, 2, seed=seed)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_SOLVED
    assert sol.lower_bound <= 1.0 + trace_distance(*e.states) / 2.0 <= sol.value


def test_weights_form_never_reports_a_crossed_bracket():
    # B is exactly 3 here, and a value judged at the support threshold can
    # fall below a certified lower bound; such a bracket is refused.
    try:
        sol = solve(weights_program(nearly_parallel_triple().states))
    except LpSolverError as ex:
        assert str(ex).startswith("bracket crossed: lower bound ")
    else:
        assert sol.lower_bound <= sol.value * (1.0 + 1e-12)
        assert sol.status != STATUS_SOLVED or sol.value >= 3.0 * (1.0 - 1e-6)


def test_weights_form_repairs_a_direction_below_the_support_threshold():
    # The states' sum has an eigenvalue 4.9e-10 times its largest, under
    # SUPPORT_RTOL; a lift that took that direction for kernel returned a
    # value below the optimum 3 and crossed its own lower bound.
    sol = solve(weights_program(nearly_parallel_triple().states))
    assert sol.value >= 3.0 * (1.0 - 1e-12)
    assert sol.lower_bound <= sol.value


def test_weights_form_brackets_the_near_duplicate_family():
    # 144 seeded ensembles of states within 1-30% of one shared factor; with
    # cuts only past -1e-9 the LMI violations the lift paid for went uncut
    # and 19 of them ended iteration_cap.
    capped = []
    for key in NEAR_DUPLICATE_FAMILY:
        sol = solve(weights_program(near_duplicate_ensemble(*key).states))
        assert sol.lower_bound <= sol.value, key
        if sol.status != STATUS_SOLVED:
            capped.append(key)
    assert len(capped) <= 2, capped


def test_dominating_form_certifies_at_dimension_sixty_four():
    e = random_ensemble(64, 4, seed=0)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_SOLVED
    assert sol.lower_bound <= sol.value
    assert worst_lmi_eigenvalue(e.states, sol.primal) >= 0.0


def test_dominating_iteration_cap_keeps_an_honest_bracket(monkeypatch):
    monkeypatch.setattr(sdp, "_FIXED_POINT_CAP", 1)
    e = random_ensemble(7, 3, seed=2)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_ITERATION_CAP
    assert sol.iterations == 1
    assert sol.lower_bound <= sol.value
    assert worst_lmi_eigenvalue(e.states, sol.primal) >= 0.0


def test_weights_cut_cap_keeps_an_honest_bracket(monkeypatch):
    # criterion-2 ensemble i = 1 needs cuts past its seeded pool
    program = weights_program(random_ensemble(3, 3, seed=1001).states)
    seeded = len(_seeded_pool(program))
    monkeypatch.setattr(sdp, "_MAX_CUTS", 0)
    sol = solve(program)
    assert sol.status == STATUS_ITERATION_CAP
    assert sol.iterations == 1 and sol.cut_count == seeded
    assert sol.lower_bound <= sol.value
    assert worst_lmi_eigenvalue(program.states, sol.primal) >= -5 * FEAS_TOL


def test_weights_cut_cap_counts_only_cuts_beyond_the_seeded_pool(monkeypatch):
    # criterion-2 ensemble i = 2 seeds 16 cuts and adds 12 more; when the cap
    # counted the seeded pool too, a cap below 16 stopped it after one LP.
    program = weights_program(random_ensemble(4, 4, seed=1002).states)
    monkeypatch.setattr(sdp, "_MAX_CUTS", len(_seeded_pool(program)) - 1)
    sol = solve(program)
    assert sol.status == STATUS_SOLVED
    assert sol.relative_gap <= 1e-6 + 1e-12


def test_weights_lower_bound_does_not_trust_the_lp_objective(monkeypatch):
    # The simplex accepts a vertex with residual up to 1e-6, the size of the
    # gap tolerance; a solution scaled up by 1% exaggerates that error.  The
    # rescaled dual object cancels any scale, where the LP objective would not.
    program = weights_program(random_ensemble(3, 3, seed=1001).states)
    exact = solve(program)
    real = sdp.resume_phase2

    def inflated(*args):
        res = real(*args)
        if res.x is None:
            return res
        return dataclasses.replace(res, x=res.x * 1.01, objective=res.objective * 1.01)

    monkeypatch.setattr(sdp, "resume_phase2", inflated)
    sol = solve(program)
    assert sol.lower_bound <= sol.value
    assert abs(sol.lower_bound - exact.lower_bound) <= 1e-12


# Slow tails of the plain minimum-error fixed point: (2, 6, 8) took 12,528
# passes, and criterion-2 ensembles i = 17 and i = 19 took 993 and 702.
@pytest.mark.parametrize(
    "dim, count, seed, plain_passes", [(2, 6, 8, 12_528), (4, 3, 1017, 993), (3, 5, 1019, 702)]
)
def test_dominating_extrapolation_beats_the_plain_tail(dim, count, seed, plain_passes):
    e = random_ensemble(dim, count, seed=seed)
    sol = solve(dominating_program(e.states))
    assert sol.status == STATUS_SOLVED
    assert sol.iterations <= plain_passes
    assert fixed_point_payoff(e) <= sol.value
    assert sol.lower_bound <= sol.value
    trace = sol.lower_bound_trace
    assert all(a <= b for a, b in zip(trace, trace[1:]))


def test_stacked_eigensolver_certifies_every_matrix(monkeypatch):
    real_eigh = np.linalg.eigh

    def corrupt_stacks(a):
        w, v = real_eigh(a)
        if np.ndim(a) == 3:
            v = v.copy()
            v[-1] = v[-1][:, ::-1]
        return w, v

    # States are validated as stacks too, so they are built before the corruption.
    e = random_ensemble(3, 3, seed=5)
    monkeypatch.setattr(linalg.np.linalg, "eigh", corrupt_stacks)
    with pytest.raises(EigenSolverError):
        eigh_stack(np.stack([s.mat for s in e.states]))
    with pytest.raises(EigenSolverError):
        solve(dominating_program(e.states))


def test_cut_rows_that_differ_only_by_a_signed_zero_stay_two_cuts():
    pool = sdp._CutPool(sdp.weights_program(random_ensemble(2, 2, seed=1).states))
    # Forms against these stand-in states round to [0.5, -0.0] and [0.5, 0.0].
    pool.stack = np.array([np.eye(2) / 2, np.diag([-1e-12, 1e-12])], dtype=np.complex128)
    assert pool.add(np.eye(2, dtype=np.complex128), 0) == 2
    assert [np.signbit(row[1]) for row in np.round(pool.rows, 9)] == [True, False]
    assert pool.add(np.eye(2, dtype=np.complex128), 0) == 0  # the same rows again
    # State 1's right-hand sides (about -1e-12 and 1e-12) are implied by
    # state 0's 0.5 on the same rows.
    assert pool.add(np.eye(2, dtype=np.complex128), 1) == 0


def test_a_larger_right_hand_side_replaces_its_cut_in_place():
    pool = sdp._CutPool(sdp.weights_program(random_ensemble(2, 2, seed=1).states))
    basis = np.eye(2, dtype=np.complex128)
    # Against these stand-in states e_0 has the form row [0.2, 0.5] and e_1 [0.6, 0.1].
    pool.stack = np.array([np.diag([0.2, 0.6]), np.diag([0.5, 0.1])], dtype=np.complex128)
    assert pool.add(basis, 0) == 2
    assert pool.rhs == [0.2, 0.6]
    # Rows that round alike: state 1's 0.5 beats 0.2, so its cut takes e_0's
    # place, row and right-hand side; its 0.1 is implied by 0.6 and skipped.
    pool.stack = pool.stack + 1e-12 * np.eye(2)
    assert pool.add(basis, 1) == 1
    assert len(pool) == 2
    kept = [[0.2 + 1e-12, 0.5 + 1e-12], [0.6, 0.1]]
    np.testing.assert_allclose(pool.rows, kept, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(pool.rhs, [0.5 + 1e-12, 0.6], rtol=0.0, atol=1e-15)
    # State 0's right-hand sides are now both at most the kept ones.
    assert pool.add(basis, 0) == 0
    assert len(pool) == 2


@pytest.mark.parametrize("d", [8, 16, 32])
def test_depolarized_basis_states_keep_one_cut_per_basis_vector(monkeypatch, d):
    # The d states share one eigenbasis, so their d^2 seed cuts have d rows.
    p = 0.3
    states = apply_states(depolarizing_global(p, d), DensityOperator.pure_stack(np.eye(d)))
    pool = _seeded_pool(weights_program(states))
    assert len(pool) == d
    np.testing.assert_allclose(pool.rhs, (1 - p) + p / d, rtol=0.0, atol=1e-12)
    pivots = []
    real = sdp.resume_phase2

    def counting(*args):
        res = real(*args)
        pivots.append(res.iterations)
        return res

    monkeypatch.setattr(sdp, "resume_phase2", counting)
    cert = barycentric_leakage(Ensemble.uniform(states))
    assert cert.status == STATUS_SOLVED and cert.iterations == 1
    # Within its gap, plus the rounding of the closed form (the margin is 4e-16 at d = 16).
    assert abs(cert.value - math.log2(d * (1 - p) + p)) <= cert.gap + 1e-12
    # Each state owns the cut of its own basis vector, so the crash basis is
    # the optimal vertex (from the slack basis this took d pivots).
    assert sum(pivots) == 0


def _per_state_pool(program):
    """The pool that one `add` call per state makes, in state order."""
    pool = sdp._CutPool(program)
    for idx, state in enumerate(program.states):
        pool.add(eig_hermitian(state).eigenvectors, idx)
    return pool


def _assert_same_pool(got, want):
    assert [row.tobytes() for row in got.rows] == [row.tobytes() for row in want.rows]
    assert np.array(got.rhs).tobytes() == np.array(want.rhs).tobytes()
    assert got.owners == want.owners
    assert list(got._seen.items()) == list(want._seen.items())


def test_seeded_pool_equals_per_state_cuts_on_criterion_2_ensembles():
    for i in range(200):
        program = weights_program(random_ensemble(2 + i % 3, 2 + i % 4, seed=1000 + i).states)
        _assert_same_pool(_seeded_pool(program), _per_state_pool(program))


def _shared_eigenbasis_stacks():
    for d in (2, 4, 8, 16):
        basis = DensityOperator.pure_stack(np.eye(d))
        for p in (0.05, 0.3, 1.0):
            yield f"depolarized-basis-{d}-{p}", d, apply_states(depolarizing_global(p, d), basis)
    # One spectrum in a different order on each state: the states share
    # their eigenvectors, but each lists them in its own order.
    rng = np.random.default_rng(0)
    w = rng.uniform(0.1, 1.0, 6)
    diags = [np.diag(rng.permutation(w / w.sum())) for _ in range(5)]
    yield "permuted-spectra", 6, DensityOperator.stack(np.array(diags, dtype=np.complex128))


@pytest.mark.parametrize(
    "d, states", [case[1:] for case in _shared_eigenbasis_stacks()],
    ids=[case[0] for case in _shared_eigenbasis_stacks()],
)
def test_seeded_pool_forms_each_shared_eigenvector_once(monkeypatch, d, states):
    program = weights_program(states)
    want = _per_state_pool(program)
    widths = []
    real = sdp._CutPool.forms

    def counted(self, basis):
        widths.append(basis.shape[1])
        return real(self, basis)

    monkeypatch.setattr(sdp._CutPool, "forms", counted)
    got = _seeded_pool(program)
    assert widths == [d]  # n d columns, d of them distinct
    _assert_same_pool(got, want)


def test_seeded_pool_memory_peak_stays_at_one_basis_product():
    program = weights_program(random_ensemble(64, 16, seed=5).states)
    program.mats  # built before tracing: the program keeps it
    tracemalloc.start()
    try:
        _seeded_pool(program)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # All 1,024 columns are distinct.  Seeding one state at a time peaked at
    # 1.8 MB; forming every column in one product read 21 MB.
    assert peak < 2_000_000


def test_a_refused_crash_start_is_retried_from_the_slack_basis(monkeypatch):
    program = weights_program(random_ensemble(2, 2, seed=6).states)
    starts = []
    real = sdp.resume_phase2

    def recorded(cost, a_eq, b_eq, basis):
        res = real(cost, a_eq, b_eq, basis)
        starts.append((list(basis), res.status))
        return res

    monkeypatch.setattr(sdp, "resume_phase2", recorded)
    crashed = solve(program)
    # The crash basis holds each state's cut of largest rhs, columns 3 and 5
    # after the two slacks; it puts -1.3 on the first of them here, so the
    # first relaxation starts again at the slacks.
    (crash, refused), (slack, status) = starts[:2]
    assert crash == [3, 5] and refused != "optimal"
    assert (slack, status) == ([0, 1], "optimal")
    monkeypatch.setattr(sdp._CutPool, "_crash", lambda self: list(range(len(self.stack))))
    plain = solve(program)
    assert (crashed.value, crashed.lower_bound, crashed.iterations, crashed.cut_count) == (
        plain.value, plain.lower_bound, plain.iterations, plain.cut_count
    )
