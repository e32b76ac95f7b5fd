"""Shared generators and independent oracles for the test suite.

Everything here is deliberately dumb: brute-force vertex enumeration for
linear programs, Bloch-sphere grids and fixed-point iterations for
measurement optimization.  Slow and obvious beats clever when the job is
checking the fast code.
"""

import itertools
import math

import numpy as np

from qleak.divergences import ProbVector
from qleak.leakage import Ensemble
from qleak.linalg import DensityOperator, HermitianOperator, operator_power, random_density


def brute_force_lp(cost, a_eq, b_eq, tol=1e-9):
    """Standard-form minimum by basic-solution enumeration.

    Assumes full row rank, so any finite optimum sits at a basic feasible
    solution.  Returns (status, value) with value = inf when infeasible.
    """
    a = np.asarray(a_eq, dtype=np.float64)
    b = np.asarray(b_eq, dtype=np.float64)
    c = np.asarray(cost, dtype=np.float64)
    m, n = a.shape
    best = math.inf
    feasible = False
    for cols in itertools.combinations(range(n), m):
        sub = a[:, cols]
        try:
            x = np.linalg.solve(sub, b)
        except np.linalg.LinAlgError:
            continue
        if float(np.max(np.abs(sub @ x - b))) > 1e-7:
            continue
        if float(np.min(x)) < -tol:
            continue
        feasible = True
        best = min(best, float(c[list(cols)] @ x))
    if not feasible:
        return "infeasible", math.inf
    return "optimal", best


def random_ensemble(dim, count, seed, uniform=False):
    """Mixed-rank random ensemble with a seeded, strictly positive prior."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        rank = int(rng.integers(1, dim + 1))
        states.append(random_density(dim, rank, int(rng.integers(0, 2**31))))
    if uniform:
        return Ensemble.uniform(tuple(states))
    raw = rng.uniform(0.2, 1.0, size=count)
    return Ensemble(ProbVector(raw / raw.sum()), tuple(states))


def nearly_parallel_triple(eps=1e-4):
    """Three pure states in d = 4 within about eps of e0, under a uniform prior.

    psi0 = e0, psi1 = cos eps e0 + sin eps e1, psi2 proportional to
    cos eps e0 - 0.5 sin eps e1 + 0.8 sin eps e3.  They are linearly
    independent, so every weight dominating them is at least 1 and B = log2 3.
    """
    c, s = math.cos(eps), math.sin(eps)
    return Ensemble.uniform(
        DensityOperator.pure_stack([[1, 0, 0, 0], [c, s, 0, 0], [c, -0.5 * s, 0, 0.8 * s]])
    )


def near_duplicate_ensemble(dim, count, rank, pert, seed):
    """count states (G G') / tr, G = base + pert N, sharing one complex dim x rank base.

    base and every N are standard complex Gaussian draws, base first, from
    numpy's default_rng(seed); the prior is uniform.
    """
    rng = np.random.default_rng(seed)

    def gauss():
        return rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))

    base = gauss()
    mats = []
    for _ in range(count):
        g = base + pert * gauss()
        mats.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    return Ensemble.uniform(DensityOperator.stack(mats))


# (dim, count, rank, pert, seed) of the 144 near-duplicate ensembles.
NEAR_DUPLICATE_FAMILY = tuple(
    itertools.product((2, 4, 8), (2, 3, 5), (1, 2), (0.3, 0.1, 0.03, 0.01), (0, 1))
)


def povm_payoff(e, elements):
    """sum_y max_x tr(rho_x F_y): the unweighted guessing payoff."""
    total = 0.0
    for f in elements:
        fm = f.mat if hasattr(f, "mat") else f
        total += max(float(np.einsum("ij,ji->", s.mat, fm).real) for s in e.states)
    return total


def povm_mutual_information(e, povm):
    """I(X;Y) in bits of a measurement, with P(y|x) = tr(rho_x F_y) summed entry by entry."""
    prior = [float(p) for p in e.prior.probs]
    cond = []
    for s in e.states:
        row = []
        for f in povm.elements:
            tr = sum(s.mat[i, j] * f.mat[j, i] for i in range(e.dim) for j in range(e.dim))
            row.append(max(float(tr.real), 0.0))
        cond.append(row)
    total = 0.0
    for y in range(len(povm.elements)):
        py = sum(prior[x] * cond[x][y] for x in range(len(prior)))
        for x in range(len(prior)):
            joint = prior[x] * cond[x][y]
            if joint > 1e-18:
                total += joint * math.log2(joint / (prior[x] * py))
    return total


def fixed_point_payoff(e, iters=300):
    """Best guessing payoff from the discrimination fixed-point iteration.

    Updates M_x <- G^{-1/2} rho_x M_x rho_x G^{-1/2} with
    G = sum_x rho_x M_x rho_x, parking any support leftover in M_0 so the
    family stays a POVM.  Returns the largest payoff seen along the way.
    """
    d, m = e.dim, e.count
    mats = [s.mat for s in e.states]
    povm = [np.eye(d, dtype=np.complex128) / m for _ in range(m)]
    best = povm_payoff(e, povm)
    for _ in range(iters):
        g = sum(r @ f @ r for r, f in zip(mats, povm))
        root = operator_power(HermitianOperator(g), -0.5).mat
        povm = [root @ r @ f @ r @ root for r, f in zip(mats, povm)]
        leftover = np.eye(d, dtype=np.complex128) - sum(povm)
        povm[0] = povm[0] + leftover
        value = povm_payoff(e, povm)
        if value > best + 1e-14:
            best = value
        elif value < best - 1e-10:
            break
    return best


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def bloch_grid_payoff(e, directions=10_000):
    """Best two-outcome projective payoff over a Fibonacci Bloch grid (d=2)."""
    assert e.dim == 2
    bloch = np.array(
        [[float(np.trace(s.mat @ pauli).real) for pauli in _PAULIS] for s in e.states]
    )
    idx = np.arange(directions)
    z = 1.0 - 2.0 * (idx + 0.5) / directions
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    phi = idx * math.pi * (3.0 - math.sqrt(5.0))
    grid = np.stack([r * np.cos(phi), r * np.sin(phi), z])
    dots = bloch @ grid
    payoff = 1.0 + 0.5 * (np.max(dots, axis=0) + np.max(-dots, axis=0))
    return float(np.max(payoff))


def worst_lmi_eigenvalue(states, point):
    """Least eigenvalue of A - rho_x over the states, from numpy.linalg.eigvalsh alone.

    A is sum_x c_x rho_x when point is a weight vector c, else the operator itself.
    """
    mats = [s.mat for s in states]
    a = np.asarray(getattr(point, "mat", point))
    if a.ndim == 1:
        a = sum(c * m for c, m in zip(a, mats))
    return min(float(np.linalg.eigvalsh(a - m)[0]) for m in mats)


def diagonal_weights_value(diags):
    """Weights-program optimum for commuting states, via the classical LP.

    In the common eigenbasis the program is min sum(c) subject to
    M c >= per-entry max, c >= 0, solved here by vertex enumeration on the
    slack-extended standard form.
    """
    m = len(diags)
    mat = np.array(diags, dtype=np.float64).T
    target = np.max(mat, axis=1)
    d = mat.shape[0]
    a_eq = np.hstack([mat, -np.eye(d)])
    cost = np.concatenate([np.ones(m), np.zeros(d)])
    status, value = brute_force_lp(cost, a_eq, target)
    assert status == "optimal"
    return value
