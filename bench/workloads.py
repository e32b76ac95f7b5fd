"""Seeded inputs, op lists and output checks for the benchmark workloads.

An op is one `qleak` CLI command, described by a JSON-ready dict holding
its argv and whatever its check needs.  Inputs depend only on the seed.
Every check returns None on success or a one-line reason for the failure;
the checks use numpy and closed forms, never qleak itself.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qleak.linalg import DensityOperator, random_unitary

GAP_TOL = 1e-6
# A relative gap of GAP_TOL on an objective >= 1 is at most this many bits.
GAP_BITS_MAX = -math.log2(1.0 - GAP_TOL)
VALUE_TOL = 1e-6
DEFAULT_SEED = 0
# Seed of the fixed leakage and dp-check input pools; the run seed only rotates them.
POOL_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference_leakage.json")

CHAIN_LABELS = (
    "accessible<=holevo",
    "holevo<=barycentric",
    "barycentric<=pairwise",
    "srm<=maximal",
    "maximal<=barycentric",
    "sandwiched<=barycentric",
)
TRADEOFF_HEADER = (
    "p,gamma_actual,gamma_bound,leakage_B_bits,leakage_R_bits,leakage_bound_bits"
)


@dataclass(frozen=True)
class Workload:
    """One workload: its sizes and how to make and check its ops."""

    name: str
    # Input sizes repeat with this period; timed runs stop on a whole cycle
    # so every run sees the same size mix.
    cycle: int
    # Fewest ops a timed run makes; it fixes the tail percentile.
    min_ops: int
    # Length of the fixed op list the traced run replays.
    trace_ops: int
    # Distinct inputs made per seed; ops wrap round after this many.
    pool: int
    generate: Callable[[int, int, Path], list]
    check: Callable[[dict, str], "str | None"]


def _random_ensemble(dim: int, count: int, rng: np.random.Generator):
    """Mixed-rank states and a prior in [0.2, 1] normalised.

    The same draws as the test suite's random_ensemble, which calls
    qleak.linalg.random_density; states are validated once, after _rotate.
    """
    states = []
    for _ in range(count):
        rank = int(rng.integers(1, dim + 1))
        g_rng = np.random.default_rng(int(rng.integers(0, 2**31)))
        g = g_rng.standard_normal((dim, rank)) + 1j * g_rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    raw = rng.uniform(0.2, 1.0, size=count)
    return raw / raw.sum(), states


def _rotate(states: list[np.ndarray], key: list[int]) -> list[np.ndarray]:
    """Turn every state by one Haar unitary drawn from key, validating each result.

    The leakage and dp-check pools are drawn once from POOL_SEED and the run
    seed only picks these unitaries.  A common unitary changes every matrix
    entry but no leakage value, divergence or spectrum, so every seed poses
    problems of the same difficulty in a different basis.  Fresh draws per
    seed made the rate depend on the draw: the Q solve on two states at d=4
    costs from 0.1 s to 2.3 s with their rank profile, and a d=16 dp-check op
    from 0.7 s to 1.7 s with its ranks and p.
    """
    dim = states[0].shape[0]
    u = random_unitary(dim, int(np.random.default_rng(key).integers(0, 2**31)))
    return [DensityOperator.from_matrix(u @ s @ u.conj().T).mat for s in states]


def _ensemble_doc(prior, states) -> dict:
    return {
        "dimension": int(states[0].shape[0]),
        "prior": [float(p) for p in prior],
        "states": [np.stack([m.real, m.imag], axis=-1).tolist() for m in states],
    }


def _states_from_doc(doc: dict) -> list[np.ndarray]:
    return [np.asarray(s, dtype=np.float64) @ np.array([1.0, 1j]) for s in doc["states"]]


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


# --- leakage ---------------------------------------------------------------

_LEAKAGE_ROWS = {
    "accessible (lower)": "accessible",
    "holevo": "holevo",
    "srm guessing": "srm",
    "sandwiched-inf MI": "sandwiched",
    "maximal Q": "Q",
    "barycentric B": "B",
    "pairwise R": "R",
}
_CERTIFIED = ("sandwiched", "Q", "B", "R")
_LEAKAGE_ROW = re.compile(r"^(.{22})\s*(\S+)\s+(\S+)")


def generate_leakage(seed: int, count: int, workdir: Path) -> list:
    reference = None
    if seed == DEFAULT_SEED and REFERENCE_PATH.is_file():
        reference = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    ops = []
    for j in range(count):
        dim, n = 2 + j % 3, 2 + j % 4
        prior, states = _random_ensemble(dim, n, np.random.default_rng([POOL_SEED, j]))
        states = _rotate(states, [seed, j])
        path = _write_json(workdir / f"ensemble-{j}.json", _ensemble_doc(prior, states))
        ops.append(
            {
                "argv": ["leakage", "--input", path, "--restarts", "2", "--seed", str(j)],
                "dim": dim,
                "count": n,
                "reference": reference[j] if reference and j < len(reference) else None,
            }
        )
    return ops


def parse_leakage(text: str) -> dict:
    """Rows of the leakage table as {key: (value, gap or None)}; ordering labels under 'checks'."""
    rows: dict = {"checks": []}
    lines = text.splitlines()
    rows["header"] = lines[0] if lines else ""
    for line in lines:
        if line.startswith("  ok  "):
            rows["checks"].append(line[6:].split()[0])
            continue
        m = _LEAKAGE_ROW.match(line)
        if m and m.group(1).strip() in _LEAKAGE_ROWS:
            gap = None if m.group(3) == "-" else float(m.group(3))
            rows[_LEAKAGE_ROWS[m.group(1).strip()]] = (float(m.group(2)), gap)
    return rows


def check_leakage(op: dict, text: str) -> "str | None":
    try:
        rows = parse_leakage(text)
    except (ValueError, IndexError) as ex:
        return f"unparsable leakage table ({ex})"
    expected = f"ensemble: {op['count']} states in dimension {op['dim']}"
    if rows["header"] != expected:
        return f"header {rows['header']!r} != {expected!r}"
    missing = [k for k in _LEAKAGE_ROWS.values() if k not in rows]
    if missing:
        return f"missing rows {missing}"
    for key in _CERTIFIED:
        gap = rows[key][1]
        if gap is None or gap > GAP_BITS_MAX:
            return f"{key} gap {gap} exceeds {GAP_BITS_MAX:.4e} bits"
    if tuple(rows["checks"]) != CHAIN_LABELS:
        return f"ordering checks {rows['checks']} != {list(CHAIN_LABELS)}"
    ref = op.get("reference")
    if ref is None:
        return None
    # The sandwiched-inf mutual information comes from Q's program.
    for key, ref_key in (("Q", "Q"), ("sandwiched", "Q"), ("B", "B"), ("R", "R")):
        (value, gap), (ref_value, ref_gap) = rows[key], ref[ref_key]
        if not _close(value, ref_value, gap + ref_gap + VALUE_TOL):
            return f"{key} = {value} differs from reference {ref_value}"
    for key in ("holevo", "srm"):
        if not _close(rows[key][0], ref[key], VALUE_TOL):
            return f"{key} = {rows[key][0]} differs from reference {ref[key]}"
    if rows["accessible"][0] < ref["accessible"] - VALUE_TOL:
        return f"accessible {rows['accessible'][0]} fell below reference {ref['accessible']}"
    return None


def reference_row(text: str) -> dict:
    """The reference-table entry for one leakage output."""
    rows = parse_leakage(text)
    row = {key: list(rows[key]) for key in ("Q", "B", "R")}
    row.update({key: rows[key][0] for key in ("holevo", "srm", "accessible")})
    return row


# --- tradeoff --------------------------------------------------------------

TRADEOFF_DIMS = (8, 8, 16)


def generate_tradeoff(seed: int, count: int, workdir: Path) -> list:
    """One seeded p per op, so the CLI's pool runs one worker.

    Two workers contend for the GIL, which makes op times follow the load on
    the other core: two ten-run sets of a two-point grid differed by 27% in
    median op latency on a shared 2-core host.
    """
    rng = np.random.default_rng([seed, 1])
    ops = []
    for j in range(count):
        dim = TRADEOFF_DIMS[j % len(TRADEOFF_DIMS)]
        p = round(float(rng.uniform(0.1, 0.9)), 6)
        ops.append({"argv": ["tradeoff", "--d", str(dim), "--p-grid", f"{p:.6f}"], "dim": dim, "ps": [p]})
    return ops


def tradeoff_closed_forms(dim: int, p: float) -> tuple:
    """Exact row of the basis-encoded model: p, gamma, 2p, B, R, bound."""
    return (
        p,
        2.0 * p * (dim - 1) / dim,
        2.0 * p,
        math.log2(dim * (1.0 - p) + p),
        math.log2(1.0 + (1.0 - p) * dim / p),
        math.log2(1.0 + 2.0 * (1.0 - p) * dim / p),
    )


def check_tradeoff(op: dict, text: str) -> "str | None":
    lines = text.splitlines()
    if not lines or lines[0] != TRADEOFF_HEADER:
        return "missing tradeoff CSV header"
    if len(lines) != 1 + len(op["ps"]):
        return f"{len(lines) - 1} rows for {len(op['ps'])} grid points"
    for line, p in zip(lines[1:], op["ps"]):
        try:
            got = [float(tok) for tok in line.split(",")]
        except ValueError:
            return f"unparsable row {line!r}"
        want = tradeoff_closed_forms(op["dim"], p)
        if len(got) != len(want):
            return f"row {line!r} has {len(got)} columns"
        for name, g, w in zip(TRADEOFF_HEADER.split(","), got, want):
            if not _close(g, w, VALUE_TOL):
                return f"{name} = {g} at d={op['dim']}, p={p}; closed form {w:.9f}"
    return None


# --- dp-check --------------------------------------------------------------

DP_DIMS = (8, 8, 16)
DP_STATES = 4
_DP_PAIR = re.compile(r"^(\d+)->(\d+)\s+(\S+)\s+(\S+)\s+(pass|FAIL)$")


def generate_dp_check(seed: int, count: int, workdir: Path) -> list:
    ops = []
    for j in range(count):
        dim = DP_DIMS[j % len(DP_DIMS)]
        rng = np.random.default_rng([POOL_SEED, 2, j])
        prior, states = _random_ensemble(dim, DP_STATES, rng)
        p = round(float(rng.uniform(0.1, 0.9)), 6)
        states = _rotate(states, [seed, 2, j])
        doc = {
            "ensemble": _ensemble_doc(prior, states),
            "channel": {"kind": "depolarizing_global", "params": {"p": p, "d": dim}},
            "dp": {
                "epsilon_nats": math.log1p(2.0 * (1.0 - p) * dim / p),
                "neighbouring": {"kind": "all_pairs"},
            },
        }
        path = _write_json(workdir / f"dp-job-{j}.json", doc)
        ops.append({"argv": ["dp-check", "--input", path], "job": path})
    return ops


def dp_oracle(job: dict) -> dict:
    """log2 lambda_max(s^-1/2 r s^-1/2) for every ordered pair of depolarized outputs."""
    p = float(job["channel"]["params"]["p"])
    states = _states_from_doc(job["ensemble"])
    dim = states[0].shape[0]
    outs = [(1.0 - p) * s + p * np.eye(dim) / dim for s in states]
    divergences = {}
    for j, sigma in enumerate(outs):
        w, v = np.linalg.eigh(sigma)
        root = (v / np.sqrt(w)) @ v.conj().T
        for i, rho in enumerate(outs):
            if i != j:
                top = np.linalg.eigvalsh(root @ rho @ root)[-1]
                divergences[(i, j)] = math.log2(float(top))
    return divergences


def check_dp_check(op: dict, text: str) -> "str | None":
    job = json.loads(Path(op["job"]).read_text(encoding="utf-8"))
    want = dp_oracle(job)
    got = {}
    for line in text.splitlines():
        m = _DP_PAIR.match(line)
        if m:
            got[(int(m.group(1)), int(m.group(2)))] = (float(m.group(3)), m.group(5))
    if set(got) != set(want):
        return f"pairs {sorted(got)} != {sorted(want)}"
    for pair, (value, status) in got.items():
        if not _close(value, want[pair], VALUE_TOL):
            return f"pair {pair} divergence {value} != oracle {want[pair]:.9f}"
        if status != "pass":
            return f"pair {pair} reported {status}"
    if not any(line.startswith("overall: PASS") for line in text.splitlines()):
        return "verdict is not PASS"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="leakage",
            cycle=12,
            min_ops=36,
            trace_ops=12,
            pool=48,
            generate=generate_leakage,
            check=check_leakage,
        ),
        Workload(
            name="tradeoff",
            cycle=3,
            min_ops=90,
            trace_ops=12,
            pool=192,
            generate=generate_tradeoff,
            check=check_tradeoff,
        ),
        Workload(
            name="dp-check",
            cycle=3,
            min_ops=36,
            trace_ops=9,
            pool=42,
            generate=generate_dp_check,
            check=check_dp_check,
        ),
    )
}
