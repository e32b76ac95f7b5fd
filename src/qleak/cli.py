"""Batch front end: leakage certificates, DP checks, and noise sweeps.

Inputs are JSON documents (complex entries as [re, im] pairs), outputs are
human-readable tables or CSV.  Runs are deterministic for a fixed spec and
seed.  Exit codes: 0 success, 2 validation, 3 solver non-convergence,
4 internal inequality-chain violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .channels import (
    AllPairs,
    DpParams,
    ExplicitPairs,
    QuantumChannel,
    TraceDistanceNeighbours,
    depolarizing_global,
    depolarizing_local,
    dp_epsilon_bound_depolarizing,
    leakage_after_channel,
    verify_dp_on_ensemble,
)
from .divergences import ProbVector
from .errors import (
    ChainViolationError,
    DimensionMismatch,
    EigenSolverError,
    LpSolverError,
    QleakError,
    UnsupportedModeError,
    ValidationError,
)
from .leakage import Ensemble, Povm, inequality_chain_report
from .linalg import DensityOperator, HermitianOperator
from .sdp import STATUS_SOLVED
from .vqml import (
    AngleEncoding,
    BasisEncoding,
    VariationalModel,
    basis_classifier,
    tradeoff_curve,
)

TRADEOFF_HEADER = "p,gamma_actual,gamma_bound,leakage_B_bits,leakage_R_bits,leakage_bound_bits"
SWEEP_HEADER = "p,dp_epsilon_nats,dp_epsilon_bits,leakage_B_bits,leakage_R_bits"
_DEFAULT_GRID = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.6f}"


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_json(rows, label: str) -> np.ndarray:
    try:
        return np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, IndexError, ValueError) as ex:
        raise ValidationError(f"{label}: entries must be [re, im] pairs ({ex})") from ex


def _convert(value, kind, field: str, what: str = ""):
    """kind(value), or a ValidationError that names the field."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as ex:
        what = what or ("an integer" if kind is int else "a number")
        raise ValidationError(f"{field} must be {what}, got {value!r}") from ex


def _expect(value, kind: type, field: str):
    """value if it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(value, kind):
        what = "an array" if kind is list else "an object"
        raise ValidationError(f"{field} must be {what}, got {value!r}")
    return value


def _float_array(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def ensemble_to_json(e: Ensemble) -> dict:
    return {
        "dimension": e.dim,
        "prior": [float(p) for p in e.prior.probs],
        "states": [_matrix_to_json(s.mat) for s in e.states],
    }


def parse_ensemble(doc: dict) -> Ensemble:
    _expect(doc, dict, "ensemble spec")
    for key in ("dimension", "prior", "states"):
        if key not in doc:
            raise ValidationError(f"ensemble spec missing field '{key}'")
    dim = _convert(doc["dimension"], int, "dimension")
    states = []
    for i, rows in enumerate(_expect(doc["states"], list, "states")):
        mat = _matrix_from_json(rows, f"states[{i}]")
        if mat.shape != (dim, dim):
            raise ValidationError(
                f"states[{i}] has shape {mat.shape}, expected ({dim}, {dim})"
            )
        try:
            states.append(DensityOperator.from_matrix(mat))
        except ValidationError as ex:
            raise ValidationError(f"states[{i}]: {ex}") from ex
    prior = _convert(doc["prior"], _float_array, "prior", "a list of numbers")
    return Ensemble(ProbVector(prior), tuple(states))


def _channel_param(params: dict, name: str, kind):
    if name not in params:
        raise ValidationError(f"channel spec missing field 'params.{name}'")
    return _convert(params[name], kind, f"params.{name}")


def parse_channel(doc: dict) -> QuantumChannel:
    if "kind" not in _expect(doc, dict, "channel spec"):
        raise ValidationError("channel spec missing field 'kind'")
    kind = doc["kind"]
    params = _expect(doc.get("params", {}), dict, "params")
    if kind == "depolarizing_global":
        return depolarizing_global(
            _channel_param(params, "p", float), _channel_param(params, "d", int)
        )
    if kind == "depolarizing_local":
        return depolarizing_local(
            _channel_param(params, "p", float), _channel_param(params, "qubits", int)
        )
    if kind == "kraus":
        mats = [
            _matrix_from_json(rows, f"kraus[{i}]")
            for i, rows in enumerate(params.get("kraus", []))
        ]
        return QuantumChannel(tuple(mats))
    raise ValidationError(f"channel kind '{kind}' not recognized")


def parse_dp_params(doc: dict) -> DpParams:
    if "epsilon_nats" not in _expect(doc, dict, "dp spec"):
        raise ValidationError("dp spec missing field 'epsilon_nats'")
    nb = _expect(doc.get("neighbouring", {"kind": "all_pairs"}), dict, "neighbouring")
    kind = nb.get("kind", "all_pairs")
    if kind == "all_pairs":
        relation = AllPairs()
    elif kind == "trace_distance":
        relation = TraceDistanceNeighbours(
            kappa=_convert(nb.get("kappa", 2.0), float, "neighbouring.kappa")
        )
    elif kind == "explicit":
        pairs = []
        for i, pair in enumerate(_expect(nb.get("pairs", []), list, "neighbouring.pairs")):
            field = f"neighbouring.pairs[{i}]"
            if len(_expect(pair, list, field)) != 2:
                raise ValidationError(f"{field} must be a pair of indices, got {pair!r}")
            pairs.append(tuple(_convert(x, int, field, "a pair of indices") for x in pair))
        relation = ExplicitPairs(tuple(pairs))
    else:
        raise ValidationError(f"neighbouring kind '{kind}' not recognized")
    return DpParams(
        epsilon_nats=_convert(doc["epsilon_nats"], float, "epsilon_nats"),
        delta=_convert(doc.get("delta", 0.0), float, "delta"),
        neighbouring=relation,
    )


def parse_model(doc: dict) -> tuple[VariationalModel, list, np.ndarray]:
    for key in ("qubits", "encoder"):
        if key not in doc:
            raise ValidationError(f"model spec missing field '{key}'")
    qubits = _convert(doc["qubits"], int, "qubits")
    name = doc["encoder"]
    if name == "basis":
        encoder = BasisEncoding()
    elif name == "angle":
        encoder = AngleEncoding()
    else:
        raise ValidationError(f"encoder '{name}' not recognized (basis or angle)")
    layers = tuple(
        _convert(v, _float_array, f"layers[{i}]", "a list of numbers")
        for i, v in enumerate(_expect(doc.get("layers", []), list, "layers"))
    )
    if "povm" in doc:
        povm = Povm(
            tuple(
                HermitianOperator(_matrix_from_json(rows, f"povm[{i}]"))
                for i, rows in enumerate(_expect(doc["povm"], list, "povm"))
            )
        )
    else:
        classes = doc.get("classes")
        if classes is not None:
            classes = _convert(classes, int, "classes")
        povm = basis_classifier(qubits, classes)
    model = VariationalModel(qubits=qubits, encoder=encoder, layers=layers, classifier=povm)
    if "inputs" in doc:
        kind = int if isinstance(encoder, BasisEncoding) else _float_array
        what = "" if kind is int else "a number or a list of numbers"
        entries = enumerate(_expect(doc["inputs"], list, "inputs"))
        inputs = [_convert(x, kind, f"inputs[{i}]", what) for i, x in entries]
        if not inputs:
            raise ValidationError("inputs must list at least one input")
    elif isinstance(encoder, BasisEncoding):
        inputs = list(range(model.dim))
    else:
        raise ValidationError("model spec with angle encoder must list 'inputs'")
    prior = doc.get("prior", [1.0 / len(inputs)] * len(inputs))
    return model, inputs, _convert(prior, _float_array, "prior", "a list of numbers")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as ex:
        raise ValidationError(f"cannot read --input {path}: {ex}") from ex
    except json.JSONDecodeError as ex:
        raise ValidationError(f"--input {path} is not valid JSON: {ex}") from ex
    return _expect(doc, dict, f"--input {path}")


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as ex:
        raise ValidationError(f"--p-grid must be a comma list of reals: {ex}") from ex
    if not grid:
        raise ValidationError("--p-grid is empty")
    return grid


def _workers(rows: int) -> int:
    raw = os.environ.get("QLEAK_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError as ex:
            raise ValidationError(f"QLEAK_THREADS must be an integer: {raw!r}") from ex
        if cap < 1:
            raise ValidationError(f"QLEAK_THREADS must be positive: {cap}")
    else:
        cap = 4
    return max(1, min(cap, rows))


def _diag_pair_ensemble() -> Ensemble:
    return Ensemble.uniform(
        (
            DensityOperator.from_matrix(np.diag([0.75, 0.25])),
            DensityOperator.from_matrix(np.diag([0.25, 0.75])),
        )
    )


def _basis_ensemble(dim: int) -> Ensemble:
    states = []
    for x in range(dim):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[x] = 1.0
        states.append(DensityOperator.pure(vec))
    return Ensemble.uniform(tuple(states))


def _leakage_table(e: Ensemble, gap_tol: float, restarts: int, seed: int) -> tuple[str, int]:
    report = inequality_chain_report(e, gap_tol=gap_tol, restarts=restarts, seed=seed)
    lines = [f"ensemble: {e.count} states in dimension {e.dim}"]
    lines.append(f"{'quantity':<22}{'bits':>12}{'gap':>12}  witness")
    lines.append(f"{'accessible (lower)':<22}{_fmt(report.accessible_lower):>12}{'-':>12}")
    lines.append(f"{'holevo':<22}{_fmt(report.holevo):>12}{'-':>12}")
    lines.append(f"{'srm guessing':<22}{_fmt(report.srm_povm_leakage):>12}{'-':>12}")
    cert = report.sandwiched_inf
    lines.append(
        f"{'sandwiched-inf MI':<22}{_fmt(cert.value):>12}{cert.gap:>12.2e}"
    )
    cert = report.maximal
    lines.append(f"{'maximal Q':<22}{_fmt(cert.value):>12}{cert.gap:>12.2e}")
    cert = report.barycentric
    weights = ", ".join(f"{w:.6f}" for w in np.asarray(cert.witness, dtype=np.float64))
    lines.append(
        f"{'barycentric B':<22}{_fmt(cert.value):>12}{cert.gap:>12.2e}  weights [{weights}]"
    )
    cert = report.pairwise
    lines.append(
        f"{'pairwise R':<22}{_fmt(cert.value):>12}{cert.gap:>12.2e}  pair {cert.witness}"
    )
    lines.append("ordering checks (slack in bits):")
    for label, slack in report.checks.items():
        lines.append(f"  ok  {label:<26} {slack:.3e}")
    rows = {
        "sandwiched-inf MI": report.sandwiched_inf,
        "maximal Q": report.maximal,
        "barycentric B": report.barycentric,
        "pairwise R": report.pairwise,
    }
    capped = [
        f"{label} {_fmt(cert.value)} bits, gap {cert.gap:.1e}"
        for label, cert in rows.items()
        if cert.status != STATUS_SOLVED
    ]
    if capped:
        print(f"iteration cap: {'; '.join(capped)}", file=sys.stderr)
    return "\n".join(lines) + "\n", 3 if capped else 0


def _cmd_leakage(args) -> tuple[str, int]:
    if not args.input:
        raise ValidationError("leakage needs --input with an ensemble spec")
    e = parse_ensemble(_load_json(args.input))
    return _leakage_table(e, args.gap_tol, args.restarts, args.seed)


def _cmd_dp_check(args) -> tuple[str, int]:
    if not args.input:
        raise ValidationError("dp-check needs --input with ensemble/channel/dp fields")
    doc = _load_json(args.input)
    for key in ("ensemble", "channel", "dp"):
        if key not in doc:
            raise ValidationError(f"dp-check spec missing field '{key}'")
    e = parse_ensemble(doc["ensemble"])
    ch = parse_channel(doc["channel"])
    params = parse_dp_params(doc["dp"])
    report = verify_dp_on_ensemble(ch, e, params)
    lines = [
        f"epsilon: {_fmt(report.epsilon_nats)} nats = {_fmt(report.epsilon_bits)} bits, "
        f"delta {report.delta:g}",
        f"{'pair':<10}{'divergence_bits':>18}{'threshold_bits':>18}  status",
    ]
    for r in report.pairs:
        lines.append(
            f"{f'{r.x}->{r.x_prime}':<10}{_fmt(r.divergence_bits):>18}"
            f"{_fmt(report.epsilon_bits):>18}  {'pass' if r.passed else 'FAIL'}"
        )
    verdict = "PASS" if report.passed else "FAIL"
    lines.append(
        f"overall: {verdict} (max divergence {_fmt(report.max_divergence_bits)} bits)"
    )
    lines.append(f"note: {report.note}")
    return "\n".join(lines) + "\n", 0


def _tradeoff_model(args) -> tuple[VariationalModel, list, np.ndarray]:
    if args.input:
        return parse_model(_load_json(args.input))
    d = args.d
    if d < 2 or d & (d - 1):
        raise ValidationError(f"--d must be a power of two >= 2, got {d}")
    qubits = d.bit_length() - 1
    model = VariationalModel(
        qubits=qubits,
        encoder=BasisEncoding(),
        layers=(),
        classifier=basis_classifier(qubits),
    )
    return model, list(range(d)), np.full(d, 1.0 / d)


def _cmd_tradeoff(args) -> tuple[str, int]:
    model, inputs, prior = _tradeoff_model(args)
    grid = _parse_grid(args.p_grid)

    def one(p: float):
        return tradeoff_curve(model, inputs, prior, [p], gap_tol=args.gap_tol)[0]

    with ThreadPoolExecutor(max_workers=_workers(len(grid))) as pool:
        rows = list(pool.map(one, grid))
    lines = [TRADEOFF_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.p,
                    r.gamma_actual,
                    r.gamma_bound,
                    r.leakage_B,
                    r.leakage_R,
                    r.leakage_bound,
                )
            )
        )
    return "\n".join(lines) + "\n", 0


def _cmd_sweep(args) -> tuple[str, int]:
    e = parse_ensemble(_load_json(args.input)) if args.input else _diag_pair_ensemble()
    grid = _parse_grid(args.p_grid)
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"--p-grid entry {p} outside [0, 1]")

    def one(p: float):
        ch = depolarizing_global(p, e.dim)
        b, r = leakage_after_channel(ch, e, gap_tol=args.gap_tol)
        eps = dp_epsilon_bound_depolarizing(p, e.dim)
        return p, eps, eps / math.log(2.0), b.value, r.value

    with ThreadPoolExecutor(max_workers=_workers(len(grid))) as pool:
        rows = list(pool.map(one, grid))
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n", 0


def _cmd_demo(args) -> tuple[str, int]:
    chunks = []
    basis = _basis_ensemble(4)
    table, code_a = _leakage_table(basis, args.gap_tol, restarts=8, seed=args.seed)
    chunks.append("== basis encoding on two qubits ==")
    chunks.append(table.rstrip("\n"))
    chunks.append("summary: B = Q = 2.000000 bits, R = inf")
    pair = _diag_pair_ensemble()
    table, code_b = _leakage_table(pair, args.gap_tol, restarts=8, seed=args.seed)
    chunks.append("")
    chunks.append("== diagonal qubit pair ==")
    chunks.append(table.rstrip("\n"))
    chunks.append("summary: B = 0.584963 bits, R = 1.584963 bits")
    return "\n".join(chunks) + "\n", max(code_a, code_b)


_COMMANDS = {
    "leakage": _cmd_leakage,
    "dp-check": _cmd_dp_check,
    "tradeoff": _cmd_tradeoff,
    "sweep": _cmd_sweep,
    "demo": _cmd_demo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qleak",
        description="Certified leakage measures, DP checks, and noise sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "leakage": "certificate table for an ensemble spec",
        "dp-check": "max-divergence DP consequence check",
        "tradeoff": "degradation vs leakage CSV over a depolarizing grid",
        "sweep": "DP bound and leakage CSV over a depolarizing grid",
        "demo": "built-in basis-encoding and diagonal-pair instances",
    }
    for name, text in specs.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--input", default=None, help="JSON input document")
        p.add_argument("--output", default=None, help="write here instead of stdout")
        p.add_argument("--gap-tol", dest="gap_tol", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=32, help="random starts of the "
                       "accessible-information search; 0 keeps the computational basis only")
        p.add_argument("--p-grid", dest="p_grid", default=_DEFAULT_GRID)
        p.add_argument("--d", type=int, default=2, help="dimension for the default model")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = _COMMANDS[args.command](args)
    except (ValidationError, DimensionMismatch, UnsupportedModeError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (LpSolverError, EigenSolverError) as ex:
        print(f"solver error: {ex}", file=sys.stderr)
        return 3
    except ChainViolationError as ex:
        print(f"chain violation: {ex}", file=sys.stderr)
        return 4
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            print(f"error: cannot write --output {args.output}: {ex}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
