"""Batch front end: leakage certificates, DP checks, and noise sweeps.

Inputs are JSON documents (complex entries as [re, im] pairs), outputs are
human-readable tables or CSV.  Runs are deterministic for a fixed spec and
seed.  Exit codes: 0 success, 2 validation, 3 solver non-convergence,
4 internal inequality-chain violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .channels import (
    AllPairs,
    DpParams,
    ExplicitPairs,
    QuantumChannel,
    TraceDistanceNeighbours,
    depolarized_leakage,
    depolarizing_global,
    depolarizing_local,
    verify_dp_on_ensemble,
)
from .divergences import ProbVector
from .errors import (
    ChainViolationError,
    DimensionMismatch,
    EigenSolverError,
    LpSolverError,
    UnsupportedModeError,
    ValidationError,
)
from .leakage import Ensemble, Povm, inequality_chain_report
from .linalg import DensityOperator, HermitianOperator
from .sdp import STATUS_SOLVED
from .vqml import (
    MAX_QUBITS,
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
    """The complex matrix whose entries are the [re, im] pairs of rows, in one conversion."""
    try:
        parts = _float_array(rows)
    except (TypeError, ValueError, OverflowError) as ex:
        raise ValidationError(f"{label}: entries must be [re, im] pairs ({ex})") from ex
    if parts.ndim != 3 or parts.shape[2] != 2:
        raise ValidationError(
            f"{label}: entries must be [re, im] pairs (got an array of shape {parts.shape})"
        )
    # The (re, im) float pairs are laid out as complex numbers.
    return parts.view(np.complex128)[..., 0]


def _convert(value, kind, field: str, what: str = ""):
    """kind(value), or a ValidationError that names the field.

    JSON booleans and strings are not numbers, so they are refused before
    the conversion.
    """
    try:
        if isinstance(value, (bool, str)):
            raise TypeError(f"a JSON {type(value).__name__}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("fractional part")
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
    """value, a number or nested JSON arrays of them, as a float array.

    Every element is checked, as `_convert` checks a scalar: a JSON boolean,
    string or null is not a number, and ragged rows are refused.  numpy
    would merge `[true, 0.5]` into the floats `[1.0, 0.5]`, so the elements
    are read as the objects the JSON parser made.
    """
    a = np.array(value, dtype=object)
    types = set(map(type, a.flat))
    if list in types:
        raise ValueError("rows of unequal length")
    if not {int, float}.issuperset(types):
        raise TypeError("a part is not a number")
    return a.astype(np.float64)


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
    mats = []
    for i, rows in enumerate(_expect(doc["states"], list, "states")):
        mats.append(_matrix_from_json(rows, f"states[{i}]"))
        if mats[-1].shape != (dim, dim):
            raise ValidationError(
                f"states[{i}] has shape {mats[-1].shape}, expected ({dim}, {dim})"
            )
    states = DensityOperator.stack(mats, label="states") if mats else ()
    prior = _convert(doc["prior"], _float_array, "prior", "a list of numbers")
    return Ensemble(ProbVector(prior), states)


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
        entries = _expect(params.get("kraus", []), list, "params.kraus")
        mats = [_matrix_from_json(rows, f"kraus[{i}]") for i, rows in enumerate(entries)]
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
        entries = _expect(nb.get("pairs", []), list, "neighbouring.pairs")
        if not entries:
            raise ValidationError("neighbouring.pairs must list at least one pair")
        pairs = []
        for i, pair in enumerate(entries):
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


def _diag_pair_ensemble() -> Ensemble:
    return Ensemble.uniform(DensityOperator.stack([np.diag([0.75, 0.25]), np.diag([0.25, 0.75])]))


def _cap_exit(capped: list[str]) -> int:
    """Exit code 3 after one stderr line naming each capped row, else 0."""
    if capped:
        print(f"iteration cap: {'; '.join(capped)}", file=sys.stderr)
    return 3 if capped else 0


def _cap_note(label: str, bits: float, gap: float, iterations: int) -> str:
    return f"{label} {_fmt(bits)} bits, gap {gap:.1e}, {iterations} iterations"


def _grid_csv(header: str, grid: list[float], rows: list) -> tuple[str, int]:
    """CSV of the (row values, B certificate) pairs, one per grid point.

    The exit code is 3, with a note per row, when any B hit its iteration cap.
    """
    lines = [header] + [",".join(_fmt(v) for v in values) for values, _ in rows]
    capped = [
        _cap_note(f"barycentric B at p={_fmt(p)}", b.value, b.gap, b.iterations)
        for p, (_, b) in zip(grid, rows)
        if b.status != STATUS_SOLVED
    ]
    return "\n".join(lines) + "\n", _cap_exit(capped)


def _leakage_table(e: Ensemble, restarts: int, seed: int) -> tuple[str, int]:
    report = inequality_chain_report(e, restarts=restarts, seed=seed)
    lines = [f"ensemble: {e.count} states in dimension {e.dim}"]
    lines.append(f"{'quantity':<22}{'bits':>12}{'gap':>12}  witness")
    lines.append(f"{'accessible (lower)':<22}{_fmt(report.accessible_lower):>12}{'-':>12}")
    lines.append(f"{'holevo':<22}{_fmt(report.holevo):>12}{'-':>12}")
    lines.append(f"{'srm guessing':<22}{_fmt(report.srm_povm_leakage):>12}{'-':>12}")
    b, r = report.barycentric, report.pairwise
    weights = ", ".join(f"{w:.6f}" for w in np.asarray(b.witness, dtype=np.float64))
    certified = (
        ("sandwiched-inf MI", report.sandwiched_inf, ""),
        ("maximal Q", report.maximal, ""),
        ("barycentric B", b, f"  weights [{weights}]"),
        ("pairwise R", r, f"  pair {r.witness}"),
    )
    for label, cert, witness in certified:
        lines.append(f"{label:<22}{_fmt(cert.value):>12}{cert.gap:>12.2e}{witness}")
    lines.append("ordering checks (slack in bits):")
    for label, slack in report.checks.items():
        lines.append(f"  ok  {label:<26} {slack:.3e}")
    capped = [
        _cap_note(label, cert.value, cert.gap, cert.iterations)
        for label, cert, _ in certified
        if cert.status != STATUS_SOLVED
    ]
    return "\n".join(lines) + "\n", _cap_exit(capped)


def _cmd_leakage(args) -> tuple[str, int]:
    if not args.input:
        raise ValidationError("leakage needs --input with an ensemble spec")
    e = parse_ensemble(_load_json(args.input))
    return _leakage_table(e, args.restarts, args.seed)


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
    if not 2 <= d <= 2**MAX_QUBITS or d & (d - 1):
        raise ValidationError(f"--d must be a power of two in 2..{2**MAX_QUBITS}, got {d}")
    return parse_model({"qubits": d.bit_length() - 1, "encoder": "basis"})


def _cmd_tradeoff(args) -> tuple[str, int]:
    model, inputs, prior = _tradeoff_model(args)
    grid = _parse_grid(args.p_grid)
    rows = [
        ((r.p, r.gamma_actual, r.gamma_bound, r.leakage_B, r.leakage_R, r.leakage_bound),
         r.barycentric)
        for r in tradeoff_curve(model, inputs, prior, grid)
    ]
    return _grid_csv(TRADEOFF_HEADER, grid, rows)


def _cmd_sweep(args) -> tuple[str, int]:
    e = parse_ensemble(_load_json(args.input)) if args.input else _diag_pair_ensemble()
    grid = _parse_grid(args.p_grid)
    for p in grid:
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"--p-grid entry {p} outside [0, 1]")
    rows = []
    for p in grid:
        b, r, eps = depolarized_leakage(e, p)
        rows.append(((p, eps, eps / math.log(2.0), b.value, r.value), b))
    return _grid_csv(SWEEP_HEADER, grid, rows)


def _cmd_demo(args) -> tuple[str, int]:
    chunks = []
    basis = Ensemble.uniform(DensityOperator.pure_stack(np.eye(4)))
    table, code_a = _leakage_table(basis, restarts=8, seed=args.seed)
    chunks.append("== basis encoding on two qubits ==")
    chunks.append(table.rstrip("\n"))
    chunks.append("summary: B = Q = 2.000000 bits, R = inf")
    pair = _diag_pair_ensemble()
    table, code_b = _leakage_table(pair, restarts=8, seed=args.seed)
    chunks.append("")
    chunks.append("== diagonal qubit pair ==")
    chunks.append(table.rstrip("\n"))
    chunks.append("summary: B = 0.584963 bits, R = 1.584963 bits")
    return "\n".join(chunks) + "\n", max(code_a, code_b)


# name: (handler, help, the flags it reads besides --output)
_COMMANDS = {
    "leakage": (_cmd_leakage, "certificate table for an ensemble spec", "input seed restarts"),
    "dp-check": (_cmd_dp_check, "max-divergence DP consequence check", "input"),
    "tradeoff": (_cmd_tradeoff, "degradation vs leakage CSV over a depolarizing grid",
                 "input p-grid d"),
    "sweep": (_cmd_sweep, "DP bound and leakage CSV over a depolarizing grid", "input p-grid"),
    "demo": (_cmd_demo, "built-in basis-encoding and diagonal-pair instances", "seed"),
}
_FLAGS = {
    "input": dict(default=None, help="JSON input document"),
    "seed": dict(type=int, default=0),
    "restarts": dict(type=int, default=32, help="random starts of the accessible-information "
                     "search; 0 keeps the computational basis only"),
    "p-grid": dict(dest="p_grid", default=_DEFAULT_GRID),
    "d": dict(type=int, default=2, help="dimension for the default model"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused after."""
    parser = argparse.ArgumentParser(
        prog="qleak",
        description="Certified leakage measures, DP checks, and noise sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--output", default=None, help="write here instead of stdout")
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = _COMMANDS[args.command][0](args)
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
