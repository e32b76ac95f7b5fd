"""CLI surface: parsing, output formats, determinism, exit codes."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from helpers import random_ensemble
from qleak.cli import (
    SWEEP_HEADER,
    TRADEOFF_HEADER,
    ensemble_to_json,
    main,
    parse_channel,
    parse_ensemble,
    parse_model,
)
from qleak.errors import ChainViolationError, LpSolverError, ValidationError
from qleak.leakage import Ensemble
from qleak.linalg import DensityOperator


def _pair_doc():
    e = Ensemble.uniform(
        (
            DensityOperator.from_matrix(np.diag([0.75, 0.25])),
            DensityOperator.from_matrix(np.diag([0.25, 0.75])),
        )
    )
    return ensemble_to_json(e)


def _write_pair(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(_pair_doc()))
    return path


def test_ensemble_json_roundtrip():
    for seed in range(4):
        e = random_ensemble(3, 3, seed=seed)
        back = parse_ensemble(ensemble_to_json(e))
        assert np.allclose(back.prior.probs, e.prior.probs, atol=1e-12)
        for a, b in zip(back.states, e.states):
            assert np.allclose(a.mat, b.mat, atol=1e-12)


def test_parse_ensemble_names_missing_fields():
    with pytest.raises(ValidationError, match="prior"):
        parse_ensemble({"dimension": 2, "states": []})
    with pytest.raises(ValidationError, match="states\\[0\\]"):
        parse_ensemble({"dimension": 2, "prior": [1.0], "states": [[[1.0]]]})


def test_parse_channel_kinds():
    ch = parse_channel({"kind": "depolarizing_global", "params": {"p": 0.5, "d": 2}})
    assert ch.noise == 0.5
    loc = parse_channel({"kind": "depolarizing_local", "params": {"p": 0.1, "qubits": 2}})
    assert loc.in_dim == 4
    raw = parse_channel(
        {"kind": "kraus", "params": {"kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}}
    )
    assert raw.in_dim == 2
    with pytest.raises(ValidationError):
        parse_channel({"kind": "unital_magic"})
    with pytest.raises(ValidationError, match="params.p"):
        parse_channel({"kind": "depolarizing_global", "params": {"d": 2}})
    with pytest.raises(ValidationError, match="params.qubits"):
        parse_channel({"kind": "depolarizing_local", "params": {"p": 0.1}})


def test_parse_model_defaults_inputs_for_basis_encoder():
    model, inputs, prior = parse_model({"qubits": 2, "encoder": "basis"})
    assert inputs == [0, 1, 2, 3]
    assert np.allclose(prior, [0.25] * 4)
    with pytest.raises(ValidationError, match="inputs"):
        parse_model({"qubits": 1, "encoder": "angle"})


def test_leakage_command_table(tmp_path, capsys):
    path = _write_pair(tmp_path)
    code = main(["leakage", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.584963" in out and "1.584963" in out
    assert "weights [0.500000, 0.500000]" in out


def test_demo_prints_expected_summaries(capsys):
    code = main(["demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "B = Q = 2.000000 bits, R = inf" in out
    assert "B = 0.584963 bits, R = 1.584963 bits" in out


def test_dp_check_command(tmp_path, capsys):
    e = parse_ensemble(json.loads(_write_pair(tmp_path).read_text()))
    doc = {
        "ensemble": ensemble_to_json(e),
        "channel": {"kind": "depolarizing_global", "params": {"p": 0.5, "d": 2}},
        "dp": {"epsilon_nats": math.log(5.0)},
    }
    path = tmp_path / "dp.json"
    path.write_text(json.dumps(doc))
    code = main(["dp-check", "--input", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    assert "1.609438 nats = 2.321928 bits" in out
    assert "necessary" in out


def test_tradeoff_csv_contains_known_curve_point(tmp_path):
    out_path = tmp_path / "rows.csv"
    code = main(["tradeoff", "--p-grid", "0.5,1.0", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == TRADEOFF_HEADER
    assert lines[1].startswith("0.500000,")
    assert lines[1].endswith(",2.321928")
    assert lines[2].endswith(",0.000000")


def test_sweep_csv_formats_infinity(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--p-grid", "0.0,0.5", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1].split(",")[1] == "inf"
    assert lines[2].split(",")[1] == "1.609438"


def test_csv_output_is_deterministic(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["tradeoff", "--p-grid", "0.2,0.5,0.9", "--output", str(a)])
    monkeypatch.setenv("QLEAK_THREADS", "1")
    main(["tradeoff", "--p-grid", "0.2,0.5,0.9", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_validation_failures_exit_two(tmp_path, capsys):
    assert main(["leakage"]) == 2
    assert main(["leakage", "--input", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["leakage", "--input", str(bad)]) == 2
    assert main(["tradeoff", "--p-grid", "0.0,0.5"]) == 2
    assert main(["tradeoff", "--d", "3"]) == 2
    assert main(["sweep", "--p-grid", "abc"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_non_finite_state_entry_exits_two(tmp_path):
    doc = json.loads(_write_pair(tmp_path).read_text())
    doc["states"][1][0][1] = [math.nan, 0.0]
    doc["states"][1][1][0] = [math.nan, 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "qleak", "leakage", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "states[1]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_negative_restarts_exit_two(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "qleak", "leakage",
            "--input", str(_write_pair(tmp_path)), "--restarts", "-1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "restarts" in proc.stderr
    assert "Traceback" not in proc.stderr


def _dp_doc(params=None, dp=None):
    return {
        "ensemble": _pair_doc(),
        "channel": {
            "kind": "depolarizing_global",
            "params": {"p": 0.5, "d": 2, **(params or {})},
        },
        "dp": dp or {"epsilon_nats": 1.0},
    }


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("leakage", {**_pair_doc(), "states": 5}, "states"),
        ("leakage", {**_pair_doc(), "dimension": "x"}, "dimension"),
        ("dp-check", _dp_doc(params={"p": "abc"}), "params.p"),
        ("dp-check", _dp_doc(dp={"epsilon_nats": "x"}), "epsilon_nats"),
        (
            "dp-check",
            _dp_doc(dp={
                "epsilon_nats": 1.0,
                "neighbouring": {"kind": "explicit", "pairs": [[0]]},
            }),
            "neighbouring.pairs[0]",
        ),
        ("dp-check", _dp_doc(params={"d": 3}), "channel input 3"),
        ("leakage", 5, "must be an object"),
        ("dp-check", _dp_doc(dp={"epsilon_nats": 1.0, "neighbouring": 5}), "neighbouring"),
        ("tradeoff", {"qubits": "x", "encoder": "basis"}, "qubits"),
        ("tradeoff", {"qubits": 1, "encoder": "basis", "classes": "x"}, "classes"),
        ("tradeoff", {"qubits": 1, "encoder": "angle", "inputs": ["x", "y"]}, "inputs[0]"),
        ("tradeoff", {"qubits": 1, "encoder": "basis", "inputs": ["a"]}, "inputs[0]"),
        ("tradeoff", {"qubits": 1, "encoder": "basis", "inputs": []}, "inputs"),
    ],
    ids=["states-not-list", "dimension-not-int", "p-not-number", "epsilon-not-number",
         "pair-of-one", "channel-dimension-mismatch", "spec-not-object",
         "neighbouring-not-object", "qubits-not-int", "classes-not-int",
         "angle-input-not-number", "basis-input-not-int", "inputs-empty"],
)
def test_malformed_spec_exits_two(tmp_path, command, doc, named):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "qleak", command, "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unsupported_delta_exits_two(tmp_path, capsys):
    doc = {
        "ensemble": json.loads(_write_pair(tmp_path).read_text()),
        "channel": {"kind": "depolarizing_global", "params": {"p": 0.5, "d": 2}},
        "dp": {"epsilon_nats": 1.0, "delta": 0.5},
    }
    path = tmp_path / "dp.json"
    path.write_text(json.dumps(doc))
    assert main(["dp-check", "--input", str(path)]) == 2
    assert "delta" in capsys.readouterr().err


def test_solver_failures_exit_three(tmp_path, monkeypatch, capsys):
    import qleak.cli as cli_mod

    def explode(*args, **kwargs):
        raise LpSolverError("synthetic stall")

    monkeypatch.setattr(cli_mod, "inequality_chain_report", explode)
    path = _write_pair(tmp_path)
    assert main(["leakage", "--input", str(path)]) == 3
    assert "solver error" in capsys.readouterr().err


def test_chain_violations_exit_four(monkeypatch, capsys):
    import qleak.cli as cli_mod

    def explode(*args, **kwargs):
        raise ChainViolationError("synthetic ordering break")

    monkeypatch.setattr(cli_mod, "leakage_after_channel", explode)
    assert main(["sweep", "--p-grid", "0.5"]) == 4
    assert "chain violation" in capsys.readouterr().err


def test_console_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qleak", "tradeoff", "--p-grid", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == TRADEOFF_HEADER


def test_bad_thread_env_is_a_validation_error(monkeypatch, capsys):
    monkeypatch.setenv("QLEAK_THREADS", "zero")
    assert main(["tradeoff", "--p-grid", "0.5"]) == 2
    assert "QLEAK_THREADS" in capsys.readouterr().err


def test_leakage_iteration_cap_exits_three(tmp_path, monkeypatch, capsys):
    from qleak import sdp

    monkeypatch.setattr(sdp, "_FIXED_POINT_CAP", 1)
    path = tmp_path / "hard.json"
    path.write_text(json.dumps(ensemble_to_json(random_ensemble(7, 3, seed=2))))
    assert main(["leakage", "--input", str(path), "--restarts", "0"]) == 3
    captured = capsys.readouterr()
    assert "maximal Q" in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("iteration cap: sandwiched-inf MI ")
    assert "; maximal Q " in line and "barycentric B" not in line
    assert re.search(r"maximal Q \d+\.\d{6} bits, gap \d\.\de[-+]\d\d", line)
