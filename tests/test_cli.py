"""CLI surface: parsing, output formats, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from helpers import nearly_parallel_triple, random_ensemble
from qleak.channels import apply
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
from qleak.vqml import encode_ensemble


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
    ground = DensityOperator.from_matrix(np.diag([1.0, 0.0]))
    assert np.allclose(apply(ch, ground).mat, np.diag([0.75, 0.25]), atol=1e-12)
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
    # A whole number written as a float still counts as an integer.
    model, inputs, _ = parse_model({"qubits": 2.0, "encoder": "basis", "inputs": [1, 3.0]})
    assert model.qubits == 2 and inputs == [1, 3]


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


@pytest.mark.parametrize("d", [8, 32])
def test_tradeoff_basis_model_matches_closed_forms(d, capsys):
    p = 0.3
    assert main(["tradeoff", "--d", str(d), "--p-grid", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == TRADEOFF_HEADER and len(lines) == 2
    want = (
        p,
        2.0 * p * (d - 1) / d,
        2.0 * p,
        math.log2(d * (1.0 - p) + p),
        math.log2(1.0 + (1.0 - p) * d / p),
        math.log2(1.0 + 2.0 * (1.0 - p) * d / p),
    )
    got = [float(tok) for tok in lines[1].split(",")]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)


def test_sweep_csv_formats_infinity(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--p-grid", "0.0,0.5", "--output", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[1].split(",")[1] == "inf"
    assert lines[2].split(",")[1] == "1.609438"


def test_csv_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["tradeoff", "--p-grid", "0.2,0.5,0.9", "--output", str(a)])
    main(["tradeoff", "--p-grid", "0.2,0.5,0.9", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_grid_points_run_in_order_on_the_calling_thread(monkeypatch):
    import qleak.cli as cli_mod

    calls = []

    def recorded(name):
        real = getattr(cli_mod, name)

        def wrapper(*args):
            # The last argument is the whole grid (tradeoff_curve) or one p.
            on_main = threading.current_thread() is threading.main_thread()
            calls.append((name, on_main, args[-1]))
            return real(*args)

        return wrapper

    for name in ("tradeoff_curve", "depolarized_leakage"):
        monkeypatch.setattr(cli_mod, name, recorded(name))
    grid = [0.2, 0.5, 0.9]
    argv = ["--p-grid", ",".join(map(str, grid)), "--output", os.devnull]
    assert main(["tradeoff", *argv]) == 0
    assert calls == [("tradeoff_curve", True, grid)]
    calls.clear()
    assert main(["sweep", *argv]) == 0
    assert calls == [("depolarized_leakage", True, p) for p in grid]


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
    for d in ("128", "1"):
        assert main(["tradeoff", "--d", d]) == 2
        err = capsys.readouterr().err
        assert f"error: --d must be a power of two in 2..64, got {d}" in err
    for argv in (["leakage", "--input", str(_write_pair(tmp_path)), "--seed", "-1"],
                 ["demo", "--seed", "-3"]):
        assert main(argv) == 2
        assert "error: seed must be >= 0" in capsys.readouterr().err


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
        ("dp-check", {**_dp_doc(), "channel": {"kind": "kraus", "params": {"kraus": 5}}},
         "params.kraus"),
        ("tradeoff", {"qubits": 1.9, "encoder": "basis"}, "qubits"),
        ("leakage", {**_pair_doc(), "dimension": 2.9}, "dimension"),
        ("tradeoff", {"qubits": 1, "encoder": "basis", "inputs": [1.7]}, "inputs[0]"),
        ("tradeoff", {"qubits": 64, "encoder": "basis"}, "qubit count"),
        ("tradeoff", {"qubits": -1, "encoder": "basis"}, "qubit count"),
        ("dp-check", _dp_doc(params={"p": True}), "params.p"),
        ("dp-check", _dp_doc(dp={"epsilon_nats": True}), "epsilon_nats"),
        ("dp-check", _dp_doc(params={"p": "0.5"}), "params.p"),
        ("leakage", {**_pair_doc(), "dimension": "2"}, "dimension"),
        ("leakage", {**_pair_doc(), "prior": ["0.5", "0.5"]}, "prior"),
        ("tradeoff", {"qubits": 1, "encoder": "basis", "layers": [[True, 0.5]]}, "layers[0]"),
        ("tradeoff", {"qubits": 2, "encoder": "angle", "inputs": [[0.3, True], [0.1, 0.2]]},
         "inputs[0]"),
        ("tradeoff", {"qubits": 1, "encoder": "basis", "prior": [0.5, True]}, "prior"),
        ("dp-check", _dp_doc(dp={"epsilon_nats": 1.0,
                                 "neighbouring": {"kind": "explicit", "pairs": []}}),
         "neighbouring.pairs"),
        ("dp-check", _dp_doc(dp={"epsilon_nats": 1.0, "neighbouring": {"kind": "explicit"}}),
         "neighbouring.pairs"),
    ],
    ids=["states-not-list", "dimension-not-int", "p-not-number", "epsilon-not-number",
         "pair-of-one", "channel-dimension-mismatch", "spec-not-object",
         "neighbouring-not-object", "qubits-not-int", "classes-not-int",
         "angle-input-not-number", "basis-input-not-int", "inputs-empty",
         "kraus-not-list", "qubits-fractional", "dimension-fractional",
         "basis-input-fractional", "qubits-too-many", "qubits-negative", "p-boolean",
         "epsilon-boolean", "p-string", "dimension-string", "prior-strings", "layer-boolean",
         "angle-input-boolean", "prior-boolean", "explicit-pairs-empty", "explicit-pairs-missing"],
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


def test_lp_failure_exits_three_naming_iteration_and_cuts(tmp_path, monkeypatch, capsys):
    from qleak import sdp
    from qleak.simplex import STATUS_ITERATION_LIMIT, SimplexResult

    real = sdp.resume_phase2
    cuts = []

    def fail_after_first(cost, a_eq, b_eq, basis):
        cuts.append(a_eq.shape[1] - a_eq.shape[0])  # columns past the slacks
        if len(cuts) == 1:
            return real(cost, a_eq, b_eq, basis)
        return SimplexResult(STATUS_ITERATION_LIMIT, None, math.nan, None, 0)

    monkeypatch.setattr(sdp, "resume_phase2", fail_after_first)
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(ensemble_to_json(random_ensemble(3, 3, seed=0))))
    assert main(["leakage", "--input", str(path), "--restarts", "0"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert len(cuts) == 3 and cuts[1] == cuts[2] > cuts[0]  # a warm start, then the retry
    assert line.startswith("solver error: cut relaxation LP returned iteration_limit")
    assert f"at iteration 2 with {cuts[1]} cuts; last bracket [" in line


def test_parser_is_built_once_on_the_first_main_call(monkeypatch):
    import qleak.cli as cli_mod

    probe = "import qleak.cli as c; print(c._build_parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout.strip() == "0"  # importing builds nothing
    seen = []

    def record(args):
        seen.append((args.d, args.p_grid))
        return "", 0

    _, text, flags = cli_mod._COMMANDS["tradeoff"]
    monkeypatch.setitem(cli_mod._COMMANDS, "tradeoff", (record, text, flags))
    assert main(["tradeoff", "--d", "4", "--p-grid", "0.5"]) == 0
    assert main(["tradeoff"]) == 0  # the first call's values do not carry over
    assert cli_mod._build_parser.cache_info().currsize == 1
    assert seen == [(4, "0.5"), (2, "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")]


def test_unresolvably_small_p_exits_two(tmp_path, capsys):
    pure = Ensemble.uniform((DensityOperator.pure([1.0, 0.0]), DensityOperator.pure([1.0, 1.0])))
    path = tmp_path / "pure.json"
    path.write_text(json.dumps(ensemble_to_json(pure)))
    for argv in (["tradeoff", "--d", "16", "--p-grid", "1e-8"],
                 ["tradeoff", "--d", "2", "--p-grid", "1e-9"],
                 ["sweep", "--input", str(path), "--p-grid", "1e-10"]):
        assert main(argv) == 2
        assert "too small to resolve" in capsys.readouterr().err
    assert main(["tradeoff", "--d", "2", "--p-grid", "3e-9"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "29.312390"


@pytest.mark.parametrize("d", [2, 8, 16])
def test_tradeoff_refuses_an_unresolvable_p_with_the_eigen_route_text(capsys, d):
    # The closed form would return a finite R here; the noisy states have a
    # kernel, so R takes the eigen route, which refuses p.
    assert main(["tradeoff", "--d", str(d), "--p-grid", "0.37,1e-12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: depolarizing strength p = 1e-12 is too small to resolve at d = {d}: the noise "
        "floor p/d falls under SUPPORT_RTOL = 1e-09 of the top eigenvalue\n"
    )


def test_chain_violations_exit_four(monkeypatch, capsys):
    import qleak.cli as cli_mod

    def explode(*args, **kwargs):
        raise ChainViolationError("synthetic ordering break")

    monkeypatch.setattr(cli_mod, "depolarized_leakage", explode)
    assert main(["sweep", "--p-grid", "0.5"]) == 4
    assert "chain violation" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["pairwise", "barycentric"])
def test_sweep_exits_four_when_leakage_passes_the_cap(monkeypatch, capsys, bound):
    import qleak.channels as channels_mod

    real = getattr(channels_mod, f"{bound}_leakage")

    def above_cap(noisy, **kwargs):
        cert = real(noisy, **kwargs)
        return replace(cert, value=math.log2(5.0) + cert.gap + 1e-3)  # p = 0.5, d = 2

    monkeypatch.setattr(channels_mod, f"{bound}_leakage", above_cap)
    assert main(["sweep", "--p-grid", "0.5"]) == 4
    assert f"chain violation: {bound} leakage" in capsys.readouterr().err


_IGNORED_FLAGS = {
    "leakage": ["--gap-tol", "--p-grid", "--d"],
    "dp-check": ["--gap-tol", "--seed", "--restarts", "--p-grid", "--d"],
    "tradeoff": ["--gap-tol", "--seed", "--restarts"],
    "sweep": ["--gap-tol", "--seed", "--restarts", "--d"],
    "demo": ["--gap-tol", "--input", "--restarts", "--p-grid", "--d"],
}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in _IGNORED_FLAGS.items() for f in flags]
)
def test_a_flag_the_command_does_not_read_is_invalid_input(command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1"])
    assert exc.value.code == 2


def test_console_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qleak", "tradeoff", "--p-grid", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == TRADEOFF_HEADER


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
    assert re.search(r"maximal Q \d+\.\d{6} bits, gap \d\.\de[-+]\d\d, 1 iterations(;|$)", line)


def _near_duplicate_pair():
    """Two rank-2 states in d = 4, each a 1% perturbation of one shared factor."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    mats = []
    for _ in range(2):
        g = base + 0.01 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        mats.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    return Ensemble.uniform(DensityOperator.stack(mats))


def test_leakage_certifies_a_near_duplicate_pair(tmp_path, capsys):
    # The square-root measurement's elements used to fail the Hermitian
    # input check here (asymmetry 1.0e-12), so the command exited 2.
    path = tmp_path / "near.json"
    path.write_text(json.dumps(ensemble_to_json(_near_duplicate_pair())))
    assert main(["leakage", "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.search(r"^barycentric B +\d\.\d{6} +\d\.\d\de-\d\d  weights ", captured.out, re.M)


def test_leakage_exits_three_on_a_crossed_bracket(tmp_path, capsys):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(ensemble_to_json(nearly_parallel_triple())))
    assert main(["leakage", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert not re.search(r"^barycentric B .* 0\.00e\+00 ", captured.out, re.M)
    assert captured.err.startswith(("solver error: bracket crossed: ", "iteration cap: "))


def test_leakage_certifies_q_on_a_pair_the_fixed_point_crawled_on(tmp_path, capsys):
    # Q ran 20,000 passes (about 19 s) and capped here before Y was rounded
    # to a measurement.
    path = tmp_path / "pair16.json"
    path.write_text(json.dumps(ensemble_to_json(random_ensemble(16, 2, seed=7020))))
    assert main(["leakage", "--input", str(path), "--restarts", "0"]) == 0
    assert capsys.readouterr().err == ""


def _angle_spec():
    # 8 angle-encoded inputs on 5 qubits: the weights program's seeded pool
    # holds 8 * 32 = 256 cuts and needs 4 iterations to reach optimal.
    inputs = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, size=(8, 5))
    return {"qubits": 5, "encoder": "angle", "inputs": inputs.tolist()}


@pytest.mark.parametrize("command", ["tradeoff", "sweep"])
def test_grid_iteration_cap_exits_three(tmp_path, monkeypatch, capsys, command):
    from qleak import sdp

    spec = _angle_spec()
    if command == "sweep":
        model, inputs, prior = parse_model(spec)
        spec = ensemble_to_json(encode_ensemble(model, inputs, prior))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = [command, "--input", str(path), "--p-grid", "0.1"]
    assert main(argv) == 0
    solved = capsys.readouterr()
    assert solved.err == ""
    monkeypatch.setattr(sdp, "_MAX_CUTS", 0)
    assert main(argv) == 3
    capped = capsys.readouterr()
    assert capped.out.splitlines()[0] == solved.out.splitlines()[0]
    (line,) = capped.err.splitlines()
    assert re.fullmatch(
        r"iteration cap: barycentric B at p=0\.100000 \d+\.\d{6} bits, gap \d\.\de[-+]\d\d, "
        r"1 iterations",
        line,
    )


def test_parse_ensemble_names_the_first_bad_state():
    doc = _pair_doc()
    doc["states"].append([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])
    doc["prior"] = [0.25, 0.25, 0.5]
    doc["states"][2][0][1] = [0.3, 0.0]  # not Hermitian
    doc["states"][1] = [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.2, 0.0]]]  # not PSD
    with pytest.raises(ValidationError) as ex:
        parse_ensemble(doc)
    assert str(ex.value) == "states[1]: matrix is not PSD (min eigenvalue -2.000e-01)"


def _kraus_doc(entry):
    doc = _dp_doc()
    doc["channel"] = {"kind": "kraus", "params": {"kraus": [[[entry, [0, 0]], [[0, 0], [1, 0]]]]}}
    return doc


def _povm_doc(entry):
    return {"qubits": 1, "encoder": "basis",
            "povm": [[[entry, [0, 0]], [[0, 0], [1, 0]]], [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]]}


def _state_doc(entry):
    doc = _pair_doc()
    doc["states"][0][0][0] = entry
    return doc


@pytest.mark.parametrize(
    "entry", [[1, 0, 5], [0.75, 0, "x"], ["0.75", 0], [0.75], [0.75, None], [True, 0]],
    ids=["extra-number", "extra-string", "string-part", "short", "null-part", "boolean-part"],
)
@pytest.mark.parametrize(
    "command, make, field",
    [("leakage", _state_doc, "states[0]"), ("dp-check", _kraus_doc, "kraus[0]"),
     ("tradeoff", _povm_doc, "povm[0]")],
    ids=["states", "kraus", "povm"],
)
def test_matrix_entries_must_be_exact_pairs(tmp_path, capsys, command, make, field, entry):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(make(entry)))
    assert main([command, "--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: entries must be [re, im] pairs")


def test_ragged_matrix_rows_exit_two(tmp_path, capsys):
    doc = _pair_doc()
    doc["states"][0][1] = [[0.25, 0.0]]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["leakage", "--input", str(path)]) == 2
    assert "states[0]: entries must be [re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "neighbouring, rows, verdict",
    [
        ({"kind": "explicit", "pairs": [[0, 1]]}, [("0->1", "0.736966", "FAIL")], "FAIL"),
        ({"kind": "explicit", "pairs": [[0, 1], [0, 1]]}, [("0->1", "0.736966", "FAIL")], "FAIL"),
        ({"kind": "explicit", "pairs": [[1, 0], [0, 1], [1, 0]]},
         [("1->0", "0.736966", "FAIL"), ("0->1", "0.736966", "FAIL")], "FAIL"),
        ({"kind": "trace_distance"},
         [("0->1", "0.736966", "FAIL"), ("1->0", "0.736966", "FAIL")], "FAIL"),
    ],
    ids=["explicit", "explicit-repeated", "explicit-repeats-keep-first-order",
         "trace-distance-default"],
)
def test_dp_check_neighbour_relations_select_rows(tmp_path, capsys, neighbouring, rows, verdict):
    path = tmp_path / "dp.json"
    path.write_text(json.dumps(_dp_doc(dp={"epsilon_nats": 0.1, "neighbouring": neighbouring})))
    assert main(["dp-check", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 0.1 nats is 0.144270 bits, the threshold column of every row.
    want = [(pair, bits, "0.144270", status) for pair, bits, status in rows]
    assert [tuple(line.split()) for line in lines[2:-2]] == want
    assert lines[-2].startswith(f"overall: {verdict}")


@pytest.mark.parametrize(
    "ensemble, neighbouring, relation",
    [
        # The diagonal pair lies 0.5 apart in trace distance.
        (_pair_doc(), {"kind": "trace_distance", "kappa": 0.1},
         "TraceDistanceNeighbours(kappa=0.1)"),
        ({**_pair_doc(), "prior": [1.0], "states": _pair_doc()["states"][:1]},
         {"kind": "all_pairs"}, "AllPairs()"),
    ],
    ids=["trace-distance-near", "lone-state"],
)
def test_dp_check_refuses_a_selection_of_no_distinct_pair(
    tmp_path, capsys, ensemble, neighbouring, relation
):
    path = tmp_path / "dp.json"
    doc = {**_dp_doc(dp={"epsilon_nats": 0.1, "neighbouring": neighbouring}), "ensemble": ensemble}
    path.write_text(json.dumps(doc))
    assert main(["dp-check", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: neighbouring {relation} selects no pair of distinct states\n"
    )
