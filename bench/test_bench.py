"""Tests of the benchmark itself: its checks, its tiny end-to-end runs, its refusal without a source tree.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

run._import_qleak()
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402  (needs qleak on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _shift(text: str, line_start: str, field: int, token: str = r"\S+", delta: float = 1e-3) -> str:
    """Move one numeric field of the first line starting with line_start by delta, in place."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(line_start):
            m = list(re.finditer(token, line))[field]
            new = f"{float(m.group()) + delta:.6f}".rjust(len(m.group()))
            lines[i] = line[: m.start()] + new + line[m.end() :]
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no line starts with {line_start!r}")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The first default-seed op of each workload and its output."""
    cli = run._import_qleak()
    found = {}
    for name, w in WORKLOADS.items():
        op = w.generate(DEFAULT_SEED, 1, tmp_path_factory.mktemp(name))[0]
        _, text, error = run._call(cli, op["argv"])
        assert error is None
        assert w.check(op, text) is None
        found[name] = (w, op, text)
    return found


@pytest.mark.parametrize(
    "label", ["holevo", "srm guessing", "sandwiched-inf MI", "maximal Q", "barycentric B", "pairwise R"]
)
def test_leakage_check_rejects_moved_value(outputs, label):
    w, op, text = outputs["leakage"]
    assert op["reference"] is not None
    field = len(label.split())
    assert w.check(op, _shift(text, label, field)) is not None
    assert w.check(op, _shift(text, label, field, delta=-1e-3)) is not None


def test_leakage_check_lets_accessible_rise_only(outputs):
    w, op, text = outputs["leakage"]
    assert w.check(op, _shift(text, "accessible (lower)", 2)) is None
    assert w.check(op, _shift(text, "accessible (lower)", 2, delta=-1e-3)) is not None


def test_leakage_check_rejects_missing_ordering_line(outputs):
    w, op, text = outputs["leakage"]
    cut = "\n".join(line for line in text.splitlines() if "srm<=maximal" not in line)
    assert w.check(op, cut) is not None


@pytest.mark.parametrize("column", range(6))
def test_tradeoff_check_rejects_moved_value(outputs, column):
    w, op, text = outputs["tradeoff"]
    row = text.splitlines()[1]
    assert w.check(op, _shift(text, row, column, token=r"[^,]+")) is not None


def test_dp_check_rejects_moved_divergence(outputs):
    w, op, text = outputs["dp-check"]
    assert w.check(op, _shift(text, "2->1", 1)) is not None


def test_dp_check_rejects_fail_verdict(outputs):
    w, op, text = outputs["dp-check"]
    assert w.check(op, text.replace("overall: PASS", "overall: FAIL")) is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(36) == 72
    assert run.percentile([float(v) for v in range(36)], 72) == (25.0, 10)
    assert run.tail_percentile(5) == 50


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_end_to_end_at_tiny_size(name, trace):
    tiny = dataclasses.replace(WORKLOADS[name], cycle=1, min_ops=2, trace_ops=2)
    report = run.run_workload(tiny, DEFAULT_SEED, 0, trace)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and name == "dp-check":
        metrics = result["metrics"]
        solver = [k for k in metrics if k.startswith(("simplex.", "sdp.", "leakage.accessible."))]
        assert solver and all(metrics[k]["value"] == 0 for k in solver)


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run.py", "--workload", "leakage", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
