"""Closed-loop benchmark of the qleak CLI.

Usage, from the repository root:

    python3 bench/run.py --workload leakage --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One client thread sends one CLI command at a time, in process, through
`qleak.cli.main`, and sends the next only when the previous one returned.
`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
replays a fixed op list untraced once and traced twice, and reports the
per-layer counts and self times.  The last line of standard output is a JSON
object with `correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3
TAIL_BEYOND = 10
WORKLOAD_NAMES = ("leakage", "tradeoff", "dp-check")


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it (50 if none)."""
    if n <= TAIL_BEYOND:
        return 50
    return max(50, math.floor(100 * (n - TAIL_BEYOND) / n))


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine_probe() -> float:
    """Median seconds of a fixed loop of small numpy operations, as a host-speed reading."""
    import numpy as np

    a = np.eye(8, dtype=np.complex128) * (1 + 1j) / 2
    times = []
    for _ in range(5):
        b = np.full((8, 8), 0.01, dtype=np.complex128)
        start = time.perf_counter()
        for _ in range(4000):
            b = a @ b + 0.01
            b /= float(np.abs(b).max())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_qleak():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qleak.cli

    if Path(qleak.cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported qleak from {qleak.cli.__file__}, not {SRC}")
    return qleak.cli


def _setup_only(workload: str, seed: int, workdir: Path) -> int:
    """Everything before the first timed op: imports, seeded inputs, validation, input files."""
    _import_qleak()
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    ops = w.generate(seed, w.pool, workdir)
    (workdir / "manifest.json").write_text(json.dumps(ops), encoding="utf-8")
    return 0


def _timed_setup(workload: str, seed: int, base: Path) -> tuple[float, list, list[float]]:
    """Run set-up in fresh processes; returns the median time, the ops, and every time."""
    times = []
    for rep in range(SETUP_REPEATS):
        workdir = base / f"setup-{rep}"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(workdir)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit {proc.returncode}: {proc.stderr.strip()}")
    ops = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    return statistics.median(times), ops, times


def _call(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """One op: latency, captured stdout, and an error or None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
    except Exception as ex:  # an op that crashes counts as failed; the loop goes on
        error = f"{type(ex).__name__}: {ex}"
    return time.perf_counter() - start, out.getvalue(), error


def _loop(cli, ops: list, stop, tracer=None) -> dict:
    """Run ops in a closed loop until stop(k, elapsed) is true."""
    latencies, results = [], []
    start = time.perf_counter()
    k = 0
    while not stop(k, time.perf_counter() - start):
        op = ops[k % len(ops)]
        if tracer is not None:
            tracer.op = k
        latency, text, error = _call(cli, op["argv"])
        latencies.append(latency)
        results.append((op, text, error))
        k += 1
    return {"wall": time.perf_counter() - start, "latencies": latencies, "results": results}


def _failures(w, results) -> list[str]:
    failures = []
    for op, text, error in results:
        reason = error if error is not None else w.check(op, text)
        if reason is not None:
            failures.append(f"{' '.join(op['argv'])}: {reason}")
    return failures


def _unit(name: str) -> str:
    if name.endswith(("calls", "solves", "pivots", "iterations", "cuts", "kraus")):
        return "count"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits_max"):
        return "bits"
    return "s"


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns the result object and report lines."""
    base = WORK / f"{w.name}-{seed}-{time.time_ns()}"
    try:
        probe_start = machine_probe()
        setup_s, ops, setup_times = _timed_setup(w.name, seed, base)
        cli = _import_qleak()
        lines = [f"# workload {w.name}, seed {seed}, closed loop, 1 client thread"]
        if trace:
            metrics, attempted, failures, errors, extra = _traced(cli, w, ops)
        else:
            metrics, attempted, failures, extra = _timed(cli, w, ops, seconds, setup_s, setup_times)
            errors = []
        lines += extra
        probe_end = machine_probe()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    lines.insert(1, f"# machine probe {probe_start:.4f} s at start, {probe_end:.4f} s at end")
    result = {
        "correct": not failures and not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return {"result": result, "lines": lines, "failures": failures + errors}


def _timed(cli, w, ops, seconds, setup_s, setup_times):
    def stop(k, elapsed):
        return elapsed >= seconds and k >= w.min_ops and k % w.cycle == 0

    run = _loop(cli, ops, stop)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = run["latencies"]
    n = len(lat)
    pct = tail_percentile(w.min_ops)
    tail, beyond = percentile(lat, pct)
    failures = _failures(w, run["results"])
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / run["wall"], "ops/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    lines = [
        f"# {n} ops in {run['wall']:.2f} s",
        f"setup_s      {setup_s:10.4f} s      median of {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"ops_per_s    {n / run['wall']:10.4f} ops/s",
        f"op_p50_s     {statistics.median(lat):10.4f} s",
        f"op_tail_s    {tail:10.4f} s      p{pct}, {beyond} of {n} samples beyond",
        f"fail_ratio   {len(failures) / n:10.4f} -      {len(failures)} of {n} ops failed",
        f"peak_rss_mb  {rss_mb:10.1f} MB",
    ]
    return metrics, n, failures, lines


def _traced(cli, w, ops):
    from tracer import Tracer, count_mismatches, summarise

    fixed = [ops[k % len(ops)] for k in range(w.trace_ops)]

    def stop(k, _elapsed):
        return k >= len(fixed)

    plain = _loop(cli, fixed, stop)
    passes = []
    for _ in range(2):
        tracer = Tracer()
        undo = tracer.install()
        try:
            run = _loop(cli, fixed, stop, tracer)
        finally:
            Tracer.uninstall(undo)
        passes.append((run, tracer))
    WORK.mkdir(exist_ok=True)
    passes[-1][1].write(WORK / f"spans-{w.name}.jsonl")
    first, second = (summarise(t.spans) for _, t in passes)
    failures = _failures(w, plain["results"] + [r for run, _ in passes for r in run["results"]])
    errors = [f"count differs between traced runs: {m}" for m in count_mismatches(first, second)]
    values = {k: first[k] if first[k] == second[k] else (first[k] + second[k]) / 2 for k in first}
    traced_wall = statistics.mean(run["wall"] for run, _ in passes)
    values["trace.overhead_ratio"] = traced_wall / plain["wall"]
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
    lines = [
        f"# fixed list of {len(fixed)} ops: untraced {plain['wall']:.2f} s, "
        f"traced {traced_wall:.2f} s (mean of 2)",
        f"# spans written to {WORK / f'spans-{w.name}.jsonl'}",
    ]
    lines += [f"{k:32} {m['value']:14.6g} {m['unit']}" for k, m in metrics.items()]
    return metrics, 3 * len(fixed), failures, errors, lines


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", dest="setup_only", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qleak" / "__init__.py").is_file():
        print(f"error: no qleak source tree at {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return _setup_only(args.workload, args.seed, Path(args.setup_only))
    if args.workload == "all":
        return _run_all(args.seed, args.seconds, args.trace)
    _import_qleak()
    from workloads import WORKLOADS

    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for failure in report["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
