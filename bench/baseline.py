"""Run every workload on several seeds and record the spread of its metrics.

    python3 bench/baseline.py --runs 10 --output bench/baseline.json

Each run is a fresh `run.py` process.  For every end-to-end metric the
record holds the median, the quartiles (`statistics.quantiles(n=4)`) and
the spread, (q3 - q1) / median, next to the bound in BENCHMARK.json.  One
traced run per workload supplies the per-layer table.  The machine section
names the host the numbers were taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1]), lines[:-1]


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _probe(lines: list[str]) -> list[float]:
    for line in lines:
        if line.startswith("# machine probe"):
            words = line.split()
            return [float(words[3]), float(words[7])]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", dest="first_seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma list; default all")
    parser.add_argument("--output", default=None, help="write the record here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": _machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        values: dict = {k: [] for k in bounds}
        probes, failed = [], 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, lines = _run(name, seed, spec["run_seconds"], 0)
            failed += result["failed"] + (not result["correct"])
            probes.append(_probe(lines))
            for k in bounds:
                values[k].append(result["metrics"][k]["value"])
        summary = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[k] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "bound": bounds[k],
                "unit": result["metrics"][k]["unit"],
                "values": vals,
            }
            print(f"{name:9} {k:12} median {summary[k]['median']:10.4f}  "
                  f"spread {summary[k]['spread']:.4f}  bound {bounds[k]}  "
                  f"values {' '.join(f'{v:.4g}' for v in vals)}", flush=True)
        print(f"{name:9} machine probe s: {probes}", flush=True)
        traced, _ = _run(name, 0, spec["run_seconds"], 1)
        failed += traced["failed"] + (not traced["correct"])
        record["workloads"][name] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "failed_runs_or_ops": failed,
            "end_to_end": summary,
            "machine_probe_s": probes,
            "per_layer_seed_0": {k: m["value"] for k, m in traced["metrics"].items()},
        }
    if args.output:
        Path(args.output).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
