"""Write reference_leakage.json: the leakage table of every default-seed input.

    python3 bench/capture_reference.py

The leakage check compares later outputs on the default seed against this
table, so run it only on a commit whose values are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    cli = run._import_qleak()
    from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, check_leakage, reference_row

    w = WORKLOADS["leakage"]
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rows = []
        for op in w.generate(DEFAULT_SEED, w.pool, workdir):
            _, text, error = run._call(cli, op["argv"])
            reason = error or check_leakage(dict(op, reference=None), text)
            if reason is not None:
                print(f"error: {' '.join(op['argv'])}: {reason}", file=sys.stderr)
                return 1
            rows.append(reference_row(text))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
