#!/usr/bin/env python3
"""Gate a fresh benchmark run's work counts against the committed references.

    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1
    python3 bench/work/gate.py

Each `bench/work/<workload>-seed1-trace1.json` here is a reference record,
trimmed to `workload`, `seed`, `trace` and `trials`. For every one, the
record the run left under `<target dir>/perfbench-records/` (the target
dir is $CARGO_TARGET_DIR, default `.bench_build`, as for run.py) must hold
at least the reference's trials, each with exactly the reference's keys,
and `run.py compare` must find the work counts of their common trials
identical. A change in what an engine computes fails here; re-pin the
references only deliberately, and say why in CHANGES.md.

Exits 1 if any workload fails, 0 otherwise.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
REFERENCES = Path(__file__).resolve().parent


def records_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench-records"


def check(reference):
    """Returns the problems of one workload's fresh record, or []."""
    record = records_dir() / reference.name
    if not record.is_file():
        return [f"no record {record}"]
    old = json.loads(reference.read_text())
    new = json.loads(record.read_text())
    problems = []
    if len(new["trials"]) < len(old["trials"]):
        problems.append(f"{len(new['trials'])} trials, the reference has {len(old['trials'])}")
    for i, (a, b) in enumerate(zip(old["trials"], new["trials"])):
        if set(a) != set(b):
            problems.append(f"trial {i} keys differ: {sorted(set(a) ^ set(b))}")
    compare = [sys.executable, str(ROOT / "perfbench" / "run.py"), "compare",
               str(reference), str(record)]
    if subprocess.run(compare, cwd=ROOT).returncode != 0:
        problems.append("run.py compare found different work counts")
    return problems


def main():
    references = sorted(REFERENCES.glob("*.json"))
    if not references:
        print(f"no reference records in {REFERENCES}", file=sys.stderr)
        return 1
    failed = 0
    for reference in references:
        print(f"{reference.stem}:", flush=True)
        problems = check(reference)
        for problem in problems:
            print(f"  FAIL {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
