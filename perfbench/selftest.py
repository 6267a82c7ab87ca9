"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload, that a plain run emits every end-to-end metric
and a traced run every per-layer metric, each with its unit and without a
failed operation; that a corrupted reference digest is reported as a failed
operation, so the output gate is shown to work; and that the benchmark
exits non-zero, printing no result, where there are no tropi sources.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import run


def _metric_problems(result: dict, wanted: dict[str, str]) -> list[str]:
    problems = []
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        if got is None:
            problems.append(f"{name} missing")
        elif got[1] != unit or not math.isfinite(got[0]):
            problems.append(f"{name} = {got}, expected a number in {unit}")
    return problems


def main() -> int:
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    problems = []
    for workload in run.WORKLOADS:
        for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
            result = run.measure(workload, 1, 0, trace, size="tiny", reference=reference)
            label = f"{workload} trace={int(trace)}"
            problems += [f"{label}: {p}" for p in result["failures"]]
            problems += [f"{label}: {p}" for p in _metric_problems(result, wanted)]
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, {result['failed']} failed")

        corrupted = copy.deepcopy(reference)
        table = corrupted["digests"][workload]["tiny"]
        for key, value in table.items():
            table[key] = value[::-1]
        result = run.measure(workload, 1, 0, False, size="tiny", reference=corrupted)
        caught = [f for f in result["failures"] if "output digest" in f]
        if not caught or result["failed"] == 0:
            problems.append(f"{workload}: corrupted reference digest was not reported")
        print(f"{workload} corrupted reference: {result['failed']} failed of "
              f"{result['attempted']}")

    bare = os.path.join(run.ROOT, ".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "refine", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("run without sources did not fail cleanly")
    print(f"run without sources: exit {proc.returncode}")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
