"""Run every workload once, one after another, and print all end-to-end metrics.

    python3 perfbench/ladder.py [--seed N] [--seconds S]

Prints one block per workload (the same figures ``run.py --trace 0`` reports,
plus ``fail_ratio``) and exits non-zero if any operation failed.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args(argv)
    failed = 0
    for workload in run.WORKLOADS:
        result = run.measure(workload, args.seed, args.seconds, trace=False)
        failed += result["failed"]
        print(f"# {workload} seed={args.seed} passes={result['passes']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, (value, unit) in result["metrics"].items():
            print(f"{workload:9s} {name:14s} {value:>14.6f} {unit}")
        for failure in result["failures"]:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
