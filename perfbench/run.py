"""tropi benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``).  Each measured pass of the workload runs in a fresh,
single-threaded interpreter (``worker.py``), one after another and never
side by side, for about ``--seconds`` seconds.  Warm repeats inside one
interpreter are not allowed, because ``cones`` and ``combtypes`` keep
module-level ``lru_cache``s that would turn a repeat into cache hits no CLI
user gets.

With ``--trace 0`` the passes run the unmodified library and the run
reports the end-to-end metrics: median timed-phase duration, per-item
latency percentiles, median set-up time (several set-ups per run) and
median peak RSS.  With ``--trace 1`` the run alternates plain and traced
passes and reports per-layer self time, call counts and counters (see
``spans.py``), plus the tracing overhead.

Every pass checks its outputs: the sha256 of the canonical outputs must
equal the digest recorded in ``reference.json``, and each workload asserts
its golden values.  A mismatch, an exception, a wrong exit code or a time
cap hit counts as a failed operation.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from spans import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("pipeline", "refine", "smooth", "files")
# workloads whose per-item latency comes from companion passes (see workloads.PipelineTypes)
ITEM_PASSES = {"pipeline": "pipeline.types"}
RUN_LIMIT_S = 165  # one invocation must end within 180 s
MIN_SETUPS = 5
MIN_ITEM_PASSES = 4  # for workloads in ITEM_PASSES, half before and half after

END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "enumeration.types_out": "count",
    "enumeration.yield": "1",
    "combtypes.balance.calls": "count",
    "combtypes.validate.calls": "count",
    "combtypes.validate.valid_ratio": "1",
    "combtypes.gathmann.pass_ratio": "1",
    "cones.build.calls": "count",
    "cones.build.self_s": "s",
    "cones.query.calls": "count",
    "cones.query.self_s": "s",
    "feasibility.fm.calls": "count",
    "feasibility.fm.self_s": "s",
    "feasibility.fm.infeasible_ratio": "1",
    "linalg.solve.calls": "count",
    "linalg.lattice_index.calls": "count",
    "subdivide.stellar.calls": "count",
    "subdivide.rays_out": "count",
    "smoothing.lp.self_s": "s",
    "smoothing.lp.feasible_ratio": "1",
    "smoothing.construct.self_s": "s",
    "serialize.bytes_in": "B",
    "serialize.bytes_out": "B",
    "cli.nonzero_exits": "count",
    "fail_ratio": "1",
    "trace.overhead_ratio": "1",
    "trace.unattributed_ratio": "1",
}


class Tally:
    """Attempted and failed operations over all passes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failures.append(message)


def _pass(workload: str, seed: int, size: str, mode: str, timeout: float, tally: Tally):
    """Run one fresh interpreter; return its report, or None after a failure."""
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, str(seed), size, mode, str(spawn_ns)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        tally.fail(f"{mode} pass: timeout after {timeout:.0f} s")
        return None
    try:
        if proc.returncode != 0:
            raise ValueError(f"exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        tally.fail(f"{mode} pass {exc}: {proc.stderr.strip()[-500:]}")
        return None


def _check_outputs(report: dict, expected, tally: Tally, mode: str) -> None:
    tally.attempted += report["attempted"] + 1  # +1: the output digest comparison
    tally.failures += [f"{mode} pass: {f}" for f in report["failures"]]
    if expected is None:
        tally.failures.append(f"{mode} pass: no reference digest recorded for this input")
    elif report["digest"] != expected:
        tally.failures.append(
            f"{mode} pass: output digest {report['digest'][:16]} != reference {expected[:16]}"
        )


def _percentile(values: list[int], q: int) -> int:
    """Nearest-rank percentile: the value with at least q% of samples at or below it."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def reference_digest(reference: dict, workload: str, size: str, seed: int):
    table = reference["digests"][workload][size]
    return table.get("any", table.get(str(seed % reference["seed_space"])))


def _rounds(workload: str, seed: int, size: str, modes: tuple, expected, tally: Tally,
            until: float, deadline: float, minimum: int) -> dict[str, list]:
    """Run rounds of passes (one per mode) until the next round would end after
    ``until``, after at least ``minimum`` rounds; stop at the first failed pass."""
    reports = {mode: [] for mode in modes}
    while True:
        round_start = time.monotonic()
        for mode in modes:
            report = _pass(workload, seed, size, mode, deadline - time.monotonic(), tally)
            if report is None:
                return reports
            _check_outputs(report, expected, tally, mode)
            reports[mode].append(report)
        now = time.monotonic()
        next_end = now + (now - round_start)
        if next_end > deadline or (len(reports[modes[0]]) >= minimum and next_end > until):
            return reports


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", reference: dict | None = None) -> dict:
    """Run passes of one workload for about ``seconds`` and aggregate them."""
    if reference is None:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    start = time.monotonic()
    until, deadline = start + seconds, start + RUN_LIMIT_S
    tally = Tally()
    modes = ("plain", "traced") if trace else ("plain",)
    companion = None if trace else ITEM_PASSES.get(workload)
    if companion is not None:
        # item passes before and after the long passes sample two stretches of machine time
        companion_digest = reference_digest(reference, companion, size, seed)
        item_reports = _rounds(companion, seed, size, ("plain",), companion_digest,
                               tally, start, deadline, minimum=MIN_ITEM_PASSES // 2)["plain"]
    reports = _rounds(workload, seed, size, modes, reference_digest(reference, workload, size, seed),
                      tally, until, deadline, minimum=1)
    plain = reports["plain"]
    metrics = {}
    if trace and plain and reports["traced"]:
        traced = reports["traced"]
        tally.attempted += 1
        if {r["digest"] for r in traced} != {r["digest"] for r in plain}:
            tally.failures.append("traced pass changed the output digest")
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(r["wall_ns"] for r in traced)
            / statistics.median(r["wall_ns"] for r in plain) - 1
        )
    elif not trace and plain:
        if companion is None:
            item_reports = plain
        else:
            item_reports += _rounds(companion, seed, size, ("plain",), companion_digest,
                                    tally, until, deadline, minimum=MIN_ITEM_PASSES // 2)["plain"]
        setups = [r["setup_ns"] for r in plain]
        while len(setups) < MIN_SETUPS and time.monotonic() < deadline - 30:
            report = _pass(workload, seed, size, "setup", deadline - time.monotonic(), tally)
            if report is None:
                break
            setups.append(report["setup_ns"])
        items = [ns for r in item_reports for ns in r["items_ns"]]
        if items:
            metrics = {
                "wall_s": statistics.median(r["wall_ns"] for r in plain) / 1e9,
                "item_p50_ms": _percentile(items, 50) / 1e6,
                "item_p90_ms": _percentile(items, 90) / 1e6,
                "setup_s": statistics.median(setups) / 1e9,
                "peak_rss_mib": statistics.median(r["rss_kib"] for r in plain) / 1024,
            }
    failed = len(tally.failures)
    units = PER_LAYER if trace else END_TO_END
    if metrics:
        metrics["fail_ratio"] = failed / max(tally.attempted, 1)
    return {
        "passes": {mode: len(r) for mode, r in reports.items()},
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures,
        "metrics": {
            name: (value, units.get(name, "1"))
            for name, value in metrics.items()
            if name in units or name == "fail_ratio"
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tropi", "__init__.py")):
        print(f"error: no tropi sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not result["metrics"]:
        print("error: no pass completed:\n  " + "\n  ".join(result["failures"]), file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
            if name in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
