"""One measured run of one workload, in a fresh interpreter.

Usage (started by run.py, one process at a time):

    python3 perfbench/worker.py WORKLOAD SEED SIZE MODE SPAWN_NS

MODE is ``setup`` (set up, report set-up time, exit), ``plain`` (the timed
phase with the unmodified library) or ``traced`` (the timed phase with
span wrappers installed).  SPAWN_NS is the parent's ``time.monotonic_ns()``
just before it started this process, so set-up time covers interpreter
start, ``import tropi`` and input generation.

Warm repeats inside one process are not allowed: ``cones`` and
``combtypes`` keep module-level ``lru_cache``s, and a second pass in the
same process would time cache hits that no CLI user gets.  For the same
reason every functools cache in tropi is cleared after input generation,
so the timed phase starts as cold as a CLI process that has just loaded
its inputs; caches still fill within the timed phase, as they do for
users.

Prints one JSON line with integer nanoseconds.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "tropi" or name.startswith("tropi."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()


def main(argv: list[str]) -> int:
    workload_name, seed, size, mode, spawn_ns = argv
    seed, spawn_ns = int(seed), int(spawn_ns)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # noqa: E402  (needs src/ on the path)

    w = workloads.WORKLOADS[workload_name]
    workdir = os.path.join(OUT_DIR, f"{workload_name}-{os.getpid()}")
    inp = w.setup(seed, size, workdir)
    _clear_caches()
    setup_ns = time.monotonic_ns() - spawn_ns
    report = {"setup_ns": setup_ns}
    try:
        if mode != "setup":
            report.update(_measure(w, inp, traced=mode == "traced", seed=seed))
    finally:
        if hasattr(w, "cleanup"):
            w.cleanup(inp)
    print(json.dumps(report))
    return 0


def _measure(w, inp, traced: bool, seed: int) -> dict:
    import spans
    import workloads

    ledger = workloads.Ledger(w.cap_s)
    tracer = spans.Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter_ns()
    out = w.run(inp, ledger)
    wall_ns = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.uninstall()
    digestible = w.check(inp, out, ledger)
    report = {
        "wall_ns": wall_ns,
        "items_ns": ledger.items_ns,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "digest": workloads.digest(digestible),
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(wall_ns)
        tracer.write(
            os.path.join(OUT_DIR, f"trace-{w.name}.json"),
            start,
            {"workload": w.name, "seed": seed, "wall_ns": wall_ns, "clock": "perf_counter_ns"},
        )
    return report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
