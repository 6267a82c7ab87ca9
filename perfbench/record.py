"""Record the reference output digests that every benchmark pass is checked against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one plain pass per workload, size and seed class (``seed %
SEED_SPACE``; once for unseeded workloads) and writes ``reference.json``.
Recording ``pipeline`` also rewrites ``pipeline_types.json``, the
enumerated types that the pipeline's per-item passes load.  A pass that
reports any failed operation aborts the recording.  Record only at a
commit whose outputs are known to be right: a later change counts as
output-preserving only if it reproduces these digests byte for byte.
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import workloads  # noqa: E402  (needs src/ on the path)


def _write_pipeline_types() -> None:
    from tropi.enumeration import enumerate_types
    from tropi.serialize import type_to_dict

    pipeline = workloads.WORKLOADS["pipeline"]
    payload = {}
    for size in ("tiny", "full"):
        inp = pipeline.setup(0, size, "")
        types = enumerate_types(inp["target"], inp["lambda"], inp["catalogue"])
        payload[size] = [type_to_dict(t) for t in types]
    with open(workloads.PipelineTypes.TYPES, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _record(name: str) -> dict:
    """Digest tables per size for one workload; raises on a failed pass."""
    w = workloads.WORKLOADS[name]
    tables = {}
    for size in ("tiny", "full"):
        digests = {}
        for seed in range(workloads.SEED_SPACE) if w.seeded else [0]:
            tally = run.Tally()
            report = run._pass(name, seed, size, "plain", run.RUN_LIMIT_S, tally)
            if report is None or report["failures"]:
                failures = tally.failures if report is None else report["failures"]
                raise RuntimeError(f"{name}/{size}/{seed}: " + "; ".join(failures))
            digests[str(seed) if w.seeded else "any"] = report["digest"]
            print(f"{name}/{size}/{seed}: {report['digest']} "
                  f"({report['wall_ns'] / 1e9:.2f} s)", flush=True)
        tables[size] = digests
    return tables


def main(names: list[str]) -> int:
    try:
        with open(run.REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {"digests": {}}
    reference["seed_space"] = workloads.SEED_SPACE
    for name in names or run.WORKLOADS:
        if name == "pipeline":
            _write_pipeline_types()
        for recorded in [name] + ([run.ITEM_PASSES[name]] if name in run.ITEM_PASSES else []):
            try:
                reference["digests"][recorded] = _record(recorded)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 1
    tmp = run.REFERENCE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
