"""The four benchmark workloads: inputs, timed phase and output checks.

Each workload is run in a fresh interpreter by ``worker.py``.  ``setup``
builds the seeded inputs (and, for ``files``, writes them to disk), ``run``
is the timed phase, and ``check`` verifies the outputs after timing.
Library functions are looked up through their module at call time
(``enumeration.enumerate_types``), so the traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import time
from dataclasses import replace
from typing import Callable

from tropi import cli, combtypes, enumeration, serialize, smoothing, subdivide
from tropi.linalg import is_unimodular
from tropi.worked_example import example_data, quadrant

import gen

SEED_SPACE = 16  # inputs depend on seed % SEED_SPACE, so every seed has a reference digest
MISSING = object()


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


class Ledger:
    """Counts attempted and failed operations and times the per-item ones.

    Every operation runs under a time cap (SIGALRM, so no thread is
    started); a cap hit is recorded as a ``timeout`` failure.
    """

    def __init__(self, cap_s: float):
        self.cap_s = cap_s
        self.attempted = 0
        self.failures: list[str] = []
        self.items_ns: list[int] = []
        signal.signal(signal.SIGALRM, _alarm)

    def run(self, label: str, fn: Callable, *args, item: bool = False):
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, self.cap_s)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
            end = time.perf_counter_ns()
        except OpTimeout:
            self.failures.append(f"{label}: timeout after {self.cap_s} s")
            return MISSING
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return MISSING
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if item:
            self.items_ns.append(end - start)
        return result

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {label}")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed % SEED_SPACE}")


def _canonical(value):
    """JSON-ready form of a result, through tropi.serialize where it has one."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, subdivide.Subdivision):
        return serialize.subdivision_to_dict(value)
    if isinstance(value, combtypes.CombinatorialType):
        return serialize.type_to_dict(value)
    if isinstance(value, combtypes.NumericalData):
        return serialize.lambda_to_dict(value)
    if isinstance(value, smoothing.Realization):
        return serialize.realization_to_dict(value)
    if value is MISSING:
        return "<missing>"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(outputs) -> str:
    text = json.dumps(_canonical(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- pipeline ------------------------------------------------------------------


class Pipeline:
    name = "pipeline"
    why = (
        "the paper's worked example at 4 vertices: enumeration and combtypes do "
        "most of the work, subdivide almost none"
    )
    seeded = False  # the inputs are the paper's; the seed is recorded but unused
    cap_s = 150.0
    GOLDEN_RAYS = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))
    STELLAR_POINTS = [(1, 1), (2, 1), (1, 2)]
    # (max vertices, valid types, smoothable types)
    SIZES = {"full": (4, 172, 145), "tiny": (3, 34, 31)}

    def setup(self, seed: int, size: str, workdir: str) -> dict:
        vertices, n_types, n_smoothable = self.SIZES[size]
        return {
            "target": quadrant(),
            "lambda": example_data(),
            "catalogue": enumeration.DegreeCatalogue(
                atoms=[(0, 0), (2, 2), (4, 4)], max_vertices=vertices
            ),
            "n_types": n_types,
            "n_smoothable": n_smoothable,
        }

    def run(self, inp: dict, L: Ledger) -> dict:
        target = inp["target"]
        out = {"types": MISSING, "refined": MISSING, "rerun": MISSING}
        types = L.run("enumerate_types", enumeration.enumerate_types,
                      target, inp["lambda"], inp["catalogue"])
        if types is MISSING:
            return out
        out["types"] = types
        out["witnesses"] = [
            L.run(f"smoothable_lp[{i}]", smoothing.smoothable_lp, t) for i, t in enumerate(types)
        ]
        slopes = L.run("collect_sensitive_slopes", combtypes.collect_sensitive_slopes, types)
        if slopes is MISSING:
            return out
        out["refined"] = L.run("sensitize", subdivide.sensitize, target, slopes)
        fan, lam = target, inp["lambda"]
        for point in self.STELLAR_POINTS:
            step = L.run(f"stellar_at_point{point}", subdivide.stellar_at_point, fan, point)
            if step is MISSING:
                return out
            lam = L.run(f"lift_numerical_data{point}", combtypes.lift_numerical_data, step, lam)
            if lam is MISSING:
                return out
            fan = step.refined
        out["lifted"], out["lifted_fan"] = lam, fan
        rerun_catalogue = enumeration.DegreeCatalogue(
            atoms=[tuple(0 for _ in fan.rays), lam.total_degree], max_vertices=3
        )
        out["rerun"] = L.run("sensitize_for_data (rerun)", enumeration.sensitize_for_data,
                             fan, lam, rerun_catalogue)
        return out

    def check(self, inp: dict, out: dict, L: Ledger) -> list:
        types = out["types"]
        L.check(f"{inp['n_types']} valid types", types is not MISSING
                and len(types) == inp["n_types"])
        if MISSING in (types, out["refined"], out["rerun"]):
            return [types]
        L.check(f"{inp['n_smoothable']} smoothable types",
                sum(w not in (None, MISSING) for w in out["witnesses"]) == inp["n_smoothable"])
        L.check("refined rays are the golden fan", out["refined"].refined.rays == self.GOLDEN_RAYS)
        L.check("stellar steps rebuild the refined fan", out["lifted_fan"] == out["refined"].refined)
        L.check("rerun adds no rays", out["rerun"].refined.rays == out["lifted_fan"].rays)
        return [types, out["witnesses"], out["refined"], out["lifted"], out["rerun"]]


class PipelineTypes:
    """Per-item latency for ``pipeline``: ``smoothable_lp`` on each enumerated type.

    Inside a pipeline pass these 172 checks run in one half-second window
    after a long enumeration, so their latency would sample the machine's
    speed at a single moment.  Instead each pass of this companion loads
    the types (as enumerated at the reference commit, ``pipeline_types.json``)
    and times the checks in a fresh interpreter; a pipeline run places
    such passes before and after its pipeline pass.
    """

    name = "pipeline.types"
    seeded = False
    cap_s = 30.0
    TYPES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pipeline_types.json")

    def setup(self, seed: int, size: str, workdir: str) -> dict:
        with open(self.TYPES, encoding="utf-8") as fh:
            payload = json.load(fh)[size]
        return {
            "types": [serialize.type_from_dict(d) for d in payload],
            "n_smoothable": Pipeline.SIZES[size][2],
        }

    def run(self, inp: dict, L: Ledger) -> dict:
        return {"witnesses": [
            L.run(f"smoothable_lp[{i}]", smoothing.smoothable_lp, t, item=True)
            for i, t in enumerate(inp["types"])
        ]}

    def check(self, inp: dict, out: dict, L: Ledger) -> list:
        L.check(f"{inp['n_smoothable']} smoothable types",
                sum(w not in (None, MISSING) for w in out["witnesses"]) == inp["n_smoothable"])
        return out["witnesses"]


# -- refine ----------------------------------------------------------------------


class Refine:
    name = "refine"
    why = (
        "high-index cones through resolve_smooth and octant sensitize: cones "
        "construction and validation, many tiny FM solves and subdivide"
    )
    seeded = True
    cap_s = 60.0
    # 2D cones, largest 2D index, 3D cones, largest 3D index, octant slope sets
    SIZES = {
        "full": (88, 12, 12, 5, [[(1, 1, 2)], [(1, 1, 2), (1, 2, 1)]]),
        "tiny": (8, 6, 3, 3, [[(1, 1, 2)]]),
    }

    def setup(self, seed: int, size: str, workdir: str) -> dict:
        n2, hi2, n3, hi3, octant_slopes = self.SIZES[size]
        rng = _rng(self.name, seed)
        octant = gen.coordinate_fan(3)
        items = [("resolve_smooth", (c,), None)
                 for c in gen.high_index_cones(rng, n2, hi2, n3, hi3)]
        items += [("sensitize", (octant, s), s) for s in octant_slopes]
        # shuffled, so items of each size spread over the pass and its timing noise
        rng.shuffle(items)
        return {"items": items}

    def run(self, inp: dict, L: Ledger) -> dict:
        return {"results": [
            L.run(f"{name}[{i}]", getattr(subdivide, name), *args, item=True)
            for i, (name, args, _) in enumerate(inp["items"])
        ]}

    def check(self, inp: dict, out: dict, L: Ledger) -> list:
        for i, ((_, _, slopes), sub) in enumerate(zip(inp["items"], out["results"])):
            L.check(f"refinement {i} is smooth", sub is not MISSING and all(
                is_unimodular(sub.refined.generators(frozenset(mc)))
                for mc in sub.refined.max_cones
            ))
            if slopes is not None and sub is not MISSING:
                L.check(f"octant refinement carries {slopes}",
                        all(s in sub.refined.rays for s in slopes))
        return out["results"]


# -- smooth ----------------------------------------------------------------------


class Smooth:
    name = "smooth"
    why = (
        "staircase types up to 32 vertices through every smoothing check: a few "
        "wide FM systems, cones queries and linalg solves"
    )
    seeded = True
    cap_s = 60.0
    SIZES = {"full": (100, 32), "tiny": (6, 8)}  # types, most vertices

    def setup(self, seed: int, size: str, workdir: str) -> dict:
        count, most = self.SIZES[size]
        rng = _rng(self.name, seed)
        types = []
        for i in range(count):
            fan = gen.smooth_fan(rng, 2 + i % 2, (i // 2) % 3)
            # vertex counts from 2 to most, quadratically weighted toward small trees
            vertices = 2 + ((most - 2) * i * i) // ((count - 1) * (count - 1))
            types.append(gen.staircase_type(rng, fan, vertices))
        rng.shuffle(types)  # sizes spread over the pass and its timing noise
        return {"types": types}

    @staticmethod
    def _item(t):
        bare = replace(t, edge_slopes=None)
        slopes = combtypes.solve_balancing(bare)
        t = bare.with_slopes(slopes)
        valid = combtypes.validate_type(t).valid
        gathmann = combtypes.check_gathmann(t)
        sensitive = smoothing.check_sensitivity_consequences(t).passed
        witness = smoothing.smoothable_lp(t)
        built = smoothing.smooth_construct(t)
        checks = [
            valid, gathmann, sensitive, witness is not None,
            smoothing.verify_realization(t, built).valid,
            witness is not None and smoothing.verify_realization(t, witness).valid,
        ]
        t_text = json.dumps(serialize.type_to_dict(t), sort_keys=True)
        r_text = json.dumps(serialize.realization_to_dict(built), sort_keys=True)
        checks.append(serialize.type_from_dict(json.loads(t_text)) == t)
        checks.append(serialize.realization_from_dict(json.loads(r_text)) == built)
        return {"slopes": slopes, "checks": checks, "witness": witness, "built": built}

    def run(self, inp: dict, L: Ledger) -> dict:
        return {"items": [
            L.run(f"type[{i}]", self._item, t, item=True) for i, t in enumerate(inp["types"])
        ]}

    def check(self, inp: dict, out: dict, L: Ledger) -> list:
        digestible = []
        for i, (t, res) in enumerate(zip(inp["types"], out["items"])):
            if res is MISSING:
                digestible.append(None)
                continue
            L.check(f"type[{i}] balances to its construction slopes",
                    {e: tuple(m) for e, m in res["slopes"].items()} == t.edge_slopes)
            L.check(f"type[{i}] passes all checks and both realizations verify",
                    all(res["checks"]))
            digestible.append([sorted(res["slopes"].items()), res["witness"], res["built"]])
        return digestible


# -- files -----------------------------------------------------------------------


class Files:
    name = "files"
    why = (
        "the demos/04 CLI path over many seeded payloads on disk: serialize, "
        "cli and render do most of the work"
    )
    seeded = True
    cap_s = 30.0
    SIZES = {"full": 40, "tiny": 4}  # payloads

    def setup(self, seed: int, size: str, workdir: str) -> dict:
        rng = _rng(self.name, seed)
        os.makedirs(workdir)
        steps = []
        for i in range(self.SIZES[size]):
            p = gen.cli_payload(rng, i)
            d = f"p{i:03d}"
            os.makedirs(os.path.join(workdir, d))

            def save(name, payload):
                serialize.save_json(os.path.join(workdir, d, name), payload)

            save("complex.json", serialize.complex_to_dict(p["complex"]))
            save("type.json", serialize.type_to_dict(p["type"]))
            save("lambda.json", serialize.lambda_to_dict(p["lambda"]))
            save("slopes.json", serialize.slopes_to_dict(p["slopes"]))
            save("refined_type.json", serialize.type_to_dict(p["refined_type"]))
            steps += [
                (0, f"{d}/balanced.json", ["balance", "--type", f"{d}/type.json",
                                           "--out", f"{d}/balanced.json"]),
                (0, None, ["validate", "--type", f"{d}/balanced.json"]),
                (0, None, ["gathmann", "--type", f"{d}/balanced.json"]),
                (0, f"{d}/graph.dot", ["render", "--type", f"{d}/balanced.json",
                                       "--format", "dot", "--out", f"{d}/graph.dot"]),
                (0, f"{d}/fan.svg", ["render", "--type", f"{d}/balanced.json",
                                     "--format", "svg", "--out", f"{d}/fan.svg"]),
                (0, f"{d}/sub.json", ["sensitize", "--target", f"{d}/complex.json",
                                      "--slopes", f"{d}/slopes.json", "--out", f"{d}/sub.json"]),
                (0, f"{d}/lifted.json", ["lift-lambda", "--subdivision", f"{d}/sub.json",
                                         "--lambda", f"{d}/lambda.json",
                                         "--out", f"{d}/lifted.json"]),
                (0, f"{d}/pushed.json", ["pushforward", "--subdivision", f"{d}/sub.json",
                                         "--type", f"{d}/refined_type.json",
                                         "--out", f"{d}/pushed.json"]),
            ]
            if "corrupt_type" in p:
                save("corrupt.json", serialize.type_to_dict(p["corrupt_type"]))
                steps.append((2, None, ["validate", "--type", f"{d}/corrupt.json"]))
        return {"workdir": workdir, "steps": steps}

    def run(self, inp: dict, L: Ledger) -> dict:
        home = os.getcwd()
        os.chdir(inp["workdir"])  # relative paths keep summaries byte-identical
        try:
            results = [
                L.run(" ".join(argv), cli.run, argv, item=True)
                for _, _, argv in inp["steps"]
            ]
        finally:
            os.chdir(home)
        return {"results": results}

    def check(self, inp: dict, out: dict, L: Ledger) -> list:
        digestible = []
        for (expected, path, argv), res in zip(inp["steps"], out["results"]):
            if res is MISSING:
                digestible.append(None)
                continue
            L.check(f"tropi {' '.join(argv)} exits {expected} ({res.summary})",
                    res.exit_code == expected)
            body = None
            if path is not None and res.exit_code == 0:
                with open(os.path.join(inp["workdir"], path), "rb") as fh:
                    body = hashlib.sha256(fh.read()).hexdigest()
            digestible.append([argv, res.exit_code, res.summary, body])
        return digestible

    def cleanup(self, inp: dict) -> None:
        shutil.rmtree(inp["workdir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (Pipeline(), PipelineTypes(), Refine(), Smooth(), Files())}
