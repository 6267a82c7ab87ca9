"""Per-layer spans, timed from outside the library.

``Tracer.install`` replaces the non-trivial public entry points of each
tropi module with timing wrappers, on the defining module and on every
tropi module that imported the name (``tropi.enumeration.solve_balancing``,
``tropi.subdivide.fm_feasible``, ...), plus ``ConeComplex.__init__`` and
``ConeComplex.cone_coords``.  That attributes time inside one opaque call
such as ``enumerate_types`` to the right layer without touching ``src/``.
Cheap helpers (``vec_*``, ``primitive``, ``is_zero``) stay unwrapped and
their time stays with the caller.

Spans are kept in memory as integer nanoseconds and written once, after
the timed phase.  A layer's self time is the summed duration of its spans
minus the duration of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "linalg",
    "feasibility",
    "cones",
    "subdivide",
    "combtypes",
    "smoothing",
    "enumeration",
    "serialize",
    "render",
    "cli",
)

ENTRY_POINTS = {
    "linalg": (
        "mat_rank",
        "elementary_divisors",
        "lattice_index",
        "is_unimodular",
        "det",
        "solve_rational_system",
        "nullspace",
    ),
    "feasibility": ("fm_feasible", "simplex_feasible"),
    "cones": (
        "ConeComplex.__init__",
        "ConeComplex.cone_coords",
        "minimal_containing_cone",
        "build_snc_tropicalization",
        "evaluate_pl",
        "coordinate_projection",
    ),
    "subdivide": (
        "identity_subdivision",
        "make_subdivision",
        "compose",
        "stellar_at_point",
        "stellar",
        "halfspace_description",
        "extreme_filter",
        "intersect_simplicial",
        "triangulate_cone",
        "slice_by_hyperplane",
        "common_refinement",
        "resolve_smooth",
        "sensitize",
    ),
    "combtypes": (
        "ray_coefficient",
        "span_coefficients",
        "cone_coefficient",
        "check_global_balancing",
        "solve_balancing",
        "validate_type",
        "check_gathmann",
        "collect_sensitive_slopes",
        "pushforward_type",
        "lift_numerical_data",
    ),
    "smoothing": (
        "check_sensitivity_consequences",
        "build_smoothing_system",
        "smoothable_lp",
        "smoothable_simplex",
        "smooth_construct",
        "verify_realization",
    ),
    "enumeration": ("enumerate_types", "canonical_code", "sensitize_for_data"),
    "serialize": (
        "complex_to_dict",
        "complex_from_dict",
        "subdivision_to_dict",
        "subdivision_from_dict",
        "type_to_dict",
        "type_from_dict",
        "lambda_to_dict",
        "lambda_from_dict",
        "realization_to_dict",
        "realization_from_dict",
        "catalogue_to_dict",
        "catalogue_from_dict",
        "slopes_to_dict",
        "slopes_from_dict",
        "load_json",
        "save_json",
    ),
    "render": ("render", "render_dot", "render_svg"),
    "cli": ("run", "main"),
}

# sub-layer spans reported on their own: metric prefix -> entry points
GROUPS = {
    "cones.build": ("cones", ("ConeComplex.__init__",)),
    "cones.query": ("cones", ("ConeComplex.cone_coords", "minimal_containing_cone")),
    "feasibility.fm": ("feasibility", ("fm_feasible",)),
    "linalg.solve": ("linalg", ("solve_rational_system",)),
    "linalg.lattice_index": ("linalg", ("lattice_index",)),
    "subdivide.stellar": ("subdivide", ("stellar_at_point",)),
    "combtypes.balance": ("combtypes", ("solve_balancing",)),
    "combtypes.validate": ("combtypes", ("validate_type",)),
    "combtypes.gathmann": ("combtypes", ("check_gathmann",)),
    "smoothing.lp": ("smoothing", ("smoothable_lp",)),
    "smoothing.construct": ("smoothing", ("smooth_construct",)),
}


# -- result hooks: counters measured where the work happens -------------------


def _count_if(counter: str, predicate):
    def hook(tracer, idx, args, result):
        if predicate(result):
            tracer.counters[counter] += 1

    return hook


def _types_out(tracer, idx, args, result):
    tracer.counters["enumeration.types_out"] += len(result)


def _rays_out(tracer, idx, args, result):
    rays = getattr(getattr(result, "refined", result), "rays", None)
    if rays is not None:
        tracer.rays[idx] = len(rays)


def _file_bytes(counter: str):
    def hook(tracer, idx, args, result):
        tracer.counters[counter] += os.path.getsize(args[0])

    return hook


HOOKS = {
    ("feasibility", "fm_feasible"): _count_if("feasibility.fm.infeasible", lambda r: r is None),
    ("combtypes", "validate_type"): _count_if("combtypes.validate.valid", lambda r: r.valid),
    ("combtypes", "check_gathmann"): _count_if("combtypes.gathmann.pass", bool),
    ("smoothing", "smoothable_lp"): _count_if("smoothing.lp.feasible", lambda r: r is not None),
    ("enumeration", "enumerate_types"): _types_out,
    ("serialize", "load_json"): _file_bytes("serialize.bytes_in"),
    ("serialize", "save_json"): _file_bytes("serialize.bytes_out"),
    ("cli", "run"): _count_if("cli.nonzero_exits", lambda r: r.exit_code != 0),
}
for _name in ENTRY_POINTS["subdivide"]:
    HOOKS[("subdivide", _name)] = _rays_out


class Tracer:
    """Timing wrappers around tropi's entry points, with spans kept in memory."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # fid -> (layer, entry point)
        self.spans = array("q")  # four slots per span: fid, parent, start, end
        self.current = -1  # index of the innermost open span
        self.counters: Counter = Counter()
        self.rays: dict[int, int] = {}  # span index -> rays of the complex it returned
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, fid: int, hook):
        spans, clock, tracer = self.spans, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(spans) >> 2
            spans.extend((fid, parent, 0, 0))
            tracer.current = idx
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                spans[4 * idx + 2] = start
                spans[4 * idx + 3] = end
                tracer.current = parent
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"tropi.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in ENTRY_POINTS.items():
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(modules[layer], owner_name, None) if owner_name else modules[layer]
                fn = vars(owner).get(attr) if owner is not None else None
                if fn is None:  # entry point removed by a later change
                    continue
                fid = len(self.names)
                self.names.append((layer, name))
                wrapper = self._wrap(fn, fid, HOOKS.get((layer, name)))
                if owner_name:
                    setattr(owner, attr, wrapper)
                    self._restore.append((owner, attr, fn))
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        loaded = [m for n, m in sys.modules.items() if n == "tropi" or n.startswith("tropi.")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-layer self time, call counts and counters for one timed phase."""
        spans = self.spans
        n_fids = len(self.names)
        calls = [0] * n_fids
        self_ns = [0] * n_fids
        root_ns = 0
        for i in range(0, len(spans), 4):
            fid, parent, start, end = spans[i], spans[i + 1], spans[i + 2], spans[i + 3]
            calls[fid] += 1
            self_ns[fid] += end - start
            if parent >= 0:
                self_ns[spans[4 * parent]] -= end - start
            else:
                root_ns += end - start

        def total(series, layer, names=None):
            return sum(
                series[fid]
                for fid, (lay, name) in enumerate(self.names)
                if lay == layer and (names is None or name in names)
            )

        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = total(self_ns, layer) / 1e9
            out[f"{layer}.calls"] = total(calls, layer)
        for prefix, (layer, names) in GROUPS.items():
            out[f"{prefix}.calls"] = total(calls, layer, names)
            out[f"{prefix}.self_s"] = total(self_ns, layer, names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        validated = out["combtypes.validate.calls"]
        out["enumeration.types_out"] = c["enumeration.types_out"]
        out["enumeration.yield"] = ratio(c["enumeration.types_out"], validated)
        out["combtypes.validate.valid_ratio"] = ratio(c["combtypes.validate.valid"], validated)
        out["combtypes.gathmann.pass_ratio"] = ratio(
            c["combtypes.gathmann.pass"], out["combtypes.gathmann.calls"]
        )
        out["feasibility.fm.infeasible_ratio"] = ratio(
            c["feasibility.fm.infeasible"], out["feasibility.fm.calls"]
        )
        out["smoothing.lp.feasible_ratio"] = ratio(
            c["smoothing.lp.feasible"], out["smoothing.lp.calls"]
        )
        out["subdivide.rays_out"] = sum(
            rays for idx, rays in self.rays.items() if self._outermost_subdivide(idx)
        )
        out["serialize.bytes_in"] = c["serialize.bytes_in"]
        out["serialize.bytes_out"] = c["serialize.bytes_out"]
        out["cli.nonzero_exits"] = c["cli.nonzero_exits"]
        out["trace.unattributed_ratio"] = ratio(wall_ns - root_ns, wall_ns)
        return out

    def _outermost_subdivide(self, idx: int) -> bool:
        """True when no enclosing span belongs to the subdivide layer."""
        parent = self.spans[4 * idx + 1]
        while parent >= 0:
            if self.names[self.spans[4 * parent]][0] == "subdivide":
                return False
            parent = self.spans[4 * parent + 1]
        return True

    def write(self, path: str, origin_ns: int, header: dict) -> None:
        """Persist the spans as exact JSON: integer nanoseconds from origin_ns."""
        spans = self.spans
        payload = dict(header)
        payload["functions"] = [{"layer": lay, "name": name} for lay, name in self.names]
        payload["spans"] = {
            "fid": spans[0::4].tolist(),
            "parent": spans[1::4].tolist(),
            "start_ns": [t - origin_ns for t in spans[2::4]],
            "end_ns": [t - origin_ns for t in spans[3::4]],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)
