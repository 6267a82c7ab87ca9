"""JSON (de)serialization for every persisted artifact.

All numerics are exact: plain integers for integer data, canonical "p/q"
strings (q > 0, gcd(p, q) = 1) for rationals.  No floats ever appear in
a persisted file.  Writes are atomic (temp file in the same directory,
then rename), so a crashed run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction
from typing import Any, Optional

from .combtypes import CombinatorialType, DecoratedGraph, NumericalData
from .cones import Cone, ConeComplex
from .enumeration import DegreeCatalogue
from .smoothing import Realization
from .subdivide import Subdivision


class SerializationError(ValueError):
    pass


# -- scalars -----------------------------------------------------------------


def fraction_to_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def fraction_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, float):
        raise SerializationError("floats are not allowed in persisted data")
    try:
        num, den = str(s).split("/")
        f = Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializationError(f"not a rational: {s!r}") from exc
    if f.denominator != int(den) or f.numerator != int(num):
        raise SerializationError(f"rational not in canonical form: {s!r}")
    return f


def _int_vector(data) -> tuple[int, ...]:
    if not isinstance(data, list) or not all(isinstance(x, int) for x in data):
        raise SerializationError(f"expected an integer vector, got {data!r}")
    return tuple(data)


def _cone_to_list(c: Cone) -> list[int]:
    return sorted(c)


def _cone_from_list(data) -> Cone:
    return frozenset(_int_vector(data))


# -- cone complexes ----------------------------------------------------------


def complex_to_dict(c: ConeComplex) -> dict:
    return {
        "ambient_dim": c.ambient_dim,
        "rays": [list(r) for r in c.rays],
        "max_cones": [_cone_to_list(m) for m in c.max_cones],
    }


def complex_from_dict(data: dict) -> ConeComplex:
    try:
        return ConeComplex(
            data["ambient_dim"],
            [_int_vector(r) for r in data["rays"]],
            [_int_vector(m) for m in data["max_cones"]],
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad complex payload: {exc}") from exc


# -- subdivisions ------------------------------------------------------------


def _cone_order(c: ConeComplex) -> list[Cone]:
    return sorted(c.cones(), key=lambda s: (len(s), sorted(s)))


def subdivision_to_dict(s: Subdivision) -> dict:
    base_idx = {c: i for i, c in enumerate(_cone_order(s.base))}
    ref_order = _cone_order(s.refined)
    return {
        "base": complex_to_dict(s.base),
        "refined": complex_to_dict(s.refined),
        "cone_image": [
            [i, base_idx[s.cone_image[c]]] for i, c in enumerate(ref_order)
        ],
        "warnings": list(s.warnings),
    }


def subdivision_from_dict(data: dict) -> Subdivision:
    try:
        base = complex_from_dict(data["base"])
        refined = complex_from_dict(data["refined"])
        base_order = _cone_order(base)
        ref_order = _cone_order(refined)
        cone_image = {
            ref_order[i]: base_order[j] for i, j in data["cone_image"]
        }
        warnings = tuple(data.get("warnings", []))
    except (KeyError, TypeError, IndexError) as exc:
        raise SerializationError(f"bad subdivision payload: {exc}") from exc
    if len(cone_image) != len(ref_order):
        raise SerializationError("cone_image must cover every refined cone")
    return Subdivision(base, refined, cone_image, warnings)


# -- combinatorial types -----------------------------------------------------


def type_to_dict(t: CombinatorialType) -> dict:
    g = t.graph
    return {
        "target": complex_to_dict(t.target),
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "legs": [[v, j] for v, j in g.legs],
        "degrees": {v: list(d) for v, d in g.degrees.items()},
        "cone_of": {
            "vertices": {v: _cone_to_list(c) for v, c in t.vertex_cones.items()},
            "edges": [[list(e), _cone_to_list(c)] for e, c in t.edge_cones.items()],
            "legs": {str(j): _cone_to_list(c) for j, c in t.leg_cones.items()},
        },
        "leg_slopes": {str(j): list(m) for j, m in t.leg_slopes.items()},
        "edge_slopes": (
            None
            if t.edge_slopes is None
            else [[list(e), list(m)] for e, m in t.edge_slopes.items()]
        ),
    }


def type_from_dict(data: dict) -> CombinatorialType:
    try:
        target = complex_from_dict(data["target"])
        graph = DecoratedGraph(
            list(data["vertices"]),
            [tuple(e) for e in data["edges"]],
            [(v, int(j)) for v, j in data["legs"]],
            {v: _int_vector(d) for v, d in data["degrees"].items()},
        )
        cone_of = data["cone_of"]
        edge_slopes = data.get("edge_slopes")
        return CombinatorialType(
            graph=graph,
            target=target,
            vertex_cones={
                v: _cone_from_list(c) for v, c in cone_of["vertices"].items()
            },
            edge_cones={
                tuple(e): _cone_from_list(c) for e, c in cone_of["edges"]
            },
            leg_cones={
                int(j): _cone_from_list(c) for j, c in cone_of["legs"].items()
            },
            leg_slopes={
                int(j): _int_vector(m) for j, m in data["leg_slopes"].items()
            },
            edge_slopes=(
                None
                if edge_slopes is None
                else {tuple(e): _int_vector(m) for e, m in edge_slopes}
            ),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad type payload: {exc}") from exc


# -- numerical data ----------------------------------------------------------


def lambda_to_dict(lam: NumericalData) -> dict:
    return {
        "n": lam.n,
        "alphas": [list(a) for a in lam.alphas],
        "total_degree": list(lam.total_degree),
    }


def lambda_from_dict(data: dict) -> NumericalData:
    try:
        return NumericalData(
            int(data["n"]),
            [_int_vector(a) for a in data["alphas"]],
            _int_vector(data["total_degree"]),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad lambda payload: {exc}") from exc


# -- realizations ------------------------------------------------------------


def realization_to_dict(r: Realization) -> dict:
    return {
        "root_vertex": r.root_vertex,
        "edge_lengths": [
            [list(e), fraction_to_str(l)] for e, l in r.edge_lengths.items()
        ],
        "vertex_positions": {
            v: [fraction_to_str(x) for x in p]
            for v, p in r.vertex_positions.items()
        },
    }


def realization_from_dict(data: dict) -> Realization:
    try:
        return Realization(
            data["root_vertex"],
            {tuple(e): fraction_from_str(l) for e, l in data["edge_lengths"]},
            {
                v: tuple(fraction_from_str(x) for x in p)
                for v, p in data["vertex_positions"].items()
            },
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad realization payload: {exc}") from exc


# -- catalogues and slope lists ----------------------------------------------


def catalogue_to_dict(cat: DegreeCatalogue) -> dict:
    return {
        "atoms": [list(a) for a in cat.atoms],
        "max_vertices": cat.max_vertices,
    }


def catalogue_from_dict(data: dict) -> DegreeCatalogue:
    try:
        return DegreeCatalogue(
            [_int_vector(a) for a in data["atoms"]], int(data["max_vertices"])
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad catalogue payload: {exc}") from exc


def slopes_to_dict(slopes) -> dict:
    return {"slopes": sorted(list(m) for m in slopes)}


def slopes_from_dict(data: dict) -> list[tuple[int, ...]]:
    try:
        return [_int_vector(m) for m in data["slopes"]]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad slopes payload: {exc}") from exc


# -- files -------------------------------------------------------------------


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(
                fh, parse_float=_reject_float, parse_constant=_reject_float
            )
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc


def _reject_float(token):
    raise SerializationError(f"float literal {token!r} is not allowed")


def save_text(path: str, text: str) -> None:
    """Write text atomically: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path: str, payload: Any) -> None:
    """Write JSON atomically, with sorted keys and a trailing newline."""
    save_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
