"""JSON (de)serialization for every persisted artifact.

All numerics are exact: plain integers for integer data, canonical "p/q"
strings (q > 0, gcd(p, q) = 1) for rationals.  No floats ever appear in
a persisted file.  Writes are atomic (temp file in the same directory,
then rename), so a crashed run never leaves a truncated artifact behind; a
new file gets 0o666 less the umask, and an overwritten one keeps its mode.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Iterator, Optional

from .combtypes import CombinatorialType, DecoratedGraph, NumericalData, TypeProblem
from .cones import ComplexError, Cone, ConeComplex
from .enumeration import DegreeCatalogue
from .linalg import LinAlgError
from .smoothing import Realization
from .subdivide import Subdivision


class SerializationError(ValueError):
    pass


@contextmanager
def _payload(kind: str) -> Iterator[None]:
    """Turn a malformed payload's shape errors into SerializationError.

    Validation errors of well-formed data (ComplexError, TypeProblem,
    LinAlgError) are ValueErrors too; they pass through unchanged, so the
    CLI still reports them as validation failures.
    """
    try:
        yield
    except (SerializationError, ComplexError, TypeProblem, LinAlgError):
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise SerializationError(f"bad {kind} payload: {exc!r}") from exc


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
    with _payload("complex"):
        return ConeComplex(
            data["ambient_dim"],
            [_int_vector(r) for r in data["rays"]],
            [_int_vector(m) for m in data["max_cones"]],
        )


# -- subdivisions ------------------------------------------------------------


def _cone_order(c: ConeComplex) -> list[Cone]:
    return sorted(c.cones(), key=lambda s: (len(s), sorted(s)))


def _image_pairs(s: Subdivision) -> list[list[int]]:
    base_idx = {c: i for i, c in enumerate(_cone_order(s.base))}
    return [[i, base_idx[s.image(c)]] for i, c in enumerate(_cone_order(s.refined))]


def subdivision_to_dict(s: Subdivision) -> dict:
    return {
        "base": complex_to_dict(s.base),
        "refined": complex_to_dict(s.refined),
        "cone_image": _image_pairs(s),
        "warnings": list(s.warnings),
    }


def subdivision_from_dict(data: dict) -> Subdivision:
    """The stored ``cone_image`` must be the one the two complexes determine,
    and each refined cone must lie in its image."""
    with _payload("subdivision"):
        base = complex_from_dict(data["base"])
        refined = complex_from_dict(data["refined"])
        stored = [list(_int_vector(pair)) for pair in data["cone_image"]]
        s = Subdivision(base, refined, tuple(data.get("warnings", [])))
    for mc in refined.max_cones:
        kern = base.kernel(s.image(frozenset(mc)))
        for ray in refined.generators(mc):
            nums = kern.numerators(ray)
            if nums is None or any(x < 0 for x in nums):
                raise ComplexError(f"refined cone {list(mc)} lies in no base cone")
    if stored != _image_pairs(s):
        raise SerializationError("cone_image disagrees with the two complexes")
    return s


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
    with _payload("type"):
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


# -- numerical data ----------------------------------------------------------


def lambda_to_dict(lam: NumericalData) -> dict:
    return {
        "n": lam.n,
        "alphas": [list(a) for a in lam.alphas],
        "total_degree": list(lam.total_degree),
    }


def lambda_from_dict(data: dict) -> NumericalData:
    with _payload("lambda"):
        return NumericalData(
            int(data["n"]),
            [_int_vector(a) for a in data["alphas"]],
            _int_vector(data["total_degree"]),
        )


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
    with _payload("realization"):
        return Realization(
            data["root_vertex"],
            {tuple(e): fraction_from_str(l) for e, l in data["edge_lengths"]},
            {
                v: tuple(fraction_from_str(x) for x in p)
                for v, p in data["vertex_positions"].items()
            },
        )


# -- catalogues and slope lists ----------------------------------------------


def catalogue_to_dict(cat: DegreeCatalogue) -> dict:
    return {
        "atoms": [list(a) for a in cat.atoms],
        "max_vertices": cat.max_vertices,
    }


def catalogue_from_dict(data: dict) -> DegreeCatalogue:
    with _payload("catalogue"):
        return DegreeCatalogue(
            [_int_vector(a) for a in data["atoms"]], int(data["max_vertices"])
        )


def slopes_to_dict(slopes) -> dict:
    return {"slopes": sorted(list(m) for m in slopes)}


def slopes_from_dict(data: dict) -> list[tuple[int, ...]]:
    with _payload("slopes"):
        return [_int_vector(m) for m in data["slopes"]]


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
    """Write text atomically: temp file in the target directory, then rename.
    A new file gets 0o666 less the umask, as a plain open gives; an
    overwritten file keeps its mode."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else None
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path: str, payload: Any) -> None:
    """Write JSON atomically, with sorted keys and a trailing newline."""
    save_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
