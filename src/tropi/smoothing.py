"""Smoothability of combinatorial types.

Two independent procedures decide whether a type admits positive edge
lengths and vertex positions mapping every face into the interior of its
assigned cone:

* smoothable_lp encodes the constraints as an exact rational feasibility
  problem (strictness handled by homogenization, since the solution set is
  a convex cone) and solves it by Fourier-Motzkin elimination;
* smooth_construct greedily walks the tree, choosing each edge length in
  closed form, and is guaranteed to succeed whenever the slope consequences
  of sensitivity hold on every edge.

verify_realization re-checks any proposed witness from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .combtypes import (
    CombinatorialType,
    Edge,
    TypeProblem,
    ValidationCheck,
    ValidationReport,
)
from .cones import Cone
from .feasibility import LinearSystem, fm_feasible, simplex_feasible
from .linalg import QVector, vec_add, vec_scale


@dataclass(frozen=True)
class Realization:
    root_vertex: str
    edge_lengths: dict[Edge, Fraction]
    vertex_positions: dict[str, QVector]

    def scaled(self, factor: Fraction) -> "Realization":
        return Realization(
            self.root_vertex,
            {e: factor * l for e, l in self.edge_lengths.items()},
            {
                v: tuple(factor * x for x in p)
                for v, p in self.vertex_positions.items()
            },
        )


@dataclass(frozen=True)
class FlagVerdict:
    small_jumping: bool  # cone dimension jumps by at most one
    slope_negativity: bool  # new direction positive, retained ones <= 0


@dataclass(frozen=True)
class EdgeVerdict:
    mixed_sign: bool  # no coefficient pair strictly positive or negative
    flags: dict[str, FlagVerdict]

    @property
    def passed(self) -> bool:
        return self.mixed_sign and all(
            f.small_jumping and f.slope_negativity for f in self.flags.values()
        )


@dataclass(frozen=True)
class SensitivityReport:
    edges: dict[Edge, EdgeVerdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.edges.values())


def _edge_coords(t: CombinatorialType, e: Edge, v: str) -> tuple:
    """Slope away from v in the generator basis of the edge cone, times the
    cone's positive kernel denominator (only signs are read)."""
    nums = t.target.kernel(t.edge_cones[e]).numerators(t.slope_from(v, e))
    if nums is None:
        raise TypeProblem(f"edge {e} slope not supported on its cone")
    return nums


def check_sensitivity_consequences(t: CombinatorialType) -> SensitivityReport:
    if t.edge_slopes is None:
        raise TypeProblem("edge slopes must be solved first")
    verdicts: dict[Edge, EdgeVerdict] = {}
    for e in t.graph.edges:
        cone = t.edge_cones[e]
        ids = sorted(cone)
        coords = _edge_coords(t, e, e[0])
        positives = sum(1 for c in coords if c > 0)
        negatives = sum(1 for c in coords if c < 0)
        mixed_ok = positives <= 1 and negatives <= 1
        flags: dict[str, FlagVerdict] = {}
        for v in e:
            vc = t.vertex_cones[v]
            if not vc <= cone:
                raise TypeProblem(
                    f"cone of vertex {v} is not a face of the cone of edge {e}"
                )
            gap = len(cone) - len(vc)
            jump_ok = gap <= 1
            neg_ok = True
            if gap == 1:
                away = _edge_coords(t, e, v)
                (new_dir,) = cone - vc
                pos = ids.index(new_dir)
                neg_ok = away[pos] > 0 and all(
                    c <= 0 for i, c in enumerate(away) if i != pos
                )
            flags[v] = FlagVerdict(jump_ok, neg_ok)
        verdicts[e] = EdgeVerdict(mixed_ok, flags)
    return SensitivityReport(verdicts)


# -- linear-programming route ---------------------------------------------


def _path_slopes(t: CombinatorialType, root: str) -> dict[str, dict[Edge, int]]:
    """Per vertex: which edges lie on its root path, with orientation sign.

    Sign +1 means the stored orientation points away from the root.
    """
    g = t.graph
    paths: dict[str, dict[Edge, int]] = {root: {}}
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for e in g.incident_edges(v):
            w = e[0] if e[1] == v else e[1]
            if w in paths:
                continue
            step = dict(paths[v])
            step[e] = 1 if e[0] == v else -1
            paths[w] = step
            frontier.append(w)
    return paths


def _position_row(
    t: CombinatorialType,
    functional: QVector,
    path: dict[Edge, int],
    edge_index: dict[Edge, int],
    n_vars: int,
) -> list[Fraction]:
    """Row of <functional, position(v)> in the variables (x, lengths)."""
    k = t.target.ambient_dim
    row = [Fraction(0)] * n_vars
    for r in range(k):
        row[r] = Fraction(functional[r])
    for e, sign in path.items():
        m = t.slope_from(e[0], e) if sign == 1 else t.slope_from(e[1], e)
        val = sum(Fraction(functional[r]) * m[r] for r in range(k))
        row[k + edge_index[e]] += val
    return row


def _legs_admissible(t: CombinatorialType) -> bool:
    """Constant part of the leg interiority condition.

    A leg ray stays interior for all positive times iff its slope is
    nonnegative on the leg cone's generators and strictly positive on the
    generators outside the vertex cone.
    """
    for v, j in t.graph.legs:
        cone = t.leg_cones[j]
        coords = t.target.cone_coords(cone, t.leg_slopes[j])
        if coords is None:
            return False
        ids = sorted(cone)
        for i, c in zip(ids, coords):
            if c < 0:
                return False
            if i not in t.vertex_cones[v] and c <= 0:
                return False
    return True


def build_smoothing_system(
    t: CombinatorialType,
) -> Optional[tuple[LinearSystem, dict[Edge, int], str]]:
    """Homogenized feasibility system for the realization constraints.

    Variables are the root position followed by one length per edge; every
    strict inequality appears as >= 1, exact because the solution set is a
    convex cone.  Returns None when a constant leg condition already fails.
    """
    if t.edge_slopes is None:
        raise TypeProblem("edge slopes must be solved first")
    if not _legs_admissible(t):
        return None
    g = t.graph
    root = g.vertices[0]
    k = t.target.ambient_dim
    edge_index = {e: i for i, e in enumerate(g.edges)}
    n = k + len(g.edges)
    sys = LinearSystem(n)
    paths = _path_slopes(t, root)

    for e in g.edges:
        row = [Fraction(0)] * n
        row[k + edge_index[e]] = Fraction(1)
        sys.add_ge(row, 1)

    for v in g.vertices:
        kern = t.target.kernel(t.vertex_cones[v])
        for f in kern.eqs:
            sys.add_eq(_position_row(t, f, paths[v], edge_index, n), 0)
        for f in kern.functionals():
            sys.add_ge(_position_row(t, f, paths[v], edge_index, n), 1)

    for e in g.edges:
        a, b = e
        for f in t.target.kernel(t.edge_cones[e]).functionals():
            # midpoint interiority, doubled to stay integral
            row_a = _position_row(t, f, paths[a], edge_index, n)
            row_b = _position_row(t, f, paths[b], edge_index, n)
            sys.add_ge([x + y for x, y in zip(row_a, row_b)], 1)
    return sys, edge_index, root


def _realization_from_witness(
    t: CombinatorialType,
    witness: QVector,
    edge_index: dict[Edge, int],
    root: str,
) -> Realization:
    k = t.target.ambient_dim
    x = witness[:k]
    lengths = {e: witness[k + i] for e, i in edge_index.items()}
    paths = _path_slopes(t, root)
    positions: dict[str, QVector] = {}
    for v, path in paths.items():
        pos = tuple(Fraction(c) for c in x)
        for e, sign in path.items():
            m = t.slope_from(e[0], e) if sign == 1 else t.slope_from(e[1], e)
            pos = vec_add(pos, vec_scale(lengths[e], m))
        positions[v] = pos
    return Realization(root, lengths, positions)


def smoothable_lp(t: CombinatorialType) -> Optional[Realization]:
    """Exact feasibility decision; returns a witness realization or None."""
    built = build_smoothing_system(t)
    if built is None:
        return None
    sys, edge_index, root = built
    witness = fm_feasible(sys)
    if witness is None:
        return None
    return _realization_from_witness(t, witness, edge_index, root)


def smoothable_simplex(t: CombinatorialType) -> bool:
    """Independent verdict via the phase-one simplex oracle."""
    built = build_smoothing_system(t)
    if built is None:
        return False
    return simplex_feasible(built[0])


# -- constructive route ----------------------------------------------------


def smooth_construct(t: CombinatorialType, start: Optional[str] = None) -> Realization:
    """Greedy tree walk producing a realization in closed form.

    The start vertex sits at the barycenter of its cone.  Walking an edge
    whose far cone drops one generator direction forces the length mu0/a0
    that zeroes that coordinate; otherwise the length is half the largest
    value keeping the far position interior (one when unconstrained).  The
    facet-to-facet case reduces to the same formula: passing through the
    interior and descending to the far facet sums to mu0/a0 exactly.
    """
    report = check_sensitivity_consequences(t)
    if not report.passed:
        raise TypeProblem(
            f"sensitivity consequences fail: {report}"
        )
    g = t.graph
    if start is None:
        start = g.vertices[0]
    positions: dict[str, QVector] = {
        start: tuple(Fraction(x) for x in t.target.barycenter(t.vertex_cones[start]))
    }
    lengths: dict[Edge, Fraction] = {}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for e in g.incident_edges(v):
            w = e[0] if e[1] == v else e[1]
            if w in positions:
                continue
            cone = t.edge_cones[e]
            ids = sorted(cone)
            m = t.slope_from(v, e)
            if not cone:
                # contracted edge at the origin: any positive length works
                if any(m):
                    raise TypeProblem(f"edge {e} at the origin has a nonzero slope")
                lengths[e] = Fraction(1)
                positions[w] = positions[v]
                frontier.append(w)
                continue
            # coordinates times the kernel denominator; only ratios are used
            kern = t.target.kernel(cone)
            mu = kern.numerators(positions[v])
            a = kern.numerators(m)
            if mu is None or a is None:
                raise TypeProblem(f"edge {e} leaves the span of its cone")
            dropped = [i for i, rid in enumerate(ids) if rid not in t.vertex_cones[w]]
            if dropped:
                (i0,) = dropped
                if not (a[i0] < 0 and mu[i0] > 0):
                    raise TypeProblem(f"edge {e} cannot descend to the cone of {w}")
                length = Fraction(mu[i0], -a[i0])
            else:
                bounds = [
                    Fraction(mu[i], -a[i]) for i in range(len(ids)) if a[i] < 0
                ]
                length = min(bounds) / 2 if bounds else Fraction(1)
            if length <= 0:
                raise TypeProblem(f"edge {e} gets no positive length")
            lengths[e] = length
            positions[w] = vec_add(positions[v], vec_scale(length, m))
            frontier.append(w)
    return Realization(start, lengths, positions)


# -- verification -----------------------------------------------------------


def _interior_coords(
    t: CombinatorialType, cone: Cone, p: QVector
) -> Optional[list[Fraction]]:
    coords = t.target.cone_coords(cone, p)
    if coords is None:
        return None
    return list(coords)


def verify_realization(t: CombinatorialType, r: Realization) -> ValidationReport:
    checks: list[ValidationCheck] = []

    def add(name, passed, detail=""):
        checks.append(ValidationCheck(name, passed, detail))

    g = t.graph
    ok, detail = True, ""
    for e in g.edges:
        if r.edge_lengths.get(e, Fraction(0)) <= 0:
            ok, detail = False, f"edge {e} has nonpositive length"
    add("positive-lengths", ok, detail)

    ok, detail = True, ""
    for e in g.edges:
        if e not in r.edge_lengths:
            continue
        a, b = e
        expected = vec_add(
            r.vertex_positions[a],
            vec_scale(r.edge_lengths[e], t.slope_from(a, e)),
        )
        if tuple(expected) != tuple(r.vertex_positions[b]):
            ok, detail = False, f"edge {e} equation fails"
    add("edge-equations", ok, detail)

    ok, detail = True, ""
    for v in g.vertices:
        coords = _interior_coords(t, t.vertex_cones[v], r.vertex_positions[v])
        if coords is None or any(c <= 0 for c in coords):
            ok, detail = False, f"vertex {v} not interior to its cone"
    add("vertex-interiority", ok, detail)

    ok, detail = True, ""
    for e in g.edges:
        a, b = e
        mid = tuple(
            (x + y) / 2
            for x, y in zip(r.vertex_positions[a], r.vertex_positions[b])
        )
        coords = _interior_coords(t, t.edge_cones[e], mid)
        if coords is None or any(c <= 0 for c in coords):
            ok, detail = False, f"edge {e} midpoint not interior to its cone"
    add("edge-interiority", ok, detail)

    ok, detail = True, ""
    for v, j in g.legs:
        cone = t.leg_cones[j]
        pos = _interior_coords(t, cone, r.vertex_positions[v])
        slope = _interior_coords(t, cone, t.leg_slopes[j])
        if pos is None or slope is None:
            ok, detail = False, f"leg {j} leaves the span of its cone"
            continue
        for pc, sc in zip(pos, slope):
            if sc < 0 or (pc <= 0 and sc <= 0):
                ok, detail = False, f"leg {j} ray not interior for all times"
    add("leg-interiority", ok, detail)

    return ValidationReport(tuple(checks))
