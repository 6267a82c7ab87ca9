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

verify_realization re-checks any proposed witness from scratch.  Realizations
are verified in integers after clearing denominators once: every position
and length is scaled by the lcm d of their denominators, and cone membership
is read off the signs of the kernel numerators of the scaled points.

The tree walks are in integers too: an LP witness is cleared to one
denominator before its positions are summed, and smooth_construct carries
each position as integer numerators over its own positive denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional

from .combtypes import (
    CombinatorialType,
    Edge,
    TypeProblem,
    ValidationCheck,
    ValidationReport,
)
from .feasibility import LinearSystem, fm_feasible, simplex_feasible
from .linalg import IntVector, QVector, vec_add, vec_scale


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


def check_sensitivity_consequences(t: CombinatorialType) -> SensitivityReport:
    if t.edge_slopes is None:
        raise TypeProblem("edge slopes must be solved first")
    verdicts: dict[Edge, EdgeVerdict] = {}
    for e in t.graph.edges:
        cone = t.edge_cones[e]
        ids = sorted(cone)
        # the slope away from e[0] in the generator basis of the edge cone,
        # times the cone's positive kernel denominator (only signs are read)
        coords = t.target.kernel(cone).numerators(t.slope_from(e[0], e))
        if coords is None:
            raise TypeProblem(f"edge {e} slope not supported on its cone")
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
                away = coords if v == e[0] else [-c for c in coords]
                (new_dir,) = cone - vc
                pos = ids.index(new_dir)
                neg_ok = away[pos] > 0 and all(
                    c <= 0 for i, c in enumerate(away) if i != pos
                )
            flags[v] = FlagVerdict(jump_ok, neg_ok)
        verdicts[e] = EdgeVerdict(mixed_ok, flags)
    return SensitivityReport(verdicts)


# -- linear-programming route ---------------------------------------------


def _position_row(
    functional: IntVector, path: list[tuple[int, IntVector]], n_vars: int
) -> list[int]:
    """Row of <functional, position(v)> in the variables (x, lengths), where
    path lists (column, nonzero slope away from the root) on v's root path."""
    row = [0] * n_vars
    row[: len(functional)] = functional
    for col, m in path:
        row[col] = sum(map(mul, functional, m))
    return row


def _legs_admissible(t: CombinatorialType) -> bool:
    """Constant part of the leg interiority condition.

    A leg ray stays interior for all positive times iff its slope is
    nonnegative on the leg cone's generators and strictly positive on the
    generators outside the vertex cone.
    """
    for v, j in t.graph.legs:
        cone = t.leg_cones[j]
        nums = t.target.kernel(cone).numerators(t.leg_slopes[j])
        if nums is None:
            return False
        for i, c in zip(sorted(cone), nums):
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
    paths: dict[str, list[tuple[int, IntVector]]] = {root: []}
    for v, e, w in g.walk(root):
        m = t.slope_from(v, e)
        # a contracted edge adds nothing to the rows
        paths[w] = [*paths[v], (k + edge_index[e], m)] if any(m) else paths[v]

    for e in g.edges:
        row = [0] * n
        row[k + edge_index[e]] = 1
        sys.add_ge(row, 1)

    # a barycentric functional is dual / denom: f . p >= 1 iff dual . p >= denom
    for v in g.vertices:
        kern = t.target.kernel(t.vertex_cones[v])
        for f in kern.eqs:
            sys.add_eq(_position_row(f, paths[v], n), 0)
        for f in kern.dual:
            sys.add_ge(_position_row(f, paths[v], n), kern.denom)

    for e in g.edges:
        a, b = e
        kern = t.target.kernel(t.edge_cones[e])
        for f in kern.dual:
            # midpoint interiority, doubled to stay integral
            row_a = _position_row(f, paths[a], n)
            row_b = _position_row(f, paths[b], n)
            sys.add_ge([x + y for x, y in zip(row_a, row_b)], kern.denom)
    return sys, edge_index, root


def _realization_from_witness(
    t: CombinatorialType,
    witness: QVector,
    edge_index: dict[Edge, int],
    root: str,
) -> Realization:
    k = t.target.ambient_dim
    d = lcm(*(x.denominator for x in witness))
    xn = [x.numerator * (d // x.denominator) for x in witness]
    lengths = {e: witness[k + i] for e, i in edge_index.items()}
    # positions times d, walked in integers
    cleared: dict[str, IntVector] = {root: tuple(xn[:k])}
    for v, e, w in t.graph.walk(root):
        step = vec_scale(xn[k + edge_index[e]], t.slope_from(v, e))
        cleared[w] = vec_add(cleared[v], step)
    positions = {v: tuple(Fraction(x, d) for x in p) for v, p in cleared.items()}
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
    elif start not in t.vertex_cones:
        raise TypeProblem(f"start vertex {start!r} is not a vertex of the type")
    # each position as integer numerators over its own positive denominator
    positions: dict[str, tuple[IntVector, int]] = {
        start: (t.target.barycenter(t.vertex_cones[start]), 1)
    }
    lengths: dict[Edge, Fraction] = {}
    for v, e, w in g.walk(start):
        cone = t.edge_cones[e]
        ids = sorted(cone)
        m = t.slope_from(v, e)
        if not cone:
            # contracted edge at the origin: any positive length works
            if any(m):
                raise TypeProblem(f"edge {e} at the origin has a nonzero slope")
            lengths[e] = Fraction(1)
            positions[w] = positions[v]
            continue
        # coordinates times the kernel's (and mu the position's) denominator
        kern = t.target.kernel(cone)
        pn, pd = positions[v]
        mu = kern.numerators(pn)
        a = kern.numerators(m)
        if mu is None or a is None:
            raise TypeProblem(f"edge {e} leaves the span of its cone")
        dropped = [i for i, rid in enumerate(ids) if rid not in t.vertex_cones[w]]
        if dropped:
            (i0,) = dropped
            if not (a[i0] < 0 and mu[i0] > 0):
                raise TypeProblem(f"edge {e} cannot descend to the cone of {w}")
            length = Fraction(mu[i0], -a[i0] * pd)
        else:
            bounds = [Fraction(mu[i], -a[i]) for i in range(len(ids)) if a[i] < 0]
            length = min(bounds) / (2 * pd) if bounds else Fraction(1)
        if length <= 0:
            raise TypeProblem(f"edge {e} gets no positive length")
        lengths[e] = length
        # pn / pd + (ln / ld) m over the denominator pd ld, reduced
        ln, ld = length.numerator, length.denominator
        wn = [ld * x + pd * ln * y for x, y in zip(pn, m)]
        common = gcd(*wn, pd * ld)
        positions[w] = (tuple(x // common for x in wn), pd * ld // common)
    final = {v: tuple(Fraction(x, d) for x in p) for v, (p, d) in positions.items()}
    return Realization(start, lengths, final)


# -- verification -----------------------------------------------------------


def _cleared(t: CombinatorialType, r: Realization) -> tuple[dict, dict]:
    """Positions and lengths of t's vertices and edges times d, the lcm of
    their denominators, as integers; d > 0 keeps every sign."""
    k = t.target.ambient_dim
    for v in t.graph.vertices:
        if v not in r.vertex_positions:
            raise TypeProblem(f"realization has no position for vertex {v}")
        if len(r.vertex_positions[v]) != k:
            raise TypeProblem(f"position of vertex {v} does not have {k} coordinates")
    lengths = {e: r.edge_lengths[e] for e in t.graph.edges if e in r.edge_lengths}
    positions = {v: r.vertex_positions[v] for v in t.graph.vertices}
    entries = [*lengths.values(), *(x for p in positions.values() for x in p)]
    if not all(isinstance(x, (int, Fraction)) for x in entries):
        raise TypeError("realization entries must be ints or Fractions")
    d = lcm(*(x.denominator for x in entries))

    def clear(x) -> int:
        return x.numerator * (d // x.denominator)

    return (
        {v: tuple(map(clear, p)) for v, p in positions.items()},
        {e: clear(l) for e, l in lengths.items()},
    )


def verify_realization(t: CombinatorialType, r: Realization) -> ValidationReport:
    checks: list[ValidationCheck] = []

    def add(name, passed, detail=""):
        checks.append(ValidationCheck(name, passed, detail))

    g = t.graph
    positions, lengths = _cleared(t, r)
    ok, detail = True, ""
    for e in g.edges:
        if lengths.get(e, 0) <= 0:
            ok, detail = False, f"edge {e} has nonpositive length"
    add("positive-lengths", ok, detail)

    ok, detail = True, ""
    for e, length in lengths.items():
        a, b = e
        if vec_add(positions[a], vec_scale(length, t.slope_from(a, e))) != positions[b]:
            ok, detail = False, f"edge {e} equation fails"
    add("edge-equations", ok, detail)

    ok, detail = True, ""
    for v in g.vertices:
        nums = t.target.kernel(t.vertex_cones[v]).numerators(positions[v])
        if nums is None or any(c <= 0 for c in nums):
            ok, detail = False, f"vertex {v} not interior to its cone"
    add("vertex-interiority", ok, detail)

    ok, detail = True, ""
    for e in g.edges:
        a, b = e
        # the midpoint times 2d
        mid = vec_add(positions[a], positions[b])
        nums = t.target.kernel(t.edge_cones[e]).numerators(mid)
        if nums is None or any(c <= 0 for c in nums):
            ok, detail = False, f"edge {e} midpoint not interior to its cone"
    add("edge-interiority", ok, detail)

    ok, detail = True, ""
    for v, j in g.legs:
        kern = t.target.kernel(t.leg_cones[j])
        pos = kern.numerators(positions[v])
        slope = kern.numerators(t.leg_slopes[j])
        # a negative coordinate of either puts it outside the cone
        if pos is None or slope is None or min(pos + slope, default=0) < 0:
            ok, detail = False, f"leg {j} leaves the span of its cone"
            continue
        for pc, sc in zip(pos, slope):
            if pc <= 0 and sc <= 0:
                ok, detail = False, f"leg {j} ray not interior for all times"
    add("leg-interiority", ok, detail)

    return ValidationReport(tuple(checks))
