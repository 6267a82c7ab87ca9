"""Combinatorial types of genus-zero tropical stable maps.

A type is a decorated tree: every vertex, edge, and leg is assigned a cone
of the target complex, legs carry integer slope vectors, vertices carry
degree vectors (one integer per target ray), and edges carry slopes that
are either prescribed or solved from the balancing equations.

Slopes are stored as ambient integer vectors; the support condition (a
slope lies in the span of its cone's generators) is a checked invariant
rather than a representation choice, which keeps pushforward and
projection coordinate-free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .cones import ComplexError, Cone, ConeComplex, locate, minimal_containing_cone
from .linalg import IntVector, is_unimodular, is_zero, primitive, vec_neg

Edge = tuple[str, str]


class TypeProblem(ValueError):
    pass


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[ValidationCheck]:
        return [c for c in self.checks if not c.passed]


@dataclass(frozen=True)
class DecoratedGraph:
    """Genus-zero tree with marking legs and per-vertex degree vectors."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    legs: tuple[tuple[str, int], ...]  # (vertex id, marking label)
    degrees: dict[str, tuple[int, ...]]

    def __init__(self, vertices, edges, legs, degrees):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(
            self, "edges", tuple((a, b) for a, b in edges)
        )
        object.__setattr__(
            self, "legs", tuple((v, int(j)) for v, j in legs)
        )
        object.__setattr__(
            self,
            "degrees",
            {v: tuple(int(x) for x in d) for v, d in dict(degrees).items()},
        )
        self._check()

    def _check(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices) or not vs:
            raise TypeProblem("vertex ids must be nonempty and distinct")
        for a, b in self.edges:
            if a not in vs or b not in vs or a == b:
                raise TypeProblem(f"bad edge ({a},{b})")
        if len(self.edges) != len(self.vertices) - 1:
            raise TypeProblem("graph is not a tree (#edges != #vertices - 1)")
        # not fields: equality, replace and serialization ignore them
        inc: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            inc[e[0]].append(e)
            inc[e[1]].append(e)
        object.__setattr__(self, "_inc", inc)
        root = self.vertices[0]
        if {root} | {w for _, _, w in self.walk(root)} != vs:
            raise TypeProblem("graph is not connected")
        labels = sorted(j for _, j in self.legs)
        if labels != list(range(1, len(labels) + 1)):
            raise TypeProblem("marking labels must be exactly 1..n")
        for v, _ in self.legs:
            if v not in vs:
                raise TypeProblem("leg attached to missing vertex")
        if set(self.degrees) != vs:
            raise TypeProblem("degree vector required for every vertex")
        legs_at: dict[str, list[int]] = {v: [] for v in self.vertices}
        for v, j in self.legs:
            legs_at[v].append(j)
        object.__setattr__(self, "_legs_at", legs_at)

    def walk(self, root: str) -> Iterator[tuple[str, Edge, str]]:
        """Depth-first walk of the tree: (v, e, w) for every edge e, where w
        is first reached from v.  Pops the stack, then visits v's edges in
        ``edges`` order."""
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for e in self._inc[v]:
                w = e[1] if e[0] == v else e[0]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    yield v, e, w

    def neighbors(self, v: str) -> list[str]:
        return [e[1] if e[0] == v else e[0] for e in self._inc.get(v, ())]

    def incident_edges(self, v: str) -> list[Edge]:
        return list(self._inc.get(v, ()))

    def legs_at(self, v: str) -> list[int]:
        return list(self._legs_at.get(v, ()))

    def valence(self, v: str) -> int:
        return len(self._inc.get(v, ()))


@dataclass
class CombinatorialType:
    graph: DecoratedGraph
    target: ConeComplex
    vertex_cones: dict[str, Cone]
    edge_cones: dict[Edge, Cone]
    leg_cones: dict[int, Cone]
    leg_slopes: dict[int, IntVector]
    edge_slopes: Optional[dict[Edge, IntVector]] = None

    def __post_init__(self):
        self.vertex_cones = {v: frozenset(c) for v, c in self.vertex_cones.items()}
        self.edge_cones = {e: frozenset(c) for e, c in self.edge_cones.items()}
        self.leg_cones = {j: frozenset(c) for j, c in self.leg_cones.items()}
        self.leg_slopes = {
            j: tuple(int(x) for x in s) for j, s in self.leg_slopes.items()
        }
        if self.edge_slopes is not None:
            self.edge_slopes = {
                e: tuple(int(x) for x in s) for e, s in self.edge_slopes.items()
            }
        g = self.graph
        if set(self.vertex_cones) != set(g.vertices):
            raise TypeProblem("cone assignment missing for some vertex")
        if set(self.edge_cones) != set(g.edges):
            raise TypeProblem("cone assignment missing for some edge")
        labels = {j for _, j in g.legs}
        if set(self.leg_cones) != labels or set(self.leg_slopes) != labels:
            raise TypeProblem("cone or slope missing for some leg")
        n_rays = len(self.target.rays)
        for cones in (self.vertex_cones, self.edge_cones, self.leg_cones):
            for c in cones.values():
                if any(not 0 <= i < n_rays for i in c):
                    raise TypeProblem(f"cone {sorted(c)} refers to a missing ray")
        k = self.target.ambient_dim
        for v, d in g.degrees.items():
            if len(d) != len(self.target.rays):
                raise TypeProblem(
                    f"degree vector of {v} must have one entry per target ray"
                )
        for j, s in self.leg_slopes.items():
            if len(s) != k:
                raise TypeProblem(f"leg slope {j} has wrong dimension")
        both_ways = set(g.edges) | {(b, a) for a, b in g.edges}
        for e, s in (self.edge_slopes or {}).items():
            if e not in both_ways or len(s) != k:
                raise TypeProblem(f"edge slope {e} is off the tree or of wrong size")

    def slope_from(self, v: str, edge: Edge) -> IntVector:
        """Solved slope of the edge, oriented away from v."""
        if self.edge_slopes is None:
            raise TypeProblem("edge slopes are not solved")
        if edge in self.edge_slopes:
            m = self.edge_slopes[edge]
            return m if edge[0] == v else vec_neg(m)
        rev = (edge[1], edge[0])
        if rev in self.edge_slopes:
            m = self.edge_slopes[rev]
            return m if rev[0] == v else vec_neg(m)
        raise TypeProblem(f"no slope stored for edge {edge}")

    def with_slopes(self, slopes: dict[Edge, IntVector]) -> "CombinatorialType":
        return replace(self, edge_slopes=dict(slopes))


@dataclass(frozen=True)
class NumericalData:
    """Marking tangency vectors and the total degree vector."""

    n: int
    alphas: tuple[IntVector, ...]
    total_degree: IntVector

    def __init__(self, n, alphas, total_degree):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "alphas", tuple(tuple(int(x) for x in a) for a in alphas)
        )
        object.__setattr__(
            self, "total_degree", tuple(int(x) for x in total_degree)
        )
        if len(self.alphas) != self.n:
            raise TypeProblem("need exactly n tangency vectors")


def ray_coefficient(
    target: ConeComplex, ray_id: int, p: Sequence
) -> Optional[Fraction]:
    """Coefficient of ray ray_id in the fan coordinates of the point p.

    The coefficient of the indicator piecewise-linear function; None when p
    is outside the support.
    """
    hit = locate(target, p)
    if hit is None:
        return None
    ray_id = range(len(target.rays))[ray_id]  # indexed like a list of all rays
    ids, nums, denom = hit
    return Fraction(dict(zip(ids, nums)).get(ray_id, 0), denom)


def _edge_numerators(
    t: CombinatorialType, e: Edge
) -> Optional[tuple[dict[int, int], int]]:
    """Coefficients of e's slope, oriented away from e[0], on the generators
    of its cone: numerators keyed by ray id, and their positive common
    denominator; None when the slope is off their span."""
    m = t.slope_from(e[0], e)
    cone = t.edge_cones[e]
    kern = t.target.kernel(cone)
    nums = kern.numerators(m)
    if nums is None:
        return None
    return dict(zip(sorted(cone), nums)), kern.denom


def _coordinate_sum(n_rays: int, located: Sequence[tuple]) -> tuple[list[int], int]:
    """The summed fan coordinates of located points, as per-ray numerators
    over the lcm of their denominators, and that lcm."""
    den = lcm(*(d for _, _, d in located))
    total = [0] * n_rays
    for ids, nums, d in located:
        for i, x in zip(ids, nums):
            total[i] += x * (den // d)
    return total, den


def check_global_balancing(
    target: ConeComplex, lam: NumericalData
) -> Optional[int]:
    """Return the first ray index where global balancing fails, else None.

    Balancing per ray: the fan coordinates of the tangency vectors must sum
    to the total degree entry for that ray.
    """
    if len(lam.total_degree) != len(target.rays):
        raise TypeProblem("degree vector does not match the target rays")
    located = [locate(target, a) for a in lam.alphas]
    if None in located:
        return 0 if target.rays else None
    total, den = _coordinate_sum(len(target.rays), located)
    for i, (x, d) in enumerate(zip(total, lam.total_degree)):
        if x != den * d:
            return i
    return None


# -- balancing solver ------------------------------------------------------


def _ambient_degree(target: ConeComplex, d: Sequence[int]) -> list[int]:
    """The degree vector d as an ambient vector: the sum of d[i] * ray i."""
    return [
        sum(x * r[k] for x, r in zip(d, target.rays))
        for k in range(target.ambient_dim)
    ]


def subtree_slopes(g: DecoratedGraph, root: str, net: dict) -> dict[Edge, IntVector]:
    """Edge slopes away from each edge's first endpoint, leaf to root: the
    slope leaving a subtree is the sum of its vertices' ambient vectors in
    ``net``, which is summed in place."""
    out: dict[Edge, IntVector] = {}
    for v, e, w in reversed(list(g.walk(root))):
        m = net[w]  # w's whole subtree, leaving it toward v
        net[v] = [x + y for x, y in zip(net[v], m)]
        out[e] = tuple(m) if e[0] == w else vec_neg(m)  # away from e[0]
    return out


def solve_balancing(
    t: CombinatorialType, root: Optional[str] = None
) -> dict[Edge, IntVector]:
    """Unique edge slopes balancing every vertex of the tree.

    Works leaf to root in integers: each vertex contributes its degree as
    an ambient vector minus its leg slopes, and the slope leaving a subtree
    is the sum of its vertices' contributions (the fan coordinates of an
    in-support leg slope rebuild it exactly).  The root equation is then a
    consistency check, equivalent to global balancing.  It is made per ray,
    in fan coordinates: on a fan with dependent rays a zero ambient sum does
    not make every ray's residual zero.
    """
    g = t.graph
    if root is None:
        root = g.vertices[0]
    located = []  # (ray ids, numerators, denominator) of every leg slope
    net = {}
    for v in g.vertices:
        vec = _ambient_degree(t.target, g.degrees[v])
        for j in g.legs_at(v):
            hit = locate(t.target, t.leg_slopes[j])
            if hit is None:
                raise TypeProblem(f"leg slope {j} lies outside the support")
            located.append(hit)
            vec = [x - y for x, y in zip(vec, t.leg_slopes[j])]
        net[v] = vec
    out = subtree_slopes(g, root, net)
    # per ray: total degree against the legs' summed fan coordinates
    total, den = _coordinate_sum(len(t.target.rays), located)
    for i, (x, col) in enumerate(zip(total, zip(*g.degrees.values()))):
        if x != den * sum(col):
            raise TypeProblem(f"global balancing fails in ray direction {i}")
    return out


# -- validity and Gathmann checks -----------------------------------------


def validate_type(t: CombinatorialType) -> ValidationReport:
    checks: list[ValidationCheck] = []
    g = t.graph

    def add(name: str, passed: bool, detail: str = ""):
        checks.append(ValidationCheck(name, passed, detail))

    # cone existence
    all_ok = True
    detail = ""
    for label, cones in (
        ("vertex", t.vertex_cones),
        ("edge", t.edge_cones),
        ("leg", t.leg_cones),
    ):
        for key, cone in cones.items():
            if not t.target.has_cone(cone):
                all_ok, detail = False, f"{label} {key} assigned a non-cone"
    add("cones-exist", all_ok, detail)

    # face condition
    all_ok, detail = True, ""
    for a, b in g.edges:
        for v in (a, b):
            if not t.vertex_cones[v] <= t.edge_cones[(a, b)]:
                all_ok, detail = False, f"flag ({v},{(a, b)}) breaks the face condition"
    for v, j in g.legs:
        if not t.vertex_cones[v] <= t.leg_cones[j]:
            all_ok, detail = False, f"flag ({v},leg {j}) breaks the face condition"
    add("face-condition", all_ok, detail)

    # leg slope membership: integral point of the leg cone
    all_ok, detail = True, ""
    for _, j in g.legs:
        nums = t.target.kernel(t.leg_cones[j]).numerators(t.leg_slopes[j])
        if nums is None or any(c < 0 for c in nums):
            all_ok, detail = False, f"leg {j} slope outside its cone"
    add("leg-slope-membership", all_ok, detail)

    if t.edge_slopes is not None:
        # antisymmetry when both orientations are stored
        all_ok, detail = True, ""
        for (a, b), m in t.edge_slopes.items():
            rev = (b, a)
            if rev in t.edge_slopes and t.edge_slopes[rev] != vec_neg(m):
                all_ok, detail = False, f"edge ({a},{b}) breaks antisymmetry"
        add("antisymmetry", all_ok, detail)

        # support: slope lies in the span of the edge cone's generators
        all_ok, detail = True, ""
        reads = {e: _edge_numerators(t, e) for e in g.edges}
        for e, read in reads.items():
            if read is None:
                all_ok, detail = False, f"edge {e} slope not supported on its cone"
        add("slope-support", all_ok, detail)

        # positivity on new directions, per flag (denominators are positive)
        all_ok, detail = True, ""
        for e, read in reads.items():
            for v in e:
                sign = 1 if v == e[0] else -1
                for i in t.edge_cones[e] - t.vertex_cones[v]:
                    if read is None or sign * read[0][i] <= 0:
                        all_ok = False
                        detail = f"flag ({v},{e}) not positive on new direction {i}"
        add("positivity", all_ok, detail)

    return ValidationReport(tuple(checks))


def check_gathmann(t: CombinatorialType) -> bool:
    """Per-ray degree bookkeeping on the subgraphs mapping into each divisor.

    For each target ray i, over every connected component of the vertices
    whose cone contains i: leg tangencies minus incoming edge tangencies
    must equal the component's total degree in direction i.  Vertices whose
    cone misses i may meet direction i only through legs or through edges
    whose far endpoint contains i.
    """
    if t.edge_slopes is None:
        raise TypeProblem("edge slopes must be solved before this check")
    g = t.graph
    legs = {}  # marking -> (numerators by ray id, denominator), or None
    for j, m in t.leg_slopes.items():
        hit = locate(t.target, m)
        legs[j] = None if hit is None else (dict(zip(hit[0], hit[1])), hit[2])
    reads: dict[Edge, Optional[tuple[dict[int, int], int]]] = {}

    def coefficient(v: str, e: Edge, i: int) -> Optional[tuple[int, int]]:
        """Numerator and denominator on ray i of e's slope oriented away
        from v.  Each edge is read on first use, so an early False still
        comes before a read that would raise on a malformed cone."""
        if e not in reads:
            reads[e] = _edge_numerators(t, e)
        read = reads[e]
        if read is None:
            return None
        x = read[0].get(i, 0)
        return (x if v == e[0] else -x), read[1]

    for i in range(len(t.target.rays)):
        inside = {v for v in g.vertices if i in t.vertex_cones[v]}
        # condition on vertices outside: direction i only enters toward inside
        for v in (v for v in g.vertices if v not in inside):
            for e in g.incident_edges(v):
                c = coefficient(v, e, i)
                if c is None:
                    return False
                if c[0] != 0:
                    other = e[0] if e[1] == v else e[1]
                    if other not in inside or c[0] < 0:
                        return False
        # component sums on the inside subgraph
        seen: set[str] = set()
        for start in [v for v in g.vertices if v in inside]:
            if start in seen:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for w in g.neighbors(v):
                    if w in inside and w not in comp:
                        comp.add(w)
                        frontier.append(w)
            seen |= comp
            terms = []  # (numerator, denominator) summing to the total
            for v in comp:
                terms.append((t.graph.degrees[v][i], 1))
                for j in g.legs_at(v):
                    if legs[j] is None:
                        return False
                    terms.append((-legs[j][0].get(i, 0), legs[j][1]))
                for e in g.incident_edges(v):
                    other = e[0] if e[1] == v else e[1]
                    if other in comp:
                        continue
                    c = coefficient(other, e, i)  # oriented into the component
                    if c is None:
                        return False
                    terms.append(c)
            den = lcm(*(d for _, d in terms))
            if sum(x * (den // d) for x, d in terms) != 0:
                return False
    return True


def collect_sensitive_slopes(
    types: Iterable[CombinatorialType],
) -> set[IntVector]:
    """Edge slopes lying in their cone (componentwise >= 0, not all zero).

    Both orientations of every edge are considered; primitive
    representatives are included alongside the original vectors.
    """
    out: set[IntVector] = set()
    for t in types:
        if t.edge_slopes is None:
            raise TypeProblem("edge slopes must be solved first")
        for e in t.graph.edges:
            for v in e:
                m = t.slope_from(v, e)
                if is_zero(m):
                    continue
                nums = t.target.kernel(t.edge_cones[e]).numerators(m)
                if nums is not None and all(c >= 0 for c in nums) and any(nums):
                    out.add(m)
                    out.add(primitive(m))
    return out


# -- pushforward and lifting ----------------------------------------------


def _push_degree(
    sub, d: Sequence[int]
) -> tuple[int, ...]:
    """Push a refined-ray degree vector onto the base rays.

    Each refined ray contributes its degree weighted by the base fan
    coordinates of its primitive generator.
    """
    base, refined = sub.base, sub.refined
    located = []
    for rid, deg in enumerate(d):
        if deg == 0:
            continue
        hit = locate(base, refined.rays[rid])
        if hit is None:
            raise TypeProblem("refined ray outside the base support")
        ids, nums, den = hit
        located.append((ids, [deg * x for x in nums], den))
    total, den = _coordinate_sum(len(base.rays), located)
    if any(x % den for x in total):
        raise TypeProblem("pushforward degree is not integral")
    return tuple(x // den for x in total)


def pushforward_type(sub, t: CombinatorialType) -> CombinatorialType:
    """Image of a type under a subdivision map, stabilized.

    Cones map to their minimal containing base cones, slopes are unchanged
    as ambient vectors, degrees push forward by base fan coordinates, and
    legless zero-degree vertices of valence at most two are deleted.
    """
    if t.target != sub.refined:
        raise TypeProblem("type does not live on the refined complex")
    g = t.graph

    def image(c):
        if not sub.refined.has_cone(c):
            raise TypeProblem(f"{sorted(c)} is not a cone of the refined complex")
        return sub.image(c)

    vertex_cones = {v: image(c) for v, c in t.vertex_cones.items()}
    edge_cones = {e: image(c) for e, c in t.edge_cones.items()}
    leg_cones = {j: image(c) for j, c in t.leg_cones.items()}
    degrees = {v: _push_degree(sub, d) for v, d in g.degrees.items()}
    if t.edge_slopes is None:
        raise TypeProblem("solve edge slopes before pushing forward")
    edges = list(g.edges)
    legs = list(g.legs)
    vertices = list(g.vertices)
    slopes = {e: t.slope_from(e[0], e) for e in edges}

    def slope_from(v, e):
        return slopes[e] if e[0] == v else vec_neg(slopes[e])

    changed = True
    while changed:
        changed = False
        for v in list(vertices):
            inc = [e for e in edges if v in e]
            has_legs = any(w == v for w, _ in legs)
            if has_legs or any(x != 0 for x in degrees[v]) or len(inc) > 2:
                continue
            if len(inc) == 2:
                e1, e2 = inc
                a = e1[0] if e1[1] == v else e1[1]
                b = e2[0] if e2[1] == v else e2[1]
                m_in = slope_from(a, e1)  # from a toward v
                m_out = slope_from(v, e2)  # from v toward b
                if m_in != m_out:
                    raise TypeProblem("non-stabilizable pushforward")
                merged = (a, b)
                merged_cone_point = tuple(
                    x + y
                    for x, y in zip(
                        sub.base.barycenter(edge_cones[e1]),
                        sub.base.barycenter(edge_cones[e2]),
                    )
                )
                cone = minimal_containing_cone(sub.base, merged_cone_point)
                if cone is None:
                    raise TypeProblem("non-stabilizable pushforward")
                edges = [e for e in edges if e not in (e1, e2)] + [merged]
                slopes.pop(e1)
                slopes.pop(e2)
                slopes[merged] = m_in
                edge_cones.pop(e1)
                edge_cones.pop(e2)
                edge_cones[merged] = cone
            elif len(inc) == 1:
                (e1,) = inc
                edges = [e for e in edges if e != e1]
                slopes.pop(e1)
                edge_cones.pop(e1)
            elif len(vertices) == 1:
                continue  # a lone vertex stays
            vertices = [w for w in vertices if w != v]
            vertex_cones.pop(v)
            degrees.pop(v)
            changed = True

    new_graph = DecoratedGraph(vertices, edges, legs, degrees)
    return CombinatorialType(
        graph=new_graph,
        target=sub.base,
        vertex_cones=vertex_cones,
        edge_cones=edge_cones,
        leg_cones=leg_cones,
        leg_slopes=dict(t.leg_slopes),
        edge_slopes=slopes,
    )


def lift_numerical_data(sub, lam: NumericalData) -> NumericalData:
    """Numerical data on the refined complex after one stellar subdivision.

    The exceptional ray absorbs the total tangency d_E of the markings with
    the blown-up cone; degrees against rays generating that cone drop by
    d_E, other degrees are unchanged.
    """
    base, refined = sub.base, sub.refined
    extra = [r for r in refined.rays if r not in base.rays]
    if len(extra) != 1 or len(refined.rays) != len(base.rays) + 1:
        raise TypeProblem("not a single stellar subdivision")
    e_ray = extra[0]
    e_id = refined.rays.index(e_ray)
    center = minimal_containing_cone(base, e_ray)
    if center is None:
        raise TypeProblem("exceptional ray outside the base support")
    if base.barycenter(center) != e_ray:
        raise TypeProblem("not a single stellar subdivision")
    for mc in refined.max_cones:
        if not is_unimodular(refined.generators(frozenset(mc))):
            raise TypeProblem("refined complex must be smooth")
    if len(lam.total_degree) != len(base.rays):
        raise TypeProblem("degree vector does not match the base rays")

    d_e = 0
    for a in lam.alphas:
        hit = locate(refined, a)
        if hit is None:
            raise ComplexError(f"point {tuple(a)} outside the support")
        # integral: the refined complex is smooth, so lattice points have
        # integer coordinates
        ids, nums, den = hit
        d_e += dict(zip(ids, nums)).get(e_id, 0) // den

    center_base_ids = set(center)
    new_degree = []
    for rid, ray in enumerate(refined.rays):
        if rid == e_id:
            new_degree.append(d_e)
        else:
            base_id = base.rays.index(ray)
            eps = 1 if base_id in center_base_ids else 0
            new_degree.append(lam.total_degree[base_id] - eps * d_e)
    return NumericalData(lam.n, lam.alphas, new_degree)
