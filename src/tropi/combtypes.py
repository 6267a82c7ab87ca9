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
from typing import Iterable, Optional, Sequence

from .cones import (
    ComplexError,
    Cone,
    ConeComplex,
    fan_coordinates,
    minimal_containing_cone,
)
from .linalg import IntVector, is_zero, vec_neg

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
        # connectivity
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if seen != vs:
            raise TypeProblem("graph is not connected")
        labels = sorted(j for _, j in self.legs)
        if labels != list(range(1, len(labels) + 1)):
            raise TypeProblem("marking labels must be exactly 1..n")
        for v, _ in self.legs:
            if v not in vs:
                raise TypeProblem("leg attached to missing vertex")
        if set(self.degrees) != vs:
            raise TypeProblem("degree vector required for every vertex")

    def neighbors(self, v: str) -> list[str]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out

    def incident_edges(self, v: str) -> list[Edge]:
        return [e for e in self.edges if v in e]

    def legs_at(self, v: str) -> list[int]:
        return [j for w, j in self.legs if w == v]

    def valence(self, v: str) -> int:
        return len(self.incident_edges(v))


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
        k = self.target.ambient_dim
        for v, d in g.degrees.items():
            if len(d) != len(self.target.rays):
                raise TypeProblem(
                    f"degree vector of {v} must have one entry per target ray"
                )
        for j, s in self.leg_slopes.items():
            if len(s) != k:
                raise TypeProblem(f"leg slope {j} has wrong dimension")

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
    cone = minimal_containing_cone(target, p)
    if cone is None:
        return None
    if ray_id not in cone:
        return Fraction(0)
    coords = target.cone_coords(cone, p)
    if coords is None:
        raise ComplexError(f"point {tuple(p)} is not in its minimal cone")
    return coords[sorted(cone).index(ray_id)]


def cone_coefficient(
    target: ConeComplex, cone: Cone, vector: Sequence, ray_id: int
) -> Optional[Fraction]:
    """Coefficient of a vector on one generator of the given cone.

    Requires the vector to lie in the span of the cone's generators;
    returns None when it does not (a support violation).
    """
    kern = target.kernel(cone)
    nums = kern.numerators(vector)
    if nums is None:
        return None
    if ray_id not in cone:
        return Fraction(0)
    return Fraction(nums[sorted(cone).index(ray_id)], kern.denom)


def check_global_balancing(
    target: ConeComplex, lam: NumericalData
) -> Optional[int]:
    """Return the first ray index where global balancing fails, else None.

    Balancing per ray: the fan coordinates of the tangency vectors must sum
    to the total degree entry for that ray.
    """
    coords = [fan_coordinates(target, a) for a in lam.alphas]
    for i in range(len(target.rays)):
        if None in coords or sum(c[i] for c in coords) != lam.total_degree[i]:
            return i
    return None


# -- balancing solver ------------------------------------------------------


def _vertex_imbalance(t: CombinatorialType, v: str) -> list[Fraction]:
    """Degree minus leg contributions, in fan coordinates at the vertex."""
    out = [Fraction(d) for d in t.graph.degrees[v]]
    for j in t.graph.legs_at(v):
        coords = fan_coordinates(t.target, t.leg_slopes[j])
        if coords is None:
            raise TypeProblem(f"leg slope {j} lies outside the support")
        for i, c in enumerate(coords):
            out[i] -= c
    return out


def solve_balancing(
    t: CombinatorialType, root: Optional[str] = None
) -> dict[Edge, IntVector]:
    """Unique edge slopes balancing every vertex of the tree.

    Works leaf to root: each child's outgoing slope is determined by its own
    balancing equation; the root equation is then a consistency check,
    equivalent to global balancing.
    """
    g = t.graph
    if root is None:
        root = g.vertices[0]
    k_amb = t.target.ambient_dim
    n_rays = len(t.target.rays)
    # orient the tree away from the root
    parent: dict[str, Optional[str]] = {root: None}
    order = [root]
    frontier = [root]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w not in parent:
                parent[w] = v
                order.append(w)
                frontier.append(w)

    # per vertex, per ray: degree minus legs minus solved children
    residual = {v: _vertex_imbalance(t, v) for v in g.vertices}
    solved: dict[Edge, list[Fraction]] = {}
    up_coords: dict[str, list[Fraction]] = {}
    for v in reversed(order):
        if parent[v] is None:
            for i in range(n_rays):
                if residual[v][i] != 0:
                    raise TypeProblem(
                        f"global balancing fails in ray direction {i}"
                    )
            continue
        coords = list(residual[v])
        up_coords[v] = coords
        for i in range(n_rays):
            residual[parent[v]][i] += coords[i]  # parent receives -m(up)
        e = next(
            e for e in g.edges if set(e) == {v, parent[v]}
        )
        solved[e] = coords

    # convert fan coordinates into ambient slope vectors
    out: dict[Edge, IntVector] = {}
    for e, coords in solved.items():
        child = e[0] if parent.get(e[0]) == e[1] else e[1]
        vec = [Fraction(0)] * k_amb
        for i, c in enumerate(coords):
            for r in range(k_amb):
                vec[r] += c * t.target.rays[i][r]
        # orientation away from the stored first endpoint
        if e[0] == child:
            amb = tuple(vec)
        else:
            amb = tuple(-x for x in vec)
        for x in amb:
            assert x.denominator == 1, "balancing solution must be integral"
        out[e] = tuple(int(x) for x in amb)
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
        coords = t.target.cone_coords(t.leg_cones[j], t.leg_slopes[j])
        if coords is None:
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
        for e in g.edges:
            m = t.slope_from(e[0], e)
            cone = t.edge_cones[e]
            ref = sorted(cone)[0] if cone else None
            probe = (
                cone_coefficient(t.target, cone, m, ref)
                if ref is not None
                else (Fraction(0) if is_zero(m) else None)
            )
            if probe is None:
                all_ok, detail = False, f"edge {e} slope not supported on its cone"
        add("slope-support", all_ok, detail)

        # positivity on new directions, per flag
        all_ok, detail = True, ""
        for e in g.edges:
            cone = t.edge_cones[e]
            for v in e:
                m = t.slope_from(v, e)
                for i in cone - t.vertex_cones[v]:
                    c = cone_coefficient(t.target, cone, m, i)
                    if c is None or c <= 0:
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
    for i in range(len(t.target.rays)):
        inside = {v for v in g.vertices if i in t.vertex_cones[v]}
        # condition on vertices outside: direction i only enters toward inside
        for v in (v for v in g.vertices if v not in inside):
            for e in g.incident_edges(v):
                m = t.slope_from(v, e)
                c = cone_coefficient(t.target, t.edge_cones[e], m, i)
                if c is None:
                    return False
                if c != 0:
                    other = e[0] if e[1] == v else e[1]
                    if other not in inside or c < 0:
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
            total = Fraction(0)
            for v in comp:
                total += t.graph.degrees[v][i]
                for j in g.legs_at(v):
                    c = ray_coefficient(t.target, i, t.leg_slopes[j])
                    if c is None:
                        return False
                    total -= c
                for e in g.incident_edges(v):
                    other = e[0] if e[1] == v else e[1]
                    if other in comp:
                        continue
                    m = t.slope_from(other, e)  # oriented into the component
                    c = cone_coefficient(t.target, t.edge_cones[e], m, i)
                    if c is None:
                        return False
                    total += c
            if total != 0:
                return False
    return True


def collect_sensitive_slopes(
    types: Iterable[CombinatorialType],
) -> set[IntVector]:
    """Edge slopes lying in their cone (componentwise >= 0, not all zero).

    Both orientations of every edge are considered; primitive
    representatives are included alongside the original vectors.
    """
    from .linalg import primitive

    out: set[IntVector] = set()
    for t in types:
        if t.edge_slopes is None:
            raise TypeProblem("edge slopes must be solved first")
        for e in t.graph.edges:
            for v in e:
                m = t.slope_from(v, e)
                if is_zero(m):
                    continue
                coords = t.target.cone_coords(t.edge_cones[e], m)
                if coords is not None and any(c > 0 for c in coords):
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
    out = [Fraction(0)] * len(base.rays)
    for rid, deg in enumerate(d):
        if deg == 0:
            continue
        coords = fan_coordinates(base, refined.rays[rid])
        if coords is None:
            raise TypeProblem("refined ray outside the base support")
        for i, c in enumerate(coords):
            out[i] += deg * c
    for x in out:
        if x.denominator != 1:
            raise TypeProblem("pushforward degree is not integral")
    return tuple(int(x) for x in out)


def pushforward_type(sub, t: CombinatorialType) -> CombinatorialType:
    """Image of a type under a subdivision map, stabilized.

    Cones map to their minimal containing base cones, slopes are unchanged
    as ambient vectors, degrees push forward by base fan coordinates, and
    legless zero-degree vertices of valence at most two are deleted.
    """
    if t.target != sub.refined:
        raise TypeProblem("type does not live on the refined complex")
    g = t.graph
    vertex_cones = {v: sub.cone_image[c] for v, c in t.vertex_cones.items()}
    edge_cones = {e: sub.cone_image[c] for e, c in t.edge_cones.items()}
    leg_cones = {j: sub.cone_image[c] for j, c in t.leg_cones.items()}
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
                if cone is None or not sub.base.has_cone(cone):
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
    from .cones import PLFunction, evaluate_pl
    from .linalg import is_unimodular

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

    exc_values = [Fraction(int(i == e_id)) for i in range(len(refined.rays))]
    p_exc = PLFunction(refined, exc_values)
    d_e = sum((evaluate_pl(p_exc, a) for a in lam.alphas), Fraction(0))
    assert d_e.denominator == 1
    d_e = int(d_e)

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
