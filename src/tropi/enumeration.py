"""Enumeration of valid combinatorial types, up to decorated-tree isomorphism.

The search space is made finite and explicit by a user-supplied degree
catalogue: every vertex draws its degree vector from a fixed list of atoms.
Tree shapes come from Prufer sequences; decorations are filtered through
the validity and per-divisor bookkeeping checks; duplicates are removed by
a canonical rooted-tree code (computed at the tree's center), which also
fixes the output order.  Marking labels are distinguishable: only the
unlabeled tree symmetry is quotiented.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .cones import ComplexError, Cone, ConeComplex, minimal_containing_cone
from .combtypes import (
    CombinatorialType,
    DecoratedGraph,
    NumericalData,
    TypeProblem,
    check_gathmann,
    check_global_balancing,
    collect_sensitive_slopes,
    solve_balancing,
    validate_type,
)
from .subdivide import Subdivision, sensitize


@dataclass(frozen=True)
class DegreeCatalogue:
    atoms: tuple[tuple[int, ...], ...]
    max_vertices: int

    def __init__(self, atoms: Iterable, max_vertices: int):
        object.__setattr__(
            self, "atoms", tuple(tuple(int(x) for x in a) for a in atoms)
        )
        object.__setattr__(self, "max_vertices", int(max_vertices))
        if self.max_vertices < 1:
            raise TypeProblem("max_vertices must be positive")
        if not self.atoms:
            raise TypeProblem("catalogue needs at least one degree atom")


def _prufer_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All labeled trees on vertices 0..n-1, as edge tuples."""
    if n == 1:
        return [()]
    if n == 2:
        return [((0, 1),)]
    trees = []
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        deg = degree[:]
        for x in seq:
            leaf = min(i for i in range(n) if deg[i] == 1)
            edges.append((min(leaf, x), max(leaf, x)))
            deg[leaf] -= 1
            deg[x] -= 1
        last = [i for i in range(n) if deg[i] == 1]
        edges.append((min(last), max(last)))
        trees.append(tuple(edges))
    return trees


# -- canonical codes --------------------------------------------------------


def _tree_centers(vertices: list[str], edges: list[tuple[str, str]]) -> list[str]:
    if len(vertices) == 1:
        return list(vertices)
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(vertices)
    while len(remaining) > 2:
        leaves = [v for v in remaining if len(adj[v] & remaining) <= 1]
        remaining -= set(leaves)
    return sorted(remaining)


def canonical_code(t: CombinatorialType):
    """Isomorphism-invariant code of the decorated tree, rooted at a center."""
    if t.edge_slopes is None:
        raise TypeProblem("solve edge slopes before encoding")
    g = t.graph

    def vkey(v: str):
        return (
            tuple(g.degrees[v]),
            tuple(sorted(t.vertex_cones[v])),
            tuple(sorted(g.legs_at(v))),
            tuple(
                sorted(
                    (tuple(sorted(t.leg_cones[j])), t.leg_slopes[j])
                    for j in g.legs_at(v)
                )
            ),
        )

    def code(v: str, parent: Optional[str]):
        children = []
        for e in g.incident_edges(v):
            w = e[0] if e[1] == v else e[1]
            if w == parent:
                continue
            ekey = (
                tuple(sorted(t.edge_cones[e])),
                t.slope_from(v, e),
            )
            children.append((ekey, code(w, v)))
        return (vkey(v), tuple(sorted(children)))

    return min(code(c, None) for c in _tree_centers(list(g.vertices), list(g.edges)))


# -- the search --------------------------------------------------------------


def enumerate_types(
    target: ConeComplex, lam: NumericalData, cat: DegreeCatalogue
) -> list[CombinatorialType]:
    """All valid types with at most max_vertices vertices, canonically sorted."""
    leg_cones: dict[int, Cone] = {}
    for j, alpha in enumerate(lam.alphas, start=1):
        cone = minimal_containing_cone(target, alpha)
        if cone is None:
            return []  # a tangency vector outside the support fits no cone
        leg_cones[j] = cone
    bad = check_global_balancing(target, lam)
    if bad is not None:
        raise TypeProblem(f"global balancing fails in ray direction {bad}")
    n = lam.n
    all_cones = sorted(target.cones(), key=lambda c: sorted(c))
    kernels = {c: target.kernel(c) for c in all_cones}

    found: dict[object, CombinatorialType] = {}
    for v_count in range(1, cat.max_vertices + 1):
        names = [f"v{i}" for i in range(v_count)]
        for shape in _prufer_trees(v_count):
            edges = [(names[a], names[b]) for a, b in shape]
            for degs in product(cat.atoms, repeat=v_count):
                if any(len(d) != len(target.rays) for d in degs):
                    continue
                total = tuple(sum(col) for col in zip(*degs))
                if total != lam.total_degree:
                    continue
                degrees = dict(zip(names, degs))
                for leg_assign in product(range(v_count), repeat=n):
                    legs = [(names[w], j + 1) for j, w in enumerate(leg_assign)]
                    graph = DecoratedGraph(names, edges, legs, degrees)
                    base = CombinatorialType(
                        graph=graph,
                        target=target,
                        vertex_cones={v: frozenset() for v in names},
                        edge_cones={e: frozenset() for e in edges},
                        leg_cones=dict(leg_cones),
                        leg_slopes={
                            j + 1: lam.alphas[j] for j in range(n)
                        },
                    )
                    try:
                        slopes = solve_balancing(base)
                    except TypeProblem:
                        continue
                    # per edge: slope coefficients over every candidate cone,
                    # indexed by ray id (None when the slope is off-span); the
                    # numerators suffice, since only signs are read and every
                    # kernel denominator is positive
                    edge_span = []
                    for e in edges:
                        table = {}
                        for c, kern in kernels.items():
                            nums = kern.numerators(slopes[e])
                            table[c] = (
                                None if nums is None else dict(zip(sorted(c), nums))
                            )
                        edge_span.append(table)
                    # vertex cones constrained by the legs they carry
                    vertex_options = []
                    for v in names:
                        opts = [
                            c
                            for c in all_cones
                            if all(
                                c <= leg_cones[j] for j in graph.legs_at(v)
                            )
                        ]
                        vertex_options.append(opts)
                    for vcones in product(*vertex_options):
                        vertex_cones = dict(zip(names, vcones))
                        edge_options = []
                        for e, table in zip(edges, edge_span):
                            su, sv = vertex_cones[e[0]], vertex_cones[e[1]]
                            lower = su | sv
                            opts = []
                            for c, coeff in table.items():
                                if coeff is None or not lower <= c:
                                    continue
                                # slope must leave each endpoint strictly
                                # along every direction new to that endpoint
                                if any(coeff[i] <= 0 for i in c - su):
                                    continue
                                if any(coeff[i] >= 0 for i in c - sv):
                                    continue
                                opts.append(c)
                            edge_options.append(opts)
                        if any(not o for o in edge_options):
                            continue
                        for ecs in product(*edge_options):
                            candidate = CombinatorialType(
                                graph=graph,
                                target=target,
                                vertex_cones=vertex_cones,
                                edge_cones=dict(zip(edges, ecs)),
                                leg_cones=dict(leg_cones),
                                leg_slopes={
                                    j + 1: lam.alphas[j] for j in range(n)
                                },
                                edge_slopes=dict(slopes),
                            )
                            if not validate_type(candidate).valid:
                                continue
                            if not check_gathmann(candidate):
                                continue
                            key = canonical_code(candidate)
                            if key not in found:
                                found[key] = candidate
    return [found[k] for k in sorted(found)]


def sensitize_for_data(
    target: ConeComplex, lam: NumericalData, cat: DegreeCatalogue
) -> Subdivision:
    """Enumerate types, collect their cone-positive slopes, and sensitize."""
    from .linalg import primitive

    types = enumerate_types(target, lam, cat)
    slopes = collect_sensitive_slopes(types)
    sub = sensitize(target, slopes)
    for s in slopes:
        if primitive(s) not in sub.refined.rays:
            raise ComplexError(f"slope {s} is missing from the refinement")
    return sub
