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

from .cones import ORIGIN, ComplexError, Cone, ConeComplex, minimal_containing_cone
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
        object.__setattr__(self, "atoms", tuple(tuple(map(int, a)) for a in atoms))
        object.__setattr__(self, "max_vertices", int(max_vertices))
        if self.max_vertices < 1:
            raise TypeProblem("max_vertices must be positive")
        if not self.atoms:
            raise TypeProblem("catalogue needs at least one degree atom")


def _prufer_trees(n: int) -> list[tuple[tuple[int, int], ...]]:
    """All labeled trees on vertices 0..n-1, as edge tuples."""
    if n == 1:
        return [()]
    trees = []
    for seq in product(range(n), repeat=n - 2):
        deg = [1] * n
        for x in seq:
            deg[x] += 1
        edges = []
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


def _tree_centers(g: DecoratedGraph) -> list[str]:
    remaining = set(g.vertices)
    while len(remaining) > 2:
        remaining -= {
            v for v in remaining if sum(w in remaining for w in g.neighbors(v)) <= 1
        }
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
            ekey = (tuple(sorted(t.edge_cones[e])), t.slope_from(v, e))
            children.append((ekey, code(w, v)))
        return (vkey(v), tuple(sorted(children)))

    return min(code(c, None) for c in _tree_centers(g))


# -- the search --------------------------------------------------------------


def enumerate_types(
    target: ConeComplex, lam: NumericalData, cat: DegreeCatalogue
) -> list[CombinatorialType]:
    """All valid types with at most max_vertices vertices, canonically sorted.

    The cone of an edge is the join of its endpoint cones: its slope must be
    positive on every direction new to one end and negative on every
    direction new to the other, so no direction is new to both.
    """
    if len(lam.total_degree) != len(target.rays):
        raise TypeProblem("degree vector does not match the target rays")
    leg_cones: dict[int, Cone] = {}
    for j, alpha in enumerate(lam.alphas, start=1):
        cone = minimal_containing_cone(target, alpha)
        if cone is None:
            return []  # a tangency vector outside the support fits no cone
        leg_cones[j] = cone
    bad = check_global_balancing(target, lam)
    if bad is not None:
        raise TypeProblem(f"global balancing fails in ray direction {bad}")
    leg_slopes = dict(enumerate(lam.alphas, start=1))
    all_cones = sorted(target.cones(), key=sorted)
    kernels = {c: target.kernel(c) for c in all_cones}
    atoms = [a for a in cat.atoms if len(a) == len(target.rays)]

    found: dict[object, CombinatorialType] = {}
    for v_count in range(1, cat.max_vertices + 1):
        names = [f"v{i}" for i in range(v_count)]
        for shape in _prufer_trees(v_count):
            edges = [(names[a], names[b]) for a, b in shape]
            for degs in product(atoms, repeat=v_count):
                if tuple(map(sum, zip(*degs))) != lam.total_degree:
                    continue
                for leg_assign in product(names, repeat=lam.n):
                    legs = [(w, j) for j, w in enumerate(leg_assign, start=1)]
                    graph = DecoratedGraph(names, edges, legs, dict(zip(names, degs)))
                    try:
                        slopes = solve_balancing(
                            CombinatorialType(
                                graph=graph,
                                target=target,
                                vertex_cones=dict.fromkeys(names, ORIGIN),
                                edge_cones=dict.fromkeys(edges, ORIGIN),
                                leg_cones=leg_cones,
                                leg_slopes=leg_slopes,
                            )
                        )
                    except TypeProblem:
                        continue
                    # per edge: the slope's coordinate numerators over each
                    # cone (None off its span); only their signs are read,
                    # and every kernel denominator is positive
                    spans = [
                        {c: k.numerators(slopes[e]) for c, k in kernels.items()}
                        for e in edges
                    ]
                    # vertex cones constrained by the legs they carry
                    vertex_options = [
                        [
                            c
                            for c in all_cones
                            if all(c <= leg_cones[j] for j in graph.legs_at(v))
                        ]
                        for v in names
                    ]
                    for vcones in product(*vertex_options):
                        vertex_cones = dict(zip(names, vcones))
                        edge_cones = {}
                        for e, span in zip(edges, spans):
                            su, sv = vertex_cones[e[0]], vertex_cones[e[1]]
                            c = su | sv
                            nums = span.get(c)
                            # the slope leaves each endpoint strictly along
                            # every direction new to that endpoint
                            if nums is None or not all(
                                (i in su or x > 0) and (i in sv or x < 0)
                                for i, x in zip(sorted(c), nums)
                            ):
                                break
                            edge_cones[e] = c
                        else:
                            candidate = CombinatorialType(
                                graph=graph,
                                target=target,
                                vertex_cones=vertex_cones,
                                edge_cones=edge_cones,
                                leg_cones=leg_cones,
                                leg_slopes=leg_slopes,
                                edge_slopes=slopes,
                            )
                            valid = validate_type(candidate).valid
                            if valid and check_gathmann(candidate):
                                found.setdefault(canonical_code(candidate), candidate)
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
