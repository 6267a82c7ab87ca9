"""Enumeration of valid combinatorial types, up to decorated-tree isomorphism.

The search space is made finite and explicit by a user-supplied degree
catalogue: every vertex draws its degree vector from a fixed list of atoms,
on at most ``MAX_VERTICES`` vertices.  Marking labels are distinguishable:
only the unlabeled tree symmetry is quotiented.  Duplicates are removed by a
canonical rooted-tree code (computed at the tree's center), which also fixes
the output order; each code keeps the first candidate found with it.

The search is an orbit search in three steps, each of which keeps that first
candidate, so the output does not depend on them:

- One labeled tree per unlabeled shape: the first Prufer tree of each shape.
  Every decorated type of a shape is isomorphic to one on that tree, and
  that tree comes before every other tree of its shape.
- Per degree tuple and leg map, the vertex cones are fixed in name order and
  each edge is checked as soon as its later endpoint is fixed: its cone is
  the join of its endpoint cones, and its slope must be positive on every
  direction new to one end and negative on every direction new to the other.
  The survivors come in the order of the full product of vertex cones.
- A decoration (degree tuple, leg map) is skipped when an automorphism of
  the tree maps it to a lexicographically smaller one.  That image is visited
  earlier, and its candidates are the isomorphic images of this decoration's
  candidates, with the same codes.

Edge slopes are ``solve_balancing``'s integer subtree sums
(``subtree_slopes``).  Types are built only for candidates: a decoration's
``DecoratedGraph`` at its first complete vertex-cone assignment, a
``CombinatorialType`` per candidate.

Every candidate passes ``validate_type`` by construction, so the search does
not run it.  Vertex cones come from ``target.cones()``, edge cones are joins
looked up among the target's cones, and leg cones are
``minimal_containing_cone`` of α_j, on which α_j has positive coordinates.
``vertex_options`` puts each vertex cone inside its legs' cones, and an edge
cone contains both endpoint cones.  One slope is stored per edge, and
``edge_cone`` requires support and the positivity signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Optional

from .cones import ORIGIN, ComplexError, Cone, ConeComplex, minimal_containing_cone
from .combtypes import (
    CombinatorialType,
    DecoratedGraph,
    NumericalData,
    TypeProblem,
    _ambient_degree,
    check_gathmann,
    check_global_balancing,
    collect_sensitive_slopes,
    subtree_slopes,
)
from .linalg import primitive
from .subdivide import Subdivision, sensitize

MAX_VERTICES = 6
"""Largest catalogue ``max_vertices``.  The golden quadrant example (atoms
(0,0), (2,2), (4,4)) takes about 2.1 s at 6 vertices (3327 types) and about
12 s at 7 (13313 types) on a 2-vCPU Linux VM with Python 3.11, and each
further vertex multiplies the search by the number of atoms and of trees."""


@dataclass(frozen=True)
class DegreeCatalogue:
    atoms: tuple[tuple[int, ...], ...]
    max_vertices: int

    def __init__(self, atoms: Iterable, max_vertices: int):
        object.__setattr__(self, "atoms", tuple(tuple(map(int, a)) for a in atoms))
        object.__setattr__(self, "max_vertices", int(max_vertices))
        if not 1 <= self.max_vertices <= MAX_VERTICES:
            raise TypeProblem(f"max_vertices must be between 1 and {MAX_VERTICES}")
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


def _centers(vertices: Iterable, neighbors) -> list:
    """The one or two centers of a tree, by stripping leaves."""
    remaining = set(vertices)
    while len(remaining) > 2:
        remaining -= {
            v for v in remaining if sum(w in remaining for w in neighbors(v)) <= 1
        }
    return sorted(remaining)


def _shape_code(n: int, edges: tuple[tuple[int, int], ...]):
    """AHU code of the bare tree on 0..n-1, rooted at a center."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def code(v: int, parent: Optional[int]):
        return tuple(sorted(code(w, v) for w in adj[v] if w != parent))

    return min(code(c, None) for c in _centers(range(n), adj.__getitem__))


def _tree_shapes(n: int) -> list[tuple[tuple[int, int], ...]]:
    """The first Prufer tree of each unlabeled tree shape on n vertices."""
    first: dict[object, tuple[tuple[int, int], ...]] = {}
    for tree in _prufer_trees(n):
        first.setdefault(_shape_code(n, tree), tree)
    return list(first.values())


def _automorphisms(n: int, edges: tuple[tuple[int, int], ...]) -> list[tuple[int, ...]]:
    """Vertex permutations of the tree that map its edge set onto itself."""
    edge_set = {frozenset(e) for e in edges}
    return [
        p
        for p in permutations(range(n))
        if all(frozenset((p[a], p[b])) in edge_set for a, b in edges)
    ]


# -- canonical codes --------------------------------------------------------


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

    return min(code(c, None) for c in _centers(g.vertices, g.neighbors))


# -- the search --------------------------------------------------------------


def _least_decorations(n: int, auts: list, degree_ids: list, n_legs: int):
    """(degree-index tuple, leg map) pairs, in lexicographic order, that no
    automorphism of the tree maps to a smaller pair.

    An automorphism p sends degrees d to d o p^-1 and a leg map l to p o l;
    the inverses run over the whole group.  So a pair is least in its orbit
    exactly when its degrees are, and its leg map is least under the
    degrees' stabiliser.
    """
    for degs in degree_ids:
        images = [tuple(map(degs.__getitem__, p)) for p in auts]
        if min(images) < degs:
            continue
        stab = [p for p, image in zip(auts, images) if image == degs]
        for legs in product(range(n), repeat=n_legs):
            if all(tuple(map(p.__getitem__, legs)) >= legs for p in stab):
                yield degs, legs


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
    # (slope, tail cone, head cone) -> the edge cone, or None when the join
    # is no cone, the slope is off its span, or a sign is wrong
    joins: dict[tuple, Optional[Cone]] = {}

    def edge_cone(slope, su: Cone, sv: Cone) -> Optional[Cone]:
        c = su | sv
        kern = kernels.get(c)
        nums = None if kern is None else kern.numerators(slope)
        # the slope leaves each endpoint strictly along every direction new
        # to that endpoint; every kernel denominator is positive
        if nums is None or not all(
            (i in su or x > 0) and (i in sv or x < 0) for i, x in zip(sorted(c), nums)
        ):
            return None
        return c

    atom_vecs = [_ambient_degree(target, a) for a in atoms]
    found: dict[object, CombinatorialType] = {}
    for v_count in range(1, cat.max_vertices + 1):
        names = [f"v{i}" for i in range(v_count)]
        balanced = [
            ids
            for ids in product(range(len(atoms)), repeat=v_count)
            if tuple(map(sum, zip(*(atoms[i] for i in ids)))) == lam.total_degree
        ]
        for shape in _tree_shapes(v_count):
            edges = [(names[a], names[b]) for a, b in shape]
            # edges by their later endpoint; Prufer edges are (smaller, larger)
            closing: list[list[int]] = [[] for _ in names]
            for k, (a, b) in enumerate(shape):
                closing[b].append(k)
            bare = DecoratedGraph(names, edges, [], dict.fromkeys(names, ()))
            auts = _automorphisms(v_count, shape)
            for deg_ids, leg_ids in _least_decorations(v_count, auts, balanced, lam.n):
                # solve_balancing's slopes without its root check: the
                # degrees sum to the total degree, and so do the legs' fan
                # coordinates (check_global_balancing), so every root
                # residual is zero
                net = {v: atom_vecs[i] for v, i in zip(names, deg_ids)}
                legs_at: list[list[int]] = [[] for _ in names]
                for j, (w, alpha) in enumerate(zip(leg_ids, lam.alphas), start=1):
                    net[names[w]] = [x - y for x, y in zip(net[names[w]], alpha)]
                    legs_at[w].append(j)
                slopes = subtree_slopes(bare, names[0], net)
                edge_slopes = [slopes[e] for e in edges]
                # vertex cones constrained by the legs they carry
                vertex_options = [
                    [c for c in all_cones if all(c <= leg_cones[j] for j in js)]
                    for js in legs_at
                ]
                vcones: list[Cone] = [ORIGIN] * v_count
                econes: list[Cone] = [ORIGIN] * len(edges)
                graph: Optional[DecoratedGraph] = None

                def place(i: int) -> None:
                    nonlocal graph
                    if i == v_count:
                        if graph is None:
                            graph = DecoratedGraph(
                                names,
                                edges,
                                [(names[w], j) for j, w in enumerate(leg_ids, start=1)],
                                {v: atoms[d] for v, d in zip(names, deg_ids)},
                            )
                        candidate = CombinatorialType(
                            graph=graph,
                            target=target,
                            vertex_cones=dict(zip(names, vcones)),
                            edge_cones=dict(zip(edges, econes)),
                            leg_cones=leg_cones,
                            leg_slopes=leg_slopes,
                            edge_slopes=slopes,
                        )
                        if check_gathmann(candidate):
                            found.setdefault(canonical_code(candidate), candidate)
                        return
                    for c in vertex_options[i]:
                        vcones[i] = c
                        for k in closing[i]:
                            key = (edge_slopes[k], vcones[shape[k][0]], c)
                            if key not in joins:
                                joins[key] = edge_cone(*key)
                            econes[k] = joins[key]
                            if econes[k] is None:
                                break
                        else:
                            place(i + 1)

                place(0)
    return [found[k] for k in sorted(found)]


def sensitize_for_data(
    target: ConeComplex, lam: NumericalData, cat: DegreeCatalogue
) -> Subdivision:
    """Enumerate types, collect their cone-positive slopes, and sensitize."""
    types = enumerate_types(target, lam, cat)
    slopes = collect_sensitive_slopes(types)
    sub = sensitize(target, slopes)
    for s in slopes:
        if primitive(s) not in sub.refined.rays:
            raise ComplexError(f"slope {s} is missing from the refinement")
    return sub
