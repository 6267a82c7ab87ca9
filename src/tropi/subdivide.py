"""Subdivisions of cone complexes.

Stellar subdivision at cones and points, hyperplane slicing, common
refinement, resolution to unimodular cones, and the slope-sensitive
subdivision pipeline.  All constructions are deterministic: ties are broken
lexicographically, and a non-simplicial piece of any dimension gets the
pulling triangulation at its lexicographically least ray, with its facets
read off integer walls (kernel rows and the cutting hyperplane).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Sequence

from .cones import (
    ComplexError,
    Cone,
    ConeComplex,
    _slice_rays,
    cone_kernel,
    coordinate_projection,
    extreme_filter,
    first_containing,
    intersect_simplicial,
    minimal_containing_cone,
)
from .feasibility import _normalize
from .linalg import (
    IntVector,
    _smith_reduce,
    is_zero,
    lattice_index,
    mat_rank,
    primitive,
    vec_dot,
)


MAX_WITNESS_INDEX = 10**6
"""Largest lattice index of a cone that resolution splits, checked once on
the largest initial index (no step raises an index).  A rank-2 cone is split
at its Hilbert basis without listing any points, and there the output is
capped by ``MAX_INSERTED_RAYS`` instead.  A cone of rank 3 or more is split one
witness at a time, and each witness lists all index-many points of the
cone's fundamental parallelepiped: one at index 10**6 takes about 9 s on a
2-vCPU Linux VM with Python 3.11.  A cone of larger index raises
``ComplexError`` instead of a resolution that cannot finish."""

MAX_INSERTED_RAYS = 10**5
"""Most rays one resolution inserts, counted as cones are split (in rank 2
as their Hilbert bases are walked), so going over raises ``ComplexError``
before any complex is built.  At the cap, cone((1,0), (1,10**5)) resolves in
about 1.1 s with 121 MiB peak RSS, and ``tropi sensitize`` on
cone((1,0), (1,10**6)) exits 2 after about 0.25 s with 27 MiB (2-vCPU Linux
VM, Python 3.11)."""


@dataclass(frozen=True)
class Subdivision:
    """A refinement of base; ``image`` derives its map on cones from the fans."""

    base: ConeComplex
    refined: ConeComplex
    warnings: tuple[str, ...] = ()

    @property
    def is_identity(self) -> bool:
        return self.base == self.refined

    def image(self, cone: Cone) -> Cone:
        """The least base cone containing cone, located by its barycenter."""
        target = minimal_containing_cone(self.base, self.refined.barycenter(cone))
        if target is None:
            raise ComplexError(
                "refined complex is not supported inside the base complex"
            )
        return target


def identity_subdivision(c: ConeComplex) -> Subdivision:
    return Subdivision(c, c)


def compose(s1: Subdivision, s2: Subdivision) -> Subdivision:
    """s2 after s1; a cone's relative interior lies in that of its image."""
    if s2.base != s1.refined:
        raise ComplexError("subdivisions do not chain: base/refined mismatch")
    return Subdivision(s1.base, s2.refined, s1.warnings + s2.warnings)


# -- stellar subdivision --------------------------------------------------


def _pieces(c: ConeComplex) -> list:
    """The working form of a fan under refinement: its maximal cones as
    generator tuples, sorted because c.rays is."""
    return [tuple(c.rays[i] for i in mc) for mc in c.max_cones]


def _refined(c: ConeComplex, pieces: list, inserted: list) -> ConeComplex:
    """c refined to pieces, with the inserted rays; c itself if there are none."""
    return _assemble(c.ambient_dim, pieces, c.rays + tuple(inserted)) if inserted else c


def stellar_at_point(c: ConeComplex, v: Sequence[int]) -> Subdivision:
    """Insert primitive(v) as a ray, star-subdividing the cones around it."""
    v = tuple(int(x) for x in v)
    if is_zero(v):
        raise ComplexError("cannot subdivide at the zero vector")
    w = primitive(v)
    pieces = _pieces(c)
    if not _star(c.ambient_dim, pieces, w):
        return Subdivision(c, c, (f"point {w} is already a ray",))
    return Subdivision(c, _refined(c, pieces, [w]))


def _star(ambient_dim: int, pieces: list, w: IntVector) -> bool:
    """Star-subdivide pieces at the primitive vector w; False if it is a ray."""
    hit = first_containing(((g, cone_kernel(g, ambient_dim)) for g in pieces), w)
    if hit is None:
        raise ComplexError(f"point {w} lies outside the support")
    home = {g for g, x in zip(hit[0], hit[1]) if x > 0}
    if len(home) == 1:
        return False
    _split(pieces, home, w)
    return True


def _split(pieces: list, home: set, w: IntVector) -> None:
    """Replace each piece containing the cone home by its star at w."""
    stars = [p for p in pieces if home.issubset(p)]
    pieces[:] = [p for p in pieces if p not in stars]
    pieces += [tuple(sorted({*p, w} - {h})) for p in stars for h in home]


def stellar(c: ConeComplex, sigma: Cone) -> Subdivision:
    """Star subdivision at the barycentric ray of the cone sigma."""
    sigma = frozenset(sigma)
    if not c.has_cone(sigma) or len(sigma) == 0:
        raise ComplexError(f"{sorted(sigma)} is not a positive-dimensional cone")
    if len(sigma) == 1:
        warning = "stellar subdivision at a ray is the identity"
        return Subdivision(c, c, (warning,))
    return stellar_at_point(c, c.barycenter(sigma))


# -- triangulation ---------------------------------------------------------


def _facets(rays: list, walls: Sequence[IntVector], rank: int) -> list:
    """The facets of cone(rays): its rays on each wall, when they span rank - 1."""
    faces = dict.fromkeys(tuple(r for r in rays if vec_dot(w, r) == 0) for w in walls)
    return [f for f in faces if mat_rank(f) == rank - 1]


def _walls(*cones: Sequence[IntVector]) -> tuple[IntVector, ...]:
    """Each simplicial cone's kernel rows: >= 0 on it, normal to its facets."""
    return sum((cone_kernel(tuple(g), len(g[0])).dual for g in cones), ())


def triangulate_cone(
    rays: list[IntVector], walls: Sequence[IntVector]
) -> list[tuple[IntVector, ...]]:
    """Split a pointed cone, given by its extreme rays, into simplicial cones.

    walls are as for ``extreme_filter``.  The pulling triangulation (De
    Loera, Rambau and Santos, *Triangulations*, Section 4.3): the least ray
    joined to the triangulation of each facet without it, so cones that
    share a face triangulate it alike.  Sorted tuples, in sorted order.
    """
    rays = sorted(set(rays))
    rank = mat_rank(rays)
    if rank == len(rays):
        return [tuple(rays)] if rays else []
    if extreme_filter(rays, walls) != rays:
        raise ComplexError(f"rays {rays} are not extreme in a {rank}-dimensional cone")
    return sorted(
        (rays[0], *simplex)
        for facet in _facets(rays, walls, rank)
        if rays[0] not in facet
        for simplex in triangulate_cone(facet, walls)
    )


def _assemble(ambient_dim: int, pieces: list, ray_set=None) -> ConeComplex:
    """The complex on pieces; its rays are ray_set, by default those used."""
    ray_set = ray_set or sorted({r for piece in pieces for r in piece})
    index = {r: i for i, r in enumerate(ray_set)}
    cones = [frozenset(index[r] for r in piece) for piece in pieces]
    return ConeComplex._refinement(ambient_dim, ray_set, cones)


# -- slicing and refinement -----------------------------------------------


def slice_by_hyperplane(c: ConeComplex, h: Sequence) -> ConeComplex:
    """Refine so that every cone lies on one closed side of h . x = 0."""
    return _assemble(c.ambient_dim, _slice(_pieces(c), h))


def _slice(cones: list, h: Sequence) -> list:
    h, _ = _normalize(h, 0)  # integer entries, same hyperplane and sides
    pieces: list[tuple[IntVector, ...]] = []
    for gens in cones:
        vals = [vec_dot(h, g) for g in gens]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            pieces.append(gens)
            continue
        # already extreme: kept generators and cuts inside 2-faces of gens;
        # each side's facets lie on h or on a facet of gens
        for side in (1, -1):
            walls = _walls(gens) + (tuple(side * x for x in h),)
            pieces.extend(triangulate_cone(_slice_rays(list(gens), h, side), walls))
    return pieces


def common_refinement(s1: ConeComplex, s2: ConeComplex) -> ConeComplex:
    """Intersect the fans cone by cone and re-triangulate deterministically."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ComplexError("ambient dimensions differ")
    for ray in s1.rays:
        if minimal_containing_cone(s2, ray) is None:
            raise ComplexError(f"supports differ: ray {ray} not in second complex")
    for ray in s2.rays:
        if minimal_containing_cone(s1, ray) is None:
            raise ComplexError(f"supports differ: ray {ray} not in first complex")
    pieces: list[tuple[IntVector, ...]] = []
    for gens1 in _pieces(s1):
        for gens2 in _pieces(s2):
            xr = intersect_simplicial(gens1, gens2)
            if xr:
                pieces.extend(triangulate_cone(xr, _walls(gens1, gens2)))
    result = _assemble(s1.ambient_dim, pieces)
    # coverage check: every cone of either fan is filled by the refinement
    for src in (s1, s2):
        for mc in src.max_cones:
            if minimal_containing_cone(result, src.barycenter(frozenset(mc))) is None:
                raise ComplexError("supports differ: refinement does not cover")
    return result


# -- resolution to unimodular cones ---------------------------------------


def _parallelepiped_witness(gens: Sequence[IntVector]) -> IntVector:
    """Minimal nonzero lattice point of the fundamental parallelepiped.

    With the Smith reduction U = R D B of the generator rows, the m lattice
    points of the parallelepiped are Σ y_i b_i with 0 <= y_i < d_i, each
    shifted by generators until its coefficients lie in [0,1); minimality
    is by total coefficient sum, then lexicographic coefficient order.
    """
    k = len(gens[0])
    diagonal, basis = _smith_reduce([list(u) for u in gens])
    kern = cone_kernel(tuple(gens), k)

    def coefficients(ys):  # numerators over kern.denom, reduced into [0, denom)
        p = [sum(y * b[r] for y, b in zip(ys, basis)) for r in range(k)]
        return tuple(n % kern.denom for n in kern.numerators(p))

    points = filter(any, map(coefficients, product(*map(range, diagonal))))
    nums = min(points, key=lambda n: (sum(n), n), default=None)
    if nums is None:
        raise ComplexError(f"cone {gens} has no nonzero parallelepiped point")
    return primitive(
        tuple(sum(n * u[r] for n, u in zip(nums, gens)) // kern.denom for r in range(k))
    )


def resolve_smooth(c: ConeComplex) -> Subdivision:
    """Iterated stellar subdivision until every cone is unimodular.

    A rank-2 cone is split at its whole Hilbert basis at once, in one
    extended-gcd step per inserted ray: the toric minimal resolution, which
    is what splitting one least parallelepiped point at a time reaches.  For
    rank 3 and more, at each step the worst cone (highest lattice index, ties
    lexicographic) is split at the minimal fundamental-parallelepiped lattice
    point, read off one Smith reduction of its generators in O(index)
    points; the pair (max index, number of attaining cones) strictly
    decreases.  A cone of index above ``MAX_WITNESS_INDEX``, or more than
    ``MAX_INSERTED_RAYS`` new rays, raises ``ComplexError``.
    """
    pieces = _pieces(c)
    inserted = _resolve(c.ambient_dim, pieces)
    return Subdivision(c, _refined(c, pieces, inserted))


def _hilbert_basis(u: IntVector, v: IntVector) -> Iterator[IntVector]:
    """Yield the Hilbert basis of the rank-2 cone(u, v), in order from u to v.

    Walks in the basis b_1, b_2 of span ∩ Z^k from ``_smith_reduce``, with
    the plane oriented so that det(u, v) > 0.  After u, each element is
    a h - h' for the two before it (h' before u from one extended-gcd step,
    so that det(h', u) = 1), with the least a that keeps det(., v) >= 0:
    the Hirzebruch-Jung continued fraction.  Consecutive elements span
    unimodular cones.
    """
    b1, b2 = _smith_reduce([list(u), list(v)])[1][:2]
    i, j = next(
        (i, j)
        for i, j in combinations(range(len(u)), 2)
        if b1[i] * b2[j] != b1[j] * b2[i]
    )
    delta = b1[i] * b2[j] - b1[j] * b2[i]

    def coords(p):  # Cramer's rule on coordinates i, j; exact on the lattice
        x, y = p[i] * b2[j] - p[j] * b2[i], b1[i] * p[j] - b1[j] * p[i]
        return x // delta, y // delta

    (x, y), end = coords(u), coords(v)
    sign = 1 if x * end[1] > y * end[0] else -1

    def cross(p, q):  # det(p, q), oriented so that det(u, v) > 0
        return sign * (p[0] * q[1] - p[1] * q[0])

    s = pow(x, -1, abs(y)) if y else x  # x s + y t = 1
    t = (1 - x * s) // y if y else 0
    yield u
    prev, cur = (sign * t, -sign * s), (x, y)
    while cur != end:
        a = -(-cross(prev, end) // cross(cur, end))
        prev, cur = cur, (a * cur[0] - prev[0], a * cur[1] - prev[1])
        yield tuple(cur[0] * p + cur[1] * q for p, q in zip(b1, b2))


def _resolve(ambient_dim: int, pieces: list) -> list[IntVector]:
    """Resolve pieces in place; returns the rays inserted.

    Rank-2 pieces are split at their whole Hilbert basis at once; the rest
    are split one parallelepiped witness at a time.
    """
    mults: dict[tuple[IntVector, ...], int] = {g: lattice_index(g) for g in pieces}
    top = max(mults.values(), default=1)
    # no step raises an index, so the initial maximum bounds every witness
    if top > MAX_WITNESS_INDEX:
        raise ComplexError(
            f"cannot resolve a cone of lattice index {top}: "
            f"MAX_WITNESS_INDEX is {MAX_WITNESS_INDEX}"
        )
    inserted, kept = [], []
    for g in pieces:
        if len(g) != 2 or mults[g] == 1:
            kept.append(g)
            continue
        hilbert = []
        for h in _hilbert_basis(*g):  # all but the two ends are inserted
            hilbert.append(h)
            _check_inserted(len(inserted) + len(hilbert) - 2)
        inserted += hilbert[1:-1]
        split = [tuple(sorted(pair)) for pair in zip(hilbert, hilbert[1:])]
        mults.update(dict.fromkeys(split, 1))
        kept += split
    pieces[:] = kept
    while True:
        mults.update((g, lattice_index(g)) for g in pieces if g not in mults)
        # ray ids rank the ray vectors, so tuples order cones canonically
        worst = min(pieces, key=lambda g: (-mults[g], g))
        if mults[worst] == 1:
            return inserted
        w = _parallelepiped_witness(worst)
        # w lies in worst, so its home cone is the face where it is positive
        nums = cone_kernel(worst, ambient_dim).numerators(w)
        _split(pieces, {g for g, x in zip(worst, nums) if x > 0}, w)
        inserted.append(w)
        _check_inserted(len(inserted))


def _check_inserted(count: int) -> None:
    if count > MAX_INSERTED_RAYS:
        raise ComplexError(
            f"resolution inserts more than MAX_INSERTED_RAYS = {MAX_INSERTED_RAYS} rays"
        )


# -- slope-sensitive subdivision ------------------------------------------


def sensitize(
    target: ConeComplex, slopes: Iterable[Sequence[int]]
) -> Subdivision:
    """Smooth refinement whose ray table contains every given slope.

    Rank two targets insert the slope rays directly and then resolve.
    Higher rank targets additionally slice along the pullbacks of every
    two-coordinate projection's sensitized rays, so projected slopes become
    rays in every coordinate shadow.
    """
    slope_list: list[IntVector] = []
    for s in slopes:
        v = tuple(int(x) for x in s)
        if is_zero(v):
            raise ComplexError("zero vector is not a slope")
        p = primitive(v)
        if minimal_containing_cone(target, p) is None:
            raise ComplexError(f"slope {p} lies outside the support")
        if p not in slope_list:
            slope_list.append(p)
    slope_list.sort()

    rank = max((len(mc) for mc in target.max_cones), default=0)
    pieces = _pieces(target)
    if rank > 2:
        for pair in combinations(range(1, target.ambient_dim + 1), 2):
            proj = coordinate_projection(target, pair)
            imgs = map(proj.project_point, slope_list)
            proj_slopes = [primitive(img) for img in imgs if not is_zero(img)]
            img_sub = sensitize(proj.image, proj_slopes)
            i1, i2 = pair[0] - 1, pair[1] - 1
            for r in img_sub.refined.rays:
                h = [0] * target.ambient_dim
                h[i1], h[i2] = r[1], -r[0]
                pieces = _slice(pieces, h)
    inserted = [s for s in slope_list if _star(target.ambient_dim, pieces, s)]
    inserted += _resolve(target.ambient_dim, pieces)
    if rank > 2:  # slicing keeps only the rays that cones use
        return Subdivision(target, _assemble(target.ambient_dim, pieces))
    return Subdivision(target, _refined(target, pieces, inserted))
