"""Subdivisions of cone complexes.

Stellar subdivision at cones and points, hyperplane slicing, common
refinement, resolution to unimodular cones, and the slope-sensitive
subdivision pipeline.  All constructions are deterministic: ties are broken
lexicographically and non-simplicial pieces are triangulated by fanning out
from the lexicographically smallest extreme ray (pulling triangulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations, product
from typing import Iterable, Sequence

from .cones import (
    ComplexError,
    Cone,
    ConeComplex,
    cone_kernel,
    coordinate_projection,
    minimal_containing_cone,
)
from .feasibility import LinearSystem, _normalize, fm_feasible
from .linalg import (
    IntVector,
    _smith_reduce,
    det,
    is_zero,
    lattice_index,
    mat_rank,
    primitive,
    vec_dot,
)


@dataclass(frozen=True)
class Subdivision:
    base: ConeComplex
    refined: ConeComplex
    cone_image: dict[Cone, Cone]
    warnings: tuple[str, ...] = ()

    @property
    def is_identity(self) -> bool:
        return self.base == self.refined


def identity_subdivision(c: ConeComplex) -> Subdivision:
    return Subdivision(c, c, {cone: cone for cone in c.cones()})


def make_subdivision(
    base: ConeComplex, refined: ConeComplex, warnings: tuple[str, ...] = ()
) -> Subdivision:
    """Pair a complex with a refinement of it, locating each refined cone."""
    image: dict[Cone, Cone] = {}
    for cone in refined.cones():
        target = minimal_containing_cone(base, refined.barycenter(cone))
        if target is None:
            raise ComplexError(
                "refined complex is not supported inside the base complex"
            )
        image[cone] = target
    return Subdivision(base, refined, image, warnings)


def compose(s1: Subdivision, s2: Subdivision) -> Subdivision:
    if s2.base != s1.refined:
        raise ComplexError("subdivisions do not chain: base/refined mismatch")
    image = {c: s1.cone_image[mid] for c, mid in s2.cone_image.items()}
    return Subdivision(s1.base, s2.refined, image, s1.warnings + s2.warnings)


# -- stellar subdivision --------------------------------------------------


def stellar_at_point(c: ConeComplex, v: Sequence[int]) -> Subdivision:
    """Insert primitive(v) as a ray, star-subdividing the cones around it."""
    v = tuple(int(x) for x in v)
    if is_zero(v):
        raise ComplexError("cannot subdivide at the zero vector")
    w = primitive(v)
    refined = _star(c, w)
    warnings = (f"point {w} is already a ray",) if refined is c else ()
    return make_subdivision(c, refined, warnings)


def _star(c: ConeComplex, w: IntVector) -> ConeComplex:
    """c star-subdivided at the primitive vector w; c itself if w is a ray."""
    home = minimal_containing_cone(c, w)
    if home is None:
        raise ComplexError(f"point {w} lies outside the support")
    if len(home) == 1:
        return c
    rays = list(c.rays) + [w]
    new_id = len(c.rays)
    new_cones: list[frozenset[int]] = []
    for mc in c.max_cones:
        cone = frozenset(mc)
        if home <= cone:
            for i in home:
                new_cones.append((cone - {i}) | {new_id})
        else:
            new_cones.append(cone)
    return ConeComplex._refinement(c.ambient_dim, rays, new_cones)


def stellar(c: ConeComplex, sigma: Cone) -> Subdivision:
    """Star subdivision at the barycentric ray of the cone sigma."""
    sigma = frozenset(sigma)
    if not c.has_cone(sigma) or len(sigma) == 0:
        raise ComplexError(f"{sorted(sigma)} is not a positive-dimensional cone")
    if len(sigma) == 1:
        warning = "stellar subdivision at a ray is the identity"
        return make_subdivision(c, c, (warning,))
    return stellar_at_point(c, c.barycenter(sigma))


# -- V-representation helpers ---------------------------------------------


def halfspace_description(
    gens: Sequence[IntVector],
) -> tuple[list[IntVector], list[IntVector]]:
    """(inequality rows, equality rows) cutting out the simplicial cone.

    Inequality rows are the integer rows adj(U U^T) U, det(U U^T) > 0 times
    the barycentric functionals (U U^T)^{-1} U; equality rows are
    independent integer rows vanishing exactly on the span.
    """
    if not gens:
        return [], []
    kern = cone_kernel(tuple(gens), len(gens[0]))
    return list(kern.dual), list(kern.eqs)


def _slice_rays(
    rays: list[IntVector], h: IntVector, side: int
) -> list[IntVector]:
    """Extreme-ray candidates of cone(rays) cut by h >= 0 / <= 0 / = 0."""
    vals = {r: vec_dot(h, r) for r in rays}
    if side == 0:
        kept = [r for r in rays if vals[r] == 0]
    elif side > 0:
        kept = [r for r in rays if vals[r] >= 0]
    else:
        kept = [r for r in rays if vals[r] <= 0]
    out = list(kept)
    for a, b in combinations(rays, 2):
        va, vb = vals[a], vals[b]
        if (va > 0 and vb < 0) or (va < 0 and vb > 0):
            if va < 0:
                (a, va), (b, vb) = (b, vb), (a, va)
            cut = primitive(tuple(va * y - vb * x for x, y in zip(a, b)))
            if cut not in out:
                out.append(cut)
    return out


def extreme_filter(rays: list[IntVector]) -> list[IntVector]:
    """Drop rays expressible as nonnegative combinations of the others."""
    rays = sorted(set(rays))
    out = []
    for i, r in enumerate(rays):
        others = [s for j, s in enumerate(rays) if j != i]
        if not others:
            out.append(r)
            continue
        sys = LinearSystem(len(others))
        k = len(r)
        for coord in range(k):
            sys.add_eq([s[coord] for s in others], r[coord])
        for v in range(len(others)):
            unit = [0] * len(others)
            unit[v] = 1
            sys.add_ge(unit, 0)
        if fm_feasible(sys) is None:
            out.append(r)
    return out


def intersect_simplicial(
    gens1: Sequence[IntVector], gens2: Sequence[IntVector]
) -> list[IntVector]:
    """Extreme rays of the intersection of two simplicial cones."""
    if not gens1 or not gens2:
        return []
    lam2, eqs2 = halfspace_description(gens2)
    rays = list(gens1)
    for e in eqs2:
        rays = _slice_rays(rays, e, 0)
        if not rays:
            return []
    for l in lam2:
        rays = _slice_rays(rays, l, 1)
        if not rays:
            return []
    return extreme_filter(rays)


def triangulate_cone(rays: list[IntVector]) -> list[tuple[IntVector, ...]]:
    """Split a pointed cone (given by extreme rays) into simplicial cones.

    Simplicial input passes through; otherwise the rays are put in cyclic
    order around the interior axis a = sum of the rays, by the sign of
    det(a, u, v) on three coordinates onto which the span projects
    isomorphically, and fanned out from the lexicographically smallest ray.
    Cones of dimension 4 and above with non-simplicial shape are out of scope.
    """
    rays = sorted(set(rays))
    if not rays:
        return []
    rank = mat_rank(rays)
    if rank == len(rays):
        return [tuple(rays)]
    if rank > 3:
        raise ComplexError("non-simplicial cones above dimension 3 unsupported")
    if rank < 3:
        raise ComplexError(f"rays {rays} are not extreme in a 3-dimensional cone")
    coords = next(
        c
        for c in combinations(range(len(rays[0])), 3)
        if mat_rank([[r[i] for i in c] for r in rays]) == 3
    )
    proj = {r: [r[i] for i in coords] for r in rays}
    axis = [sum(col) for col in zip(*proj.values())]
    apex = rays[0]

    def turn(u, v) -> int:
        """Sign of det(a, u, v): 1 when v lies less than a half-turn after u."""
        d = det([axis, proj[u], proj[v]])
        return (d > 0) - (d < 0)

    def cmp(u, v) -> int:
        # by half-turn from the apex, (0, pi) before pi before (pi, 2 pi),
        # then by turn within it
        return turn(apex, v) - turn(apex, u) or turn(v, u)

    cyc = sorted(rays[1:], key=cmp_to_key(cmp))
    return [(apex, a, b) for a, b in zip(cyc, cyc[1:])]


def _assemble(ambient_dim: int, pieces: list[tuple[IntVector, ...]]) -> ConeComplex:
    ray_set = sorted({r for piece in pieces for r in piece})
    index = {r: i for i, r in enumerate(ray_set)}
    cones = [frozenset(index[r] for r in piece) for piece in pieces]
    return ConeComplex._refinement(ambient_dim, ray_set, cones)


# -- slicing and refinement -----------------------------------------------


def slice_by_hyperplane(c: ConeComplex, h: Sequence) -> ConeComplex:
    """Refine so that every cone lies on one closed side of h . x = 0."""
    h, _ = _normalize(h, 0)  # integer entries, same hyperplane and sides
    pieces: list[tuple[IntVector, ...]] = []
    for mc in c.max_cones:
        gens = c.generators(frozenset(mc))
        vals = [vec_dot(h, g) for g in gens]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            pieces.append(tuple(gens))
            continue
        # already extreme: kept generators and cuts inside 2-faces of gens
        for side in (1, -1):
            part = _slice_rays(list(gens), h, side)
            if part and mat_rank(part) == mat_rank(gens):
                pieces.extend(triangulate_cone(part))
    return _assemble(c.ambient_dim, pieces)


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
    for mc1 in s1.max_cones:
        gens1 = s1.generators(frozenset(mc1))
        for mc2 in s2.max_cones:
            gens2 = s2.generators(frozenset(mc2))
            xr = intersect_simplicial(gens1, gens2)
            if xr:
                pieces.extend(triangulate_cone(xr))
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

    At each step the worst cone (highest lattice index, ties lexicographic)
    is split at the minimal fundamental-parallelepiped lattice point, read
    off one Smith reduction of its generators in O(index) points; the pair
    (max index, number of attaining cones) strictly decreases.
    """
    return make_subdivision(c, _resolve(c))


def _resolve(current: ConeComplex) -> ConeComplex:
    mults: dict[tuple[IntVector, ...], int] = {}  # by generator tuple
    while True:
        worst, worst_mult = None, 1
        for mc in current.max_cones:
            gens = tuple(current.generators(frozenset(mc)))
            if gens not in mults:
                mults[gens] = lattice_index(gens) if gens else 1
            if mults[gens] > worst_mult:
                worst, worst_mult = gens, mults[gens]
        if worst is None:
            return current
        current = _star(current, _parallelepiped_witness(worst))


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
    current = target
    if rank > 2:
        for pair in combinations(range(1, target.ambient_dim + 1), 2):
            proj = coordinate_projection(target, pair)
            proj_slopes = []
            for s in slope_list:
                img = proj.project_point(s)
                if not is_zero(img):
                    proj_slopes.append(primitive(img))
            img_sub = sensitize(proj.image, proj_slopes)
            i1, i2 = pair[0] - 1, pair[1] - 1
            for r in img_sub.refined.rays:
                h = [0] * target.ambient_dim
                h[i1], h[i2] = r[1], -r[0]
                if any(x != 0 for x in h):
                    current = slice_by_hyperplane(current, h)
    for s in slope_list:
        current = _star(current, s)
    return make_subdivision(target, _resolve(current))
