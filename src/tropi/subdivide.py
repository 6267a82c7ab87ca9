"""Subdivisions of cone complexes.

Stellar subdivision at cones and points, hyperplane slicing, common
refinement, resolution to unimodular cones, and the slope-sensitive
subdivision pipeline.  All constructions are deterministic: ties are broken
lexicographically and non-simplicial pieces are triangulated by fanning out
from the lexicographically smallest extreme ray (pulling triangulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Optional, Sequence

from .cones import (
    ComplexError,
    Cone,
    ConeComplex,
    angular_sorted,
    cone_kernel,
    coordinate_projection,
    minimal_containing_cone,
)
from .feasibility import LinearSystem, fm_feasible
from .linalg import (
    IntVector,
    QVector,
    is_zero,
    lattice_index,
    mat_rank,
    primitive,
    solve_rational_system,
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
    home = minimal_containing_cone(c, w)
    if home is None:
        raise ComplexError(f"point {w} lies outside the support")
    if len(home) == 1:
        s = identity_subdivision(c)
        return Subdivision(
            s.base, s.refined, s.cone_image, (f"point {w} is already a ray",)
        )
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
    refined = ConeComplex(c.ambient_dim, rays, new_cones)
    return make_subdivision(c, refined)


def stellar(c: ConeComplex, sigma: Cone) -> Subdivision:
    """Star subdivision at the barycentric ray of the cone sigma."""
    sigma = frozenset(sigma)
    if not c.has_cone(sigma) or len(sigma) == 0:
        raise ComplexError(f"{sorted(sigma)} is not a positive-dimensional cone")
    if len(sigma) == 1:
        s = identity_subdivision(c)
        return Subdivision(
            s.base,
            s.refined,
            s.cone_image,
            ("stellar subdivision at a ray is the identity",),
        )
    return stellar_at_point(c, c.barycenter(sigma))


# -- V-representation helpers ---------------------------------------------


def halfspace_description(
    gens: Sequence[IntVector],
) -> tuple[list[QVector], list[IntVector]]:
    """(inequality rows, equality rows) cutting out the simplicial cone.

    Inequality rows are the barycentric functionals Lambda = (U U^T)^{-1} U,
    exactly; equality rows are independent integer rows vanishing exactly
    on the span.
    """
    if not gens:
        return [], []
    kern = cone_kernel(tuple(gens), len(gens[0]))
    return kern.functionals(), list(kern.eqs)


def _rational_primitive(v: Sequence[Fraction]) -> IntVector:
    denom = 1
    for x in v:
        denom = lcm(denom, x.denominator)
    return primitive(tuple(int(x * denom) for x in v))


def _slice_rays(
    rays: list[IntVector], h: Sequence, side: int
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
            cut = tuple(va * y - vb * x for x, y in zip(a, b))
            cut = _rational_primitive([Fraction(x) for x in cut])
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


def _positive_functional(rays: Sequence[IntVector]) -> QVector:
    """A functional strictly positive on every given ray."""
    k = len(rays[0])
    sys = LinearSystem(k)
    for r in rays:
        sys.add_ge(r, 1)
    h = fm_feasible(sys)
    if h is None:
        raise ComplexError("cone is not pointed")
    return h


def triangulate_cone(rays: list[IntVector]) -> list[tuple[IntVector, ...]]:
    """Split a pointed cone (given by extreme rays) into simplicial cones.

    Simplicial input passes through; otherwise the cross-section polygon is
    fanned out from the lexicographically smallest extreme ray.  Cones of
    dimension 4 and above with non-simplicial shape are out of scope.
    """
    rays = sorted(set(rays))
    if not rays:
        return []
    if mat_rank(rays) == len(rays):
        return [tuple(rays)]
    if mat_rank(rays) > 3:
        raise ComplexError("non-simplicial cones above dimension 3 unsupported")
    h = _positive_functional(rays)
    pts = {r: tuple(Fraction(x) / vec_dot(h, r) for x in r) for r in rays}
    centroid = tuple(
        sum(pts[r][i] for r in rays) / len(rays) for i in range(len(h))
    )
    diffs = {r: tuple(a - b for a, b in zip(pts[r], centroid)) for r in rays}
    basis: list[QVector] = []
    for r in rays:
        if mat_rank(basis + [diffs[r]]) == len(basis) + 1:
            basis.append(diffs[r])
        if len(basis) == 2:
            break
    assert len(basis) == 2
    matrix = [[basis[0][i], basis[1][i]] for i in range(len(h))]
    plane: dict[IntVector, tuple[Fraction, Fraction]] = {}
    for r in rays:
        sol = solve_rational_system(matrix, list(diffs[r]))
        assert sol is not None
        plane[r] = (sol.vector[0], sol.vector[1])

    cyc = angular_sorted(rays, plane.__getitem__)
    start = cyc.index(min(cyc))
    cyc = cyc[start:] + cyc[:start]
    apex = cyc[0]
    return [(apex, a, b) for a, b in zip(cyc[1:], cyc[2:])]


def _assemble(ambient_dim: int, pieces: list[tuple[IntVector, ...]]) -> ConeComplex:
    ray_set = sorted({r for piece in pieces for r in piece})
    index = {r: i for i, r in enumerate(ray_set)}
    cones = [frozenset(index[r] for r in piece) for piece in pieces]
    return ConeComplex(ambient_dim, ray_set, cones)


# -- slicing and refinement -----------------------------------------------


def slice_by_hyperplane(c: ConeComplex, h: Sequence) -> ConeComplex:
    """Refine so that every cone lies on one closed side of h . x = 0."""
    pieces: list[tuple[IntVector, ...]] = []
    for mc in c.max_cones:
        gens = c.generators(frozenset(mc))
        vals = [vec_dot(h, g) for g in gens]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            pieces.append(tuple(gens))
            continue
        for side in (1, -1):
            part = extreme_filter(_slice_rays(list(gens), h, side))
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


def _multiplicity(c: ConeComplex, cone: Cone) -> int:
    gens = c.generators(cone)
    if not gens:
        return 1
    return lattice_index(gens)


def _parallelepiped_witness(gens: list[IntVector]) -> IntVector:
    """Minimal nonzero lattice point of the fundamental parallelepiped.

    Candidates have coefficients in (1/m)Z within [0,1); minimality is by
    total coefficient sum, then lexicographic coefficient order.
    """
    m = lattice_index(gens)
    k = len(gens[0])
    g = len(gens)
    best: Optional[tuple] = None
    best_point: Optional[IntVector] = None

    def rec(i: int, coeffs: list[Fraction]):
        nonlocal best, best_point
        if i == g:
            if all(c == 0 for c in coeffs):
                return
            point = tuple(
                sum(c * gens[j][r] for j, c in enumerate(coeffs))
                for r in range(k)
            )
            if any(x.denominator != 1 for x in point):
                return
            key = (sum(coeffs), tuple(coeffs))
            if best is None or key < best:
                best = key
                best_point = tuple(int(x) for x in point)
            return
        for num in range(m):
            rec(i + 1, coeffs + [Fraction(num, m)])

    rec(0, [])
    assert best_point is not None
    return primitive(best_point)


def resolve_smooth(c: ConeComplex) -> Subdivision:
    """Iterated stellar subdivision until every cone is unimodular.

    At each step the worst cone (highest lattice index, ties lexicographic)
    is split at the minimal fundamental-parallelepiped lattice point; the
    pair (max index, number of attaining cones) strictly decreases.
    """
    current = c
    while True:
        worst: Optional[Cone] = None
        worst_mult = 1
        for mc in current.max_cones:
            cone = frozenset(mc)
            mult = _multiplicity(current, cone)
            if mult > worst_mult:
                worst_mult = mult
                worst = cone
        if worst is None:
            break
        witness = _parallelepiped_witness(current.generators(worst))
        step = stellar_at_point(current, witness)
        assert not step.warnings, "witness landed on an existing ray"
        current = step.refined
    return make_subdivision(c, current)


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
        step = stellar_at_point(current, s)
        current = step.refined
    current = resolve_smooth(current).refined
    return make_subdivision(target, current)
