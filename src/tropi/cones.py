"""Simplicial rational cone complexes embedded in R^k.

A complex stores a table of primitive integer ray vectors and a set of
maximal cones, each a frozenset of ray indices.  Every subset of a cone's
generators is implicitly a face, so only maximal cones are stored.  The
pairwise condition (any two cones intersect in a common face) is validated
exactly by the public constructor, where a complex enters the program; the
refinements that `tropi.subdivide` builds are fans by construction and skip it.

Two simplicial cones meet exactly through ``intersect_simplicial``: the
double description method (Fukuda and Prodon, "Double description method
revisited", 1996), which cuts one cone by the other's integer kernel rows and
keeps the extreme rays after every cut by a combinatorial test on the walls
through each ray.  The pair check of validation and `tropi.subdivide`'s
common refinement both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from itertools import combinations
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .linalg import (
    IntVector,
    QVector,
    fraction_free_solve,
    is_zero,
    mat_rank,
    primitive,
    vec_dot,
)

Cone = frozenset[int]

ORIGIN: Cone = frozenset()


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class ConeKernel:
    """Exact barycentric coordinates over one simplicial cone's generators.

    With U the g generator rows in R^k and G = U U^T, ``dual`` holds the
    integer rows adj(G) U and ``denom`` is det(G) > 0, so a point p of the
    span has coordinates dual . p / denom.  ``eqs`` holds k - g independent
    integer rows of denom I - U^T dual; they vanish exactly on the span.
    """

    dual: tuple[IntVector, ...]
    denom: int
    eqs: tuple[IntVector, ...]

    def numerators(self, p: Sequence) -> Optional[tuple]:
        """dual . p (the coordinates times denom), or None off the span."""
        if len(p) != len(self.dual) + len(self.eqs):
            raise ComplexError(f"point {tuple(p)} has the wrong dimension")
        for e in self.eqs:
            if sum(map(mul, e, p)) != 0:
                return None
        return tuple(sum(map(mul, row, p)) for row in self.dual)


@lru_cache(maxsize=1 << 16)
def cone_kernel(gens: tuple[IntVector, ...], ambient_dim: int) -> ConeKernel:
    """The kernel of the cone spanned by gens.

    Raises ComplexError when the generators are linearly dependent.
    """
    gram = [[vec_dot(u, v) for v in gens] for u in gens]
    denom, dual = fraction_free_solve(gram, gens)
    if denom == 0:
        raise ComplexError(
            f"generators {list(gens)} are linearly dependent (not simplicial)"
        )
    eqs: list[IntVector] = []
    for r in range(ambient_dim):
        if len(eqs) == ambient_dim - len(gens):
            break
        row = tuple(
            denom * (r == s) - sum(u[r] * d[s] for u, d in zip(gens, dual))
            for s in range(ambient_dim)
        )
        if mat_rank(eqs + [row]) > len(eqs):
            eqs.append(row)
    return ConeKernel(tuple(map(tuple, dual)), denom, tuple(eqs))


@dataclass(frozen=True)
class ConeComplex:
    ambient_dim: int
    rays: tuple[IntVector, ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __init__(
        self,
        ambient_dim: int,
        rays: Iterable[Sequence[int]],
        max_cones: Iterable[Iterable[int]],
    ):
        self._canonicalize(ambient_dim, rays, max_cones)
        self._validate()

    @classmethod
    def _refinement(cls, ambient_dim, rays, max_cones) -> ConeComplex:
        """Canonicalise without the pairwise check (subdivide's refinements)."""
        self = object.__new__(cls)
        self._canonicalize(ambient_dim, rays, max_cones)
        return self

    def _canonicalize(self, ambient_dim, rays, max_cones) -> None:
        ray_list = [tuple(int(x) for x in r) for r in rays]
        cone_list = [frozenset(c) for c in max_cones]
        for r in ray_list:
            if len(r) != ambient_dim:
                raise ComplexError(f"ray {r} has wrong dimension")
            if is_zero(r) or primitive(r) != r:
                raise ComplexError(f"ray {r} is not primitive")
        if len(set(ray_list)) != len(ray_list):
            raise ComplexError("duplicate rays")
        # canonical order: rays sorted lexicographically
        order = sorted(range(len(ray_list)), key=lambda i: ray_list[i])
        new_index = {old: new for new, old in enumerate(order)}
        canon_rays = tuple(ray_list[i] for i in order)
        if any(i not in new_index for c in cone_list for i in c):
            raise ComplexError("cone refers to a missing ray")
        remapped = [frozenset(new_index[i] for i in c) for c in cone_list]
        # dedupe, then drop cones inside another (none of the largest size is)
        distinct = set(remapped)
        top = max(map(len, distinct), default=0)
        maximal = [
            c
            for c in distinct
            if len(c) == top or not any(c < other for other in distinct)
        ]
        if not maximal:
            maximal = [ORIGIN]
        canon_cones = tuple(sorted(tuple(sorted(c)) for c in maximal))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rays", canon_rays)
        object.__setattr__(self, "max_cones", canon_cones)

    @cached_property
    def max_kernels(self) -> dict[Cone, ConeKernel]:
        """The kernel of each maximal cone, in ``max_cones`` order, built on
        first use.  Not a field: equality, hashing and serialization ignore it."""
        return {
            frozenset(mc): cone_kernel(tuple(self.generators(mc)), self.ambient_dim)
            for mc in self.max_cones
        }

    def _validate(self) -> None:
        # every kernel first: dependent generators fail before any pair does
        cones = list(self.max_kernels)
        for a in range(len(cones)):
            for b in range(a + 1, len(cones)):
                if not self._pair_is_common_face(cones[a], cones[b]):
                    raise ComplexError(
                        f"cones {sorted(cones[a])} and {sorted(cones[b])} "
                        "do not intersect in a common face"
                    )

    def _pair_is_common_face(self, c1: Cone, c2: Cone) -> bool:
        """True iff c1 and c2 intersect exactly in the common-generator face:
        every extreme ray of their intersection is a common generator."""
        common = set(self.generators(c1 & c2))
        meet = intersect_simplicial(self.generators(c1), self.generators(c2))
        return common.issuperset(meet)

    # -- queries ---------------------------------------------------------

    def cones(self) -> Iterator[Cone]:
        """All cones of the complex (faces of maximal cones), origin included."""
        seen: set[Cone] = set()
        for mc in self.max_cones:
            mc = tuple(mc)
            for mask in range(1 << len(mc)):
                face = frozenset(mc[i] for i in range(len(mc)) if mask >> i & 1)
                if face not in seen:
                    seen.add(face)
                    yield face
        if ORIGIN not in seen:
            yield ORIGIN

    def has_cone(self, c: Cone) -> bool:
        return any(c <= frozenset(mc) for mc in self.max_cones)

    def generators(self, c: Cone) -> list[IntVector]:
        return [self.rays[i] for i in sorted(c)]

    def kernel(self, c: Cone) -> ConeKernel:
        kern = self.max_kernels.get(c)
        if kern is None:
            kern = cone_kernel(tuple(self.generators(c)), self.ambient_dim)
        return kern

    def cone_coords(self, c: Cone, p: Sequence) -> Optional[QVector]:
        """Barycentric coordinates of p over c's generators, if p lies in c."""
        kern = self.kernel(c)
        nums = kern.numerators(p)
        if nums is None or any(x < 0 for x in nums):
            return None
        return tuple(Fraction(x, kern.denom) for x in nums)

    def barycenter(self, c: Cone) -> IntVector:
        gens = self.generators(c)
        return tuple(sum(g[r] for g in gens) for r in range(self.ambient_dim))


# -- exact intersection of simplicial cones -------------------------------


def _slice_rays(
    rays: list[IntVector], h: IntVector, side: int
) -> list[IntVector]:
    """Extreme-ray candidates of cone(rays) cut by h >= 0 / <= 0 / = 0."""
    vals = {r: vec_dot(h, r) for r in rays}
    out = [r for r in rays if (side * vals[r] >= 0 if side else vals[r] == 0)]
    for a, b in combinations(rays, 2):
        va, vb = vals[a], vals[b]
        if va * vb < 0:  # the cut |va| b + |vb| a lies on h
            cut = primitive(tuple(abs(va) * y + abs(vb) * x for x, y in zip(a, b)))
            if cut not in out:
                out.append(cut)
    return out


def extreme_filter(rays: list[IntVector], walls: Sequence[IntVector]) -> list:
    """The extreme rays of cone(rays), sorted.

    walls are integer functionals >= 0 on the cone, among them a normal of
    every facet, so the walls that vanish at a ray cut out its least face.
    A ray is extreme iff no other ray's zero set contains its own.
    """
    rays = sorted(set(rays))
    zeros = [
        sum(1 << i for i, w in enumerate(walls) if vec_dot(w, r) == 0) for r in rays
    ]
    return [r for r, z in zip(rays, zeros) if sum(y & z == z for y in zeros) == 1]


def intersect_simplicial(
    gens1: Sequence[IntVector], gens2: Sequence[IntVector]
) -> list[IntVector]:
    """Extreme rays of the intersection of two simplicial cones, sorted.

    cone(gens1) is cut by each of gens2's kernel rows, and the candidates
    are filtered after every cut on gens1's dual rows and the dual rows
    applied so far, so they never outgrow the extreme rays of one cut.
    """
    if not gens1 or not gens2:
        return []
    k = len(gens1[0])
    kern = cone_kernel(tuple(gens2), k)
    walls = cone_kernel(tuple(gens1), k).dual
    rays = list(gens1)
    for h, side in [(e, 0) for e in kern.eqs] + [(l, 1) for l in kern.dual]:
        if side:
            walls += (h,)
        rays = extreme_filter(_slice_rays(rays, h, side), walls)
        if not rays:
            break
    return rays


def locate(c: ConeComplex, p: Sequence) -> Optional[tuple]:
    """(ray ids, coordinate numerators, denominator) of p over the first
    maximal cone containing it, or None outside the support.

    These are p's fan coordinates: ray ids[i] has coefficient
    numerators[i] / denominator, and every other ray has 0."""
    return first_containing(zip(c.max_cones, c.max_kernels.values()), p)


def first_containing(cones: Iterable[tuple], p: Sequence) -> Optional[tuple]:
    """locate's scan over any (key, kernel) pairs: (key, numerators, denom)."""
    for ids, kern in cones:
        nums = kern.numerators(p)
        if nums is not None and all(x >= 0 for x in nums):
            return ids, nums, kern.denom
    return None


def minimal_containing_cone(c: ConeComplex, p: Sequence) -> Optional[Cone]:
    """The unique cone whose relative interior contains p, or None."""
    hit = locate(c, p)
    if hit is None:
        return None
    ids, nums, _ = hit
    return frozenset(i for i, x in zip(ids, nums) if x > 0)


def build_snc_tropicalization(
    k: int, strata: Iterable[Iterable[int]]
) -> ConeComplex:
    """Fan in R^k with rays e_1..e_k and one cone per stratum subset.

    Strata are 1-based subsets of {1..k}, closed under nonempty subsets,
    with all singletons present.
    """
    sets = [frozenset(s) for s in strata]
    pool = set(sets)
    for s in sets:
        if not s:
            raise ComplexError("empty stratum subset not allowed")
        if any(i < 1 or i > k for i in s):
            raise ComplexError(f"stratum {sorted(s)} out of range")
        for i in s:
            sub = s - {i}
            if sub and sub not in pool:
                raise ComplexError(
                    f"strata not downward-closed: missing {sorted(sub)}"
                )
    for i in range(1, k + 1):
        if frozenset([i]) not in pool:
            raise ComplexError(f"missing singleton stratum {{{i}}}")
    rays = [tuple(1 if r == i else 0 for r in range(k)) for i in range(k)]
    cones = [frozenset(i - 1 for i in s) for s in sets]
    return ConeComplex(k, rays, cones)


# -- piecewise linear functions -----------------------------------------


@dataclass(frozen=True)
class PLFunction:
    complex: ConeComplex
    ray_values: tuple[Fraction, ...]

    def __init__(self, complex: ConeComplex, ray_values: Sequence):
        vals = tuple(Fraction(v) for v in ray_values)
        if len(vals) != len(complex.rays):
            raise ComplexError("one value per ray required")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "ray_values", vals)


def evaluate_pl(f: PLFunction, p: Sequence) -> Fraction:
    hit = locate(f.complex, p)
    if hit is None:
        raise ComplexError(f"point {tuple(p)} outside the support")
    ids, nums, denom = hit
    return sum((x * f.ray_values[i] for i, x in zip(ids, nums)), Fraction(0)) / denom


# -- coordinate projections ---------------------------------------------


def _cross(u: Sequence, v: Sequence):
    return u[0] * v[1] - u[1] * v[0]


def angular_sorted(items: list, point=lambda v: v) -> list:
    """Items sorted by the angle of point(item) in the plane, counterclockwise
    starting from the +x axis."""

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def cmp(a, b):
        u, v = point(a), point(b)
        if half(u) != half(v):
            return half(u) - half(v)
        cross = _cross(u, v)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    return sorted(items, key=cmp_to_key(cmp))


def _in_sector(rays: list, p: Sequence) -> bool:
    """True iff p lies in the plane cone spanned by rays: some pair of them
    spans p (Caratheodory in the plane)."""
    for u, v in combinations(rays, 2):
        d = _cross(u, v)
        if d and _cross(p, v) * d >= 0 and _cross(u, p) * d >= 0:
            return True
    return False


@dataclass(frozen=True)
class CoordinateProjection:
    """Descriptor of the map R^k -> R^I dropping the other coordinates."""

    source: ConeComplex
    coords: tuple[int, ...]  # 0-based coordinate indices, sorted
    image: ConeComplex
    cone_images: dict[tuple[int, ...], tuple[int, ...]]

    def project_point(self, p: Sequence) -> tuple:
        return tuple(p[i] for i in self.coords)


def coordinate_projection(c: ConeComplex, I: Iterable[int]) -> CoordinateProjection:
    """Project onto the 1-based coordinate subset I; records cone images."""
    idx = sorted(set(I))
    if not idx:
        raise ComplexError("empty coordinate subset")
    if any(i < 1 or i > c.ambient_dim for i in idx):
        raise ComplexError(f"coordinate subset {idx} out of range")
    coords = tuple(i - 1 for i in idx)
    d = len(coords)

    def proj(v: IntVector) -> tuple[int, ...]:
        return tuple(v[i] for i in coords)

    image_rays: set[IntVector] = set()
    image_cones: list[frozenset[IntVector]] = []
    sectors: list[list[IntVector]] = []  # 2D images, cut into cones below
    per_source: dict[tuple[int, ...], tuple[IntVector, ...]] = {}
    for mc in c.max_cones:
        imgs = [proj(c.rays[i]) for i in mc]
        prims: list[IntVector] = []
        for v in imgs:
            if not is_zero(v):
                pv = primitive(v)
                if pv not in prims:
                    prims.append(pv)
        if not prims:
            per_source[mc] = ()
            continue
        if d == 1 or len(prims) == 1:
            for v in prims:
                image_rays.add(v)
                image_cones.append(frozenset([v]))
            per_source[mc] = tuple(sorted(prims))
            continue
        if d == 2:
            span_rank = mat_rank(prims)
            if span_rank == 1:
                v = prims[0]
                image_rays.add(v)
                image_cones.append(frozenset([v]))
                per_source[mc] = (v,)
                continue
            image_rays.update(prims)
            sectors.append(prims)
            # the extreme rays bound the one gap of at least a half-turn
            ordered = angular_sorted(prims)
            gaps = (i for i, u in enumerate(ordered) if _cross(ordered[i - 1], u) <= 0)
            i = next(gaps, 0)
            per_source[mc] = (ordered[i], ordered[i - 1])
            continue
        # higher-dimensional image: only simplicial images are supported
        if mat_rank(prims) != len(prims):
            raise ComplexError(
                "projection produces a non-simplicial image cone; only "
                "rank <= 2 images are supported in general"
            )
        image_rays.update(prims)
        image_cones.append(frozenset(prims))
        per_source[mc] = tuple(sorted(prims))

    if sectors:
        # one cone per pair of angularly adjacent image rays inside a sector,
        # so no image ray lies inside a cone and overlapping sectors merge
        ordered = angular_sorted(list(image_rays))
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            mid = (a[0] + b[0], a[1] + b[1])
            if _cross(a, b) > 0 and any(_in_sector(s, mid) for s in sectors):
                image_cones.append(frozenset([a, b]))
    ray_list = sorted(image_rays)
    img = ConeComplex(
        d,
        ray_list,
        [frozenset(ray_list.index(v) for v in cone) for cone in image_cones],
    )
    cone_images = {
        mc: tuple(sorted(img.rays.index(v) for v in vecs))
        for mc, vecs in per_source.items()
    }
    return CoordinateProjection(c, coords, img, cone_images)
