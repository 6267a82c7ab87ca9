import collections
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from tropi.cones import (
    ORIGIN,
    ComplexError,
    ConeComplex,
    angular_sorted,
    build_snc_tropicalization,
    coordinate_projection,
    minimal_containing_cone,
)
from tropi.feasibility import LinearSystem, _normalize, fm_feasible
from tropi.linalg import (
    LinAlgError,
    det,
    is_unimodular,
    is_zero,
    lattice_index,
    mat_rank,
    primitive,
    solve_rational_system,
    vec_dot,
)
from generators import random_complex
from tropi.subdivide import (
    _parallelepiped_witness,
    _slice_rays,
    common_refinement,
    compose,
    extreme_filter,
    identity_subdivision,
    intersect_simplicial,
    make_subdivision,
    resolve_smooth,
    sensitize,
    slice_by_hyperplane,
    stellar,
    stellar_at_point,
    triangulate_cone,
)


def quadrant():
    return build_snc_tropicalization(2, [{1}, {2}, {1, 2}])


def octant():
    return build_snc_tropicalization(
        3, [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
    )


class TestStellar:
    def test_quadrant_two_cone(self):
        c = quadrant()
        s = stellar(c, frozenset({0, 1}))
        assert set(s.refined.rays) == {(1, 0), (1, 1), (0, 1)}
        assert len(s.refined.max_cones) == 2

    def test_at_ray_is_identity(self):
        c = quadrant()
        s = stellar(c, frozenset({0}))
        assert s.is_identity and s.warnings

    def test_octant_barycentric(self):
        c = octant()
        s = stellar(c, frozenset({0, 1, 2}))
        assert (1, 1, 1) in s.refined.rays
        assert len(s.refined.max_cones) == 3

    def test_not_a_cone(self):
        with pytest.raises(ComplexError):
            stellar(quadrant(), frozenset({0, 5}))

    def test_oracle_star_subdivision(self):
        # cones not containing the center survive untouched
        c = ConeComplex(2, [(1, 0), (1, 1), (0, 1)], [{0, 1}, {1, 2}])
        s = stellar(c, frozenset(c.rays.index(v) for v in [(1, 0), (1, 1)]))
        survivors = [
            frozenset(mc)
            for mc in s.refined.max_cones
            if all(s.refined.rays[i] in [(1, 1), (0, 1)] for i in mc)
        ]
        assert survivors


class TestStellarAtPoint:
    def test_barycentric_point(self):
        a = stellar_at_point(quadrant(), (1, 1))
        b = stellar(quadrant(), frozenset({0, 1}))
        assert a.refined == b.refined

    def test_interior_point(self):
        s = stellar_at_point(quadrant(), (1, 2))
        assert set(s.refined.rays) == {(1, 0), (1, 2), (0, 1)}
        assert len(s.refined.max_cones) == 2

    def test_on_existing_ray(self):
        s = stellar_at_point(quadrant(), (3, 0))
        assert s.is_identity and s.warnings

    def test_outside_support(self):
        with pytest.raises(ComplexError):
            stellar_at_point(quadrant(), (-1, 2))

    def test_reinsertion_finds_ray(self):
        s = stellar_at_point(quadrant(), (2, 3))
        cone = minimal_containing_cone(s.refined, (2, 3))
        assert cone is not None and s.refined.generators(cone) == [(2, 3)]

    def test_non_primitive_input(self):
        s = stellar_at_point(quadrant(), (2, 4))
        assert (1, 2) in s.refined.rays


class TestConeImage:
    def test_images_contain_cones(self):
        s = stellar_at_point(quadrant(), (1, 2))
        for cone, image in s.cone_image.items():
            assert minimal_containing_cone(
                s.base, s.refined.barycenter(cone)
            ) == image

    def test_origin_maps_to_origin(self):
        s = stellar_at_point(quadrant(), (1, 2))
        assert s.cone_image[ORIGIN] == ORIGIN


class TestCompose:
    def test_identity_neutral(self):
        s = stellar_at_point(quadrant(), (1, 2))
        assert compose(identity_subdivision(quadrant()), s).cone_image == s.cone_image
        assert compose(s, identity_subdivision(s.refined)).cone_image == s.cone_image

    def test_two_stellars(self):
        s1 = stellar_at_point(quadrant(), (1, 1))
        s2 = stellar_at_point(s1.refined, (2, 1))
        comp = compose(s1, s2)
        assert len(comp.refined.rays) == 4
        direct = make_subdivision(quadrant(), s2.refined)
        assert comp.cone_image == direct.cone_image

    def test_mismatch(self):
        s = stellar_at_point(quadrant(), (1, 1))
        with pytest.raises(ComplexError):
            compose(s, s)


class TestCommonRefinement:
    def test_two_single_ray_insertions(self):
        a = stellar_at_point(quadrant(), (1, 2)).refined
        b = stellar_at_point(quadrant(), (2, 1)).refined
        r = common_refinement(a, b)
        assert set(r.rays) == {(1, 0), (2, 1), (1, 2), (0, 1)}
        assert len(r.max_cones) == 3

    def test_self_refinement(self):
        c = quadrant()
        assert common_refinement(c, c) == c

    def test_absorbs_refinement(self):
        c = quadrant()
        s = stellar_at_point(c, (1, 1)).refined
        assert common_refinement(c, s) == s
        assert common_refinement(s, c) == s

    def test_unequal_supports(self):
        c = quadrant()
        half = build_snc_tropicalization(2, [{1}, {2}])
        with pytest.raises(ComplexError):
            common_refinement(c, half)

    def test_octant_refinements(self):
        a = stellar_at_point(octant(), (1, 1, 1)).refined
        b = stellar_at_point(octant(), (1, 1, 0)).refined
        r = common_refinement(a, b)
        assert (1, 1, 1) in r.rays and (1, 1, 0) in r.rays
        for mc in r.max_cones:
            assert len(mc) == 3


class TestIntersect:
    def test_disjoint_interiors(self):
        rays = intersect_simplicial([(1, 0), (1, 1)], [(1, 2), (0, 1)])
        assert rays == []

    def test_overlap(self):
        rays = intersect_simplicial([(1, 0), (1, 1)], [(2, 1), (0, 1)])
        assert set(rays) == {(2, 1), (1, 1)}

    def test_common_face(self):
        rays = intersect_simplicial([(1, 0), (1, 1)], [(1, 1), (0, 1)])
        assert rays == [(1, 1)]


class TestTriangulate:
    def test_simplicial_passthrough(self):
        assert triangulate_cone([(1, 0), (0, 1)]) == [((0, 1), (1, 0))]

    def test_non_extreme_rays_rejected(self):
        with pytest.raises(ComplexError, match="not extreme"):
            triangulate_cone([(1, 0), (1, 1), (0, 1)])

    def test_square_cone(self):
        rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        pieces = triangulate_cone(rays)
        assert len(pieces) == 2
        assert all(len(p) == 3 for p in pieces)
        apex = min(map(tuple, map(sorted, [rays])))  # noqa: just sanity
        lex_min = min(rays)
        assert all(lex_min in p for p in pieces)

    @pytest.mark.parametrize(
        "rays",
        [
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],  # interior ray
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)],  # not pointed
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)],  # ray on a face
        ],
    )
    def test_rank_three_precondition_checked(self, rays):
        with pytest.raises(ComplexError, match="not extreme"):
            triangulate_cone(rays)


def _positive_functional(rays):
    """A functional strictly positive on every given ray."""
    k = len(rays[0])
    sys = LinearSystem(k)
    for r in rays:
        sys.add_ge(r, 1)
    h = fm_feasible(sys)
    if h is None:
        raise ComplexError("cone is not pointed")
    return h


def reference_triangulate_cone(rays):
    """The triangulation as it was: the cross-section polygon at a positive
    functional, in Fraction plane coordinates, sorted by angle and fanned
    out from the lexicographically smallest ray."""
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
    basis = []
    for r in rays:
        if mat_rank(basis + [diffs[r]]) == len(basis) + 1:
            basis.append(diffs[r])
        if len(basis) == 2:
            break
    if len(basis) != 2:
        raise ComplexError(f"rays {rays} are not extreme in a 3-dimensional cone")
    matrix = [[basis[0][i], basis[1][i]] for i in range(len(h))]
    plane = {}
    for r in rays:
        sol = solve_rational_system(matrix, list(diffs[r]))
        if sol is None:
            raise ComplexError(f"ray {r} is off the cross-section plane")
        plane[r] = (sol.vector[0], sol.vector[1])

    cyc = angular_sorted(rays, plane.__getitem__)
    start = cyc.index(min(cyc))
    cyc = cyc[start:] + cyc[:start]
    apex = cyc[0]
    return [(apex, a, b) for a, b in zip(cyc[1:], cyc[2:])]


def _simplices(triangulate, rays):
    """The triangulation as a set of ray sets, or the error message."""
    try:
        return {frozenset(piece) for piece in triangulate(rays)}
    except ComplexError as exc:
        return str(exc)


class TestTriangulateAgainstReference:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_sliced_pieces(self, k):
        """Pieces that _slice_rays cuts from seeded simplicial cones, on all
        three sides of a seeded hyperplane, triangulate into the same
        simplices or fail with the same error.  A two-ray piece with the
        sum of its rays added is a non-extreme input."""
        rng = random.Random(80 + k)
        results = collections.Counter()
        drawn = 0
        while drawn < 600:
            g = rng.randint(2, k)
            gens = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(g)]
            if not all(map(any, gens)) or mat_rank(gens) < g:
                continue
            gens = sorted({primitive(u) for u in gens})
            if len(gens) < g:
                continue
            h = tuple(rng.randint(-3, 3) for _ in range(k))
            for side in (1, 0, -1):
                pieces = [_slice_rays(gens, h, side)]
                if len(pieces[0]) == 2:
                    middle = primitive(tuple(map(sum, zip(*pieces[0]))))
                    pieces.append(pieces[0] + [middle])
                for piece in pieces:
                    got = _simplices(triangulate_cone, piece)
                    assert got == _simplices(reference_triangulate_cone, piece)
                    if isinstance(got, str):
                        results[got.split()[-1]] += 1
                    else:
                        results[len(got) > 1] += 1
            drawn += 1
        assert results[True] >= 120  # non-simplicial pieces triangulated
        assert results[False] >= 800
        assert results["cone"] >= 250  # "... not extreme in a 3-dimensional cone"
        if k > 3:
            assert results["unsupported"] >= 150  # "... above dimension 3 unsupported"


class TestSliceByHyperplane:
    def test_splits_quadrant(self):
        c = slice_by_hyperplane(quadrant(), (1, -1))
        assert (1, 1) in c.rays
        assert len(c.max_cones) == 2

    def test_no_op_when_one_sided(self):
        c = slice_by_hyperplane(quadrant(), (1, 1))
        assert c == quadrant()

    def test_rational_normal(self):
        h = (Fraction(1, 2), Fraction(-1, 3))
        assert slice_by_hyperplane(octant(), h + (0,)) == slice_by_hyperplane(
            octant(), (3, -2, 0)
        )
        with pytest.raises(TypeError):
            slice_by_hyperplane(quadrant(), (0.5, -1))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_slice_rays_of_simplicial_cone_are_extreme(self, k):
        """Kept generators and 2-face cuts of a simplicial cone are already
        the extreme rays of each slice, so no extreme filter is needed."""
        rng = random.Random(40 + k)
        drawn = 0
        while drawn < 300:
            g = rng.randint(1, k)
            gens = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(g)]
            if not all(map(any, gens)) or mat_rank(gens) < g:
                continue
            gens = sorted({primitive(u) for u in gens})
            if len(gens) < g:
                continue
            h = tuple(rng.randint(-3, 3) for _ in range(k))
            for side in (1, 0, -1):
                rays = _slice_rays(gens, h, side)
                assert sorted(rays) == extreme_filter(rays)
            drawn += 1


class TestResolveSmooth:
    def test_already_smooth(self):
        s = resolve_smooth(quadrant())
        assert s.is_identity

    def test_index_two_cone(self):
        base = ConeComplex(2, [(1, 0), (1, 2)], [{0, 1}])
        s = resolve_smooth(base)
        assert (1, 1) in s.refined.rays
        for mc in s.refined.max_cones:
            assert is_unimodular(s.refined.generators(frozenset(mc)))

    def test_quadrant_with_slope_rays(self):
        c = stellar_at_point(quadrant(), (1, 2)).refined
        c = stellar_at_point(c, (2, 1)).refined
        s = resolve_smooth(c)
        assert set(s.refined.rays) == {(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)}
        rays_sorted = sorted(s.refined.rays, key=lambda v: (v[1], -v[0]))
        for a, b in zip(rays_sorted, rays_sorted[1:]):
            assert abs(det([list(a), list(b)])) == 1

    def test_three_dim(self):
        base = ConeComplex(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [{0, 1, 2}])
        s = resolve_smooth(base)
        for mc in s.refined.max_cones:
            assert is_unimodular(s.refined.generators(frozenset(mc)))

    def test_index_two_hundred(self):
        base = ConeComplex(2, [(1, 0), (1, 200)], [{0, 1}])
        s = resolve_smooth(base)
        assert len(s.refined.rays) == 201
        for mc in s.refined.max_cones:
            assert is_unimodular(s.refined.generators(frozenset(mc)))


def _searched_witness(gens):
    """The parallelepiped witness by search over all m^g coefficient tuples."""
    m = lattice_index(gens)
    k = len(gens[0])
    best = None
    for coeffs in product([Fraction(n, m) for n in range(m)], repeat=len(gens)):
        point = tuple(sum(c * u[r] for c, u in zip(coeffs, gens)) for r in range(k))
        if any(coeffs) and all(x.denominator == 1 for x in point):
            key = (sum(coeffs), coeffs)
            if best is None or key < best[0]:
                best = key, tuple(int(x) for x in point)
    return primitive(best[1])


class TestParallelepipedWitness:
    @pytest.mark.parametrize("k, g", [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
    def test_matches_search(self, k, g):
        rng = random.Random(100 * k + g)
        drawn = 0
        while drawn < 25:
            gens = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(g)]
            if not all(map(any, gens)):
                continue
            gens = [primitive(u) for u in gens]
            try:
                m = lattice_index(gens)
            except LinAlgError:
                continue
            # m^g bounds the search
            if 1 < m and m**g <= 2000:
                assert _parallelepiped_witness(gens) == _searched_witness(gens)
                drawn += 1

    def test_unimodular_cone_rejected(self):
        with pytest.raises(ComplexError):
            _parallelepiped_witness([(1, 0), (1, 1)])


class TestSensitize:
    def test_golden_quadrant(self):
        s = sensitize(quadrant(), [(1, 2), (2, 1)])
        assert set(s.refined.rays) == {(1, 0), (2, 1), (1, 1), (1, 2), (0, 1)}
        assert len(s.refined.max_cones) == 4
        for mc in s.refined.max_cones:
            assert is_unimodular(s.refined.generators(frozenset(mc)))

    def test_slopes_on_existing_rays(self):
        s = sensitize(quadrant(), [(1, 0), (0, 3)])
        assert s.is_identity

    def test_empty_slopes_smooth_target(self):
        s = sensitize(quadrant(), [])
        assert s.is_identity

    def test_outside_support(self):
        with pytest.raises(ComplexError):
            sensitize(quadrant(), [(-1, 1)])

    def test_idempotent(self):
        s = sensitize(quadrant(), [(1, 2), (2, 1)])
        again = sensitize(s.refined, [(1, 2), (2, 1)])
        assert again.is_identity

    def test_higher_rank_contains_slopes(self):
        s = sensitize(octant(), [(1, 2, 0), (0, 1, 1)])
        for slope in [(1, 2, 0), (0, 1, 1)]:
            assert slope in s.refined.rays
        for mc in s.refined.max_cones:
            assert is_unimodular(s.refined.generators(frozenset(mc)))


class TestSupportPreservation:
    def test_sampled_points(self):
        rng = random.Random(7)
        s = sensitize(quadrant(), [(1, 2), (2, 1)])
        for _ in range(200):
            p = (
                Fraction(rng.randint(0, 40), rng.randint(1, 7)),
                Fraction(rng.randint(0, 40), rng.randint(1, 7)),
            )
            cone = minimal_containing_cone(s.refined, p)
            assert cone is not None
            image = s.cone_image[cone]
            assert s.base.cone_coords(image, p) is not None


def _in_support_point(rng, fan):
    """A nonzero integer point of a random maximal cone of fan."""
    gens = fan.generators(frozenset(rng.choice(fan.max_cones)))
    weights = [0] * len(gens)
    while not any(weights):
        weights = [rng.randint(0, 3) for _ in gens]
    return tuple(
        sum(w * g[r] for w, g in zip(weights, gens))
        for r in range(fan.ambient_dim)
    )


def _seeded_draws():
    """24 seeded 2D/3D fans, each with two points of its support, a cone of
    dimension >= 2 to star (None if there is none) and a hyperplane."""
    rng = random.Random(2024)
    for i in range(24):
        fan = random_complex(rng, 2 + i % 2)
        p, q = _in_support_point(rng, fan), _in_support_point(rng, fan)
        big = [frozenset(c) for c in fan.max_cones if len(c) >= 2]
        sigma = rng.choice(big) if big else None
        h = [rng.randint(-2, 2) for _ in range(fan.ambient_dim)]
        yield fan, p, q, sigma, h


def _refined_3d(fan) -> bool:
    return fan.ambient_dim == 3 and len(fan.rays) > 3


class TestRefinementsAreValidComplexes:
    """Subdivisions skip the pairwise common-face check of ConeComplex; the
    public constructor is the oracle that their outputs would pass it."""

    def test_rebuild_through_public_constructor(self):
        checked = 0
        for fan, p, q, sigma, h in _seeded_draws():
            a = stellar_at_point(fan, p).refined
            b = stellar_at_point(fan, q).refined
            outs = [fan, a, b, common_refinement(a, b), resolve_smooth(a).refined]
            if sigma is not None:
                outs.append(stellar(fan, sigma).refined)
            if any(h):
                outs.append(slice_by_hyperplane(fan, h))
            outs.append(sensitize(fan, []).refined)
            # slopes on a refined 3D fan give refinements of up to ~250 rays,
            # whose pairwise FM rebuild takes minutes in all;
            # test_slopes_on_refined_3d_fans sensitizes those draws without it
            if not _refined_3d(fan):
                outs.append(sensitize(fan, [p, q]).refined)
            for out in outs:
                assert ConeComplex(out.ambient_dim, out.rays, out.max_cones) == out
                checked += 1
        assert checked > 150

    def test_slopes_on_refined_3d_fans(self):
        drawn = 0
        for fan, p, q, _, _ in _seeded_draws():
            if not _refined_3d(fan):
                continue
            refined = sensitize(fan, [p, q]).refined
            assert primitive(p) in refined.rays and primitive(q) in refined.rays
            for mc in refined.max_cones:
                assert is_unimodular(refined.generators(frozenset(mc)))
            drawn += 1
        assert drawn == 9

    def test_pairwise_check_not_reached(self, monkeypatch):
        base = ConeComplex(2, [(1, 0), (1, 7)], [{0, 1}])
        target = octant()

        def fail(self, c1, c2):
            raise AssertionError("pairwise check reached")

        monkeypatch.setattr(ConeComplex, "_pair_is_common_face", fail)
        assert len(resolve_smooth(base).refined.rays) == 8
        s = sensitize(target, [(1, 1, 2), (1, 2, 0)])
        assert (1, 1, 2) in s.refined.rays and (1, 2, 0) in s.refined.rays


# -- the id-based refinements as they were: each step rebuilds the complex --


def reference_star(c, w):
    """c star-subdivided at the primitive vector w; c itself if w is a ray."""
    home = minimal_containing_cone(c, w)
    if home is None:
        raise ComplexError(f"point {w} lies outside the support")
    if len(home) == 1:
        return c
    rays = list(c.rays) + [w]
    new_id = len(c.rays)
    new_cones = []
    for mc in c.max_cones:
        cone = frozenset(mc)
        if home <= cone:
            for i in home:
                new_cones.append((cone - {i}) | {new_id})
        else:
            new_cones.append(cone)
    return ConeComplex._refinement(c.ambient_dim, rays, new_cones)


def reference_resolve(current):
    mults = {}
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
        current = reference_star(current, _parallelepiped_witness(worst))


def reference_stellar_at_point(c, v):
    v = tuple(int(x) for x in v)
    if is_zero(v):
        raise ComplexError("cannot subdivide at the zero vector")
    w = primitive(v)
    refined = reference_star(c, w)
    warnings = (f"point {w} is already a ray",) if refined is c else ()
    return make_subdivision(c, refined, warnings)


def reference_stellar(c, sigma):
    sigma = frozenset(sigma)
    if not c.has_cone(sigma) or len(sigma) == 0:
        raise ComplexError(f"{sorted(sigma)} is not a positive-dimensional cone")
    if len(sigma) == 1:
        warning = "stellar subdivision at a ray is the identity"
        return make_subdivision(c, c, (warning,))
    return reference_stellar_at_point(c, c.barycenter(sigma))


def reference_resolve_smooth(c):
    return make_subdivision(c, reference_resolve(c))


def reference_slice_by_hyperplane(c, h):
    h, _ = _normalize(h, 0)
    pieces = []
    for mc in c.max_cones:
        gens = c.generators(frozenset(mc))
        vals = [vec_dot(h, g) for g in gens]
        if all(v >= 0 for v in vals) or all(v <= 0 for v in vals):
            pieces.append(tuple(gens))
            continue
        for side in (1, -1):
            part = _slice_rays(list(gens), h, side)
            if part and mat_rank(part) == mat_rank(gens):
                pieces.extend(triangulate_cone(part))
    ray_set = sorted({r for piece in pieces for r in piece})
    index = {r: i for i, r in enumerate(ray_set)}
    cones = [frozenset(index[r] for r in piece) for piece in pieces]
    return ConeComplex._refinement(c.ambient_dim, ray_set, cones)


def reference_sensitize(target, slopes):
    slope_list = []
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
            img_sub = reference_sensitize(proj.image, proj_slopes)
            i1, i2 = pair[0] - 1, pair[1] - 1
            for r in img_sub.refined.rays:
                h = [0] * target.ambient_dim
                h[i1], h[i2] = r[1], -r[0]
                if any(x != 0 for x in h):
                    current = reference_slice_by_hyperplane(current, h)
    for s in slope_list:
        current = reference_star(current, s)
    return make_subdivision(target, reference_resolve(current))


def _outcome(f, *args):
    """A comparable record of f(*args): the complex, or the subdivision's
    refined complex, cone images, warnings and whether it returned its
    input complex itself; or the error type and message."""
    try:
        out = f(*args)
    except (ComplexError, LinAlgError) as exc:
        return type(exc), str(exc)
    if isinstance(out, ConeComplex):
        return out, out.rays
    return out.refined, out.refined.rays, out.cone_image, out.warnings, (
        out.refined is out.base
    )


PAIRS = [
    (stellar_at_point, reference_stellar_at_point),
    (stellar, reference_stellar),
    (resolve_smooth, reference_resolve_smooth),
    (slice_by_hyperplane, reference_slice_by_hyperplane),
    (sensitize, reference_sensitize),
]


def _agree(name, *args):
    new, ref = next(pair for pair in PAIRS if pair[0].__name__ == name)
    got = _outcome(new, *args)
    assert got == _outcome(ref, *args), (name, args)
    return got


def _unimodular(rng, k):
    """A seeded integer matrix of determinant +-1 (rows)."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        a = rng.choice([-2, -1, 1, 2])
        m[i] = [x + a * y for x, y in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0] = [-x for x in m[0]]
    return m


def _mapped_cone(rng, gens):
    """The cone on gens moved by a seeded unimodular map."""
    k = len(gens[0])
    m = _unimodular(rng, k)
    images = [tuple(vec_dot(row, u) for row in m) for u in gens]
    return ConeComplex(k, images, [range(len(gens))])


class TestRefinementsAgainstReference:
    """Refinements built on generator tuples equal the id-based ones that
    rebuild the complex after every step."""

    def test_seeded_draws(self):
        for fan, p, q, sigma, h in _seeded_draws():
            a = _agree("stellar_at_point", fan, p)[0]
            _agree("stellar_at_point", fan, q)
            _agree("stellar_at_point", a, q)
            _agree("stellar_at_point", a, p)  # already a ray
            if sigma is not None:
                _agree("stellar", fan, sigma)
            _agree("resolve_smooth", fan)
            _agree("resolve_smooth", a)
            if any(h):
                _agree("slice_by_hyperplane", fan, h)
                _agree("slice_by_hyperplane", a, h)
            _agree("sensitize", fan, [])
            _agree("sensitize", fan, [p, q])

    def test_high_index_cones_under_unimodular_maps(self):
        rng = random.Random(13)
        cones = [[(1, 0), (1, m)] for m in range(1, 61)]
        cones += [[(1, 0, 0), (0, 1, 0), (1, 2, m)] for m in range(1, 6)]
        for gens in cones:
            for _ in range(2):
                c = _mapped_cone(rng, gens)
                sub = _agree("resolve_smooth", c)[0]
                center = c.barycenter(frozenset(range(len(gens))))
                _agree("stellar_at_point", c, center)
                _agree("slice_by_hyperplane", c, [rng.randint(-2, 2) for _ in gens])
                # on the 3D cones sensitize's pulled-back cuts reach lattice
                # indices too large to resolve, at the reference too
                if len(gens) == 2:
                    _agree("sensitize", c, [center, sub.rays[len(sub.rays) // 2]])

    def test_random_3d_cones(self):
        """Cones of index 2-40 whose worst cones tie during resolution, so
        the canonical tie-break decides the refinement."""
        rng = random.Random(5)
        drawn = 0
        while drawn < 150:
            gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3)]
            if not all(map(any, gens)) or mat_rank(gens) < 3:
                continue
            gens = [primitive(u) for u in gens]
            if 2 <= lattice_index(gens) <= 40:
                _agree("resolve_smooth", ConeComplex(3, gens, [range(3)]))
                drawn += 1

    def test_rays_no_cone_uses(self):
        fans = [
            # (1, 3) lies inside the cone, (-1, 1) outside the support
            ConeComplex(2, [(1, 0), (1, 3), (0, 1), (-1, 1)], [{0, 2}]),
            ConeComplex(2, [(1, 0), (1, 5), (-1, 1)], [{0, 1}]),
            ConeComplex(
                3, [(1, 0, 0), (0, 1, 0), (1, 1, 3), (0, 0, 1)], [{0, 1, 2}]
            ),
        ]
        for c in fans:
            for p in [(1, 1), (1, 3), (1, 2), (2, 1, 3), (1, 1, 3), (1, 1, 1)]:
                if len(p) == c.ambient_dim:
                    _agree("stellar_at_point", c, p)
                    _agree("sensitize", c, [p])
            _agree("resolve_smooth", c)
            _agree("sensitize", c, [])
            _agree("slice_by_hyperplane", c, (1, -1) + (0,) * (c.ambient_dim - 2))
        # the unused ray is kept when rays are inserted
        got = _agree("stellar_at_point", fans[1], (1, 1))
        assert (-1, 1) in got[1]

    @pytest.mark.parametrize(
        "slopes", [[(1, 2, 1), (2, 1, 1)], [(1, 2, 3), (3, 1, 2)]]
    )
    def test_octant_pairs(self, slopes):
        got = _agree("sensitize", octant(), slopes)
        assert all(s in got[1] for s in slopes)
