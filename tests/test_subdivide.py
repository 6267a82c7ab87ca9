import collections
import random
from fractions import Fraction
from itertools import product

import pytest

from tropi.cones import (
    ORIGIN,
    ComplexError,
    ConeComplex,
    angular_sorted,
    build_snc_tropicalization,
    minimal_containing_cone,
)
from tropi.feasibility import LinearSystem, fm_feasible
from tropi.linalg import (
    LinAlgError,
    det,
    is_unimodular,
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
