from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropi.cones import (
    ORIGIN,
    ComplexError,
    ConeComplex,
    PLFunction,
    build_snc_tropicalization,
    cone_kernel,
    coordinate_projection,
    evaluate_pl,
    minimal_containing_cone,
)
from tropi.linalg import (
    det,
    is_unimodular,
    mat_rank,
    primitive,
    solve_rational_system,
    vec_dot,
)
from tropi.subdivide import sensitize, stellar_at_point


def quadrant():
    return build_snc_tropicalization(2, [{1}, {2}, {1, 2}])


def octant():
    return build_snc_tropicalization(
        3, [{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}, {1, 2, 3}]
    )


class TestBuild:
    def test_quadrant(self):
        c = quadrant()
        assert c.ambient_dim == 2
        assert set(c.rays) == {(1, 0), (0, 1)}
        assert len(c.max_cones) == 1 and len(c.max_cones[0]) == 2

    def test_two_rays_no_cone(self):
        c = build_snc_tropicalization(2, [{1}, {2}])
        assert len(c.rays) == 2
        assert all(len(mc) == 1 for mc in c.max_cones)

    def test_octant(self):
        c = octant()
        assert len(c.rays) == 3
        assert c.max_cones == ((0, 1, 2),)

    def test_not_downward_closed(self):
        with pytest.raises(ComplexError, match="1, 2"):
            build_snc_tropicalization(2, [{1}, {2}, {1, 2}, {1, 2, 3}])

    def test_missing_singleton(self):
        with pytest.raises(ComplexError):
            build_snc_tropicalization(2, [{1}])


class TestValidation:
    def test_non_primitive_ray(self):
        with pytest.raises(ComplexError):
            ConeComplex(2, [(2, 4)], [{0}])

    def test_overlapping_cones_rejected(self):
        # cone(e1,e2) and cone((1,1),(1,-1)) overlap interiorly
        with pytest.raises(ComplexError):
            ConeComplex(
                2, [(1, 0), (0, 1), (1, 1), (1, -1)], [{0, 1}, {2, 3}]
            )

    def test_shared_face_accepted(self):
        c = ConeComplex(2, [(1, 0), (1, 1), (0, 1)], [{0, 1}, {1, 2}])
        assert len(c.max_cones) == 2

    def test_dependent_generators(self):
        with pytest.raises(ComplexError):
            ConeComplex(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}])

    def test_canonical_equality(self):
        a = ConeComplex(2, [(0, 1), (1, 0)], [{0, 1}])
        b = ConeComplex(2, [(1, 0), (0, 1)], [{1, 0}])
        assert a == b
        assert hash(a) == hash(b)


class TestMinimalContainingCone:
    def test_interior_point(self):
        c = quadrant()
        assert minimal_containing_cone(c, (1, 2)) == frozenset({0, 1})

    def test_boundary_point(self):
        c = quadrant()
        cone = minimal_containing_cone(c, (3, 0))
        assert cone is not None and c.generators(cone) == [(1, 0)]

    def test_outside_support(self):
        assert minimal_containing_cone(quadrant(), (-1, 0)) is None

    def test_origin(self):
        assert minimal_containing_cone(quadrant(), (0, 0)) == ORIGIN

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 9))
    def test_reexpansion(self, x, y):
        c = ConeComplex(2, [(1, 0), (1, 1), (0, 1)], [{0, 1}, {1, 2}])
        cone = minimal_containing_cone(c, (x, y))
        assert cone is not None
        coords = c.cone_coords(cone, (x, y))
        assert coords is not None and all(lam > 0 for lam in coords)
        gens = c.generators(cone)
        total = [
            sum(lam * g[r] for lam, g in zip(coords, gens)) for r in range(2)
        ]
        assert tuple(total) == (x, y)


class TestPL:
    def test_linear(self):
        c = quadrant()
        vals = [1 if r == (1, 0) else 0 for r in c.rays]
        assert evaluate_pl(PLFunction(c, vals), (2, 3)) == 2

    def test_zero(self):
        c = quadrant()
        assert evaluate_pl(PLFunction(c, [0, 0]), (5, 7)) == 0

    def test_kinked(self):
        c = ConeComplex(2, [(1, 0), (1, 1), (0, 1)], [{0, 1}, {1, 2}])
        vals = [1 if r == (1, 1) else 0 for r in c.rays]
        f = PLFunction(c, vals)
        assert evaluate_pl(f, (1, 1)) == 1
        # (2,1) = 1*(1,0) + 1*(1,1)
        assert evaluate_pl(f, (2, 1)) == 1

    def test_outside_support(self):
        with pytest.raises(ComplexError):
            evaluate_pl(PLFunction(quadrant(), [0, 0]), (-1, -1))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.fractions(min_value=Fraction(1, 3), max_value=5))
    def test_positive_homogeneity(self, x, y, lam):
        c = ConeComplex(2, [(1, 0), (1, 1), (0, 1)], [{0, 1}, {1, 2}])
        f = PLFunction(c, [2, 5, 3])
        p = (Fraction(x), Fraction(y))
        q = (lam * p[0], lam * p[1])
        assert evaluate_pl(f, q) == lam * evaluate_pl(f, p)


class TestProjection:
    def test_octant_to_quadrant(self):
        pr = coordinate_projection(octant(), {1, 2})
        assert pr.image == quadrant()
        assert pr.cone_images[(0, 1, 2)] == tuple(
            sorted([pr.image.rays.index((1, 0)), pr.image.rays.index((0, 1))])
        )

    def test_quadrant_to_ray(self):
        pr = coordinate_projection(quadrant(), {1})
        assert pr.image.rays == ((1,),)
        assert pr.project_point((3, 5)) == (3,)

    def test_origin_images(self):
        c = build_snc_tropicalization(3, [{1}, {2}, {3}, {1, 2}, {2, 3}])
        pr = coordinate_projection(c, {1, 3})
        assert set(pr.image.rays) == {(1, 0), (0, 1)}
        assert all(len(mc) == 1 for mc in pr.image.max_cones)

    def test_out_of_range(self):
        with pytest.raises(ComplexError):
            coordinate_projection(quadrant(), {3})

    def test_sector_across_positive_x_axis(self):
        c = ConeComplex(3, [(1, -1, 0), (1, 0, 1), (1, 1, 0)], [{0, 1, 2}])
        pr = coordinate_projection(c, (1, 2))
        assert pr.image == ConeComplex(
            2, [(1, -1), (1, 0), (1, 1)], [{0, 1}, {1, 2}]
        )
        rays = pr.image.rays
        assert pr.cone_images[(0, 1, 2)] == (rays.index((1, -1)), rays.index((1, 1)))

    def test_overlapping_shadows_of_a_refined_octant(self):
        fan = stellar_at_point(octant(), (1, 1, 1)).refined
        fan = stellar_at_point(fan, (1, 2, 2)).refined
        for pair in ((1, 2), (1, 3), (2, 3)):
            img = coordinate_projection(fan, pair).image
            # no image ray lies strictly inside an image cone
            for r in img.rays:
                cone = minimal_containing_cone(img, r)
                assert cone is not None and len(cone) == 1
        s = sensitize(fan, [])
        assert len(s.refined.rays) == 12
        assert all(
            is_unimodular(s.refined.generators(frozenset(mc)))
            for mc in s.refined.max_cones
        )


class TestCones:
    def test_face_enumeration(self):
        c = quadrant()
        faces = set(c.cones())
        assert ORIGIN in faces
        assert len(faces) == 4

    def test_has_cone(self):
        c = quadrant()
        assert c.has_cone(ORIGIN)
        assert c.has_cone(frozenset({0}))
        assert not c.has_cone(frozenset({5}))


# -- the cone kernel against rational Gaussian elimination ----------------------


@st.composite
def simplicial_gens(draw):
    """Distinct primitive independent integer vectors in dimension 1..4,
    between none and a full basis of them."""
    k = draw(st.integers(1, 4))
    g = draw(st.integers(0, k))
    vec = st.tuples(*[st.integers(-4, 4)] * k).filter(any).map(primitive)
    gens = draw(st.lists(vec, min_size=g, max_size=g, unique=True))
    if gens and mat_rank(gens) != len(gens):
        gens = gens[:0]  # dependent draw: fall back to the origin cone
    return k, tuple(gens)


def _oracle_coords(gens, p):
    """Coordinates of p over gens by rational Gaussian elimination."""
    if not gens:
        return () if not any(p) else None
    matrix = [[u[r] for u in gens] for r in range(len(p))]
    sol = solve_rational_system(matrix, list(p))
    return None if sol is None else sol.vector


point = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


class TestConeKernel:
    @settings(max_examples=150, deadline=None)
    @given(simplicial_gens(), point, point)
    def test_matches_gaussian_elimination(self, kg, coeffs, noise):
        k, gens = kg
        kern = cone_kernel(gens, k)
        assert kern.denom > 0
        # dual . U^T = denom I
        for i, row in enumerate(kern.dual):
            assert [vec_dot(row, u) for u in gens] == [
                kern.denom * (i == j) for j in range(len(gens))
            ]
        # eqs: k - g independent rows vanishing exactly on the span
        assert len(kern.eqs) == k - len(gens)
        assert not kern.eqs or mat_rank(kern.eqs) == len(kern.eqs)
        assert all(vec_dot(e, u) == 0 for e in kern.eqs for u in gens)
        in_span = tuple(
            sum(c * u[r] for c, u in zip(coeffs, gens)) for r in range(k)
        )
        for p in (in_span, tuple(noise[:k])):
            expected = _oracle_coords(gens, p)
            nums = kern.numerators(p)
            got = None if nums is None else tuple(Fraction(x, kern.denom) for x in nums)
            assert got == expected
        assert kern.numerators(in_span) == tuple(
            kern.denom * c for c in coeffs[: len(gens)]
        )

    @settings(max_examples=100, deadline=None)
    @given(simplicial_gens())
    def test_halfspace_description_matches_gram_inverse(self, kg):
        k, gens = kg
        kern = cone_kernel(gens, k)
        lam, eqs = list(kern.dual), list(kern.eqs)
        # old formula: Lambda = (U U^T)^-1 U, equality rows I - U^T Lambda
        g = len(gens)
        gram = [[vec_dot(a, b) for b in gens] for a in gens]
        inv_cols = [
            solve_rational_system(gram, [int(i == j) for i in range(g)]).vector
            for j in range(g)
        ]
        old_lam = [
            tuple(
                sum(inv_cols[j][i] * gens[j][r] for j in range(g))
                for r in range(k)
            )
            for i in range(g)
        ]
        old_eqs = [
            tuple(
                int(r == s) - sum(gens[j][r] * old_lam[j][s] for j in range(g))
                for s in range(k)
            )
            for r in range(k)
        ]
        # the integer rows are det(U U^T) times the old Fraction rows
        scale = det(gram)
        assert all(type(x) is int for row in lam for x in row)
        assert lam == [tuple(scale * x for x in row) for row in old_lam]
        for e in eqs:
            assert tuple(Fraction(x, kern.denom) for x in e) in old_eqs
        assert len(eqs) == k - g
        assert not eqs or mat_rank(eqs) == mat_rank(old_eqs)

    @settings(max_examples=100, deadline=None)
    @given(simplicial_gens(), point, point, st.booleans())
    def test_minimal_containing_cone_brute_force(self, kg, coeffs, split, refine):
        k, gens = kg
        c = ConeComplex(k, gens, [range(len(gens))])
        if refine and len(gens) > 1:
            center = tuple(
                sum((1 + abs(x)) * u[r] for x, u in zip(split, gens))
                for r in range(k)
            )
            c = stellar_at_point(c, center).refined
        p = tuple(sum(x * u[r] for x, u in zip(coeffs, gens)) for r in range(k))
        expected = [
            cone
            for cone in c.cones()
            if (coords := _oracle_coords(c.generators(cone), p)) is not None
            and all(x > 0 for x in coords)
        ]
        assert len(expected) <= 1
        assert minimal_containing_cone(c, p) == (expected[0] if expected else None)

    def test_dependent_generators_rejected(self):
        with pytest.raises(ComplexError):
            cone_kernel(((1, 0), (0, 1), (1, 1)), 2)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ComplexError):
            quadrant().cone_coords(frozenset({0, 1}), (1, 2, 3))
