import random
import time
from fractions import Fraction
from itertools import combinations

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
    intersect_simplicial,
    locate,
    minimal_containing_cone,
)
from tropi.feasibility import LinearSystem, fm_feasible
from tropi.linalg import is_unimodular, mat_rank, primitive, vec_dot
from reference_linalg import det, solve_rational_system
from generators import random_complex
from tropi.subdivide import common_refinement, sensitize, stellar_at_point


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

    def test_dependent_generators_before_any_pair(self, monkeypatch):
        """Every kernel is built before the first pair is checked, so a
        dependent cone is reported as such even when it sorts last."""

        def fail(self, c1, c2):
            raise AssertionError("pairwise check reached")

        monkeypatch.setattr(ConeComplex, "_pair_is_common_face", fail)
        with pytest.raises(ComplexError, match="linearly dependent"):
            ConeComplex(
                2, [(-1, 0), (0, 1), (1, 0), (1, 1)], [{0, 1}, {1, 2, 3}]
            )

    def test_canonical_equality(self):
        a = ConeComplex(2, [(0, 1), (1, 0)], [{0, 1}])
        b = ConeComplex(2, [(1, 0), (0, 1)], [{1, 0}])
        assert a == b
        assert hash(a) == hash(b)


def reference_pair_is_common_face(c, c1, c2):
    """The pair check as it was: c1 and c2 meet in their common face iff no
    point lies in both with non-common barycentric mass at least 1 (exact,
    by homogeneity), decided by Fourier-Motzkin."""
    g1, g2 = sorted(c1), sorted(c2)
    if not g1 or not g2:
        return True
    common = c1 & c2
    n = len(g1) + len(g2)
    sys = LinearSystem(n)
    for r in range(c.ambient_dim):
        sys.add_eq([c.rays[i][r] for i in g1] + [-c.rays[j][r] for j in g2], 0)
    for v in range(n):
        sys.add_ge([int(u == v) for u in range(n)], 0)
    mass = [int(i not in common) for i in g1] + [int(j not in common) for j in g2]
    if not any(mass):
        return True
    sys.add_ge(mass, 1)
    return fm_feasible(sys) is None


def reference_validate(c):
    """The all-pairs validation as it was, on the reference pair check."""
    cones = list(c.max_kernels)
    for a, b in combinations(cones, 2):
        if not reference_pair_is_common_face(c, a, b):
            raise ComplexError(
                f"cones {sorted(a)} and {sorted(b)} do not intersect in a common face"
            )


def drawn_complex(rng, k, count):
    """An unchecked complex in R^k: count cones of rank 1..k on independent
    rays of a small primitive pool, most sharing generators with an earlier
    cone, so that they overlap, touch or meet in a common face."""
    pool = (tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(k + 6))
    pool = sorted({primitive(v) for v in pool if any(v)})
    cones = []
    while len(cones) < count:
        size = rng.randint(1, k)
        base = sorted(rng.choice(cones)) if cones and rng.random() < 0.7 else []
        shared = rng.sample(base, rng.randint(0, min(len(base), size)))
        cone = set(shared)
        cone.update(rng.sample(range(len(pool)), size - len(cone)))
        if mat_rank([pool[i] for i in cone]) == len(cone):
            cones.append(cone)
    return ConeComplex._refinement(k, pool, cones)


class TestPairCheckAgainstFourierMotzkin:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_verdicts(self, k):
        """Every ordered pair of maximal cones of seeded drawn complexes and
        of seeded valid fans gets the reference verdict, with the kernels
        built first as in validation."""
        rng = random.Random(90 + k)
        verdicts = {True: 0, False: 0}
        complexes = [drawn_complex(rng, k, 5) for _ in range(300)]
        complexes += [random_complex(rng, k) for _ in range(10)]
        for c in complexes:
            for a, b in combinations(c.max_kernels, 2):
                for c1, c2 in ((a, b), (b, a)):
                    got = c._pair_is_common_face(c1, c2)
                    assert got == reference_pair_is_common_face(c, c1, c2)
                    verdicts[got] += 1
        assert verdicts[False] >= (150 if k > 1 else 0)
        assert verdicts[True] >= 300

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_first_failing_pair(self, k):
        """Seeded complexes fail the public constructor with the message of
        the reference's first failing pair, and pass where it passes."""
        rng = random.Random(95 + k)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            c = drawn_complex(rng, k, rng.randint(2, 6))
            try:
                reference_validate(c)
                expected = None
            except ComplexError as exc:
                expected = str(exc)
            try:
                ConeComplex(k, c.rays, c.max_cones)
                got = None
            except ComplexError as exc:
                got = str(exc)
            assert got == expected
            outcomes[got is None] += 1
        assert outcomes[False] >= 40 and outcomes[True] >= 40

    def test_five_dimensional_pair(self):
        """Filtering after every cut keeps this pair's candidates small: it
        once grew to 22 015 candidates and did not finish in 20 s.  The
        common refinement of the two complete fans on the cones' rays and
        minus their sums is a fan, and the refined cones on the extreme rays
        of the intersection fill it."""
        a = [(0, 1, 2, 2, 2), (0, 2, 0, 1, 1), (0, 3, 2, 1, 3), (3, 2, 2, 1, 3), (3, 3, 2, 3, 1)]
        b = [(-1, 2, 0, 1, 1), (0, 3, 2, 2, 3), (1, 1, 2, 2, 2), (3, 2, 2, 1, 2), (3, 4, 2, 3, 1)]
        start = time.perf_counter()
        meet = intersect_simplicial(a, b)
        assert time.perf_counter() - start < 1
        assert len(meet) == 15 and meet == intersect_simplicial(b, a)

        def complete(gens):
            rays = gens + [primitive(tuple(-sum(x) for x in zip(*gens)))]
            return ConeComplex(5, rays, [set(range(6)) - {i} for i in range(6)])

        out = common_refinement(complete(a), complete(b))
        inside = [mc for mc in out.max_cones if set(out.generators(mc)) <= set(meet)]
        assert {r for mc in inside for r in out.generators(mc)} == set(meet)
        assert ConeComplex(5, out.rays, inside).max_cones == tuple(inside)


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

    def test_locate_scans_max_cones_in_order(self):
        """A point on a shared ray is read over the first maximal cone that
        contains it, in max_cones order."""
        c = ConeComplex(
            2, [(1, 0), (1, 1), (0, 1), (-1, 1)], [{2, 3}, {1, 2}, {0, 1}]
        )
        # rays sorted: (-1, 1), (0, 1), (1, 0), (1, 1)
        assert c.max_cones == ((0, 1), (1, 3), (2, 3))
        assert locate(c, (0, 2))[0] == (0, 1)
        assert locate(c, (3, 3))[0] == (1, 3)
        assert locate(c, (2, 1))[0] == (2, 3)

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
