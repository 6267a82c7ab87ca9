from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropi.linalg import (
    LinAlgError,
    det,
    elementary_divisors,
    fraction_free_solve,
    is_unimodular,
    lattice_index,
    primitive,
    solve_rational_system,
    vec_dot,
)

nonzero_vec = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=1, max_size=5
).map(tuple).filter(lambda v: any(x != 0 for x in v))


class TestPrimitive:
    def test_divides_gcd(self):
        assert primitive((2, 4)) == (1, 2)

    def test_already_primitive(self):
        assert primitive((1, 2)) == (1, 2)

    def test_zero_vector(self):
        with pytest.raises(LinAlgError):
            primitive((0, 0))

    @given(nonzero_vec)
    def test_idempotent(self, v):
        assert primitive(primitive(v)) == primitive(v)

    @given(nonzero_vec, st.integers(min_value=1, max_value=9))
    def test_scale_invariant(self, v, c):
        assert primitive(tuple(c * x for x in v)) == primitive(v)


class TestUnimodular:
    def test_standard_basis(self):
        assert is_unimodular([(1, 0), (0, 1)]) is True

    def test_det_minus_three(self):
        # oracle: det [[1,2],[2,1]] = -3
        assert det([[1, 2], [2, 1]]) == -3
        assert is_unimodular([(1, 2), (2, 1)]) is False

    def test_det_one(self):
        assert det([[1, 1], [1, 2]]) == 1
        assert is_unimodular([(1, 1), (1, 2)]) is True

    def test_dependent_raises(self):
        with pytest.raises(LinAlgError):
            is_unimodular([(1, 2), (2, 4)])

    def test_non_maximal(self):
        assert is_unimodular([(1, 0, 0)]) is True
        assert is_unimodular([(2, 0, 0)]) is False
        assert is_unimodular([(1, 1, 0), (0, 1, 1)]) is True

    def test_empty(self):
        assert is_unimodular([]) is True

    @given(
        st.lists(
            st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3),
            min_size=1,
            max_size=3,
        )
    )
    def test_permutation_and_sign_invariance(self, vs):
        try:
            base = is_unimodular(vs)
        except LinAlgError:
            return
        assert is_unimodular(list(reversed(vs))) == base
        flipped = [tuple(-x for x in vs[0])] + vs[1:]
        assert is_unimodular(flipped) == base


class TestElementaryDivisors:
    def test_identity(self):
        assert elementary_divisors([(1, 0), (0, 1)]) == [1, 1]

    def test_diag(self):
        assert elementary_divisors([(2, 0), (0, 4)]) == [2, 4]

    def test_divisibility_chain(self):
        divs = elementary_divisors([(2, 0), (0, 3)])
        assert divs == [1, 6]

    def test_lattice_index_matches_det(self):
        assert lattice_index([(1, 2), (2, 1)]) == 3


class TestSolve:
    def test_identity(self):
        sol = solve_rational_system([[1, 0], [0, 1]], [3, 7])
        assert sol is not None and sol.unique
        assert sol.vector == (Fraction(3), Fraction(7))

    def test_inconsistent(self):
        assert solve_rational_system([[0]], [1]) is None

    def test_balancing_example_per_coordinate(self):
        # two edge unknowns per coordinate; stacked vertex equations of the
        # three-vertex degree-(4,4) configuration with legs (1,0),(0,1),(3,3)
        a = [[1, 0], [0, 1], [-1, -1]]
        sol_x = solve_rational_system(a, [2 - 1, 2 - 0, 0 - 3])
        sol_y = solve_rational_system(a, [2 - 0, 2 - 1, 0 - 3])
        assert sol_x is not None and sol_x.vector == (Fraction(1), Fraction(2))
        assert sol_y is not None and sol_y.vector == (Fraction(2), Fraction(1))

    def test_underdetermined_flag(self):
        sol = solve_rational_system([[1, 1]], [2])
        assert sol is not None and not sol.unique
        assert sum(sol.vector) == 2

    def test_dimension_mismatch(self):
        with pytest.raises(LinAlgError):
            solve_rational_system([[1, 0]], [1, 2])

    @given(
        st.lists(
            st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3),
            min_size=1,
            max_size=4,
        ),
        st.tuples(*[st.integers(min_value=-9, max_value=9)] * 3),
    )
    def test_resubstitution(self, rows, x):
        b = [vec_dot(r, x) for r in rows]
        sol = solve_rational_system(rows, b)
        assert sol is not None
        for r, rhs in zip(rows, b):
            assert vec_dot(r, sol.vector) == rhs


class TestDet:
    @given(
        st.lists(
            st.tuples(*[st.integers(min_value=-8, max_value=8)] * 3),
            min_size=3,
            max_size=3,
        )
    )
    def test_transpose_invariant(self, rows):
        t = [[rows[r][c] for r in range(3)] for c in range(3)]
        assert det(rows) == det(t)

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0


class TestFractionFreeSolve:
    @given(
        st.integers(min_value=0, max_value=4).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
                st.lists(
                    st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    def test_adjugate_times_rhs(self, ab):
        a, b = ab
        d, x = fraction_free_solve(a, b)
        assert d == det(a)
        if d == 0:
            assert x == []
            return
        n = len(a)
        for i in range(n):
            for j in range(2):
                assert sum(a[i][l] * x[l][j] for l in range(n)) == d * b[i][j]
