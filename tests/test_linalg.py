from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tropi.linalg import (
    LinAlgError,
    _smith_reduce,
    fraction_free_solve,
    is_unimodular,
    lattice_index,
    mat_rank,
    primitive,
    vec_dot,
)
from reference_linalg import det, elementary_divisors, solve_rational_system

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


def int_rows(k):
    return st.lists(st.integers(min_value=-20, max_value=20), min_size=k, max_size=k)


dims = st.integers(min_value=1, max_value=4)
int_matrix = dims.flatmap(lambda k: st.lists(int_rows(k), min_size=1, max_size=4))
square_matrix = dims.flatmap(lambda k: st.lists(int_rows(k), min_size=k, max_size=k))


class TestSmithBasis:
    """The rows d_i b_i of the reduction's diagonal and basis span the rows."""

    @given(int_matrix)
    def test_rows_lie_in_the_scaled_basis_lattice(self, rows):
        k = len(rows[0])
        diagonal, basis = _smith_reduce([list(r) for r in rows])
        assert len(basis) == k and abs(det(basis)) == 1
        assert all(d > 0 for d in diagonal)
        transpose = [[b[r] for b in basis] for r in range(k)]
        for row in rows:
            # row = Σ x_i b_i with x_i a multiple of d_i, and 0 beyond the rank
            x = solve_rational_system(transpose, row).vector
            assert all(c.denominator == 1 for c in x)
            assert all(c % d == 0 for c, d in zip(x, diagonal))
            assert all(c == 0 for c in x[len(diagonal):])

    @given(square_matrix)
    def test_square_diagonal_product_is_the_determinant(self, rows):
        # with the test above, the scaled basis rows span exactly the row lattice
        diagonal, _ = _smith_reduce([list(r) for r in rows])
        product = 1
        for d in diagonal:
            product *= d
        assert (len(diagonal) == len(rows)) == (det(rows) != 0)
        if det(rows):
            assert product == abs(det(rows))

    @given(int_matrix)
    def test_lattice_index_is_the_gcd_of_maximal_minors(self, rows):
        # the raw diagonal's product, with no divisibility chain enforced
        k = len(rows[0])
        minors = [
            det([[r[c] for c in cols] for r in rows])
            for cols in combinations(range(k), len(rows))
        ]
        if any(minors):
            assert lattice_index(rows) == gcd(*minors)
        else:
            with pytest.raises(LinAlgError):
                lattice_index(rows)


def reference_mat_rank(rows):
    """mat_rank as it was: Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


small_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=6)
entry = st.one_of(st.integers(min_value=-20, max_value=20), small_fraction)


def rows_of(elements, k, min_rows, max_rows):
    row = st.lists(elements, min_size=k, max_size=k)
    return st.lists(row, min_size=min_rows, max_size=max_rows)


@st.composite
def low_rank_matrix(draw):
    """Rows drawn as integer combinations of at most k - 1 rational rows."""
    k = draw(st.integers(min_value=1, max_value=5))
    r = draw(st.integers(min_value=0, max_value=k - 1))
    basis = draw(rows_of(entry, k, r, r))
    coeffs = draw(rows_of(st.integers(-5, 5), r, 1, 6))
    rows = [[sum((c * b[j] for c, b in zip(cs, basis)), 0) for j in range(k)] for cs in coeffs]
    return rows, r


class TestMatRank:
    """Integer elimination against the Fraction elimination it replaced."""

    @given(int_matrix)
    def test_int_matrices(self, rows):
        assert mat_rank(rows) == reference_mat_rank(rows)

    @given(dims.flatmap(lambda k: rows_of(entry, k, 1, 5)))
    def test_mixed_int_and_fraction_matrices(self, rows):
        assert mat_rank(rows) == reference_mat_rank(rows)

    @given(low_rank_matrix())
    def test_rank_deficient_matrices(self, drawn):
        rows, r = drawn
        rank = mat_rank(rows)
        assert rank == reference_mat_rank(rows)
        assert rank <= r < len(rows[0])

    def test_examples(self):
        assert mat_rank([]) == 0
        assert mat_rank([(0, 0), (0, 0)]) == 0
        assert mat_rank([(1, 2), (2, 4)]) == 1
        assert mat_rank([(Fraction(1, 2), Fraction(1, 3)), (3, 2)]) == 1
        assert mat_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 7)]) == 3


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
