from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropi.feasibility import LinearSystem, fm_feasible, simplex_feasible
from tropi.linalg import LinAlgError


def make(n, eqs=(), ineqs=()):
    s = LinearSystem(n)
    for c, r in eqs:
        s.add_eq(c, r)
    for c, r in ineqs:
        s.add_ge(c, r)
    return s


class TestFourierMotzkin:
    def test_empty_system(self):
        assert fm_feasible(LinearSystem(2)) == (0, 0)

    def test_failed_witness_check_is_a_typed_error(self, monkeypatch):
        monkeypatch.setattr(LinearSystem, "satisfied_by", lambda self, w: False)
        with pytest.raises(LinAlgError):
            fm_feasible(make(1, ineqs=[((1,), 1)]))

    def test_box(self):
        s = make(2, ineqs=[((1, 0), 1), ((-1, 0), -3), ((0, 1), 2), ((0, -1), -2)])
        w = fm_feasible(s)
        assert w is not None and s.satisfied_by(w)
        assert w[1] == 2

    def test_infeasible_interval(self):
        s = make(1, ineqs=[((1,), 3), ((-1,), -2)])
        assert fm_feasible(s) is None

    def test_equalities_substituted(self):
        s = make(3, eqs=[((1, 1, 0), 4), ((0, 1, -1), 0)], ineqs=[((0, 0, 1), 1)])
        w = fm_feasible(s)
        assert w is not None and s.satisfied_by(w)

    def test_inconsistent_equalities(self):
        s = make(2, eqs=[((1, 1), 1), ((2, 2), 3)])
        assert fm_feasible(s) is None

    def test_contradictory_length_relations(self):
        # l1 = 2 l2 and 2 l1 = l2 force l1 = l2 = 0, against l1, l2 >= 1
        s = make(
            2,
            eqs=[((1, -2), 0), ((2, -1), 0)],
            ineqs=[((1, 0), 1), ((0, 1), 1)],
        )
        assert fm_feasible(s) is None

    def test_rational_witness(self):
        s = make(1, ineqs=[((3,), 2), ((-3,), -2)])
        w = fm_feasible(s)
        assert w == (Fraction(2, 3),)


class TestSimplex:
    def test_empty(self):
        assert simplex_feasible(LinearSystem(3)) is True

    def test_feasible_cone(self):
        s = make(2, ineqs=[((1, 0), 1), ((0, 1), 1), ((1, 1), 3)])
        assert simplex_feasible(s) is True

    def test_infeasible(self):
        s = make(1, ineqs=[((1,), 1), ((-1,), 0)])
        assert simplex_feasible(s) is False

    def test_equality_only(self):
        s = make(2, eqs=[((1, 1), 5), ((1, -1), 1)])
        assert simplex_feasible(s) is True

    def test_negative_rhs(self):
        s = make(1, ineqs=[((-1,), -5), ((1,), -2)])
        assert simplex_feasible(s) is True


row3 = st.tuples(*[st.integers(min_value=-4, max_value=4)] * 3)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(row3, st.integers(min_value=-4, max_value=4)), max_size=5),
    st.lists(st.tuples(row3, st.integers(min_value=-4, max_value=4)), max_size=3),
)
def test_methods_agree(ineqs, eqs):
    s = make(3, eqs=eqs, ineqs=ineqs)
    w = fm_feasible(s)
    assert (w is not None) == simplex_feasible(s)
    if w is not None:
        assert s.satisfied_by(w)


def test_bad_length_rejected():
    s = LinearSystem(2)
    with pytest.raises(ValueError):
        s.add_ge((1, 2, 3), 0)
