from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropi.feasibility import LinearSystem, fm_feasible, simplex_feasible
from tropi.linalg import LinAlgError


def reference_fm(n, eqs=(), ineqs=()):
    """Fourier-Motzkin with equalities substituted over Fractions: the
    solver as it was before rows were kept as integers, as an oracle."""

    def normalize(row):
        coeffs, rhs = row
        denom = 1
        for x in (*coeffs, rhs):
            denom = lcm(denom, x.denominator)
        ints = [int(x * denom) for x in coeffs] + [int(rhs * denom)]
        g = 0
        for x in ints:
            g = gcd(g, abs(x))
        if g > 1:
            ints = [x // g for x in ints]
        return tuple(ints[:-1]), ints[-1]

    ineqs = [([Fraction(x) for x in c], Fraction(r)) for c, r in ineqs]
    eqs = [([Fraction(x) for x in c], Fraction(r)) for c, r in eqs]
    subs = []
    for _ in range(len(eqs)):
        if not eqs:
            break
        coeffs, rhs = eqs.pop()
        piv = next((j for j in range(n) if coeffs[j] != 0), None)
        if piv is None:
            if rhs != 0:
                return None
            continue
        pv = coeffs[piv]
        expr = [-c / pv for c in coeffs]
        expr[piv] = Fraction(0)
        const = rhs / pv

        def apply(row):
            c, r = row
            f = c[piv]
            if f == 0:
                return row
            nc = [a + f * e for a, e in zip(c, expr)]
            nc[piv] = Fraction(0)
            return nc, r - f * const

        eqs = [apply(row) for row in eqs]
        ineqs = [apply(row) for row in ineqs]
        subs.append((piv, expr, const))

    live = [j for j in range(n) if any(c[j] != 0 for c, _ in ineqs)]
    cons = {normalize((tuple(c), r)) for c, r in ineqs}
    stack = []
    while live:
        var = min(
            live,
            key=lambda j: sum(1 for c, _ in cons if c[j] > 0)
            * sum(1 for c, _ in cons if c[j] < 0),
        )
        lowers = [(c, r) for c, r in cons if c[var] > 0]
        uppers = [(c, r) for c, r in cons if c[var] < 0]
        keeps = {(c, r) for c, r in cons if c[var] == 0}
        stack.append((var, lowers, uppers))
        for lc, lr in lowers:
            for uc, ur in uppers:
                a, b = lc[var], -uc[var]
                nc = tuple(b * x + a * y for x, y in zip(lc, uc))
                keeps.add(normalize((nc, b * lr + a * ur)))
        cons = keeps
        live = [j for j in live if j != var and any(c[j] != 0 for c, _ in cons)]

    if any(r > 0 for _, r in cons):
        return None
    x = [Fraction(0)] * n
    for var, lowers, uppers in reversed(stack):
        lo = hi = None
        for c, r in lowers:
            bound = Fraction(r - sum(c[j] * x[j] for j in range(n) if j != var), c[var])
            lo = bound if lo is None else max(lo, bound)
        for c, r in uppers:
            bound = Fraction(r - sum(c[j] * x[j] for j in range(n) if j != var), c[var])
            hi = bound if hi is None else min(hi, bound)
        if lo is not None and hi is not None:
            x[var] = (lo + hi) / 2
        elif lo is not None:
            x[var] = lo
        elif hi is not None:
            x[var] = hi
    for piv, expr, const in reversed(subs):
        x[piv] = sum(e * v for e, v in zip(expr, x)) + const
    return tuple(x)


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


class TestIntegerRows:
    def test_rows_scaled_to_coprime_integers(self):
        s = make(
            2,
            eqs=[((Fraction(1, 2), Fraction(-1, 3)), Fraction(1, 6))],
            ineqs=[((-2, 4), -6), ((0, 0), 0)],
        )
        assert s.eqs == [((3, -2), 1)]
        assert s.ineqs == [((-1, 2), -3), ((0, 0), 0)]
        assert all(type(v) is int for c, r in s.eqs + s.ineqs for v in (*c, r))

    @pytest.mark.parametrize("coeffs, rhs", [((0.1,), 0), ((1,), 0.5), ((True, 1.0), 1)])
    def test_float_entries_rejected(self, coeffs, rhs):
        s = LinearSystem(len(coeffs))
        with pytest.raises(TypeError):
            s.add_ge(coeffs, rhs)
        with pytest.raises(TypeError):
            s.add_eq(coeffs, rhs)
        assert s.eqs == [] and s.ineqs == []

    def test_witness_check_in_integers(self):
        s = make(2, eqs=[((3, -2), 1)], ineqs=[((1, 0), Fraction(1, 3))])
        assert s.satisfied_by((Fraction(1, 3), 0))
        assert s.satisfied_by((1, 1))
        assert not s.satisfied_by((Fraction(1, 3), Fraction(1, 100)))
        assert not s.satisfied_by((Fraction(-1, 3), -1))

    def test_witness_of_wrong_length_rejected(self):
        s = make(2, ineqs=[((1, 0), 0)])
        with pytest.raises(ValueError):
            s.satisfied_by((1,))


entry = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
frow3 = st.tuples(st.tuples(entry, entry, entry), entry)


@settings(max_examples=200, deadline=None)
@given(st.lists(frow3, max_size=5), st.lists(frow3, max_size=3))
def test_matches_fraction_reference(ineqs, eqs):
    """Integer rows give the Fraction solver's witness, entry for entry."""
    assert fm_feasible(make(3, eqs=eqs, ineqs=ineqs)) == reference_fm(3, eqs, ineqs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(*[entry] * 4), entry), min_size=1, max_size=4),
    st.lists(st.tuples(st.tuples(*[entry] * 4), entry), max_size=6),
)
def test_equality_heavy_matches_fraction_reference(eqs, ineqs):
    witness = fm_feasible(make(4, eqs=eqs, ineqs=ineqs))
    assert witness == reference_fm(4, eqs, ineqs)
    assert witness is None or all(type(v) is Fraction for v in witness)


def _with_copies(data, rows):
    """rows with positive multiples of some of them inserted at drawn places."""
    rows = list(rows)
    copies = st.integers(min_value=0, max_value=4) if rows else st.just(0)
    for _ in range(data.draw(copies)):
        c, r = rows[data.draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        f = data.draw(st.sampled_from([1, 1, 2, 3]))
        at = data.draw(st.integers(min_value=0, max_value=len(rows)))
        rows.insert(at, (tuple(f * x for x in c), f * r))
    return rows


@settings(max_examples=200, deadline=None)
@given(st.lists(frow3, max_size=5), st.lists(frow3, max_size=3), st.data())
def test_repeated_rows_keep_the_witness(ineqs, eqs, data):
    """Repeated rows change neither the witness nor the verdict."""
    eqs, ineqs = _with_copies(data, eqs), _with_copies(data, ineqs)
    s = make(3, eqs=eqs, ineqs=ineqs)
    witness = fm_feasible(s)
    assert witness == reference_fm(3, eqs, ineqs)
    assert (witness is not None) == simplex_feasible(s)
