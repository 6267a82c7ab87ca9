"""Exact rational linear feasibility.

Two independent decision procedures, on rows stored as coprime integers:

* Fourier-Motzkin elimination on the distinct rows, which also
  back-substitutes a witness point in integer numerators over one common
  denominator;
* a phase-one simplex with Bland's rule over Fractions, an oracle for it.

Systems mix equalities and non-strict inequalities over free variables.
Callers encode strict inequalities themselves (homogeneous systems replace
`> 0` by `>= 1`, which is exact for convex cones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .linalg import LinAlgError, QVector

IntRow = tuple[tuple[int, ...], int]


def _coprime(coeffs: list[int], rhs: int) -> tuple[list[int], int]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(*coeffs, rhs)
    if g > 1:
        return [c // g for c in coeffs], rhs // g
    return coeffs, rhs


def _normalize(coeffs: Sequence, rhs) -> IntRow:
    """Scale a row of ints and Fractions by a positive factor to coprime
    integers, so an inequality keeps its direction."""
    entries = (*coeffs, rhs)
    if set(map(type, entries)) == {int}:
        c, r = _coprime(list(coeffs), rhs)
        return tuple(c), r
    if not all(isinstance(x, (int, Fraction)) for x in entries):
        raise TypeError("constraint entries must be ints or Fractions")
    d = lcm(*(x.denominator for x in entries))
    ints = [x.numerator * (d // x.denominator) for x in entries]
    c, r = _coprime(ints[:-1], ints[-1])
    return tuple(c), r


@dataclass
class LinearSystem:
    """Constraints coeffs . x = rhs (eqs) and coeffs . x >= rhs (ineqs), each
    stored as its least positive multiple with coprime integer entries."""

    n_vars: int
    eqs: list[IntRow] = field(default_factory=list)
    ineqs: list[IntRow] = field(default_factory=list)

    def add_eq(self, coeffs: Sequence, rhs=0) -> None:
        self.eqs.append(self._checked(coeffs, rhs))

    def add_ge(self, coeffs: Sequence, rhs=0) -> None:
        self.ineqs.append(self._checked(coeffs, rhs))

    def _checked(self, coeffs: Sequence, rhs) -> IntRow:
        row = _normalize(coeffs, rhs)
        if len(row[0]) != self.n_vars:
            raise ValueError("constraint length does not match variable count")
        return row

    def satisfied_by(self, x: Sequence) -> bool:
        """Whether x meets every constraint; each distinct row is checked once."""
        if len(x) != self.n_vars:
            raise ValueError("point length does not match variable count")
        d = lcm(*(v.denominator for v in x))
        xd = [v.numerator * (d // v.denominator) for v in x]
        eqs, ineqs = dict.fromkeys(self.eqs), dict.fromkeys(self.ineqs)
        return all(sum(map(mul, c, xd)) == r * d for c, r in eqs) and all(
            sum(map(mul, c, xd)) >= r * d for c, r in ineqs
        )


def fm_feasible(system: LinearSystem) -> Optional[QVector]:
    """Decide feasibility by Fourier-Motzkin; return a witness or None.

    Equalities are eliminated first by integer cross-multiplication, then
    the remaining inequalities are projected one variable at a time.  The
    witness is recovered by walking the elimination stack backwards.  Of a
    repeated row one copy is kept; of an equality the last, which is popped
    first and would cancel the others to 0 = 0, so the pivots are the same.
    """
    n = system.n_vars
    ineqs = [(list(c), r) for c, r in dict.fromkeys(system.ineqs)]
    eqs = [(list(c), r) for c, r in reversed(dict.fromkeys(reversed(system.eqs)))]

    # solve each equality for one variable and cancel it everywhere
    subs: list[tuple[int, list[int], int]] = []
    while eqs:
        coeffs, rhs = eqs.pop()
        piv = next((j for j in range(n) if coeffs[j] != 0), None)
        if piv is None:
            if rhs != 0:
                return None
            continue
        pv = coeffs[piv]
        s = 1 if pv > 0 else -1
        support = [(j, s * e) for j, e in enumerate(coeffs) if e]

        def apply(row):
            # |pv| row - s f eq, a positive multiple of row - (f / pv) eq,
            # so >= survives; only the equality's support changes
            c, r = row
            f = c[piv]
            if f == 0:
                return row
            new = c[:] if s * pv == 1 else [s * pv * a for a in c]
            for j, e in support:
                new[j] -= f * e
            return _coprime(new, s * (pv * r - f * rhs))

        eqs = [apply(row) for row in eqs]
        ineqs = [apply(row) for row in ineqs]
        subs.append((piv, coeffs, rhs))

    # eliminate remaining variables from the inequalities
    cons = {(tuple(c), r) for c, r in ineqs}
    stack: list[tuple[int, list[IntRow], list[IntRow]]] = []
    while True:
        # one pass counts each variable's lower and upper bounds
        lo_count, hi_count = [0] * n, [0] * n
        for c, _ in cons:
            for j in compress(range(n), c):
                (lo_count if c[j] > 0 else hi_count)[j] += 1
        live = [j for j in range(n) if lo_count[j] or hi_count[j]]
        if not live:
            break
        # cheapest variable first keeps the blowup down; ties go to the lowest
        var = min(live, key=lambda j: lo_count[j] * hi_count[j])
        lowers = [(c, r) for c, r in cons if c[var] > 0]
        uppers = [(c, r) for c, r in cons if c[var] < 0]
        keeps = {(c, r) for c, r in cons if c[var] == 0}
        stack.append((var, lowers, uppers))
        for lc, lr in lowers:
            for uc, ur in uppers:
                # combine so the var cancels; direction stays >=
                a, b = lc[var], -uc[var]
                nc, nr = _coprime(
                    [b * x + a * y for x, y in zip(lc, uc)], b * lr + a * ur
                )
                keeps.add((tuple(nc), nr))
        cons = keeps

    for c, r in cons:
        if r > 0:  # 0 >= r with r > 0
            return None

    # back-substitute a witness x = xn / den, numerators over one denominator
    xn = [0] * n
    den = 1

    def solve_for(var: int, c: Sequence[int], r: int) -> Fraction:
        # xn[var] is still 0: every variable is assigned once
        return Fraction(r * den - sum(map(mul, c, xn)), c[var] * den)

    def assign(var: int, value: Fraction) -> None:
        nonlocal den
        q = value.denominator
        if den % q:
            grow = q // gcd(den, q)
            xn[:] = [v * grow for v in xn]
            den *= grow
        xn[var] = value.numerator * (den // q)

    for var, lowers, uppers in reversed(stack):
        lo = max((solve_for(var, c, r) for c, r in lowers), default=None)
        hi = min((solve_for(var, c, r) for c, r in uppers), default=None)
        # var is live, so it has a lower or an upper bound
        assign(var, lo if hi is None else hi if lo is None else (lo + hi) / 2)
    for piv, c, r in reversed(subs):
        assign(piv, solve_for(piv, c, r))

    witness = tuple(Fraction(v, den) for v in xn)
    if not system.satisfied_by(witness):
        raise LinAlgError("Fourier-Motzkin witness fails its own system")
    return witness


def simplex_feasible(system: LinearSystem) -> bool:
    """Phase-one simplex with Bland's rule over exact rationals.

    Free variables are split as x = x+ - x-; inequalities get surplus
    variables; every row gets an artificial variable.  Feasible iff the
    artificial objective reaches zero.
    """
    n = system.n_vars
    rows: list[tuple[list[Fraction], Fraction, bool]] = []
    for c, r in system.eqs:
        rows.append((list(c), r, False))
    for c, r in system.ineqs:
        rows.append((list(c), r, True))
    m = len(rows)
    if m == 0:
        return True
    n_surplus = sum(1 for _, _, s in rows if s)
    total = 2 * n + n_surplus + m  # x+, x-, surplus, artificial
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    si = 0
    for i, (c, r, has_surplus) in enumerate(rows):
        row = [Fraction(0)] * (total + 1)
        for j in range(n):
            row[j] = Fraction(c[j])
            row[n + j] = -Fraction(c[j])
        if has_surplus:
            row[2 * n + si] = Fraction(-1)
            si += 1
        rhs = Fraction(r)
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = 2 * n + n_surplus + i
        row[art] = Fraction(1)
        row[total] = rhs
        tableau.append(row)
        basis.append(art)
    # objective: minimize sum of artificials, expressed in nonbasic terms
    obj = [Fraction(0)] * (total + 1)
    for row in tableau:
        for j in range(total + 1):
            obj[j] -= row[j]
    for i in range(m):
        obj[2 * n + n_surplus + i] = Fraction(0)

    while True:
        enter = next(
            (j for j in range(total) if obj[j] < 0 and j not in basis), None
        )
        if enter is None:
            break
        ratios = [
            (tableau[i][total] / tableau[i][enter], basis[i], i)
            for i in range(m)
            if tableau[i][enter] > 0
        ]
        if not ratios:
            break  # unbounded below cannot happen for this objective
        _, _, leave = min(ratios)
        pv = tableau[leave][enter]
        tableau[leave] = [x / pv for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [
                    a - f * b for a, b in zip(tableau[i], tableau[leave])
                ]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter

    return -obj[total] == 0
