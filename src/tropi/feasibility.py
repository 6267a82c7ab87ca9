"""Exact rational linear feasibility.

Two independent decision procedures, on rows stored as coprime integers:

* Fourier-Motzkin elimination, which also back-substitutes a witness point
  in integer numerators over one common denominator;
* a phase-one simplex with Bland's rule over Fractions, an oracle for it.

Systems mix equalities and non-strict inequalities over free variables.
Callers encode strict inequalities themselves (homogeneous systems replace
`> 0` by `>= 1`, which is exact for convex cones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .linalg import LinAlgError, QVector, vec_dot

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
    if all(type(x) is int for x in entries):
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
        d = lcm(*(v.denominator for v in x))
        xd = [v.numerator * (d // v.denominator) for v in x]
        return all(vec_dot(c, xd) == r * d for c, r in self.eqs) and all(
            vec_dot(c, xd) >= r * d for c, r in self.ineqs
        )


def fm_feasible(system: LinearSystem) -> Optional[QVector]:
    """Decide feasibility by Fourier-Motzkin; return a witness or None.

    Equalities are eliminated first by integer cross-multiplication, then
    the remaining inequalities are projected one variable at a time.  The
    witness is recovered by walking the elimination stack backwards.
    """
    n = system.n_vars
    ineqs = [(list(c), r) for c, r in system.ineqs]
    eqs = [(list(c), r) for c, r in system.eqs]

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

        def apply(row):
            # a positive multiple of row - (f / pv) eq, so >= survives
            c, r = row
            f = c[piv]
            if f == 0:
                return row
            return _coprime(
                [s * (pv * a - f * e) for a, e in zip(c, coeffs)],
                s * (pv * r - f * rhs),
            )

        eqs = [apply(row) for row in eqs]
        ineqs = [apply(row) for row in ineqs]
        subs.append((piv, coeffs, rhs))

    # eliminate remaining variables from the inequalities
    live = [j for j in range(n) if any(c[j] != 0 for c, _ in ineqs)]
    cons = {(tuple(c), r) for c, r in ineqs}
    stack: list[tuple[int, list[IntRow], list[IntRow]]] = []
    while live:
        # cheapest variable first keeps the blowup down
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
                # combine so the var cancels; direction stays >=
                a, b = lc[var], -uc[var]
                nc, nr = _coprime(
                    [b * x + a * y for x, y in zip(lc, uc)], b * lr + a * ur
                )
                keeps.add((tuple(nc), nr))
        cons = keeps
        live = [j for j in live if j != var and any(c[j] != 0 for c, _ in cons)]

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
