"""Exact linear-algebra helpers that the library no longer uses: test oracles.

``det`` (Bareiss), ``elementary_divisors`` (the Smith diagonal with its
divisibility chain) and ``solve_rational_system`` (Gaussian elimination over
``Fraction``) are independent of the fraction-free solves and lattice
indices in ``tropi.linalg`` that the tests check against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from tropi.linalg import IntVector, LinAlgError, QVector, _smith_reduce


def det(m: Sequence[Sequence[int]]) -> int:
    """Integer determinant by Bareiss fraction-free elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            piv = next((r for r in range(i + 1, n) if a[r][i] != 0), None)
            if piv is None:
                return 0
            a[i], a[piv] = a[piv], a[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
            a[r][i] = 0
        prev = a[i][i]
    return sign * a[-1][-1] if n else 1


def elementary_divisors(rows: Sequence[IntVector]) -> list[int]:
    if not rows:
        return []
    divisors = _smith_reduce([list(r) for r in rows])[0]
    # enforce the divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a * b // g if g else 0
    return divisors


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b, with a uniqueness flag."""

    vector: QVector
    unique: bool


def solve_rational_system(
    a: Sequence[Sequence], b: Sequence
) -> Optional[LinearSolution]:
    """Solve A x = b exactly by Gaussian elimination over the rationals.

    Returns None when inconsistent.  When the system is underdetermined one
    solution is returned (free variables set to zero) with unique=False.
    """
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(x) for x in b]
    if len(rows) != len(rhs):
        raise LinAlgError("dimension mismatch between matrix and right-hand side")
    n_vars = len(rows[0]) if rows else 0
    if any(len(r) != n_vars for r in rows):
        raise LinAlgError("ragged matrix")
    aug = [r + [c] for r, c in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n_vars):
        piv = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, len(aug)):
        if aug[r][n_vars] != 0:
            return None
    x = [Fraction(0)] * n_vars
    for r, c in pivots:
        x[c] = aug[r][n_vars]
    return LinearSolution(tuple(x), unique=(len(pivots) == n_vars))
