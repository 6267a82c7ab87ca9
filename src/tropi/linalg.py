"""Exact integer and rational linear algebra.

Everything in this package runs on arbitrary-precision integers and
`fractions.Fraction`; there is no floating point anywhere.  Vectors are plain
tuples, matrices are tuples of row tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

IntVector = tuple[int, ...]
QVector = tuple[Fraction, ...]
QMatrix = tuple[QVector, ...]


class LinAlgError(ValueError):
    pass


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Sequence) -> tuple:
    return tuple(c * a for a in v)


def vec_neg(v: Sequence) -> tuple:
    return tuple(-a for a in v)


def vec_dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v, strict=True))


def is_zero(v: Sequence) -> bool:
    return all(a == 0 for a in v)


def gcd_all(xs: Sequence[int]) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def primitive(v: IntVector) -> IntVector:
    """Divide out the gcd of the coordinates, keeping the direction.

    (2,4) -> (1,2); the zero vector has no primitive generator.
    """
    g = gcd_all(v)
    if g == 0:
        raise LinAlgError("zero vector has no primitive generator")
    return tuple(x // g for x in v)


def mat_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination on a copy."""
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


def _smith_reduce(m: list[list[int]]) -> list[int]:
    """Elementary divisors of an integer matrix (in-place work copy)."""
    rows, cols = len(m), len(m[0]) if m else 0
    divisors: list[int] = []
    top = 0
    while top < rows and top < cols:
        # find a nonzero pivot
        pos = None
        for i in range(top, rows):
            for j in range(top, cols):
                if m[i][j] != 0:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        i, j = pos
        m[top], m[i] = m[i], m[top]
        for r in range(rows):
            m[r][top], m[r][j] = m[r][j], m[r][top]
        # clear row and column at (top, top) by euclidean steps
        while True:
            # column
            for i in range(top + 1, rows):
                if m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
            if any(m[i][top] != 0 for i in range(top + 1, rows)):
                continue
            # row
            for j in range(top + 1, cols):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for r in range(rows):
                        m[r][j] -= q * m[r][top]
                    if m[top][j] != 0:
                        for r in range(rows):
                            m[r][top], m[r][j] = m[r][j], m[r][top]
            if any(m[top][j] != 0 for j in range(top + 1, cols)):
                continue
            break
        divisors.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a * b // g if g else 0
    return divisors


def elementary_divisors(rows: Sequence[IntVector]) -> list[int]:
    if not rows:
        return []
    return _smith_reduce([list(r) for r in rows])


def lattice_index(rows: Sequence[IntVector]) -> int:
    """Index of the lattice spanned by the rows inside its saturation.

    Equals the product of the elementary divisors; 1 exactly for unimodular
    generator sets.  Requires the rows to be linearly independent.
    """
    divs = elementary_divisors(rows)
    if len(divs) != len(rows) or any(d == 0 for d in divs):
        raise LinAlgError("not a simplicial generator set")
    idx = 1
    for d in divs:
        idx *= d
    return idx


def is_unimodular(vs: Sequence[IntVector]) -> bool:
    """True iff the vectors extend to a basis of the ambient integer lattice.

    Decided by elementary divisors, with a determinant fast path for square
    input.  Raises on linearly dependent input.
    """
    if not vs:
        return True
    k = len(vs[0])
    if len(vs) == k:
        d = det([list(v) for v in vs])
        if d == 0:
            raise LinAlgError("not a simplicial generator set")
        return abs(d) == 1
    return lattice_index(vs) == 1


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


def fraction_free_solve(
    a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]]]:
    """det(A) and adj(A) B for a square integer matrix A, so A^-1 B = adj(A) B / det(A).

    Bareiss's fraction-free Gauss-Jordan elimination on [A | B]: every
    division is exact, so all intermediate entries stay integers.  A
    singular A gives (0, []).
    """
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b, strict=True)]
    sign = 1
    prev = 1
    for i in range(n):
        if m[i][i] == 0:
            piv = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if piv is None:
                return 0, []
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        p = m[i][i]
        for r in range(n):
            if r != i:
                f = m[r][i]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], m[i])]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


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
