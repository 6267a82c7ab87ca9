"""Exact integer and rational linear algebra.

Everything in this package runs on arbitrary-precision integers and
`fractions.Fraction`; there is no floating point anywhere.  Vectors are plain
tuples, matrices are tuples of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

IntVector = tuple[int, ...]
QVector = tuple[Fraction, ...]


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


def primitive(v: IntVector) -> IntVector:
    """Divide out the gcd of the coordinates, keeping the direction.

    (2,4) -> (1,2); the zero vector has no primitive generator.
    """
    g = gcd(*v)
    if g == 0:
        raise LinAlgError("zero vector has no primitive generator")
    return tuple(x // g for x in v)


def mat_rank(rows: Sequence[Sequence]) -> int:
    """Rank over the rationals, by fraction-free elimination on a copy.

    Each row of ints and Fractions is scaled once to integers.  A row is
    reduced against the pivot row by cross-multiplying, then divided by the
    gcd of its entries.
    """
    m = []
    for row in rows:
        d = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (d // x.denominator) for x in row])
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        pv = top[col]
        for r in range(rank + 1, len(m)):
            f = m[r][col]
            if f != 0:
                row = [pv * a - f * b for a, b in zip(m[r], top)]
                g = gcd(*row)
                m[r] = [a // g for a in row] if g > 1 else row
        rank += 1
        if rank == len(m):
            break
    return rank


def _smith_reduce(m: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Raw Smith diagonal of an integer matrix, and the inverse column transform.

    Works in place on m (g rows in Z^k).  Returns the absolute diagonal
    entries d_1..d_r (r the rank) and a unimodular k x k matrix B with
    m = R D B for some unimodular R: the rows d_i b_i span the row lattice,
    and for full row rank b_1..b_g are a basis of span ∩ Z^k.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    basis = [[int(r == c) for c in range(cols)] for r in range(cols)]
    diagonal: list[int] = []
    top = 0

    def swap_cols(j: int) -> None:
        for row in m:
            row[top], row[j] = row[j], row[top]
        basis[top], basis[j] = basis[j], basis[top]

    while top < rows and top < cols:
        pos = next(
            ((i, j) for i in range(top, rows) for j in range(top, cols) if m[i][j]),
            None,
        )
        if pos is None:
            break
        i, j = pos
        m[top], m[i] = m[i], m[top]
        swap_cols(j)
        # clear row and column at (top, top) by euclidean steps
        while True:
            # column, by row operations
            for i in range(top + 1, rows):
                if m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
            if any(m[i][top] != 0 for i in range(top + 1, rows)):
                continue
            # row, by column operations
            for j in range(top + 1, cols):
                if m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for row in m:
                        row[j] -= q * row[top]
                    basis[top] = [a + q * b for a, b in zip(basis[top], basis[j])]
                    if m[top][j] != 0:
                        swap_cols(j)
            if any(m[top][j] != 0 for j in range(top + 1, cols)):
                continue
            break
        diagonal.append(abs(m[top][top]))
        top += 1
    return diagonal, basis


def lattice_index(rows: Sequence[IntVector]) -> int:
    """Index of the lattice spanned by the rows inside its saturation.

    Equals the product of the raw Smith diagonal (the gcd of the maximal
    minors, so no divisibility chain is needed); 1 exactly for unimodular
    generator sets.  Requires the rows to be linearly independent.
    """
    diagonal = _smith_reduce([list(r) for r in rows])[0]
    if len(diagonal) != len(rows):
        raise LinAlgError("not a simplicial generator set")
    return prod(diagonal)


def is_unimodular(vs: Sequence[IntVector]) -> bool:
    """True iff the vectors extend to a basis of the ambient integer lattice.

    Decided by elementary divisors.  Raises on linearly dependent input.
    """
    return lattice_index(vs) == 1


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
