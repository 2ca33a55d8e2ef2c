"""Small exact linear algebra over the rationals, written apart from
holonomy.linalg so that the input generator and the output oracle do not
share code with the program they measure.

Matrices are lists of rows of Fractions.
"""

from __future__ import annotations

from fractions import Fraction


def identity(n: int) -> list[list[Fraction]]:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list[list[Fraction]]:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a]


def mat_vec(a, v) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def rank(rows) -> int:
    """Rank by plain Gaussian elimination (no back substitution, no
    canonical form: only the pivot count is used)."""
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        head = work[r][c]
        for i in range(r + 1, len(work)):
            if work[i][c] != 0:
                f = work[i][c] / head
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        if r == len(work):
            break
    return r


def commutant_dim(mats, n: int) -> int:
    """Dimension of {X : X g = g X for every g}, as n^2 minus the rank of the
    stacked commutation equations."""
    rows = []
    for g in mats:
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += g[k][j]
                    row[k * n + j] -= g[i][k]
                rows.append(row)
    return n * n - rank(rows)


def spans_invariant(basis, mats) -> bool:
    """True when g maps span(basis) into itself for every g; for invertible
    g that is g V = V."""
    k = rank(basis)
    return all(rank(list(basis) + [mat_vec(g, v) for v in basis]) == k for g in mats)

