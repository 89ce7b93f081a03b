"""Small exact linear algebra over Python rationals, independent of the
program under test, used to build gauge bases and to check results."""

from __future__ import annotations

from fractions import Fraction


def matmul(a, b, cols=None):
    """Product of two matrices given as row sequences; skips zero entries.
    `cols` is needed when b has no rows."""
    if cols is None:
        cols = len(b[0])
    out = []
    for row in a:
        acc = [0] * cols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def inverse(m):
    """Gauss-Jordan inverse; raises ZeroDivisionError when m is singular."""
    n = len(m)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and factor:
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def same(a, b) -> bool:
    """Entrywise equality by value, whatever the scalar type."""
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def scalar_text(x) -> str:
    """Canonical text of a rational, the same for an int and a Fraction."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_text(rows):
    return [[scalar_text(x) for x in row] for row in rows]
