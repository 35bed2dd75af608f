"""Small exact algebra over the rationals: row reduction and dense polynomials.

Gaussian elimination on rows of ints or `fractions.Fraction`s.  All
matrices in this package are desk-scale (tens of rows), so no pivoting
strategy beyond "first nonzero" is needed; arithmetic is exact.

Dense polynomials are coefficient lists in ascending degree, over ints or
Fractions.  Division is by monic divisors only (leading coefficient 1), so
it never divides a coefficient and int inputs give int outputs.
"""

from __future__ import annotations

from fractions import Fraction


def _reduce(m: list[list], ncols: int) -> int:
    """Gauss-Jordan on the rows of m in place; returns the number of pivots.

    Pivots come from the first ncols columns only (a right-hand side after
    them is carried along); the pass stops once every row is a pivot row.
    """
    r, nrows = 0, len(m)
    for col in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        row = m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            f = m[i][col]
            if i != r and f != 0:
                m[i] = [a - f * b if b else a for a, b in zip(m[i], row)]
        r += 1
    return r


def rank(rows: list[list[Fraction]]) -> int:
    """Exact rank of the matrix given as a list of rows."""
    if not rows:
        return 0
    return _reduce([list(r) for r in rows], len(rows[0]))


def solve_overdetermined(a: list[list[Fraction]], b: list[Fraction]):
    """Solve A x = b exactly for A with full column rank and rows >= cols.

    Returns the solution vector, or None when the system is inconsistent.
    Raises ValueError if the columns are dependent (no unique solution).
    """
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    if _reduce(aug, ncols) < ncols:
        raise ValueError("columns are linearly dependent; solution not unique")
    # full column rank: row i is the pivot row of column i
    if any(row[ncols] != 0 for row in aug[ncols:]):
        return None
    return [row[ncols] for row in aug[:ncols]]


# -- dense polynomials, ascending coefficients ------------------------------

def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_eval(a: list, x):
    """a(x) by Horner's rule; a must be nonempty."""
    acc = a[-1]
    for c in a[-2::-1]:
        acc = acc * x + c
    return acc


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) with a = q b + r and len(r) <= len(b) - 1, for monic b."""
    if b[-1] != 1:
        raise ValueError("divisor must be monic")
    deg = len(b) - 1
    rem = list(a)
    quot = [0] * max(len(a) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + deg]
        if c:
            for j in range(deg):
                rem[i + j] -= c * b[j]
    return quot, rem[:deg]
