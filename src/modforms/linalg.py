"""Small exact algebra over the rationals: rank and dense polynomials.

`rank` runs one fraction-free elimination (Bareiss, Math. Comp. 22, 1968)
on int rows: each column is divided by its gcd, and every entry stays an
int minor of that matrix.  Callers clear denominators along an axis that
keeps the rank: `vvmf.is_essential` by rows, `structure.free_basis_verify`
by columns, one per known coefficient of each component.  The latter ranks
only sets that its minors prove dependent, one matrix per weight up to the
dependent one.  On a high-weight sweep the column gcds pay: for
(0, 1/12, 2/12), [F, DF, Delta^3 F] at N 64 ranks its 19 matrices in 25 ms
with them against 111 ms without; [F, Delta^4 F] for (0, 5/6) at N 128
takes 21 against 5 ms, beside a 178 ms call (`bench/linalg_ops.py`, 2-core
x86_64 VM, Python 3.11).  Matrices here have tens of rows.
Arithmetic is exact and every entry is a minor whatever the pivot order,
so no pivoting strategy beyond "first nonzero" is needed.

Dense polynomials are coefficient lists in ascending degree, over ints or
Fractions: product, Horner evaluation and division.  Division is by monic
divisors only (leading coefficient 1), so it never divides a coefficient
and int inputs give int outputs.
"""

from __future__ import annotations

import math


def _echelon(m: list[list[int]]) -> int:
    """Fraction-free (Bareiss) forward elimination of the int rows m in place.

    Returns the pivot count r.  After the step on pivot a each row below
    becomes (a row - f pivot_row) // prev, an exact division by the previous
    pivot, so every entry stays an int minor of the input.  Then m[:r] is in
    echelon form and m[r:] vanishes.
    """
    r, nrows, prev = 0, len(m), 1
    for col in range(len(m[0]) if m else 0):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        a = top[col]
        for i in range(r + 1, nrows):
            f = m[i][col]
            m[i] = [(a * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = a
        r += 1
    return r


def rank(rows: list[list[int]]) -> int:
    """Exact rank of the matrix given as a list of int rows; a Fraction cell raises TypeError."""
    # Scaling a column keeps the rank.  A slot or row over one common
    # denominator carries it into every small early entry; dividing each
    # column by its gcd takes it back out before the minors multiply it up.
    cols = []
    for col in zip(*rows):
        g = math.gcd(*col)
        cols.append([x // g for x in col] if g > 1 else col)
    return _echelon([list(row) for row in zip(*cols)])


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
