"""Timings of the Frobenius recursion, of verify_solution, of indicial_polynomial and of serre_derivative.

    python3 bench/frobenius_scaling.py [--rounds R] TREE [TREE ...] > timings.json

The trees are paired by ``harness``.  For every exponent set and truncation N
it times ``mlde.fundamental_system`` (``solve``: one ``solve_frobenius`` per
indicial root) and ``verify_solution`` on every component of that system
(``verify``; each must verify).  ``solve`` is checked against
``fraction_solve``, the recursion that ``solve_frobenius`` ran before its
D^j f table moved to integer columns: every sigma and g_j convolution summed
in Fraction arithmetic.  The series must be equal; this reference is the
slowest part of a run (36.8 s for the order-4 set at N 512 on a 2-core
x86_64 VM with Python 3.11).  A ``solve`` case's name ends with the largest
numerator or denominator bit length of any coefficient of the system.

Sets: ``(0, 5/6)`` (order 2, weight 4, the README example),
``(1/12, 5/12, 9/12)`` (order 3, weight 3) and ``(1/12, 4/12, 7/12, 8/12)``
(order 4, weight 2).

At the sizes of the perfbench workloads (``WORKLOAD_SETS``: one low-height
and one high-height set per order, at the free_basis levels of N and then
the mlde N grid; order 1 has only low-height sets) it times the set-up an
op pays, ``mlde_from_exponents`` followed by ``fundamental_system`` with
the theta-form cache emptied before every call (``setup+solve``, checked
against ``fraction_solve``).  For every set of both tables it times
``mlde_from_exponents`` alone (the theta-form's constant terms, the oracle
of the indicial polynomial, must vanish at every exponent) and
``indicial_polynomial`` alone (its roots must be the set; it reads the
equation's constants, builds no theta-form, and its time is the Newton
form and the root search).  Last, ``serre_derivative`` of eta^13 at weight
13/2, which must vanish, at N 176 and 512.
"""

from __future__ import annotations

from fractions import Fraction

import harness
from harness import Case

SIZES = (64, 256, 512)
SERRE_SIZES = (176, 512)
SETS = {
    "0,5/6": (Fraction(0), Fraction(5, 6)),
    "1/12,5/12,9/12": (Fraction(1, 12), Fraction(5, 12), Fraction(9, 12)),
    "1/12,4/12,7/12,8/12": (Fraction(1, 12), Fraction(4, 12), Fraction(7, 12), Fraction(8, 12)),
}

F = Fraction
WORKLOAD_SETS = {
    "5/12": ((F(5, 12),), (32, 40, 160, 224)),
    "1/12,7/12": ((F(1, 12), F(7, 12)), (24, 32, 64, 96)),
    "0,10/12": ((F(0), F(10, 12)), (24, 32, 64, 96)),
    "1/12,5/12,9/12": ((F(1, 12), F(5, 12), F(9, 12)), (20, 24, 40, 56)),
    "0,2/12,7/12": ((F(0), F(2, 12), F(7, 12)), (20, 24, 40, 56)),
    "0,2/12,6/12,8/12": ((F(0), F(2, 12), F(6, 12), F(8, 12)), (28, 40)),
    "1/12,4/12,7/12,8/12": ((F(1, 12), F(4, 12), F(7, 12), F(8, 12)), (28, 40)),
}


def fraction_solve(equation, root, n_terms):
    """The pre-integer-column recursion: b[j][n] = coefficient n of D^j f, in Fractions."""
    from modforms.classical import _sigma, to_qexpansion
    from modforms.mlde import indicial_polynomial

    poly = indicial_polynomial(equation).poly

    def indicial(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    p = equation.order
    offsets = equation.exponent_offsets()
    weights = [equation.weight + 2 * l for l in range(p)]
    gq = [to_qexpansion(g, n_terms).coeffs for g in equation.coeffs]
    sig = [Fraction(0)] + [Fraction(2 * _sigma(1, m)) for m in range(1, n_terms + 1)]
    b = [[Fraction(0)] * (n_terms + 1) for _ in range(p + 1)]
    b[0][0] = Fraction(1)
    for j in range(p):
        b[j + 1][0] = b[j][0] * (root - offsets[j])
    a = [Fraction(1)] + [Fraction(0)] * n_terms
    for n in range(1, n_terms + 1):
        for j in range(p):
            conv = sum(sig[m] * b[j][n - m] for m in range(1, n + 1))
            b[j + 1][n] = (root + n - offsets[j]) * b[j][n] + weights[j] * conv
        c_n = b[p][n]
        for j in range(p - 1):
            c_n += sum(gq[j][m] * b[j][n - m] for m in range(n + 1))
        a[n] = -c_n / indicial(root + n)
        b[0][n] = a[n]
        partial = Fraction(1)
        for j in range(p):
            partial *= root + n - offsets[j]
            b[j + 1][n] += a[n] * partial
    return a


def theta_indicial_vanishes(equation, exponents):
    """Whether the theta-form's constant terms, den I(lambda), vanish at every exponent."""
    from modforms.classical import _theta_form

    _, h = _theta_form(equation.to_skew().terms, equation.weight, 0)
    return all(sum(hl[0] * m**l for l, hl in enumerate(h)) == 0 for m in exponents)


def cases():
    from modforms.classical import _theta_form, eta_power, serre_derivative
    from modforms.mlde import fundamental_system, indicial_polynomial, mlde_from_exponents, verify_solution

    def matches_fraction_solve(system, eq, n):
        roots = indicial_polynomial(eq).roots
        return [list(f.coeffs) for f in system.components] == [fraction_solve(eq, root, n) for root in roots]

    for name, exponents in SETS.items():
        eq = mlde_from_exponents(exponents)
        for n in SIZES:
            system = fundamental_system(eq, n)
            bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for f in system.components for c in f.coeffs)
            yield Case(
                f"solve ({name}) N{n} {bits} bits",
                lambda: fundamental_system(eq, n),
                check=lambda out: matches_fraction_solve(out, eq, n),
            )
            yield Case(
                f"verify ({name}) N{n}",
                lambda: [verify_solution(eq, f, n) for f in system.components],
                check=lambda reports: all(report.ok for report in reports),
            )
    for name, (exponents, sizes) in WORKLOAD_SETS.items():
        eq = mlde_from_exponents(exponents)
        for n in sizes:
            yield Case(
                f"setup+solve ({name}) N{n}",
                lambda: fundamental_system(mlde_from_exponents(exponents), n),
                check=lambda out: matches_fraction_solve(out, eq, n),
                before=_theta_form.cache_clear,
            )
    for name, exponents in {**SETS, **{name: exponents for name, (exponents, _) in WORKLOAD_SETS.items()}}.items():
        eq = mlde_from_exponents(exponents)
        yield Case(
            f"mlde_from_exponents ({name})",
            lambda: mlde_from_exponents(exponents),
            check=lambda out: theta_indicial_vanishes(out, exponents),
        )
        yield Case(f"indicial ({name})", lambda: indicial_polynomial(eq), check=lambda ind: ind.roots == exponents)
    for n in SERRE_SIZES:
        f = eta_power(13, n)
        yield Case(f"serre_derivative eta^13 N{n}", lambda: serre_derivative(f, Fraction(13, 2)), check=lambda out: out.is_zero)


if __name__ == "__main__":
    harness.main(cases)
