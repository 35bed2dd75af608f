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
op pays, ``mlde_from_exponents`` followed by ``fundamental_system``, checked
against ``fraction_solve``: ``setup+solve`` empties the theta-form cache and
the Serre tower's levels before every call, ``setup+solve warm tower`` only
the theta-form cache, so the levels D^j of the equation's weight are
already built, as for an op whose weight and N an earlier op has met.  For
the first set of each order at the same N's, ``theta_form cold`` and
``theta_form warm`` time ``_theta_form`` alone the same two ways; the form
must act on eta like the sum of c_j D^j with every D the series
arithmetic theta f + k P f (not ``serre_derivative``, which reads the same
tower).  For every set of both tables it times
``mlde_from_exponents`` alone (the theta-form's constant terms, the oracle
of the indicial polynomial, must vanish at every exponent) and
``indicial_polynomial`` alone (its roots must be the set; it reads the
equation's constants, builds no theta-form, and its time is the Newton
form and the root search).  ``indicial (large denominator)`` times it on
the order-3 equation of ``large_denominator_equation``, whose constants
have a 61-bit denominator and whose one rational root is 1000/1000003.
Last, ``serre_derivative`` of eta^13 at weight 13/2, which must vanish, at
N 176 and 512: warm, and ``cold`` with the Serre tower's levels emptied
before every call, so the one-time build of level 1 is timed too.

    PYTHONPATH=TREE/src python3 bench/frobenius_scaling.py --tower-memory

prints instead, as JSON, how many tower levels the theta-forms of every
equation of the mlde and the free_basis workloads build (every admissible
set at every N of ``MLDE_N`` and ``FREE_BASIS_N``) and the memory their
cache holds, by ``tracemalloc``: the traced size before and after emptying
it.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from fractions import Fraction
from itertools import combinations
from operator import add

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

#: The perfbench Sizes: the mlde N grid and the free_basis N levels of each order.
MLDE_N = {1: (160, 224), 2: (64, 96), 3: (40, 56), 4: (28, 40)}
FREE_BASIS_N = {1: (32, 40), 2: (24, 32), 3: (20, 24)}


def clear_forms(tower):
    """Empty the theta-form cache and, if ``tower``, the Serre tower's levels."""
    from modforms import classical

    classical._theta_form.cache_clear()
    if tower:
        classical._serre_tower.cache_clear()


def acts_like_chained_derivatives(form, equation, n):
    """Whether the theta-form acts on eta like sum_j c_j D^j, with every D f = theta f + k P f in series arithmetic."""
    from modforms.classical import _apply_theta_form, eisenstein, eta_power, to_qexpansion

    f = eta_power(1, n)
    p = eisenstein("P", n)
    powers = [f]
    for j in range(equation.order):
        powers.append(powers[-1].theta() + (p * powers[-1]).scale(equation.weight + 2 * j))
    want = functools.reduce(add, (to_qexpansion(c, n) * powers[j] for j, c in equation.to_skew().terms))
    return _apply_theta_form(*form, f) == want


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


def large_denominator_equation():
    """Order 3 at weight 5 with g_1(oo) = 1/(2^61 - 1), chosen so that 1000/1000003 is its one rational root."""
    from modforms.classical import PolynomialQR
    from modforms.mlde import MLDE

    root, k0, c1 = F(1000, 1000003), 5, F(1, 2**61 - 1)
    offsets = [F(k0 + 2 * l, 12) for l in range(3)]
    c0 = -((root - offsets[0]) * (root - offsets[1]) * (root - offsets[2]) + c1 * (root - offsets[0]))
    return MLDE.make(k0, 3, [PolynomialQR.monomial(0, 1, c0), PolynomialQR.monomial(1, 0, c1)])


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
    orders = set()
    for name, (exponents, sizes) in WORKLOAD_SETS.items():
        eq = mlde_from_exponents(exponents)
        for n in sizes:
            for label, tower in (("setup+solve", True), ("setup+solve warm tower", False)):
                yield Case(
                    f"{label} ({name}) N{n}",
                    lambda: fundamental_system(mlde_from_exponents(exponents), n),
                    check=lambda out: matches_fraction_solve(out, eq, n),
                    before=functools.partial(clear_forms, tower),
                )
        if eq.order in orders:
            continue
        orders.add(eq.order)
        terms = eq.to_skew().terms
        for n in sizes:
            for label, tower in (("cold", True), ("warm", False)):
                yield Case(
                    f"theta_form {label} (order {eq.order}, {name}) N{n}",
                    lambda: _theta_form(terms, eq.weight, n),
                    check=lambda form: acts_like_chained_derivatives(form, eq, n),
                    before=functools.partial(clear_forms, tower),
                )
    for name, exponents in {**SETS, **{name: exponents for name, (exponents, _) in WORKLOAD_SETS.items()}}.items():
        eq = mlde_from_exponents(exponents)
        yield Case(
            f"mlde_from_exponents ({name})",
            lambda: mlde_from_exponents(exponents),
            check=lambda out: theta_indicial_vanishes(out, exponents),
        )
        yield Case(f"indicial ({name})", lambda: indicial_polynomial(eq), check=lambda ind: ind.roots == exponents)
    eq = large_denominator_equation()
    yield Case(
        "indicial (large denominator)", lambda: indicial_polynomial(eq), check=lambda ind: ind.roots == (F(1000, 1000003),)
    )
    for n in SERRE_SIZES:
        f = eta_power(13, n)
        yield Case(f"serre_derivative eta^13 N{n}", lambda: serre_derivative(f, Fraction(13, 2)), check=lambda out: out.is_zero)
        yield Case(
            f"serre_derivative eta^13 cold N{n}",
            lambda: serre_derivative(f, Fraction(13, 2)),
            check=lambda out: out.is_zero,
            before=functools.partial(clear_forms, True),
        )


def tower_memory():
    """Tower levels and their tracemalloc size over the theta-forms of every mlde and free_basis equation."""
    import tracemalloc

    from modforms.classical import _serre_tower, _theta_form
    from modforms.mlde import mlde_from_exponents

    def admissible(p, min_weight):
        for c in combinations(range(12), p):
            k0 = Fraction(sum(c), p) - p + 1
            if k0.denominator == 1 and (min_weight is None or k0 >= min_weight):
                yield [Fraction(i, 12) for i in c]

    out = {}
    tracemalloc.start()
    for workload, grid, min_weight in (("mlde", MLDE_N, None), ("free_basis", FREE_BASIS_N, 0)):
        clear_forms(True)
        equations = 0
        for p, sizes in grid.items():
            for exponents in admissible(p, min_weight):
                eq = mlde_from_exponents(exponents)
                for n in sizes:
                    _theta_form(eq.to_skew().terms, eq.weight, n)
                    equations += 1
        _theta_form.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        levels = _serre_tower.cache_info().currsize
        _serre_tower.cache_clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
        out[workload] = {"equations": equations, "levels": levels, "bytes": held, "mib": round(held / 2**20, 3)}
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--tower-memory"]:
        print(json.dumps(tower_memory(), indent=1))
    else:
        harness.main(cases)
