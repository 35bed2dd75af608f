"""Timings of the Frobenius recursion, of verify_solution, of indicial_polynomial and of serre_derivative.

    PYTHONPATH=src python3 bench/frobenius_scaling.py > timings.json

For every exponent set and truncation N the script times
``mlde.fundamental_system`` (one ``solve_frobenius`` per indicial root) and
the same fundamental system built by ``fraction_solve``, the recursion that
``solve_frobenius`` ran before its D^j f table moved to integer columns:
every sigma and g_j convolution summed in Fraction arithmetic.  Both must
give equal series; the script stops on any difference.  It also times
``verify_solution`` on every component of the system (``verify_s``, the
sum over components; each must verify), ``indicial_polynomial`` of each
set's equation (``indicial_s``; its roots must be the set, and the
operator's theta-form is cached after the first run, so this is the root
search), and ``serre_derivative`` of eta^13 at weight 13/2, which must
vanish, at N 176 and 512.

Sets: ``(0, 5/6)`` (order 2, weight 4, the README example),
``(1/12, 5/12, 9/12)`` (order 3, weight 3) and ``(1/12, 4/12, 7/12, 8/12)``
(order 4, weight 2).  ``max_bits`` is the largest numerator or denominator
bit length of any coefficient of the system.  Times are medians of runs
repeated until about 0.5 s has been spent (at most 9 runs, 200 for the
sub-millisecond indicial polynomial and Serre derivative), so a run that
takes longer than that is timed once.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from fractions import Fraction

from modforms.classical import _sigma, eta_power, serre_derivative, to_qexpansion
from modforms.mlde import fundamental_system, indicial_polynomial, mlde_from_exponents, verify_solution

SIZES = (64, 256, 512)
SERRE_SIZES = (176, 512)
SETS = {
    "0,5/6": (Fraction(0), Fraction(5, 6)),
    "1/12,5/12,9/12": (Fraction(1, 12), Fraction(5, 12), Fraction(9, 12)),
    "1/12,4/12,7/12,8/12": (Fraction(1, 12), Fraction(4, 12), Fraction(7, 12), Fraction(8, 12)),
}


def fraction_solve(equation, root, n_terms):
    """The pre-integer-column recursion: b[j][n] = coefficient n of D^j f, in Fractions."""
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


def timed(fn, budget=0.5, runs=9):
    """(median time, result of the first run) over runs repeated within the budget."""
    times, result = [], None
    while len(times) < runs and sum(times) < budget:
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        result = out if result is None else result
    return statistics.median(times), result


def main():
    rows = []
    for name, exponents in SETS.items():
        eq = mlde_from_exponents(exponents)
        roots = indicial_polynomial(eq).roots
        for n in SIZES:
            integer_s, system = timed(lambda: fundamental_system(eq, n))
            fraction_s, reference = timed(lambda: [fraction_solve(eq, r, n) for r in roots])
            assert reference == [list(f.coeffs) for f in system.components], (name, n)
            verify_s, reports = timed(lambda: [verify_solution(eq, f, n) for f in system.components])
            assert all(report.ok for report in reports), (name, n)
            coeffs = [c for f in system.components for c in f.coeffs]
            row = {
                "exponents": name,
                "order": len(exponents),
                "weight": eq.weight,
                "n": n,
                "max_bits": max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
                "fraction_s": fraction_s,
                "integer_s": integer_s,
                "speedup": round(fraction_s / integer_s, 1),
                "verify_s": verify_s,
            }
            rows.append(row)
            print(json.dumps(row), file=sys.stderr)
    indicial_rows = []
    for name, exponents in SETS.items():
        eq = mlde_from_exponents(exponents)
        indicial_s, ind = timed(lambda: indicial_polynomial(eq), runs=200)
        assert ind.roots == exponents, name
        row = {"exponents": name, "order": len(exponents), "weight": eq.weight, "indicial_s": indicial_s}
        indicial_rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    serre_rows = []
    for n in SERRE_SIZES:
        f = eta_power(13, n)
        serre_s, out = timed(lambda: serre_derivative(f, Fraction(13, 2)), runs=200)
        assert out.is_zero, n
        serre_rows.append({"form": "eta^13", "weight": "13/2", "n": n, "serre_s": serre_s})
        print(json.dumps(serre_rows[-1]), file=sys.stderr)
    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fundamental_system": rows,
        "indicial_polynomial": indicial_rows,
        "serre_derivative": serre_rows,
    }
    print(json.dumps(doc, indent=2))


if __name__ == "__main__":
    main()
