"""Timings of the q-series operations at several truncations.

    PYTHONPATH=src python3 bench/series_ops.py > timings.json

Uses only the public API, so the same script times any two source trees
(point PYTHONPATH at each).  For every truncation N in ``SIZES`` it times
``*``, ``+``, ``scale``, ``theta``, ``to_qexpansion`` and
``serre_derivative`` on two operand families:

* ``integral``: E4 * E6, E4 + E6, E4 scaled by -1/6, theta of eta^13
  (leading exponent 13/24), and the Serre derivative of eta^13 at weight
  13/2 (which must vanish);
* ``rational``: F and theta F for the first component F of the fundamental
  system of the MLDE with exponents (0, 5/6), whose coefficients have
  hundreds to thousands of bits; F * theta F, F + theta F, F scaled by -1/6,
  theta F and the Serre derivative of F at weight 4.

``to_qexpansion`` maps the weight-40 element sum Q^u R^v / (1 + u + 2v) of
M_40 (every monomial) to a series; it has no family.  Every time is the
median of runs repeated until about 0.3 s has been spent (at most 200).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from fractions import Fraction

from modforms.classical import PolynomialQR, eisenstein, eta_power, monomial_basis, serre_derivative, to_qexpansion
from modforms.mlde import fundamental_system, mlde_from_exponents

SIZES = (64, 256, 512)


def median_time(fn, budget=0.3):
    times = []
    while len(times) < 200 and sum(times) < budget:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def cases(n):
    e4, e6, eta13 = eisenstein("Q", n), eisenstein("R", n), eta_power(13, n)
    f = fundamental_system(mlde_from_exponents([0, Fraction(5, 6)]), n).components[0]
    g = f.theta()
    assert serre_derivative(eta13, Fraction(13, 2)).is_zero
    yield "mul", "integral", lambda: e4 * e6
    yield "mul", "rational", lambda: f * g
    yield "add", "integral", lambda: e4 + e6
    yield "add", "rational", lambda: f + g
    yield "scale", "integral", lambda: e4.scale(Fraction(-1, 6))
    yield "scale", "rational", lambda: f.scale(Fraction(-1, 6))
    yield "theta", "integral", eta13.theta
    yield "theta", "rational", f.theta
    yield "serre_derivative", "integral", lambda: serre_derivative(eta13, Fraction(13, 2))
    yield "serre_derivative", "rational", lambda: serre_derivative(f, 4)
    m = PolynomialQR.make(40, {(u, v): Fraction(1, 1 + u + 2 * v) for u, v in monomial_basis(40)})
    yield "to_qexpansion", None, lambda: to_qexpansion(m, n)


def main():
    rows = []
    for n in SIZES:
        for op, family, fn in cases(n):
            rows.append({"op": op, "family": family, "n": n, "s": median_time(fn)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(), "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
