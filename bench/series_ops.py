"""Timings of the q-series operations at several truncations.

    PYTHONPATH=src python3 bench/series_ops.py > timings.json

Uses only the public API, so the same script times any two source trees
(point PYTHONPATH at each).  ``SIZES`` runs from the short products of a few
terms (N >= 3, so that ``from_qexpansion`` of M_40, of dimension 4, is
determined) to N 512.  For every truncation N in ``SIZES`` it times
``*``, ``+``, ``scale``, ``theta``, ``to_qexpansion`` and
``serre_derivative`` on two operand families:

* ``integral``: E4 * E6, E4 + E6, E4 scaled by -1/6, theta of eta^13
  (leading exponent 13/24), and the Serre derivative of eta^13 at weight
  13/2 (which must vanish);
* ``rational``: F and theta F for the first component F of the fundamental
  system of the MLDE with exponents (0, 5/6), whose coefficients have
  hundreds to thousands of bits; F * theta F, F + theta F, F scaled by -1/6,
  theta F and the Serre derivative of F at weight 4.

``to_qexpansion`` maps the weight-40 element m = sum Q^u R^v / (1 + u + 2v)
of M_40 (every monomial) to a series, ``from_qexpansion`` maps that series
back to m, and ``delta`` builds the discriminant; these rows have no family
and run with the library's caches as the earlier rows left them (warm).
The ``cold`` rows of ``to_qexpansion`` and ``delta`` clear every cache in
the library before each run, outside the timed region, the way
``perfbench``'s ``Library.clear_caches`` does: every ``modforms`` module
attribute that has, or wraps a function that has, ``cache_clear``.  Every
time is the median of runs repeated until about 0.3 s has been spent (at
most 200).
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from fractions import Fraction

from modforms.classical import (
    PolynomialQR,
    delta,
    eisenstein,
    eta_power,
    from_qexpansion,
    monomial_basis,
    serre_derivative,
    to_qexpansion,
)
from modforms.mlde import fundamental_system, mlde_from_exponents

SIZES = (4, 8, 15, 64, 256, 512)


def clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("modforms"):
            for obj in list(vars(mod).values()):
                while obj is not None and not hasattr(obj, "cache_clear"):
                    obj = getattr(obj, "__wrapped__", None)
                if obj is not None:
                    obj.cache_clear()


def median_time(fn, budget=0.3, before=None):
    times = []
    while len(times) < 200 and sum(times) < budget:
        if before:
            before()
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
    f40 = to_qexpansion(m, n)
    yield "to_qexpansion", None, lambda: to_qexpansion(m, n)
    yield "from_qexpansion", None, lambda: from_qexpansion(f40, 40)
    yield "delta", None, lambda: delta(n)
    yield "to_qexpansion", "cold", lambda: to_qexpansion(m, n)
    yield "delta", "cold", lambda: delta(n)


def main():
    rows = []
    for n in SIZES:
        for op, family, fn in cases(n):
            before = clear_caches if family == "cold" else None
            rows.append({"op": op, "family": family, "n": n, "s": median_time(fn, before=before)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    print(json.dumps({"python": platform.python_version(), "machine": platform.machine(), "rows": rows}, indent=1))


if __name__ == "__main__":
    main()
