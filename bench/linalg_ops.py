"""Timings of exact rank and of from_qexpansion at several truncations.

    PYTHONPATH=src python3 bench/linalg_ops.py > timings.json

Uses only the public API, so the same script times any two source trees
(point PYTHONPATH at each).  For every truncation N in ``SIZES`` it times
``linalg.rank`` on the matrices that ``free_basis_verify`` builds and
``from_qexpansion`` on series of large weight:

* ``rank``, family ``free``: the rows of weight 60 for the generators F, DF
  of the (0, 5/6) fundamental system (the members F Q^u R^v of weight 60
  and DF Q^u R^v, one row of 2(N + 1) int numerators over the row lcm
  each); family ``dependent``: the same rows for F and Q F, whose rank
  falls short by the overlap of their multiples;
* ``from_qexpansion``, families ``M40`` and ``M120``: the series through
  q^N of sum Q^u R^v / (1 + u + 2v) over every monomial of M_w, for w = 40
  and 120, mapped back to that element (shape: N + 1 checked coefficients
  by dim M_w).

It also times criterion 9, ``free_basis_verify([F, DF], 60, 64)``.  Every
time is the median of runs repeated until about 0.5 s has been spent (at
least 3, at most 200).
"""

from __future__ import annotations

import json
import math
import platform
import statistics
import sys
import time
from fractions import Fraction

from modforms.classical import PolynomialQR, eisenstein, from_qexpansion, monomial_basis, to_qexpansion
from modforms.linalg import rank
from modforms.mlde import fundamental_system, mlde_from_exponents
from modforms.structure import free_basis_verify
from modforms.vvmf import module_action, serre_vvmf

SIZES = (64, 256, 512)
WEIGHT = 60


def median_time(fn, budget=0.5):
    times = []
    while len(times) < 3 or (len(times) < 200 and sum(times) < budget):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def weight_rows(gens, w, n):
    """The int rows free_basis_verify hands to rank at weight w (components leading at their lattice base)."""
    lead = [min(g.components[j].leading for g in gens) for j in range(gens[0].p)]
    rows = []
    for g in gens:
        if w < g.weight or (w - g.weight) % 2:
            continue
        for u, v in monomial_basis(w - g.weight):
            mono = to_qexpansion(PolynomialQR.monomial(u, v), n)
            prods = [mono * f for f in g.components]
            den = math.lcm(*(p.den for p in prods))
            row = []
            for p, low in zip(prods, lead):
                zeros = min(int(p.leading - low), n + 1)
                row += [0] * zeros + [x * (den // p.den) for x in p.nums[: n + 1 - zeros]]
            rows.append(row)
    return rows


def weight_form(w, n):
    """sum Q^u R^v / (1 + u + 2v) over the monomials of M_w, and its series through q^n."""
    m = PolynomialQR.make(w, {(u, v): Fraction(1, 1 + u + 2 * v) for u, v in monomial_basis(w)})
    return m, to_qexpansion(m, n)


def cases(n):
    base = fundamental_system(mlde_from_exponents([0, Fraction(5, 6)]), n)
    for family, gens in (("free", [base, serre_vvmf(base)]), ("dependent", [base, module_action(eisenstein("Q", n), 4, base)])):
        rows = weight_rows(gens, WEIGHT, n)
        want = len(rows) if family == "free" else None
        got = rank(rows)
        assert want is None and got < len(rows) or got == want, (family, got)
        yield "rank", family, f"{len(rows)}x{len(rows[0])}", lambda rows=rows: rank(rows)
    for w in (40, 120):
        m, f = weight_form(w, n)
        assert from_qexpansion(f, w) == m
        yield "from_qexpansion", f"M{w}", f"{n + 1}x{len(m.coords)}", lambda f=f, w=w: from_qexpansion(f, w)


def main():
    rows = []
    for n in SIZES:
        for op, family, shape, fn in cases(n):
            rows.append({"op": op, "family": family, "n": n, "shape": shape, "s": median_time(fn)})
            print(json.dumps(rows[-1]), file=sys.stderr)
    base = fundamental_system(mlde_from_exponents([0, Fraction(5, 6)]), 64)
    gens = [base, serre_vvmf(base)]
    crit9 = median_time(lambda: free_basis_verify(gens, 60, 64), budget=3.0)
    print(json.dumps({"criterion_9_s": crit9}), file=sys.stderr)
    out = {"python": platform.python_version(), "machine": platform.machine(), "rows": rows, "criterion_9_s": crit9}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
